"""Finite order structures, their Scott topologies, and two infinite case studies.

The finite side: posets with exact Scott opens, way-below, completions by
ideals, and a verified construction that recovers a factor of a product of
maximal-point spaces from a single algebraic model.  The infinite side: a
symbolic fragment of two chain-bundle domains, decidable enough to run a
diagonal argument against countable open covers in one and to certify a
countable-intersection description of the maxima in the other.
"""

from .errors import (
    CycleDetected,
    DuplicateLabel,
    EmptySet,
    ForeignSet,
    FormatError,
    InputError,
    InvalidModel,
    NotAnIdeal,
    NotAProductTopology,
    NotCoveringMax,
    OrdtopError,
    TooLarge,
    UnknownLabel,
    VerificationFailed,
)
from .factorization import (
    ProductModel,
    QTriple,
    algebraic_model,
    build_Q,
    chain_pairs_model,
    covering_intersection,
    factor_model,
    ideal_J,
    lower_set_model,
    model_from_json,
    split_product_topology,
    verify_claims,
)
from .ideals import all_ideals, idl_poset, principal_ideal
from .poset import (
    FinitePoset,
    build_poset,
    find_order_isomorphism,
    label_text,
    load_poset,
    poset_from_json,
    poset_to_json,
    product,
    to_dot,
)
from .report import Report
from .symbolic import (
    MODE_L,
    MODE_LHAT,
    ChainPoint,
    ChainTop,
    Cylinder,
    OpenFamily,
    Selector,
    SelectorPoint,
    SymbolicOpen,
    ThresholdRule,
    contains_max,
    cutoff_open,
    diagonal_witness,
    family_from_json,
    gdelta_certificate_lhat,
    in_mode,
    is_maximal,
    l_leq,
    open_from_json,
    symbolic_member,
    truncate_domain,
    truncation_members,
    truncation_poset,
    validate_open,
)
from .topology import (
    Topology,
    compact_elements,
    is_algebraic,
    is_bounded_complete,
    is_continuous,
    is_gdelta,
    is_ideal_domain,
    is_scott_closed,
    is_scott_open,
    is_upper_set,
    relative_topology,
    scott_opens,
    way_below,
)

__version__ = "0.1.0"

__all__ = [
    "OrdtopError", "InputError", "VerificationFailed",
    "FormatError", "DuplicateLabel", "UnknownLabel", "CycleDetected", "ForeignSet",
    "EmptySet", "TooLarge", "InvalidModel",
    "NotAProductTopology", "NotAnIdeal", "NotCoveringMax",
    "FinitePoset", "build_poset", "product", "find_order_isomorphism",
    "label_text", "poset_to_json", "poset_from_json", "load_poset", "to_dot",
    "Topology", "is_upper_set", "is_scott_open",
    "is_scott_closed", "scott_opens", "relative_topology", "way_below",
    "compact_elements", "is_continuous", "is_algebraic", "is_ideal_domain",
    "is_bounded_complete", "is_gdelta",
    "principal_ideal", "all_ideals", "idl_poset",
    "Report",
    "QTriple", "ProductModel", "split_product_topology",
    "build_Q", "ideal_J", "covering_intersection",
    "verify_claims", "factor_model", "lower_set_model", "algebraic_model",
    "chain_pairs_model", "model_from_json",
    "MODE_L", "MODE_LHAT", "Selector", "ChainPoint", "ChainTop",
    "SelectorPoint", "ThresholdRule", "Cylinder", "SymbolicOpen",
    "l_leq", "in_mode", "is_maximal", "symbolic_member", "validate_open",
    "contains_max", "OpenFamily", "diagonal_witness", "cutoff_open",
    "gdelta_certificate_lhat", "truncate_domain", "truncation_members",
    "truncation_poset",
    "open_from_json", "family_from_json",
]
