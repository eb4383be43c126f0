"""Recovering a domain model of one factor of a finite product space.

Starting point: an algebraic domain P whose maximal points are labeled, via
a bijection, by the pairs of a product X x Y carrying the relative Scott
topology.  The auxiliary poset Q of admissible triples is P restricted to
its open-box elements: those whose maximal shadow is an open box U x V
around the base point y0, each relabelled as the triple (U, V, k).  The
pipeline takes the ideal completion of Q and certifies that its maximal
points are exactly the ideals attached to the points of X, carrying the X
topology.  Every step of the argument is re-checked at run time, except two
finite theorems: every element of a finite poset is compact, and every
ideal is principal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    DuplicateLabel,
    FormatError,
    InvalidModel,
    NotAnIdeal,
    NotAProductTopology,
    UnknownLabel,
    VerificationFailed,
    excerpt,
)
from .ideals import Ideal, idl_poset
from .poset import (FinitePoset, Label, _iter_bits, _order_violation, build_poset, label_text,
                    poset_from_json, poset_to_json)
from .report import Report
from .topology import Topology, is_scott_closed, relative_topology


@dataclass(frozen=True)
class QTriple:
    """An admissible triple: an element k of P whose maximal shadow is the open box u x v.

    ``u`` is a nonempty open set of X labels, ``v`` an open set of Y labels
    containing the base point; ``build_Q`` makes one triple per such element.
    """

    u: frozenset
    v: frozenset
    k: Label

    def __str__(self) -> str:
        u = ",".join(sorted(map(str, self.u)))
        v = ",".join(sorted(map(str, self.v)))
        return f"(U={{{u}}},V={{{v}}},k={label_text(self.k)})"


def split_product_topology(
    topology: Topology, xs: Iterable, ys: Iterable
) -> tuple[Topology, Topology]:
    """Factor a topology on pair points, or raise NotAProductTopology.

    In a product every slice carries its factor's topology, and the smallest
    open around a pair is the box of the smallest opens around its
    coordinates.  So the first slices are the only candidate factors, and
    the topology is a product exactly when every smallest open is that box.
    """
    xs, ys = tuple(xs), tuple(ys)
    if not (xs and ys) or frozenset(topology.space) != frozenset((x, y) for x in xs for y in ys):
        raise InvalidModel("topology space is not the set of pairs of two nonempty factors")
    tx = topology.renamed({(x, ys[0]): x for x in xs}, xs)
    ty = topology.renamed({(xs[0], y): y for y in ys}, ys)
    for x in xs:
        for y in ys:
            u, v = tx.smallest_open(x), ty.smallest_open(y)
            if topology.smallest_open((x, y)) != frozenset((a, b) for a in u for b in v):
                raise NotAProductTopology(
                    f"smallest open around ({x}, {y}) is not the box "
                    f"{sorted(map(str, u))} x {sorted(map(str, v))}"
                )
    return tx, ty


class ProductModel:
    """An algebraic domain model of a finite product space.

    ``max_labeling`` must biject the maximal elements of the poset with the
    pairs of label_x x label_y; the base point ``y0`` is a Y label.  The
    constructor validates all of it, including that the relative Scott
    topology on the maximal points, transported along the labeling, is the
    product of its factor topologies (a finite poset is always algebraic).
    """

    def __init__(
        self,
        poset: FinitePoset,
        label_x: Iterable,
        label_y: Iterable,
        max_labeling: Mapping[Label, tuple],
        y0,
    ):
        self.poset = poset
        self.label_x = tuple(label_x)
        self.label_y = tuple(label_y)
        for labels, name in ((self.label_x, "X"), (self.label_y, "Y")):
            if not labels:
                raise InvalidModel(f"factor {name} has no labels")
            if len(set(labels)) != len(labels):
                raise DuplicateLabel(f"factor {name} repeats a label")
        if y0 not in self.label_y:
            raise UnknownLabel(f"base point {excerpt(y0)} is not a Y label")
        self.y0 = y0

        maximal = poset.maximal_elements()
        keys = frozenset(max_labeling)
        if keys != maximal:
            stray = sorted(map(str, keys ^ maximal))
            raise InvalidModel(f"labeling keys differ from the maximal elements: {excerpt(stray)}")
        pairs = {}
        for element, pair in max_labeling.items():
            pair = tuple(pair)
            if len(pair) != 2 or pair[0] not in self.label_x or pair[1] not in self.label_y:
                raise InvalidModel(f"labeling value {excerpt(pair)} is not an (x, y) pair")
            pairs[element] = pair
        wanted = {(x, y) for x in self.label_x for y in self.label_y}
        if set(pairs.values()) != wanted or len(set(pairs.values())) != len(pairs):
            raise InvalidModel("labeling is not a bijection onto the label pairs")
        self.max_labeling = pairs
        self.pair_to_max = {pair: element for element, pair in pairs.items()}

        transported = self.transported_max_topology()
        self.topology_x, self.topology_y = split_product_topology(
            transported, self.label_x, self.label_y
        )

    def transported_max_topology(self) -> Topology:
        """Relative Scott topology on the maxima, renamed to label pairs."""
        rel = relative_topology(self.poset, self.poset.maximal_elements())
        space = [(x, y) for x in self.label_x for y in self.label_y]
        return rel.renamed(self.max_labeling, space)

    def max_shadow(self, k: Label) -> frozenset:
        """Pairs labeling the maximal elements above an element: one row operation."""
        poset, labeling = self.poset, self.max_labeling
        return frozenset(labeling[poset.elements[i]]
                         for i in _iter_bits(poset._up[poset.index(k)] & poset._max_mask))

    def __repr__(self) -> str:
        return (
            f"ProductModel({len(self.poset)} elements, "
            f"{len(self.label_x)}x{len(self.label_y)} maxima)"
        )


def build_Q(model: ProductModel) -> FinitePoset:
    """The triple poset: P restricted to its open-box elements, relabelled as triples.

    An element k is kept when its maximal shadow is a box U x V with U
    nonempty, U open in X, V open in Y and y0 in V; its triple is (U, V, k),
    listed in the order of the model's elements.  The approximation
    order puts t1 below t2 when k1 <= k2 and shadow(k2) fits inside t1's
    box.  Here that box is shadow(k1), which holds shadow(k2) whenever
    k1 <= k2, so the order is P's own, restricted.
    """
    triples = {}
    for k in model.poset.elements:
        shadow = model.max_shadow(k)
        u = frozenset(x for x, _ in shadow)
        v = frozenset(y for _, y in shadow)
        if (u and len(shadow) == len(u) * len(v) and model.y0 in v
                and model.topology_x.is_open(u) and model.topology_y.is_open(v)):
            triples[k] = QTriple(u, v, k)
    kept = model.poset.restrict(triples)
    return FinitePoset([triples[k] for k in kept.elements], kept._up)


def ideal_J(model: ProductModel, x, q_poset: FinitePoset) -> Ideal:
    """The triples whose X open contains the point; checked to be an ideal."""
    if x not in model.label_x:
        raise UnknownLabel(f"{excerpt(x)} is not an X label")
    members = frozenset(t for t in q_poset.elements if x in t.u)
    try:
        return Ideal(q_poset, members)
    except NotAnIdeal as exc:
        raise NotAnIdeal(f"claim-selected-are-ideals does not hold: triples selected by "
                         f"{excerpt(x)} are not an ideal: {exc}") from exc


def covering_intersection(model: ProductModel, q_poset: FinitePoset, x) -> frozenset:
    """Intersection of the X opens over the triples selected by a point."""
    members = [t for t in q_poset.elements if x in t.u]
    out = frozenset(model.label_x)
    for t in members:
        out &= t.u
    return out


def verify_claims(
    model: ProductModel,
    q_poset: FinitePoset,
    completion: FinitePoset,
    selected: Mapping[object, Ideal],
) -> Report:
    """Re-check every claim of the factorization on concrete data.

    Raises VerificationFailed naming the first claim that does not hold;
    on success the returned report lists one line per claim.
    """
    report = Report()
    report.info("q-count", len(q_poset))

    violation = _order_violation(q_poset._up)
    report.check("claim-partial-order", violation is None, violation and violation[0])

    # each selected family must be J(x) held as an Ideal of the triple poset,
    # whose constructor has already checked that it is a directed lower set
    not_ideal = None
    for x in model.label_x:
        ideal = selected.get(x)
        if not (isinstance(ideal, Ideal) and ideal.base == q_poset
                and ideal.members == frozenset(t for t in q_poset.elements if x in t.u)):
            not_ideal = x
            break
    report.check("claim-selected-are-ideals", not_ideal is None, not_ideal)

    maximal_ideals = completion.maximal_elements()
    selected_sets = {x: frozenset(selected[x].members) for x in selected}
    image = frozenset(selected_sets.values())

    # every maximal ideal must be a selected one
    missing = [m for m in maximal_ideals if m not in image]
    report.check(
        "claim-max-ideals-are-selected",
        not missing,
        None if not missing else sorted(map(str, next(iter(missing)))),
    )

    # every selected ideal must be maximal, so the two families agree
    not_max = [x for x, s in sorted(selected_sets.items(), key=str) if s not in maximal_ideals]
    report.check("claim-selected-are-maximal", not not_max, not_max[0] if not_max else None)
    report.check(
        "claim-max-point-bijection",
        len(set(selected_sets.values())) == len(model.label_x)
        and image == frozenset(maximal_ideals),
    )

    # Once the claims above hold, the point map is a bijection onto the
    # maxima: pull the relative topology back along it.  The map is
    # continuous when each X row lies inside its pulled-back row, and open
    # when the reverse holds.
    rel = relative_topology(completion, maximal_ideals)
    if report.ok:
        tx = model.topology_x
        pulled = rel.renamed({s: x for x, s in selected_sets.items()}, tx.space)
        loose = [back for row, back in zip(tx.around, pulled.around) if row & ~back]
        tight = [row for row, back in zip(tx.around, pulled.around) if back & ~row]
        report.check("claim-map-continuous", not loose,
                     loose and sorted(map(str, tx.labels_of(loose[0]))))
        report.check("claim-map-open", not tight,
                     tight and sorted(map(str, tx.labels_of(tight[0]))))
        report.check("topology-transport-exact", pulled == tx)
    report.info("max-count", len(maximal_ideals))

    if not report.ok:
        first = report.failures()[0]
        raise VerificationFailed(f"{first} does not hold on this model")
    return report


def factor_model(model: ProductModel) -> tuple[FinitePoset, dict, Report]:
    """Domain model of the X factor: completion, point map, and certificate."""
    q_poset = build_Q(model)
    completion, _embedding = idl_poset(q_poset)
    selected = {x: ideal_J(model, x, q_poset) for x in model.label_x}
    report = verify_claims(model, q_poset, completion, selected)
    point_map = {x: frozenset(selected[x].members) for x in model.label_x}
    return completion, point_map, report


def lower_set_model(model: ProductModel, y) -> tuple[FinitePoset, Report]:
    """Down set of one Y fiber of the maxima, with its structural report.

    Every finite poset is an ideal domain, so the report states that of the
    ambient poset and the down set; it checks that the down set is Scott
    closed and that its maxima are the fiber, carrying the X topology.
    """
    if y not in model.label_y:
        raise UnknownLabel(f"{excerpt(y)} is not a Y label")
    report = Report()
    report.info("fiber", y)
    targets = frozenset(model.pair_to_max[(x, y)] for x in model.label_x)
    lower = model.poset.down_set(targets)
    report.info("lower-set-size", len(lower))
    report.check("scott-closed", is_scott_closed(model.poset, lower))
    report.info("ambient-ideal-domain", "yes")
    report.info("lower-set-ideal-domain", "yes")
    sub = model.poset.restrict(lower)
    sub_max = sub.maximal_elements()
    fiber_ok = report.check(
        "max-equals-fiber",
        sub_max == targets,
        sorted(map(str, sub_max ^ targets)) or None,
    )
    if fiber_ok:
        rel = relative_topology(sub, sub_max)
        first = {e: model.max_labeling[e][0] for e in sub_max}
        renamed = rel.renamed(first, model.label_x)
        report.check("max-homeomorphic-to-factor", renamed == model.topology_x)
    else:
        report.check("max-homeomorphic-to-factor", False, "fiber mismatch")
    return sub, report


def algebraic_model(p: FinitePoset) -> FinitePoset:
    """An algebraic domain with the same maximal point space.

    The ideal completion always works; the homeomorphism between the two
    maximal point spaces is verified here rather than assumed.
    """
    completion, embedding = idl_poset(p)
    maximal = p.maximal_elements()
    comp_max = completion.maximal_elements()
    sent = {e: embedding[e] for e in maximal}
    if frozenset(sent.values()) != comp_max or len(set(sent.values())) != len(maximal):
        raise VerificationFailed("maximal points do not biject with maximal ideals")
    rel_p = relative_topology(p, maximal)
    rel_c = relative_topology(completion, comp_max)
    if rel_p.renamed(sent, rel_c.space) != rel_c:
        raise VerificationFailed("maximal point topologies do not correspond")
    return completion


# -- a concrete family of models ---------------------------------------------


def chain_pairs_model(depth: int) -> ProductModel:
    """A finite model of a discrete (chain-prefix x two-point) space.

    A chain 0 < 1 < ... < depth < inf sits below the single pair element
    (0,1); every other pair element (n,b) is isolated, hence maximal.  The
    order deliberately carries nothing else.
    """
    if depth < 0:
        raise InvalidModel("depth must be at least 0")
    chain = [str(i) for i in range(depth + 1)]
    xs = list(chain)
    ys = ["0", "1"]
    pair_labels = {(x, b): f"({x},{b})" for x in xs for b in ys}
    elements = chain + ["inf"] + [pair_labels[(x, b)] for x in xs for b in ys]
    covers = [(chain[i], chain[i + 1]) for i in range(depth)]
    covers.append((chain[-1], "inf"))
    covers.append(("inf", pair_labels[("0", "1")]))
    poset = build_poset(elements, covers)
    labeling = {pair_labels[(x, b)]: (x, b) for x in xs for b in ys}
    return ProductModel(poset, xs, ys, labeling, "0")


# -- file format ---------------------------------------------------------------


def model_to_json(model: ProductModel) -> dict:
    return {
        "poset": poset_to_json(model.poset),
        "labelX": list(model.label_x),
        "labelY": list(model.label_y),
        "maxLabeling": {
            str(e): [x, y] for e, (x, y) in sorted(model.max_labeling.items(), key=str)
        },
        "y0": model.y0,
    }


def model_from_json(data: object) -> ProductModel:
    if not isinstance(data, dict):
        raise FormatError("model file must hold a JSON object")
    poset = poset_from_json(data.get("poset"))
    label_x = data.get("labelX")
    label_y = data.get("labelY")
    if not (isinstance(label_x, list) and isinstance(label_y, list)) or any(
        isinstance(label, (list, dict)) for label in label_x + label_y
    ):
        raise FormatError('"labelX" and "labelY" must be arrays of scalar labels')
    raw = data.get("maxLabeling")
    if not isinstance(raw, dict):
        raise FormatError('"maxLabeling" must map maximal elements to [x, y] pairs')
    labeling = {}
    for element, pair in raw.items():
        if not (isinstance(pair, list) and len(pair) == 2):
            raise FormatError(f"malformed maxLabeling entry {excerpt(pair)}")
        labeling[element] = (pair[0], pair[1])
    if "y0" not in data:
        raise FormatError('"y0" is required')
    return ProductModel(poset, label_x, label_y, labeling, data["y0"])
