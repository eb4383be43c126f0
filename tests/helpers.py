"""Shared builders, generators, writers and subset-sweep oracles for the test suite."""

import json
from itertools import combinations, permutations, product as cartesian
from random import Random

from ordtop import (
    MODE_L,
    MODE_LHAT,
    ChainPoint,
    ChainTop,
    DuplicateLabel,
    FinitePoset,
    FormatError,
    InvalidModel,
    NotAProductTopology,
    ProductModel,
    QTriple,
    Report,
    Selector,
    ThresholdRule,
    Topology,
    UnknownLabel,
    VerificationFailed,
    build_poset,
    OpenFamily,
    SymbolicOpen,
    contains_max,
    is_scott_open,
    poset_to_json,
    relative_topology,
    symbolic_member,
    validate_open,
)
from ordtop import symbolic
from ordtop.errors import excerpt
from ordtop.poset import _iter_bits, _order_violation, _transitive_close, _utf8_labels
from ordtop.topology import _union_closure


def chain(n: int) -> FinitePoset:
    labels = [f"c{i}" for i in range(n)]
    return build_poset(labels, list(zip(labels, labels[1:])))


def antichain(n: int) -> FinitePoset:
    return build_poset([f"a{i}" for i in range(n)], [])


def diamond() -> FinitePoset:
    return build_poset(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )


def vshape() -> FinitePoset:
    # two bottoms under two shared tops: the bottoms have no least upper bound
    return build_poset(
        ["a", "b", "t1", "t2"],
        [("a", "t1"), ("a", "t2"), ("b", "t1"), ("b", "t2")],
    )


def crown(n: int, rooted: bool = False) -> FinitePoset:
    """Bottoms b_i below every top c_j with i != j, under one root if asked.

    From n = 4 on, two bottoms have n - 2 minimal upper bounds and no join.
    """
    bottoms = [f"b{i}" for i in range(n)]
    tops = [f"c{j}" for j in range(n)]
    covers = [(b, c) for i, b in enumerate(bottoms) for j, c in enumerate(tops) if i != j]
    if rooted:
        return build_poset(["root"] + bottoms + tops, [("root", b) for b in bottoms] + covers)
    return build_poset(bottoms + tops, covers)


def numeric_poset() -> FinitePoset:
    """Ten numeric points whose texts sort apart from their positions ("10" < "100" < "2")."""
    return build_poset(
        [10, 9, 100, 2, 30, 2.5, 1, 20, 0, 11],
        [(10, 9), (9, 100), (2, 30), (2.5, 1), (0, 11), (0, 20), (1, 20)],
    )


def subsets(items) -> list[frozenset]:
    """Every subset, by size."""
    items = list(items)
    return [frozenset(c) for r in range(len(items) + 1) for c in combinations(items, r)]


def discrete_model(nx: int, ny: int) -> ProductModel:
    """Antichain of pairs labeled as an nx-by-ny discrete product."""
    xs = [f"x{i}" for i in range(nx)]
    ys = [f"y{j}" for j in range(ny)]
    labels = [f"({x},{y})" for x in xs for y in ys]
    poset = build_poset(labels, [])
    labeling = {f"({x},{y})": (x, y) for x in xs for y in ys}
    return ProductModel(poset, xs, ys, labeling, ys[0])


def rooted_model() -> ProductModel:
    """Two maximal pairs, each approximated by its own bottom element."""
    poset = build_poset(
        ["a1", "a2", "(x1,y)", "(x2,y)"],
        [("a1", "(x1,y)"), ("a2", "(x2,y)")],
    )
    labeling = {"(x1,y)": ("x1", "y"), "(x2,y)": ("x2", "y")}
    return ProductModel(poset, ["x1", "x2"], ["y"], labeling, "y")


# -- poset generators ------------------------------------------------------------
#
# Both generators only ever emit orders that are compatible with the element
# numbering (x below y implies index(x) <= index(y)), which costs nothing up
# to isomorphism and keeps the enumeration small.


def _close_upper_triangular(n: int, strict: dict[tuple[int, int], bool]) -> list[int] | None:
    """Masks for a reflexive-transitive order, or None when not transitive."""
    masks = [1 << i for i in range(n)]
    for (i, j), present in strict.items():
        if present:
            masks[i] |= 1 << j
    return masks if _order_violation(masks) is None else None


def _canonical_key(n: int, masks: list[int]) -> tuple:
    best = None
    for perm in permutations(range(n)):
        pairs = sorted(
            (perm[i], perm[j])
            for i in range(n)
            for j in _iter_bits(masks[i])
            if i != j
        )
        key = tuple(pairs)
        if best is None or key < best:
            best = key
    return best


def all_posets(n: int) -> list[FinitePoset]:
    """Every poset on n elements, one representative per isomorphism class."""
    if n == 0:
        return [FinitePoset((), ())]
    labels = tuple(f"e{i}" for i in range(n))
    slots = list(combinations(range(n), 2))
    seen: set[tuple] = set()
    out: list[FinitePoset] = []
    for choice in range(1 << len(slots)):
        strict = {slots[k]: bool(choice >> k & 1) for k in range(len(slots))}
        masks = _close_upper_triangular(n, strict)
        if masks is None:
            continue
        key = _canonical_key(n, masks)
        if key in seen:
            continue
        seen.add(key)
        out.append(FinitePoset(labels, masks))
    return out


def random_poset(n: int, rng: Random) -> FinitePoset:
    """A uniform-ish random poset; label order is shuffled afterwards."""
    density = rng.uniform(0.1, 0.9)
    masks = [1 << i for i in range(n)]
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            masks[i] |= 1 << j
    _transitive_close(masks)
    # Shuffle which label lands on which index so consumers cannot rely on
    # the order being index-monotone.
    perm = list(range(n))
    rng.shuffle(perm)
    return FinitePoset([f"e{perm[i]}" for i in range(n)], masks)


# -- writers: the inverses of the library's readers --------------------------------


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


def open_to_json(open_set: SymbolicOpen) -> dict:
    return {
        "thresholds": {
            "default": open_set.thresholds.default,
            "exceptions": {str(i): v for i, v in open_set.thresholds.exceptions},
        },
        "allPhiLevel1": open_set.all_level1,
        "extraPhi": [
            {"conds": {str(i): v for i, v in c.conds}, "levels": sorted(c.levels)}
            for c in open_set.cylinders
        ],
    }


def family_to_json(family: OpenFamily) -> list:
    return [open_to_json(family.member(j)) for j in family.indices()]


# -- subset-sweep oracles ------------------------------------------------------
#
# Each sweep tests all 2^n subsets, or every pair, as the textbook statement
# does; the library's fast path is checked against it.  The directed-set
# definitions are the library's own ``way_below``, Scott checks, ``is_gdelta``
# and ``all_ideals``.


def oracle_posets() -> list[FinitePoset]:
    """Every poset on up to five elements, plus seeded random ones up to ten."""
    rng = Random(2502)
    posets = [p for n in range(6) for p in all_posets(n)]
    posets += [random_poset(rng.randint(6, 10), rng) for _ in range(60)]
    return posets


def oracle_mirror(mask: int, n: int) -> int:
    """The mask over n positions with bit i moved to bit n - 1 - i, one set bit at a time."""
    return sum(1 << (n - 1 - i) for i in _iter_bits(mask))


def oracle_discrete_texts(texts: list[str]):
    """Each subset of the points ``texts`` as ``a,b``, each size by ``combinations``: the canonical order."""
    return (",".join(subset) for k in range(len(texts) + 1) for subset in combinations(texts, k))


def oracle_load_json(path: str) -> object:
    """``load_json`` through a text-mode reader, which decodes and translates line ends as it reads."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def oracle_poset_from_json(data: object) -> FinitePoset:
    """``poset_from_json`` in two passes: every cover entry's shape first, then its labels, then the build.

    A malformed entry is named before a duplicate label, a duplicate label
    before an unknown one (low before high, in entry order), and those
    before a cycle, which the build reports.
    """
    if not isinstance(data, dict):
        raise FormatError("poset file must hold a JSON object")
    elements = data.get("elements")
    covers = data.get("covers")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise FormatError('"elements" must be an array of strings')
    _utf8_labels(elements)
    if not isinstance(covers, list):
        raise FormatError('"covers" must be an array of [low, high] pairs')
    pairs = []
    for item in covers:
        if not (isinstance(item, list) and len(item) == 2
                and isinstance(item[0], str) and isinstance(item[1], str)):
            raise FormatError(f"malformed cover entry {excerpt(item)}")
        pairs.append((item[0], item[1]))
    seen = set()
    for label in elements:
        if label in seen:
            raise DuplicateLabel(f"duplicate element label {excerpt(label)}")
        seen.add(label)
    for label in (label for pair in pairs for label in pair):
        if label not in seen:
            raise UnknownLabel(f"cover mentions unknown label {excerpt(label)}")
    return build_poset(elements, pairs)


def oracle_transitive_close(masks: list[int]) -> list[int]:
    """The reflexive-transitive closure of the rows, by Warshall's n^2 row updates."""
    masks = list(masks)
    n = len(masks)
    for i in range(n):
        masks[i] |= 1 << i
    for k in range(n):
        bit = 1 << k
        row = masks[k]
        for i in range(n):
            if masks[i] & bit:
                masks[i] |= row
    return masks


def oracle_covers(p: FinitePoset) -> tuple:
    """The transitive reduction, testing every related pair for a member strictly between."""
    out = []
    for i in range(len(p)):
        strict_up = p._up[i] & ~(1 << i)
        for j in _iter_bits(strict_up):
            between = strict_up & p._down[j] & ~(1 << j)
            if between == 0:
                out.append((p.elements[i], p.elements[j]))
    return tuple(out)


def oracle_product(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """The componentwise order on pairs (a, b) at a * |q| + b, one related pair ORed in at a time."""
    nq = len(q)
    elements = [(a, b) for a in p.elements for b in q.elements]
    masks = []
    for i in range(len(p)):
        for j in range(nq):
            row = 0
            for k in _iter_bits(p._up[i]):
                for l in _iter_bits(q._up[j]):
                    row |= 1 << (k * nq + l)
            masks.append(row)
    return FinitePoset(elements, masks)


def oracle_scott_opens(p: FinitePoset) -> Topology:
    """The Scott opens, testing every subset against the definition."""
    return Topology.from_opens(p.elements, [u for u in subsets(p.elements) if is_scott_open(p, u)])


def oracle_sorted_opens(topology: Topology) -> list[frozenset]:
    """The unions of the smallest opens as label sets, sorted by size, then sorted positions."""
    pos = {pt: i for i, pt in enumerate(topology.elements)}
    opens = {topology.labels_of(mask) for mask in _union_closure(topology._up)}
    return sorted(opens, key=lambda u: (len(u), tuple(sorted(pos[x] for x in u))))


def oracle_is_upper_set(p: FinitePoset | Topology, members) -> bool:
    """Each member's row lies inside the set, member by member over the mask's bits.

    The mask is ORed together one scan of the labels at a time, so this shares
    no code with ``mask_of`` and its label lookup.  A topology's rows are its
    smallest opens, so on one this is the open test.
    """
    mask = 0
    for label in members:
        mask |= 1 << p.elements.index(label)
    return all(p._up[i] & ~mask == 0 for i in _iter_bits(mask))


def oracle_is_bounded_complete(p: FinitePoset) -> bool:
    """Every subset with an upper bound has a least one, subset by subset."""
    full = (1 << len(p)) - 1
    for mask in range(1 << len(p)):
        ub = full
        for i in _iter_bits(mask):
            ub &= p._up[i]
        if ub and not any(ub & ~p._up[u] == 0 for u in _iter_bits(ub)):
            return False
    return True


def oracle_split_product_topology(topology: Topology, xs, ys) -> tuple[Topology, Topology]:
    """Factor a topology on pair points by comparing explicit open families.

    The candidate factors are the section families (slices of opens along
    each coordinate); these are the only possible factors, so the check is
    complete: the topology is a product exactly when every open satisfies
    the pointwise box condition against the sections and every box is open.
    """
    xs, ys = tuple(xs), tuple(ys)
    pairs = frozenset((x, y) for x in xs for y in ys)
    if frozenset(topology.elements) != pairs:
        raise InvalidModel("topology space is not the expected set of pairs")
    tx_opens = {frozenset(x for x in xs if (x, y) in w) for w in topology.opens for y in ys}
    ty_opens = {frozenset(y for y in ys if (x, y) in w) for w in topology.opens for x in xs}
    tx_opens |= {frozenset(), frozenset(xs)}
    ty_opens |= {frozenset(), frozenset(ys)}
    for u in tx_opens:
        for v in ty_opens:
            box = frozenset((x, y) for x in u for y in v)
            if box not in topology.opens:
                raise NotAProductTopology(
                    f"box {sorted(map(str, u))} x {sorted(map(str, v))} is not open"
                )
    for w in topology.opens:
        for x, y in w:
            if not any(
                x in u and y in v and all((a, b) in w for a in u for b in v)
                for u in tx_opens
                for v in ty_opens
            ):
                raise NotAProductTopology(
                    f"open containing ({x}, {y}) holds no open box around it"
                )
    return Topology.from_opens(xs, tx_opens), Topology.from_opens(ys, ty_opens)


def max_shadow(model: ProductModel, k) -> frozenset:
    """Pairs labeling the maximal elements above an element, read off its pair mask in ``model._shadows()``."""
    ny = len(model.label_y)
    return frozenset((model.label_x[q // ny], model.label_y[q % ny])
                     for q in _iter_bits(model._shadows()[model.poset.index(k)]))


def oracle_max_shadow(model: ProductModel, k) -> frozenset:
    """Pairs labeling the maximal elements above an element, from the label sets."""
    maximal = model.poset.maximal_elements()
    return frozenset(model.max_labeling[e] for e in model.poset.up_set([k]) if e in maximal)


def oracle_open_box_Q(model: ProductModel) -> FinitePoset:
    """Q from label sets: P restricted to the elements whose shadow is an open box U x V with
    U nonempty and y0 in V, each relabelled as its triple."""
    triples = {}
    for k in model.poset.elements:
        shadow = oracle_max_shadow(model, k)
        u = frozenset(x for x, _ in shadow)
        v = frozenset(y for _, y in shadow)
        if (u and len(shadow) == len(u) * len(v) and model.y0 in v
                and model.topology_x.is_open(u) and model.topology_y.is_open(v)):
            triples[k] = QTriple(u, v, k)
    kept = model.poset.restrict(triples)
    return FinitePoset([triples[k] for k in kept.elements], kept._up)


def oracle_lower_set_model(model: ProductModel, y) -> tuple[FinitePoset, Report]:
    """The lower model from label sets: the down set of the fiber, its subposet, and the
    relative topology on its maxima renamed to X labels and compared with the X topology."""
    report = Report()
    report.info("fiber", y)
    pair_to_max = {pair: e for e, pair in model.max_labeling.items()}
    targets = frozenset(pair_to_max[(x, y)] for x in model.label_x)
    lower = model.poset.down_set(targets)
    report.info("lower-set-size", len(lower))
    report.check("scott-closed", all(model.poset.down_set([e]) <= lower for e in lower))
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


def oracle_boxes(model: ProductModel) -> list[tuple[QTriple, frozenset]]:
    """Every triple whose open box fits inside its element's shadow, with that box.

    U ranges over the nonempty X opens and V over the Y opens holding y0, both
    listed in the canonical order, and the triples run in (k, U, V) order.
    """
    opens_x = [u for u in model.topology_x.sorted_opens() if u]
    opens_y = [v for v in model.topology_y.sorted_opens() if model.y0 in v]
    out = []
    for k in model.poset.elements:
        shadow = oracle_max_shadow(model, k)
        for u in opens_x:
            for v in opens_y:
                box = frozenset((x, y) for x in u for y in v)
                if box <= shadow:
                    out.append((QTriple(u, v, k), box))
    return out


def oracle_build_Q(model: ProductModel) -> FinitePoset:
    """The triple poset by enumeration, under the shadow order, with its axioms checked.

    t1 sits below t2 when k1 <= k2 and shadow(k2) fits inside t1's box.  A
    box strictly inside its shadow is below no triple, not even itself, so
    VerificationFailed names the first triple where an axiom fails.
    """
    boxes = oracle_boxes(model)
    p = model.poset
    shadows = {k: oracle_max_shadow(model, k) for k in p.elements}
    rows = [
        sum(1 << j for j, (t2, _) in enumerate(boxes)
            if p.le(t1.k, t2.k) and shadows[t2.k] <= box)
        for t1, box in boxes
    ]
    violation = _order_violation(rows)
    if violation is not None:
        axiom, at = violation
        raise VerificationFailed(
            f"triple order is not {axiom} at {', '.join(str(boxes[i][0]) for i in at)}"
        )
    return FinitePoset([t for t, _ in boxes], rows)


def oracle_box_order_Q(model: ProductModel) -> FinitePoset:
    """Every enumerated triple, ordered by comparing boxes: k1 <= k2 and box2 inside box1."""
    boxes = oracle_boxes(model)
    rows = [
        sum(1 << j for j, (t2, box2) in enumerate(boxes) if model.poset.le(t1.k, t2.k) and box2 <= box1)
        for t1, box1 in boxes
    ]
    return FinitePoset([t for t, _ in boxes], rows)


# -- symbolic oracles ------------------------------------------------------------
#
# The symbolic checkers decide from exception lists and batch reads; these
# decide point by point, straight from the threshold reading.


def oracle_forced(thresholds: ThresholdRule, selector: Selector) -> bool:
    """Some chain's threshold is at or below the pick: every exception chain, then the defaults."""
    indices = {i for i, _ in thresholds.exceptions} | {i for i, _ in selector.exceptions}
    for i in indices:
        t = thresholds(i)
        if t is not None and selector(i) >= t:
            return True
    return thresholds.default is not None and selector.default >= thresholds.default


def oracle_gdelta_certificate_lhat(bound: int) -> Report:
    """The Lhat certificate with one membership query per chain point, top and sample.

    A level-0 selector point is a member when it is forced or a cylinder
    grants level 0; forcing is decided by ``oracle_forced``.
    """
    report = Report()
    report.info("mode", MODE_LHAT)
    report.info("bound", bound)
    family = [symbolic.cutoff_open(k) for k in range(bound + 1)]
    for k, open_set in enumerate(family):
        report.check(
            f"cutoff {k} valid-and-covering",
            validate_open(open_set, MODE_LHAT) and contains_max(open_set, MODE_LHAT),
        )
    failure = next(
        ((i, n) for i in range(bound + 1) for n in range(bound + 1)
         if symbolic_member(family[max(i, n)], ChainPoint(i, n))),
        None,
    )
    report.info("chain-points-checked", (bound + 1) ** 2)
    report.check("non-maximal-chain-points-excluded", failure is None, failure)
    report.info(
        "structural-rule",
        "chain point (i,n) is excluded by the cutoff at index max(i,n), "
        "so the intersection of all cutoffs holds no chain point",
    )
    top_failure = next(
        ((k, i) for k in range(bound + 1) for i in range(bound + 1)
         if not symbolic_member(family[k], ChainTop(i))),
        None,
    )
    report.check("chain-tops-in-every-cutoff", top_failure is None, top_failure)
    samples = [
        Selector(),
        Selector.from_mapping({0: bound}),
        Selector.from_mapping({j: j for j in range(min(bound, 5))}, default=1),
    ]
    selector_failure = next(
        ((k, m) for k in range(bound + 1) for m, s in enumerate(samples)
         if not (oracle_forced(family[k].thresholds, s)
                 or any(0 in c.levels and c.matches(s) for c in family[k].cylinders))),
        None,
    )
    report.check("selector-points-in-every-cutoff", selector_failure is None, selector_failure)
    report.check("intersection-equals-max-at-bound", report.ok)
    return report



# -- truncations by their definition: generators closed by the generic closure


def oracle_truncation(width: int, depth: int, mode: str) -> FinitePoset:
    """A truncation as ``build_poset`` closes its generating relation.

    Each chain point sits below the next one (the last below the chain's
    top), a selector's level-0 point sits above the chain points it picks,
    and in L mode its level-1 point sits above its level-0 point.
    """
    levels = (0, 1) if mode == MODE_L else (0,)
    chains = [[f"({i},{n})" for n in range(depth)] for i in range(width)]
    elements, generators = [], []
    for i, column in enumerate(chains):
        elements += column + [f"({i},inf)"]
        generators += zip(column, column[1:] + [f"({i},inf)"])
    for values in cartesian(range(depth), repeat=width):
        labels = ["s[" + ",".join(map(str, values)) + f"]@{level}" for level in levels]
        elements += labels
        generators += [(chains[i][v], labels[0]) for i, v in enumerate(values)]
        generators += zip(labels, labels[1:])
    return build_poset(elements, generators)
