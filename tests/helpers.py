"""Shared builders and subset-sweep oracles for the test suite."""

from itertools import combinations, product as cartesian
from random import Random

from ordtop import (
    MODE_L,
    MODE_LHAT,
    ChainPoint,
    ChainTop,
    FinitePoset,
    InvalidModel,
    NotAProductTopology,
    ProductModel,
    QTriple,
    Report,
    Selector,
    ThresholdRule,
    Topology,
    VerificationFailed,
    build_poset,
    contains_max,
    is_scott_open,
    symbolic_member,
    validate_open,
)
from ordtop import symbolic
from ordtop.generate import all_posets, random_poset
from ordtop.poset import _iter_bits, _order_violation
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


def oracle_scott_opens(p: FinitePoset) -> Topology:
    """The Scott opens, testing every subset against the definition."""
    return Topology.from_opens(p.elements, [u for u in subsets(p.elements) if is_scott_open(p, u)])


def oracle_sorted_opens(topology: Topology) -> list[frozenset]:
    """The unions of the smallest opens as label sets, sorted by size, then sorted positions."""
    pos = {pt: i for i, pt in enumerate(topology.space)}
    opens = {topology.labels_of(mask) for mask in _union_closure(topology.around)}
    return sorted(opens, key=lambda u: (len(u), tuple(sorted(pos[x] for x in u))))


def oracle_is_upper_set(p: FinitePoset, members) -> bool:
    """Each member's up-set lies inside the set, member by member over the mask's bits."""
    mask = p.mask_of(members)
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
    if frozenset(topology.space) != pairs:
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


def oracle_max_shadow(model: ProductModel, k) -> frozenset:
    """Pairs labeling the maximal elements above an element, from the label sets."""
    maximal = model.poset.maximal_elements()
    return frozenset(model.max_labeling[e] for e in model.poset.up_set([k]) if e in maximal)


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
