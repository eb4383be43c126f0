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
ideal is principal.  The checks run on bitmask rows over pair positions
a * |Y| + b; label sets are built only for printed witnesses and for what
the functions return.
"""

from __future__ import annotations

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
from .ideals import idl_poset
from .poset import (FinitePoset, Label, _cut_rows, _iter_bits, _mask_at, _order_violation, _rows_inside, _spread,
                    Record, _utf8_labels, build_poset, label_text, poset_from_json)
from .report import Report
from .topology import Topology, relative_topology


class QTriple(Record):
    """An admissible triple: an element k of P whose maximal shadow is the open box u x v.

    ``u`` is a nonempty open set of X labels, ``v`` an open set of Y labels
    containing the base point; ``build_Q`` makes one triple per such element.
    """

    _fields = ("u", "v", "k")

    def __init__(self, u: frozenset, v: frozenset, k: Label):
        self.__dict__.update(u=u, v=v, k=k)

    def __str__(self) -> str:
        u = ",".join(sorted(map(str, self.u)))
        v = ",".join(sorted(map(str, self.v)))
        return f"(U={{{u}}},V={{{v}}},k={label_text(self.k)})"


def _relative_rows(p: FinitePoset, at: list[int]) -> list[int]:
    """The relative Scott topology on the elements at these positions: their up-rows cut to them, in order."""
    return _cut_rows(p._up, at)


def split_product_topology(
    topology: Topology, xs: Iterable, ys: Iterable
) -> tuple[Topology, Topology]:
    """Factor a topology on pair points, or raise NotAProductTopology.

    In a product every slice carries its factor's topology, and the smallest
    open around a pair is the box of the smallest opens around its
    coordinates.  So the first slices are the only candidate factors, and
    the topology is a product exactly when every smallest open is that box.
    On rows over pair positions a * |Y| + b, a box is ``_spread(U) * V``.
    """
    xs, ys = tuple(xs), tuple(ys)
    at, ny = [topology._index.get((x, y)) for x in xs for y in ys], len(ys)
    if not (xs and ys) or len(at) != len(topology) or None in at or len(set(at)) != len(at):
        raise InvalidModel("topology space is not the set of pairs of two nonempty factors")
    rows = topology._up if at == sorted(at) else _cut_rows(topology._up, at)
    tx = Topology(xs, (int(f"{row:0{len(rows)}b}"[ny - 1::ny], 2) for row in rows[::ny]))
    ty = Topology(ys, (row & (1 << ny) - 1 for row in rows[:ny]))
    boxes = [_spread(u, ny) for u in tx._up]
    for q, row in enumerate(rows):
        a, b = divmod(q, ny)
        if row != boxes[a] * ty._up[b]:
            u, v = tx.labels_of(tx._up[a]), ty.labels_of(ty._up[b])
            raise NotAProductTopology(
                f"smallest open around ({xs[a]}, {ys[b]}) is not the box "
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
    It holds rows over pair positions: ``_maxima[a * |Y| + b]`` is the poset
    position of the maximum labelled (label_x[a], label_y[b]), and the rows
    of ``topology_x`` and ``topology_y`` follow label_x and label_y.
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
        slots = {pair: q for q, pair in enumerate((x, y) for x in self.label_x for y in self.label_y)}
        pairs, maxima = {}, [None] * len(slots)
        for element, pair in max_labeling.items():
            pair = tuple(pair)
            try:
                maxima[slots[pair]] = poset._index[element]
            except (KeyError, TypeError):  # not a pair of factor labels, or a label that cannot be one
                raise InvalidModel(f"labeling value {excerpt(pair)} is not an (x, y) pair") from None
            pairs[element] = pair
        if len(pairs) != len(maxima) or None in maxima:
            raise InvalidModel("labeling is not a bijection onto the label pairs")
        self.max_labeling, self._maxima = pairs, maxima
        self.topology_x, self.topology_y = split_product_topology(
            self.transported_max_topology(), self.label_x, self.label_y
        )

    def transported_max_topology(self) -> Topology:
        """Relative Scott topology on the maxima, renamed to label pairs in pair-position order."""
        space = [(x, y) for x in self.label_x for y in self.label_y]
        return Topology(space, _relative_rows(self.poset, self._maxima))

    def _shadows(self) -> list[int]:
        """Each element's maximal shadow: the pairs labeling the maxima above it, as a pair mask."""
        bit, top = {at: 1 << q for q, at in enumerate(self._maxima)}, self.poset._max_mask
        return [sum(map(bit.__getitem__, _iter_bits(row & top))) for row in self.poset._up]

    def __repr__(self) -> str:
        return (
            f"ProductModel({len(self.poset)} elements, "
            f"{len(self.label_x)}x{len(self.label_y)} maxima)"
        )


def build_Q(model: ProductModel) -> FinitePoset:
    """The triple poset: P restricted to its open-box elements, relabelled as triples.

    An element k is kept when its maximal shadow is a box U x V with U
    nonempty, U open in X, V open in Y and y0 in V; its triple is (U, V, k),
    listed in the order of the model's elements.  A shadow is a pair mask,
    and a box when it is ``_spread(U) * V`` for its projections U and V.
    The approximation order puts t1 below t2 when k1 <= k2 and shadow(k2)
    fits inside t1's box.  Here that box is shadow(k1), which holds
    shadow(k2) whenever k1 <= k2, so the order is P's own, restricted.
    """
    tx, ty, ny = model.topology_x, model.topology_y, len(model.label_y)
    base = 1 << model.label_y.index(model.y0)
    kept, triples = [], []
    for i, shadow in enumerate(model._shadows()):
        u = v = 0
        for q in _iter_bits(shadow):
            u |= 1 << q // ny
            v |= 1 << q % ny
        if (u and v & base and shadow == _spread(u, ny) * v
                and _rows_inside(tx._up, _iter_bits(u), u) and _rows_inside(ty._up, _iter_bits(v), v)):
            kept.append(i)
            triples.append(QTriple(tx.labels_of(u), ty.labels_of(v), model.poset.elements[i]))
    return FinitePoset(triples, _relative_rows(model.poset, kept))


def _selection(model: ProductModel, q_poset: FinitePoset) -> dict[object, int]:
    """J(x) for every X label as a mask over the triples: one pass ORs bit j into each x in U_j."""
    columns = dict.fromkeys(model.label_x, 0)
    for j, t in enumerate(q_poset.elements):
        for x in t.u:
            columns[x] |= 1 << j
    return columns


def ideal_J(model: ProductModel, x, q_poset: FinitePoset) -> frozenset:
    """The triples whose X open contains the point, checked as ``verify_claims`` checks an ideal."""
    if x not in model.label_x:
        raise UnknownLabel(f"{excerpt(x)} is not an X label")
    mask = _selection(model, q_poset)[x]
    if mask not in q_poset._down:
        raise NotAnIdeal(f"triples selected by {excerpt(x)} are not an ideal: no triple's down-set")
    return q_poset.labels_of(mask)


def covering_intersection(model: ProductModel, q_poset: FinitePoset, x) -> frozenset:
    """Intersection of the X opens over the triples selected by a point."""
    out = frozenset(model.label_x)
    for j in _iter_bits(_selection(model, q_poset).get(x, 0)):
        out &= q_poset.elements[j].u
    return out


def verify_claims(
    model: ProductModel,
    q_poset: FinitePoset,
    completion: FinitePoset,
    selected: Mapping[object, frozenset],
) -> Report:
    """Re-check every claim of the factorization on concrete data, and report each.

    ``selected`` maps each X label to the set of triples it selects.  The
    report lists one line per claim, with the first witness of a claim that
    does not hold; ``report.ok`` is the verdict.  Nothing is raised.
    """
    report = Report()
    report.info("q-count", len(q_poset))

    violation = _order_violation(q_poset._up)
    report.check("claim-partial-order", violation is None, violation and violation[0])

    # each selected family must be J(x), and J(x) an ideal: in a finite poset
    # every ideal is principal, so its mask is a row of the down-sets
    downs = frozenset(q_poset._down)
    not_ideal = next((x for x, mask in _selection(model, q_poset).items()
                      if mask not in downs or selected.get(x) != q_poset.labels_of(mask)), None)
    report.check("claim-selected-are-ideals", not_ideal is None, not_ideal)

    # the selected and the maximal ideals as masks; a set that is no element has no position
    index, maximal = completion._index, completion._max_mask
    at = [index.get(s) for s in selected.values()]
    image = _mask_at([i for i in at if i is not None], len(completion))

    # every maximal ideal must be a selected one; the witness is the first one
    # missing in the completion's order, so that no hash seed can change it
    missing = maximal & ~image
    report.check("claim-max-ideals-are-selected", not missing,
                 missing and sorted(map(str, completion.elements[(missing & -missing).bit_length() - 1])))

    # every selected ideal must be maximal, so the two families agree
    not_max = [item for item, i in zip(selected.items(), at) if i is None or not maximal >> i & 1]
    report.check("claim-selected-are-maximal", not not_max, min(not_max, key=str)[0] if not_max else None)
    report.check("claim-max-point-bijection",
                 None not in at and image == maximal and image.bit_count() == len(model.label_x))

    # Once the claims above hold, the point map is a bijection onto the
    # maxima: pull the relative topology back along it.  The map is
    # continuous when each X row lies inside its pulled-back row, and open
    # when the reverse holds; the transport is exact when both do.
    if report.ok:
        tx = model.topology_x
        pulled = _relative_rows(completion, [index[selected[x]] for x in tx.elements])
        loose = [back for row, back in zip(tx._up, pulled) if row & ~back]
        tight = [row for row, back in zip(tx._up, pulled) if back & ~row]
        report.check("claim-map-continuous", not loose,
                     loose and sorted(map(str, tx.labels_of(loose[0]))))
        report.check("claim-map-open", not tight,
                     tight and sorted(map(str, tx.labels_of(tight[0]))))
        report.check("topology-transport-exact", not loose and not tight)
    report.info("max-count", maximal.bit_count())
    return report


def factor_model(model: ProductModel) -> tuple[FinitePoset, dict, Report]:
    """Domain model of the X factor: completion, point map, and certificate."""
    q_poset = build_Q(model)
    completion, _embedding = idl_poset(q_poset)
    point_map = {x: q_poset.labels_of(mask) for x, mask in _selection(model, q_poset).items()}
    return completion, point_map, verify_claims(model, q_poset, completion, point_map)


def lower_set_model(model: ProductModel, y) -> tuple[FinitePoset, Report]:
    """Down set of one Y fiber of the maxima, with its structural report.

    Every finite poset is an ideal domain, so the report states that of the
    ambient poset and the down set; it checks that the down set is lower (so
    Scott closed) and that its maxima are the fiber, carrying the X topology.
    Fiber, down set and maxima are masks; the fiber's X rows are compared with ``topology_x._up``.
    """
    if y not in model.label_y:
        raise UnknownLabel(f"{excerpt(y)} is not a Y label")
    p = model.poset
    report = Report()
    report.info("fiber", y)
    fiber = model._maxima[model.label_y.index(y)::len(model.label_y)]
    targets = _mask_at(fiber, len(p))
    positions = [i for i, row in enumerate(p._up) if row & targets]  # below some fiber element
    lower = _mask_at(positions, len(p))
    report.info("lower-set-size", len(positions))
    report.check("scott-closed", _rows_inside(p._down, positions, lower))
    report.info("ambient-ideal-domain", "yes")
    report.info("lower-set-ideal-domain", "yes")
    maxima = _mask_at((i for i in positions if p._up[i] & lower == 1 << i), len(p))
    fiber_ok = report.check("max-equals-fiber", maxima == targets,
                            sorted(map(str, p.labels_of(maxima ^ targets))) or None)
    report.check("max-homeomorphic-to-factor",
                 fiber_ok and _relative_rows(p, fiber) == list(model.topology_x._up),
                 None if fiber_ok else "fiber mismatch")
    return FinitePoset([p.elements[i] for i in positions], _relative_rows(p, positions)), report


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
    if rel_p.renamed(sent, rel_c.elements) != rel_c:
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
    _utf8_labels(label for label in label_x + label_y if isinstance(label, str))
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
