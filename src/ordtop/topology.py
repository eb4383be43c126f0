"""Scott topology on finite posets, the way-below relation, and the
classification predicates built from them.

On a finite poset every directed set has a greatest element, so the Scott
condition collapses: open means upper, and way-below means below.  Both
facts are still implemented from the definitions (directed-set quantifiers
included) next to the fast paths, so the two routes can be played against
each other in tests instead of trusting the collapse.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ForeignSet, TooLarge
from .poset import FinitePoset, Label, _iter_bits

DEFAULT_MAX_ELEMENTS = 20


def _guard(p: FinitePoset, max_elements: int) -> None:
    if len(p) > max_elements:
        raise TooLarge(
            f"poset has {len(p)} elements; exhaustive sweep bounded at {max_elements}"
        )


class Topology:
    """A finite topology: an ordered point tuple plus its open sets.

    ``space`` fixes the deterministic point order used everywhere; opens are
    stored as frozensets of points.  Construction checks the cheap axioms
    (empty set and whole space present, opens inside the space); the closure
    axioms are checked by ``validate``, which is quadratic in the number of
    opens and therefore explicit.
    """

    def __init__(self, space: Iterable, opens: Iterable[frozenset]):
        self.space = tuple(space)
        if len(set(self.space)) != len(self.space):
            raise ValueError("topology space has repeated points")
        self.opens = frozenset(frozenset(u) for u in opens)
        pointset = frozenset(self.space)
        if frozenset() not in self.opens:
            raise ValueError("topology misses the empty set")
        if pointset not in self.opens:
            raise ValueError("topology misses the whole space")
        for u in self.opens:
            if not u <= pointset:
                raise ValueError("open set leaves the space")

    def _key(self, u: frozenset) -> tuple:
        pos = {pt: i for i, pt in enumerate(self.space)}
        return (len(u), tuple(sorted(pos[x] for x in u)))

    def sorted_opens(self) -> list[frozenset]:
        """Opens ordered by size then point positions; the canonical order."""
        return sorted(self.opens, key=self._key)

    def validate(self) -> None:
        """Raise ValueError unless closed under intersections and unions."""
        pos = {pt: i for i, pt in enumerate(self.space)}
        masks = set()
        for u in self.opens:
            m = 0
            for x in u:
                m |= 1 << pos[x]
            masks.add(m)
        listed = sorted(masks)
        for a in listed:
            for b in listed:
                if a & b not in masks:
                    raise ValueError("opens are not closed under intersection")
                if a | b not in masks:
                    raise ValueError("opens are not closed under union")

    @property
    def is_discrete(self) -> bool:
        return len(self.opens) == 1 << len(self.space)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return frozenset(self.space) == frozenset(other.space) and self.opens == other.opens

    def __hash__(self) -> int:
        return hash((frozenset(self.space), self.opens))

    def __repr__(self) -> str:
        return f"Topology({len(self.space)} points, {len(self.opens)} opens)"


# -- directed families -------------------------------------------------------


def _directed_families(p: FinitePoset, max_elements: int) -> list[tuple[int, int | None]]:
    """All (mask, sup index or None) for nonempty directed subsets; cached."""
    cached = p.__dict__.get("_directed_cache")
    if cached is not None:
        return cached
    _guard(p, max_elements)
    out = [(mask, p._sup(mask)) for mask in range(1, 1 << len(p)) if p._directed(mask)]
    p.__dict__["_directed_cache"] = out
    return out


# -- closure enumeration ------------------------------------------------------


def _union_closure(rows: Iterable[int]) -> set[int]:
    """Every union of some of the given masks, the empty union 0 included.

    Each pass only adds unions to a family that is already part of the
    answer, so the cost is one set operation per row and member of the
    result, never a sweep over all subsets.
    """
    family = {0}
    for row in rows:
        family |= {f | row for f in family}
    return family


# -- Scott opens --------------------------------------------------------------


def is_upper_set(p: FinitePoset, members: Iterable[Label]) -> bool:
    mask = p.mask_of(members)
    for i in _iter_bits(mask):
        if p._up[i] & ~mask:
            return False
    return True


def is_scott_open(
    p: FinitePoset,
    members: Iterable[Label],
    *,
    exhaustive: bool = False,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> bool:
    """Upper set whose membership is inaccessible by directed suprema.

    The fast path checks upward closure, which is the whole condition on a
    finite poset.  ``exhaustive=True`` additionally quantifies over every
    directed subset: whenever the supremum lands in the set, some member of
    the directed subset must already be there.
    """
    mask = p.mask_of(members)
    upper = all(p._up[i] & ~mask == 0 for i in _iter_bits(mask))
    if not exhaustive:
        return upper
    inaccessible = True
    for dmask, sup in _directed_families(p, max_elements):
        if sup is not None and mask >> sup & 1 and dmask & mask == 0:
            inaccessible = False
            break
    return upper and inaccessible


def is_scott_closed(
    p: FinitePoset,
    members: Iterable[Label],
    *,
    exhaustive: bool = False,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> bool:
    """Lower set closed under suprema of directed subsets."""
    mask = p.mask_of(members)
    down = p._down
    lower = all(down[i] & ~mask == 0 for i in _iter_bits(mask))
    if not exhaustive:
        return lower
    closed = True
    for dmask, sup in _directed_families(p, max_elements):
        if dmask & ~mask == 0 and sup is not None and not mask >> sup & 1:
            closed = False
            break
    return lower and closed


def scott_opens(p: FinitePoset, max_elements: int = DEFAULT_MAX_ELEMENTS) -> Topology:
    """The whole Scott topology as an explicit family.

    The opens are the unions of principal up-sets: every upper set is the
    union of the up-sets of its members, and every such union is upper.
    """
    _guard(p, max_elements)
    return Topology(p.elements, [p.labels_of(mask) for mask in _union_closure(p._up)])


def relative_topology(
    p: FinitePoset,
    subspace: Iterable[Label],
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> Topology:
    """Scott opens of ``p`` traced onto a subset of its elements.

    The traces are the unions of the traced principal up-sets of subspace
    points: for an upper set U, the trace U & S is the union of the traces
    of the up-sets of the members of U & S.  The ambient opens are never
    enumerated.
    """
    smask = p.mask_of(subspace)
    _guard(p, max_elements)
    space = [p.elements[i] for i in _iter_bits(smask)]
    traces = _union_closure(p._up[i] & smask for i in _iter_bits(smask))
    return Topology(space, [p.labels_of(mask) for mask in traces])


# -- way below ----------------------------------------------------------------


def way_below(
    p: FinitePoset,
    x: Label,
    y: Label,
    *,
    exhaustive: bool = False,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> bool:
    """x approximates y: directed sets reaching above y must meet above x.

    Fast path: on a finite poset this is just x below y.  The exhaustive
    path runs the definition over every directed subset with a supremum.
    """
    ix, iy = p.index(x), p.index(y)
    if not exhaustive:
        return p._up[ix] >> iy & 1 == 1
    upx = p._up[ix]
    for dmask, sup in _directed_families(p, max_elements):
        if sup is None:
            continue
        # y below the supremum must force a member of D above x
        if p._up[iy] >> sup & 1 and dmask & upx == 0:
            return False
    return True


def compact_elements(p: FinitePoset) -> frozenset[Label]:
    """Elements way below themselves."""
    return frozenset(x for x in p.elements if way_below(p, x, x))


# -- classification -----------------------------------------------------------


def is_continuous(p: FinitePoset) -> bool:
    """Every element is the directed supremum of its approximants."""
    if not p.is_dcpo():
        return False
    for x in p.elements:
        approx = frozenset(y for y in p.elements if way_below(p, y, x))
        if not p.is_directed(approx) or p.supremum(approx) != x:
            return False
    return True


def is_algebraic(p: FinitePoset) -> bool:
    """Every element is the directed supremum of its compact approximants."""
    if not p.is_dcpo():
        return False
    compact = compact_elements(p)
    for x in p.elements:
        approx = frozenset(a for a in compact if p.le(a, x))
        if not p.is_directed(approx) or p.supremum(approx) != x:
            return False
    return True


def is_ideal_domain(p: FinitePoset) -> bool:
    """A continuous dcpo in which every element is compact or maximal."""
    if not (p.is_dcpo() and is_continuous(p)):
        return False
    compact = compact_elements(p)
    maximal = p.maximal_elements()
    return all(x in compact or x in maximal for x in p.elements)


def is_bounded_complete(p: FinitePoset, max_elements: int = DEFAULT_MAX_ELEMENTS) -> bool:
    """Every subset with an upper bound has a least one.

    The empty subset counts: any element bounds it, so a nonempty bounded
    complete poset must have a bottom.  The check runs over the distinct
    bound sets rather than the subsets: the upper bounds of a subset are
    the meet of its members' up-sets, so the bound sets are exactly the
    intersections of up-sets, the whole poset (the empty meet) included.
    They are enumerated as complements of unions of complements.
    """
    _guard(p, max_elements)
    up = p._up
    full = (1 << len(p)) - 1
    for gaps in _union_closure(full ^ row for row in up):
        ub = full ^ gaps
        if ub and not any(ub & ~up[u] == 0 for u in _iter_bits(ub)):
            return False
    return True


# -- countable intersections in a finite setting ------------------------------


def is_gdelta(topology: Topology, subset: Iterable) -> bool:
    """Whether the subset is an intersection of opens.

    In a finite topology every intersection of opens is already realized by
    the (finite) intersection of all opens containing the subset, so the
    test compares that intersection with the subset itself.
    """
    target = frozenset(subset)
    if not target <= frozenset(topology.space):
        raise ForeignSet("subset leaves the topology's space")
    meet = frozenset(topology.space)
    for u in topology.opens:
        if target <= u:
            meet &= u
    return meet == target
