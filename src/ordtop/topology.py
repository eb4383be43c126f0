"""Scott topology on finite posets, the way-below relation, and the
classification predicates built from them.

A finite topology is fixed by its specialization preorder (Alexandrov,
"Diskrete Räume", 1937), so ``Topology`` keeps the smallest open around each
point, the poset rows of that preorder (``poset.LabelledRows``), and builds
the open family only for callers that list it.

On a finite poset a nonempty directed set contains its supremum as its
greatest element, so the Scott conditions collapse: open means upper, closed
means lower, and way-below means below.  The verbs state that collapse; the
definitions (``way_below``, the Scott checks, ``is_gdelta``) quantify over
every directed subset or open, cost 2^n, and no verb calls them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Mapping

from .errors import excerpt
from .poset import (FinitePoset, Label, LabelledRows, _cut_rows, _iter_bits, _label_index, _mask_at, _mirror,
                    _order_violation, _rows_inside)


class Topology(LabelledRows):
    """A finite topology, stored as the smallest open set around each point.

    ``elements`` fixes the point order used everywhere; ``_up[i]`` is a
    bitmask over those positions holding the smallest open around
    ``elements[i]``.  The opens are the unions of these rows, listed on first
    use as ``open_masks``.  ``validate`` checks that the rows nest;
    ``from_opens`` is the way in for an explicit open family.
    """

    _kind = "topology"

    def __init__(self, elements: Iterable, rows: Iterable[int]):
        super().__init__(elements, rows)
        n = len(self.elements)
        for i, row in enumerate(self._up):
            if row >> n or not row >> i & 1:
                raise ValueError(f"smallest open around {self.elements[i]!r} is not around it")

    @classmethod
    def from_opens(cls, space: Iterable, family: Iterable[Iterable]) -> "Topology":
        """The topology with exactly the given opens, or ValueError.

        Each point's row is the meet of the members holding it, so it holds
        the point.  Every member is the union of its points' rows, so the
        family is a topology exactly when it holds every union of rows.
        """
        space = tuple(space)
        index = _label_index(space)
        try:
            masks = {_mask_at([index[x] for x in u], len(space)) for u in family}
        except KeyError:
            raise ValueError("open set leaves the space") from None
        rows = [(1 << len(space)) - 1] * len(space)
        for mask in masks:
            for i in _iter_bits(mask):
                rows[i] &= mask
        if _union_closure(rows) != masks:
            raise ValueError("family is not closed under unions and meets, empty ones included")
        return cls._indexed(space, index, rows)

    def smallest_open(self, point) -> frozenset:
        """The meet of all opens around a point, itself open."""
        return self.labels_of(self._up[self._positions((point,))[0]])

    def renamed(self, name: Mapping, space: Iterable) -> "Topology":
        """The subspace on the points ``name`` maps, renamed along it onto ``space``.

        ValueError names the first label that ``name`` does not match one to one.
        """
        space = tuple(space)
        points, source = set(space), {}  # each new name's old positions
        for old, pt in enumerate(self.elements):
            if pt in name:
                source.setdefault(name[pt], []).append(old)
        for label in (*source, *space):
            if label not in points or len(source.get(label, ())) != 1:
                raise ValueError(f"the renaming and the space disagree at {excerpt(label)}")
        return Topology(space, _cut_rows(self._up, [source[pt][0] for pt in space]))

    @cached_property
    def open_masks(self) -> tuple[int, ...]:
        """Every open as a mask, in the canonical order: by size, then by sorted positions.

        Here position i sits at bit n - 1 - i, so the rows are mirrored once
        each before their unions are taken.  Of two opens of one size, the one
        holding the lowest differing position comes first, and that is the
        larger integer: each size class is a plain descending sort.
        """
        n = len(self)
        by_size: list[list[int]] = [[] for _ in range(n + 1)]
        for mask in _union_closure(_mirror(row, n) for row in self._up):
            by_size[mask.bit_count()].append(mask)
        ordered: list[int] = []
        for same in by_size:
            same.sort(reverse=True)
            ordered += same
        return tuple(ordered)

    @cached_property
    def opens(self) -> frozenset[frozenset]:
        """Every open set: the unions of the smallest opens."""
        return frozenset(self.sorted_opens())

    def sorted_opens(self) -> list[frozenset]:
        """The opens as label sets, in the canonical order of ``open_masks``."""
        backwards = self.elements[::-1]
        return [frozenset(backwards[b] for b in _iter_bits(mask)) for mask in self.open_masks]

    def validate(self) -> None:
        """Raise ValueError unless the rows nest: they must form a preorder."""
        violation = _order_violation(self._up)
        if violation is not None and violation[0] != "antisymmetric":
            axiom, at = violation
            raise ValueError(f"rows are not {axiom} at {[self.elements[k] for k in at]}")

    @cached_property
    def is_discrete(self) -> bool:
        """Whether every smallest open is a singleton, so that every subset is open."""
        return all(row == 1 << i for i, row in enumerate(self._up))

    @property
    def open_count(self) -> int:
        """How many opens there are: 2^n on a discrete space, with no open listed."""
        return 1 << len(self) if self.is_discrete else len(self.open_masks)

    def __repr__(self) -> str:
        return f"Topology({len(self)} points)"


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


@lru_cache(maxsize=1)  # the last poset only, so that the cache keeps no poset alive
def _directed_sups(p: FinitePoset) -> tuple[tuple[int, int | None], ...]:
    """(mask, sup index or None) for every nonempty directed subset, testing all 2^n subsets."""
    return tuple((mask, p._sup(mask)) for mask in range(1, 1 << len(p)) if p._directed(mask))


# does the set hold every element above each member?  Positions are looked up once; no bit is walked
is_upper_set = FinitePoset.is_open


def is_scott_open(p: FinitePoset, members: Iterable[Label]) -> bool:
    """Upper, and every directed subset whose supremum lands inside already meets it.

    The definition, 2^n; no verb calls it.  On a finite poset it agrees with ``is_upper_set``.
    """
    mask = p.mask_of(members)
    upper = is_upper_set(p, p.labels_of(mask))
    return upper and not any(sup is not None and mask >> sup & 1 and dmask & mask == 0
                             for dmask, sup in _directed_sups(p))


def is_scott_closed(p: FinitePoset, members: Iterable[Label]) -> bool:
    """Lower, and holds the supremum of every directed subset it holds.

    The definition, 2^n; no verb calls it.  On a finite poset it agrees with the lower-set test.
    """
    mask = p.mask_of(members)
    lower = _rows_inside(p._down, _iter_bits(mask), mask)
    return lower and not any(dmask & ~mask == 0 and sup is not None and not mask >> sup & 1
                             for dmask, sup in _directed_sups(p))


def scott_opens(p: FinitePoset) -> Topology:
    """The whole Scott topology.

    The opens are the upper sets, so the smallest open around an element is
    its principal up-set.
    """
    return Topology._indexed(p.elements, p._index, p._up)


def relative_topology(p: FinitePoset, subspace: Iterable[Label]) -> Topology:
    """Scott opens of ``p`` traced onto a subset of its elements.

    The smallest open around a subspace point is the trace of its principal
    up-set, which is the up-set in the restricted order.
    """
    sub = p.restrict(subspace)
    return Topology._indexed(sub.elements, sub._index, sub._up)


# -- way below ----------------------------------------------------------------


def way_below(p: FinitePoset, x: Label, y: Label) -> bool:
    """x approximates y: every directed subset whose supremum is above y has a member above x.

    The definition, 2^n; no verb calls it.  On a finite poset it agrees with the order.
    """
    upx, upy = p._up[p.index(x)], p._up[p.index(y)]
    return not any(sup is not None and upy >> sup & 1 and dmask & upx == 0
                   for dmask, sup in _directed_sups(p))


def compact_elements(p: FinitePoset) -> frozenset[Label]:
    """Elements way below themselves (2^n definition; no verb calls it)."""
    return frozenset(x for x in p.elements if way_below(p, x, x))


# -- classification -----------------------------------------------------------


def is_continuous(p: FinitePoset) -> bool:
    """Every element is the directed sup of its approximants (2^n definition; no verb calls it)."""
    for x in p.elements:
        approx = frozenset(y for y in p.elements if way_below(p, y, x))
        if not p.is_directed(approx) or p.supremum(approx) != x:
            return False
    return True


def is_algebraic(p: FinitePoset) -> bool:
    """Each element is the directed sup of compact approximants (2^n definition; no verb calls it)."""
    compact = compact_elements(p)
    for x in p.elements:
        approx = frozenset(a for a in compact if p.le(a, x))
        if not p.is_directed(approx) or p.supremum(approx) != x:
            return False
    return True


def is_ideal_domain(p: FinitePoset) -> bool:
    """A continuous dcpo whose elements are compact or maximal (2^n definition; no verb calls it)."""
    if not is_continuous(p):
        return False
    compact = compact_elements(p)
    maximal = p.maximal_elements()
    return all(x in compact or x in maximal for x in p.elements)


def is_bounded_complete(p: FinitePoset) -> bool:
    """Every subset with an upper bound has a least one.

    The empty subset counts: any element bounds it, so a nonempty bounded
    complete poset must have a bottom.  A finite bounded subset folds into
    joins of bounded pairs, so past the bottom it suffices that every pair
    with a common upper bound has a join.  The upper bounds of a pair are
    the meet of its two up-sets, and they have a least member exactly when
    that meet is itself some element's up-set: O(n^2) row operations.
    """
    rows = set(p._up)
    if rows and (1 << len(p)) - 1 not in rows:
        return False
    return all(not a & b or (a & b) in rows for a, b in combinations(p._up, 2))


# -- countable intersections in a finite setting ------------------------------


def is_gdelta(topology: Topology, subset: Iterable) -> bool:
    """Whether the subset is the intersection of the opens that contain it.

    The definition, over up to 2^n opens; no verb calls it.  It agrees with ``Topology.is_open``.
    """
    target = topology.labels_of(topology.mask_of(subset))
    meet = frozenset(topology.elements).intersection(*(u for u in topology.opens if target <= u))
    return meet == target
