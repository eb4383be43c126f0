"""Symbolic points and Scott opens of two infinite chain-bundle domains.

The ambient order ("L" mode) is built from countably many disjoint chains

    (i,0) < (i,1) < ... < (i,inf)        one chain per natural i,

together with a pair of points (s,0) < (s,1) for every selector s, where a
selector picks one finite position per chain and (s,0) sits directly above
all the picked points (i, s(i)).  The chain tops and the level-1 selector
points are the maximal elements.  "Lhat" mode removes the level-1 points,
which promotes every (s,0) to a maximal element; nothing else changes.

Everything infinite is kept decidable by sticking to finitely-describable
data: selectors are finite exceptions over a default position, and an open
set is a threshold per chain (again finite exceptions over a default, with
None meaning the chain is missing entirely), an all-level-1 flag, and
finitely many cylinder grants for selector points.  Both per-chain rules
are stored as step functions, one value per run of chains, so a rule
costs what its runs cost, not its chains (a cutoff's k + 1 equal
thresholds are one step); the points off the default are rebuilt only
where they are printed.  The fragment is closed under everything the
constructions here need, and in particular contains every witness the
diagonal argument produces; it does not try to represent arbitrary Scott
opens of the full domain.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import chain, product as cartesian, repeat
from math import inf
from operator import lshift
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import FormatError, NotCoveringMax, VerificationFailed, excerpt
from .poset import FinitePoset, Record
from .report import Report

MODE_L = "L"
MODE_LHAT = "Lhat"
# a mode is the selector levels its domain keeps, lowest first; the last one is maximal
_LEVELS = {MODE_L: (0, 1), MODE_LHAT: (0,)}
MODES = tuple(_LEVELS)


def _levels(mode: str) -> tuple[int, ...]:
    """The selector levels of the mode's domain, lowest first; ValueError for a value that names no mode."""
    if mode not in MODES:  # compared with ==, so an unhashable value is refused too
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return _LEVELS[mode]


def _natural(value) -> bool:
    """A natural number is an int, not a bool, at least 0: the one rule for symbolic data."""
    return type(value) is int and value >= 0


class _StepFunction(Record):
    """A sequence over the naturals, stored as its canonical step function.

    ``starts`` are the ascending chains where a step begins, the first at
    chain 0, and ``values`` holds the value of each step, from its start up
    to the next one; the last step runs forever, so its value is the
    default.  Neighbouring steps differ, so equal sequences have equal
    steps, and these two are the ``Record`` fields by which ``Selector``
    and ``ThresholdRule`` compare, hash and print.  The validating
    constructors (the class call and ``from_mapping``) take finitely many
    (chain, value) exceptions over a default, in any order, as the file
    format does; ``exceptions`` turns the steps back into those points.
    ``_from_points`` takes points its caller has already checked, ascending
    by chain with natural indices and valid values, and skips the checks and
    the sort: only code of this module that validated the points itself may
    call it (``open_from_json``).  ``_from_steps`` takes steps already
    canonical, as ``cutoff_open`` and ``truncate_domain`` build them.
    """

    _fields = ("starts", "values")
    _value: str  # the noun for a value in errors
    _absent_ok = False  # may a value be None?

    def __init__(self, exceptions: Iterable = (), default: int | None = 0):
        absent_ok = self._absent_ok
        if not (_natural(default) or default is None and absent_ok):
            raise ValueError(f"default {self._value} {default!r} must be a natural number")
        table = dict(exceptions)
        for i, value in table.items():
            if not _natural(i):
                raise ValueError(f"chain index {i!r} must be a natural number")
            if not (_natural(value) or value is None and absent_ok):
                raise ValueError(f"{self._value} {value!r} must be a natural number")
        self._set_steps(sorted(table.items()), default)

    @classmethod
    def _from_points(cls, points: Iterable, default: int | None):
        """The sequence with these (chain, value) points over ``default``, which the caller has checked.

        ``points`` ascend by chain, each index a natural number and each
        value valid for the class; points at the default are allowed.
        """
        self = cls.__new__(cls)
        self._set_steps(points, default)
        return self

    def _set_steps(self, points: Iterable, default: int | None) -> None:
        # the default from chain 0 opens the list, then each point off the default, merged
        # into the step before it when the values agree, and the default again after every gap
        starts, values = [0], [default]
        end = 0  # the first chain after the last point placed
        for i, value in points:
            if value == default:
                continue
            if i != end:
                starts.append(end)
                values.append(default)
            if value != values[-1]:
                starts.append(i)
                values.append(value)
            end = i + 1
        if values[-1] != default:
            starts.append(end)
            values.append(default)
        if starts[1:2] == [0]:  # a second step from chain 0 replaces the opening default
            del starts[0], values[0]
        object.__setattr__(self, "starts", tuple(starts))
        object.__setattr__(self, "values", tuple(values))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int | None], default: int | None = 0):
        return cls(exceptions=tuple(mapping.items()), default=default)

    @classmethod
    def _from_steps(cls, starts: tuple, values: tuple):
        """The sequence with these steps, which the caller knows to be canonical and valid."""
        self = cls.__new__(cls)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "values", values)
        return self

    @property
    def default(self) -> int | None:
        return self.values[-1]

    @property
    def exceptions(self) -> tuple:
        """The (chain, value) points off the default, by chain, rebuilt from the steps on each read."""
        default = self.values[-1]
        return tuple([(i, value) for start, end, value in zip(self.starts, self.starts[1:], self.values)
                      if value != default for i in range(start, end)])

    def __call__(self, i: int) -> int | None:
        return self.values[bisect_right(self.starts, i) - 1]

    def steps_over(self, low: int, high: int) -> Iterator[tuple[int, int | None]]:
        """(first chain, value) of each step that meets chains ``low``..``high - 1``, by chain."""
        first = bisect_right(self.starts, low) - 1
        stop = bisect_left(self.starts, high) if low < high else first
        return zip(chain((low,), self.starts[first + 1:stop]), self.values[first:stop])


class Selector(_StepFunction):
    """A choice of one finite position per chain: finite exceptions over a default."""

    _value = "position"


class ChainPoint(Record):
    """The point at a finite position of one chain."""

    _fields = ("chain", "pos")

    def __init__(self, chain: int, pos: int):
        self.__dict__.update(chain=chain, pos=pos)


class ChainTop(Record):
    """The top of one chain: the supremum of its finite points."""

    _fields = ("chain",)

    def __init__(self, chain: int):
        self.__dict__.update(chain=chain)


# slots: a truncation holds thousands of these, and a slotted point is smaller and quicker to build
class SelectorPoint(Record):
    """A selector's point at level 0 or 1; level 1 exists only in L mode."""

    __slots__ = _fields = ("selector", "level")

    def __init__(self, selector: Selector, level: int):
        object.__setattr__(self, "selector", selector)
        object.__setattr__(self, "level", level)

    @classmethod
    def _from_fields(cls, selectors: Sequence[Selector], levels: Sequence[int]) -> list["SelectorPoint"]:
        """The points of ``selectors[k]`` at ``levels[k]``, which the caller knows to be valid.

        The trusted constructor, as ``_from_steps`` is for a rule.  The class
        call runs ``type.__call__`` and ``__init__`` per point; here each
        point is a bare instance whose two slots are set by
        ``object.__setattr__``, as ``__init__`` sets them, in loops that run
        in C, so thousands of points cost no Python call each.
        """
        points = list(map(object.__new__, repeat(cls, len(selectors))))
        for name, column in (("selector", selectors), ("level", levels)):
            deque(map(object.__setattr__, points, repeat(name), column), maxlen=0)
        return points


LPoint = ChainPoint | ChainTop | SelectorPoint


def in_mode(point: LPoint, mode: str) -> bool:
    levels = _levels(mode)
    return not isinstance(point, SelectorPoint) or point.level in levels


def l_leq(a: LPoint, b: LPoint) -> bool:
    """The order, directly from its generating clauses.

    Within a chain, positions compare as numbers and everything sits below
    the chain top.  A selector point at level 0 sits above exactly the
    picked chain points (and whatever lies below them); level 1 sits above
    level 0 of the same selector.  Chain tops are above their chain only.
    """
    if a == b:
        return True
    if isinstance(a, ChainPoint):
        if isinstance(b, ChainPoint):
            return a.chain == b.chain and a.pos <= b.pos
        if isinstance(b, ChainTop):
            return a.chain == b.chain
        if isinstance(b, SelectorPoint):
            return b.selector(a.chain) >= a.pos
    if isinstance(a, SelectorPoint) and isinstance(b, SelectorPoint):
        return a.selector == b.selector and a.level <= b.level
    return False


def is_maximal(point: LPoint, mode: str) -> bool:
    """A chain top, or a selector point at the mode's highest level."""
    if not in_mode(point, mode):
        raise ValueError(f"{point!r} is not a point of mode {mode}")
    if isinstance(point, SelectorPoint):
        return point.level == _levels(mode)[-1]
    return isinstance(point, ChainTop)


# -- symbolic opens ------------------------------------------------------------


class ThresholdRule(_StepFunction):
    """Admission threshold per chain; None means the chain is missing.

    A present threshold t at chain i admits the points (i, n) for n >= t
    and, through upward closure, the chain top.
    """

    _value = "threshold"
    _absent_ok = True

    def __init__(self, default: int | None = 0, exceptions: Iterable = ()):
        _StepFunction.__init__(self, exceptions, default)


class Cylinder(Record):
    """A grant for selector points: minimum positions on finitely many chains.

    A selector matches when it clears every listed minimum; matched
    selectors receive membership at the listed levels.
    """

    _fields = ("conds", "levels")

    def __init__(self, conds: Iterable = (), levels: Iterable[int] = frozenset()):
        conds = dict(conds)
        if not (all(map(_natural, conds)) and all(map(_natural, conds.values()))):
            raise ValueError("cylinder conditions must pair natural numbers")
        levels = frozenset(levels)
        if not levels <= {0, 1}:
            raise ValueError("cylinder levels must sit inside {0, 1}")
        self.__dict__.update(conds=tuple(sorted(conds.items())), levels=levels)

    def matches(self, selector: Selector) -> bool:
        return all(selector(i) >= minimum for i, minimum in self.conds)


class SymbolicOpen(Record):
    """A Scott open of the fragment: thresholds, a level-1 flag, cylinders.

    ``all_level1`` makes every level-1 selector point a member beyond the
    ones upward closure already forces; cylinders grant selector points
    individually.  Upward closure over chains is built into the threshold
    reading and is not stored.
    """

    _fields = ("thresholds", "all_level1", "cylinders")

    def __init__(self, thresholds: ThresholdRule = ThresholdRule(), all_level1: bool = False,
                 cylinders: Iterable[Cylinder] = ()):
        cylinders = tuple(cylinders)
        if not all(isinstance(cylinder, Cylinder) for cylinder in cylinders):
            raise ValueError("cylinders must be Cylinder instances")
        self.__dict__.update(thresholds=thresholds, all_level1=all_level1, cylinders=cylinders)


def _forced(thresholds: ThresholdRule, selector: Selector) -> bool:
    """Does some chain's threshold sit at or below the selector's pick?

    Past the last start of either step function both hold their defaults,
    so one default-against-default comparison decides infinitely many
    chains.  When the selector has far more steps than the rule, each
    non-default step of the rule is then compared with the selector over
    its own chains, found by bisection, so a pick that the rule's steps
    name settles the call without a scan.  Last, one merge walk visits
    every piece below the last start: O(rule + selector) steps a call.
    """
    t_starts, t_values = thresholds.starts, thresholds.values
    s_starts, s_values = selector.starts, selector.values
    t_default, s_default = t_values[-1], s_values[-1]
    if t_default is not None and s_default >= t_default:
        return True
    t_last, s_last = len(t_values) - 1, len(s_values) - 1
    # bisection pays when it reads fewer steps than the walk: rule * log2(selector) < selector
    if (t_last + 1) * s_last.bit_length() < s_last:
        for k, t in enumerate(t_values):
            if t != t_default and t is not None:
                j, end = bisect_right(s_starts, t_starts[k]) - 1, t_starts[k + 1]
                while j <= s_last and s_starts[j] < end:
                    if s_values[j] >= t:
                        return True
                    j += 1
    i = j = 0
    while i < t_last or j < s_last:
        t = t_values[i]
        if t is not None and s_values[j] >= t:
            return True
        t_next = t_starts[i + 1] if i < t_last else inf
        s_next = s_starts[j + 1] if j < s_last else inf
        if t_next <= s_next:
            i += 1
        if s_next <= t_next:
            j += 1
    return False


def symbolic_member(open_set: SymbolicOpen, point: LPoint) -> bool:
    """Decide membership of a point in a symbolic open."""
    thresholds = open_set.thresholds
    if isinstance(point, ChainPoint):
        t = thresholds(point.chain)
        return t is not None and point.pos >= t
    if isinstance(point, ChainTop):
        return thresholds(point.chain) is not None
    return _forced(thresholds, point.selector) or _granted(open_set, point.selector, point.level)


def _granted(open_set: SymbolicOpen, selector: Selector, level: int) -> bool:
    """Is the selector's point at ``level`` let in by the all-level-1 flag or by a cylinder?"""
    if level == 1 and open_set.all_level1:
        return True
    return any(
        level in cylinder.levels and cylinder.matches(selector)
        for cylinder in open_set.cylinders
    )


def validate_open(open_set: SymbolicOpen, mode: str) -> bool:
    """Scott-openness inside the fragment.

    Upward closure along chains and the inaccessibility of each chain top
    (a top is a member only when finitely many of its chain points are
    missing) are structural consequences of the threshold reading; what
    remains is that every grant tops out at the mode's highest level: the
    kept levels run up from 0, so such a grant is upward closed and holds
    no level the mode lacks.  The all-level-1 flag grants level 1 alone.
    """
    top = _levels(mode)[-1]
    if open_set.all_level1 and top != 1:
        return False
    for cylinder in open_set.cylinders:
        if cylinder.levels and max(cylinder.levels) != top:
            return False
    return True


def contains_max(open_set: SymbolicOpen, mode: str) -> bool:
    """Certificate that the open contains every maximal point.

    Every mode needs every chain present.  Where level 1 is kept, the flag
    alone certifies the level-1 maxima; otherwise the maxima are the
    level-0 points, let in by a zero threshold or an unconditional cylinder.
    """
    levels = _levels(mode)
    thresholds = open_set.thresholds.values
    if None in thresholds:
        return False
    if 1 in levels:
        return open_set.all_level1
    # a zero threshold admits every selector point by upward closure
    return 0 in thresholds or any(
        0 in cylinder.levels and all(minimum == 0 for _, minimum in cylinder.conds)
        for cylinder in open_set.cylinders
    )


# -- open families --------------------------------------------------------------


class OpenFamily:
    """A finite indexed family of symbolic opens."""

    def __init__(self, opens: Iterable[SymbolicOpen]):
        self._opens = tuple(opens)

    def indices(self) -> range:
        return range(len(self._opens))

    def member(self, j: int) -> SymbolicOpen:
        return self._opens[j]


# -- the diagonal argument -------------------------------------------------------


def diagonal_witness(family: OpenFamily, *, offsets: int = 0) -> tuple[Selector, Report]:
    """A selector point inside every family member but below a maximal point.

    Every member must certify covering the maximal points of L (error:
    NotCoveringMax) and be Scott open in L (VerificationFailed).  The witness
    picks, at chain j, exactly member j's threshold for chain j; that chain
    point is a member, so upward closure drags the selector's level-0 point
    into member j, for every j.  Since the family covers each chain top
    through a finite threshold, such a pick always exists; the level-0
    point is never maximal in L.

    ``offsets`` lifts every pick that far above its threshold (membership
    only needs "at least the threshold"): a non-canonical witness.
    """
    picks = {}
    for j in family.indices():
        member = family.member(j)
        if not contains_max(member, MODE_L):
            raise NotCoveringMax(f"family member {j} does not certify covering the maxima")
        if not validate_open(member, MODE_L):
            raise VerificationFailed(f"family member {j} is not Scott open in L")
        picks[j] = member.thresholds(j) + offsets
    witness = Selector.from_mapping(picks, default=0)
    point = SelectorPoint(witness, 0)

    report = Report()
    report.info("family-size", len(family.indices()))
    all_in = True
    for j in family.indices():
        inside = symbolic_member(family.member(j), point)
        report.check(f"witness-in-member {j}", inside)
        all_in = all_in and inside
    report.check("witness-in-every-member", all_in)
    above = SelectorPoint(witness, 1)
    report.check(
        "witness-not-maximal",
        l_leq(point, above) and point != above and not is_maximal(point, MODE_L),
    )
    report.check("intersection-strictly-exceeds-max", report.ok)
    return witness, report


# -- the countable certificate for Lhat ------------------------------------------


_KEEP_SELECTORS = Cylinder((), frozenset({0}))  # every cutoff's grant of all level-0 points


def cutoff_open(k: int) -> SymbolicOpen:
    """The open that removes the depth-k prefix of the first k+1 chains.

    Thresholds force position k+1 on chains 0..k and 0 elsewhere, two
    steps built directly; an unconditional cylinder, one frozen object that
    every cutoff shares, keeps every level-0 selector point.  In Lhat mode
    this is a valid open containing all maximal points.
    """
    if not _natural(k):
        raise ValueError("cutoff index must be a natural number")
    thresholds = ThresholdRule._from_steps((0, k + 1), (k + 1, 0))
    return SymbolicOpen(thresholds, False, (_KEEP_SELECTORS,))


def gdelta_certificate_lhat(bound: int) -> Report:
    """Certify, up to a bound, that the maxima of Lhat form a Gdelta set.

    Obligations: each cutoff open is valid and covers the maxima; every
    non-maximal chain point (i, n) with i, n <= bound is excluded by the
    cutoff at max(i, n); chain tops and sampled level-0 selector points
    survive every evaluated cutoff.  The index rule is recorded as a
    structural note since no finite run can visit every chain point.

    One pass builds each cutoff, checks it and drops it, so one cutoff is
    held at a time.  Its chain points are decided from the steps of its
    thresholds that meet a range, so a cutoff of a few steps costs O(1)
    whatever k is.  Cutoff k answers for its row, the points (k, n) with
    n <= k, which are all excluded when t(k) is absent or above k, and for
    its column, the points (i, k) with i < k, which are all excluded when
    no present threshold on chains 0..k-1 is at or below k.  A failing
    check names its first witness: the first chain point in (i, n) order,
    the first (cutoff, chain) for the tops and the first (cutoff, sample)
    for the selector points.
    """
    if bound < 0:
        raise ValueError("bound must be a natural number")
    report = Report()
    report.info("mode", MODE_LHAT)
    report.info("bound", bound)
    samples = [SelectorPoint(s, 0) for s in (
        Selector(), Selector.from_mapping({0: bound}),
        Selector.from_mapping({j: j for j in range(min(bound, 5))}, default=1))]
    failures = []
    top_failure = selector_failure = None
    for k in range(bound + 1):
        open_set = cutoff_open(k)
        report.check(
            f"cutoff {k} valid-and-covering",
            validate_open(open_set, MODE_LHAT) and contains_max(open_set, MODE_LHAT),
        )
        thresholds = open_set.thresholds
        t = thresholds(k)
        if t is not None and t <= k:
            failures.append((k, t))
        first = next((i for i, v in thresholds.steps_over(0, k) if v is not None and v <= k), None)
        if first is not None:
            failures.append((first, k))
        if top_failure is None:
            absent = next((i for i, v in thresholds.steps_over(0, bound + 1) if v is None), None)
            if absent is not None:
                top_failure = (k, absent)
        if selector_failure is None:
            selector_failure = next(
                ((k, m) for m, point in enumerate(samples) if not symbolic_member(open_set, point)),
                None,
            )
    failure = min(failures, default=None)
    report.info("chain-points-checked", (bound + 1) ** 2)
    report.check("non-maximal-chain-points-excluded", failure is None, failure)
    report.info(
        "structural-rule",
        "chain point (i,n) is excluded by the cutoff at index max(i,n), "
        "so the intersection of all cutoffs holds no chain point",
    )

    report.check("chain-tops-in-every-cutoff", top_failure is None, top_failure)
    report.check(
        "selector-points-in-every-cutoff", selector_failure is None, selector_failure
    )
    report.check("intersection-equals-max-at-bound", report.ok)
    return report


# -- finite truncations -----------------------------------------------------------


def chain_label(i: int, pos: int) -> str:
    return f"({i},{pos})"


def top_label(i: int) -> str:
    return f"({i},inf)"


def truncation_size(width: int, depth: int, mode: str) -> int | None:
    """Elements of a truncation, or None past ``sys.maxsize``, more than any sequence holds.

    The ``depth ** width`` selectors are multiplied out one factor at a time
    and given up once they pass that cap, so a huge width costs at most about
    64 multiplications and the count stays short enough to print.
    """
    size = len(_levels(mode))
    for _ in range(width if depth > 1 else 0):
        size *= depth
        if size > sys.maxsize:
            return None
    size += width * (depth + 1)
    return size if size <= sys.maxsize else None


def _truncation_labels(width: int, depth: int, mode: str) -> tuple[list[str], list[str]]:
    """A truncation's labels in element order, and its level-0 selector labels in rank order.

    Chain i holds (i,0) ... (i,depth-1) and its top at ``i*(depth+1) + n``;
    the selector of rank r in ``cartesian`` order follows at
    ``width*(depth+1) + r*|levels| + level``.
    """
    levels = _levels(mode)
    if width < 1 or depth < 1:
        raise ValueError("width and depth must be at least 1")
    elements: list[str] = []
    for i in range(width):
        elements += map(chain_label, repeat(i), range(depth))
        elements.append(top_label(i))
    # s[v_0,...,v_{width-1}]@level, for the selectors in rank order
    picks = map(",".join, cartesian(map(str, range(depth)), repeat=width))
    bottoms = [f"s[{body}]@0" for body in picks]
    start, per = len(elements), len(levels)
    elements += [""] * (per * len(bottoms))
    elements[start::per] = bottoms
    if 1 in levels:
        elements[start + 1::2] = [label[:-1] + "1" for label in bottoms]
    return elements, bottoms


def truncation_hasse(width: int, depth: int, mode: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The labels of ``truncation_poset`` and its covers, as ``FinitePoset.covers`` lists them.

    The covers are its generators, by lower index and then upper index:
    (i,n) is covered by (i,n+1), or by the top when n = depth-1, and then by
    every level-0 selector point that picks v_i = n, in rank order; in L mode
    each level-0 point is covered by its level-1 point.  A generator from
    (i, v_i) is a cover because the chain points below a level-0 selector
    point are exactly the (j, m) with m <= v_j, so nothing lies strictly
    between.  The ranks with v_i = n come in runs of ``depth**(width-1-i)``
    consecutive ranks, one run per ``depth**(width-i)`` ranks.
    """
    elements, bottoms = _truncation_labels(width, depth, mode)
    covers: list[tuple[str, str]] = []
    for i in range(width):
        column = elements[i * (depth + 1):(i + 1) * (depth + 1)]
        run = depth ** (width - 1 - i)
        period = run * depth
        for n in range(depth):
            covers.append((column[n], column[n + 1]))
            picked = [bottoms[r:r + run] for r in range(n * run, len(bottoms), period)]
            covers += zip(repeat(column[n]), chain.from_iterable(picked))
    if 1 in _levels(mode):
        covers += zip(bottoms, elements[width * (depth + 1) + 1::2])
    return elements, covers


def truncation_poset(width: int, depth: int, mode: str) -> FinitePoset:
    """A finite prefix of the mode's domain, its up-set rows built from the construction.

    Keeps ``width`` chains, each with positions below ``depth`` plus its
    top, and every selector over those positions at the mode's levels, in
    the element order of ``truncation_hasse``.  Row (i,n) holds chain i from
    n up, its top, and every selector point, at all levels, with v_i >= n:
    in the selector region that is one block of ranks repeated every
    ``depth**(width-i)`` ranks, so it costs a few big-int operations.  A
    top's row and a level-1 point's row hold the point itself; a level-0
    point's row adds its level-1 point in L mode.  No relation is closed;
    the tests compare these rows with the closure of the covers.
    """
    elements = _truncation_labels(width, depth, mode)[0]
    per = len(_levels(mode))
    start = width * (depth + 1)
    count = len(elements) - start  # selector points
    rows = []
    for i in range(width):
        base = i * (depth + 1)
        run = depth ** (width - 1 - i) * per  # selector points per value of v_i
        period = run * depth
        # one bit at the start of every period
        every = ((1 << count) - 1) // ((1 << period) - 1) << start
        for n in range(depth):
            above = ((1 << (depth + 1 - n)) - 1) << (base + n)
            picks = ((1 << (depth - n) * run) - 1) << (n * run)
            rows.append(above | picks * every)
        rows.append(1 << (base + depth))
    if 1 in _levels(mode):
        for bit in range(start, start + count, 2):
            rows += (3 << bit, 2 << bit)
    else:
        rows += map(lshift, repeat(1), range(start, start + count))
    return FinitePoset(elements, rows)


def _selectors(width: int, depth: int) -> list[Selector]:
    """Every selector over positions below ``depth`` on ``width`` chains, in ``cartesian`` order of its picks.

    A selector's canonical steps are the run-length encoding of its picks
    v_0 ... v_{width-1} followed by the default 0 from chain ``width`` on.
    They are built from that default backwards, one chain at a time, for all
    choices of the later picks at once, as the starts after the first run
    and the run values: a pick equal to the first run's value extends that
    run down to its chain and keeps both tuples, any other pick opens a run.
    Selectors that agree on their later picks share those steps, so none
    runs a loop over its chains.  At chain 0 the start 0 goes in front, and
    ``_from_steps`` makes the selector with no checks: its picks are
    positions below ``depth``, indexed by chain.  The new pick is the outer
    loop, so the order is ``cartesian``'s.
    """
    steps = [((), (0,))]  # the default alone, from chain ``width`` on
    for i in range(width - 1, 0, -1):
        steps = [(rest, values) if values[0] == v else ((i + 1,) + rest, (v,) + values)
                 for v in range(depth) for rest, values in steps]
    from_steps = Selector._from_steps
    return [from_steps((0,) + rest, values) if values[0] == v else from_steps((0, 1) + rest, (v,) + values)
            for v in range(depth) for rest, values in steps]


def truncate_domain(width: int, depth: int, mode: str) -> tuple[FinitePoset, dict[str, LPoint]]:
    """``truncation_poset`` and the symbolic point of each label, for replaying membership.

    The points are made in element order, so no label is built twice.  The
    selectors come from ``_selectors``, and the levels of one selector share
    that one ``Selector``; its points are made by ``SelectorPoint._from_fields``.
    """
    poset = truncation_poset(width, depth, mode)
    levels = _levels(mode)
    points: list[LPoint] = []
    for i in range(width):
        points += [*map(ChainPoint, repeat(i), range(depth)), ChainTop(i)]
    selectors = _selectors(width, depth)
    points += SelectorPoint._from_fields([s for s in selectors for _ in levels], levels * len(selectors))
    return poset, dict(zip(poset.elements, points))


def truncation_members(
    open_set: SymbolicOpen, points: Mapping[str, LPoint]
) -> frozenset[str]:
    """Labels of truncation elements the symbolic open contains, decided by the symbolic engine.

    A selector's forcing does not depend on the level, and ``truncate_domain``
    gives both levels of a selector one ``Selector`` object, next to each
    other, so ``_forced`` runs again only when the selector object changes;
    holding the last one keeps its ``is`` test sound for any mapping.  The
    grants, which do depend on the level, are decided per point.  Nothing
    reads the truncation's order, so the caller's upper-set check of the
    result stays a real check.
    """
    thresholds = open_set.thresholds
    last = forced = None
    members = []
    for label, point in points.items():
        if isinstance(point, SelectorPoint):
            selector = point.selector
            if selector is not last:
                last, forced = selector, _forced(thresholds, selector)
            inside = forced or _granted(open_set, selector, point.level)
        else:
            inside = symbolic_member(open_set, point)
        if inside:
            members.append(label)
    return frozenset(members)


# -- file format --------------------------------------------------------------------


def _nat_or_none(value, what: str, key: str | None = None):
    """``value`` when it is null or a natural number; the error names ``what`` and the entry's key."""
    if value is None or _natural(value):
        return value
    if key is not None:
        what = f"{what} {excerpt(key)}"
    raise FormatError(f"{what} must be a natural number or null, got {excerpt(value)}")


def _parse_index(key: str) -> int:
    if isinstance(key, str) and key.isascii() and key.isdigit():
        try:
            return int(key)
        except ValueError:  # more digits than the interpreter converts
            pass
    raise FormatError(f"chain index {excerpt(key)} must be a base-10 natural number")


def _new_index(key: str, seen: Mapping[int, object]) -> int:
    """The chain index a key spells; FormatError when ``seen`` already holds that index.

    "1" and "01" spell one index, and a document that gives both is ambiguous.
    """
    index = _parse_index(key)
    if index in seen:
        raise FormatError(f"chain index {excerpt(index)} is given twice (again as {excerpt(key)})")
    return index


def open_from_json(data: object) -> SymbolicOpen:
    if not isinstance(data, dict):
        raise FormatError("symbolic open must be a JSON object")
    raw_thresholds = data.get("thresholds")
    if not isinstance(raw_thresholds, dict):
        raise FormatError('"thresholds" must be an object')
    default = _nat_or_none(raw_thresholds.get("default"), "threshold default")
    raw_exceptions = raw_thresholds.get("exceptions", {})
    if not isinstance(raw_exceptions, dict):
        raise FormatError('"exceptions" must be an object keyed by chain index')
    exceptions: dict[int, int | None] = {}
    for key, value in raw_exceptions.items():
        exceptions[_new_index(key, exceptions)] = _nat_or_none(value, "threshold exception", key)
    all_level1 = data.get("allPhiLevel1", False)
    if not isinstance(all_level1, bool):
        raise FormatError('"allPhiLevel1" must be a boolean')
    raw_cylinders = data.get("extraPhi", [])
    if not isinstance(raw_cylinders, list):
        raise FormatError('"extraPhi" must be an array')
    cylinders = []
    for entry in raw_cylinders:
        if not isinstance(entry, dict) or not isinstance(entry.get("conds", {}), dict):
            raise FormatError(f"malformed extraPhi entry {excerpt(entry)}")
        conds = {}
        for key, value in entry.get("conds", {}).items():
            minimum = _nat_or_none(value, "cylinder minimum", key)
            if minimum is None:
                raise FormatError("cylinder minimums cannot be null")
            conds[_new_index(key, conds)] = minimum
        levels = entry.get("levels", [])
        if not isinstance(levels, list) or not all(type(lv) is int and lv in (0, 1) for lv in levels):
            raise FormatError('"levels" must be an array over {0, 1}')
        cylinders.append(Cylinder(tuple(conds.items()), frozenset(levels)))
    # every index and threshold has passed _new_index and _nat_or_none
    thresholds = ThresholdRule._from_points(sorted(exceptions.items()), default)
    return SymbolicOpen(thresholds, all_level1, tuple(cylinders))


def family_from_json(data: object) -> OpenFamily:
    if not isinstance(data, list) or not data:
        raise FormatError("a family file holds a nonempty JSON array of opens")
    return OpenFamily(open_from_json(entry) for entry in data)
