"""Finite posets with an exact, fully materialized order relation.

Elements are opaque hashable labels kept in a fixed tuple; the order is
stored closed (reflexive and transitive), so order queries never recompute
reachability.  Internally each element carries an integer bitmask of the
elements above it, so a subset is one integer and the subset primitives
are a few bitwise operations on its members' rows.  A finite topology is
stored the same way, so ``LabelledRows`` holds what the two share.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence

from .errors import (
    CycleDetected,
    DuplicateLabel,
    EmptySet,
    ForeignSet,
    FormatError,
    UnknownLabel,
    excerpt,
)

Label = Any
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits as selectors: "0" is false, "1" true


def _iter_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits, lowest first.

    Each step copies the whole int (``mask & -mask`` and ``mask ^= low``), so
    a bit costs O(n) on an n-bit mask and a walk over a nearly full mask is
    quadratic.  Paths that meet masks of thousands of bits must not walk
    them: they take positions from the labels, as ``mask_of`` and
    ``is_upper_set`` do.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_at(positions: Iterable[int], n: int) -> int:
    """The mask over n positions with the bits at these positions set, in O(n + positions).

    ORing in one bit at a time would copy the whole int per bit, so the
    mask is read from one string of binary digits, most significant
    first, with a leading 0 that also reads an empty mask.
    """
    digits = bytearray(b"0") * (n + 1)
    for pos in positions:
        digits[pos] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2)


def _picked(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of a mask, in position order; its binary digits, reversed, pick them in C."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_DIGIT_BITS))


def _rows_inside(rows: Sequence[int], positions: Iterable[int], mask: int) -> bool:
    """Does ``mask`` hold the row of each position?  One AND per row, in C; no row's bits are walked."""
    outside = (1 << len(rows)) - 1 ^ mask
    return not any(map(outside.__and__, map(rows.__getitem__, positions)))


def _cut_rows(rows: Sequence[int], kept: Sequence[int]) -> list[int]:
    """The rows at the kept positions, cut to those positions and renumbered: kept[i] becomes i."""
    bit = {old: 1 << new for new, old in enumerate(kept)}
    keep = _mask_at(kept, len(rows))
    return [sum(map(bit.__getitem__, _iter_bits(rows[old] & keep))) for old in kept]


def _mirror(mask: int, n: int) -> int:
    """The mask over n positions with bit i moved to bit n - 1 - i: its n binary digits reversed."""
    return int(f"{mask:0{n}b}"[::-1], 2)


def _spread(u: int, ny: int) -> int:
    """The mask with bit a of u moved to bit a * ny, so that ``_spread(u, ny) * v`` is the box of u and v < 2^ny."""
    return int(("0" * (ny - 1)).join(f"{u:b}"), 2)


def _transitive_close(masks: list[int]) -> tuple[int, int] | None:
    """Replace each row by its reflexive-transitive closure, in place; return a cycle.

    Tarjan's strongly-connected-components search, iterative, following
    each edge once, in O(n + e) row operations.  The node being walked holds
    its unfollowed edges ``rest``, its ``reach`` so far and its low-link.  A
    successor whose component is closed gives it its closed row, and every
    node of that row leaves ``rest``: a closed row holds only closed nodes,
    whose rows it holds.  A node whose walk ends hands its reach and
    low-link to its parent, whose ``rest`` then loses that reach too (each
    open node in it has a visit number no lower than the low-link handed
    over).  A component's root has then gathered the component's reach,
    and its members take it as their closed row.  A row is overwritten only
    when its component closes, after it was read as a list of edges, so
    cycles (preorders) close like any other relation.  Returns the pair
    ``_order_violation`` reports on the closed rows: None, or the least index
    i in a component of two or more and the least other member j of it.
    """
    n = len(masks)
    order = [0] * n  # visit number from 1; 0 while unvisited
    closed = n + 1  # the order of a node whose component is closed
    stack: list[int] = []  # the visited nodes of open components, in visit order
    visits = 0
    cycle = None
    for root in range(n):
        if order[root]:
            continue
        visits += 1
        order[root] = visits
        v, rest, reach, low, at = root, masks[root], 1 << root, visits, len(stack)
        stack.append(root)
        work = []  # the walked node's ancestors, as (node, rest, reach, low-link, stack height)
        while True:
            while rest:
                bit = rest & -rest
                w = bit.bit_length() - 1
                seen = order[w]
                if not seen:
                    work.append((v, rest ^ bit, reach, low, at))
                    visits += 1
                    order[w] = visits
                    v, rest, reach, low, at = w, masks[w], bit, visits, len(stack)
                    stack.append(w)
                elif seen == closed:
                    row = masks[w]
                    reach |= row
                    rest &= ~row
                else:
                    rest ^= bit
                    if seen < low:
                        low = seen
            if low == order[v]:
                component = stack[at:]
                del stack[at:]
                for u in component:
                    masks[u] = reach
                    order[u] = closed
                if len(component) > 1:
                    i, j = sorted(component)[:2]
                    cycle = min(cycle, (i, j)) if cycle else (i, j)
            if not work:
                break
            below, lowest = reach, low
            v, rest, reach, low, at = work.pop()
            if rest:  # a parent whose edges are all followed skips building the complement
                rest &= ~below
            reach |= below
            if lowest < low:
                low = lowest
    return cycle


def _order_violation(masks: list[int]) -> tuple[str, tuple[int, ...]] | None:
    """The first partial-order axiom the up-mask rows break, and the indices breaking it.

    Reflexivity and transitivity are tried row by row; a cycle is reported
    only when both hold everywhere.
    """
    cycle = None
    for i, row in enumerate(masks):
        if not row >> i & 1:
            return "reflexive", (i,)
        for j in _iter_bits(row ^ 1 << i):
            above = masks[j]
            if above | row != row:
                missing = above & ~row
                return "transitive", (i, j, (missing & -missing).bit_length() - 1)
            if above >> i & 1 and cycle is None:
                cycle = "antisymmetric", (i, j)
    return cycle


def _label_index(elements: tuple[Label, ...], where: str | None = None) -> dict[Label, int]:
    """Each label's position; DuplicateLabel names the first repeat, or says ``where`` it is."""
    index = {label: pos for pos, label in enumerate(elements)}
    if len(index) != len(elements):
        seen: set[Label] = set()
        # set.add returns None, so this stops at the first label already seen
        repeat = next(label for label in elements if label in seen or seen.add(label))
        raise DuplicateLabel(f"duplicate element label {where or excerpt(repeat)}")
    return index


def _cycle_detected(elements: tuple[Label, ...], at: tuple[int, ...]) -> CycleDetected:
    return CycleDetected(" and ".join(excerpt(elements[k]) for k in at) + " sit below each other")


class Record:
    """A frozen value: equality, hash and repr over the fields its class names in ``_fields``.

    The value classes of the symbolic engine and the factor pipeline could
    be frozen dataclasses, but importing ``dataclasses`` loads ``inspect``,
    ``ast``, ``dis`` and ``tokenize`` (7-9 ms), and each decorated class
    compiles its generated methods (about 0.8 ms): a quarter of ``import
    ordtop``, paid by every process for no verb.  This base keeps their
    contract: equality only within one class, the hash of the field tuple,
    the text ``Name(field=value, ...)``, and ``FrozenInstanceError`` on any
    assignment or deletion.  So ``__init__`` sets the fields in the
    instance's ``__dict__``, or by ``object.__setattr__`` when they are slots.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)  # one name gives the value alone, so it is wrapped in a tuple
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._key(self)))})"

    def __setattr__(self, name: str, value: Any, action: str = "assign to") -> None:
        from dataclasses import FrozenInstanceError  # on this error path only
        raise FrozenInstanceError(f"cannot {action} field {name!r}")

    def __delattr__(self, name: str) -> None:
        self.__setattr__(name, None, "delete")


class LabelledRows:
    """Distinct labels in a fixed order, each with a bitmask row over their positions: its up-set.

    A poset's rows are its up-sets, and a finite topology's are its smallest
    opens, the up-sets of its specialization preorder.  The raw constructor
    checks the labels and the row count; it trusts the rows themselves.
    """

    def __init__(self, elements: Iterable[Label], rows: Iterable[int]):
        self.elements = tuple(elements)
        self._index = _label_index(self.elements)
        self._up = tuple(rows)
        if len(self._up) != len(self.elements):
            raise ValueError("one row per element required")

    @classmethod
    def _indexed(cls, elements: tuple, index: dict, rows: Iterable[int]):
        """The structure on rows built against the labels' checked index, which is kept, not rebuilt."""
        s = cls.__new__(cls)
        s.elements, s._index, s._up = elements, index, tuple(rows)
        return s

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.elements)

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    def _positions(self, labels: Iterable[Label]) -> list[int]:
        """Each label's position, in order; ForeignSet names the first label that lives elsewhere.

        The one label lookup of a subset: ``mask_of``, ``is_open``, ``up_set``
        and ``down_set`` read it.
        """
        index = self._index
        try:
            return [index[label] for label in labels]
        except KeyError as foreign:
            raise ForeignSet(f"label {excerpt(foreign.args[0])} is not an element of this {self._kind}") from None

    def mask_of(self, labels: Iterable[Label]) -> int:
        """Bitmask of a subset; rejects labels that live elsewhere."""
        return _mask_at(self._positions(labels), len(self))

    def labels_of(self, mask: int) -> frozenset[Label]:
        return frozenset(_picked(self.elements, mask))

    def is_open(self, labels: Iterable[Label]) -> bool:
        """Does the set hold the row of each member?  On a poset: is it an upper set, so Scott open."""
        positions = self._positions(labels)
        return _rows_inside(self._up, positions, _mask_at(positions, len(self)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __hash__(self) -> int:
        return hash((type(self), self.elements, self._up))


class FinitePoset(LabelledRows):
    """An immutable poset over an ordered tuple of distinct labels.

    Construct through ``build_poset`` (covers, closed automatically) or
    ``FinitePoset.from_relation`` (an already closed relation, revalidated).
    """

    _kind = "poset"

    @classmethod
    def from_covers(cls, elements: Iterable[Label], covers: Iterable[tuple[Label, Label]]) -> "FinitePoset":
        """Close a cover (or any generating) relation; the closing pass reports any cycle."""
        elements = tuple(elements)
        seen = _label_index(elements)
        masks = [0] * len(elements)
        try:
            for low, high in covers:  # each label looked up once, low before high
                masks[seen[low]] |= 1 << seen[high]
        except KeyError as unknown:
            raise UnknownLabel(f"cover mentions unknown label {excerpt(unknown.args[0])}") from None
        cycle = _transitive_close(masks)
        if cycle is not None:
            raise _cycle_detected(elements, cycle)
        return cls._indexed(elements, seen, masks)

    @classmethod
    def from_relation(cls, elements: Iterable[Label], pairs: Iterable[tuple[Label, Label]]) -> "FinitePoset":
        """Build from a relation that must already be reflexive and transitive."""
        elements = tuple(elements)
        seen = _label_index(elements, "in relation")
        masks = [0] * len(elements)
        for a, b in pairs:
            if a not in seen or b not in seen:
                raise UnknownLabel(f"relation mentions unknown pair ({excerpt(a)}, {excerpt(b)})")
            masks[seen[a]] |= 1 << seen[b]
        violation = _order_violation(masks)
        if violation is not None:
            axiom, at = violation
            if axiom == "antisymmetric":
                raise _cycle_detected(elements, at)
            names = ", ".join(excerpt(elements[k]) for k in at)
            raise ValueError(f"relation is not {axiom} at {names}")
        return cls._indexed(elements, seen, masks)

    # -- order queries ----------------------------------------------------

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"no element labeled {excerpt(label)}") from None

    def le(self, a: Label, b: Label) -> bool:
        return self._up[self.index(a)] >> self.index(b) & 1 == 1

    @cached_property
    def _down(self) -> tuple[int, ...]:
        down = [0] * len(self)
        for i in range(len(self)):
            for j in _iter_bits(self._up[i]):
                down[j] |= 1 << i
        return tuple(down)

    # -- subset primitives --------------------------------------------------

    def up_set(self, labels: Iterable[Label]) -> frozenset[Label]:
        """All elements above some member of ``labels``."""
        out = 0
        for i in self._positions(labels):
            out |= self._up[i]
        return self.labels_of(out)

    def down_set(self, labels: Iterable[Label]) -> frozenset[Label]:
        """All elements below some member of ``labels``."""
        out = 0
        for i in self._positions(labels):
            out |= self._down[i]
        return self.labels_of(out)

    @cached_property
    def _max_mask(self) -> int:
        return _mask_at((i for i, row in enumerate(self._up) if row == 1 << i), len(self))

    def maximal_elements(self) -> frozenset[Label]:
        return self.labels_of(self._max_mask)

    def _directed(self, mask: int) -> bool:
        """Nonempty, and every pair of members has an upper bound among the members."""
        if mask == 0:
            return False
        members = list(_iter_bits(mask))
        for a in members:
            for b in members:
                if not self._up[a] & self._up[b] & mask:
                    return False
        return True

    def _sup(self, mask: int) -> int | None:
        """Index of the least upper bound of a subset, or None when there is none."""
        ub = (1 << len(self)) - 1
        for i in _iter_bits(mask):
            ub &= self._up[i]
        for u in _iter_bits(ub):
            if ub & ~self._up[u] == 0:
                return u
        return None

    def is_directed(self, labels: Iterable[Label]) -> bool:
        """Nonempty, and every pair of members has an upper bound among the members."""
        return self._directed(self.mask_of(labels))

    def supremum(self, labels: Iterable[Label]) -> Label | None:
        """Least upper bound of a nonempty subset, or None when there is none."""
        mask = self.mask_of(labels)
        if mask == 0:
            raise EmptySet("supremum of the empty set is not defined here")
        sup = self._sup(mask)
        return None if sup is None else self.elements[sup]

    # -- derived structure ---------------------------------------------------

    def covers(self) -> tuple[tuple[Label, Label], ...]:
        """Transitive reduction as (lower, upper) pairs in element order.

        The upper covers of i are the minimal members of its strict up-set.
        A walk visits the lowest member j still in play, adds j's strict
        up-set to what lies above a visited member, and drops j's whole
        up-set from play.  Only a member strictly below a cover could drop
        it, so every cover is visited, and every other member lies above
        some cover, so the covers are the strict up-set minus what lies
        above.  Each element costs one row operation per member its walk
        visits, not one per related pair, plus one per cover; no down-set
        is read.
        """
        up, elements, out = self._up, self.elements, []
        for i, row in enumerate(up):
            strict = row ^ 1 << i
            rest, above = strict, 0
            while rest:
                low = rest & -rest
                reach = up[low.bit_length() - 1]
                rest &= ~reach
                above |= reach ^ low
            out += [(elements[i], elements[j]) for j in _iter_bits(strict & ~above)]
        return tuple(out)

    def restrict(self, labels: Iterable[Label]) -> "FinitePoset":
        """Subposet on the given labels with the induced order."""
        kept = sorted(set(self._positions(labels)))
        return FinitePoset((self.elements[i] for i in kept), _cut_rows(self._up, kept))

    def __repr__(self) -> str:
        pairs = sum(row.bit_count() for row in self._up)
        return f"FinitePoset({len(self)} elements, {pairs} related pairs)"


def build_poset(elements: Iterable[Label], covers: Iterable[tuple[Label, Label]]) -> FinitePoset:
    """Close the given covers into a poset; see ``FinitePoset.from_covers``."""
    return FinitePoset.from_covers(elements, covers)


def product(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """Componentwise order on pairs of labels: (a, b) sits at position a * |q| + b, and each row is a box."""
    nq = len(q)
    elements = [(a, b) for a in p.elements for b in q.elements]
    return FinitePoset(elements, [_spread(u, nq) * v for u in p._up for v in q._up])


# -- order isomorphism search ---------------------------------------------


def find_order_isomorphism(p: FinitePoset, q: FinitePoset) -> dict[Label, Label] | None:
    """A label bijection preserving order both ways, or None (backtracking on degrees; tests only)."""
    if len(p) != len(q):
        return None
    # an isomorphism keeps each element's (up-set size, down-set size)
    dp, dq = ([(up.bit_count(), down.bit_count()) for up, down in zip(r._up, r._down)] for r in (p, q))
    if sorted(dp) != sorted(dq):
        return None
    candidates = [[j for j in range(len(q)) if dq[j] == d] for d in dp]
    # next, the most constrained element comparable to one placed, so a wrong placement fails at once
    order, left, near = [], set(range(len(p))), 0
    while left:
        i = min([k for k in left if near >> k & 1] or left, key=lambda k: (len(candidates[k]), k))
        order.append(i)
        left.remove(i)
        near |= p._up[i] | p._down[i]
    assigned: dict[int, int] = {}
    used: set[int] = set()

    def consistent(i: int, j: int) -> bool:
        for a, b in assigned.items():
            if (p._up[i] >> a & 1) != (q._up[j] >> b & 1):
                return False
            if (p._up[a] >> i & 1) != (q._up[b] >> j & 1):
                return False
        return True

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            return True
        i = order[pos]
        for j in candidates[i]:
            if j not in used and consistent(i, j):
                assigned[i] = j
                used.add(j)
                if backtrack(pos + 1):
                    return True
                del assigned[i]
                used.discard(j)
        return False

    if not backtrack(0):
        return None
    return {p.elements[i]: q.elements[j] for i, j in assigned.items()}


# -- file formats -----------------------------------------------------------


def label_text(label: Label) -> str:
    """Deterministic readable rendering for composite labels."""
    if isinstance(label, frozenset):
        return "{" + ",".join(sorted(label_text(m) for m in label)) + "}"
    if isinstance(label, tuple):
        return "(" + ",".join(label_text(m) for m in label) + ")"
    return str(label)


def _string_labels(p: FinitePoset) -> tuple[str, ...]:
    for label in p.elements:
        if not isinstance(label, str):
            raise FormatError("only string-labeled posets can be serialized")
    return p.elements


def poset_to_json(p: FinitePoset) -> dict:
    return {
        "elements": list(_string_labels(p)),
        "covers": [[a, b] for a, b in p.covers()],
    }


def _utf8_labels(labels: Iterable[str]) -> None:
    """FormatError naming the first label that UTF-8 cannot encode: one holding a lone surrogate.

    JSON can spell such a string, but no output stream can print it.
    """
    for label in labels:
        try:
            label.encode()
        except UnicodeEncodeError:
            raise FormatError(f"label {excerpt(label)} is not UTF-8 text") from None


def poset_from_json(data: object) -> FinitePoset:
    if not isinstance(data, dict):
        raise FormatError("poset file must hold a JSON object")
    elements = data.get("elements")
    covers = data.get("covers")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise FormatError('"elements" must be an array of strings')
    _utf8_labels(elements)
    if not isinstance(covers, list):
        raise FormatError('"covers" must be an array of [low, high] pairs')
    for item in covers:
        if not (isinstance(item, list) and len(item) == 2
                and isinstance(item[0], str) and isinstance(item[1], str)):
            raise FormatError(f"malformed cover entry {excerpt(item)}")
    return build_poset(elements, covers)


def load_json(path: str) -> object:
    """The JSON document in a UTF-8 file; FormatError when it cannot be read as one.

    The bytes are read in one call and decoded once.  Line ends are then
    translated as a text-mode reader translates them, so an error names the
    same line, column and character.
    """
    with open(path, "rb", buffering=0) as handle:
        data = handle.readall()
    try:
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is an over-long integer
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def load_poset(path: str) -> FinitePoset:
    return poset_from_json(load_json(path))


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(p: FinitePoset) -> str:
    """Hasse diagram in DOT form: nodes in element order, edges low to high."""
    quoted = {label: _dot_quote(label_text(label)) for label in p.elements}
    lines = ["digraph poset {", "  rankdir=BT;", *(f"  {name};" for name in quoted.values())]
    lines += [f"  {quoted[low]} -> {quoted[high]};" for low, high in p.covers()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_array(items: list[str]) -> str:
    """Encoded items as a top-level array value, laid out as by ``json.dumps(indent=2)``."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


def covers_json_text(labels: Sequence[str], covers: Iterable[tuple[str, str]]) -> str:
    """The poset document of distinct string labels and covers, as ``json.dumps`` indents it.

    ``json.dumps`` with an indent always runs the encoder written in Python,
    a few calls per value.  The layout here is fixed, so each label is
    encoded once by the C string encoder and the document is joined from
    those pieces.
    """
    encoded = dict(zip(labels, map(encode_basestring_ascii, labels)))
    covers = [f"[\n      {encoded[a]},\n      {encoded[b]}\n    ]" for a, b in covers]
    return (
        '{\n  "elements": ' + _json_array(list(encoded.values()))
        + ',\n  "covers": ' + _json_array(covers) + "\n}"
    )
