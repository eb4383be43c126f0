"""Finite posets with an exact, fully materialized order relation.

Elements are opaque hashable labels kept in a fixed tuple; the order is
stored closed (reflexive and transitive), so order queries never recompute
reachability.  Internally each element carries an integer bitmask of the
elements above it, so a subset is one integer and the subset primitives
are a few bitwise operations on its members' rows.
"""

from __future__ import annotations

import json
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator

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


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mirror(mask: int, n: int) -> int:
    """The mask over n positions with bit i moved to bit n - 1 - i."""
    return sum(1 << (n - 1 - i) for i in _iter_bits(mask))


def _transitive_close(masks: list[int]) -> tuple[int, int] | None:
    """Replace each row by its reflexive-transitive closure, in place; return a cycle.

    Tarjan's strongly-connected-components search, iterative, in O(n + e)
    row operations.  Components finish after every component they reach, so
    a finished component's closed row is its members' bits OR the closed
    rows of its direct successors outside it.  A row is overwritten only
    when its component finishes, after its last read as a list of edges, so
    cycles (preorders) close like any other relation.  Returns the pair
    ``_order_violation`` reports on the closed rows: None, or the least index
    i in a component of two or more and the least other member j of it.
    """
    n = len(masks)
    order = [0] * n  # visit number from 1; 0 while unvisited
    low = [0] * n
    finished = n + 1  # the order of a finished node: it never lowers a low-link
    pending = list(masks)  # edges not yet followed
    stack: list[int] = []
    visits = 0
    cycle = None
    for root in range(n):
        if order[root]:
            continue
        visits += 1
        order[root] = low[root] = visits
        stack.append(root)
        work = [root]
        while work:
            v = work[-1]
            rest = pending[v]
            while rest:
                bit = rest & -rest
                rest ^= bit
                w = bit.bit_length() - 1
                if not order[w]:
                    pending[v] = rest
                    visits += 1
                    order[w] = low[w] = visits
                    stack.append(w)
                    work.append(w)
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1]]:
                    low[work[-1]] = low[v]
                if low[v] != order[v]:
                    continue
                w = stack.pop()
                component, members = [w], 1 << w
                while w != v:
                    w = stack.pop()
                    component.append(w)
                    members |= 1 << w
                row = members
                for u in component:
                    out = masks[u] & ~members
                    while out:
                        bit = out & -out
                        out ^= bit
                        row |= masks[bit.bit_length() - 1]
                for u in component:
                    masks[u] = row
                    order[u] = finished
                if len(component) > 1:
                    i, j = sorted(component)[:2]
                    cycle = min(cycle, (i, j)) if cycle else (i, j)
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


class FinitePoset:
    """An immutable poset over an ordered tuple of distinct labels.

    Construct through ``build_poset`` (covers, closed automatically) or
    ``FinitePoset.from_relation`` (an already closed relation, revalidated).
    The raw constructor trusts its masks and is meant for internal use.
    """

    def __init__(self, elements: Iterable[Label], up_masks: Iterable[int]):
        self.elements = tuple(elements)
        self._index = _label_index(self.elements)
        self._up = tuple(up_masks)
        if len(self._up) != len(self.elements):
            raise ValueError("one up-mask per element required")

    @classmethod
    def _indexed(cls, elements: tuple, index: dict, masks: list[int]) -> "FinitePoset":
        """The poset on rows built against the labels' checked index, which is kept, not rebuilt."""
        p = cls.__new__(cls)
        p.elements, p._index, p._up = elements, index, tuple(masks)
        return p

    @classmethod
    def from_covers(cls, elements: Iterable[Label], covers: Iterable[tuple[Label, Label]]) -> "FinitePoset":
        """Close a cover (or any generating) relation; the closing pass reports any cycle."""
        elements = tuple(elements)
        seen = _label_index(elements)
        masks = [0] * len(elements)
        for low, high in covers:
            if low not in seen:
                raise UnknownLabel(f"cover mentions unknown label {excerpt(low)}")
            if high not in seen:
                raise UnknownLabel(f"cover mentions unknown label {excerpt(high)}")
            masks[seen[low]] |= 1 << seen[high]
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

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.elements)

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"no element labeled {excerpt(label)}") from None

    def le(self, a: Label, b: Label) -> bool:
        return self._up[self.index(a)] >> self.index(b) & 1 == 1

    def lt(self, a: Label, b: Label) -> bool:
        return a != b and self.le(a, b)

    @cached_property
    def leq(self) -> frozenset[tuple[int, int]]:
        """The full order relation as a set of index pairs."""
        return frozenset(
            (i, j) for i in range(len(self)) for j in _iter_bits(self._up[i])
        )

    @cached_property
    def _down(self) -> tuple[int, ...]:
        down = [0] * len(self)
        for i in range(len(self)):
            for j in _iter_bits(self._up[i]):
                down[j] |= 1 << i
        return tuple(down)

    # -- masks ------------------------------------------------------------

    def mask_of(self, labels: Iterable[Label]) -> int:
        """Bitmask of a subset; rejects labels that live elsewhere."""
        mask = 0
        for label in labels:
            pos = self._index.get(label)
            if pos is None:
                raise ForeignSet(f"label {excerpt(label)} is not an element of this poset")
            mask |= 1 << pos
        return mask

    def labels_of(self, mask: int) -> frozenset[Label]:
        return frozenset(self.elements[i] for i in _iter_bits(mask))

    # -- subset primitives --------------------------------------------------

    def up_set(self, labels: Iterable[Label]) -> frozenset[Label]:
        """All elements above some member of ``labels``."""
        out = 0
        for i in _iter_bits(self.mask_of(labels)):
            out |= self._up[i]
        return self.labels_of(out)

    def down_set(self, labels: Iterable[Label]) -> frozenset[Label]:
        """All elements below some member of ``labels``."""
        out = 0
        for i in _iter_bits(self.mask_of(labels)):
            out |= self._down[i]
        return self.labels_of(out)

    @cached_property
    def _max_mask(self) -> int:
        mask = 0
        for i in range(len(self)):
            if self._up[i] == 1 << i:
                mask |= 1 << i
        return mask

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
        keep_mask = self.mask_of(labels)
        kept = [i for i in range(len(self)) if keep_mask >> i & 1]
        renumber = {old: new for new, old in enumerate(kept)}
        masks = []
        for old in kept:
            row = 0
            for j in _iter_bits(self._up[old] & keep_mask):
                row |= 1 << renumber[j]
            masks.append(row)
        return FinitePoset((self.elements[i] for i in kept), masks)

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __hash__(self) -> int:
        return hash((self.elements, self._up))

    def __repr__(self) -> str:
        return f"FinitePoset({len(self)} elements, {len(self.leq)} related pairs)"


def build_poset(elements: Iterable[Label], covers: Iterable[tuple[Label, Label]]) -> FinitePoset:
    """Close the given covers into a poset; see ``FinitePoset.from_covers``."""
    return FinitePoset.from_covers(elements, covers)


def product(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """Componentwise order on pairs of labels."""
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


# -- order isomorphism search ---------------------------------------------


def _refined_colors(p: FinitePoset) -> list[int]:
    n = len(p)
    down = p._down
    colors = [(bin(p._up[i]).count("1"), bin(down[i]).count("1")) for i in range(n)]
    ranks = {c: r for r, c in enumerate(sorted(set(colors)))}
    current = [ranks[c] for c in colors]
    for _ in range(n):
        sigs = []
        for i in range(n):
            above = tuple(sorted(current[j] for j in _iter_bits(p._up[i])))
            below = tuple(sorted(current[j] for j in _iter_bits(down[i])))
            sigs.append((current[i], above, below))
        ranks = {s: r for r, s in enumerate(sorted(set(sigs)))}
        refined = [ranks[s] for s in sigs]
        if refined == current:
            break
        current = refined
    return current


def find_order_isomorphism(p: FinitePoset, q: FinitePoset) -> dict[Label, Label] | None:
    """A label bijection preserving order both ways, or None (backtracking; tests only)."""
    if len(p) != len(q):
        return None
    cp, cq = _refined_colors(p), _refined_colors(q)
    if sorted(cp) != sorted(cq):
        return None
    candidates = [[j for j in range(len(q)) if cq[j] == cp[i]] for i in range(len(p))]
    order = sorted(range(len(p)), key=lambda i: len(candidates[i]))
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


def poset_from_json(data: object) -> FinitePoset:
    if not isinstance(data, dict):
        raise FormatError("poset file must hold a JSON object")
    elements = data.get("elements")
    covers = data.get("covers")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise FormatError('"elements" must be an array of strings')
    if not isinstance(covers, list):
        raise FormatError('"covers" must be an array of [low, high] pairs')
    pairs = []
    for item in covers:
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(x, str) for x in item)):
            raise FormatError(f"malformed cover entry {excerpt(item)}")
        pairs.append((item[0], item[1]))
    return build_poset(elements, pairs)


def load_json(path: str) -> object:
    """The JSON document in a UTF-8 file; FormatError when it cannot be read as one."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is an over-long integer
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def load_poset(path: str) -> FinitePoset:
    return poset_from_json(load_json(path))


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(p: FinitePoset) -> str:
    """Hasse diagram in DOT form: nodes in element order, edges low to high."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    for label in p.elements:
        lines.append(f"  {_dot_quote(label_text(label))};")
    for low, high in p.covers():
        lines.append(f"  {_dot_quote(label_text(low))} -> {_dot_quote(label_text(high))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_array(items: list[str]) -> str:
    """Encoded items as a top-level array value, laid out as by ``json.dumps(indent=2)``."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


def poset_json_text(p: FinitePoset) -> str:
    """``json.dumps(poset_to_json(p), indent=2)``, written directly.

    ``json.dumps`` with an indent always runs the encoder written in Python,
    a few calls per value.  The layout here is fixed, so each label is
    encoded once by the C string encoder and the document is joined from
    those pieces.
    """
    labels = _string_labels(p)
    encoded = dict(zip(labels, map(encode_basestring_ascii, labels)))
    covers = [f"[\n      {encoded[a]},\n      {encoded[b]}\n    ]" for a, b in p.covers()]
    return (
        '{\n  "elements": ' + _json_array(list(encoded.values()))
        + ',\n  "covers": ' + _json_array(covers) + "\n}"
    )
