"""Ideals of a finite poset and the completion they form under inclusion."""

from __future__ import annotations

from typing import Iterable

from .errors import NotAnIdeal, UnknownLabel, excerpt
from .poset import FinitePoset, Label, _iter_bits


class Ideal:
    """A nonempty directed lower subset of a base poset.

    Construction re-derives both defining properties and refuses anything
    that fails them, so holding an Ideal is already a certificate.
    """

    def __init__(self, base: FinitePoset, members: Iterable[Label]):
        members = frozenset(members)
        mask = base.mask_of(members)
        if mask == 0:
            raise NotAnIdeal("an ideal is nonempty (directedness requires it)")
        for i in _iter_bits(mask):
            if base._down[i] & ~mask:
                raise NotAnIdeal(
                    f"not a lower set: something below {excerpt(base.elements[i])} is missing"
                )
        if not base.is_directed(members):
            raise NotAnIdeal("members are not directed")
        self.base = base
        self.members = members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.base == other.base and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.base, self.members))

    def __repr__(self) -> str:
        return f"Ideal({sorted(map(str, self.members))})"


def principal_ideal(base: FinitePoset, point: Label) -> Ideal:
    """The down set of a single element."""
    if point not in base:
        raise UnknownLabel(f"no element labeled {excerpt(point)}")
    return Ideal(base, base.down_set([point]))


def all_ideals(base: FinitePoset) -> list[Ideal]:
    """Every ideal: each subset that is a nonempty directed lower set.

    The definition: it sweeps all 2^n subsets, and no verb calls it;
    ``idl_poset`` states the finite theorem that every ideal is principal.
    """
    out = [Ideal(base, base.labels_of(mask)) for mask in range(1, 1 << len(base))
           if all(base._down[i] & ~mask == 0 for i in _iter_bits(mask)) and base._directed(mask)]
    order = {label: i for i, label in enumerate(base.elements)}
    out.sort(key=lambda ideal: (len(ideal.members), tuple(sorted(order[m] for m in ideal.members))))
    return out


def idl_poset(base: FinitePoset) -> tuple[FinitePoset, dict[Label, frozenset]]:
    """The ideal completion, ordered by inclusion, plus the principal embedding.

    A finite directed set holds its supremum, so every ideal is principal:
    the elements are the down-sets of the base elements (frozensets of base
    labels) sorted as ``all_ideals`` sorts them, ordered as the base, in O(n^2).
    """
    down = base._down
    order = sorted(range(len(base)),
                   key=lambda i: (down[i].bit_count(), tuple(_iter_bits(down[i]))))
    rank = {old: new for new, old in enumerate(order)}
    labels = [base.labels_of(down[i]) for i in order]
    rows = [sum(1 << rank[j] for j in _iter_bits(base._up[i])) for i in order]
    embedding = {q: labels[rank[i]] for i, q in enumerate(base.elements)}
    return FinitePoset(labels, rows), embedding
