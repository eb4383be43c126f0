"""Ideals of a finite poset and the completion they form under inclusion.

An ideal is a nonempty directed lower set, held as a frozenset of labels.
"""

from __future__ import annotations

from .poset import FinitePoset, Label, _cut_rows, _iter_bits, _mirror, _rows_inside


def _size_then_positions(mask: int, n: int) -> tuple[int, int]:
    """The canonical subset order: by size, then by sorted positions, which is the mirrored mask descending."""
    return mask.bit_count(), -_mirror(mask, n)


def principal_ideal(base: FinitePoset, point: Label) -> frozenset:
    """The down set of a single element."""
    return base.labels_of(base._down[base.index(point)])


def all_ideals(base: FinitePoset) -> list[frozenset]:
    """Every ideal: each subset that is a nonempty directed lower set, in the canonical order.

    The definition: it sweeps all 2^n subsets, and no verb calls it;
    ``idl_poset`` states the finite theorem that every ideal is principal.
    """
    masks = [mask for mask in range(1, 1 << len(base))
             if _rows_inside(base._down, _iter_bits(mask), mask) and base._directed(mask)]
    return [base.labels_of(mask) for mask in sorted(masks, key=lambda mask: _size_then_positions(mask, len(base)))]


def idl_poset(base: FinitePoset) -> tuple[FinitePoset, dict[Label, frozenset]]:
    """The ideal completion, ordered by inclusion, plus the principal embedding.

    A finite directed set holds its supremum, so every ideal is principal:
    the elements are the down-sets of the base elements (frozensets of base
    labels) sorted as ``all_ideals`` sorts them, ordered as the base, in O(n^2).
    """
    down = base._down
    order = sorted(range(len(base)), key=lambda i: _size_then_positions(down[i], len(base)))
    labels = [base.labels_of(down[i]) for i in order]
    embedding = {base.elements[i]: label for i, label in zip(order, labels)}
    return FinitePoset(labels, _cut_rows(base._up, order)), embedding
