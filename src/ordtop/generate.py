"""Poset generators for exhaustive sweeps and randomized testing.

Both generators only ever emit orders that are compatible with the element
numbering (x below y implies index(x) <= index(y)), which costs nothing up
to isomorphism and keeps the enumeration small.
"""

from __future__ import annotations

from itertools import combinations, permutations
from random import Random

from .poset import FinitePoset, _iter_bits, _order_violation, _transitive_close


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
