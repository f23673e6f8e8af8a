"""Integer partitions and compositions, plus the orders everything else relies on.

Partitions and compositions are plain tuples of ints: immutable, hashable,
directly comparable, and cheap to use as cache keys.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

Partition = tuple[int, ...]
Composition = tuple[int, ...]


class NotWeaklyDecreasing(ValueError):
    """A sequence meant to be a partition increases somewhere."""


class SizeMismatch(ValueError):
    """Two inputs that must have equal size do not."""


class InvariantViolation(RuntimeError):
    """A mathematical invariant failed: a fault in the program, not in its input."""


def partition(parts: Iterable[int]) -> Partition:
    """Validate ``parts`` as a partition; trailing zeros are stripped."""
    seq = tuple(int(x) for x in parts)
    for x in seq:
        if x < 0:
            raise ValueError(f"negative part {x} in {seq}")
    for a, b in zip(seq, seq[1:]):
        if a < b:
            raise NotWeaklyDecreasing(f"{seq} is not weakly decreasing")
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    return seq


def composition(parts: Iterable[int]) -> Composition:
    """Validate ``parts`` as a composition (nonnegative parts, kept verbatim)."""
    seq = tuple(int(x) for x in parts)
    for x in seq:
        if x < 0:
            raise ValueError(f"negative part {x} in {seq}")
    return seq


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition such as ``"3,2,1"``."""
    try:
        parts = [int(token) for token in text.split(",")]
    except ValueError:
        raise ValueError(f"bad partition {text!r}: expected comma-separated integers") from None
    return partition(parts)


def parse_composition(text: str) -> Composition:
    """Parse a comma-separated composition of positive integers."""
    try:
        parts = [int(token) for token in text.split(",")]
    except ValueError:
        raise ValueError(f"bad composition {text!r}: expected comma-separated integers") from None
    if any(x <= 0 for x in parts):
        raise ValueError(f"bad composition {text!r}: parts must be positive")
    return tuple(parts)


def drop_zeros(comp: Iterable[int]) -> Composition:
    """Remove every zero part (not just trailing ones)."""
    return tuple(x for x in comp if x != 0)


def sort_desc(comp: Iterable[int]) -> Partition:
    """Sort a composition into the partition with the same multiset of parts."""
    return tuple(sorted(drop_zeros(comp), reverse=True))


def dominance_geq(alpha: Partition, beta: Partition) -> bool:
    """True iff every prefix sum of ``alpha`` is >= the one of ``beta``."""
    if sum(alpha) != sum(beta):
        raise SizeMismatch(f"|{alpha}| != |{beta}|")
    a = b = 0
    for i in range(max(len(alpha), len(beta))):
        a += alpha[i] if i < len(alpha) else 0
        b += beta[i] if i < len(beta) else 0
        if a < b:
            return False
    return True


def conjugate(lam: Partition) -> Partition:
    """Column lengths of the Young diagram of ``lam``."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def intersection(lam: Partition, mu: Partition) -> Partition:
    """Coordinatewise minimum of two partitions."""
    return partition(min(a, b) for a, b in zip(lam, mu))


@lru_cache(maxsize=None)
def _partitions_below(n: int, cap: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_below(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in reverse lexicographic order."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _partitions_below(n, n)
