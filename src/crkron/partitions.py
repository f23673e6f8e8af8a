"""Integer partitions and compositions, plus the orders everything else relies on.

Partitions and compositions are plain tuples of ints: immutable, hashable,
directly comparable, and cheap to use as cache keys.  Parts are read with
``operator.index``, so a float or a string is refused, not truncated.  One
count table per n, p(n, c) for c = 0..n, gives the number of partitions of
n with parts at most c without listing any; in ``partitions_of`` order
they are a suffix of width p(n, c).  ``partitions_of(n)`` is built once
per n from those suffixes of the smaller lists and shares their tuples.
Every other module imports this one, so it also holds ``_Record``, the
immutable-record base of their record classes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from operator import index, lt
from typing import Iterable, Iterator

Partition = tuple[int, ...]
Composition = tuple[int, ...]


class NotWeaklyDecreasing(ValueError):
    """A sequence meant to be a partition increases somewhere."""


class SizeMismatch(ValueError):
    """Two inputs that must have equal size do not."""


class InvariantViolation(RuntimeError):
    """A mathematical invariant failed: a fault in the program, not in its input."""


class _Record:
    """Immutable record whose fields are its class's annotations, in order.

    It behaves as a frozen dataclass would, without importing ``dataclasses``,
    which pulls ``inspect``, ``ast`` and ``dis`` into every process's
    start-up: positional or keyword construction, then ``__post_init__``
    if the class has one; equality only with the same class; a hash over
    the fields; a ``Name(field=value, ...)`` repr; no assignment or
    deletion.  ``__init__`` and ``_values`` are generated per class, as
    dataclasses does, so Python binds the arguments and construction costs
    one store per field.  The stores go through ``object.__setattr__``:
    touching ``self.__dict__`` would give each instance a dict of its own,
    which takes more memory and slows every attribute read.
    """

    def __init_subclass__(cls):
        fields = cls._fields = tuple(cls.__annotations__)
        lines = [f"def __init__(self, {', '.join(fields)}):"]
        lines += [f"    _set(self, {name!r}, {name})" for name in fields]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        lines.append(f"def _values(self): return ({''.join(f'self.{name}, ' for name in fields)})")
        namespace = {"_set": object.__setattr__}
        exec("\n".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._values = namespace["_values"]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def partition(parts: Iterable[int]) -> Partition:
    """Validate ``parts`` as a partition; trailing zeros are stripped.  A weakly
    decreasing sequence is nonnegative iff its last part is."""
    seq = tuple(map(index, parts))
    if any(map(lt, seq, seq[1:])) or seq and seq[-1] < 0:
        composition(seq)  # a negative part is reported first
        raise NotWeaklyDecreasing(f"{seq} is not weakly decreasing")
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    return seq


def composition(parts: Iterable[int]) -> Composition:
    """Validate ``parts`` as a composition (nonnegative parts, kept verbatim)."""
    seq = tuple(map(index, parts))
    if seq and min(seq) < 0:
        for x in seq:
            if x < 0:
                raise ValueError(f"negative part {x} in {seq}")
    return seq


def _parse_ints(text: str, kind: str) -> list[int]:
    """The comma-separated integers of ``text``, read as a ``kind``."""
    try:
        return [int(token) for token in text.split(",")]
    except ValueError:
        raise ValueError(f"bad {kind} {text!r}: expected comma-separated integers") from None


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition such as ``"3,2,1"``."""
    return partition(_parse_ints(text, "partition"))


def parse_composition(text: str) -> Composition:
    """Parse a comma-separated composition of positive integers."""
    parts = _parse_ints(text, "composition")
    if any(x <= 0 for x in parts):
        raise ValueError(f"bad composition {text!r}: parts must be positive")
    return tuple(parts)


def sort_desc(comp: Iterable[int]) -> Partition:
    """Sort a composition into the partition with the same multiset of
    parts, every zero part (not just trailing ones) dropped."""
    return tuple(sorted((x for x in comp if x != 0), reverse=True))


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
def _count_table(n: int) -> tuple[int, ...]:
    """p(n, c), the number of partitions of ``n`` with parts at most c, for
    c = 0..n, from p(n, c) = p(n, c - 1) + p(n - c, c)."""
    counts = [0 if n else 1]
    for c in range(1, n + 1):
        counts.append(counts[-1] + _count_below(n - c, c))
    return tuple(counts)


def _count_below(n: int, cap: int) -> int:
    """The number of partitions of ``n`` with parts at most ``cap``."""
    return _count_table(n)[min(cap, n)]


@lru_cache(maxsize=None)
def _partition_table(n: int) -> tuple[Partition, ...]:
    """``partitions_of(n)``: by largest part h, descending, each followed by
    a tail from ``_partitions_below(n - h, h)``, whose tuples it shares."""
    if n == 0:
        return ((),)
    return tuple((h,) + tail for h in range(n, 0, -1) for tail in _partitions_below(n - h, h))


def _partitions_below(n: int, cap: int) -> tuple[Partition, ...]:
    """The partitions of ``n`` with parts at most ``cap``: a suffix of ``partitions_of(n)``."""
    parts = _partition_table(n)
    return parts[len(parts) - _count_below(n, cap):]


def _partition_counts() -> Iterator[int]:
    """p(0), p(1), p(2), ... by Euler's pentagonal number recurrence,
    p(m) = sum over k >= 1 of (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2)),
    without listing any partition."""
    counts: list[int] = []
    while True:
        m = len(counts)
        total = 0 if m else 1
        k = 1
        while k * (3 * k - 1) // 2 <= m:
            pair = counts[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                pair += counts[m - k * (3 * k + 1) // 2]
            total += pair if k % 2 else -pair
            k += 1
        counts.append(total)
        yield total


def partition_count(n: int) -> int:
    """p(n), the number of partitions of ``n``, without listing them."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return next(islice(_partition_counts(), n, None))


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in reverse lexicographic order."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _partition_table(n)
