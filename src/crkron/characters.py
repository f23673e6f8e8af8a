"""Symmetric-group character arithmetic.

This is the ground-truth side of the package: Kronecker coefficients and
Littlewood-Richardson-type multiplicities computed from class sums alone,
with no tableaux and no polytopes anywhere in the call chain.  All
arithmetic is exact (Python integers), and every division by n! is checked.

The class sums read whole character-table columns: ``_column`` lists
chi^lam(rho) for every rho |- n in ``partitions_of`` order.  Its block for
the largest part h is the signed sum, over the rim hooks of length h, of
the capped column of each hook-removed shape at n - h (the classes with
parts at most h), so columns are memoized per shape, size and cap, not per
class.  ``_class_sizes`` lists the matching class sizes: the classes
rho = h^k + rest come in runs, one per h and k, and each run is a suffix of
the class sizes of n - hk, scaled, whose width is read from the count
table of ``partitions``.  So ``g_oracle`` lists no partition; ``lr_oracle``
lists the classes of n, because phi needs rho.  Both oracles refuse a size
with more than ``MAX_CLASSES`` classes before listing any.  The permutation
character phi^tau(rho) places all the cycles of one length in the blocks
tau at once, largest length first, memoized on the cycles and the sorted
room left.  Zero parts of a cycle type or a composition are dropped; a
negative part in either raises ``ValueError``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import takewhile
from math import comb, factorial
from operator import add, sub

from .partitions import (
    Composition,
    InvariantViolation,
    Partition,
    SizeMismatch,
    _count_below,
    _partition_counts,
    composition,
    partition,
    partitions_of,
    sort_desc,
)


def centralizer_order(rho: Partition) -> int:
    """z_rho = prod_i i^{m_i} m_i! over the cycle multiplicities of ``rho``.

    Read off the runs of the sorted parts: the k-th copy of a part i
    contributes the factor i * k.  Zero parts are dropped; a negative part
    raises ``ValueError``.
    """
    parts = sorted(rho)
    if parts and parts[0] < 0:
        raise ValueError(f"negative part {parts[0]} in {tuple(rho)}")
    z, previous, k = 1, None, 0
    for part in filter(None, parts):
        k = k + 1 if part == previous else 1
        previous = part
        z *= part * k
    return z


def class_size(rho: Partition) -> int:
    """Number of permutations with cycle type ``rho``."""
    z = centralizer_order(rho)  # first, so a negative part is named, not factorial's error
    return factorial(sum(rho)) // z


@lru_cache(maxsize=None)
def _class_sizes(n: int) -> tuple[int, ...]:
    """``class_size(rho)`` for every rho in ``partitions_of(n)`` order.

    That order takes rho = h^k + rest, with h and then k descending, and
    the rests are the partitions of n - hk with parts below h: a suffix of
    ``partitions_of(n - hk)``.  Since z_rho = h^k k! z_rest, each run is
    that suffix of ``_class_sizes(n - hk)`` scaled by n!/((n - hk)! h^k k!).
    """
    if not n:
        return (1,)
    sizes: list[int] = []
    for h in range(n, 0, -1):
        for k in range(n // h, 0, -1):
            rest = n - h * k
            scale = factorial(n) // (factorial(rest) * h**k * factorial(k))
            below = _class_sizes(rest)
            sizes += [size * scale for size in below[len(below) - _count_below(rest, h - 1):]]
    return tuple(sizes)


def _beta_mask(lam: Partition) -> int:
    """The beta set of a partition as a bitmask (its abacus).

    Bit b is set iff b = lam_i + l - 1 - i for some row i of l rows.  Zero
    parts are beads at the bottom, which are shifted out, so every partition
    has exactly one mask and bit 0 is clear unless the mask is 0.
    """
    lam = partition(lam)
    length = len(lam)
    mask = 0
    for i, part in enumerate(lam):
        mask |= 1 << (part + length - 1 - i)
    return mask


@lru_cache(maxsize=None)
def _rim_hooks(mask: int, hook: int) -> tuple[tuple[int, int], ...]:
    """``(moved mask, odd)`` for each rim hook of length ``hook`` in ``mask``.

    A rim hook of length h is a bead at ``top`` that moves to the clear
    position ``top - h``; ``odd`` is 1 iff it jumps over an odd number of
    beads, which makes its sign negative.
    """
    jumped = (1 << (hook - 1)) - 1
    movable = (mask & ~(mask << hook)) >> hook
    hooks = []
    while movable:
        low = movable & -movable
        movable ^= low
        target = low.bit_length() - 1
        moved = mask ^ (low << hook) ^ low
        if not target:
            # a bead at 0 is a zero part: shift out the run of low beads
            moved >>= (moved ^ (moved + 1)).bit_length() - 1
        hooks.append((moved, ((mask >> (target + 1)) & jumped).bit_count() & 1))
    return tuple(hooks)


@lru_cache(maxsize=None)
def _mn_value(mask: int, rho: Partition) -> int:
    """chi(rho) of the partition with beta mask ``mask`` (Murnaghan-Nakayama).

    ``rho`` is sorted decreasingly and has the partition's size; its
    largest part is removed first.
    """
    if not rho:
        return 1
    rest = rho[1:]
    total = 0
    for moved, odd in _rim_hooks(mask, rho[0]):
        value = _mn_value(moved, rest)
        total += -value if odd else value
    return total


@lru_cache(maxsize=None)
def _column(mask: int, n: int, cap: int) -> tuple[int, ...]:
    """chi(rho) of the partition with beta mask ``mask``, for every rho |- n
    with parts at most ``cap``, in the order of ``_partitions_below(n, cap)``.

    That order is the largest part h, descending, then the tails with parts
    at most h, so the block of h is the signed sum, over the rim hooks of
    length h, of the columns of the hook-removed shapes at n - h capped at
    min(h, n - h).  Every call passes cap <= n, so a full column is keyed
    ``(mask, n, n)`` alone and each column is computed once.
    """
    if not n:
        return (1,)  # the empty class of S_0
    column: list[int] = []
    for h in range(cap, 0, -1):
        rest = n - h
        below = min(h, rest)
        block = [0] * _count_below(rest, h)
        for moved, odd in _rim_hooks(mask, h):
            block = list(map(sub if odd else add, block, _column(moved, rest, below)))
        column += block
    return tuple(column)


def character_value(lam: Partition, rho: Partition) -> int:
    """Irreducible character value chi^lam(rho) by rim-hook recursion."""
    cycles = sort_desc(composition(rho))
    if sum(lam) != sum(cycles):
        raise SizeMismatch(f"|{lam}| != |{rho}|")
    return _mn_value(_beta_mask(lam), cycles)


@lru_cache(maxsize=None)
def _phi_value(rho: Partition, blocks: Partition) -> int:
    """phi^blocks(rho) for ``rho`` and ``blocks`` of equal size, sorted
    decreasingly.

    All m cycles of the largest length c are placed in one step: a split
    (k_1, ..., k_r) with sum m and c * k_i <= blocks[i] can be made in
    m!/(k_1! ... k_r!) ways, and phi of the other cycles is taken on the
    room left, sorted again, since phi ignores the order of the blocks.  The
    splits are built block by block, and partial splits that leave the same
    rooms are merged, so the recursion takes one frame per distinct length.
    """
    if not rho:
        return 1
    c = rho[0]
    m = rho.count(c)
    fits = [room // c for room in blocks if room >= c]  # a prefix: blocks are sorted
    after = sum(fits)  # how many the blocks not yet split can take
    if after < m:
        return 0
    # (cycles placed, room left in the blocks split so far, sorted) -> ways
    splits: dict[tuple[int, Partition], int] = {(0, ()): 1}
    for room, fit in zip(blocks, fits):
        after -= fit
        grown: dict[tuple[int, Partition], int] = {}
        for (placed, left), ways in splits.items():
            free = m - placed
            for k in range(max(0, free - after), min(fit, free) + 1):
                room_left = room - c * k
                if room_left:
                    key = (placed + k, tuple(sorted(left + (room_left,), reverse=True)))
                else:
                    key = (placed + k, left)
                grown[key] = grown.get(key, 0) + ways * comb(free, k)
        splits = grown
    small, rest = blocks[len(fits) :], rho[m:]
    return sum(
        ways * _phi_value(rest, tuple(sorted(left + small, reverse=True)))
        for (_, left), ways in splits.items()
    )


def perm_character_value(tau: Composition, rho: Partition) -> int:
    """Permutation character phi^tau(rho).

    Counts the ways to distribute the cycles of ``rho`` into blocks with
    prescribed sums tau_1, ..., tau_r.  The recursion takes one frame per
    distinct cycle length, so its depth stays below sqrt(2 |rho|) + 1.
    """
    blocks = composition(tau)
    cycles = sort_desc(composition(rho))
    if sum(blocks) != sum(cycles):
        raise SizeMismatch(f"|{tau}| != |{rho}|")
    return _phi_value(cycles, sort_desc(blocks))


MAX_CLASSES = 250_000
"""The class budget: ``g_oracle`` and ``lr_oracle`` refuse a size n with more
than this many conjugacy classes p(n), before listing any class.  p(51) =
239,943 is the largest size that passes.  A two-row triple at n = 50 takes
0.5-0.9 s and 0.13-0.17 GB peak RSS in a fresh process (CPython 3.11 on a
2-core x86 host), and each unit of n adds about a sixth to both."""

# p(n) increases with n, so the budget is a largest size
_MAX_CLASS_N = sum(1 for _ in takewhile(MAX_CLASSES.__ge__, _partition_counts())) - 1


class TooManyClasses(ValueError):
    """A character route would list more than ``MAX_CLASSES`` conjugacy classes."""

    def __init__(self, n: int):
        super().__init__(
            f"S_{n} has more than MAX_CLASSES = {MAX_CLASSES} conjugacy classes;"
            f" the character routes take n <= {_MAX_CLASS_N}"
        )


def _inner_product(total: int, n: int) -> int:
    """``total / n!``, which is an integer for any inner product of characters."""
    value, remainder = divmod(total, factorial(n))
    if remainder:
        raise InvariantViolation(f"character inner product {total}/{n}! is not an integer")
    return value


def g_oracle(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient via the class-sum inner product of characters."""
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise SizeMismatch(f"sizes of {lam}, {mu}, {nu} differ")
    if n > _MAX_CLASS_N:
        raise TooManyClasses(n)
    columns = [_column(_beta_mask(x), n, n) for x in (lam, mu, nu)]
    total = 0
    for size, a, b, c in zip(_class_sizes(n), *columns):
        if a and b and c:
            total += size * a * b * c
    return _inner_product(total, n)


def lr_oracle(lam: Partition, mu: Partition, tau: Composition) -> int:
    """<chi^lam x chi^mu, phi^tau> via class sums, exact."""
    key = sort_desc(composition(tau))
    n = sum(lam)
    if sum(mu) != n or sum(key) != n:
        raise SizeMismatch(f"sizes of {lam}, {mu}, {tau} differ")
    if n > _MAX_CLASS_N:
        raise TooManyClasses(n)
    columns = [_column(_beta_mask(x), n, n) for x in (lam, mu)]
    total = 0
    for rho, size, a, b in zip(partitions_of(n), _class_sizes(n), *columns):
        if a and b:
            total += size * a * b * _phi_value(rho, key)
    return _inner_product(total, n)
