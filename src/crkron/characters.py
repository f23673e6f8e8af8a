"""Symmetric-group character arithmetic.

This is the ground-truth side of the package: Kronecker coefficients and
Littlewood-Richardson-type multiplicities computed from class sums alone,
with no tableaux and no polytopes anywhere in the call chain.  All
arithmetic is exact (Python integers), and every division by n! is checked.

The class sums read whole character-table columns: ``_column`` lists
chi^lam(rho) for every rho |- n in ``partitions_of`` order, once per
partition and n, and ``_class_sizes`` the matching class sizes, built from
the class sizes of the tails of each rho rather than by ``class_size``.  The
permutation character phi^tau(rho) puts the cycles of rho, largest first,
into the blocks tau, memoized on the cycles and the sorted room left, and
counts the fixed points left at the end by one multinomial.  Zero
parts of a cycle type or a composition are dropped; a negative part in
either raises ``ValueError``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import factorial, prod
from operator import add, sub

from .partitions import (
    Composition,
    InvariantViolation,
    Partition,
    SizeMismatch,
    _partitions_below,
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

    Built from the tables of smaller sizes along the order of
    ``partitions_of``: rho = (h,) + tail with k parts equal to h has
    z_rho = z_tail * h * k, so |C_rho| = |C_tail| * n!/(n - h)! / (h * k).
    """
    if not n:
        return (1,)
    sizes: list[int] = []
    for h in range(n, 0, -1):
        tails = _partitions_below(n - h, h)
        below = _class_sizes(n - h)[-len(tails):]
        falling = factorial(n) // factorial(n - h)
        sizes += [size * falling // (h * (tail.count(h) + 1)) for size, tail in zip(below, tails)]
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
def _column(mask: int, n: int) -> tuple[int, ...]:
    """chi(rho) of the partition with beta mask ``mask``, for every rho |- n.

    ``partitions_of(n)`` lists rho by its largest part h, descending, then
    by the tails ``_partitions_below(n - h, h)``, so the hooks of length h
    are removed once per h and each class is a ``_mn_value`` of its tail.
    """
    if not n:
        return (1,)  # the empty class of S_0
    column: list[int] = []
    for h in range(n, 0, -1):
        tails = _partitions_below(n - h, h)
        block = [0] * len(tails)
        for moved, odd in _rim_hooks(mask, h):
            values = map(_mn_value, repeat(moved), tails)
            block = list(map(sub if odd else add, block, values))
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
    decreasingly: the first cycle goes into each block with room for it, and
    what is left of the blocks is sorted again, since phi ignores their order.
    Once the first cycle is a fixed point, so is every cycle left, and the
    count is the multinomial coefficient of the blocks."""
    if not rho:
        return 1
    first, rest = rho[0], rho[1:]
    if first == 1:
        return factorial(len(rho)) // prod(factorial(room) for room in blocks)
    total = 0
    for i, room in enumerate(blocks):
        if room >= first:
            total += _phi_value(rest, sort_desc(blocks[:i] + (room - first,) + blocks[i + 1 :]))
    return total


def perm_character_value(tau: Composition, rho: Partition) -> int:
    """Permutation character phi^tau(rho).

    Counts the ways to distribute the cycles of ``rho`` into blocks with
    prescribed sums tau_1, ..., tau_r.  The recursion takes one frame per
    cycle of length >= 2 (fixed points cost none), so a cycle type with
    about ``sys.getrecursionlimit()`` such cycles raises ``RecursionError``.
    """
    blocks = composition(tau)
    cycles = sort_desc(composition(rho))
    if sum(blocks) != sum(cycles):
        raise SizeMismatch(f"|{tau}| != |{rho}|")
    return _phi_value(cycles, sort_desc(blocks))


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
    columns = [_column(_beta_mask(x), n) for x in (lam, mu, nu)]
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
    columns = [_column(_beta_mask(x), n) for x in (lam, mu)]
    total = 0
    for rho, size, a, b in zip(partitions_of(n), _class_sizes(n), *columns):
        if a and b:
            total += size * a * b * _phi_value(rho, key)
    return _inner_product(total, n)
