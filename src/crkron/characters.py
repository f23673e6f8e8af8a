"""Symmetric-group character arithmetic.

This is the ground-truth side of the package: Kronecker coefficients and
Littlewood-Richardson-type multiplicities computed from class sums alone,
with no tableaux and no polytopes anywhere in the call chain.  All
arithmetic is exact (Python integers), and every division by n! is checked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import comb, factorial

from .partitions import (
    Composition,
    InvariantViolation,
    Partition,
    SizeMismatch,
    partition,
    partitions_of,
    sort_desc,
)


def _cycle_type(rho: Partition) -> tuple[tuple[int, int], ...]:
    """``(length, multiplicity)`` pairs of ``rho`` by increasing length."""
    return tuple((part, len(list(run))) for part, run in groupby(sorted(rho)))


def centralizer_order(rho: Partition) -> int:
    """z_rho = prod_i i^{m_i} m_i! over the cycle multiplicities of ``rho``.

    Read off the runs of the sorted parts: the k-th copy of a part i
    contributes the factor i * k.
    """
    z, previous, k = 1, None, 0
    for part in sorted(rho):
        k = k + 1 if part == previous else 1
        previous = part
        z *= part * k
    return z


def class_size(rho: Partition) -> int:
    """Number of permutations with cycle type ``rho``."""
    return factorial(sum(rho)) // centralizer_order(rho)


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
def _mn_value(mask: int, rho: Partition) -> int:
    """chi(rho) of the partition with beta mask ``mask`` (Murnaghan-Nakayama).

    A rim hook of length h is a bead at ``top`` that moves to the clear
    position ``top - h``; its sign is the parity of the beads it jumps over.
    ``rho`` is sorted decreasingly and has the partition's size.
    """
    if not rho:
        return 1
    hook = rho[0]
    rest = rho[1:]
    jumped = (1 << (hook - 1)) - 1
    movable = (mask & ~(mask << hook)) >> hook
    total = 0
    while movable:
        low = movable & -movable
        movable ^= low
        target = low.bit_length() - 1
        moved = mask ^ (low << hook) ^ low
        if not target:
            # a bead at 0 is a zero part: shift out the run of low beads
            moved >>= (moved ^ (moved + 1)).bit_length() - 1
        value = _mn_value(moved, rest)
        total += -value if ((mask >> (target + 1)) & jumped).bit_count() & 1 else value
    return total


def character_value(lam: Partition, rho: Partition) -> int:
    """Irreducible character value chi^lam(rho) by rim-hook recursion."""
    if sum(lam) != sum(rho):
        raise SizeMismatch(f"|{lam}| != |{rho}|")
    return _mn_value(_beta_mask(lam), sort_desc(rho))


def _block_distributions(length: int, mult: int, remaining: tuple[int, ...]):
    """Ways to put ``mult`` cycles of ``length`` into blocks, with multinomials."""
    out: list[tuple[int, tuple[int, ...]]] = []

    def go(block: int, left: int, rem: list[int], coeff: int) -> None:
        if block == len(rem):
            if left == 0:
                out.append((coeff, tuple(rem)))
            return
        top = min(left, rem[block] // length)
        for take in range(top + 1):
            rem[block] -= take * length
            go(block + 1, left - take, rem, coeff * comb(left, take))
            rem[block] += take * length

    go(0, mult, list(remaining), 1)
    return out


@lru_cache(maxsize=None)
def _phi_value(cycles: tuple[tuple[int, int], ...], remaining: tuple[int, ...]) -> int:
    if not cycles:
        return 1 if not any(remaining) else 0
    (length, mult), rest = cycles[0], cycles[1:]
    total = 0
    for coeff, new_remaining in _block_distributions(length, mult, remaining):
        total += coeff * _phi_value(rest, new_remaining)
    return total


def perm_character_value(tau: Composition, rho: Partition) -> int:
    """Permutation character phi^tau(rho).

    Counts the ways to distribute the multiset of cycles of ``rho`` into
    blocks with prescribed sums tau_1, ..., tau_r.
    """
    if sum(tau) != sum(rho):
        raise SizeMismatch(f"|{tau}| != |{rho}|")
    cycles = _cycle_type(sort_desc(rho))
    return _phi_value(cycles, tuple(tau))


def _inner_product(total: int, n: int) -> int:
    """``total / n!``, which is an integer for any inner product of characters."""
    value, remainder = divmod(total, factorial(n))
    if remainder:
        raise InvariantViolation(f"character inner product {total}/{n}! is not an integer")
    return value


def _powers(*lams: Partition) -> dict[int, int]:
    """Beta mask -> how often that partition occurs among ``lams``."""
    powers: dict[int, int] = {}
    for lam in lams:
        mask = _beta_mask(lam)
        powers[mask] = powers.get(mask, 0) + 1
    return powers


def _character_product(powers: dict[int, int], rho: Partition) -> int:
    """prod chi^lam(rho) over ``powers``; stops at the first zero factor."""
    product = 1
    for mask, power in powers.items():
        value = _mn_value(mask, rho)
        if not value:
            return 0
        product *= value**power
    return product


def g_oracle(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient via the class-sum inner product of characters."""
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise SizeMismatch(f"sizes of {lam}, {mu}, {nu} differ")
    powers = _powers(lam, mu, nu)
    total = 0
    for rho in partitions_of(n):
        product = _character_product(powers, rho)
        if product:
            total += class_size(rho) * product
    return _inner_product(total, n)


def lr_oracle(lam: Partition, mu: Partition, tau: Composition) -> int:
    """<chi^lam x chi^mu, phi^tau> via class sums, exact."""
    n = sum(lam)
    if sum(mu) != n or sum(tau) != n:
        raise SizeMismatch(f"sizes of {lam}, {mu}, {tau} differ")
    key = sort_desc(tau)
    powers = _powers(lam, mu)
    total = 0
    for rho in partitions_of(n):
        product = _character_product(powers, rho)
        if product:
            total += class_size(rho) * product * _phi_value(_cycle_type(rho), key)
    return _inner_product(total, n)
