"""Symmetric-group character arithmetic.

This is the ground-truth side of the package: Kronecker coefficients and
Littlewood-Richardson-type multiplicities computed from class sums alone,
with no tableaux and no polytopes anywhere in the call chain.  All
arithmetic is exact (Python integers), and every division by n! is checked.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, factorial

from .partitions import (
    Composition,
    InvariantViolation,
    Partition,
    SizeMismatch,
    partitions_of,
    sort_desc,
)


def centralizer_order(rho: Partition) -> int:
    """z_rho = prod_i i^{m_i} m_i! over the cycle multiplicities of ``rho``."""
    z = 1
    for length, mult in Counter(rho).items():
        z *= length**mult * factorial(mult)
    return z


def class_size(rho: Partition) -> int:
    """Number of permutations with cycle type ``rho``."""
    return factorial(sum(rho)) // centralizer_order(rho)


def _beta_numbers(lam: Partition) -> tuple[int, ...]:
    length = len(lam)
    return tuple(lam[i] + length - 1 - i for i in range(length))


def _from_beta_numbers(betas: list[int]) -> Partition:
    betas = sorted(betas, reverse=True)
    length = len(betas)
    lam = [betas[i] - (length - 1 - i) for i in range(length)]
    while lam and lam[-1] == 0:
        lam.pop()
    return tuple(lam)


@lru_cache(maxsize=None)
def _mn_value(lam: Partition, rho: Partition) -> int:
    if not rho:
        return 1
    hook = rho[0]
    rest = rho[1:]
    betas = _beta_numbers(lam)
    present = set(betas)
    total = 0
    for b in betas:
        c = b - hook
        if c < 0 or c in present:
            continue
        height = sum(1 for x in betas if c < x < b)
        replaced = [c if x == b else x for x in betas]
        total += (-1) ** height * _mn_value(_from_beta_numbers(replaced), rest)
    return total


def character_value(lam: Partition, rho: Partition) -> int:
    """Irreducible character value chi^lam(rho) by rim-hook recursion."""
    if sum(lam) != sum(rho):
        raise SizeMismatch(f"|{lam}| != |{rho}|")
    return _mn_value(tuple(lam), sort_desc(rho))


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
    cycles = tuple(sorted(Counter(sort_desc(rho)).items()))
    return _phi_value(cycles, tuple(tau))


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
    total = 0
    for rho in partitions_of(n):
        total += (
            class_size(rho)
            * character_value(lam, rho)
            * character_value(mu, rho)
            * character_value(nu, rho)
        )
    return _inner_product(total, n)


def lr_oracle(lam: Partition, mu: Partition, tau: Composition) -> int:
    """<chi^lam x chi^mu, phi^tau> via class sums, exact."""
    n = sum(lam)
    if sum(mu) != n or sum(tau) != n:
        raise SizeMismatch(f"sizes of {lam}, {mu}, {tau} differ")
    key = sort_desc(tau)
    total = 0
    for rho in partitions_of(n):
        total += (
            class_size(rho)
            * character_value(lam, rho)
            * character_value(mu, rho)
            * perm_character_value(key, rho)
        )
    return _inner_product(total, n)
