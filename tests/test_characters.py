import sys
from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

import pytest

from crkron.characters import (
    _MAX_CLASS_N,
    MAX_CLASSES,
    TooManyClasses,
    _beta_mask,
    _class_sizes,
    _column,
    _phi_value,
    centralizer_order,
    character_value,
    class_size,
    g_oracle,
    lr_oracle,
    perm_character_value,
)
from crkron.partitions import (
    SizeMismatch,
    _partition_table,
    _partitions_below,
    partition_count,
    partitions_of,
)
from crkron.tableaux import count_lr_pairs, kostka


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(class_size(rho) for rho in partitions_of(n)) == factorial(n)
        assert all(factorial(n) % centralizer_order(rho) == 0 for rho in partitions_of(n))


def test_class_size_tables_match_class_size():
    for n in range(26):
        assert _class_sizes(n) == tuple(map(class_size, partitions_of(n)))
    for n in range(41):
        assert sum(_class_sizes(n)) == factorial(n)


def test_character_value_examples():
    for rho in partitions_of(4):
        assert character_value((4,), rho) == 1
    assert character_value((1, 1, 1), (3,)) == 1
    assert character_value((2, 1), (1, 1, 1)) == 2
    with pytest.raises(SizeMismatch):
        character_value((2, 1), (2, 2))


@lru_cache(maxsize=None)
def _reference_mn(lam, rho):
    """Rim-hook recursion on tuples of beta numbers: the reference for the core."""
    if not rho:
        return 1
    betas = [lam[i] + len(lam) - 1 - i for i in range(len(lam))]
    total = 0
    for b in betas:
        c = b - rho[0]
        if c < 0 or c in betas:
            continue
        height = sum(1 for x in betas if c < x < b)
        moved = sorted((c if x == b else x for x in betas), reverse=True)
        shape = [moved[i] - (len(moved) - 1 - i) for i in range(len(moved))]
        while shape and shape[-1] == 0:
            shape.pop()
        total += (-1) ** height * _reference_mn(tuple(shape), rho[1:])
    return total


def test_character_value_matches_tuple_recursion():
    for n in range(13):
        for lam in partitions_of(n):
            for rho in partitions_of(n):
                assert character_value(lam, rho) == _reference_mn(lam, rho), (lam, rho)
    # zero parts and unsorted cycle types are the same class
    assert character_value((3, 2, 0, 0), (1, 2, 0, 2)) == _reference_mn((3, 2), (2, 2, 1))


def test_column_orthogonality():
    for n in range(1, 10):
        classes = partitions_of(n)
        for i, rho in enumerate(classes):
            for sigma in classes[i:]:
                total = sum(
                    character_value(lam, rho) * character_value(lam, sigma)
                    for lam in classes
                )
                assert total == (centralizer_order(rho) if rho == sigma else 0)


def test_centralizer_order_ignores_part_order():
    # z_(3,2,2,1,1,1) = 3 * 2^2 * 2! * 1^3 * 3!
    assert centralizer_order((3, 2, 2, 1, 1, 1)) == 3 * 4 * 2 * 6
    for n in range(1, 8):
        for rho in partitions_of(n):
            assert centralizer_order(rho[::-1]) == centralizer_order(rho)
            assert perm_character_value(rho, rho[::-1]) == perm_character_value(rho, rho)


def test_character_dimensions_by_hook_lengths():
    # dimension chi^lam(1^n) agrees with the standard-tableau count
    for n in range(1, 7):
        ones = (1,) * n
        for lam in partitions_of(n):
            assert character_value(lam, ones) == kostka(lam, ones)


def test_perm_character_examples():
    assert perm_character_value((2, 1), (1, 1, 1)) == 3
    for rho in partitions_of(5):
        assert perm_character_value((5,), rho) == 1
    n = 4
    ones = (1,) * n
    for rho in partitions_of(n):
        expected = factorial(n) if rho == ones else 0
        assert perm_character_value(ones, rho) == expected


def test_perm_character_on_many_fixed_points():
    # fixed points take no recursion frame each
    ones = (1,) * 900
    assert perm_character_value((900,), ones) == 1
    assert perm_character_value((450, 450), ones) == comb(900, 450)


def _phi_by_assignments(rho, tau):
    """Maps from the cycles of ``rho`` to the blocks of ``tau`` that fill
    every block exactly, counted cycle by cycle over the block loads."""
    loads = Counter({(0,) * len(tau): 1})
    for cycle in rho:
        grown = Counter()
        for load, ways in loads.items():
            for i, room in enumerate(tau):
                if load[i] + cycle <= room:
                    grown[load[:i] + (load[i] + cycle,) + load[i + 1 :]] += ways
        loads = grown
    return loads[tuple(tau)]


def test_phi_value_matches_assignment_count():
    for n in range(10):
        classes = partitions_of(n)
        for tau in classes:
            for rho in classes:
                assert _phi_value(rho, tau) == _phi_by_assignments(rho, tau), (rho, tau)


def test_perm_character_on_many_equal_cycles():
    # all cycles of one length are placed in one step, so the depth is the
    # number of distinct lengths, not of cycles
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        assert perm_character_value((2000,), (2,) * 1000) == 1
        assert perm_character_value((1000, 1000), (2,) * 1000) == comb(1000, 500)
    finally:
        sys.setrecursionlimit(limit)


def test_g_oracle_examples():
    assert g_oracle((2, 1), (2, 1), (2, 1)) == 1
    for n in range(1, 6):
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                assert g_oracle((n,), lam, nu) == (1 if lam == nu else 0)
        assert g_oracle((1,) * n, (1,) * n, (n,)) == 1
    with pytest.raises(SizeMismatch):
        g_oracle((2,), (2,), (1,))


def test_g_oracle_symmetric():
    for n in range(2, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    base = g_oracle(lam, mu, nu)
                    assert all(
                        g_oracle(*triple) == base for triple in permutations((lam, mu, nu))
                    )


def test_row_orthogonality():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                total = sum(
                    class_size(rho) * character_value(lam, rho) * character_value(mu, rho)
                    for rho in partitions_of(n)
                )
                assert total == (factorial(n) if lam == mu else 0)


def test_lr_oracle_examples():
    assert lr_oracle((2, 1), (2, 1), (2, 1)) == 2
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert lr_oracle(lam, lam, (n,)) == 1


def test_lr_oracle_reorder_invariance():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for tau in partitions_of(n):
                    base = lr_oracle(lam, mu, tau)
                    for sigma in set(permutations(tau)):
                        assert lr_oracle(lam, mu, sigma) == base


def test_youngs_rule():
    # lr(lam, mu; tau) = sum_gamma K_{gamma, tau} g(lam, mu, gamma)
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for tau in partitions_of(n):
                    expected = sum(
                        kostka(gamma, tau) * g_oracle(lam, mu, gamma)
                        for gamma in partitions_of(n)
                    )
                    assert lr_oracle(lam, mu, tau) == expected


def test_youngs_rule_at_class_level():
    # phi^tau(rho) = sum_gamma K_{gamma, tau} chi^gamma(rho), with tau in
    # every order and with a zero part anywhere
    for n in range(1, 8):
        for tau in partitions_of(n):
            for sigma in set(permutations(tau + (0,))):
                for rho in partitions_of(n):
                    expected = sum(
                        kostka(gamma, sigma) * character_value(gamma, rho)
                        for gamma in partitions_of(n)
                    )
                    assert perm_character_value(sigma, rho) == expected, (sigma, rho)


def test_lr_identity_on_standard_tableaux_n20():
    # lr(lam, mu; 1^n) = f^lam f^mu by characters, by Kostka numbers and by
    # LR multitableau pairs; f^(10,10) is the Catalan number 16,796
    ones = (1,) * 20
    shapes = ((10, 10), (7, 7, 6), (8, 6, 6))
    for lam in shapes:
        for mu in shapes:
            expected = kostka(lam, ones) * kostka(mu, ones)
            assert lr_oracle(lam, mu, ones) == expected == count_lr_pairs(lam, mu, ones), (lam, mu)
    assert lr_oracle((10, 10), (10, 10), ones) == 16796**2 == 282_105_616


def test_lr_oracle_matches_tableau_enumeration():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for tau in partitions_of(n):
                    assert lr_oracle(lam, mu, tau) == count_lr_pairs(lam, mu, tau)


def test_malformed_cycle_types_and_compositions():
    # zero parts are dropped, as character_value always did
    assert centralizer_order((2, 1, 0)) == centralizer_order((2, 1)) == 2
    assert class_size((2, 1, 0)) == class_size((0, 1, 2)) == 3
    assert perm_character_value((2, 1), (2, 1, 0)) == perm_character_value((2, 1), (2, 1))
    assert lr_oracle((2, 1), (2, 1), (0, 2, 0, 1)) == lr_oracle((2, 1), (2, 1), (2, 1))
    # a negative part raises the message CRSystem gives
    calls = (
        lambda: centralizer_order((3, -1, 1)),
        lambda: class_size((3, -1, 1)),
        lambda: class_size((1, -1)),
        lambda: character_value((2, 1), (4, -1)),
        lambda: perm_character_value((4, -1), (2, 1)),
        lambda: perm_character_value((2, 1), (4, -1)),
        lambda: lr_oracle((2, 1), (2, 1), (4, -1)),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"^negative part -1 in \("):
            call()


def _g_by_classes(lam, mu, nu):
    """The per-class loop: the reference for the column-based g_oracle."""
    n = sum(lam)
    total = sum(
        class_size(rho)
        * character_value(lam, rho)
        * character_value(mu, rho)
        * character_value(nu, rho)
        for rho in partitions_of(n)
    )
    value, remainder = divmod(total, factorial(n))
    assert remainder == 0
    return value


def _lr_by_classes(lam, mu, tau):
    """The per-class loop: the reference for the column-based lr_oracle."""
    n = sum(lam)
    total = sum(
        class_size(rho)
        * character_value(lam, rho)
        * character_value(mu, rho)
        * perm_character_value(tau, rho)
        for rho in partitions_of(n)
    )
    value, remainder = divmod(total, factorial(n))
    assert remainder == 0
    return value


def _weak_compositions(n, length):
    if length == 1:
        return [(n,)]
    return [
        (first,) + rest
        for first in range(n + 1)
        for rest in _weak_compositions(n - first, length - 1)
    ]


def test_column_matches_character_value():
    for n in range(11):
        classes = partitions_of(n)
        for lam in classes:
            column = _column(_beta_mask(lam), n, n)
            assert len(column) == len(classes)
            for rho, value in zip(classes, column):
                assert value == character_value(lam, rho), (lam, rho)


def test_capped_columns_are_suffixes_of_full_columns():
    for n in range(13):
        classes = partitions_of(n)
        for lam in classes:
            mask = _beta_mask(lam)
            full = _column(mask, n, n)
            for cap in range(1, n):
                capped = _column(mask, n, cap)
                below = _partitions_below(n, cap)
                assert capped == full[len(full) - len(below) :], (lam, cap)
                for rho, value in zip(below, capped):
                    assert value == character_value(lam, rho), (lam, rho)


def test_class_budget_refuses_before_listing_classes():
    assert partition_count(_MAX_CLASS_N) <= MAX_CLASSES < partition_count(_MAX_CLASS_N + 1)
    assert partition_count(40) <= MAX_CLASSES  # the fewrow benchmark's largest size
    n = _MAX_CLASS_N + 1
    two_rows = (n - n // 2, n // 2)
    tables = _partition_table.cache_info().currsize
    with pytest.raises(TooManyClasses, match="MAX_CLASSES"):
        g_oracle(two_rows, two_rows, (n,))
    with pytest.raises(TooManyClasses):
        lr_oracle((2000,), (2000,), (2000,))
    assert _partition_table.cache_info().currsize == tables
    assert issubclass(TooManyClasses, ValueError)


def test_g_oracle_lists_no_partition():
    for cache in (_partition_table, _class_sizes, _column):
        cache.cache_clear()
    assert g_oracle((20, 20), (20, 20), (20, 20)) == 1
    assert _partition_table.cache_info().currsize == 0


def test_g_oracle_matches_class_loop():
    for n in range(8):
        classes = partitions_of(n)
        for lam in classes:
            for mu in classes:
                for nu in classes:
                    assert g_oracle(lam, mu, nu) == _g_by_classes(lam, mu, nu), (lam, mu, nu)
    # the shapes of the fewrow benchmark
    shapes = [(m, m) for m in range(1, 21)] + [(m, m, m) for m in range(1, 8)]
    for shape in shapes:
        assert g_oracle(shape, shape, shape) == _g_by_classes(shape, shape, shape), shape


def test_lr_oracle_matches_class_loop():
    # every composition with up to n + 1 parts, so zero parts at any place
    for n in range(6):
        classes = partitions_of(n)
        taus = [tau for length in range(1, n + 2) for tau in _weak_compositions(n, length)]
        for lam in classes:
            for mu in classes:
                for tau in taus:
                    assert lr_oracle(lam, mu, tau) == _lr_by_classes(lam, mu, tau), (lam, mu, tau)
