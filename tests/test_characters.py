from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest

from crkron.characters import (
    _beta_mask,
    _class_sizes,
    _column,
    centralizer_order,
    character_value,
    class_size,
    g_oracle,
    lr_oracle,
    perm_character_value,
)
from crkron.partitions import SizeMismatch, partitions_of
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
            column = _column(_beta_mask(lam), n)
            assert len(column) == len(classes)
            for rho, value in zip(classes, column):
                assert value == character_value(lam, rho), (lam, rho)


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
