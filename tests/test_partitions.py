import pytest

from crkron.partitions import (
    NotWeaklyDecreasing,
    SizeMismatch,
    _partitions_below,
    conjugate,
    dominance_geq,
    intersection,
    parse_composition,
    parse_partition,
    partition,
    partitions_of,
)


def test_parse_partition():
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("4,2,0,0") == (4, 2)
    assert parse_partition("0") == ()
    with pytest.raises(NotWeaklyDecreasing):
        parse_partition("2,3")
    with pytest.raises(ValueError):
        parse_partition("2,x")
    with pytest.raises(ValueError):
        parse_partition("3,-1")
    with pytest.raises(ValueError):
        parse_partition("")


def test_parse_composition():
    assert parse_composition("2,3,1") == (2, 3, 1)
    with pytest.raises(ValueError):
        parse_composition("2,0,1")
    with pytest.raises(ValueError):
        parse_composition("a")


def test_dominance():
    assert dominance_geq((3,), (2, 1))
    assert not dominance_geq((2, 1), (3,))
    assert not dominance_geq((3, 1, 1, 1), (2, 2, 2))
    assert not dominance_geq((2, 2, 2), (3, 1, 1, 1))
    with pytest.raises(SizeMismatch):
        dominance_geq((2,), (2, 1))


def test_conjugate():
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


def test_intersection():
    assert intersection((3, 1), (2, 2)) == (2, 1)
    assert intersection((3,), (1, 1, 1)) == (1,)
    for lam in partitions_of(5):
        assert intersection(lam, lam) == lam


def test_partitions_of():
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_of(0) == ((),)
    fours = partitions_of(4)
    assert len(fours) == 5
    assert fours[0] == (4,) and fours[-1] == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_capped_partitions_are_shared_suffixes():
    for n in range(21):
        parts = partitions_of(n)
        assert list(parts) == sorted(set(parts), reverse=True)
        for cap in range(n + 2):
            capped = _partitions_below(n, cap)
            assert capped == tuple(lam for lam in parts if not lam or lam[0] <= cap)
            suffix = parts[len(parts) - len(capped):]
            assert all(a is b for a, b in zip(capped, suffix))
    assert len(partitions_of(40)) == 37338


def test_conjugate_is_involution():
    for n in range(13):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_dominance_antisymmetry():
    for n in range(9):
        for alpha in partitions_of(n):
            for beta in partitions_of(n):
                if dominance_geq(alpha, beta) and dominance_geq(beta, alpha):
                    assert alpha == beta


def test_conjugation_reverses_dominance():
    for n in range(9):
        for gamma in partitions_of(n):
            for nu in partitions_of(n):
                assert dominance_geq(gamma, nu) == dominance_geq(conjugate(nu), conjugate(gamma))


def test_intersection_size_bound():
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert sum(intersection(lam, mu)) <= min(sum(lam), sum(mu))


def test_partition_validates():
    assert partition([2, 1, 0]) == (2, 1)
    with pytest.raises(NotWeaklyDecreasing):
        partition([1, 2])
