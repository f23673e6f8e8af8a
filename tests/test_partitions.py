import pytest

from crkron.kronecker import kron_via_cr
from crkron.partitions import (
    NotWeaklyDecreasing,
    SizeMismatch,
    _count_below,
    _partitions_below,
    composition,
    conjugate,
    dominance_geq,
    intersection,
    parse_composition,
    parse_partition,
    partition,
    partition_count,
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


def test_parts_must_be_integers():
    # a float is not truncated and a string is not read digit by digit
    for bad in ((2.9, 1.2), (2.0, 1), "321"):
        with pytest.raises(TypeError):
            partition(bad)
        with pytest.raises(TypeError):
            composition(bad)
    with pytest.raises(TypeError):
        kron_via_cr((2.9, 1.2), (2, 1), (3,))


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
            assert _count_below(n, cap) == len(capped)
    assert len(partitions_of(40)) == 37338


def test_partition_count_by_pentagonal_recurrence():
    for n in range(41):
        assert partition_count(n) == len(partitions_of(n)), n
    assert partition_count(100) == 190_569_292
    with pytest.raises(ValueError):
        partition_count(-1)


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


def test_validation_messages_are_pinned():
    # valid input takes a fast path; invalid input raises exactly as the loops did
    cases = [
        (partition, (3, -1), ValueError, "negative part -1 in (3, -1)"),
        (partition, (1, -2, 3), ValueError, "negative part -2 in (1, -2, 3)"),
        (partition, (-1, -1), ValueError, "negative part -1 in (-1, -1)"),
        (partition, (2, 1, 3), NotWeaklyDecreasing, "(2, 1, 3) is not weakly decreasing"),
        (partition, (0, 1), NotWeaklyDecreasing, "(0, 1) is not weakly decreasing"),
        (partition, (2, 1.5), TypeError, "'float' object cannot be interpreted as an integer"),
        (composition, (2, -1, 3), ValueError, "negative part -1 in (2, -1, 3)"),
        (composition, (1, 2.0), TypeError, "'float' object cannot be interpreted as an integer"),
    ]
    for fn, parts, kind, message in cases:
        with pytest.raises(kind) as info:
            fn(parts)
        assert type(info.value) is kind and str(info.value) == message, parts
    assert partition((3, 1, 0, 0)) == (3, 1)
    assert partition((0, 0)) == partition(()) == ()
    assert partition(iter([2, 2, 0])) == (2, 2)
    assert composition((0, 2, 0)) == (0, 2, 0)
