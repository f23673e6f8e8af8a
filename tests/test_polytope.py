import gc
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from crkron import polytope
from crkron.kronecker import JTPairTerm, JTTerm
from crkron.partitions import SizeMismatch, partitions_of
from crkron.polytope import (
    ColTight,
    CRSystem,
    DiagZero,
    EntryZero,
    FaceUnion,
    NotDiagConstant,
    RowTight,
    Tensor3,
    affine_rank,
    build_hypercube_point,
    col_ineq_slack,
    cone_dim,
    count_points,
    diag_values,
    enumerate_points,
    free_cone_coordinates,
    hypercube_interval,
    hypercube_sample,
    in_cone,
    is_member,
    polytope_dim_bound,
    row_ineq_slack,
)
from crkron.tableaux import LRMultitableau, SkewTableau, main_lemma_conditions


def test_tensor_basics():
    t = Tensor3.zeros(2, 2, 2)
    assert t.marginals() == ((0, 0), (0, 0), (0, 0))
    single = Tensor3.from_levels([[[5, 0], [0, 0]], [[0, 0], [0, 0]]])
    assert single.marginals() == ((5, 0), (5, 0), (5, 0))
    with pytest.raises(ValueError):
        Tensor3.from_levels([[[1, 2], [3]]])


def test_marginals_of_unique_point():
    (point,) = enumerate_points(CRSystem((2, 1), (2, 1), (3,)))
    assert point.marginals() == ((2, 1), (2, 1), (3,))


def test_flatten_shapes_and_block_order():
    t = Tensor3.from_levels(
        [[[1, 2], [3, 4]], [[5, 6], [7, 8]], [[9, 10], [11, 12]]]
    )
    fc = t.flatten_col()
    assert len(fc) == 6 and len(fc[0]) == 2
    assert fc[0] == (9, 10)  # top block is the highest level
    assert fc[0] == t.level(3)[0] and fc[1] == t.level(3)[1]
    assert fc[-1] == t.level(1)[1]
    fr = t.flatten_row()
    assert len(fr) == 2 and len(fr[0]) == 6
    assert fr[0][:2] == t.level(3)[0]
    assert tuple(fr[i][0] for i in range(2)) == tuple(t.level(3)[i][0] for i in range(2))
    # flatten_row is the transpose of flatten_col of the index-swapped tensor
    swapped = Tensor3.from_levels(
        [[[t.entry(i, j, k) for i in range(1, 3)] for j in range(1, 3)] for k in range(1, 4)]
    )
    assert tuple(zip(*swapped.flatten_col())) == fr
    # single level flattens to the level itself
    one = Tensor3.from_levels([[[1, 2], [3, 4]]])
    assert one.flatten_col() == one.level(1)
    assert one.flatten_row() == one.level(1)


def test_vanishing_pattern_tables():
    # generic stack for (p, q, r) = (4, 11, 3): per level k the zero cells are i + j > 4k + 1
    system = CRSystem((11, 11, 8, 3), (3,) * 11, (14, 11, 8))
    vanished = system.vanishing
    assert (3, 11, 3) in vanished and (4, 10, 3) in vanished
    assert (3, 10, 3) not in vanished
    assert (1, 9, 2) in vanished and (1, 8, 2) not in vanished
    assert (4, 6, 2) in vanished and (4, 5, 2) not in vanished
    assert (1, 5, 1) in vanished and (1, 4, 1) not in vanished
    # concatenation layout for (p, q, r) = (3, 8, 3): zeros at i + j > 3k + 1
    system = CRSystem((9, 9, 6), (3,) * 8, (10, 8, 6))
    assert (3, 8, 3) in system.vanishing and (3, 7, 3) not in system.vanishing
    assert (1, 7, 2) in system.vanishing and (1, 6, 2) not in system.vanishing
    assert (3, 5, 2) in system.vanishing and (3, 4, 2) not in system.vanishing


def test_is_member_matches_main_lemma_on_flattenings():
    # dual route: the compiled system against the standalone inequality evaluator
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for tau in partitions_of(n):
                    system = CRSystem(lam, mu, tau)
                    for point in enumerate_points(CRSystem(lam, mu, tau, transport_only=True)):
                        expected = (
                            main_lemma_conditions(point.flatten_col())[0]
                            and main_lemma_conditions(point.flatten_row())[1]
                        )
                        assert is_member(point, system) == expected


def test_is_member_examples():
    lam = (3, 2)
    system = CRSystem(lam, lam, (5,))
    (point,) = enumerate_points(system)
    assert is_member(point, system)
    bad = Tensor3.from_levels([[[0, 2], [2, 1]]])
    assert not is_member(bad, system)  # first level not diagonal-constant
    assert not is_member(Tensor3.from_levels([[[4, 0], [0, 1]]]), system)  # marginals (4, 1)
    diagonal = Tensor3.from_levels([[[3, 0], [0, 2]]])
    assert is_member(diagonal, CRSystem(lam, lam, (5,), transport_only=True))
    assert not is_member(diagonal, system)  # a cone condition fails
    with pytest.raises(SizeMismatch):
        is_member(Tensor3.zeros(2, 2, 2), system)


def test_negative_tensor_is_outside_cone_and_polytope():
    # the margins of CR((3, 2), (3, 2); (5,)), but with two negative entries
    negative = Tensor3.from_levels([[[4, -1], [-1, 3]]])
    assert negative.marginals() == ((3, 2), (3, 2), (5,))
    assert not in_cone(negative)
    for transport_only in (False, True):
        assert not is_member(negative, CRSystem((3, 2), (3, 2), (5,), transport_only=transport_only))


def test_count_points_examples():
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            want = 1 if lam == mu else 0
            assert count_points(CRSystem(lam, mu, (4,))) == want
    assert count_points(CRSystem((2, 1), (2, 1), (2, 1))) == 2
    assert count_points(CRSystem((3,), (1, 1, 1), (2, 1))) == 0  # q > p*r


def test_enumerate_points_example():
    points = enumerate_points(CRSystem((1, 1), (1, 1), (1, 1)))
    assert len(points) == 1
    assert points[0].levels == (((1, 0), (0, 0)), ((0, 0), (0, 1)))
    assert enumerate_points(CRSystem((2,), (1, 1), (2,))) == ()


def test_enumerate_matches_count_and_is_sorted():
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            for tau in partitions_of(4):
                system = CRSystem(lam, mu, tau)
                points = enumerate_points(system)
                assert len(points) == count_points(system)
                flats = [
                    tuple(x for level in point.levels for row in level for x in row)
                    for point in points
                ]
                assert flats == sorted(flats)
                assert all(is_member(point, system) for point in points)


def _assert_count_is_enumeration(system):
    points = enumerate_points(system)
    assert count_points(system) == len(points), system
    flats = [tuple(x for level in point.levels for row in level for x in row) for point in points]
    assert all(a < b for a, b in zip(flats, flats[1:])), system


@pytest.mark.slow
def test_memoized_count_matches_enumeration_n5():
    # counting memoizes at level boundaries, enumeration visits every point
    # in order; a zero part puts an empty level beside a boundary.  Transport
    # systems with a zero part stop at n = 4: at n = 5 they take about 25 s.
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for tau in partitions_of(n):
                    zeros = [tau[:at] + (0,) + tau[at:] for at in range(len(tau) + 1)]
                    for levels in [tau] + zeros:
                        _assert_count_is_enumeration(CRSystem(lam, mu, levels))
                    for levels in [tau] + (zeros if n <= 4 else []):
                        _assert_count_is_enumeration(CRSystem(lam, mu, levels, transport_only=True))


def test_jt_term_counts_n18_pinned():
    lam, mu = (8, 6, 4), (9, 6, 3)
    expected = {
        (6, 6, 6): 15588,
        (6, 7, 5): 13905,
        (7, 5, 6): 13905,
        (7, 7, 4): 10776,
        (8, 5, 5): 11286,
        (8, 6, 4): 9805,
    }
    for tau, count in expected.items():
        assert count_points(CRSystem(lam, mu, tau)) == count, tau


def _transport_reference(lam, mu, tau):
    """|T(lam, mu, tau)| by a level-by-level contingency-table DP.  After
    each level the state is the row and column residuals; a level is filled
    one cell at a time, carrying what is left of its total."""
    p, q = len(lam), len(mu)
    states = Counter({(tuple(lam), tuple(mu)): 1})
    for total in tau:
        cells = Counter({(rows, cols, total): ways for (rows, cols), ways in states.items()})
        for i in range(p):
            for j in range(q):
                after = Counter()
                for (rows, cols, left), ways in cells.items():
                    for v in range(min(rows[i], cols[j], left) + 1):
                        row_rem = rows[:i] + (rows[i] - v,) + rows[i + 1 :]
                        col_rem = cols[:j] + (cols[j] - v,) + cols[j + 1 :]
                        after[row_rem, col_rem, left - v] += ways
                cells = after
        states = Counter({(rows, cols): ways for (rows, cols, left), ways in cells.items() if left == 0})
    return states[(0,) * p, (0,) * q]


def test_transport_counts_match_contingency_table_dp():
    # Transport plans have no bounds: the residual vector alone prunes them.
    pinned = {
        ((4, 3, 2, 1), (4, 3, 2, 1), (4, 3, 2, 1)): 874368,
        ((5, 4, 3), (6, 4, 2), (4, 4, 4)): 127722,
    }
    for (lam, mu, tau), count in pinned.items():
        assert _transport_reference(lam, mu, tau) == count
        assert count_points(CRSystem(lam, mu, tau, transport_only=True)) == count
    # n = 6 with at most five parts (six-part margins make the DP slow),
    # sorted triples and compositions with zero levels.
    parts = [part for part in partitions_of(6) if len(part) <= 5]
    zeros = [(0, 3, 0, 2, 1), (6, 0), (0, 0, 6)]
    for lam in parts:
        for mu in parts:
            for tau in [tau for tau in parts if lam >= mu >= tau] + (zeros if lam >= mu else []):
                system = CRSystem(lam, mu, tau, transport_only=True)
                assert count_points(system) == _transport_reference(lam, mu, tau), system


def test_enumerate_against_transport_filter():
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            for tau in partitions_of(4):
                system = CRSystem(lam, mu, tau)
                everything = enumerate_points(CRSystem(lam, mu, tau, transport_only=True))
                filtered = tuple(p for p in everything if is_member(p, system))
                assert filtered == enumerate_points(system)


def test_triple_equality_sampled_n6():
    from crkron.characters import lr_oracle
    from crkron.tableaux import count_lr_pairs

    parts = partitions_of(6)
    rng = random.Random("thm-5.4-n6-sample")
    triples = {
        (rng.choice(parts), rng.choice(parts), rng.choice(parts)) for _ in range(260)
    }
    assert len(triples) >= 200
    for lam, mu, tau in sorted(triples):
        a = count_points(CRSystem(lam, mu, tau))
        assert a == count_lr_pairs(lam, mu, tau) == lr_oracle(lam, mu, tau), (lam, mu, tau)


def test_zero_level_is_transparent():
    base = count_points(CRSystem((2, 1), (2, 1), (2, 1)))
    assert count_points(CRSystem((2, 1), (2, 1), (2, 0, 1))) == base
    assert count_points(CRSystem((2, 1), (2, 1), (2, 1, 0))) == base


def _search(system, face):
    return polytope._search(system.lam, system.mu, system.tau, system.transport_only, face)


def test_face_count_edge_cases(monkeypatch):
    system = CRSystem((2, 1), (2, 1), (2, 1))
    p, q, _ = system.dims
    full = count_points(system)
    assert count_points(system, FaceUnion(())) == 0
    # a form on forced cells only is 0 at every point; no face predicate
    # compiles to one, so a face is given that form for one search
    i, j, k = min(system.vanishing)
    polytope._form_plan.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(polytope, "_face_forms", lambda face, *shape: (((polytope._flat(i, j, k, p, q),), ()),))
        try:
            assert _search(system, DiagZero(1)) == full
        finally:
            polytope._form_plan.cache_clear()  # drop the stand-in plan
    with pytest.raises(ValueError):
        count_points(system, EntryZero(3))
    with pytest.raises(ValueError):
        count_points(system, ColTight(2, 1))  # C(p, t) needs p < q
    with pytest.raises(NotDiagConstant):
        count_points(CRSystem((1, 1, 1), (2, 1), (2, 1)), DiagZero(1))
    with pytest.raises(TypeError):
        count_points(system, (1, 1))


def test_face_memo_is_kept_apart_from_plain_memo():
    # a level-2 state reached both on the union (x(1,1,1) = 0) and off it
    # (x(1,1,1) = 1, x(2,2,2) still open): one shared memo would count 9
    system = CRSystem((2, 2), (2, 2), (2, 2), transport_only=True)
    p, q, r = system.dims
    union = FaceUnion((DiagZero(1), EntryZero(2)))  # the cells (1, 1, 1) and (2, 2, 2)
    assert polytope._face_forms(union, p, q, r) == tuple(((polytope._flat(i, i, i, p, q),), ()) for i in (1, 2))
    points = enumerate_points(system)
    assert len(points) == 12
    on_union = [point for point in points if point.entry(1, 1, 1) == 0 or point.entry(2, 2, 2) == 0]
    assert _search(system, union) == len(on_union) == 8


def test_nested_face_union_counts_as_flat_union():
    # A union's members may be unions; the outer union alone keys the search's
    # form plan, and its forms are those of the flattened union.
    system = CRSystem((3, 2, 1), (3, 2, 1), (3, 2, 1))
    nested = FaceUnion((FaceUnion((DiagZero(1),)), EntryZero(1), FaceUnion((ColTight(1, 1), RowTight(1, 2)))))
    flat = FaceUnion((DiagZero(1), EntryZero(1), ColTight(1, 1), RowTight(1, 2)))
    assert polytope._face_forms(nested, 3, 3, 3) == polytope._face_forms(flat, 3, 3, 3)
    on_union = [
        point
        for point in enumerate_points(system)
        if point.entry(1, 1, 1) == 0
        or point.entry(1, 1, 2) == 0
        or col_ineq_slack(point, 1, 1) == 0
        or row_ineq_slack(point, 1, 2) == 0
    ]
    assert count_points(system, nested) == count_points(system, flat) == len(on_union) == 21


def test_deep_counts_pinned():
    # (2^k)^3 has 58, 201, 484 and 955 free cells, one recursion frame each
    expected = {4: 20, 6: 612, 8: 27680, 10: 1488392}
    for k, count in expected.items():
        twos = (2,) * k
        assert count_points(CRSystem(twos, twos, twos)) == count, k


# (class, field values in order, pinned repr) for every immutable record
_RECORDS = [
    (Tensor3, ((((1, 2),),),), "Tensor3(levels=(((1, 2),),))"),
    (DiagZero, (1,), "DiagZero(index=1)"),
    (EntryZero, (1,), "EntryZero(index=1)"),
    (ColTight, (2, 1), "ColTight(j=2, t=1)"),
    (RowTight, (1, 2), "RowTight(i=1, s=2)"),
    (FaceUnion, ((EntryZero(1),),), "FaceUnion(faces=(EntryZero(index=1),))"),
    (JTTerm, (1, (2, 1)), "JTTerm(sign=1, gamma=(2, 1))"),
    (JTPairTerm, (-1, 2, 1, (1,)), "JTPairTerm(sign=-1, a=2, b=1, rho=(1,))"),
    (SkewTableau, ((2, 1), (1,), ((2,), (1,))), "SkewTableau(outer=(2, 1), inner=(1,), rows=((2,), (1,)))"),
    (
        LRMultitableau,
        ((SkewTableau((1,), (), ((1,),)),),),
        "LRMultitableau(components=(SkewTableau(outer=(1,), inner=(), rows=((1,),)),))",
    ),
]


@pytest.mark.parametrize("cls, values, text", _RECORDS, ids=[cls.__name__ for cls, _, _ in _RECORDS])
def test_records_behave_as_frozen_values(cls, values, text):
    record = cls(*values)
    assert repr(record) == text
    assert record == cls(*values) and hash(record) == hash(cls(*values))
    assert record != values and record != object()
    names = cls.__annotations__
    assert cls(**dict(zip(names, values))) == record
    assert tuple(getattr(record, name) for name in names) == values
    name = next(iter(names))
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)


def test_records_of_different_classes_differ():
    # DiagZero(1) and EntryZero(1) hash alike, so a cache keyed on faces
    # tells them apart only by equality that checks the class.
    assert DiagZero(1) != EntryZero(1) and hash(DiagZero(1)) == hash(EntryZero(1))
    assert ColTight(1, 2) != RowTight(1, 2)
    assert FaceUnion((DiagZero(1),)) != FaceUnion((EntryZero(1),))
    system = CRSystem((3, 2, 1), (3, 2, 1), (3, 2, 1))
    points = enumerate_points(system)
    diag = sum(point.entry(1, 1, 1) == 0 for point in points)
    entry = sum(point.entry(1, 1, 2) == 0 for point in points)
    assert (diag, entry) == (2, 17)
    assert count_points(system, DiagZero(1)) == diag
    assert count_points(system, EntryZero(1)) == entry
    assert count_points(system, FaceUnion((DiagZero(1),))) == diag
    assert count_points(system, FaceUnion((EntryZero(1),))) == entry


def test_face_counts_need_column_row_system():
    transport = CRSystem((2, 1), (2, 1), (2, 1), transport_only=True)
    for face in (DiagZero(1), EntryZero(1), FaceUnion((DiagZero(1), EntryZero(1)))):
        with pytest.raises(ValueError):
            count_points(transport, face)


def test_diag_values():
    point = Tensor3.from_levels([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    assert diag_values(point) == (1, 0)
    skewed = Tensor3.from_levels([[[1, 1], [0, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(NotDiagConstant):
        diag_values(skewed)
    sample = hypercube_sample(3, 6, 2, seed=0)
    values = diag_values(sample)
    assert all(6 < v < 7 for v in values)  # q(r-1) plus a unit-interval epsilon


def _random_cr_shaped_tensor(p, q, r, seed):
    rng = random.Random(seed)
    xs = [rng.randrange(4, 9) for _ in range(p)]
    level1 = [[xs[i + j - 2] if i + j <= p + 1 else 0 for j in range(1, q + 1)] for i in range(1, p + 1)]
    higher = [
        [[rng.randrange(0, 5) for _ in range(q)] for _ in range(p)] for _ in range(r - 1)
    ]
    return Tensor3.from_levels([level1] + higher), xs


def _break_level_1(tensor):
    """The tensor with 1 added to level 1's cell (2, 1), off its diagonal form."""
    levels = [[list(row) for row in level] for level in tensor.levels]
    levels[0][1][0] += 1
    return Tensor3.from_levels(levels)


def test_col_ineq_slack_examples():
    tensor, xs = _random_cr_shaped_tensor(4, 11, 3, seed=5)
    gamma = lambda j, k: sum(tensor.entry(i, j, k) for i in range(1, 5))
    assert col_ineq_slack(tensor, 2, 1) == xs[1] - tensor.entry(4, 3, 2)
    assert col_ineq_slack(tensor, 4, 6) == xs[3] + gamma(4, 2) + tensor.entry(4, 4, 3) - (
        gamma(5, 2) + tensor.entry(4, 5, 3) + tensor.entry(3, 5, 3)
    )
    zero = Tensor3.zeros(4, 11, 3)
    for j in range(1, 5):
        for t in range(1, 9):
            assert col_ineq_slack(zero, j, t) == 0
    with pytest.raises(ValueError, match=re.escape("j = 5 out of range [1, 4]")):
        col_ineq_slack(tensor, 5, 1)
    with pytest.raises(ValueError, match=re.escape("t = 9 out of range [1, 8]")):
        col_ineq_slack(tensor, 1, 9)
    square = Tensor3.zeros(2, 2, 2)
    with pytest.raises(ValueError, match=re.escape("C(p, t) is only defined when p < q")):
        col_ineq_slack(square, 2, 1)
    with pytest.raises(NotDiagConstant):
        col_ineq_slack(_break_level_1(tensor), 2, 1)
    with pytest.raises(NotDiagConstant):  # p > q is refused before the index range is read
        col_ineq_slack(Tensor3.zeros(3, 2, 2), 5, 1)


def test_row_ineq_slack_examples():
    tensor, xs = _random_cr_shaped_tensor(3, 8, 3, seed=11)
    rho = lambda i, k: sum(tensor.entry(i, j, k) for j in range(1, 9))
    assert row_ineq_slack(tensor, 2, 1) == xs[1] - tensor.entry(3, 8, 2)
    assert row_ineq_slack(tensor, 1, 8) == xs[0] + sum(
        tensor.entry(1, j, 2) for j in range(2, 9)
    ) - rho(2, 2)
    assert row_ineq_slack(tensor, 2, 11) == xs[1] + rho(2, 2) + tensor.entry(2, 8, 3) + tensor.entry(
        2, 7, 3
    ) - (rho(3, 2) + sum(tensor.entry(3, j, 3) for j in range(6, 9)))
    zero = Tensor3.zeros(3, 8, 3)
    for i in range(1, 3):
        for s in range(1, 17):
            assert row_ineq_slack(zero, i, s) == 0
    with pytest.raises(ValueError, match=re.escape("i = 3 out of range [1, 2]")):
        row_ineq_slack(tensor, 3, 1)
    with pytest.raises(ValueError, match=re.escape("s = 17 out of range [1, 16]")):
        row_ineq_slack(tensor, 1, 17)
    with pytest.raises(NotDiagConstant):
        row_ineq_slack(_break_level_1(tensor), 2, 1)
    with pytest.raises(NotDiagConstant):  # p > q is refused before the index range is read
        row_ineq_slack(Tensor3.zeros(3, 2, 2), 3, 1)


def test_slacks_match_prefix_sum_definition():
    # S^c_{j,t}: the first t entries of column j of the stack of levels
    # 2..r, read bottom up; S^r_{i,s}: the first s entries of row i of their
    # concatenation, read right to left.  The slacks read compiled checks.
    for p in range(1, 5):
        for q in range(p, 7):
            for r in range(2, 5):
                tensor, xs = _random_cr_shaped_tensor(p, q, r, seed=100 * p + 10 * q + r)
                col = lambda j, t: sum(
                    [tensor.entry(i, j, k) for k in range(2, r + 1) for i in range(p, 0, -1)][:t]
                )
                row = lambda i, s: sum(
                    [tensor.entry(i, j, k) for k in range(2, r + 1) for j in range(q, 0, -1)][:s]
                )
                for j in range(1, p + (p < q)):
                    for t in range(1, p * (r - 1) + 1):
                        want = xs[j - 1] + col(j, t - 1) - col(j + 1, t)
                        assert col_ineq_slack(tensor, j, t) == want, (p, q, r, j, t)
                for i in range(1, p):
                    for s in range(1, q * (r - 1) + 1):
                        want = xs[i - 1] + row(i, s - 1) - row(i + 1, s)
                        assert row_ineq_slack(tensor, i, s) == want, (p, q, r, i, s)


def test_slacks_nonnegative_on_members():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if len(lam) > len(mu):
                    continue
                for tau in partitions_of(n):
                    p, q, r = len(lam), len(mu), len(tau)
                    for point in enumerate_points(CRSystem(lam, mu, tau)):
                        for j in range(1, p + 1):
                            if j == p and p >= q:
                                continue
                            for t in range(1, p * (r - 1) + 1):
                                assert col_ineq_slack(point, j, t) >= 0
                        for i in range(1, p):
                            for s in range(1, q * (r - 1) + 1):
                                assert row_ineq_slack(point, i, s) >= 0


def test_slacks_nonnegative_on_cone_samples():
    for p, q, r in ((3, 6, 2), (2, 3, 2), (3, 4, 2)):
        for seed in range(3):
            sample = hypercube_sample(p, q, r, seed)
            for j in range(1, p + 1):
                if j == p and p >= q:
                    continue
                for t in range(1, p * (r - 1) + 1):
                    assert col_ineq_slack(sample, j, t) >= 0
            for i in range(1, p):
                for s in range(1, q * (r - 1) + 1):
                    assert row_ineq_slack(sample, i, s) >= 0


def test_first_level_structure_of_members():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if len(lam) > len(mu):
                    continue
                for tau in partitions_of(n):
                    for point in enumerate_points(CRSystem(lam, mu, tau)):
                        diag_values(point)  # raises unless triangular diagonal-constant


def test_cone_dim():
    assert cone_dim(3, 6, 2) == 18
    assert cone_dim(1, 1, 1) == 1
    assert cone_dim(2, 2, 2) == 6
    with pytest.raises(ValueError):
        cone_dim(3, 7, 2)  # q > p*r
    with pytest.raises(ValueError):
        cone_dim(3, 2, 2)  # p > q


def test_polytope_dim_bound():
    assert polytope_dim_bound(3, 6, 3) == 26
    assert polytope_dim_bound(2, 2, 2) == 2
    assert polytope_dim_bound(4, 11, 3) == 55
    with pytest.raises(ValueError):
        polytope_dim_bound(2, 2, 1)


def test_hypercube_sample_structure():
    # zero pattern of the (3, 6, 2) sample: level k vanishes where i + j - 1 > 3k
    sample = hypercube_sample(3, 6, 2, seed=1)
    assert in_cone(sample)
    for i in range(1, 4):
        for j in range(1, 7):
            assert (sample.entry(i, j, 1) == 0) == (i + j - 1 > 3)
            assert (sample.entry(i, j, 2) == 0) == (i + j - 1 > 6)
    other = hypercube_sample(3, 6, 2, seed=2)
    assert other.levels != sample.levels


def test_hypercube_samples_lie_in_cone():
    for p, q, r in ((1, 1, 1), (2, 2, 2), (2, 4, 2), (3, 6, 2), (3, 5, 3)):
        for seed in range(4):
            assert in_cone(hypercube_sample(p, q, r, seed))


def test_free_coordinates_count_matches_cone_dim():
    for p, q, r in ((1, 1, 1), (2, 2, 2), (2, 4, 2), (3, 6, 2), (3, 5, 3), (2, 3, 4)):
        assert len(free_cone_coordinates(p, q, r)) == cone_dim(p, q, r)


def test_affine_rank():
    a = Tensor3.zeros(2, 2, 1)
    b = Tensor3.from_levels([[[1, 0], [0, 0]]])
    c = Tensor3.from_levels([[[0, 1], [0, 0]]])
    d = Tensor3.from_levels([[[1, 1], [0, 0]]])
    assert affine_rank([a]) == 0
    assert affine_rank([a, b]) == 1
    assert affine_rank([a, b, c]) == 2
    assert affine_rank([a, b, c, d]) == 2  # d - a is dependent on the others
    with pytest.raises(ValueError):
        affine_rank([])


def test_validation_messages_pinned():
    with pytest.raises(ValueError, match="^tensor needs at least one level$"):
        Tensor3(())
    with pytest.raises(ValueError, match="^tensor needs at least one row$"):
        Tensor3(((),))
    with pytest.raises(ValueError, match="^tensor needs at least one column$"):
        Tensor3((((),),))
    with pytest.raises(SizeMismatch, match=re.escape("dims (2, 2, 2) != (2, 3, 2)")):
        Tensor3.zeros(2, 2, 2) + Tensor3.zeros(2, 3, 2)
    with pytest.raises(ValueError, match=re.escape("DiagZero(index=3) out of range [1, 2]")):
        count_points(CRSystem((2, 1), (2, 1), (2, 1)), DiagZero(3))
    with pytest.raises(NotDiagConstant, match=re.escape("requires p <= q, got dims (3, 2, 1)")):
        diag_values(Tensor3.zeros(3, 2, 1))
    with pytest.raises(ValueError, match=re.escape("j = 0 out of range [1, 3]")):
        hypercube_interval(0, 3)
    with pytest.raises(ValueError, match=re.escape("pick for ('diag', 1) outside 1/4..1/2")):
        build_hypercube_point(1, 1, 1, {("diag", 1): 0})
    with pytest.raises(SizeMismatch, match="^points must share dimensions$"):
        affine_rank([Tensor3.zeros(1, 1, 1), Tensor3.zeros(1, 2, 1)])


def test_hypercube_corners_have_full_rank():
    p, q, r = 3, 6, 2
    coords = free_cone_coordinates(p, q, r)
    mid = {c: sum(hypercube_interval(c[1], q)) / 2 for c in coords}
    points = [build_hypercube_point(p, q, r, mid)]
    for coord in coords:
        picks = dict(mid)
        lo, hi = hypercube_interval(coord[1], q)
        picks[coord] = lo + (hi - lo) * Fraction(1, 4)
        points.append(build_hypercube_point(p, q, r, picks))
    assert all(in_cone(point) for point in points)
    assert affine_rank(points) == cone_dim(p, q, r)


def test_reorder_and_transpose_invariance():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for tau in partitions_of(n):
                    base = count_points(CRSystem(lam, mu, tau))
                    for sigma in set(permutations(tau)):
                        assert count_points(CRSystem(lam, mu, sigma)) == base
                    assert count_points(CRSystem(mu, lam, tau)) == base


def test_dilation_rank_bound():
    for t in range(1, 5):
        scaled = (2 * t, t)
        points = enumerate_points(CRSystem(scaled, scaled, scaled))
        assert points
        assert affine_rank(points) <= polytope_dim_bound(2, 2, 2)


def test_crsystem_validation_and_json():
    with pytest.raises(SizeMismatch):
        CRSystem((2, 1), (2, 1), (2,))
    # An empty tau with a nonempty lam fails the size check; an empty lam
    # (with an empty or all-zero tau) fails the emptiness check.
    with pytest.raises(SizeMismatch, match=re.escape("sizes of (1,), (1,), () differ")):
        CRSystem((1,), (1,), ())
    for tau in ((), (0, 0)):
        with pytest.raises(ValueError, match="^lam, mu, tau must all be nonempty$"):
            CRSystem((), (), tau)
    system = CRSystem((2, 1), (2, 1), (2, 1))
    # The system holds its targets alone; its shape is read off them.
    assert vars(system) == {"lam": (2, 1), "mu": (2, 1), "tau": (2, 1), "transport_only": False}
    assert system.dims == (2, 2, 2)
    payload = system.to_json_dict()
    assert payload["dims"] == [2, 2, 2]
    assert payload["transportOnly"] is False
    assert [2, 2, 1] in payload["vanishing"]
    assert payload["columnInequalities"] and payload["rowInequalities"]
    transport = CRSystem((2, 1), (2, 1), (2, 1), transport_only=True).to_json_dict()
    assert transport["transportOnly"] is True
    assert transport["vanishing"] == []
    assert transport["columnInequalities"] == [] and transport["rowInequalities"] == []


def _reference_constraints(p, q, r):
    """The column and row families built cell by cell, as a check on the
    column-run compiler: each check side is listed row by row."""

    def canonicity(a, b):
        staircase = tuple((i, j) for i in range(1, a + 1) for j in range(1, b + 1) if i + j > a + 1)
        checks = tuple(
            (
                (j, i),
                tuple((row, j) for row in range(i, a + 2 - j)),
                tuple((row, j + 1) for row in range(i - 1, a + 1 - j)),
            )
            for j in range(1, min(a, b))
            for i in range(2, a + 2 - j)
        )
        return staircase, checks

    def family(a, b, flat):
        staircase, checks = canonicity(a, b)
        return (
            tuple(flat(*cell) for cell in staircase),
            tuple(label for label, _, _ in checks),
            tuple(
                (tuple(flat(*cell) for cell in lhs), tuple(flat(*cell) for cell in rhs))
                for _, lhs, rhs in checks
            ),
        )

    def flat(i, j, k):
        return ((k - 1) * p + (i - 1)) * q + (j - 1)

    # Stack row s is row (s-1) % p + 1 of level r - (s-1) // p; concatenation
    # column c is column (c-1) % q + 1 of level r - (c-1) // q.
    return (
        family(p * r, q, lambda s, j: flat((s - 1) % p + 1, j, r - (s - 1) // p)),
        family(q * r, p, lambda c, i: flat(i, (c - 1) % q + 1, r - (c - 1) // q)),
    )


def test_compiled_constraints_match_cell_by_cell_reference():
    for p in range(1, 7):
        for q in range(1, 8):
            for r in range(1, 7):
                families = polytope._compile_constraints(p, q, r)
                assert families == _reference_constraints(p, q, r), (p, q, r)
                # The tensor whose entries are their own flat indices lays out
                # the two flattenings the families are read off.
                own = Tensor3.from_levels(
                    [[[(k * p + i) * q + j for j in range(q)] for i in range(p)] for k in range(r)]
                )
                stack, concat = polytope._flattenings(p, q, r)
                assert stack == own.flatten_col(), (p, q, r)
                assert concat == tuple(zip(*own.flatten_row())), (p, q, r)
                # the depth guard's forced cells are the compiled vanishing cells
                assert polytope._forced(p, q, r) == {t for family in families for t in family.vanishing}


def _frames_in_use():
    """Frames on the caller's stack, the caller's own included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_depth_guard_counts_the_frames_in_use(monkeypatch):
    # rec stacks one frame per free cell and the leaf's on the frames in use
    # (on_solution's too when enumerating): the search is refused exactly
    # when they reach the limit, before any rec call, and nothing is cached.
    # The guard reads a stand-in limit, so a search it lets through runs
    # under the interpreter's own.
    system = CRSystem((2, 2, 1), (2, 2, 1), (2, 2, 1))
    n_free = len(polytope._plan(3, 3, 3, False).free)
    want = count_points(system)
    depth = _frames_in_use()
    # lambda -> count_points -> _search (through _count's cache, no frame), or
    # lambda -> enumerate_points -> _search, sit above this frame
    for reach, call in (
        (depth + 3 + n_free + 1, lambda: count_points(system)),
        (depth + 3 + n_free + 2, lambda: len(enumerate_points(system))),
    ):
        _clear_count_caches()
        polytope._pair_memo.cache_clear()
        monkeypatch.setattr(sys, "getrecursionlimit", lambda: reach)
        refused = f"^{n_free} free cells above the frames in use, recursion limit {reach}$"
        with pytest.raises(RecursionError, match=refused):
            call()
        assert polytope._count.cache_info().currsize == polytope._pair_memo.cache_info().currsize == 0
        monkeypatch.setattr(sys, "getrecursionlimit", lambda: reach + 1)
        assert call() == want


def test_failed_face_count_is_never_cached():
    system = CRSystem((2, 1), (2, 1), (2, 1))
    transport = CRSystem((2, 1), (2, 1), (2, 1), transport_only=True)
    _clear_count_caches()
    for _ in range(2):
        with pytest.raises(ValueError):
            count_points(system, EntryZero(3))
        with pytest.raises(ValueError, match="column-row system"):
            count_points(transport, DiagZero(1))
        assert polytope._count.cache_info().currsize == 0


def _named_faces(p, q, r):
    """Every single face predicate in range for the (p, q, r) cone."""
    if p > q:
        return []
    faces = [DiagZero(d) for d in range(1, p + 1)]
    if r >= 2:
        faces += [EntryZero(index) for index in range(1, p + 1)]
        faces += [ColTight(j, t) for j in range(1, p + (p < q)) for t in range(1, p * (r - 1) + 1)]
        faces += [RowTight(i, s) for i in range(1, p) for s in range(1, q * (r - 1) + 1)]
    return faces


def _level_starts(free, p, q):
    """The positions of the first free cell of every level after the first."""
    return {pos for pos in range(1, len(free)) if free[pos] // (p * q) != free[pos - 1] // (p * q)}


def test_level_cuts_split_checks_and_forms_at_whole_lines():
    # For every check or face form still open at a level cut, each side's
    # part assigned before the cut is empty or all the assigned free cells
    # of one row or column, whose sum the residuals fix.  The memo does not
    # rest on this: it looks up every position, which is exact because no
    # bound reads a cell (see
    # test_checks_and_forms_reduce_to_bounds_on_the_closing_cell).  This
    # checks the whole-line split at level cuts as a property of the plan.
    for p in range(1, 6):
        for q in range(1, 7):
            for r in range(1, 5):
                plan = polytope._plan(p, q, r, False)
                pairs = [check for family in polytope._compile_constraints(p, q, r) for check in family.checks]
                pairs += [form for face in _named_faces(p, q, r) for form in polytope._face_forms(face, p, q, r)]
                for cut in _level_starts(plan.free, p, q):
                    assigned = set(plan.free[:cut])
                    lines = {}
                    for idx, (row, col, _) in zip(plan.free, plan.units[:cut]):
                        lines.setdefault(row, set()).add(idx)
                        lines.setdefault(col, set()).add(idx)
                    whole = {frozenset(line) for line in lines.values()}
                    for lhs, rhs in pairs:
                        if all(plan.pos_of.get(t, -1) < cut for t in lhs + rhs):
                            continue  # closed before the cut
                        for side in (lhs, rhs):
                            part = frozenset(t for t in side if t in assigned)
                            assert not part or part in whole, ((p, q, r), cut, lhs, rhs)


def test_count_leaves_no_cyclic_garbage():
    # A search frees its memos and closures by reference counting alone, so
    # a paused collector finds nothing to collect after a count.
    system = CRSystem((4, 3, 2, 1), (4, 3, 2, 1), (4, 3, 2, 1))

    def counts():
        return count_points(system), count_points(system, EntryZero(1))

    warm = counts()
    gc.collect()
    gc.disable()
    try:
        assert _cold(counts) == warm
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_refused_shape_compiles_no_check():
    # The one depth guard runs in _search before anything is planned: a
    # refused shape builds no plan, compiles no check and reads no face.
    twenties = (2,) * 20
    caches = (polytope._plan, polytope._steps, polytope._compile_constraints, polytope._form_plan)
    before = [cache.cache_info() for cache in caches]
    refused = f"^7810 free cells above the frames in use, recursion limit {sys.getrecursionlimit()}$"
    for face in (None, DiagZero(1)):
        with pytest.raises(RecursionError, match=refused):
            count_points(CRSystem(twenties, twenties, twenties), face)
    assert [cache.cache_info() for cache in caches] == before


def _points_of_shape(p, q, r, limit=8):
    """Up to ``limit`` points of the first CR system with n <= 8 and dims
    (p, q, r) that has any, spread over its sorted point list."""
    for n in range(max(p, q, r), 9):
        parts = partitions_of(n)
        for lam in (x for x in parts if len(x) == p):
            for mu in (x for x in parts if len(x) == q):
                for tau in (x for x in parts if len(x) == r):
                    system = CRSystem(lam, mu, tau)
                    if count_points(system):
                        points = enumerate_points(system)
                        return points[:: max(1, len(points) // limit)]
    return ()


def test_checks_and_forms_reduce_to_bounds_on_the_closing_cell():
    # Each level is searched by antidiagonals, i + j from the last, and every
    # row and column meets each antidiagonal once.  So each check becomes, at
    # the cell where it closes, a bound on that cell's value v: each side's
    # sum is the assigned part of its line (a tensor column for the column
    # family, a tensor row for the row family), and the closing cell lies in
    # exactly one side.  Every face form is a bound, 0 where it is tight: a
    # compiled check's form is that check's bound, and a single cell's form
    # is v >= 0 with one unit on both sides, so d = 0.  No bound reads a
    # cell, so the position and the residuals fix the rest of the search,
    # and the memo looks up every position.  Lines are units: row i, column
    # p + j, level p + q + k.
    for p in range(1, 6):
        for q in range(1, 7):
            for r in range(1, 5):
                transport = polytope._plan(p, q, r, True)
                assert not any(transport.bounds_at) and not transport.reductions
                plan = polytope._plan(p, q, r, False)
                for each in (transport, plan):
                    # units are (i, p + j, p + q + k): levels in turn, i + j non-increasing
                    keys = [(k, -i - j) for i, j, k in each.units]
                    assert keys == sorted(keys), (p, q, r)
                    # Completion is a lower bound on one unit: level k ends at
                    # (1, 1, k), row i >= 2 at (i, 1, r), column j >= 2 at
                    # (1, j, r), and (1, 1, r) ends row 1, column 1 and level r,
                    # at the last free position, where their residuals are equal.
                    end_cell = {p + q + k - 1: (1, 1, k) for k in range(1, r + 1)}
                    end_cell.update({i - 1: (i, 1, r) for i in range(1, p + 1)})
                    end_cell.update({p + j - 1: (1, j, r) for j in range(1, q + 1)})
                    ends = {unit: pos for pos, cell in enumerate(each.units) for unit in cell}
                    for unit, pos in ends.items():
                        idx = each.free[pos]
                        assert (idx // q % p + 1, idx % q + 1, idx // (p * q) + 1) == end_cell[unit], (p, q, r, unit)
                    ending = [[unit for unit, pos in ends.items() if pos == at] for at in range(len(each.free))]
                    assert all(len(done) <= 1 for done in ending[:-1]), (p, q, r)
                    assert [done[0] if done else -1 for done in ending[:-1]] == list(each.completes[:-1]), (p, q, r)
                    assert each.completes[-1] in ending[-1], (p, q, r)
                    assert set(each.idle) == set(range(p + q + r)) - set(ends)
                free, units, pos_of = plan.free, plan.units, plan.pos_of

                def line_cells(unit, upto):
                    return {free[pos] for pos in range(upto + 1) if unit in units[pos]}

                families = polytope._compile_constraints(p, q, r)
                checks = [pair for family in families for pair in family.checks]
                # the axis of each check's lines: columns (1) or rows (0)
                axis_of = {pair: axis for axis, family in zip((1, 0), families) for pair in family.checks}
                unit_ranges = (range(p), range(p, p + q))
                all_bounds = sorted((pos, bound) for pos, bounds in enumerate(plan.bounds_at) for bound in bounds)
                assert all_bounds == sorted(
                    plan.reductions[pair] for pair in checks if plan.reductions[pair][0] >= 0
                ), (p, q, r)
                for pair in checks:
                    lhs, rhs = pair
                    close_pos, bound = plan.reductions[pair]
                    assert close_pos == max(pos_of.get(t, -1) for t in lhs + rhs), ((p, q, r), pair)
                    if close_pos < 0:
                        assert bound is None
                        continue
                    close, other, lower = bound
                    closing = free[close_pos]
                    assert (closing in lhs) != (closing in rhs)
                    assert lower == (closing in lhs)
                    axis = axis_of[pair]
                    assert units[close_pos][axis] == close
                    assert other in unit_ranges[axis] and abs(other - close) == 1
                    close_side, other_side = (lhs, rhs) if lower else (rhs, lhs)
                    assert {t for t in close_side if t in pos_of} == line_cells(close, close_pos)
                    # every free cell of the other line met so far, so no cell is listed
                    assert {t for t in other_side if t in pos_of} == line_cells(other, close_pos), ((p, q, r), pair)
                bound_of = dict(plan.reductions)  # (closing position, bound) of each check and cell form
                for face in _named_faces(p, q, r):
                    (form,) = polytope._face_forms(face, p, q, r)
                    form_plan = polytope._form_plan(face, p, q, r, False)
                    if form_plan is None:
                        assert all(t not in pos_of for t in form[0] + form[1])
                        continue
                    forms_at, last = form_plan
                    assert [entry for entry in forms_at if entry] == [forms_at[last]]
                    (entry,) = forms_at[last]
                    if form[1]:
                        assert plan.reductions[form] == (last, entry)
                    else:  # a single cell: the bound v >= 0, one unit on both sides
                        close, other, lower = entry
                        assert form[0] == (free[last],) and close == other and lower
                        bound_of[form] = (last, entry)

                points = _points_of_shape(p, q, r)
                forms = {form for face in _named_faces(p, q, r) for form in polytope._face_forms(face, p, q, r)}
                for point in points:
                    entries = [x for level in point.levels for row in level for x in row]
                    for pair in checks + sorted(forms):
                        lhs, rhs = pair
                        close_pos, bound = bound_of.get(pair, (-1, None))
                        if close_pos < 0:
                            continue
                        v = entries[free[close_pos]]
                        lhs_sum = sum(entries[t] for t in lhs)
                        rhs_sum = sum(entries[t] for t in rhs)
                        close, other, lower = bound

                        def assigned(unit):
                            return sum(entries[free[pos]] for pos in range(close_pos) if unit in units[pos])

                        d = assigned(other) - assigned(close)
                        other_sum, close_sum = (rhs_sum, lhs_sum) if lower else (lhs_sum, rhs_sum)
                        assert d == other_sum - (close_sum - v), ((p, q, r), pair, point)
                        assert v >= d if lower else v <= d
                        assert (lhs_sum == rhs_sum) == (v == d)


def _clear_count_caches():
    """Empty the count caches above the search, so that every count searches."""
    from crkron import kronecker

    kronecker._cr_count_cached.cache_clear()
    polytope._count.cache_clear()


def _cold(count):
    """``count()`` with every count cache and the pair's on-union memo empty."""
    _clear_count_caches()
    polytope._pair_memo.cache_clear()
    return count()


def test_warm_memo_slot_matches_cold_counts_n6():
    # Both routes count polytopes of the normalized (lam, mu), so each finds
    # the slot filled by the other; every value must equal its cold value.
    from crkron.kronecker import kron_via_cr, kron_via_faces

    routes = (kron_via_cr, kron_via_faces)
    for n in range(1, 7):
        triples = list(product(partitions_of(n), repeat=3))
        cold = {(route, t): _cold(lambda: route(*t)) for route in routes for t in triples}
        for order in (routes, routes[::-1]):
            for t in triples:
                _clear_count_caches()
                for route in order:
                    assert route(*t) == cold[route, t], (route.__name__, t)


def test_memo_slot_is_exact_across_tau():
    # One (lam, mu) shares its slot across every tau and face union.  The
    # level residuals in the key tell apart taus whose zero parts sit in
    # different places and the key's length tells apart r.
    from crkron.kronecker import face_unions

    lam, mu = (3, 2), (2, 2, 1)
    taus = [tau for r in range(1, 6) for tau in product(range(6), repeat=r) if sum(tau) == 5]
    counts = []
    for tau in taus:
        counts.append((CRSystem(lam, mu, tau), None))
        counts.append((CRSystem(lam, mu, tau, transport_only=True), None))
        if len(tau) >= 2:
            counts.append((CRSystem(lam, mu, tau), face_unions(len(lam), len(mu), 1)[0]))
            counts.append((CRSystem(lam, mu, tau), face_unions(len(lam), len(mu), 1)[1]))
    cold = [_cold(lambda: count_points(system, face)) for system, face in counts]
    rng = random.Random("memo-slot-across-tau")
    order = list(range(len(counts)))
    column_row = [at for at in order if not counts[at][0].transport_only]
    polytope._pair_memo.cache_clear()
    # column-row counts alone share one slot; mixed with transport counts
    # the slot changes hands between the two kinds
    for pass_order in (column_row, order):
        rng.shuffle(pass_order)
        _clear_count_caches()
        for at in pass_order:
            system, face = counts[at]
            assert count_points(system, face) == cold[at], (system, face)


def test_memo_slot_holds_one_pair():
    first = CRSystem((3, 2, 1), (3, 2, 1), (2, 2, 2))
    second = CRSystem((4, 1, 1), (2, 2, 2), (3, 2, 1))

    def held(system):
        """The pair memo's entries, which must be ``system``'s (a cache hit)."""
        hits = polytope._pair_memo.cache_info().hits
        memo = dict(polytope._pair_memo(system.lam, system.mu, False))
        assert polytope._pair_memo.cache_info().hits == hits + 1, system
        return memo

    _cold(lambda: count_points(second))
    alone = held(second)
    _clear_count_caches()
    count_points(first)
    assert set(held(first)) - set(alone)
    _clear_count_caches()
    count_points(second)
    assert polytope._pair_memo.cache_info().currsize == 1
    assert held(second) == alone


N18 = ((8, 6, 4), (6, 6, 6), (9, 6, 3))


def test_pair_memo_holds_completed_subtrees_only():
    # A node stores its total once its subtree is complete; a dead node
    # (lb > ub) and a leaf store nothing, wherever the memo is looked up.
    # So the pair memo after a cold route holds exactly these entries, this
    # many of them 0: storing dead states or leaves would grow it.
    from crkron.kronecker import kron_via_cr, kron_via_faces, normalize_triple

    lam, mu, _, _ = normalize_triple(*N18)
    for route, pinned in ((kron_via_cr, (9255, 1014)), (kron_via_faces, (4503, 501))):
        assert _cold(lambda: route(*N18)) == 35
        memo = polytope._pair_memo(lam, mu, False)
        assert (len(memo), sum(1 for count in memo.values() if count == 0)) == pinned, route.__name__


def _rec_calls(count):
    """``count()`` cold, and the number of search nodes (``rec`` calls) it made."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "rec" and frame.f_code.co_filename == polytope.__file__:
            calls += 1

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        value = _cold(count)
    finally:
        sys.setprofile(before)
    return value, calls


def test_search_nodes_pinned_n18():
    # A parent looks each child's key up in the child's memo (on or off the
    # union) before descending, so rec calls are memo misses, dead nodes and
    # leaves.  Looking a child up in the parent's memo gives the same values
    # but other node counts.
    from crkron.kronecker import kron_via_cr, kron_via_faces

    assert _rec_calls(lambda: kron_via_cr(*N18)) == (35, 11977)
    assert _rec_calls(lambda: kron_via_faces(*N18, 1)) == (35, 17479)
    assert _rec_calls(lambda: kron_via_faces(*N18, 2)) == (35, 10585)
