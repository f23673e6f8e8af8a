import random
from fractions import Fraction
from itertools import permutations

import pytest

from crkron import polytope
from crkron.partitions import SizeMismatch, partitions_of
from crkron.polytope import (
    ColTight,
    CRSystem,
    DiagZero,
    EntryZero,
    FaceUnion,
    NotDiagConstant,
    Tensor3,
    affine_rank,
    build_hypercube_point,
    col_ineq_slack,
    cone_dim,
    count_points,
    diag_values,
    enumerate_points,
    face_hit_counts,
    free_cone_coordinates,
    hypercube_interval,
    hypercube_sample,
    in_cone,
    is_member,
    polytope_dim_bound,
    row_ineq_slack,
)
from crkron.tableaux import main_lemma_conditions


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
    with pytest.raises(SizeMismatch):
        is_member(Tensor3.zeros(2, 2, 2), system)


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


def test_face_count_edge_cases():
    system = CRSystem((2, 1), (2, 1), (2, 1))
    p, q, _ = system.dims
    full = count_points(system)
    assert count_points(system, FaceUnion(())) == 0
    # a form on forced cells only is 0 at every point
    i, j, k = min(system.vanishing)
    assert polytope._search(system, forms=(((polytope._flat(i, j, k, p, q),), ()),)) == full
    with pytest.raises(ValueError):
        count_points(system, EntryZero(3))
    with pytest.raises(ValueError):
        count_points(system, ColTight(2, 1))  # C(p, t) needs p < q
    with pytest.raises(NotDiagConstant):
        count_points(CRSystem((1, 1, 1), (2, 1), (2, 1)), DiagZero(1))
    with pytest.raises(TypeError):
        count_points(system, (1, 1))


def test_face_counts_need_column_row_system():
    transport = CRSystem((2, 1), (2, 1), (2, 1), transport_only=True)
    for face in (DiagZero(1), EntryZero(1), FaceUnion((DiagZero(1), EntryZero(1)))):
        with pytest.raises(ValueError):
            count_points(transport, face)
    with pytest.raises(ValueError):
        face_hit_counts(transport, FaceUnion((DiagZero(1),)))


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
    with pytest.raises(ValueError):
        col_ineq_slack(tensor, 5, 1)
    with pytest.raises(ValueError):
        col_ineq_slack(tensor, 1, 9)
    square = Tensor3.zeros(2, 2, 2)
    with pytest.raises(ValueError):
        col_ineq_slack(square, 2, 1)  # C(p, t) needs p < q


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
    with pytest.raises(ValueError):
        row_ineq_slack(tensor, 3, 1)


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
    system = CRSystem((2, 1), (2, 1), (2, 1))
    payload = system.to_json_dict()
    assert payload["dims"] == [2, 2, 2]
    assert payload["transportOnly"] is False
    assert [2, 2, 1] in payload["vanishing"]
    assert payload["columnInequalities"] and payload["rowInequalities"]
    transport = CRSystem((2, 1), (2, 1), (2, 1), transport_only=True).to_json_dict()
    assert transport["transportOnly"] is True
    assert transport["vanishing"] == []
    assert transport["columnInequalities"] == [] and transport["rowInequalities"] == []
