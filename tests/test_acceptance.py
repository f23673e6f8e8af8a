"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is exact; there are no tolerances to tune.
"""

from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from crkron.characters import class_size, g_oracle, lr_oracle, perm_character_value
from crkron.cli import main as cli_main
from crkron.kronecker import (
    face_F_minus,
    face_F_plus,
    jt_pair_expansion,
    kron_via_cr,
    kron_via_faces,
    normalize_triple,
    z_matrix,
)
from crkron.partitions import dominance_geq, intersection, partitions_of
from crkron.polytope import (
    CRSystem,
    affine_rank,
    build_hypercube_point,
    cone_dim,
    count_points,
    enumerate_points,
    free_cone_coordinates,
    hypercube_interval,
    hypercube_sample,
    in_cone,
    polytope_dim_bound,
)
from crkron.tableaux import canonical_tableau, count_lr_pairs, main_lemma_conditions, rsk


def _transport_count_by_characters(lam, mu, tau):
    """#T(lam, mu, tau) via permutation-character class sums (test-side oracle)."""
    n = sum(lam)
    total = sum(
        class_size(rho)
        * perm_character_value(lam, rho)
        * perm_character_value(mu, rho)
        * perm_character_value(tau, rho)
        for rho in partitions_of(n)
    )
    value, remainder = divmod(total, factorial(n))
    assert remainder == 0
    return value


def test_criterion_1_oracle_equivalence():
    checked = 0
    for n in range(2, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    assert kron_via_cr(lam, mu, nu) == g_oracle(lam, mu, nu), (lam, mu, nu)
                    checked += 1
    print(f"\n[PASS] criterion 1: kron_via_cr == g_oracle on {checked} triples, n = 2..6")


def test_criterion_2_triple_equality():
    checked = 0
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for tau in partitions_of(n):
                    a = count_points(CRSystem(lam, mu, tau))
                    b = count_lr_pairs(lam, mu, tau)
                    c = lr_oracle(lam, mu, tau)
                    assert a == b == c, (lam, mu, tau, a, b, c)
                    checked += 1
    print(f"[PASS] criterion 2: #CR == #LR pairs == character count on {checked} triples, n <= 5")


def test_criterion_3_face_formula():
    checked_triples = 0
    checked_terms = 0
    for n in range(2, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    expected = kron_via_cr(lam, mu, nu)
                    lam2, mu2, nu2, shortcut = normalize_triple(lam, mu, nu)
                    top = 1 if shortcut else len(lam2)
                    for ell in range(1, top + 1):
                        assert kron_via_faces(lam, mu, nu, ell) == expected, (lam, mu, nu, ell)
                    checked_triples += 1
                    if shortcut:
                        continue
                    for term in jt_pair_expansion(nu2):
                        sys_tau = CRSystem(lam2, mu2, term.tau)
                        sys_bar = CRSystem(lam2, mu2, term.tau_bar)
                        diff = count_points(sys_tau) - count_points(sys_bar)
                        assert diff >= 0, (lam2, mu2, term)
                        for ell in range(1, len(lam2) + 1):
                            plus = count_points(sys_tau, face_F_plus(lam2, mu2, term.tau, ell))
                            minus = count_points(
                                sys_bar, face_F_minus(lam2, mu2, term.tau_bar, ell)
                            )
                            assert diff == plus - minus, (lam2, mu2, term, ell)
                            checked_terms += 1
    print(
        f"[PASS] criterion 3: face formula matches on {checked_triples} triples for every ell;"
        f" per-term cancellation identity on {checked_terms} (term, ell) pairs, n <= 5"
    )


def _canonical_or_none(sums):
    stripped = list(sums)
    while stripped and stripped[-1] == 0:
        stripped.pop()
    if any(x == 0 for x in stripped) or any(a < b for a, b in zip(stripped, stripped[1:])):
        return None
    return canonical_tableau(tuple(stripped))


@pytest.mark.slow
def test_criterion_4_main_lemma_exhaustive():
    checked = 0
    for p in range(1, 4):
        for q in range(1, 5):
            for entries in product(range(3), repeat=p * q):
                matrix = [entries[i * q : (i + 1) * q] for i in range(p)]
                p_tab, q_tab = rsk(matrix)
                cols = [sum(matrix[i][j] for i in range(p)) for j in range(q)]
                rows = [sum(row) for row in matrix]
                want_p = _canonical_or_none(cols)
                want_q = _canonical_or_none(rows)
                expected = (
                    want_p is not None and p_tab.rows == want_p.rows,
                    want_q is not None and q_tab.rows == want_q.rows,
                )
                got = main_lemma_conditions(matrix)
                assert got == expected, matrix
                m = min(p, q)
                beyond_zero = all(
                    matrix[i][j] == 0 for i in range(p) for j in range(q) if i + j + 1 > m
                )
                diags_constant = all(
                    len({matrix[i][j] for i in range(p) for j in range(q) if i + j + 1 == k}) == 1
                    for k in range(1, m + 1)
                )
                assert (expected[0] and expected[1]) == (beyond_zero and diags_constant), matrix
                checked += 1
    print(
        f"[PASS] criterion 4: canonicity conditions agree with RSK and the constant-diagonal"
        f" profile on {checked} matrices (<= 3x4, entries <= 2)"
    )


def test_criterion_5_reference_values():
    expected_terms = [
        (1, 2, 1, (7, 4)),
        (-1, 5, 1, (7, 1)),
        (-1, 2, 1, (8, 3)),
        (1, 9, 1, (3, 1)),
        (1, 5, 1, (8,)),
        (-1, 9, 1, (4,)),
    ]
    got = [(t.sign, t.a, t.b, t.rho) for t in jt_pair_expansion((7, 4, 2, 1))]
    assert got == expected_terms
    assert z_matrix(1, 2, 3, 2).levels == (((-1, 0, 0), (0, 0, 0)), ((1, 0, 0), (0, 0, 0)))
    assert z_matrix(3, 3, 4, 3).levels == (
        ((0, 1, -1, 0), (1, -1, 0, 0), (-1, 0, 0, 0)),
        ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0)),
        ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    )
    assert polytope_dim_bound(3, 6, 3) == 26
    print(
        "[PASS] criterion 5: pair expansion of (7,4,2,1), the two shift tensors, and the"
        " dimension bound 26 reproduce the reference values exactly"
    )


def test_criterion_6_dimension_properties():
    p, q, r = 3, 6, 2
    d = cone_dim(p, q, r)
    assert d == 18
    for seed in range(5):
        assert in_cone(hypercube_sample(p, q, r, seed))
    coords = free_cone_coordinates(p, q, r)
    assert len(coords) == d
    mid = {c: sum(hypercube_interval(c[1], q)) / 2 for c in coords}
    points = [build_hypercube_point(p, q, r, mid)]
    for coord in coords:
        picks = dict(mid)
        lo, hi = hypercube_interval(coord[1], q)
        picks[coord] = lo + (hi - lo) * Fraction(1, 4)
        points.append(build_hypercube_point(p, q, r, picks))
    assert all(in_cone(point) for point in points)
    assert affine_rank(points) == d
    bound = polytope_dim_bound(2, 2, 2)
    assert bound == 2
    for t in range(1, 5):
        scaled = (2 * t, t)
        rank = affine_rank(enumerate_points(CRSystem(scaled, scaled, scaled)))
        assert rank <= bound, (t, rank)
    print(
        "[PASS] criterion 6: rational cone samples satisfy every constraint, 19 crafted"
        " samples have affine rank 18, and dilations of CR((2,1),(2,1);(2,1)) stay within rank 2"
    )


def test_criterion_7_corollary_suite():
    # the character-based transportation count is validated against direct
    # enumeration before it stands in as the #T oracle at n = 5, 6
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for tau in partitions_of(n):
                    direct = count_points(CRSystem(lam, mu, tau, transport_only=True))
                    assert direct == _transport_count_by_characters(lam, mu, tau)
    checked = 0
    for n in range(2, 7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                cap = sum(intersection(lam, mu))
                cr_counts = {}
                for nu in parts:
                    cr_counts[nu] = count_points(CRSystem(lam, mu, nu))
                support = []
                for nu in parts:
                    g = g_oracle(lam, mu, nu)
                    if g > 0:
                        support.append(nu)
                    # Regev: too many columns forces emptiness
                    if len(mu) > len(lam) * len(nu):
                        assert cr_counts[nu] == 0 and g == 0, (lam, mu, nu)
                    # bounds chain
                    assert g <= cr_counts[nu] <= _transport_count_by_characters(lam, mu, nu)
                    # first part bound for nonempty polytopes
                    if cr_counts[nu] > 0:
                        assert nu[0] <= cap, (lam, mu, nu)
                    checked += 1
                # hooks under the intersection bound give nonempty polytopes
                for k in range(1, cap + 1):
                    zeta = (k,) + (1,) * (n - k)
                    assert count_points(CRSystem(lam, mu, zeta)) > 0, (lam, mu, zeta)
                # dominance monotonicity
                for gamma in parts:
                    for nu in parts:
                        if dominance_geq(gamma, nu):
                            assert cr_counts[gamma] <= cr_counts[nu], (lam, mu, gamma, nu)
                # dominance-maximal components are counted exactly
                for nu in support:
                    if not any(other != nu and dominance_geq(other, nu) for other in support):
                        assert g_oracle(lam, mu, nu) == cr_counts[nu], (lam, mu, nu)
    print(
        f"[PASS] criterion 7: Regev, first-part/hook bounds, bounds chain, dominance"
        f" monotonicity and maximal-component equality on {checked} triples, n <= 6"
    )


def test_criterion_8_selfcheck_determinism(capsys):
    outputs = []
    for threads in ("1", "2", "8"):
        code = cli_main(["--threads", threads, "selfcheck", "--n", "5"])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert "selfcheck OK" in outputs[0]
    with capsys.disabled():
        print(
            "\n[PASS] criterion 8: selfcheck --n 5 reports are byte-identical across"
            " 1, 2, and 8 threads"
        )
