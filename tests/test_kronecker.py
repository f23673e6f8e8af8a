import ast
import gc
import os
import re
import subprocess
import sys
import textwrap
import time
from itertools import combinations, permutations, product

import pytest

from crkron import kronecker, tableaux
from crkron.characters import g_oracle, lr_oracle
from crkron.kronecker import (
    JTPairTerm,
    cr_count,
    face_term_breakdown,
    face_unions,
    jt_expansion,
    jt_pair_expansion,
    jt_term_breakdown,
    kron_via_cr,
    kron_via_faces,
    normalize_triple,
    phi_ell,
    z_matrix,
)
from crkron.partitions import SizeMismatch, conjugate, intersection, partitions_of
from crkron.polytope import (
    ColTight,
    CRSystem,
    DiagZero,
    EntryZero,
    FaceUnion,
    RowTight,
    Tensor3,
    col_ineq_slack,
    count_points,
    diag_values,
    enumerate_points,
    is_member,
    row_ineq_slack,
)


def test_jt_expansion_examples():
    assert [(t.sign, t.gamma) for t in jt_expansion((2, 1))] == [(1, (2, 1)), (-1, (3,))]
    assert [(t.sign, t.gamma) for t in jt_expansion((4,))] == [(1, (4,))]
    assert [(t.sign, t.gamma) for t in jt_expansion((1, 1))] == [(1, (1, 1)), (-1, (2,))]
    with pytest.raises(ValueError):
        jt_expansion(())


def _permutation_expansion(nu):
    """det(h_{nu_i - i + j}) summed over all permutations in itertools order."""
    terms = []
    for sigma in permutations(range(1, len(nu) + 1)):
        gamma = [nu[i] - (i + 1) + sigma[i] for i in range(len(nu))]
        if min(gamma) < 0:
            continue
        inversions = sum(a > b for a, b in combinations(sigma, 2))
        terms.append((-1 if inversions % 2 else 1, tuple(g for g in gamma if g > 0)))
    return terms


def test_jt_expansion_matches_permutation_sum():
    for n in range(1, 8):
        for nu in partitions_of(n):
            assert [(t.sign, t.gamma) for t in jt_expansion(nu)] == _permutation_expansion(nu)


def test_jt_expansion_prunes_dead_branches():
    # e_n = sum over the 2^(n-1) compositions a of n of (-1)^(n - len(a)) h_a,
    # out of n! permutations
    for n in (9, 12):
        start = time.perf_counter()
        terms = jt_expansion((1,) * n)
        assert time.perf_counter() - start < 1.0
        assert len(terms) == 2 ** (n - 1)
        assert len({t.gamma for t in terms}) == 2 ** (n - 1)
        assert all(sum(t.gamma) == n and t.sign == (-1) ** (n - len(t.gamma)) for t in terms)


def test_jt_expansion_term_count_formula():
    # Row i of det(h_{nu_i - i + j}) takes only columns j >= i - nu_i, so
    # the expansion has prod_i min(i, nu_i + 1) terms, counted without listing.
    for n in range(1, 13):
        for nu in partitions_of(n):
            expected = 1
            for i, part in enumerate(nu, 1):
                expected *= min(i, part + 1)
            assert len(jt_expansion(nu)) == expected, nu


def test_jt_expansion_is_inverse_kostka_route():
    # signed lr-sums over the expansion reproduce the coefficient end to end
    for n in range(2, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    total = sum(
                        term.sign * lr_oracle(lam, mu, term.gamma)
                        for term in jt_expansion(nu)
                    )
                    assert total == g_oracle(lam, mu, nu)


def test_jt_pair_expansion_reference_example():
    expected = [
        (1, 2, 1, (7, 4)),
        (-1, 5, 1, (7, 1)),
        (-1, 2, 1, (8, 3)),
        (1, 9, 1, (3, 1)),
        (1, 5, 1, (8,)),
        (-1, 9, 1, (4,)),
    ]
    got = [(t.sign, t.a, t.b, t.rho) for t in jt_pair_expansion((7, 4, 2, 1))]
    assert got == expected


def test_jt_pair_expansion_small():
    assert [(t.sign, t.a, t.b, t.rho) for t in jt_pair_expansion((2, 1))] == [(1, 2, 1, ())]
    assert [(t.sign, t.a, t.b, t.rho) for t in jt_pair_expansion((3, 2, 1))] == [
        (1, 2, 1, (3,)),
        (-1, 4, 1, (1,)),
    ]
    with pytest.raises(ValueError):
        jt_pair_expansion((3,))


def test_jt_pair_expansion_sums_match_full_expansion():
    # the pair grouping is a rearrangement of the full signed sum
    for n in range(2, 7):
        lam = mu = (1,) * n
        for nu in partitions_of(n):
            if len(nu) < 2:
                continue
            paired = sum(
                term.sign * (cr_count(lam, mu, term.tau) - cr_count(lam, mu, term.tau_bar))
                for term in jt_pair_expansion(nu)
            )
            full = sum(term.sign * cr_count(lam, mu, term.gamma) for term in jt_expansion(nu))
            assert paired == full


def test_pair_term_tau_alignment():
    term = JTPairTerm(1, 5, 1, (8,))
    assert term.tau == (5, 1, 8)
    assert term.tau_bar == (6, 0, 8)
    with pytest.raises(ValueError):
        JTPairTerm(1, -1, 0, ())


def test_normalize_triple():
    lam2, mu2, nu2, shortcut = normalize_triple((3,), (1, 1, 1), (2, 1))
    assert (lam2, mu2, nu2) == ((2, 1), (1, 1, 1), (3,))
    assert shortcut
    lam2, mu2, nu2, shortcut = normalize_triple((2, 1), (2, 1), (2, 1))
    assert (lam2, mu2, nu2) == ((2, 1), (2, 1), (2, 1))
    assert not shortcut
    lam2, mu2, nu2, shortcut = normalize_triple((1, 1, 1, 1), (1, 1, 1, 1), (2, 2))
    assert nu2 == (2, 2) and lam2 == mu2 == (1, 1, 1, 1)
    assert not shortcut
    with pytest.raises(SizeMismatch):
        normalize_triple((2,), (2,), (3,))


def test_kron_via_cr_examples():
    assert kron_via_cr((2, 1), (2, 1), (2, 1)) == 1
    for n in range(1, 7):
        assert kron_via_cr((n,), (n,), (n,)) == 1
    triple = ((1, 1, 1, 1), (1, 1, 1, 1), (2, 2))
    assert kron_via_cr(*triple) == g_oracle(*triple)
    with pytest.raises(SizeMismatch):
        kron_via_cr((2,), (2,), (1,))


def test_kron_via_cr_matches_oracle():
    for n in range(2, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    assert kron_via_cr(lam, mu, nu) == g_oracle(lam, mu, nu)


def test_two_row_square_triples_pinned():
    # g((m,m),(m,m),(m,m)) is 1 for even m and 0 for odd m
    # (Garsia, Wallach, Xin and Zabrocki); the few-row end of the jt/oracle crossover
    for m in range(2, 21):
        triple = ((m, m),) * 3
        expected = 1 - m % 2
        assert g_oracle(*triple) == expected, m
        assert kron_via_cr(*triple) == expected, m


def test_four_row_square_triples_pinned():
    # Four-row shapes are where the row family's checks close inside a
    # level, and on four-row squares the search's memo does most of the work.
    square5 = ((5, 5, 5, 5),) * 3
    assert g_oracle(*square5) == 4
    assert kron_via_cr(*square5) == 4
    assert kron_via_faces(*square5, ell=1) == kron_via_faces(*square5, ell=2) == 4
    square6 = ((6, 6, 6, 6),) * 3
    assert g_oracle(*square6) == 16
    assert kron_via_cr(*square6) == 16


def test_z_matrix_displays():
    z1 = z_matrix(1, 2, 3, 2)
    assert z1.levels == (((-1, 0, 0), (0, 0, 0)), ((1, 0, 0), (0, 0, 0)))
    z3 = z_matrix(3, 3, 4, 3)
    assert z3.levels == (
        ((0, 1, -1, 0), (1, -1, 0, 0), (-1, 0, 0, 0)),
        ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0)),
        ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    )
    with pytest.raises(ValueError):
        z_matrix(3, 2, 3, 2)
    with pytest.raises(ValueError):
        z_matrix(1, 2, 3, 1)


def test_z_matrix_marginals():
    for p, q in ((2, 3), (3, 4), (4, 4)):
        for ell in range(1, p + 1):
            z = z_matrix(ell, p, q, 3)
            rows, cols, levs = z.marginals()
            assert rows == (0,) * p
            assert cols == (0,) * q
            assert levs == (-1, 1, 0)


def _negated(tensor):
    """-tensor, entry by entry: adding it subtracts ``tensor``."""
    return Tensor3.from_levels([[[-x for x in row] for row in level] for level in tensor.levels])


def test_phi_ell_shifts_level_sums_only():
    system = CRSystem((2, 1), (2, 1), (1, 1, 1))
    shifted_any = False
    for point in enumerate_points(system):
        try:
            shifted = phi_ell(point, 1)
        except ValueError:
            continue
        shifted_any = True
        rows, cols, levs = point.marginals()
        rows2, cols2, levs2 = shifted.marginals()
        assert (rows2, cols2) == (rows, cols)
        assert levs2 == (levs[0] - 1, levs[1] + 1, levs[2])
        assert shifted + _negated(z_matrix(1, *point.dims)) == point
    assert shifted_any


def test_phi_ell_refuses_a_negative_shift():
    with pytest.raises(ValueError, match="^shift produced a negative entry$"):
        phi_ell(Tensor3.zeros(2, 2, 2), 1)


def test_face_unions():
    lam = mu = (3, 2, 1)
    f1 = face_unions(len(lam), len(mu), 1)[0]
    assert f1.faces == (EntryZero(1),)
    fp = face_unions(len(lam), len(mu), 3)[0]  # ell = p = q
    assert fp.faces == (DiagZero(2), EntryZero(3))
    fm = face_unions(len(lam), len(mu), 3)[1]  # ell = p = q
    assert fm.faces == (DiagZero(3),)
    fm_low = face_unions(len(lam), len(mu), 1)[1]
    kinds = {type(f).__name__ for f in fm_low.faces}
    assert kinds == {"ColTight", "RowTight"}
    with pytest.raises(ValueError):
        face_unions(len(lam), len(mu), 4)


def _reference_unions(p, q, ell):
    """F+ and F- built term by term, as the face route first wrote them."""
    plus = ([DiagZero(ell - 1)] if ell >= 2 else []) + [EntryZero(ell)]
    if ell >= 2:
        plus += [ColTight(ell - 1, t) for t in range(1, p - ell + 1)]
        plus += [RowTight(ell - 1, s) for s in range(1, q - ell + 1)]
    if ell == p and p == q:
        return FaceUnion(tuple(plus)), FaceUnion((DiagZero(p),))
    minus = []
    if ell < p or p < q:
        minus += [ColTight(ell, t) for t in range(1, p - ell + 2)]
    if ell <= p - 1:
        minus += [RowTight(ell, s) for s in range(1, q - ell + 2)]
    return FaceUnion(tuple(plus)), FaceUnion(tuple(minus))


def test_face_unions_are_keyed_by_shape_and_shared():
    # the unions depend on p = len(lam), q = len(mu) and ell only, so one object serves each shape
    for p in range(1, 7):
        for q in range(1, 7):
            for ell in range(1, p + 1):
                plus, minus = _reference_unions(p, q, ell)
                assert face_unions(p, q, ell)[0] == plus, (p, q, ell)
                assert face_unions(p, q, ell)[1] == minus, (p, q, ell)
                assert face_unions(p, q, ell)[0] is face_unions(p, q, ell)[0]
                assert face_unions(p, q, ell)[1] is face_unions(p, q, ell)[1]
                assert hash(face_unions(p, q, ell)[0]) == hash(FaceUnion(plus.faces))
            for bad in (0, p + 1):
                with pytest.raises(ValueError, match=re.escape(f"ell = {bad} out of range [1, {p}]")):
                    face_unions(p, q, bad)


def test_face_counts_match_shift_brute_force():
    for n in range(2, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    lam2, mu2, nu2, shortcut = normalize_triple(lam, mu, nu)
                    if shortcut:
                        continue
                    p, q = len(lam2), len(mu2)
                    for term in jt_pair_expansion(nu2):
                        sys_tau = CRSystem(lam2, mu2, term.tau)
                        sys_bar = CRSystem(lam2, mu2, term.tau_bar)
                        for ell in range(1, p + 1):
                            z = z_matrix(ell, p, q, len(term.tau))
                            minus_z = _negated(z)
                            plus = count_points(sys_tau, face_unions(len(lam2), len(mu2), ell)[0])
                            brute_plus = sum(
                                1
                                for point in enumerate_points(sys_tau)
                                if not (
                                    (point + minus_z).is_nonnegative()
                                    and is_member(point + minus_z, sys_bar)
                                )
                            )
                            assert plus == brute_plus
                            minus = count_points(
                                sys_bar, face_unions(len(lam2), len(mu2), ell)[1]
                            )
                            brute_minus = sum(
                                1
                                for point in enumerate_points(sys_bar)
                                if not (
                                    (point + z).is_nonnegative()
                                    and is_member(point + z, sys_tau)
                                )
                            )
                            assert minus == brute_minus


def _on_face(point, face) -> bool:
    """Reference membership of a cone point in a face, from the named slacks."""
    if isinstance(face, FaceUnion):
        return any(_on_face(point, member) for member in face.faces)
    if isinstance(face, DiagZero):
        return diag_values(point)[face.index - 1] == 0
    if isinstance(face, EntryZero):
        return point.entry(face.index, face.index, 2) == 0
    if isinstance(face, ColTight):
        return col_ineq_slack(point, face.j, face.t) == 0
    return row_ineq_slack(point, face.i, face.s) == 0


def test_face_counts_match_slack_filter():
    # the in-search union count against a filter over every enumerated point,
    # for the F+- unions and for every single C(j, t) and R(i, s) in range
    normalized = set()
    for n in range(2, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    lam2, mu2, nu2, shortcut = normalize_triple(lam, mu, nu)
                    if not shortcut:
                        normalized.add((lam2, mu2, nu2))
    for lam2, mu2, nu2 in sorted(normalized):
        for term in jt_pair_expansion(nu2):
            for tau, side in ((term.tau, 0), (term.tau_bar, 1)):
                system = CRSystem(lam2, mu2, tau)
                points = enumerate_points(system)
                for ell in range(1, len(lam2) + 1):
                    union = face_unions(len(lam2), len(mu2), ell)[side]
                    assert count_points(system, union) == sum(_on_face(x, union) for x in points)
                    assert tuple(count_points(system, f) for f in union.faces) == tuple(
                        sum(_on_face(x, face) for x in points) for face in union.faces
                    )
                p, q, r = system.dims
                singles = [ColTight(j, t) for j in range(1, p + (p < q)) for t in range(1, p * (r - 1) + 1)]
                singles += [RowTight(i, s) for i in range(1, p) for s in range(1, q * (r - 1) + 1)]
                for face in singles:
                    assert count_points(system, face) == sum(_on_face(x, face) for x in points), (system, face)


def test_per_term_cancellation_identity():
    for n in range(2, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    lam2, mu2, nu2, shortcut = normalize_triple(lam, mu, nu)
                    if shortcut:
                        continue
                    p = len(lam2)
                    for term in jt_pair_expansion(nu2):
                        sys_tau = CRSystem(lam2, mu2, term.tau)
                        sys_bar = CRSystem(lam2, mu2, term.tau_bar)
                        diff = count_points(sys_tau) - count_points(sys_bar)
                        assert diff >= 0  # each pair encodes a genuine character
                        for ell in range(1, p + 1):
                            plus = count_points(sys_tau, face_unions(len(lam2), len(mu2), ell)[0])
                            minus = count_points(
                                sys_bar, face_unions(len(lam2), len(mu2), ell)[1]
                            )
                            assert diff == plus - minus


def test_kron_via_faces_matches_cr():
    for n in range(2, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    expected = kron_via_cr(lam, mu, nu)
                    lam2, _, _, shortcut = normalize_triple(lam, mu, nu)
                    top = 1 if shortcut else len(lam2)
                    for ell in range(1, top + 1):
                        assert kron_via_faces(lam, mu, nu, ell) == expected


def test_conjugate_forms_match_oracle():
    # Tensoring with the sign character: g(l, m, n) = g(l', m', n) =
    # g(l', m, n') = g(l, m', n').  Each form is a different polytope system.
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    expected = g_oracle(lam, mu, nu)
                    lc, mc, nc = conjugate(lam), conjugate(mu), conjugate(nu)
                    for form in ((lc, mc, nu), (lc, mu, nc), (lam, mc, nc)):
                        assert kron_via_cr(*form) == expected, (lam, mu, nu, form)
                        assert kron_via_faces(*form) == expected, (lam, mu, nu, form)



@pytest.mark.slow
def test_conjugate_forms_match_oracle_n7():
    # test_conjugate_forms_match_oracle at n = 7: 3,375 triples, three
    # conjugate forms each.
    parts = partitions_of(7)
    for lam in parts:
        for mu in parts:
            for nu in parts:
                expected = g_oracle(lam, mu, nu)
                lc, mc, nc = conjugate(lam), conjugate(mu), conjugate(nu)
                for form in ((lc, mc, nu), (lc, mu, nc), (lam, mc, nc)):
                    assert kron_via_cr(*form) == expected, (lam, mu, nu, form)
                    assert kron_via_faces(*form) == expected, (lam, mu, nu, form)


@pytest.mark.slow
def test_deep_searches_match_oracle():
    # Three-row triples with n = 36 to 42, whose jt and face searches run
    # through many positions inside each level where the search memoizes.
    expected = {
        ((12, 12, 12),) * 3: 7,
        ((14, 14, 14),) * 3: 8,
        ((16, 14, 12), (15, 14, 13), (20, 14, 8)): 6163,
    }
    for triple, value in expected.items():
        assert g_oracle(*triple) == value, triple
        assert kron_via_cr(*triple) == value, triple
        assert kron_via_faces(*triple) == value, triple


def test_dvir_bound_flags_only_zeros():
    # Dvir (J. Algebra 154, 1993): g(l, m, n) != 0 implies n_1 <= |l & m| and
    # len(n) <= |l & m'|.  The triples are ordered, so each partition of a
    # triple is taken in turn as n.
    flagged = total = 0
    for n in range(1, 9):
        parts = partitions_of(n)
        for lam, mu, nu in product(parts, repeat=3):
            total += 1
            if nu[0] > sum(intersection(lam, mu)) or len(nu) > sum(intersection(lam, conjugate(mu))):
                flagged += 1
                assert g_oracle(lam, mu, nu) == 0, (lam, mu, nu)
    assert (flagged, total) == (6244, 15858)

def test_kron_via_faces_examples():
    assert kron_via_faces((2, 1), (2, 1), (2, 1), 1) == 1
    assert kron_via_faces((3,), (1, 1, 1), (2, 1), 1) == 0  # shortcut triple


def test_face_term_breakdown_schema():
    breakdown = face_term_breakdown((2, 2), (2, 1, 1), (3, 1), 1)
    assert breakdown
    for item in breakdown:
        assert set(item) == {"sign", "tau", "tauBar", "countPlus", "countMinus"}
        assert item["sign"] in (1, -1)
    value = sum(item["sign"] * (item["countPlus"] - item["countMinus"]) for item in breakdown)
    assert value == g_oracle((2, 2), (2, 1, 1), (3, 1))
    assert face_term_breakdown((3,), (1, 1, 1), (2, 1), 1) == []


def test_term_breakdowns_are_empty_exactly_on_shortcuts():
    # kron_via_faces reads an empty breakdown as a shortcut triple
    for n in range(1, 7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    lam2, _, _, shortcut = normalize_triple(lam, mu, nu)
                    assert (jt_term_breakdown(lam, mu, nu) == []) == shortcut
                    for ell in range(1, len(lam2) + 1):
                        assert (face_term_breakdown(lam, mu, nu, ell) == []) == shortcut


def test_jt_term_breakdown_sums_to_kron_via_cr():
    for n in range(2, 7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    breakdown = jt_term_breakdown(lam, mu, nu)
                    if not breakdown:
                        continue
                    assert all(set(item) == {"sign", "gamma", "count"} for item in breakdown)
                    value = sum(item["sign"] * item["count"] for item in breakdown)
                    assert value == kron_via_cr(lam, mu, nu), (lam, mu, nu)


def test_face_term_breakdown_sums_to_kron_via_faces():
    # kron_via_faces sums the pair terms itself, so its value and the audit must agree
    for n in range(2, 7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    lam2, _, _, shortcut = normalize_triple(lam, mu, nu)
                    if shortcut:
                        continue
                    for ell in range(1, len(lam2) + 1):
                        breakdown = face_term_breakdown(lam, mu, nu, ell)
                        assert all(
                            set(item) == {"sign", "tau", "tauBar", "countPlus", "countMinus"} for item in breakdown
                        )
                        value = sum(item["sign"] * (item["countPlus"] - item["countMinus"]) for item in breakdown)
                        assert value == kron_via_faces(lam, mu, nu, ell), (lam, mu, nu, ell)


def test_face_terms_n18_pinned():
    # three levels with deep cuts: (countPlus, countMinus) per pair term; each ell sums to g = 35
    lam, mu, nu = (8, 6, 4), (6, 6, 6), (9, 6, 3)
    terms = [(1, [6, 6, 6], [7, 5, 6]), (-1, [7, 6, 5], [8, 5, 5]), (1, [7, 7, 4], [8, 6, 4])]
    expected = {
        1: [(6699, 5016), (6614, 3995), (4913, 3942)],
        2: [(6511, 4828), (5969, 3350), (4223, 3252)],
        3: [(12063, 10380), (9837, 7218), (7251, 6280)],
    }
    for ell, counts in expected.items():
        breakdown = face_term_breakdown(lam, mu, nu, ell)
        assert [(item["sign"], item["tau"], item["tauBar"]) for item in breakdown] == terms, ell
        assert [(item["countPlus"], item["countMinus"]) for item in breakdown] == counts, ell


def test_cr_count_reorder_invariant_memo():
    assert cr_count((2, 1), (2, 1), (1, 2)) == cr_count((2, 1), (2, 1), (2, 1))
    assert cr_count((2, 1), (2, 1), (2, 1, 0)) == cr_count((2, 1), (2, 1), (2, 1))


def test_expansions_and_lr_counts_leave_no_cyclic_garbage():
    # The recursive walkers of the determinant expansions and of the LR
    # counts are freed by reference counting alone, so a paused collector
    # finds nothing to collect after an uncached call.
    caches = (
        kronecker._jt_expansion_cached,
        kronecker._jt_pair_expansion_cached,
        tableaux._lr_skew_content_counts,
        tableaux._shapes_between,
        tableaux._lr_multitableau_contents,
        tableaux._kostka,
    )
    calls = (
        lambda: jt_expansion((5, 3, 2)),
        lambda: jt_pair_expansion((5, 3, 2)),
        lambda: tableaux.count_lr_pairs((3, 2, 1), (3, 2, 1), (2, 2, 2)),
        lambda: tableaux.kostka((4, 2, 1), (2, 2, 2, 1)),
    )
    for call in calls:
        warm = call()
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        gc.disable()
        try:
            assert call() == warm
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_invariant_violations_raise_under_optimize():
    # the checks must not be asserts, which python -O strips
    script = textwrap.dedent(
        """
        import sys
        from crkron import cli, kronecker
        from crkron.partitions import InvariantViolation

        def raises(fn):
            try:
                fn()
            except InvariantViolation:
                return True
            return False

        print(sys.flags.optimize)
        kronecker.cr_count = lambda lam, mu, tau: 0 if len(tau) > 1 else 1
        print(raises(lambda: kronecker.kron_via_cr((2, 1), (2, 1), (2, 1))))
        print(cli.main(["g", "--lambda", "2,1", "--mu", "2,1", "--nu", "2,1"]))
        # (2,1)^3 has one pair term, +1; each term counts F+ and then F-
        counts = iter((0, 1))
        count_points = kronecker.count_points
        kronecker.count_points = lambda system, face: next(counts)
        print(raises(lambda: kronecker.kron_via_faces((2, 1), (2, 1), (2, 1))))
        kronecker.count_points = count_points
        kronecker.jt_pair_expansion = lambda nu: (kronecker.JTPairTerm(1, 3, 0, ()),)
        print(raises(lambda: kronecker.face_term_breakdown((2, 1), (2, 1), (2, 1))))
        print(raises(lambda: kronecker.kron_via_faces((2, 1), (2, 1), (2, 1))))
        from crkron import characters, tableaux
        print(raises(lambda: tableaux._column_insert([[2, 0]], 1)))
        characters._class_sizes = lambda n: (1,) * len(characters.partitions_of(n))
        print(raises(lambda: characters.g_oracle((2, 1), (2, 1), (2, 1))))
        print(raises(lambda: characters.lr_oracle((2, 1), (2, 1), (3,))))
        """
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True", "1", "True", "True", "True", "True", "True", "True"]
    assert proc.stderr.strip().startswith("internal error: negative coefficient -1")


def test_no_assert_statements_in_src():
    # python -O strips asserts, so invariants must raise instead
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "crkron")
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as handle:
                tree = ast.parse(handle.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
