import ast
import os
import subprocess
import sys
import textwrap
import time
from itertools import combinations, permutations

import pytest

from crkron.characters import g_oracle, lr_oracle
from crkron.kronecker import (
    JTPairTerm,
    cr_count,
    face_F_minus,
    face_F_plus,
    face_term_breakdown,
    jt_expansion,
    jt_pair_expansion,
    kron_via_cr,
    kron_via_faces,
    normalize_triple,
    phi_ell,
    z_matrix,
)
from crkron.partitions import SizeMismatch, partitions_of
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
    face_hit_counts,
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


def test_face_unions():
    lam = mu = (3, 2, 1)
    f1 = face_F_plus(lam, mu, (3, 3), 1)
    assert f1.faces == (EntryZero(1),)
    fp = face_F_plus(lam, mu, (3, 3), 3)  # ell = p = q
    assert fp.faces == (DiagZero(2), EntryZero(3))
    fm = face_F_minus(lam, mu, (4, 2), 3)  # ell = p = q
    assert fm.faces == (DiagZero(3),)
    fm_low = face_F_minus(lam, mu, (4, 2), 1)
    kinds = {type(f).__name__ for f in fm_low.faces}
    assert kinds == {"ColTight", "RowTight"}
    with pytest.raises(ValueError):
        face_F_plus(lam, mu, (3, 3), 4)


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
                            plus = count_points(sys_tau, face_F_plus(lam2, mu2, term.tau, ell))
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
                                sys_bar, face_F_minus(lam2, mu2, term.tau_bar, ell)
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
            for tau, faces_of in ((term.tau, face_F_plus), (term.tau_bar, face_F_minus)):
                system = CRSystem(lam2, mu2, tau)
                points = enumerate_points(system)
                for ell in range(1, len(lam2) + 1):
                    union = faces_of(lam2, mu2, tau, ell)
                    assert count_points(system, union) == sum(_on_face(x, union) for x in points)
                    assert face_hit_counts(system, union) == tuple(
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
                            plus = count_points(sys_tau, face_F_plus(lam2, mu2, term.tau, ell))
                            minus = count_points(
                                sys_bar, face_F_minus(lam2, mu2, term.tau_bar, ell)
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


def test_kron_via_faces_examples():
    assert kron_via_faces((2, 1), (2, 1), (2, 1), 1) == 1
    assert kron_via_faces((3,), (1, 1, 1), (2, 1), 1) == 0  # shortcut triple


def test_face_hit_counts_diagnostics():
    from crkron.polytope import face_hit_counts

    lam = mu = (2, 1)
    system = CRSystem(lam, mu, (2, 1))
    union = face_F_plus(lam, mu, (2, 1), 2)
    hits = face_hit_counts(system, union)
    assert len(hits) == len(union.faces)
    # the union count never exceeds the per-face total (faces may overlap)
    assert count_points(system, union) <= sum(hits)
    assert max(hits) <= count_points(system)


def test_face_term_breakdown_schema():
    breakdown = face_term_breakdown((2, 2), (2, 1, 1), (3, 1), 1)
    assert breakdown
    for item in breakdown:
        assert set(item) == {"sign", "tau", "tauBar", "countPlus", "countMinus"}
        assert item["sign"] in (1, -1)
    value = sum(item["sign"] * (item["countPlus"] - item["countMinus"]) for item in breakdown)
    assert value == g_oracle((2, 2), (2, 1, 1), (3, 1))
    assert face_term_breakdown((3,), (1, 1, 1), (2, 1), 1) == []


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
        fake = [{"sign": 1, "countPlus": 0, "countMinus": 1}]
        breakdown = kronecker.face_term_breakdown
        kronecker.face_term_breakdown = lambda *args: fake
        print(raises(lambda: kronecker.kron_via_faces((2, 1), (2, 1), (2, 1))))
        kronecker.face_term_breakdown = breakdown
        kronecker.jt_pair_expansion = lambda nu: (kronecker.JTPairTerm(1, 3, 0, ()),)
        print(raises(lambda: kronecker.face_term_breakdown((2, 1), (2, 1), (2, 1))))
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
    assert proc.stdout.split() == ["1", "True", "1", "True", "True", "True", "True", "True"]
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
