import random
from itertools import permutations, product

import pytest

from crkron import tableaux
from crkron.characters import lr_oracle
from crkron.partitions import NotWeaklyDecreasing, SizeMismatch, partition, partitions_of
from crkron.polytope import CRSystem, Tensor3, enumerate_points
from crkron.tableaux import (
    LRMultitableau,
    SkewTableau,
    _column_insert,
    canonical_tableau,
    column_insertion_tableau,
    count_lr_pairs,
    insertion_tableau,
    is_reverse_lattice,
    kostka,
    main_lemma_conditions,
    rsk,
    straight_tableau,
    theorem41_map,
)


def all_matrices(p, q, top):
    for entries in product(range(top + 1), repeat=p * q):
        yield [entries[i * q : (i + 1) * q] for i in range(p)]


def canonical_or_none(sums):
    stripped = list(sums)
    while stripped and stripped[-1] == 0:
        stripped.pop()
    if any(x == 0 for x in stripped) or any(a < b for a, b in zip(stripped, stripped[1:])):
        return None
    return canonical_tableau(tuple(stripped))


def test_is_reverse_lattice():
    assert is_reverse_lattice((3, 2, 1, 2, 1, 1))  # column word of C(3,2,1)
    assert not is_reverse_lattice((1, 2))
    assert is_reverse_lattice(())


def test_column_word_of_canonical():
    assert canonical_tableau((3, 2, 1)).col_word() == (3, 2, 1, 2, 1, 1)


def test_insertion_tableau_examples():
    assert insertion_tableau((1, 2, 1)).rows == ((1, 1), (2,))
    assert insertion_tableau(()).rows == ()
    # any reverse lattice word of partition content inserts to the canonical tableau
    for word in product(range(1, 4), repeat=5):
        if is_reverse_lattice(word):
            tab = insertion_tableau(word)
            assert tab.rows == canonical_tableau(tab.content()).rows
    # row and column insertion orders agree
    for length in range(0, 6):
        for word in product(range(1, 4), repeat=length):
            assert insertion_tableau(word).rows == column_insertion_tableau(word).rows


def test_canonical_tableau():
    assert canonical_tableau((2, 1)).rows == ((1, 1), (2,))
    assert canonical_tableau((3, 2, 1)).rows == ((1, 1, 1), (2, 2), (3,))
    assert canonical_tableau(()).rows == ()


def test_rsk_examples():
    p_tab, q_tab = rsk([[1, 1], [1, 0]])
    assert p_tab.rows == canonical_tableau((2, 1)).rows
    assert q_tab.rows == canonical_tableau((2, 1)).rows
    p_tab, q_tab = rsk([[1, 0], [0, 1]])
    assert p_tab.rows == ((1, 2),)
    assert q_tab.rows == ((1, 2),)
    p_tab, q_tab = rsk([[0, 0], [0, 0]])
    assert p_tab.rows == () and q_tab.rows == ()


def test_rsk_content_and_symmetry():
    for matrix in all_matrices(2, 3, 2):
        p_tab, q_tab = rsk(matrix)
        cols = [sum(matrix[i][j] for i in range(2)) for j in range(3)]
        rows = [sum(row) for row in matrix]
        while cols and cols[-1] == 0:
            cols.pop()
        while rows and rows[-1] == 0:
            rows.pop()
        assert list(p_tab.content()) == cols
        assert list(q_tab.content()) == rows
        p_t, q_t = rsk(list(zip(*[tuple(r) for r in matrix])))
        assert (p_t.rows, q_t.rows) == (q_tab.rows, p_tab.rows)


@pytest.mark.slow
def test_rsk_symmetry_full_scale():
    for p in range(1, 4):
        for q in range(1, 5):
            for matrix in all_matrices(p, q, 2):
                p_tab, q_tab = rsk(matrix)
                p_t, q_t = rsk(list(zip(*[tuple(r) for r in matrix])))
                assert (p_t.rows, q_t.rows) == (q_tab.rows, p_tab.rows)


def test_main_lemma_small_exhaustive():
    # full <= 3x4 scale runs in the acceptance suite
    for p, q in ((1, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        for matrix in all_matrices(p, q, 2):
            p_tab, q_tab = rsk(matrix)
            cols = [sum(matrix[i][j] for i in range(p)) for j in range(q)]
            rows = [sum(row) for row in matrix]
            want_p = canonical_or_none(cols)
            want_q = canonical_or_none(rows)
            expected = (
                want_p is not None and p_tab.rows == want_p.rows,
                want_q is not None and q_tab.rows == want_q.rows,
            )
            assert main_lemma_conditions(matrix) == expected, matrix


def test_main_lemma_examples():
    assert main_lemma_conditions([[1, 1], [1, 0]]) == (True, True)
    assert main_lemma_conditions([[4]]) == (True, True)


def test_diagonal_profile_characterizes_canonical_pair():
    for p, q in ((2, 2), (2, 3), (3, 3)):
        m = min(p, q)
        for matrix in all_matrices(p, q, 2):
            p_ok, q_ok = main_lemma_conditions(matrix)
            beyond_zero = all(
                matrix[i][j] == 0 for i in range(p) for j in range(q) if i + j + 1 > m
            )
            diags_constant = all(
                len({matrix[i][j] for i in range(p) for j in range(q) if i + j + 1 == k}) == 1
                for k in range(1, m + 1)
            )
            assert (p_ok and q_ok) == (beyond_zero and diags_constant), matrix


def _index_swap(tensor: Tensor3) -> Tensor3:
    p, q, r = tensor.dims
    return Tensor3.from_levels(
        [[[tensor.entry(i, j, k) for i in range(1, p + 1)] for j in range(1, q + 1)]
         for k in range(1, r + 1)]
    )


def test_theorem41_single_level():
    tensor = Tensor3.from_levels([[[1, 1], [1, 0]]])
    q_tab, p_tab, t_multi, s_multi = theorem41_map(tensor)
    assert p_tab.rows == canonical_tableau((2, 1)).rows
    assert q_tab.rows == canonical_tableau((2, 1)).rows
    assert len(s_multi.components) == 1
    assert s_multi.components[0].rows == canonical_tableau((2, 1)).rows
    assert t_multi.components[0].rows == canonical_tableau((2, 1)).rows


def test_theorem41_unique_cr_point():
    lam = (3, 2)
    (point,) = enumerate_points(CRSystem(lam, lam, (5,)))
    q_tab, p_tab, t_multi, s_multi = theorem41_map(point)
    assert p_tab.rows == canonical_tableau(lam).rows
    assert q_tab.rows == canonical_tableau(lam).rows
    assert s_multi.contents() == (lam,)


def test_theorem41_transpose_symmetry():
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            for tau in partitions_of(4):
                for point in enumerate_points(CRSystem(lam, mu, tau, transport_only=True)):
                    q_tab, p_tab, t_multi, s_multi = theorem41_map(point)
                    q2, p2, t2, s2 = theorem41_map(_index_swap(point))
                    assert (q2.rows, p2.rows) == (p_tab.rows, q_tab.rows)
                    assert t2.to_json_dict() == s_multi.to_json_dict()
                    assert s2.to_json_dict() == t_multi.to_json_dict()


def _bijection_sweep(n):
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            for tau in partitions_of(n):
                points = enumerate_points(CRSystem(lam, mu, tau, transport_only=True))
                images = set()
                for point in points:
                    q_tab, p_tab, t_multi, s_multi = theorem41_map(point)
                    assert p_tab.content() == mu and q_tab.content() == lam
                    assert p_tab.outer == s_multi.shape and q_tab.outer == t_multi.shape
                    assert t_multi.contents() == s_multi.contents()
                    assert t_multi.type() == tau
                    images.add(
                        (
                            q_tab.rows,
                            p_tab.rows,
                            tuple(c.rows for c in t_multi.components),
                            tuple(c.rows for c in s_multi.components),
                        )
                    )
                assert len(images) == len(points), (lam, mu, tau)
                expected = 0
                for alpha in partitions_of(n):
                    k_a = kostka(alpha, lam)
                    if not k_a:
                        continue
                    for beta in partitions_of(n):
                        k_b = kostka(beta, mu)
                        if k_b:
                            expected += k_a * k_b * count_lr_pairs(alpha, beta, tau)
                assert expected == len(points), (lam, mu, tau)


def test_theorem41_injective_and_counts_match_small():
    for n in range(1, 5):
        _bijection_sweep(n)


@pytest.mark.slow
def test_theorem41_injective_and_counts_match_n5():
    _bijection_sweep(5)


def test_count_lr_pairs_examples():
    assert count_lr_pairs((2, 1), (2, 1), (2, 1)) == 2
    assert count_lr_pairs((2, 1), (2, 1), (3,)) == 1
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert count_lr_pairs(lam, lam, (n,)) == 1
    with pytest.raises(SizeMismatch):
        count_lr_pairs((2,), (2,), (1,))


def test_count_lr_pairs_matches_characters():
    # the enumeration peels the last component of tau, so its order matters
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for tau in partitions_of(n):
                    assert count_lr_pairs(lam, mu, tau) == lr_oracle(lam, mu, tau)
                    for sigma in set(permutations(tau + (0,))):
                        assert count_lr_pairs(lam, mu, sigma) == lr_oracle(lam, mu, sigma), sigma


def test_kostka_examples():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 2), (3, 1)) == 0
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1


def test_kostka_takes_sequences_and_shares_cache_entries():
    assert kostka([2, 1], [1, 1, 1]) == 2
    before = tableaux._kostka.cache_info().currsize
    assert kostka((2, 1, 0), (1, 1, 1)) == kostka((2, 1), [1, 1, 1]) == 2
    assert tableaux._kostka.cache_info().currsize == before


def test_kostka_pinned_large():
    assert kostka((40, 40), (2,) * 40) == 17047255430494497
    assert kostka((80, 80), (2,) * 80) == 74471367333926485356188553908612137
    assert kostka((30, 20, 10), (2,) * 30) == 3284671840371524460


def test_shapes_between_matches_brute_force():
    def contains(big, small):
        return len(small) <= len(big) and all(a <= b for a, b in zip(small, big))

    for m in range(9):
        for upper in partitions_of(m):
            lowers = [nu for k in range(m + 1) for nu in partitions_of(k) if contains(upper, nu)]
            for lower in lowers:
                for size in range(m + 2):
                    expected = tuple(
                        nu
                        for nu in partitions_of(size)
                        if contains(nu, lower) and contains(upper, nu)
                    )
                    assert tableaux._shapes_between(lower, upper, size) == expected


def test_skew_tableau_validation():
    with pytest.raises(ValueError):
        straight_tableau([[2, 1]])  # row decreasing
    with pytest.raises(ValueError):
        straight_tableau([[1, 1], [1]])  # column not strict
    tab = SkewTableau((2, 1), (1,), ((2,), (1,)))
    assert tab.size == 2
    assert tab.row_word() == (1, 2)
    assert tab.col_word() == (1, 2)


def test_tableau_json():
    tab = canonical_tableau((2, 1))
    assert tab.to_json_dict() == {"shape": [2, 1], "inner": [], "rows": [[1, 1], [2]]}


def test_lr_multitableau_validation():
    good = LRMultitableau((canonical_tableau((2, 1)),))
    assert good.shape == (2, 1)
    with pytest.raises(ValueError):
        LRMultitableau((SkewTableau((2, 1), (1,), ((2,), (1,))),))  # chain must start at ()


def test_malformed_matrices_are_rejected():
    for matrix in ([[1, 0], [0]], [[1], [0, 2]], [[-1, 0], [0, 0]]):
        with pytest.raises(ValueError):
            main_lemma_conditions(matrix)
        with pytest.raises(ValueError):
            rsk(matrix)


def _reference_product(tabs):
    """The level product written out from whole tableaux: column-insert each
    column word from its end and record the canonical tableau's column word,
    read the same way, into the new boxes."""
    rows = []
    components = []
    inner = ()
    for tab in tabs:
        letters = tab.col_word()[::-1]
        recording = canonical_tableau(tab.outer).col_word()[::-1] if tab.outer else ()
        new_boxes = {}
        for v, u in zip(letters, recording):
            new_boxes[_column_insert(rows, v)] = u
        outer = partition(len(row) for row in rows)
        pad_inner = inner + (0,) * (len(outer) - len(inner))
        comp_rows = tuple(
            tuple(new_boxes[(i, j)] for j in range(pad_inner[i], outer[i]))
            for i in range(len(outer))
        )
        components.append(SkewTableau(outer, inner, comp_rows))
        inner = outer
    return straight_tableau(rows), LRMultitableau(tuple(components))


def _reference_map(tensor):
    pairs = [rsk(tensor.level(k)) for k in range(1, tensor.dims[2] + 1)]
    p_tab, s_multi = _reference_product([pk for pk, _ in pairs])
    q_tab, t_multi = _reference_product([qk for _, qk in pairs])
    return q_tab, p_tab, t_multi, s_multi


def test_theorem41_map_matches_reference_product():
    checked = 0
    for n in range(1, 5):
        for lam, mu, tau in product(partitions_of(n), repeat=3):
            for transport_only in (False, True):
                for point in enumerate_points(CRSystem(lam, mu, tau, transport_only=transport_only)):
                    assert theorem41_map(point) == _reference_map(point), point
                    checked += 1
    assert checked == 4836


def test_product_with_recording_matches_reference_on_mixed_rows():
    # CR points with n <= 5 give components whose rows repeat one letter;
    # random level tableaux also give rows such as (1, 2).
    rng = random.Random(7)
    mixed = 0
    for _ in range(300):
        tabs = [
            insertion_tableau([rng.randint(1, 4) for _ in range(rng.randint(0, 7))])
            for _ in range(rng.randint(1, 3))
        ]
        got = tableaux._product_with_recording([[list(row) for row in tab.rows] for tab in tabs])
        assert got == _reference_product(tabs), tabs
        mixed += any(len(set(row)) > 1 for comp in got[1].components for row in comp.rows)
    assert mixed > 10


def test_lr_enumeration_checks_its_inputs():
    with pytest.raises(ValueError, match="negative part"):
        kostka((2, 1), (-1, 4))
    with pytest.raises(ValueError, match="negative part"):
        kostka((3,), (-1, 4))
    with pytest.raises(NotWeaklyDecreasing):
        kostka((1, 2), (2, 1))
    with pytest.raises(ValueError, match="negative part"):
        count_lr_pairs((2, 1), (2, 1), (-1, 4))
    with pytest.raises(NotWeaklyDecreasing):
        count_lr_pairs((1, 2), (2, 1), (3,))
    # zero parts keep their meaning
    assert count_lr_pairs((2, 1), (2, 1), (0, 3)) == lr_oracle((2, 1), (2, 1), (0, 3)) == 1
