"""Property tests, run under the shared profile of ``conftest.py``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from crkron.characters import g_oracle
from crkron.kronecker import kron_via_cr, kron_via_faces, normalize_triple
from crkron.partitions import conjugate, partitions_of
from crkron.polytope import CRSystem, Tensor3, count_points, in_cone
from crkron.tableaux import main_lemma_conditions


@st.composite
def small_tensors(draw):
    p, q, r = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, 2), min_size=p * q * r, max_size=p * q * r))
    # Most random tensors miss the cone on a staircase cell alone; clearing
    # the staircases (i + j > k * min(p, q) + 1 on level k) in half of the
    # draws lets the prefix checks decide.
    clear = draw(st.booleans())
    return Tensor3.from_levels(
        [
            [
                [
                    0 if clear and i + j > (k + 1) * min(p, q) - 1 else cells[(k * p + i) * q + j]
                    for j in range(q)
                ]
                for i in range(p)
            ]
            for k in range(r)
        ]
    )


def triples(max_n: int):
    """Three partitions of one n in 2 .. max_n."""
    return st.sampled_from(range(2, max_n + 1)).flatmap(
        lambda n: st.tuples(*[st.sampled_from(partitions_of(n))] * 3)
    )


@settings(max_examples=1000)
@given(small_tensors())
def test_in_cone_is_main_lemma_on_both_flattenings(tensor):
    assert in_cone(tensor) == (
        main_lemma_conditions(tensor.flatten_col())[0]
        and main_lemma_conditions(tensor.flatten_row())[1]
    )


@settings(max_examples=100)
@given(triples(9), st.integers(1, 9))
def test_jt_faces_and_oracle_agree(triple, ell):
    expected = g_oracle(*triple)
    assert kron_via_cr(*triple) == expected
    ell = min(ell, len(normalize_triple(*triple)[0]))
    assert kron_via_faces(*triple, ell) == expected


@settings(max_examples=80)
@given(triples(9))
def test_conjugating_two_partitions_keeps_g(triple):
    lam, mu, nu = triple
    assert kron_via_cr(conjugate(lam), conjugate(mu), nu) == kron_via_cr(lam, mu, nu)


@settings(max_examples=200)
@given(triples(8).flatmap(lambda t: st.tuples(st.just(t), st.permutations(t[2]))))
def test_cr_count_ignores_level_order(drawn):
    (lam, mu, tau), order = drawn
    assert count_points(CRSystem(lam, mu, tuple(order))) == count_points(CRSystem(lam, mu, tau))
