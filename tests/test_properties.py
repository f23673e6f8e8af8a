"""Property tests; deterministic (derandomized) and writing no example database."""

from hypothesis import given, settings
from hypothesis import strategies as st

from crkron.polytope import Tensor3, in_cone
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


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(small_tensors())
def test_in_cone_is_main_lemma_on_both_flattenings(tensor):
    assert in_cone(tensor) == (
        main_lemma_conditions(tensor.flatten_col())[0]
        and main_lemma_conditions(tensor.flatten_row())[1]
    )
