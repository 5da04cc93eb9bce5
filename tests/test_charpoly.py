"""The sparse-row charpoly against the dense Faddeev-LeVerrier reference."""

from fractions import Fraction

import pytest
from charpoly_reference import dense_charpoly
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realhurwitz.model import Bidegree
from realhurwitz.operators import OperatorKind, block_matrix
from realhurwitz.spectral import charpoly

BLOCKS = [(p, total - p) for total in range(7) for p in range(total + 1)]


@pytest.mark.parametrize("b", BLOCKS, ids=[f"{p},{q}" for p, q in BLOCKS])
def test_charpoly_equals_dense_reference_on_blocks(b):
    for kind in (OperatorKind.WPLUS, OperatorKind.WMINUS):
        m = block_matrix(kind, Bidegree(*b)).entries
        assert charpoly(m) == dense_charpoly(m)


entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-6, max_value=6, max_denominator=5))
matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@settings(max_examples=60, deadline=None)
@given(matrices)
@example([])
@example([[Fraction(-7, 3)]])
@example([[0, 0, 0], [1, 2, 0], [0, 0, 0]])
@example([[0, 1, 0], [0, 0, 1], [Fraction(1, 2), 0, 0]])
@example([[1, 2], [3, 4]])
def test_charpoly_equals_dense_reference_on_random_matrices(rows):
    m = mat(rows)
    assert charpoly(m) == dense_charpoly(m)
