"""The labelled integer store: n+! n-! (or n!) times every count, in int.

The store equals the oracle's walk totals with no division, every exact
division raises ArithmeticError on a value that does not divide (also under
python -O), and the exp/log recurrence keeps integer input integral.
"""

import os
import subprocess
import sys

import pytest

import realhurwitz
from realhurwitz.evolution import disconnected_series, evolve_labelled
from realhurwitz.model import Bidegree, enumerate_bidegrees, p_minus, p_plus
from realhurwitz.nonsep import tilde_evolve_labelled, tilde_labelled_by_paths, tilde_operator_matrix
from realhurwitz.operators import OperatorKind, block_matrix
from realhurwitz.oracle import labelled_by_paths
from realhurwitz.poly import LabelledSeries, series_exp, series_log


@pytest.mark.parametrize("b", enumerate_bidegrees(9), ids=str)
def test_signed_store_equals_walk_totals_through_degree_nine(b):
    vectors = evolve_labelled(b, 6)
    for m in range(7):
        assert vectors[m] == labelled_by_paths(b, m)
        assert all(type(x) is int for x in vectors[m].values())


@pytest.mark.parametrize("n", range(10))
def test_unsigned_store_equals_walk_totals_through_nine_elements(n):
    vectors = tilde_evolve_labelled(n, 6)
    for m in range(7):
        assert vectors[m] == tilde_labelled_by_paths(n, m)
        assert all(type(x) is int for x in vectors[m].values())


def test_an_edited_result_leaves_the_next_request_intact():
    # every request evolves a store of its own, so a caller may change the
    # vectors it gets without changing what a later request returns
    mu = p_plus(1).union(p_minus(1))
    disconnected_series(2, 2).pieces[Bidegree(1, 1)][0][mu] += 5
    evolve_labelled(Bidegree(1, 1), 2)[1].clear()
    evolve_labelled(Bidegree(1, 1), 2)[0][mu] += 5
    tilde_evolve_labelled(3, 2)[2].clear()
    assert disconnected_series(2, 2).pieces[Bidegree(1, 1)][0][mu] == 1
    for m in range(3):
        assert evolve_labelled(Bidegree(1, 1), 2)[m] == labelled_by_paths(Bidegree(1, 1), m)
        assert tilde_evolve_labelled(3, 2)[m] == tilde_labelled_by_paths(3, m)


def test_log_and_exp_of_an_integer_store_stay_integral():
    blocks = list(enumerate_bidegrees(5))
    disc = LabelledSeries({b: evolve_labelled(b, 5) for b in blocks}, 5, False)
    conn = series_log(disc, 5, blocks)
    assert isinstance(conn, LabelledSeries) and conn.connected
    assert all(type(x) is int for piece in conn.pieces.values()
               for vec in piece for x in vec.values())
    regrown = series_exp(conn, 5, blocks)
    assert regrown.coeffs == disc.coeffs


# a hand-built operator whose column holds 1/2
HALF_COLUMN = """
from fractions import Fraction
from realhurwitz.model import Bidegree, p_plus
from realhurwitz.operators import BlockMatrix
mu = p_plus(1)
BlockMatrix(Bidegree(1, 0), (mu,), {mu: {mu: Fraction(1, 2)}}).step({mu: 2})
"""

# a store holding 1/2: |b| F_b for b = (2,) sums 1 * comb(2, 1) * F_1 * H_1
# = 2 * (1/2)^2 = 1/2, which 2 does not divide
HALF_ENTRY = """
from fractions import Fraction
from realhurwitz.nonsep import TILDE_EMPTY, ttype
from realhurwitz.poly import LabelledSeries, series_log
store = LabelledSeries({(0,): [{TILDE_EMPTY: 1}], (1,): [{ttype(kappa_odd=(1,)): Fraction(1, 2)}],
                        (2,): [{}]}, 0, False)
series_log(store, 0, [(0,), (1,), (2,)])
"""


@pytest.mark.parametrize("code", [HALF_COLUMN, HALF_ENTRY], ids=["column", "log"])
def test_exact_division_rejects_a_remainder(code):
    with pytest.raises(ArithmeticError):
        exec(code, {})


@pytest.mark.parametrize("code", [HALF_COLUMN, HALF_ENTRY], ids=["column", "log"])
def test_exact_division_check_survives_optimized_mode(code):
    src = os.path.dirname(os.path.dirname(realhurwitz.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "ArithmeticError" in proc.stderr


def test_integral_columns_are_used_as_they_are():
    plus = block_matrix(OperatorKind.WPLUS, Bidegree(2, 1))
    assert plus.int_columns is plus.images
    unsigned = tilde_operator_matrix(4)
    assert unsigned.int_columns is unsigned.images
