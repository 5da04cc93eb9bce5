"""The one-pass formal logarithm against the power-sum reference, and the
bidegree-box truncation against the total-degree one."""

import pytest

from power_sum_reference import power_sum_log
from realhurwitz.evolution import SIGNED
from realhurwitz.model import Bidegree, bidegree, bidegree_box, enumerate_bidegrees
from realhurwitz.nonsep import UNSIGNED
from realhurwitz.explog import series_log
from realhurwitz.poly import series, value


@pytest.mark.parametrize("model, grades, max_degree", [
    (SIGNED, enumerate_bidegrees(8), 8),
    (UNSIGNED, [(n,) for n in range(7)], 6),
], ids=["signed", "unsigned"])
def test_log_matches_power_sum(model, grades, max_degree):
    disc = series(model, grades, 6, False)
    got = series_log(disc, 6, grades)
    assert got.connected and any(got.coeffs)
    assert got.coeffs == power_sum_log(disc.coeffs, 6, max_degree)


@pytest.mark.parametrize("corner", [(0, 0), (1, 0), (2, 2), (3, 1), (3, 3), (4, 2)])
def test_box_series_equals_total_degree_series_on_the_box(corner):
    corner = Bidegree(*corner)
    blocks = set(bidegree_box(corner))
    for connected in (True, False):
        box = series(SIGNED, bidegree_box(corner), 6, connected)
        full = series(SIGNED, enumerate_bidegrees(sum(corner)), 6, connected)
        for m in range(7):
            assert {bidegree(mu) for mu in box.coeff(m)} <= blocks
            assert box.coeff(m) == {mu: c for mu, c in full.coeff(m).items()
                                    if bidegree(mu) in blocks}


def test_hurwitz_value_reads_the_box_of_its_type():
    full = series(SIGNED, enumerate_bidegrees(6), 5, True)
    for m in range(6):
        for mu, c in full.coeff(m).items():
            assert value(SIGNED, mu, m) == c
