"""The one-pass formal logarithm against the power-sum reference, and the
bidegree-box truncation against the total-degree one."""

import pytest

from power_sum_reference import power_sum_log
from realhurwitz.evolution import (
    box_series,
    connected_series,
    disconnected_series,
    evolve_labelled,
    hurwitz_value,
)
from realhurwitz.model import Bidegree, bidegree, bidegree_box, enumerate_bidegrees
from realhurwitz.nonsep import tilde_evolve_labelled
from realhurwitz.poly import LabelledSeries, series_log


def test_signed_log_matches_power_sum_through_degree_eight():
    blocks = enumerate_bidegrees(8)
    disc = LabelledSeries({b: evolve_labelled(b, 6) for b in blocks}, 6, False)
    got = series_log(disc, 6, blocks)
    assert got.connected and any(got.coeffs)
    assert got.coeffs == power_sum_log(disc.coeffs, 6, 8)


def test_unsigned_log_matches_power_sum_through_six_elements():
    grades = [(n,) for n in range(7)]
    disc = LabelledSeries({g: tilde_evolve_labelled(*g, 6) for g in grades}, 6, False)
    got = series_log(disc, 6, grades)
    assert got.coeffs == power_sum_log(disc.coeffs, 6, 6)


@pytest.mark.parametrize("corner", [(0, 0), (1, 0), (2, 2), (3, 1), (3, 3), (4, 2)])
def test_box_series_equals_total_degree_series_on_the_box(corner):
    corner = Bidegree(*corner)
    blocks = set(bidegree_box(corner))
    for connected in (True, False):
        box = box_series(corner, 6, connected)
        full = (connected_series if connected else disconnected_series)(sum(corner), 6)
        for m in range(7):
            assert {bidegree(mu) for mu, _ in box.coeff(m)} <= blocks
            assert box.coeff(m).terms == {mu: c for mu, c in full.coeff(m)
                                          if bidegree(mu) in blocks}


def test_hurwitz_value_reads_the_box_of_its_type():
    full = connected_series(6, 5)
    for m in range(6):
        for mu, c in full.coeff(m):
            assert hurwitz_value(mu, m) == c
