"""The connected series, flowed by its own cut-and-join equation, against
the power-sum log of the disconnected series and against the walks; and the
bidegree-box truncation against the total-degree one."""

import pytest

from power_sum_reference import power_sum_exp, power_sum_log
from realhurwitz import connected
from realhurwitz.evolution import SIGNED
from realhurwitz.model import Bidegree, bidegree, bidegree_box, enumerate_bidegrees, label, rtype
from realhurwitz.nonsep import UNSIGNED, UNSIGNED_WALK, ttype
from realhurwitz.oracle import SIGNED_WALK, walk_totals
from realhurwitz.poly import series, value


@pytest.mark.parametrize("model, grades, max_degree", [
    (SIGNED, enumerate_bidegrees(8), 8),
    (UNSIGNED, [(n,) for n in range(7)], 6),
], ids=["signed", "unsigned"])
def test_log_matches_power_sum(model, grades, max_degree):
    disc = series(model, grades, 6, False)
    got = series(model, grades, 6, True)
    assert got.connected and any(got.coeffs)
    assert got.coeffs == power_sum_log(disc.coeffs, 6, max_degree)


@pytest.mark.parametrize("model, walks, grades, empty", [
    (SIGNED, SIGNED_WALK, enumerate_bidegrees(5), rtype()),
    (UNSIGNED, UNSIGNED_WALK, [(n,) for n in range(7)], ttype()),
], ids=["signed", "unsigned"])
def test_the_exp_of_the_connected_series_is_the_walk_totals(model, walks, grades, empty):
    conn = series(model, grades, 5, True)
    assert all(type(x) is int for piece in conn.pieces.values() for vec in piece
               for x in vec.values())
    regrown = power_sum_exp(conn.coeffs, 5, max(map(sum, grades)), empty)
    for g in grades:
        assert walk_totals(walks, g, 5) == tuple(
            {mu: c * label(g) for mu, c in vec.items() if mu.grade == g} for vec in regrown)


@pytest.fixture(scope="module")
def signed_log():
    """The power-sum log of the signed series on total degree 8 through u^6."""
    return power_sum_log(series(SIGNED, enumerate_bidegrees(8), 6, False).coeffs, 6, 8)


# each a broken step of the flow: a pair of distinct grades counted once, the
# sum left unhalved, beta's sign flipped, a start keeping two-variable entries
@pytest.mark.parametrize("name, mutant", [
    ("_grade_pairs", lambda pairs: lambda b, grades: [(c, d, w // (1 + (c != d)))
                                                      for c, d, w in pairs(b, grades)]),
    ("_halved", lambda halved: lambda total: {k: x for k, x in total.items() if x}),
    ("_beta", lambda beta: lambda column, v, w: {nu: -x for nu, x in beta(column, v, w).items()}),
    ("_start", lambda start: lambda model, g: {mu: x for mu, x in model.start(g).items()
                                               if sum(map(len, mu)) <= 2}),
], ids=["pair-once", "no-halving", "beta-flipped", "two-variable-start"])
def test_the_power_sum_comparison_sees_a_broken_flow(monkeypatch, signed_log, name, mutant):
    assert series(SIGNED, enumerate_bidegrees(8), 6, True).coeffs == signed_log
    monkeypatch.setattr(connected, name, mutant(getattr(connected, name)))
    with pytest.raises((AssertionError, ArithmeticError)):
        assert series(SIGNED, enumerate_bidegrees(8), 6, True).coeffs == signed_log


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
