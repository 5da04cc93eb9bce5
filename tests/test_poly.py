"""Tests for the labelled series store, the connected series' refusals, and
the power-sum exp and log that the series are checked against."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from power_sum_reference import add, mul, power_sum_exp, power_sum_log, series_mul
from realhurwitz.evolution import SIGNED
from realhurwitz.model import (
    Bidegree,
    enumerate_bidegrees,
    enumerate_types,
    label,
    p_minus,
    p_plus,
    q_var,
    rtype,
    types_by_grade,
)
from realhurwitz.nonsep import UNSIGNED, ttype
from realhurwitz.operators import evolve
from realhurwitz.poly import LabelledSeries, series


def vec(*pairs):
    return {mu: Fraction(c) for mu, c in pairs}


def store(*vectors, connected=True, grades=()):
    """A LabelledSeries of labelled vectors {key: x}, one for each m, with a
    piece for each listed grade, empty where no vector has a key of it."""
    pieces: dict = {g: [{} for _ in vectors] for g in grades}
    for m, vector in enumerate(vectors):
        for k, x in vector.items():
            pieces.setdefault(k.grade, [{} for _ in vectors])[m][k] = x
    return LabelledSeries(pieces, len(vectors) - 1, connected)


def test_zero_coefficients_are_dropped():
    # by the reference sum, and by the store's coefficient of one order
    assert add(vec((p_plus(1), 1)), vec((p_plus(1), 1)), -1) == {}
    series = store({p_plus(1): 0, q_var(1): 2, rtype((1, 1)): 0}, {p_plus(1): 0})
    assert series.coeff(0) == {q_var(1): 2} and series.coeff(1) == {}


def test_reference_add_scales_its_second_term():
    v = vec((p_plus(1), 1), (q_var(1), 2))
    w = add(v, v, Fraction(1, 2))
    assert w == {p_plus(1): Fraction(3, 2), q_var(1): 3}


def test_mul_merges_types():
    v = vec((p_plus(2), 1))
    w = vec((p_minus(1), 1), (q_var(1), 1))
    assert mul(v, w) == {rtype((2,), (1,)): 1, rtype((2,), (), (1,)): 1}


def test_mul_respects_degree_cap():
    v = vec((p_plus(2), 1), (p_plus(1), 1))
    prod = mul(v, v, max_degree=3)
    assert prod == {rtype((1, 1), ()): 1, rtype((2, 1), ()): 2}


def test_mul_collects_automorphic_monomials():
    v = vec((p_plus(1), 1))
    assert mul(v, v) == {rtype((1, 1), ()): 1}


def test_series_mul_uses_binomial_convolution():
    # (sum p_1 u^m/m!) squared has coefficient 2^m p_1^2 at u^m/m!.
    one = vec((p_plus(1), 1))
    s = [one for _ in range(4)]
    sq = series_mul(s, s, 3, 10)
    for m in range(4):
        assert sq[m] == {rtype((1, 1), ()): 2 ** m}


def test_exp_and_log_through_a_lower_order_truncate():
    # the connected series (the log) and the disconnected one (its exp)
    # through u^2 are those through u^4 cut at u^2
    for connected in (True, False):
        assert series(SIGNED, enumerate_bidegrees(3), 4, connected).coeffs[:3] == \
            series(SIGNED, enumerate_bidegrees(3), 2, connected).coeffs


def test_labelled_series_rejects_a_key_in_two_pieces():
    # p+_1 belongs to grade (1, 0); listing it under (2, 0) as well would
    # join the two entries when the pieces merge
    series = LabelledSeries({Bidegree(1, 0): [{p_plus(1): 1}],
                             Bidegree(2, 0): [{p_plus(1): 2}]}, 0, False)
    with pytest.raises(ValueError):
        series.coeff(0)
    with pytest.raises(ValueError):
        series.records()


def test_records_refuse_a_key_in_two_pieces_before_any_record():
    # order 0 holds good entries only; p+_1 appears in a second piece at
    # order 1, so a check made while the records are read would yield the
    # order-0 records first. records() raises on the call itself
    series = LabelledSeries({Bidegree(1, 0): [{p_plus(1): 1}, {}],
                             Bidegree(1, 1): [{rtype((1,), (1,)): 1}, {}],
                             Bidegree(2, 0): [{rtype((1, 1)): 2}, {p_plus(1): 2}]}, 1, False)
    with pytest.raises(ValueError, match="two pieces"):
        series.records()
    fixed = series._replace(pieces={**series.pieces,
                                    Bidegree(2, 0): [{rtype((1, 1)): 2}, {}]})
    assert [r[:2] for r in fixed.records()] == [(0, p_plus(1)), (0, rtype((1,), (1,))),
                                                (0, rtype((1, 1)))]


def test_the_connected_series_rejects_grades_missing_a_smaller_one():
    # the piece of a grade is made of the pieces below it: one missing would
    # read as zero. The disconnected series evolves each grade on its own
    for model, grades in [(SIGNED, [Bidegree(0, 0), Bidegree(1, 1)]),
                          (SIGNED, [Bidegree(0, 0), Bidegree(1, 0), Bidegree(2, 1)]),
                          (UNSIGNED, [(0,), (1,), (3,)])]:
        with pytest.raises(ValueError, match="without a smaller one"):
            series(model, grades, 2, True)
        assert series(model, grades, 2, False).pieces.keys() == set(grades)


# labelled entries that their label factors (2, 4 or 6) do not divide, so
# the coefficients keep denominators: 2, 4 and 6 signed, 2 and 6 unsigned;
# both are written through u^3, where they are zero
SIGNED_LABELLED = store(
    {rtype((1,), (1,)): 1, q_var(1): 1, rtype((1, 1), ()): 1},
    {p_plus(3): 1, p_minus(1): 2},
    {rtype((), (1, 1, 1)): -5, rtype((3,), (1,)): 3},
    {}, grades=enumerate_bidegrees(6))

UNSIGNED_LABELLED = store(
    {ttype(kappa_odd=(1,)): 1, ttype(lam=(1,)): 1},
    {ttype(kappa_plus=(2,)): 1, ttype(kappa_odd=(1, 1)): 3},
    {ttype(kappa_odd=(3,)): -1, ttype(kappa_plus=(2,), kappa_odd=(1,)): 5},
    {}, grades=[(n,) for n in range(7)])


@pytest.mark.parametrize("h, empty", [
    (SIGNED_LABELLED, rtype()),
    (UNSIGNED_LABELLED, ttype()),
], ids=["signed", "unsigned"])
def test_rational_exp_log_round_trip_matches_power_sums(h, empty):
    # the power-sum exp and log, which the series are checked against,
    # invert each other on coefficients with denominators
    rational = h.coeffs
    assert len(rational) == 4 and rational[3] == {}
    assert any(c.denominator > 1 for vector in rational for c in vector.values())
    big = power_sum_exp(rational, 3, 6, empty)
    assert big[0][empty] == 1 and all(empty not in vector for vector in big[1:])
    assert power_sum_log(big, 3, 6) == rational


def _variables(types):
    return [mu for mu in types if sum(map(len, mu)) == 1]


@pytest.mark.parametrize("model, variables, grades, empty", [
    (SIGNED, _variables(mu for b in enumerate_bidegrees(4) for mu in enumerate_types(b)),
     enumerate_bidegrees(4), rtype()),
    (UNSIGNED, _variables(mu for n in range(1, 5) for mu in types_by_grade(ttype, n)[(n,)]),
     [(n,) for n in range(5)], ttype()),
], ids=["signed", "unsigned"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_exp_and_log_of_an_integer_store_are_integers(model, variables, grades, empty, data):
    # a start of random labelled ints on the variables: its exp is an integer
    # store, and the connected series flowed from it is integral and is the
    # power-sum log of that exp's evolution
    start = data.draw(st.dictionaries(st.sampled_from(variables),
                                      st.integers(min_value=-9, max_value=9), max_size=6))
    max_m = data.draw(st.integers(min_value=0, max_value=3))
    exp = {mu: c * label(mu.grade) for mu, c in
           power_sum_exp([store(start).coeff(0)], 0, 4, empty)[0].items()}
    assert all(x.denominator == 1 for x in exp.values())
    evolved = model._replace(start=lambda g: {mu: int(x) for mu, x in exp.items()
                                              if mu.grade == g})
    disc = LabelledSeries({g: evolve(evolved, g, max_m) for g in grades}, max_m, False)
    flowed = model._replace(start=lambda g: {mu: x for mu, x in start.items() if mu.grade == g})
    conn = series(flowed, grades, max_m, True)
    assert conn.coeffs == power_sum_log(disc.coeffs, max_m, 4)
    assert all(type(x) is int for piece in conn.pieces.values()
               for vector in piece for x in vector.values())
