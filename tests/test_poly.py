"""Tests for the labelled series store, its exp and log, and the power-sum
reference they are checked against."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realhurwitz
from power_sum_reference import add, mul, power_sum_exp, power_sum_log, series_mul
from realhurwitz.evolution import connected_series, disconnected_series
from realhurwitz.model import (
    EMPTY_TYPE,
    Bidegree,
    enumerate_bidegrees,
    enumerate_types,
    p_minus,
    p_plus,
    q_var,
    rtype,
)
from realhurwitz.nonsep import TILDE_EMPTY, tilde_enumerate_types, ttype
from realhurwitz.poly import (
    LabelledSeries,
    series_exp,
    series_log,
)


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


def test_series_exp_log_roundtrip():
    h = store({p_plus(1): 1, q_var(1): 1}, {p_plus(2): 1}, {p_plus(3): 2, p_minus(1): 1},
              grades=enumerate_bidegrees(6))
    big = series_exp(h, 2, enumerate_bidegrees(6))
    assert big.value(EMPTY_TYPE, 0) == 1
    back = series_log(big, 2, enumerate_bidegrees(6))
    assert back.coeffs == h.coeffs


def test_series_exp_constant_term_is_exponential():
    big = series_exp(store({}, {}, {}, {}, grades=enumerate_bidegrees(4)), 3,
                     enumerate_bidegrees(4))
    for m in range(4):
        assert big.coeff(m) == ({EMPTY_TYPE: 1} if m == 0 else {})


@pytest.mark.parametrize("transform", [series_exp, series_log], ids=["exp", "log"])
def test_exp_and_log_take_only_the_labelled_store(transform):
    # the package exports the one type they take; the rational coefficients
    # a series yields are refused by name rather than failing inside
    assert realhurwitz.LabelledSeries is LabelledSeries
    with pytest.raises(TypeError, match="LabelledSeries"):
        transform(connected_series(2, 2).coeffs, 2, [(0, 0)])


@pytest.mark.parametrize("transform, given, max_m", [
    (series_log, disconnected_series(2, 2), 4),
    (series_log, disconnected_series(2, 2), 3),
    (series_exp, connected_series(2, 2), 3),
    (series_log, disconnected_series(2, 2), -1),
    (series_exp, connected_series(2, 2), -1),
    (series_log, disconnected_series(2, 2), True),
    (series_exp, connected_series(2, 2), True),
], ids=["log-above", "log-one-above", "exp-above", "log-negative", "exp-negative",
        "log-bool", "exp-bool"])
def test_exp_and_log_refuse_an_order_they_cannot_compute(transform, given, max_m):
    # an order above the input's would read its missing orders as zero:
    # the log of the disconnected series through u^2, taken to u^4, would
    # be empty at m = 3 and 4, where the connected series is not
    with pytest.raises(ValueError, match="max_m"):
        transform(given, max_m, enumerate_bidegrees(2))


@pytest.mark.parametrize("transform, given, grade", [
    (series_log, disconnected_series(2, 2), Bidegree(3, 0)),
    (series_exp, connected_series(2, 2), Bidegree(2, 1)),
], ids=["log", "exp"])
def test_exp_and_log_refuse_a_listed_grade_their_input_lacks(transform, given, grade):
    # read as zeros, the missing piece would give the log -1/6 at p_1^+3,
    # m = 0, and the exp 0 at p_3^+, m = 2, where the true values are 0 and 1
    with pytest.raises(ValueError, match=r"grade \(\d, \d\) is listed but was not computed"):
        transform(given, 2, enumerate_bidegrees(2) + [grade])


@pytest.mark.parametrize("transform, given, connected", [
    (series_log, disconnected_series(2, 3), False),
    (series_exp, connected_series(2, 3), True),
], ids=["log", "exp"])
def test_exp_and_log_refuse_a_piece_shorter_than_the_order(transform, given, connected):
    # read as zeros, the orders the piece of (1, 1) lacks would give both
    # the log and the exp 0 at p_2^+, m = 1, where the true value is 1
    pieces = dict(given.pieces)
    pieces[Bidegree(1, 1)] = pieces[Bidegree(1, 1)][:1]
    with pytest.raises(ValueError, match=r"grade \(1, 1\) stops at u\^0, below u\^3"):
        transform(LabelledSeries(pieces, 3, connected), 3, enumerate_bidegrees(2))
    # the same cut asked for through u^0 only is complete
    assert transform(LabelledSeries(pieces, 3, connected), 0, enumerate_bidegrees(2)) \
        .coeffs == transform(given, 0, enumerate_bidegrees(2)).coeffs


def test_exp_and_log_through_a_lower_order_truncate():
    grades = enumerate_bidegrees(3)
    assert series_log(disconnected_series(3, 4), 2, grades).coeffs == \
        connected_series(3, 2).coeffs
    assert series_exp(connected_series(3, 4), 2, grades).coeffs == \
        disconnected_series(3, 2).coeffs


def test_series_log_requires_unit_constant():
    with pytest.raises(ValueError):
        series_log(store({}, connected=False), 0, enumerate_bidegrees(2))


@pytest.mark.parametrize("constant, transform", [
    (Fraction(3, 2), lambda s: series_log(s, 0, enumerate_bidegrees(2))),
    (Fraction(1, 2), lambda s: series_exp(s, 0, enumerate_bidegrees(2))),
], ids=["log", "exp"])
def test_non_integer_constant_is_rejected(constant, transform):
    # log needs the constant monomial 1 at m=0 and exp needs 0
    bad = store({EMPTY_TYPE: constant, p_plus(1): 1}, connected=False)
    with pytest.raises(ValueError):
        transform(bad)


def test_labelled_series_rejects_a_key_in_two_pieces():
    # p+_1 belongs to grade (1, 0); listing it under (2, 0) as well would
    # join the two entries when the pieces merge
    series = LabelledSeries({Bidegree(1, 0): [{p_plus(1): 1}],
                             Bidegree(2, 0): [{p_plus(1): 2}]}, 0, False)
    with pytest.raises(ValueError):
        series.coeff(0)
    with pytest.raises(ValueError):
        series.rows()
    with pytest.raises(ValueError):
        series.records()
    with pytest.raises(ValueError):
        series_log(LabelledSeries({**series.pieces, Bidegree(0, 0): [{EMPTY_TYPE: 1}]}, 0,
                                  False), 0, [Bidegree(0, 0), Bidegree(1, 0), Bidegree(2, 0)])


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


def test_series_log_rejects_grades_missing_a_smaller_one():
    big = series_exp(store({p_plus(1): 1}, grades=enumerate_bidegrees(2)), 0,
                     enumerate_bidegrees(2))
    with pytest.raises(ValueError):
        series_log(big, 0, [Bidegree(0, 0), Bidegree(1, 1)])


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


@pytest.mark.parametrize("h, grades, empty", [
    (SIGNED_LABELLED, enumerate_bidegrees(6), EMPTY_TYPE),
    (UNSIGNED_LABELLED, [(n,) for n in range(7)], TILDE_EMPTY),
], ids=["signed", "unsigned"])
def test_rational_exp_log_round_trip_matches_power_sums(h, grades, empty):
    rational = h.coeffs
    assert len(rational) == 4 and rational[3] == {}
    assert any(c.denominator > 1 for vector in rational for c in vector.values())
    big = series_exp(h, 3, grades, empty)
    assert big.coeffs == power_sum_exp(rational, 3, 6, empty)
    assert big.value(empty, 0) == 1
    back = series_log(big, 3, grades)
    assert back.coeffs == rational
    assert back.coeffs == power_sum_log(big.coeffs, 3, 6)


@st.composite
def labelled_vectors(draw, keys):
    """Labelled vectors {key: int} for m = 0 .. at most 3, entries in [-9, 9]."""
    vectors = [{} for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    entries = st.tuples(st.sampled_from(keys),
                        st.integers(min_value=0, max_value=len(vectors) - 1),
                        st.integers(min_value=-9, max_value=9))
    for k, m, x in draw(st.lists(entries, max_size=6)):
        vectors[m][k] = x
    return vectors


@pytest.mark.parametrize("keys, grades, empty, max_degree", [
    ([mu for b in enumerate_bidegrees(4) if any(b)
      for mu in enumerate_types(b)],
     enumerate_bidegrees(4), EMPTY_TYPE, 4),
    ([mu for n in range(1, 7) for mu in tilde_enumerate_types(n)],
     [(n,) for n in range(7)], TILDE_EMPTY, 6),
], ids=["signed", "unsigned"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_exp_and_log_of_an_integer_store_are_integers(keys, grades, empty, max_degree, data):
    vectors = data.draw(labelled_vectors(keys))
    max_m = len(vectors) - 1
    h = store(*vectors, grades=grades)
    big = series_exp(h, max_m, grades, empty)
    assert big.coeffs == power_sum_exp(h.coeffs, max_m, max_degree, empty)
    back = series_log(big, max_m, grades)
    assert back.coeffs == h.coeffs
    unit = store({**vectors[0], empty: 1}, *vectors[1:], connected=False, grades=grades)
    conn = series_log(unit, max_m, grades)
    assert conn.coeffs == power_sum_log(unit.coeffs, max_m, max_degree)
    for result in (big, back, conn):
        assert all(type(x) is int for piece in result.pieces.values()
                   for vector in piece for x in vector.values())
