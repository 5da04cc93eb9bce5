"""Tests for sparse polynomial vectors and exponential series transforms."""

from fractions import Fraction

import pytest

from power_sum_reference import power_sum_exp, power_sum_log, series_mul
from realhurwitz.model import (
    EMPTY_TYPE,
    Bidegree,
    enumerate_bidegrees,
    p_minus,
    p_plus,
    q_var,
    rtype,
    zeta,
)
from realhurwitz.nonsep import TILDE_EMPTY, ttype
from realhurwitz.poly import (
    LabelledSeries,
    PolyVector,
    USeries,
    scalar_product,
    series_exp,
    series_log,
    vector_bidegree,
)


def vec(*pairs):
    return PolyVector({mu: Fraction(c) for mu, c in pairs})


def test_monomial_and_coeff():
    v = PolyVector.monomial(p_plus(2), Fraction(3))
    assert v.coeff(p_plus(2)) == 3
    assert v.coeff(p_plus(1)) == 0


def test_zero_coefficients_are_dropped():
    v = vec((p_plus(1), 1)) - vec((p_plus(1), 1))
    assert not v.terms
    assert v == PolyVector.zero()


def test_add_scale():
    v = vec((p_plus(1), 1), (q_var(1), 2))
    w = v + v.scale(Fraction(1, 2))
    assert w.coeff(p_plus(1)) == Fraction(3, 2)
    assert w.coeff(q_var(1)) == 3


def test_mul_merges_types():
    v = vec((p_plus(2), 1))
    w = vec((p_minus(1), 1), (q_var(1), 1))
    prod = v.mul(w)
    assert prod.coeff(rtype((2,), (1,))) == 1
    assert prod.coeff(rtype((2,), (), (1,))) == 1


def test_mul_respects_degree_cap():
    v = vec((p_plus(2), 1), (p_plus(1), 1))
    prod = v.mul(v, max_degree=3)
    assert prod.coeff(rtype((1, 1), ())) == 1
    assert prod.coeff(rtype((2, 1), ())) == 2
    assert prod.coeff(rtype((2, 2), ())) == 0


def test_mul_collects_automorphic_monomials():
    v = vec((p_plus(1), 1))
    assert v.mul(v).coeff(rtype((1, 1), ())) == 1


def test_restrict_degree():
    v = vec((p_plus(1), 1), (p_plus(3), 1))
    assert v.restrict_degree(2) == vec((p_plus(1), 1))


def test_vector_bidegree_on_homogeneous_input():
    v = vec((q_var(1), 1), (rtype((1,), (1,)), 2))
    assert vector_bidegree(v) == (1, 1)


def test_scalar_product_diagonal():
    a = vec((p_plus(2), 1), (q_var(1), 3))
    b = vec((p_plus(2), 5), (p_minus(1), 7))
    assert scalar_product(a, b) == 5 * zeta(p_plus(2))
    assert scalar_product(a, a) == zeta(p_plus(2)) + 9 * zeta(q_var(1))


def test_useries_coeff_pads_with_zero():
    s = USeries((vec((p_plus(1), 1)),), connected=True)
    assert s.coeff(0).coeff(p_plus(1)) == 1
    assert s.coeff(5) == PolyVector.zero()


def test_series_mul_uses_binomial_convolution():
    # (sum p_1 u^m/m!) squared has coefficient 2^m p_1^2 at u^m/m!.
    one = vec((p_plus(1), 1))
    s = USeries(tuple(one for _ in range(4)), connected=False)
    sq = series_mul(s, s, 3, 10)
    for m in range(4):
        assert sq.coeff(m).coeff(rtype((1, 1), ())) == 2 ** m


def test_series_exp_log_roundtrip():
    h = USeries(
        (vec((p_plus(1), 1), (q_var(1), Fraction(1, 2))),
         vec((p_plus(2), 1)),
         vec((p_plus(3), 2), (p_minus(1), 1))),
        connected=True)
    big = series_exp(h, 2, enumerate_bidegrees(6))
    assert big.coeff(0).coeff(EMPTY_TYPE) == 1
    back = series_log(big, 2, enumerate_bidegrees(6))
    for m in range(3):
        assert back.coeff(m) == h.coeff(m)


def test_series_exp_constant_term_is_exponential():
    zero = USeries((PolyVector.zero(),), connected=True)
    big = series_exp(zero, 3, enumerate_bidegrees(4))
    for m in range(4):
        assert big.coeff(m) == (vec((EMPTY_TYPE, 1)) if m == 0 else PolyVector.zero())


def test_series_log_requires_unit_constant():
    bad = USeries((PolyVector.zero(),), connected=False)
    with pytest.raises(ValueError):
        series_log(bad, 0, enumerate_bidegrees(2))


@pytest.mark.parametrize("constant, transform", [
    (Fraction(3, 2), lambda s: series_log(s, 0, enumerate_bidegrees(2))),
    (Fraction(1, 2), lambda s: series_exp(s, 0, enumerate_bidegrees(2))),
], ids=["log", "exp"])
def test_non_integer_constant_is_rejected(constant, transform):
    # the grade substitution cannot scale grade zero, so the constant must
    # be an integer; log then needs 1, exp needs 0
    bad = USeries((vec((EMPTY_TYPE, constant), (p_plus(1), 1)),), connected=False)
    with pytest.raises(ValueError):
        transform(bad)


def test_labelled_series_rejects_a_key_in_two_pieces():
    # p+_1 belongs to grade (1, 0); listing it under (2, 0) as well would
    # join the two entries when the pieces merge
    series = LabelledSeries({Bidegree(1, 0): [{p_plus(1): 1}],
                             Bidegree(2, 0): [{p_plus(1): 2}]}, 0, False)
    with pytest.raises(ValueError):
        series.to_useries()
    with pytest.raises(ValueError):
        series.rows(repr, lambda mu, m: 0)
    with pytest.raises(ValueError):
        series_log(LabelledSeries({**series.pieces, Bidegree(0, 0): [{EMPTY_TYPE: 1}]}, 0,
                                  False), 0, [Bidegree(0, 0), Bidegree(1, 0), Bidegree(2, 0)])


def test_series_log_rejects_grades_missing_a_smaller_one():
    big = series_exp(USeries((vec((p_plus(1), 1)),)), 0, enumerate_bidegrees(2))
    with pytest.raises(ValueError):
        series_log(big, 0, [Bidegree(0, 0), Bidegree(1, 1)])


# denominators 3, 5 and 7 that no label factor clears; p+_2 (1/2) lies in
# bidegree (1, 1), whose label factor is 1
SIGNED_RATIONAL = USeries((
    vec((rtype((1,), (1,)), Fraction(1, 3)), (q_var(1), 1)),
    vec((p_plus(2), Fraction(1, 2)), (p_minus(1), Fraction(2, 5))),
    vec((p_plus(3), Fraction(-1, 7)))), connected=True)

UNSIGNED_RATIONAL = USeries((
    vec((ttype(kappa_odd=(1,)), Fraction(1, 3)), (ttype(lam=(1,)), Fraction(1, 3))),
    vec((ttype(kappa_plus=(2,)), Fraction(2, 5))),
    vec((ttype(kappa_odd=(3,)), Fraction(-1, 7)))), connected=True)


@pytest.mark.parametrize("h, grades, empty", [
    (SIGNED_RATIONAL, enumerate_bidegrees(6), EMPTY_TYPE),
    (UNSIGNED_RATIONAL, [(n,) for n in range(7)], TILDE_EMPTY),
], ids=["signed", "unsigned"])
def test_rational_exp_log_round_trip_matches_power_sums(h, grades, empty):
    big = series_exp(h, 3, grades, empty)
    assert big == power_sum_exp(h, 3, 6, empty)
    assert big.coeff(0).coeff(empty) == 1
    back = series_log(big, 3, grades)
    assert back == h
    assert back == power_sum_log(big, 3, 6)
