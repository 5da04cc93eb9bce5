"""Tests for the operator-flow series and the genus-zero consequences."""

from fractions import Fraction

import pytest

from realhurwitz.evolution import (
    box_series,
    connected_series,
    disconnected_series,
    evolve_labelled,
    hurwitz_value,
    table_rows,
)
from realhurwitz.genus0 import (
    G0Type,
    genus0_pde_residuals,
    genus0_series,
    genus0_single_part_values,
    genus0_unit_values,
    verify_genus0_pde,
)
from realhurwitz.model import (
    Bidegree,
    EMPTY_TYPE,
    enumerate_bidegrees,
    label,
    p_minus,
    p_plus,
    q_var,
    rtype,
)
from realhurwitz.oracle import labelled_by_paths
from realhurwitz.poly import LabelledSeries, PolyVector, series_exp


def test_initial_vector_small_blocks():
    # n+! n-! times the coefficients: 1 and 1 on (1, 1), 1/2 and 1 on (2, 1)
    assert evolve_labelled(Bidegree(1, 1), 0)[0] == {rtype((1,), (1,)): 1, q_var(1): 1}
    assert evolve_labelled(Bidegree(2, 1), 0)[0] == {rtype((1, 1), (1,)): 1,
                                                     rtype((1,), (), (1,)): 2}


def test_evolution_matches_walk_counts():
    for b in enumerate_bidegrees(4):
        vectors = evolve_labelled(b, 5)
        for m in range(6):
            assert vectors[m] == labelled_by_paths(b, m)


def test_disconnected_series_constant_term():
    s = disconnected_series(3, 3)
    assert s.coeff(0).coeff(EMPTY_TYPE) == 1
    for m in range(1, 4):
        assert s.coeff(m).coeff(EMPTY_TYPE) == 0


def test_reads_outside_the_truncation_raise():
    # the box (2, 2) through u^3 knows neither u^6 nor the block (3, 2) of
    # p+_5, where p+_3 at u^6/6! is 4 and p+_5 at u^4/4! is 5
    assert connected_series(5, 6).value(p_plus(3), 6) == 4
    assert connected_series(5, 4).value(p_plus(5), 4) == 5
    for connected in (True, False):
        series = box_series(Bidegree(2, 2), 3, connected)
        for key, m in [(p_plus(3), 6), (p_plus(5), 4), (p_plus(5), 3), (p_plus(2), 4),
                       (p_plus(2), -1)]:
            with pytest.raises(ValueError):
                series.value(key, m)
        for m in (4, -1):
            with pytest.raises(ValueError):
                series.coeff(m)
        # a computed grade reads its zeros, the constant monomial included
        assert series.value(rtype((1, 1), ()), 1) == 0
        assert series.value(EMPTY_TYPE, 3) == 0
        assert series.value(EMPTY_TYPE, 0) == (0 if connected else 1)
        assert series.value(p_plus(2), 1) == 1


def test_connected_series_leading_coefficients():
    conn = connected_series(4, 3)
    assert dict(conn.coeff(0)) == {
        p_plus(1): Fraction(1), p_minus(1): Fraction(1), q_var(1): Fraction(1)}
    assert dict(conn.coeff(1)) == {
        p_plus(2): Fraction(1), p_minus(2): Fraction(1)}
    assert dict(conn.coeff(2)) == {
        p_plus(3): Fraction(1), p_minus(3): Fraction(1),
        rtype((1,), (1,)): Fraction(1), q_var(1): Fraction(1)}
    assert dict(conn.coeff(3)) == {
        rtype((2, 1), ()): Fraction(1), rtype((2,), (1,)): Fraction(1),
        rtype((1,), (2,)): Fraction(1), rtype((), (2, 1)): Fraction(1),
        p_plus(4): Fraction(2), p_minus(4): Fraction(2),
        p_plus(2): Fraction(1), p_minus(2): Fraction(1)}


def test_exp_of_connected_recovers_disconnected():
    blocks = enumerate_bidegrees(4)
    pieces = {b: [{} for _ in range(5)] for b in blocks}
    for m, vector in enumerate(connected_series(4, 4).coeffs):
        for mu, c in vector:
            x = c * label(mu.grade)
            assert x.denominator == 1, (m, mu, c)
            pieces[mu.grade][m][mu] = x.numerator
    regrown = series_exp(LabelledSeries(pieces, 4, True), 4, blocks)
    disc = disconnected_series(4, 4)
    for m in range(5):
        assert regrown.coeff(m) == disc.coeff(m)


def test_series_symmetric_under_sign_swap():
    disc = disconnected_series(6, 6)
    for m in range(7):
        v = disc.coeff(m)
        swapped = v.map_keys(
            lambda mu: rtype(mu.kappa_minus, mu.kappa_plus, mu.lam))
        assert swapped == v


def test_single_pole_parity():
    # One real pole of even order n needs m = n - 1 odd; opposite parities
    # give exact zero.
    for n in range(1, 6):
        for m in range(8):
            value = hurwitz_value(p_plus(n), m)
            if (m - n) % 2 == 0:
                assert value == 0


def test_degree_two_single_pole_values():
    for m in range(10):
        expected = Fraction(1) if m % 2 else Fraction(0)
        assert hurwitz_value(p_plus(2), m) == expected


def test_zigzag_values():
    got = [hurwitz_value(p_plus(n), n - 1) for n in range(1, 9)]
    assert got == [1, 1, 1, 2, 5, 16, 61, 272]


def test_table_rows_filter_and_order():
    rows = table_rows(1, 0, connected=False)
    assert [r.mu for r in rows] == [
        EMPTY_TYPE, p_minus(1), p_plus(1), q_var(1), rtype((1,), (1,))]
    assert all(r.m == 0 and r.value == 1 for r in rows)
    connected_rows = table_rows(1, 0, connected=True)
    assert [r.mu for r in connected_rows] == [p_minus(1), p_plus(1), q_var(1)]


def test_table_rows_connected_excludes_empty_type():
    rows = table_rows(0, 5, connected=True)
    assert rows == []
    rows = table_rows(0, 5, connected=False)
    assert len(rows) == 1
    assert rows[0].mu == EMPTY_TYPE and rows[0].m == 0


def test_genus0_series_halves_unsigned_counts():
    g0 = genus0_series(2, 3)
    assert g0[0].coeff(G0Type((1,), ())) == 1
    assert g0[1].coeff(G0Type((2,), ())) == 1
    assert g0[2].coeff(G0Type((3,), ())) == 1
    assert g0[2].coeff(G0Type((1, 1), ())) == Fraction(1, 2)
    assert g0[2].coeff(G0Type((), (1,))) == Fraction(1, 2)


def test_genus0_single_part_values_match_signed_route():
    assert genus0_single_part_values(8) == [1, 1, 1, 2, 5, 16, 61, 272]


def test_genus0_unit_values():
    got = genus0_unit_values(10)
    assert got == [1, 0, 1, 0, 2, 0, 20, 0, 406, 0, 14652]


def test_genus0_pde_residual_is_zero():
    report = verify_genus0_pde(6, 5)
    assert report.is_zero
    assert report.offending is None


def test_genus0_pde_flags_wrong_series():
    zero = tuple(PolyVector({}) for _ in range(4))
    report = genus0_pde_residuals(zero, 2, 4)
    assert not report.is_zero
    m, key, value = report.offending
    assert (m, key, value) == (0, G0Type((2,), ()), Fraction(-1, 2))
