"""Tests for the operator-flow series and the genus-zero consequences."""

from fractions import Fraction

import pytest

from realhurwitz.evolution import (
    SIGNED,
    connected_series,
    disconnected_series,
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
    bidegree_box,
    enumerate_bidegrees,
    label,
    p_minus,
    p_plus,
    q_var,
    rtype,
)
from realhurwitz import genus0
from realhurwitz.nonsep import UNSIGNED, tilde_labelled_by_paths, ttype
from realhurwitz.oracle import labelled_by_paths
from realhurwitz.operators import evolve
from realhurwitz.poly import LabelledSeries, PolyVector, series, series_exp


# label(g) times the coefficients of the start: 1 and 1 on the block (1, 1),
# 1/2 and 1 on (2, 1), and 1/2 and 1/2 on 2 elements
@pytest.mark.parametrize("model, starts", [
    (SIGNED, {Bidegree(1, 1): {rtype((1,), (1,)): 1, q_var(1): 1},
              Bidegree(2, 1): {rtype((1, 1), (1,)): 1, rtype((1,), (), (1,)): 2}}),
    (UNSIGNED, {(2,): {ttype(kappa_odd=(1, 1)): 1, ttype(lam=(1,)): 1}}),
], ids=["signed", "unsigned"])
def test_initial_vector_small_grades(model, starts):
    for grade, start in starts.items():
        assert evolve(model, grade, 0)[0] == start


@pytest.mark.parametrize("model, grades, max_m, walks", [
    (SIGNED, enumerate_bidegrees(4), 5, labelled_by_paths),
    (UNSIGNED, [(n,) for n in range(6)], 6, lambda g, m: tilde_labelled_by_paths(*g, m)),
], ids=["signed", "unsigned"])
def test_evolution_matches_walk_counts(model, grades, max_m, walks):
    for grade in grades:
        assert evolve(model, grade, max_m) == walks(grade, max_m)


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
        box = series(SIGNED, bidegree_box(Bidegree(2, 2)), 3, connected)
        for key, m in [(p_plus(3), 6), (p_plus(5), 4), (p_plus(5), 3), (p_plus(2), 4),
                       (p_plus(2), -1)]:
            with pytest.raises(ValueError):
                box.value(key, m)
        for m in (4, -1):
            with pytest.raises(ValueError):
                box.coeff(m)
        # a computed grade reads its zeros, the constant monomial included
        assert box.value(rtype((1, 1), ()), 1) == 0
        assert box.value(EMPTY_TYPE, 3) == 0
        assert box.value(EMPTY_TYPE, 0) == (0 if connected else 1)
        assert box.value(p_plus(2), 1) == 1


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


def test_genus0_checks_read_a_larger_series_sliced():
    # a coefficient does not depend on the caps, so each check reads the
    # same values from one series through the union of their caps
    series = genus0_series(10, 8)
    assert genus0_single_part_values(8, series) == genus0_single_part_values(8)
    assert genus0_unit_values(10, series) == genus0_unit_values(10)
    assert verify_genus0_pde(6, 5, series) == verify_genus0_pde(6, 5)
    assert genus0._sliced(series, 7, 5) == genus0_series(7, 5)


def test_genus0_pde_flags_wrong_series():
    zero = tuple(PolyVector({}) for _ in range(4))
    report = genus0_pde_residuals(zero, 2, 4)
    assert not report.is_zero
    m, key, value = report.offending
    assert (m, key, value) == (0, G0Type((2,), ()), Fraction(-1, 2))
