"""Tests for the operator-flow series and the genus-zero consequences."""

from fractions import Fraction

import pytest

from realhurwitz.evolution import SIGNED
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
    enumerate_types,
    euler_characteristic,
    label,
    p_minus,
    p_plus,
    q_var,
    rtype,
)
from realhurwitz import genus0
from realhurwitz.nonsep import UNSIGNED, UNSIGNED_WALK, ttype
from realhurwitz.oracle import SIGNED_WALK, class_multiplication, states, walk_totals
from realhurwitz.operators import OperatorKind, block_matrix, evolve, operator_matrix
from realhurwitz.explog import series_exp
from realhurwitz.poly import LabelledSeries, series, value


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
    (SIGNED, enumerate_bidegrees(4), 5, SIGNED_WALK),
    (UNSIGNED, [(n,) for n in range(6)], 6, UNSIGNED_WALK),
], ids=["signed", "unsigned"])
def test_evolution_matches_walk_counts(model, grades, max_m, walks):
    for grade in grades:
        assert evolve(model, grade, max_m) == walk_totals(walks, grade, max_m)


def test_disconnected_series_constant_term():
    s = series(SIGNED, enumerate_bidegrees(3), 3, False)
    assert s.coeff(0).get(EMPTY_TYPE, 0) == 1
    for m in range(1, 4):
        assert s.coeff(m).get(EMPTY_TYPE, 0) == 0


def test_reads_outside_the_truncation_raise():
    # the box (2, 2) through u^3 knows neither u^6 nor the block (3, 2) of
    # p+_5, where p+_3 at u^6/6! is 4 and p+_5 at u^4/4! is 5
    assert series(SIGNED, enumerate_bidegrees(5), 6, True).value(p_plus(3), 6) == 4
    assert series(SIGNED, enumerate_bidegrees(5), 4, True).value(p_plus(5), 4) == 5
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


def test_a_read_refuses_an_order_that_is_not_an_int():
    # True and 1.0 equal 1, so a read that took them would answer for m = 1
    conn = series(SIGNED, enumerate_bidegrees(2), 2, True)
    assert conn.coeff(1) == {p_plus(2): 1, p_minus(2): 1}
    for m in (True, False, 1.0):
        with pytest.raises(ValueError, match="order"):
            conn.coeff(m)
        with pytest.raises(ValueError, match="order"):
            conn.value(p_plus(1), m)


def test_connected_series_leading_coefficients():
    conn = series(SIGNED, enumerate_bidegrees(4), 3, True)
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
    for m, vector in enumerate(series(SIGNED, enumerate_bidegrees(4), 4, True).coeffs):
        for mu, c in vector.items():
            x = c * label(mu.grade)
            assert x.denominator == 1, (m, mu, c)
            pieces[mu.grade][m][mu] = x.numerator
    regrown = series_exp(LabelledSeries(pieces, 4, True), 4, blocks)
    disc = series(SIGNED, enumerate_bidegrees(4), 4, False)
    for m in range(5):
        assert regrown.coeff(m) == disc.coeff(m)


def test_series_symmetric_under_sign_swap():
    disc = series(SIGNED, enumerate_bidegrees(6), 6, False)
    for m in range(7):
        v = disc.coeff(m)
        swapped = {rtype(mu.kappa_minus, mu.kappa_plus, mu.lam): c for mu, c in v.items()}
        assert swapped == v


def test_single_pole_parity():
    # One real pole of even order n needs m = n - 1 odd; opposite parities
    # give exact zero.
    for n in range(1, 6):
        for m in range(8):
            count = value(SIGNED, p_plus(n), m)
            if (m - n) % 2 == 0:
                assert count == 0


def test_degree_two_single_pole_values():
    for m in range(10):
        expected = Fraction(1) if m % 2 else Fraction(0)
        assert value(SIGNED, p_plus(2), m) == expected


def test_zigzag_values():
    got = [value(SIGNED, p_plus(n), n - 1) for n in range(1, 9)]
    assert got == [1, 1, 1, 2, 5, 16, 61, 272]


def test_table_rows_filter_and_order():
    box = bidegree_box(Bidegree(1, 1))
    records = list(series(SIGNED, box, 0, False).records())
    assert [r[1] for r in records] == [
        EMPTY_TYPE, p_minus(1), p_plus(1), q_var(1), rtype((1,), (1,))]
    assert all(m == 0 and (num, den) == (1, 1) for m, _, _, num, den in records)
    connected_records = series(SIGNED, box, 0, True).records()
    assert [r[1] for r in connected_records] == [p_minus(1), p_plus(1), q_var(1)]


def test_table_rows_connected_excludes_empty_type():
    box = bidegree_box(Bidegree(0, 0))
    assert list(series(SIGNED, box, 5, True).records()) == []
    records = list(series(SIGNED, box, 5, False).records())
    assert len(records) == 1
    assert records[0][:2] == (0, EMPTY_TYPE)


def test_genus0_series_halves_unsigned_counts():
    g0 = genus0_series(2, 3)
    assert g0[0].get(G0Type((1,), ()), 0) == 1
    assert g0[1].get(G0Type((2,), ()), 0) == 1
    assert g0[2].get(G0Type((3,), ()), 0) == 1
    assert g0[2].get(G0Type((1, 1), ()), 0) == Fraction(1, 2)
    assert g0[2].get(G0Type((), (1,)), 0) == Fraction(1, 2)


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
    # same values from one connected series through the union of their caps
    conn = series(SIGNED, enumerate_bidegrees(8), 10, True)
    assert genus0_single_part_values(8, conn) == genus0_single_part_values(8)
    assert genus0_unit_values(10, conn) == genus0_unit_values(10)
    assert verify_genus0_pde(6, 5, conn) == verify_genus0_pde(6, 5)
    assert genus0._sliced(conn, 7, 5) == genus0_series(7, 5)


# a series that does not reach a check's caps: too low a degree, too few
# orders, the genus-zero tuple instead of the connected series, or not connected
@pytest.mark.parametrize("call", [
    lambda: genus0_single_part_values(5, series(SIGNED, enumerate_bidegrees(2), 4, True)),
    lambda: genus0_single_part_values(5, genus0_series(4, 2)),
    lambda: verify_genus0_pde(2, 4, series(SIGNED, enumerate_bidegrees(2), 3, True)),
    lambda: verify_genus0_pde(2, 4, genus0_series(3, 2)),
    lambda: genus0_unit_values(10, series(SIGNED, enumerate_bidegrees(8), 3, True)),
    lambda: genus0_unit_values(4, series(SIGNED, bidegree_box(Bidegree(2, 2)), 4, True)),
    lambda: genus0_unit_values(4, series(SIGNED, enumerate_bidegrees(3), 4, False)),
], ids=["poles-low-degree", "poles-genus0-tuple", "pde-low-degree", "pde-genus0-tuple",
        "units-few-orders", "units-box", "units-disconnected"])
def test_genus0_checks_refuse_a_series_short_of_their_caps(call):
    with pytest.raises(ValueError, match="connected LabelledSeries"):
        call()


def test_genus0_checks_read_a_series_that_just_reaches_their_caps():
    assert genus0_single_part_values(5, series(SIGNED, enumerate_bidegrees(5), 4, True)) \
        == [1, 1, 1, 2, 5]
    assert genus0_unit_values(4, series(SIGNED, enumerate_bidegrees(3), 4, True)) \
        == [1, 0, 1, 0, 2]
    assert verify_genus0_pde(2, 4, series(SIGNED, enumerate_bidegrees(4), 3, True)).is_zero


def test_genus0_pde_flags_wrong_series():
    zero = ({},) * 4
    report = genus0_pde_residuals(zero, 2, 4)
    assert not report.is_zero
    m, key, value = report.offending
    assert (m, key, value) == (0, G0Type((2,), ()), Fraction(-1, 2))


# each exported entry point refuses a cap that is not a nonnegative int, by
# name, before it computes anything
@pytest.mark.parametrize("call, name", [
    (lambda: series(SIGNED, enumerate_bidegrees(2), -1, True), "max_m"),
    (lambda: series(SIGNED, enumerate_bidegrees(-1), 3, True), "max_degree"),
    (lambda: series(SIGNED, enumerate_bidegrees(2), -1, False), "max_m"),
    (lambda: series(UNSIGNED, [(n,) for n in range(4)], -2, True), "max_m"),
    (lambda: series(UNSIGNED, [(-1,)], 2, True), r"grade\[0\]"),
    (lambda: genus0_unit_values(-1), "max_m"),
    (lambda: genus0_single_part_values(-1), "n_max"),
    (lambda: verify_genus0_pde(2, -1), "max_degree"),
    (lambda: series(SIGNED, [Bidegree(True, 1)], 2, False), r"grade\[0\]"),
    (lambda: series(SIGNED, bidegree_box(Bidegree(2, 2)), 3.0, True), "max_m"),
    (lambda: series(SIGNED, enumerate_bidegrees(2.0), 3, True), "max_degree"),
    (lambda: value(SIGNED, p_plus(2), 1.0), "m"),
    (lambda: value(SIGNED, p_plus(2), False), "m"),
    (lambda: operator_matrix(UNSIGNED, (True,)), r"grade\[0\]"),
    (lambda: states(True, 1), "n_plus"),
    (lambda: class_multiplication(SIGNED_WALK, (True, 1)), r"block\[0\]"),
    (lambda: enumerate_bidegrees(-1), "max_degree"),
    (lambda: enumerate_types((1.0, 1)), "n_plus"),
], ids=["connected-negative-m", "connected-negative-degree", "disconnected-negative-m",
        "tilde-negative-m", "tilde-negative-n", "genus0-units-negative", "genus0-poles-negative",
        "genus0-pde-negative-degree", "table-bool-cap", "table-float-m",
        "connected-float-degree", "value-float-m", "value-bool-m", "tilde-matrix-bool-n",
        "states-bool-size", "mult-c2-bool-bidegree", "bidegrees-negative-degree",
        "types-float-bidegree"])
def test_an_entry_point_refuses_a_malformed_cap(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be a nonnegative int"):
        call()


def test_caps_of_zero_are_accepted():
    assert list(series(SIGNED, bidegree_box(Bidegree(0, 0)), 0, True).records()) == []
    assert list(series(UNSIGNED, [(0,)], 0, True).records()) == []
    assert genus0_single_part_values(0) == []
    assert series(SIGNED, enumerate_bidegrees(2), 0, True).max_m == 0


@pytest.mark.parametrize("b", [(True, 1), (1, False), (1, 1.0), (-1, 0)],
                         ids=["bool-plus", "bool-minus", "float", "negative"])
def test_block_matrix_refuses_a_malformed_bidegree_and_caches_none(b):
    with pytest.raises(ValueError, match="^n_(plus|minus) must be a nonnegative int"):
        block_matrix(OperatorKind.WPLUS, b)
    block = block_matrix(OperatorKind.WPLUS, (1, 1)).block
    assert block == (1, 1) and {type(x) for x in block} == {int}


def test_the_cached_lookups_check_a_size_before_their_cache():
    # True equals 1 and hashes alike, so a cache read first would answer it
    assert states(1, 1) == (frozenset(), frozenset({(0, 1)}))
    block = operator_matrix(UNSIGNED, (1,)).block
    assert block == (1,) and {type(x) for x in block} == {int}
    for call in (lambda: operator_matrix(UNSIGNED, (True,)), lambda: states(True, 1)):
        with pytest.raises(ValueError, match="must be a nonnegative int"):
            call()


# the walk totals, the class search and the evolution check each block
# component and each order before any cache: the int blocks are cached
# first, and True equals 1 and hashes alike, so a cache read first would
# answer a bool block
@pytest.mark.parametrize("call, name", [
    (lambda: walk_totals(SIGNED_WALK, (1, 1), -1), "max_m"),
    (lambda: walk_totals(SIGNED_WALK, (1, 1), True), "max_m"),
    (lambda: walk_totals(SIGNED_WALK, (1, 1), 1.0), "max_m"),
    (lambda: walk_totals(SIGNED_WALK, (True, 1), 2), r"block\[0\]"),
    (lambda: walk_totals(UNSIGNED_WALK, (2,), -1), "max_m"),
    (lambda: walk_totals(UNSIGNED_WALK, (True,), 2), r"block\[0\]"),
    (lambda: class_multiplication(UNSIGNED_WALK, (True,)), r"block\[0\]"),
    (lambda: evolve(SIGNED, (-1, 2), 2), r"grade\[0\]"),
    (lambda: evolve(SIGNED, (1, True), 2), r"grade\[1\]"),
    (lambda: evolve(UNSIGNED, (-2,), 2), r"grade\[0\]"),
    (lambda: evolve(SIGNED, (1, 1), -1), "max_m"),
    (lambda: euler_characteristic(rtype(), True), "m"),
    (lambda: euler_characteristic(rtype(), -1), "m"),
], ids=["paths-negative-m", "paths-bool-m", "paths-float-m", "paths-bool-block",
        "tilde-paths-negative-m", "tilde-paths-bool-n", "tilde-class-bool-n", "evolve-negative-grade", "evolve-bool-grade",
        "evolve-unsigned-negative-grade", "evolve-negative-m", "chi-bool-m", "chi-negative-m"])
def test_walks_and_evolution_refuse_a_malformed_block_or_order(call, name):
    assert (len(walk_totals(SIGNED_WALK, (1, 1), 2))
            == len(walk_totals(UNSIGNED_WALK, (1,), 2)) == 3)
    assert class_multiplication(UNSIGNED_WALK, (1,))
    with pytest.raises(ValueError, match=f"^{name} must be a nonnegative int"):
        call()
