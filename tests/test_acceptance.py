"""Acceptance suite: the full battery of published-value and invariant checks.

Every check is exact (rational arithmetic, no tolerance) unless it goes
through the certified floating-point spectral path. The printed genus-zero
unit evaluation lists 1/2 at u^2/2!, where the printed leading expansion, the
walk oracle and the flow equation all force 1. That entry is a recorded
misprint: the test asserts the corrected series, and that the printed one
differs from it there and nowhere else; see the README.
"""

import time
from fractions import Fraction

import pytest

from model_reference import dimension_series
from realhurwitz import operators
from realhurwitz.evolution import SIGNED
from realhurwitz.genus0 import genus0_unit_values, verify_genus0_pde
from realhurwitz.model import (
    Bidegree,
    bidegree_box,
    enumerate_bidegrees,
    enumerate_types,
    euler_characteristic,
    p_minus,
    p_plus,
    q_var,
    rtype,
    zeta,
)
from realhurwitz.nonsep import UNSIGNED, UNSIGNED_WALK, ttype
from realhurwitz.operators import (
    OperatorKind,
    block_matrix,
    evolve,
    powers,
    wminus_column,
    wplus_column,
)
from realhurwitz.oracle import SIGNED_WALK, class_multiplication, walk_totals
from realhurwitz.poly import series, value
from realhurwitz.spectral import (
    common_eigenbasis,
    compare_reference_eigenbasis,
    orthogonality_check,
)
from walk_reference import compose


class Stopwatch:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


# The printed leading expansion of the connected series, u^0 to u^3/3!.
PRINTED_EXPANSION = {
    0: {p_plus(1): 1, p_minus(1): 1, q_var(1): 1},
    1: {p_plus(2): 1, p_minus(2): 1},
    2: {p_plus(3): 1, p_minus(3): 1, rtype((1,), (1,)): 1, q_var(1): 1},
    3: {rtype((2, 1), ()): 1, rtype((2,), (1,)): 1,
        rtype((1,), (2,)): 1, rtype((), (2, 1)): 1,
        p_plus(4): 2, p_minus(4): 2, p_plus(2): 1, p_minus(2): 1},
}

# The printed unit evaluation of the genus-zero series, u^0 to u^10/10!.
PRINTED_UNIT_EVALUATION = [1, 0, Fraction(1, 2), 0, 2, 0, 20, 0, 406, 0, 14652]


def test_leading_expansion_of_the_connected_series():
    with Stopwatch() as watch:
        conn = series(SIGNED, enumerate_bidegrees(4), 3, True)
        for m, printed in PRINTED_EXPANSION.items():
            assert dict(conn.coeff(m)) == printed
    assert watch.elapsed < 1


def test_alternating_permutation_values_up_to_degree_eight():
    with Stopwatch() as watch:
        got = [value(SIGNED, p_plus(n), n - 1) for n in range(1, 9)]
        assert got == [1, 1, 1, 2, 5, 16, 61, 272]
    assert watch.elapsed < 30


def zigzag_numbers(count: int) -> list[int]:
    """The Euler zigzag numbers A000111(0 .. count - 1), the last entries of
    the rows of the Seidel-Entringer-Arnold boustrophedon: each row is the
    running sum, from 0, of the previous row read backwards."""
    row, out = [1], [1]
    while len(out) < count:
        new = [0]
        for x in reversed(row):
            new.append(new[-1] + x)
        row = new
        out.append(row[-1])
    return out


def test_single_pole_counts_are_the_euler_zigzag_numbers_through_twelve():
    # observed, not proven here: the connected count of one real pole of
    # order n at u^(n-1)/(n-1)! is A000111(n-1), and half that for an even
    # pole of the unsigned model; one series per model holds all of them
    zigzag = zigzag_numbers(12)
    assert zigzag[:8] == [1, 1, 1, 2, 5, 16, 61, 272]
    signed = series(SIGNED, bidegree_box(Bidegree(6, 6)), 11, True)
    for pole in (p_plus, p_minus):
        assert [signed.value(pole(n), n - 1) for n in range(1, 13)] == zigzag
    unsigned = series(UNSIGNED, [(n,) for n in range(13)], 11, True)
    for field in ("kappa_plus", "kappa_minus"):
        assert [unsigned.value(ttype(**{field if n % 2 == 0 else "kappa_odd": (n,)}), n - 1)
                for n in range(1, 13)] == [Fraction(z, 2 - n % 2) for n, z in
                                           enumerate(zigzag, 1)]


def test_genus0_unit_evaluation_matches_printed_series():
    # The printed 1/2 at u^2/2! is a misprint. The genus-zero series is half
    # the chi = 2 part of the connected series with signs forgotten, so at
    # p_1 = q_1 = 1 its u^2/2! entry is half the sum of the chi = 2
    # coefficients of the printed u^2/2! expansion whose parts are all one:
    # p+_1 p-_1 and q_1, each 1, give 1. The same half turns the printed u^0
    # terms p+_1 + p-_1 into the printed 1.
    with Stopwatch() as watch:
        got = genus0_unit_values(10)
        assert got == [1, 0, 1, 0, 2, 0, 20, 0, 406, 0, 14652]
        assert [m for m in range(11) if got[m] != PRINTED_UNIT_EVALUATION[m]] == [2]
        unit_terms = [c for mu, c in PRINTED_EXPANSION[2].items()
                      if euler_characteristic(mu, 2) == 2
                      and set(mu.kappa_plus + mu.kappa_minus + mu.lam) == {1}]
        assert got[2] == Fraction(sum(unit_terms), 2)
    assert watch.elapsed < 60


def test_connected_count_order_three_pole_six_branch_points():
    with Stopwatch() as watch:
        assert value(SIGNED, p_plus(3), 6) == 4
        assert value(SIGNED, p_minus(3), 6) == 4
        assert value(UNSIGNED, ttype(kappa_odd=(3,)), 6) == 9
    assert watch.elapsed < 10


def test_order_two_pole_family_alternates():
    for m in range(10):
        expected = Fraction(1) if m % 2 else Fraction(0)
        assert value(SIGNED, p_plus(2), m) == expected


def test_operator_blocks_equal_class_multiplication_matrices():
    with Stopwatch() as watch:
        for b in enumerate_bidegrees(5):
            plus = block_matrix(OperatorKind.WPLUS, b)
            minus = block_matrix(OperatorKind.WMINUS, b)
            assert plus.columns == class_multiplication(SIGNED_WALK, b, "left")
            assert minus.columns == class_multiplication(SIGNED_WALK, b, "right")
    assert watch.elapsed < 120


@pytest.mark.parametrize("model, walks, grades", [
    (SIGNED, SIGNED_WALK, enumerate_bidegrees(5)),
    (UNSIGNED, UNSIGNED_WALK, [(n,) for n in range(5)]),
], ids=["signed", "unsigned"])
def test_walk_counts_equal_evolution_coefficients(model, walks, grades):
    with Stopwatch() as watch:
        for grade in grades:
            assert evolve(model, grade, 6) == walk_totals(walks, grade, 6)
    assert watch.elapsed < 120


def test_operators_commute_and_are_zeta_self_adjoint():
    # composes the sparse columns; zeta-self-adjoint means the entry at
    # (nu, mu) times zeta(nu) equals the entry at (mu, nu) times zeta(mu),
    # and every pair with a nonzero entry on either side is visited
    for b in enumerate_bidegrees(6):
        wp = block_matrix(OperatorKind.WPLUS, b).columns
        wm = block_matrix(OperatorKind.WMINUS, b).columns
        assert compose(wp, wm) == compose(wm, wp), b
        for name, columns in (("plus", wp), ("minus", wm)):
            for mu, column in columns.items():
                for nu, x in column.items():
                    assert x * zeta(nu) == columns[nu].get(mu, 0) * zeta(mu), (name, b)


def test_dimension_table_matches_product_formula():
    dims = dimension_series(5)
    for (a, b), expected in dims.items():
        assert len(enumerate_types(Bidegree(a, b))) == expected

    def row(total):
        return [dims[(a, total - a)] for a in range(total, -1, -1)]

    assert row(2) == [1, 4, 1]
    assert row(3) == [1, 5, 5, 1]
    assert row(4) == [1, 5, 15, 5, 1]
    assert row(5) == [1, 5, 19, 19, 5, 1]


def _blocks_off_direct_evolution(corner: Bidegree, max_m: int) -> list:
    """The blocks of the box under corner on which a piece of the
    disconnected box series, the shared evolve step, the direct evolution of
    the block's own labelled initial vector by the plus operator and that by
    the minus operator are not all equal. A request evolves one block of each
    sign-swap pair and mirrors the other, so this checks every mirrored block,
    and the identity the mirror rests on: W- = S W+ S evolves each initial
    vector to the same values as W+."""
    store = series(SIGNED, bidegree_box(corner), max_m, connected=False)
    initial = SIGNED.start
    return [b for b in bidegree_box(corner)
            if not store.pieces[b] == operators.evolve(SIGNED, b, max_m)
            == powers(wplus_column, initial(b), max_m) == powers(wminus_column, initial(b), max_m)]


def test_disconnected_series_under_the_sign_swap_equals_direct_evolution():
    with Stopwatch() as watch:
        assert _blocks_off_direct_evolution(Bidegree(7, 7), 12) == []
    assert watch.elapsed < 60


def _evolved_onto_itself(model, b, max_m):
    """A broken mirror: a block with n+ < n- gets the swap of its own
    evolution, not of its partner's."""
    piece = powers(model.column, model.start(b), max_m)
    return operators.mirror(piece) if b.n_plus < b.n_minus else piece


@pytest.mark.parametrize("name, broken", [
    ("mirror", lambda piece: tuple(dict(vec) for vec in piece)),
    ("evolve", _evolved_onto_itself),
], ids=["keys-unswapped", "onto-itself"])
def test_direct_evolution_check_sees_a_broken_mirror(monkeypatch, name, broken):
    monkeypatch.setattr(operators, name, broken)
    off = _blocks_off_direct_evolution(Bidegree(3, 3), 4)
    assert off and all(b.n_plus < b.n_minus for b in off)


def test_genus0_flow_equation_residual_vanishes():
    report = verify_genus0_pde(8, 6)
    assert report.is_zero, report.offending


def test_block_1_1_spectrum_and_reference_comparison():
    report = common_eigenbasis(Bidegree(1, 1))
    assert report.exact
    assert len(report.vectors) == 4
    assert set(report.pairs) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert orthogonality_check(report)
    comparison = compare_reference_eigenbasis()
    # Two printed rows match simultaneous eigenvectors exactly; the other two
    # are recorded as mismatches without failing anything.
    assert [c.matches for c in comparison] == [True, False, True, False]
    assert all(c.pair is not None for c in comparison if c.matches)
