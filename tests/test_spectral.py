"""Tests for exact and certified-float simultaneous diagonalization."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realhurwitz import spectral
from realhurwitz.model import Bidegree, p_minus, p_plus, q_var, rtype
from realhurwitz.operators import BlockMatrix, OperatorKind, block_matrix
from realhurwitz.spectral import (
    REFERENCE_PATTERNS_1_1,
    charpoly,
    common_eigenbasis,
    compare_reference_eigenbasis,
    eigenvalue_bound,
    integer_roots,
    kernel_basis,
    mean_eigenvalue_check,
    normalize_primitive,
    orthogonality_check,
    simultaneous_eigenvalues,
)


def F(x):
    return Fraction(x)


def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_charpoly_known_matrix():
    # [[2, 1], [1, 2]] has characteristic polynomial x^2 - 4x + 3.
    assert charpoly(mat([[2, 1], [1, 2]])) == (F(3), F(-4), F(1))


def test_charpoly_handles_rational_entries():
    m = mat([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    coeffs = charpoly(m)
    assert coeffs == (Fraction(1, 6), Fraction(-5, 6), F(1))


def test_charpoly_empty_matrix():
    assert charpoly(()) == (F(1),)


def test_integer_roots_with_multiplicity():
    # (x - 1)^2 (x + 3) = x^3 + x^2 - 5x + 3.
    coeffs = (F(3), F(-5), F(1), F(1))
    assert integer_roots(coeffs, 3) == [1, 1, -3]
    # a bound below a root's magnitude misses it
    assert integer_roots(coeffs, 2) is None


def test_integer_roots_rejects_nonintegral_polynomials():
    assert integer_roots((Fraction(1, 2), F(1)), 2) is None
    assert integer_roots((F(1), F(1), F(1)), 2) is None


def test_integer_roots_of_zero_constant():
    # x^2 - x has roots 1 and 0.
    assert integer_roots((F(0), F(-1), F(1)), 1) == [1, 0]


def _times(a, b):
    """Product of two polynomials given as coefficients (c_0, ..., c_n)."""
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), max_size=7))
@example([])
@example([0, 0, 3, -3])
@example([6] * 7)
@example([-6, 6, -6])
def test_integer_roots_scan_finds_every_root_largest_first(roots):
    poly = [F(1)]
    for r in roots:
        poly = _times(poly, [F(-r), F(1)])
    assert integer_roots(poly, 7) == sorted(roots, reverse=True)
    # an irrational factor, or a root beyond the bound, leaves a quotient
    assert integer_roots(_times(poly, [F(-2), F(0), F(1)]), 7) is None
    if any(roots):
        assert integer_roots(poly, max(map(abs, roots)) - 1) is None


def test_eigenvalue_bound_dominates():
    m = mat([[0, 3], [-2, 1]])
    bound = eigenvalue_bound(m)
    assert bound >= 3


def test_kernel_basis():
    m = mat([[1, 1], [1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0


def test_kernel_basis_of_stacked_matrix():
    # more rows than columns, as W+ - a stacked on W- - b has
    m = mat([[1, 1, 0], [0, 0, 1], [2, 2, 0], [0, 0, 3]])
    assert kernel_basis(m) == [(F(-1), F(1), F(0))]


def test_normalize_primitive():
    assert normalize_primitive((Fraction(-1, 2), Fraction(3, 2))) == (F(1), F(-3))
    assert normalize_primitive((F(0), Fraction(2, 3))) == (F(0), F(1))


def test_block_1_1_exact_report():
    rep = common_eigenbasis(Bidegree(1, 1))
    assert rep.exact
    assert set(rep.pairs) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert len(rep.vectors) == 4
    assert orthogonality_check(rep)
    assert mean_eigenvalue_check(rep)


def test_block_1_1_charpoly():
    rep = common_eigenbasis(Bidegree(1, 1))
    # Both operators square to the identity on this block: (x^2 - 1)^2.
    assert rep.charpoly_plus == (F(1), F(0), F(-2), F(0), F(1))
    assert rep.charpoly_minus == rep.charpoly_plus


def test_block_1_1_eigenvectors_in_display_order():
    rep = common_eigenbasis(Bidegree(1, 1))
    display = (p_plus(2), p_minus(2), rtype((1,), (1,)), q_var(1))
    by_pair = {}
    for pair, vec in zip(rep.pairs, rep.vectors):
        poly = {mu: c for mu, c in zip(rep.basis, vec)}
        by_pair[pair] = tuple(poly[mu] for mu in display)
    expected = {
        (1, 1): (1, 1, 1, 1),
        (1, -1): (1, -1, -1, 1),
        (-1, 1): (1, -1, 1, -1),
        (-1, -1): (1, 1, -1, -1),
    }
    for pair, pattern in expected.items():
        got = by_pair[pair]
        assert got == pattern or got == tuple(-x for x in pattern)


def test_reference_comparison_records_two_mismatches():
    comparison = compare_reference_eigenbasis()
    assert [c.pattern for c in comparison] == list(REFERENCE_PATTERNS_1_1)
    assert [c.matches for c in comparison] == [True, False, True, False]
    assert comparison[0].pair == (1, 1)
    assert comparison[2].pair == (-1, 1)
    assert comparison[1].pair is None
    assert comparison[3].pair is None


def test_simultaneous_eigenvalues_detects_non_eigenvectors():
    good = {p_plus(2): F(1), p_minus(2): F(1), rtype((1,), (1,)): F(1), q_var(1): F(1)}
    assert simultaneous_eigenvalues(good) == (1, 1)
    bad = {p_plus(2): F(1)}
    assert simultaneous_eigenvalues(bad) is None


def test_pure_blocks_have_zero_operator():
    # Blocks with a single type have the zero matrix for both operators.
    rep = common_eigenbasis(Bidegree(3, 0))
    assert rep.exact
    assert rep.pairs == ((0, 0),)


def test_float_block_certified():
    rep = common_eigenbasis(Bidegree(2, 1))
    assert not rep.exact
    assert len(rep.pairs) == len(rep.basis) == 5
    assert orthogonality_check(rep)
    assert mean_eigenvalue_check(rep)
    # Eigenvalue pairs include +/- sqrt(2) on this block.
    top = max(p for p, _ in rep.pairs)
    assert abs(top - 2 ** 0.5) < 1e-9


def test_float_block_reports_measured_residual():
    rep = common_eigenbasis(Bidegree(2, 1))
    assert not rep.exact
    assert 0 < rep.max_residual <= rep.tol
    assert rep.max_residual != rep.tol


def test_exact_block_reports_zero_residual():
    assert common_eigenbasis(Bidegree(1, 1)).max_residual == 0.0


BLOCKS = [(p, total - p) for total in range(8) for p in range(total + 1)]


@pytest.mark.parametrize("b", BLOCKS, ids=[f"{p},{q}" for p, q in BLOCKS])
def test_pairs_come_largest_first(b):
    # neither path sorts its pairs: the exact loops run over descending
    # roots, the float clusters over descending W+ eigenvalues
    pairs = common_eigenbasis(Bidegree(*b)).pairs
    assert all(x >= y for x, y in zip(pairs, pairs[1:]))


def test_a_block_whose_plus_charpoly_does_not_factor_never_scans_minus(monkeypatch):
    seen = []

    def counting(coeffs, bound):
        seen.append(coeffs)
        return integer_roots(coeffs, bound)

    monkeypatch.setattr(spectral, "integer_roots", counting)
    rep = common_eigenbasis(Bidegree(4, 2))
    assert not rep.exact and seen == [rep.charpoly_plus]


@pytest.mark.parametrize("b, exact", [((1, 1), True), ((2, 1), False)],
                         ids=["exact", "float"])
def test_orthogonality_check_sees_a_repeated_vector(b, exact):
    rep = common_eigenbasis(Bidegree(*b))
    assert rep.exact is exact and orthogonality_check(rep)
    assert rep.pairs[1] != rep.pairs[0]
    repeated = rep._replace(vectors=(rep.vectors[0],) * 2 + rep.vectors[2:])
    assert not orthogonality_check(repeated)


def test_float_certification_rejects_absurd_tolerance():
    with pytest.raises(RuntimeError):
        common_eigenbasis(Bidegree(2, 2), tol=1e-300)


@pytest.mark.parametrize("tol", [-1.0, 0.0, 1.0, float("inf"), float("nan")])
def test_tolerance_outside_unit_interval_is_rejected(tol):
    with pytest.raises(ValueError):
        common_eigenbasis(Bidegree(1, 1), tol=tol)


@pytest.mark.parametrize("b", [(1, 1), (2, 1), (2, 2)])
def test_charpoly_runs_once_per_matrix(monkeypatch, b):
    import realhurwitz.spectral as spectral

    seen = []

    def counting(m):
        seen.append(m)
        return charpoly(m)

    monkeypatch.setattr(spectral, "charpoly", counting)
    common_eigenbasis(Bidegree(*b))
    # seen keeps every argument alive, so distinct arguments have distinct ids
    assert seen
    assert len({id(m) for m in seen}) == len(seen)


def test_self_adjointness_makes_pairs_real():
    for b in [(2, 2), (3, 1)]:
        rep = common_eigenbasis(Bidegree(*b))
        assert orthogonality_check(rep)
        assert mean_eigenvalue_check(rep)
        assert len(rep.pairs) == len(rep.basis)


def test_small_tolerance_keeps_degenerate_eigenspaces():
    # W+ on block (2,2) has eigenvalues of multiplicity 3 that eigh returns
    # about 1e-15 apart; the residual bound must not split them
    rep = common_eigenbasis(Bidegree(2, 2), tol=1e-15)
    assert not rep.exact
    assert rep.pairs == common_eigenbasis(Bidegree(2, 2)).pairs
    assert rep.max_residual <= 1e-15 * 10


def _perturbed(bm, row):
    """bm with 1 added to the entry at basis[row] of its column at basis[0]:
    the diagonal for row 0, which keeps Z-self-adjointness, an off-diagonal
    entry for row 1, which breaks it."""
    mu, nu = bm.basis[0], bm.basis[row]
    column = {**bm.columns[mu]}
    column[nu] = column.get(nu, 0) + 1
    return BlockMatrix(bm.block, bm.basis, {**bm.columns, mu: column}.__getitem__)


def test_block_structure_check_sees_operators_that_do_not_commute(monkeypatch):
    real = spectral.block_matrix
    monkeypatch.setattr(spectral, "block_matrix", lambda kind, b: (
        _perturbed(real(kind, b), 0) if kind is OperatorKind.WMINUS else real(kind, b)))
    with pytest.raises(RuntimeError, match="fail to commute"):
        common_eigenbasis(Bidegree(1, 1))


def test_block_structure_check_sees_an_operator_that_is_not_self_adjoint(monkeypatch):
    # both kinds return one matrix, so the pair commutes
    plus = _perturbed(block_matrix(OperatorKind.WPLUS, Bidegree(1, 1)), 1)
    monkeypatch.setattr(spectral, "block_matrix", lambda kind, b: plus)
    with pytest.raises(RuntimeError, match="plus operator is not Z-self-adjoint"):
        common_eigenbasis(Bidegree(1, 1))


@pytest.mark.parametrize("b, exact", [((1, 1), True), ((2, 1), False)],
                         ids=["exact", "float"])
def test_mean_eigenvalue_check_sees_a_perturbed_mean_column(monkeypatch, b, exact):
    rep = common_eigenbasis(Bidegree(*b))
    assert rep.exact is exact and mean_eigenvalue_check(rep)
    real = spectral.block_matrix
    monkeypatch.setattr(spectral, "block_matrix", lambda kind, b: (
        _perturbed(real(kind, b), 1) if kind is OperatorKind.WMEAN else real(kind, b)))
    assert not mean_eigenvalue_check(rep)
