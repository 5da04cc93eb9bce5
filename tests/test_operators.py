"""Tests for the cut-and-join operators and the genus-zero flow terms."""

from fractions import Fraction

import pytest

import wplus_reference
from realhurwitz import genus0
from realhurwitz.genus0 import G0Type, g0_from_type, genus0_images, genus0_join_images
from realhurwitz.model import (
    Bidegree,
    bidegree,
    bidegree_box,
    enumerate_bidegrees,
    enumerate_types,
    euler_characteristic,
    p_minus,
    p_plus,
    q_var,
    rtype,
    types_by_grade,
    zeta,
)
from realhurwitz.nonsep import tilde_column, ttype
from realhurwitz.operators import (OperatorKind, block_matrix, wminus_column, wplus_column,
                                   wplus_images)
from realhurwitz.oracle import SIGNED_WALK, class_multiplication


def column(kind, mu):
    """The sparse column at mu of the chosen operator on the block of mu."""
    return block_matrix(kind, bidegree(mu)).columns[mu]


def summed(images):
    out = {}
    for nu, c in images:
        out[nu] = out.get(nu, 0) + c
    return out


def test_wplus_on_block_1_1_permutes_the_basis():
    assert column(OperatorKind.WPLUS, rtype((1,), (1,))) == {p_minus(2): 1}
    assert column(OperatorKind.WPLUS, q_var(1)) == {p_plus(2): 1}
    assert column(OperatorKind.WPLUS, p_plus(2)) == {q_var(1): 1}
    assert column(OperatorKind.WPLUS, p_minus(2)) == {rtype((1,), (1,)): 1}


def test_wplus_cut_of_negative_order_four_pole():
    # A negative pole only splits into an odd negative and an odd positive
    # part; the pair-pole term exists for even positive parts only.
    assert column(OperatorKind.WPLUS, p_minus(4)) == {rtype((3,), (1,)): 1, rtype((1,), (3,)): 1}


def test_wminus_is_the_sign_swap_conjugate():
    for b in enumerate_bidegrees(4):
        for mu in enumerate_types(b):
            swapped = rtype(mu.kappa_minus, mu.kappa_plus, mu.lam)
            mirrored = {rtype(nu.kappa_minus, nu.kappa_plus, nu.lam): c
                        for nu, c in column(OperatorKind.WPLUS, swapped).items()}
            assert column(OperatorKind.WMINUS, mu) == mirrored


def test_wmean_is_the_average():
    vec = {p_plus(4): 1, q_var(2): 1}
    plus, minus, mean = (block_matrix(kind, bidegree(p_plus(4))).step(vec) for kind in OperatorKind)
    half_sum = {mu: Fraction(plus.get(mu, 0) + minus.get(mu, 0), 2) for mu in {**plus, **minus}}
    assert mean == {mu: x for mu, x in half_sum.items() if x}


def test_cached_moves_yield_the_reference_images_on_the_box_seven():
    # the same (type, multiplier) sequence, in the same order, as the images
    # built afresh with no cache
    for b in bidegree_box(Bidegree(7, 7)):
        for mu in enumerate_types(b):
            assert list(wplus_images(mu)) == list(wplus_reference.wplus_images(mu)), mu


def test_images_preserve_bidegree():
    for b in enumerate_bidegrees(5):
        for mu in enumerate_types(b):
            for nu, mult in wplus_images(mu):
                assert mult > 0
                assert bidegree(nu) == Bidegree(*b)


def test_chi_shifts_match_term_metadata():
    # chi(nu, m+1) - chi(mu, m) is 0 for a cut or a real part becoming a pair
    # and -2 for a join or a pair becoming a real part, so applying the
    # operator moves counts along constant-chi lines or two below them.
    m = 7
    shifts = set()
    for b in enumerate_bidegrees(5):
        for mu in enumerate_types(b):
            for nu, _ in wplus_images(mu):
                shifts.add(euler_characteristic(nu, m + 1) - euler_characteristic(mu, m))
    assert shifts == {0, -2}
    # every column entry of W+, W- and the unsigned operator moves chi0, the
    # chi at m = 0, by +1 or -1: each operator maps the types of even chi0 to
    # those of odd chi0 and back, so each block's charpoly has only even or
    # only odd powers
    signed = [mu for b in enumerate_bidegrees(8) for mu in enumerate_types(b)]
    unsigned = [mu for n in range(11) for mu in types_by_grade(ttype, n)[(n,)]]
    for column, types in ((wplus_column, signed), (wminus_column, signed),
                          (tilde_column, unsigned)):
        assert {euler_characteristic(nu, m + 1) - euler_characteristic(mu, m)
                for mu in types for nu in column(mu)} == {0, -2}, column


def test_block_matrix_equals_class_multiplication():
    for b in enumerate_bidegrees(9):
        wp = block_matrix(OperatorKind.WPLUS, b)
        wm = block_matrix(OperatorKind.WMINUS, b)
        assert wp.basis == tuple(enumerate_types(b))
        assert wp.columns == class_multiplication(SIGNED_WALK, b, "left")
        assert wm.columns == class_multiplication(SIGNED_WALK, b, "right")
        mean = block_matrix(OperatorKind.WMEAN, b).columns
        for mu, plus in wp.columns.items():
            minus = wm.columns[mu]
            half_sum = {nu: Fraction(plus.get(nu, 0) + minus.get(nu, 0), 2)
                        for nu in plus.keys() | minus.keys()}
            assert mean[mu] == {nu: x for nu, x in half_sum.items() if x}


def test_block_matrix_is_zeta_self_adjoint():
    for b in enumerate_bidegrees(5):
        for kind in OperatorKind:
            bm = block_matrix(kind, b)
            zs = [zeta(mu) for mu in bm.basis]
            n = len(bm.basis)
            for i in range(n):
                for j in range(n):
                    assert bm.entries[i][j] * zs[i] == bm.entries[j][i] * zs[j]


@pytest.mark.parametrize("kind", list(OperatorKind), ids=lambda kind: kind.value)
def test_block_matrix_step_matches_the_dense_product(kind):
    # Fraction, float read as the rational it equals (as the spectral mean
    # check reads a float eigenvector), and int coordinates
    bm = block_matrix(kind, Bidegree(2, 1))
    for vec in ([Fraction(k + 1, 3) for k in range(len(bm.basis))],
                [Fraction(0.5 * k - 1) for k in range(len(bm.basis))],
                [k - 2 for k in range(len(bm.basis))]):
        image = bm.step({mu: c for mu, c in zip(bm.basis, vec) if c})
        if type(vec[0]) is Fraction:
            assert all(type(x) is Fraction for x in image.values())
        dense = [sum(a * c for a, c in zip(row, vec)) for row in bm.entries]
        assert image == {mu: x for mu, x in zip(bm.basis, dense) if x}


def test_g0_from_type_forgets_signs():
    mu = rtype((3, 1), (2,), (2,))
    assert g0_from_type(mu) == G0Type((3, 2, 1), (2,))
    assert g0_from_type(rtype((), (), ())) == G0Type((), ())


def test_genus0_cut_splits_ordered():
    # p_3 has no even part, so every image is a cut
    got = summed(genus0_images(G0Type((3,), ())))
    assert got == {G0Type((2, 1), ()): 2}


def test_genus0_join_weights_by_multiplicity():
    got = summed(genus0_join_images(G0Type((1, 1), ()), G0Type((2,), ())))
    assert got == {G0Type((3, 1), ()): 2}


def test_genus0_qterm():
    # the q-term images are those that gain a complex pair
    key = G0Type((4, 1), ())
    got = summed((nu, c) for nu, c in genus0_images(key) if nu.q_parts != key.q_parts)
    assert got == {G0Type((1,), (2,)): 1}


def _without_qterm(key):
    return ((nu, c) for nu, c in genus0_images(key) if nu.q_parts == key.q_parts)


def _without_cut(key):
    return ((nu, c) for nu, c in genus0_images(key) if nu.q_parts != key.q_parts)


def _unit_join(a, b):
    return ((nu, 1) for nu, _ in genus0_join_images(a, b))


@pytest.mark.parametrize("name, broken, first_m", [
    ("genus0_images", _without_qterm, 1),
    ("genus0_images", _without_cut, 1),
    ("genus0_join_images", _unit_join, 2),
], ids=["no-qterm", "no-cut", "unit-join-multiplicity"])
def test_genus0_flow_check_sees_a_broken_term_family(monkeypatch, name, broken, first_m):
    monkeypatch.setattr(genus0, name, broken)
    report = genus0.verify_genus0_pde(6, 5)
    assert not report.is_zero
    assert report.offending[0] == first_m


def test_step_rejects_foreign_keys():
    with pytest.raises(KeyError):
        block_matrix(OperatorKind.WPLUS, Bidegree(1, 0)).step({G0Type((1,), ()): 1})
