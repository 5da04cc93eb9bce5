"""Tests for the unsigned (non-separating) transition model."""

import os
import subprocess
import sys

import pytest

import realhurwitz

from walk_reference import tilde_class_members
from realhurwitz.evolution import SIGNED
from realhurwitz.model import (canonical_key, enumerate_bidegrees, euler_characteristic,
                               types_by_grade)
from realhurwitz.nonsep import (
    UNSIGNED,
    UNSIGNED_WALK,
    TildeType,
    tilde_class_size_formula,
    tilde_class_sizes,
    tilde_classify,
    tilde_zeta,
    ttype,
)
from realhurwitz.operators import operator_matrix
from realhurwitz.oracle import SIGNED_WALK, class_multiplication, walk_totals
from realhurwitz.poly import series, value

EMPTY = frozenset()
PAIR01 = frozenset({(0, 1)})


def test_ttype_validates_parity():
    with pytest.raises(ValueError):
        ttype(kappa_plus=(3,))
    with pytest.raises(ValueError):
        ttype(kappa_minus=(1,))
    with pytest.raises(ValueError):
        ttype(kappa_odd=(2,))
    mu = ttype(kappa_plus=(2,), kappa_odd=(3, 1), lam=(1,))
    assert mu.degree == 2 + 4 + 2


def test_ttype_refuses_bool_parts():
    assert ttype(kappa_odd=(1,)) == TildeType((), (), (1,), ())
    with pytest.raises(ValueError):
        ttype(kappa_odd=(True,))
    with pytest.raises(ValueError):
        ttype(kappa_plus=(2, True), kappa_odd=(1,))


def test_classify_small_transitions():
    assert tilde_classify((EMPTY, EMPTY), 2) == ttype(kappa_odd=(1, 1))
    assert tilde_classify((PAIR01, PAIR01), 2) == ttype(lam=(1,))
    assert tilde_classify((EMPTY, PAIR01), 2) == ttype(kappa_plus=(2,))
    assert tilde_classify((PAIR01, EMPTY), 2) == ttype(kappa_minus=(2,))


@pytest.mark.parametrize("t, n", [
    # vertex 1 lies in two pairs of the initial "matching"
    ((frozenset({(0, 1), (1, 2)}), frozenset({(2, 3)})), 4),
    ((frozenset({(0, 1), (1, 2)}), frozenset({(0, 2)})), 3),  # odd cycle
    ((frozenset({(0, 1), (0, 2)}), EMPTY), 3),
    ((frozenset({(0, 5)}), EMPTY), 3),
], ids=["mixed-chain", "odd-cycle", "vertex-matched-twice", "vertex-out-of-range"])
def test_classify_rejects_malformed_transition(t, n):
    # refused as a state, before its chains are read
    with pytest.raises(ValueError, match="is not a state of the block"):
        tilde_classify(t, n)


@pytest.mark.parametrize("n", [-1, True, 2.0])
def test_classify_rejects_a_size_that_is_not_a_nonnegative_int(n):
    with pytest.raises(ValueError, match="n must be a nonnegative int"):
        tilde_classify((EMPTY, EMPTY), n)


def test_classify_check_survives_optimized_mode():
    src = os.path.dirname(os.path.dirname(realhurwitz.__file__))
    code = ("from realhurwitz.nonsep import tilde_classify\n"
            "print(tilde_classify((frozenset({(0, 1), (1, 2)}), "
            "frozenset({(2, 3)})), 4))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr
    assert proc.stdout == ""


def test_class_sizes_match_formula():
    # the orbit count against n!/zeta and against every transition of the class
    for n in range(6):
        sizes = tilde_class_sizes(n)
        for mu in types_by_grade(ttype, n)[(n,)]:
            assert sizes[mu] == tilde_class_size_formula(mu)
            assert sizes[mu] == len(tilde_class_members(mu))


def test_class_sizes_refuse_a_bool_size_after_the_int_one():
    # the cached orbits of n = 1 do not serve True
    assert tilde_class_sizes(1)
    with pytest.raises(ValueError, match="n must be a nonnegative int"):
        tilde_class_sizes(True)


def test_zeta_examples():
    assert tilde_zeta(ttype(kappa_odd=(1, 1))) == 2
    assert tilde_zeta(ttype(kappa_plus=(2,))) == 2
    assert tilde_zeta(ttype(lam=(1,))) == 2
    assert tilde_zeta(ttype(lam=(2,))) == 4
    assert tilde_zeta(ttype(kappa_plus=(2, 2))) == 8


def test_euler_characteristic():
    assert euler_characteristic(ttype(kappa_odd=(3,)), 6) == -2
    assert euler_characteristic(ttype(kappa_odd=(1,)), 0) == 2
    assert euler_characteristic(ttype(lam=(1,)), 0) == 4


# both walk models: each one's operator on a grade is its class multiplication
# from the left (the signed plus operator); an unsigned id is the degree alone
@pytest.mark.parametrize("model, walks, grade", [
    *(pytest.param(UNSIGNED, UNSIGNED_WALK, (n,), id=f"{n}") for n in range(10)),
    *(pytest.param(SIGNED, SIGNED_WALK, b, id=f"signed{tuple(b)}") for b in enumerate_bidegrees(6)),
])
def test_operator_matrix_equals_class_multiplication(model, walks, grade):
    assert operator_matrix(model, grade).columns == class_multiplication(walks, grade)


# one term family of the operator with a wrong weight: a conjugate pair of
# order l becomes a positive pole of order 2l with weight l + 1
WRONG_FAMILY = """
import sys
from realhurwitz import nonsep
from realhurwitz.cli import main
images = nonsep.tilde_images

def wrong(mu):
    for nu, c in images(mu):
        yield nu, c + 1 if len(nu.lam) < len(mu.lam) else c

nonsep.tilde_images = wrong
sys.exit(main(["verify", "--suite", "nonsep"]))
"""


def test_verify_catches_a_wrong_term_family():
    # the walks share no code with tilde_images, so both walk checks fail
    src = os.path.dirname(os.path.dirname(realhurwitz.__file__))
    proc = subprocess.run([sys.executable, "-c", WRONG_FAMILY],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    for n in (2, 3, 4):  # degrees with a conjugate pair
        for check in (f"transcribed operator form agrees on {n} elements",
                      f"walk counts equal evolution on {n} elements"):
            assert any(line.startswith(f"FAIL {check}") for line in lines), check


def test_hurwitz_single_element():
    assert walk_totals(UNSIGNED_WALK, (1,), 1) == ({ttype(kappa_odd=(1,)): 1}, {})


def test_connected_unsigned_count_nine():
    mu = ttype(kappa_odd=(3,))
    assert value(UNSIGNED, mu, 6) == 9


def test_connected_odd_single_pole_probe():
    # Odd-order unsigned counts coincide with the signed zigzag at odd index.
    got = [value(UNSIGNED, ttype(kappa_odd=(n,)), n - 1) for n in (1, 3, 5)]
    assert got == [1, 1, 5]


def test_table_rows_sorted_by_canonical_key():
    records = list(series(UNSIGNED, [(n,) for n in range(4)], 4, True).records())
    assert all(num != 0 for _, _, _, num, _ in records)
    keys = [(m, canonical_key(mu)) for m, mu, *_ in records]
    assert keys == sorted(keys)


def test_operator_matrix_on_two_elements_is_a_permutation():
    tm = operator_matrix(UNSIGNED, (2,))
    assert len(tm.basis) == len(types_by_grade(ttype, 2)[(2,)]) == 4
    index = {mu: i for i, mu in enumerate(tm.basis)}
    identities = {index[ttype(kappa_odd=(1, 1))], index[ttype(lam=(1,))]}
    switches = {index[ttype(kappa_plus=(2,))], index[ttype(kappa_minus=(2,))]}
    for j in range(4):
        col = [tm.entries[i][j] for i in range(4)]
        assert sorted(col) == [0, 0, 0, 1]
        hit = col.index(1)
        # One step always flips between identity classes and switch classes.
        assert (hit in switches) == (j in identities)


def test_operator_matrix_refuses_a_grade_of_the_other_model():
    # a grade of another length than the model's has no types, so no basis
    for model, grade in ((UNSIGNED, (2, 2)), (SIGNED, (3,))):
        with pytest.raises(KeyError):
            operator_matrix(model, grade)
