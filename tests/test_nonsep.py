"""Tests for the unsigned (non-separating) transition model."""

import os
import subprocess
import sys

import pytest

import realhurwitz

from walk_reference import tilde_class_members
from realhurwitz.model import canonical_key, euler_characteristic
from realhurwitz.nonsep import (
    TildeType,
    tilde_class_size_formula,
    tilde_class_sizes,
    tilde_classify,
    tilde_connected_value,
    tilde_enumerate_types,
    tilde_labelled_by_paths,
    tilde_mult_c2_matrix,
    tilde_operator_matrix,
    tilde_states,
    tilde_table_rows,
    tilde_zeta,
    ttype,
)

EMPTY = frozenset()
PAIR01 = frozenset({(0, 1)})


def test_state_counts_are_involution_numbers():
    assert [len(tilde_states(n)) for n in range(6)] == [1, 1, 2, 4, 10, 26]


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
], ids=["mixed-chain", "odd-cycle"])
def test_classify_rejects_malformed_transition(t, n):
    with pytest.raises(AssertionError):
        tilde_classify(t, n)


def test_classify_check_survives_optimized_mode():
    src = os.path.dirname(os.path.dirname(realhurwitz.__file__))
    code = ("from realhurwitz.nonsep import tilde_classify\n"
            "print(tilde_classify((frozenset({(0, 1), (1, 2)}), "
            "frozenset({(2, 3)})), 4))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "AssertionError" in proc.stderr
    assert proc.stdout == ""


def test_class_sizes_match_formula():
    # the orbit count against n!/zeta and against every transition of the class
    for n in range(6):
        sizes = tilde_class_sizes(n)
        for mu in tilde_enumerate_types(n):
            assert sizes[mu] == tilde_class_size_formula(mu)
            assert sizes[mu] == len(tilde_class_members(mu))


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


@pytest.mark.parametrize("n", range(10))
def test_operator_matrix_equals_class_multiplication(n):
    assert tilde_operator_matrix(n).columns == tilde_mult_c2_matrix(n)


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
    assert tilde_labelled_by_paths(1, 1) == ({ttype(kappa_odd=(1,)): 1}, {})


def test_connected_unsigned_count_nine():
    mu = ttype(kappa_odd=(3,))
    assert tilde_connected_value(mu, 6) == 9


def test_connected_odd_single_pole_probe():
    # Odd-order unsigned counts coincide with the signed zigzag at odd index.
    got = [tilde_connected_value(ttype(kappa_odd=(n,)), n - 1) for n in (1, 3, 5)]
    assert got == [1, 1, 5]


def test_table_rows_sorted_by_canonical_key():
    rows = tilde_table_rows(3, 4, connected=True)
    assert all(r.value != 0 for r in rows)
    keys = [(r.m, canonical_key(r.mu)) for r in rows]
    assert keys == sorted(keys)


def test_operator_matrix_on_two_elements_is_a_permutation():
    tm = tilde_operator_matrix(2)
    assert len(tm.basis) == len(tilde_enumerate_types(2)) == 4
    index = {mu: i for i, mu in enumerate(tm.basis)}
    identities = {index[ttype(kappa_odd=(1, 1))], index[ttype(lam=(1,))]}
    switches = {index[ttype(kappa_plus=(2,))], index[ttype(kappa_minus=(2,))]}
    for j in range(4):
        col = [tm.entries[i][j] for i in range(4)]
        assert sorted(col) == [0, 0, 0, 1]
        hit = col.index(1)
        # One step always flips between identity classes and switch classes.
        assert (hit in switches) == (j in identities)
