"""Tests for the brute-force transition model used as an independent check."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest

import realhurwitz
import walk_reference
from realhurwitz import oracle
from model_reference import class_size_formula
from realhurwitz.model import (
    Bidegree,
    enumerate_bidegrees,
    enumerate_types,
    p_minus,
    p_plus,
    q_var,
    rtype,
    zeta,
)
from realhurwitz.oracle import (
    classify,
    hurwitz_by_paths,
    mult_c2_matrix,
    neighbor_states,
    orbits,
    states,
)
from realhurwitz.nonsep import tilde_enumerate_types
from walk_reference import SIGNED, UNSIGNED, class_members, transitions, walk_count

EMPTY = frozenset()
PAIR = frozenset({(0, 0)})


def matching_count(n_plus, n_minus):
    return sum(comb(n_plus, k) * comb(n_minus, k) * factorial(k)
               for k in range(min(n_plus, n_minus) + 1))


def test_state_counts():
    for a in range(4):
        for b in range(4):
            assert len(states(a, b)) == matching_count(a, b)


def test_states_are_partial_matchings():
    for s in states(3, 2):
        assert len({i for i, _ in s}) == len(s)
        assert len({j for _, j in s}) == len(s)


def test_classify_identity_transitions():
    assert classify((EMPTY, EMPTY), 1, 1) == rtype((1,), (1,))
    assert classify((PAIR, PAIR), 1, 1) == q_var(1)


def test_classify_single_transpositions():
    assert classify((EMPTY, PAIR), 1, 1) == p_plus(2)
    assert classify((PAIR, EMPTY), 1, 1) == p_minus(2)


@pytest.mark.parametrize("t, n_plus, n_minus", [
    # plus element 0 lies in two pairs of the initial "matching"
    ((frozenset({(0, 0), (0, 1)}), frozenset({(1, 1)})), 2, 2),
    ((frozenset({(0, 0), (0, 1)}), frozenset({(0, 0), (0, 1)})), 1, 2),
    # a tree with three ends: one plus element paired with three minus ones
    ((frozenset({(0, 0), (0, 1), (0, 2)}), frozenset()), 1, 3),
], ids=["mixed-end-matchings", "neither-chain-nor-cycle", "branching-chain"])
def test_classify_rejects_malformed_transition(t, n_plus, n_minus):
    with pytest.raises(AssertionError):
        classify(t, n_plus, n_minus)


def test_oracle_imports_nothing_from_the_operator_route():
    tree = ast.parse(Path(oracle.__file__).read_text())
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"model"}


def test_operators_and_spectral_import_nothing_from_poly():
    # the operator route applies a block by its sparse columns alone
    for module in ("operators", "spectral"):
        tree = ast.parse((Path(realhurwitz.__file__).parent / f"{module}.py").read_text())
        assert "poly" not in {node.module for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom) and node.level}, module


def test_classify_covariant_under_inversion():
    # Swapping initial and final states swaps even chains between the two
    # kappa partitions; odd chains keep the side their ends live on.
    for t in transitions(2, 2):
        mu = classify(t, 2, 2)
        nu = classify((t[1], t[0]), 2, 2)
        assert nu.lam == mu.lam
        for k in (1, 3):
            assert nu.kappa_plus.count(k) == mu.kappa_plus.count(k)
            assert nu.kappa_minus.count(k) == mu.kappa_minus.count(k)
        for k in (2, 4):
            assert nu.kappa_plus.count(k) == mu.kappa_minus.count(k)
            assert nu.kappa_minus.count(k) == mu.kappa_plus.count(k)


def test_neighbor_states_are_the_transpositions():
    for s in states(2, 2):
        neighbors = set(neighbor_states(s, 2, 2))
        # a transposition adds or removes exactly one matched pair
        expected = {t for t in states(2, 2) if len(s ^ t) == 1}
        assert neighbors == expected


def test_transpositions_have_a_single_part_two():
    # Adding or removing one pair makes a single 2-chain; everything else in
    # the transition is a fixed point or a shared pair.
    for t in transitions(2, 2):
        if len(t[0] ^ t[1]) == 1:
            mu = classify(t, 2, 2)
            real_parts = sorted(mu.kappa_plus + mu.kappa_minus, reverse=True)
            assert real_parts.count(2) == 1
            assert all(k in (1, 2) for k in real_parts)
            assert all(l == 1 for l in mu.lam)


def _relabellings(model, block):
    """Every relabelling of the block's ground sets, acting on states."""
    if model is UNSIGNED:
        n, = block
        for p in permutations(range(n)):
            yield lambda s, p=p: frozenset(tuple(sorted((p[a], p[b]))) for a, b in s)
        return
    n_plus, n_minus = block
    for p in permutations(range(n_plus)):
        for q in permutations(range(n_minus)):
            yield lambda s, p=p, q=q: frozenset((p[i], q[j]) for i, j in s)


def _blocks_through(size):
    """(model, block) for every signed block and unsigned n through size."""
    return ([pytest.param(SIGNED, b, id=f"signed{tuple(b)}") for b in enumerate_bidegrees(size)]
            + [pytest.param(UNSIGNED, (n,), id=f"unsigned({n})") for n in range(size + 1)])


@pytest.mark.parametrize("model, block", _blocks_through(5))
def test_relabelling_is_transitive_on_each_pair_count(model, block):
    # The orbit form of the oracle rests on this: every state with the pair
    # count of a representative is one of its relabellings, and no other is.
    relabellings = list(_relabellings(model, block))
    all_states = model.states(*block)
    found = orbits(model, block)
    for rep, size in found:
        images = {g(rep) for g in relabellings}
        assert images == {s for s in all_states if len(s) == len(rep)}
        assert size == len(images)
    assert sum(size for _, size in found) == len(all_states)


@pytest.mark.parametrize("model, block", _blocks_through(6))
def test_orbit_sums_equal_full_enumeration(model, block):
    basis = (enumerate_types(Bidegree(*block)) if model is SIGNED
             else tilde_enumerate_types(*block))
    for side in ("left", "right"):
        assert (oracle.class_multiplication(model, block, basis, side)
                == walk_reference.class_multiplication(model, block, basis, side))
    for m in range(7):
        assert oracle.walk_totals(model, block, m) == walk_reference.walk_totals(model, block, m)


# every orbit weighted 1 instead of its size
WEIGHT_ONE = """
import sys
from realhurwitz import oracle
from realhurwitz.cli import main
orbits = oracle.orbits
oracle.orbits = lambda model, block: [(s, 1) for s, _ in orbits(model, block)]
sys.exit(main(["verify", "--suite", "oracle"]))
"""


def test_verify_catches_unweighted_orbits():
    # Each type fixes the pair count of its initial state, so a weight cancels
    # in every column of the class multiplication; the walk totals catch it.
    src = os.path.dirname(os.path.dirname(realhurwitz.__file__))
    proc = subprocess.run([sys.executable, "-c", WEIGHT_ONE],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    assert any(line.startswith("FAIL walk counts equal evolution on (2, 2)") for line in failed)
    assert not any("class multiplication" in line for line in failed)


def test_class_size_matches_formula():
    for b in enumerate_bidegrees(4):
        for mu in enumerate_types(b):
            assert len(class_members(mu)) == class_size_formula(mu)


def test_left_and_right_multiplication_commute():
    for b in enumerate_bidegrees(4):
        left = mult_c2_matrix(b, "left")
        right = mult_c2_matrix(b, "right")
        n = len(left)
        lr = [[sum(left[i][k] * right[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        rl = [[sum(right[i][k] * left[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        assert lr == rl


def test_walk_count_zero_steps():
    # Zero-step walks exist exactly for identity transitions.
    assert walk_count(rtype((1,), (1,)), 0) == 1
    assert walk_count(q_var(1), 0) == 1
    assert walk_count(p_plus(2), 0) == 0


def test_hurwitz_by_paths_block_1_1():
    assert hurwitz_by_paths(Bidegree(1, 1), 0) == {
        rtype((1,), (1,)): Fraction(1),
        q_var(1): Fraction(1),
    }
    assert hurwitz_by_paths(Bidegree(1, 1), 1) == {
        p_plus(2): Fraction(1),
        p_minus(2): Fraction(1),
    }


def test_hurwitz_by_paths_equals_walk_count_over_zeta():
    for b in enumerate_bidegrees(4):
        for m in range(4):
            table = hurwitz_by_paths(b, m)
            for mu in enumerate_types(b):
                expected = Fraction(walk_count(mu, m), zeta(mu))
                assert table.get(mu, Fraction(0)) == expected
