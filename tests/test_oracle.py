"""Tests for the brute-force transition model used as an independent check."""

import ast
import os
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations
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
    label,
    p_minus,
    p_plus,
    q_var,
    rtype,
    zeta,
)
from realhurwitz.nonsep import UNSIGNED_WALK
from realhurwitz.oracle import (
    SIGNED_WALK,
    class_multiplication,
    classify,
    matchings,
    neighbour_table,
    orbits,
    states,
    walk_totals,
)
from walk_reference import class_members, compose, transitions, walk_count

EMPTY = frozenset()
PAIR = frozenset({(0, 1)})  # on the block (1, 1): plus vertex 0, minus vertex 1

# the blocks of each model that the state tests run on
MODEL_BLOCKS = [pytest.param(SIGNED_WALK, [(a, b) for a in range(5) for b in range(5)],
                             id="signed"),
                pytest.param(UNSIGNED_WALK, [(n,) for n in range(10)], id="unsigned")]


def matching_count(n_plus, n_minus):
    return sum(comb(n_plus, k) * comb(n_minus, k) * factorial(k)
               for k in range(min(n_plus, n_minus) + 1))


def involution_count(n):
    return sum(comb(n, 2 * k) * factorial(2 * k) // (2 ** k * factorial(k))
               for k in range(n // 2 + 1))


@pytest.mark.parametrize("model, blocks", MODEL_BLOCKS)
def test_state_counts(model, blocks):
    count = matching_count if model is SIGNED_WALK else involution_count
    for block in blocks:
        assert len(model.states(*block)) == count(*block)
    if model is UNSIGNED_WALK:
        assert [count(n) for n in range(8)] == [1, 1, 2, 4, 10, 26, 76, 232]


@pytest.mark.parametrize("model, blocks", MODEL_BLOCKS)
def test_states_are_ordered_by_pair_count_then_pairs(model, blocks):
    for block in blocks:
        found = model.states(*block)
        assert list(found) == sorted(found, key=lambda s: (len(s), sorted(s)))
        assert len(set(found)) == len(found)


def test_states_are_partial_matchings():
    # a signed state joins plus vertices 0 .. n+-1 to minus vertices after
    # them; an unsigned one pairs any two vertices of range(n)
    for s in states(3, 2):
        assert all(a < 3 <= b < 5 for a, b in s)
        assert len(set().union(*s)) == 2 * len(s)
    assert states(3, 2) is matchings(tuple((a, b) for a in range(3) for b in (3, 4)))
    assert UNSIGNED_WALK.states(4) is matchings(tuple(combinations(range(4), 2)))
    assert matchings(((0, 1), (0, 2), (1, 2))) == (
        EMPTY, frozenset({(0, 1)}), frozenset({(0, 2)}), frozenset({(1, 2)}))


def test_classify_identity_transitions():
    assert classify((EMPTY, EMPTY), 1, 1) == rtype((1,), (1,))
    assert classify((PAIR, PAIR), 1, 1) == q_var(1)


def test_classify_single_transpositions():
    assert classify((EMPTY, PAIR), 1, 1) == p_plus(2)
    assert classify((PAIR, EMPTY), 1, 1) == p_minus(2)


@pytest.mark.parametrize("t, n_plus, n_minus", [
    # plus vertex 0 lies in two pairs of the initial "matching"
    ((frozenset({(0, 2), (0, 3)}), frozenset({(1, 3)})), 2, 2),
    ((frozenset({(0, 1), (0, 2)}), frozenset({(0, 1), (0, 2)})), 1, 2),
    # a tree with three ends: one plus vertex paired with three minus ones
    ((frozenset({(0, 1), (0, 2), (0, 3)}), frozenset()), 1, 3),
    # on the block (2, 1), 0 and 1 are both plus vertices
    ((frozenset({(0, 1)}), EMPTY), 2, 1),
    ((frozenset({(0, 5)}), EMPTY), 2, 1),
    ((PAIR, [(0, 1)]), 1, 1),
], ids=["mixed-end-matchings", "neither-chain-nor-cycle", "branching-chain", "plus-plus-pair",
        "vertex-out-of-range", "list-state"])
def test_classify_rejects_malformed_transition(t, n_plus, n_minus):
    # refused as a state, before its chains are read
    with pytest.raises(ValueError, match="is not a state of the block"):
        classify(t, n_plus, n_minus)


def test_classify_refuses_a_bool_size_after_the_int_block():
    # the cached state set of (1, 1) does not serve (True, 1)
    assert classify((EMPTY, EMPTY), 1, 1) == rtype((1,), (1,))
    with pytest.raises(ValueError, match="n_plus must be a nonnegative int"):
        classify((EMPTY, EMPTY), True, 1)


@pytest.mark.parametrize("model, block, bad", [
    (SIGNED_WALK, (1, 1), (True, 1)), (SIGNED_WALK, (1, 1), (1, 1.0)),
    (UNSIGNED_WALK, (2,), (2.0,)),
], ids=["signed-bool", "signed-float", "unsigned-float"])
def test_walks_and_class_columns_refuse_a_malformed_block_after_the_int_block(model, block, bad):
    # the per-block caches of the int block, equal and of equal hash, do not serve bad
    assert oracle.walk_totals(model, block, 2) and oracle.class_multiplication(model, block)
    for call in (lambda: oracle.walk_totals(model, bad, 2),
                 lambda: oracle.class_multiplication(model, bad, "right")):
        with pytest.raises(ValueError, match=r"block\[\d\] must be a nonnegative int"):
            call()
    with pytest.raises(ValueError, match="max_m must be a nonnegative int"):
        oracle.walk_totals(model, block, True)


@pytest.mark.parametrize("table", ["orbit_types", "neighbour_table"])
@pytest.mark.parametrize("model, block, bad", [
    (SIGNED_WALK, (1, 1), (True, 1)), (SIGNED_WALK, (1, 1), (1, 1.0)),
    (SIGNED_WALK, (1, 1), (1,)), (SIGNED_WALK, (1, 1), [1, 1]), (SIGNED_WALK, (1, 1), 2),
    (UNSIGNED_WALK, (1,), (True,)), (UNSIGNED_WALK, (2,), (2, 2)), (UNSIGNED_WALK, (2,), [2]),
], ids=["signed-bool", "signed-float", "signed-short", "signed-list", "signed-int",
        "unsigned-bool", "unsigned-long", "unsigned-list"])
def test_the_per_block_tables_check_their_block_before_the_cache(table, model, block, bad):
    # with the good block cached, a block equal to it and of equal hash
    # ((True, 1) and (1, 1)) is refused all the same, and so is one of the
    # wrong arity or one that is not a tuple, with ValueError
    build = getattr(oracle, table)
    assert build(model, block)
    with pytest.raises(ValueError, match="block"):
        build(model, bad)


def test_the_per_block_tables_key_on_the_checked_tuple():
    # a Bidegree and the plain tuple of its sizes read one cache entry
    for build in (oracle.orbit_types, oracle.neighbour_table):
        assert build(SIGNED_WALK, Bidegree(2, 1)) is build(SIGNED_WALK, (2, 1))


@pytest.mark.parametrize("call", [
    lambda: walk_totals(SIGNED_WALK, (1,), 2),
    lambda: walk_totals(SIGNED_WALK, [1, 1], 2),
    lambda: walk_totals(UNSIGNED_WALK, (2, 2), 1),
    lambda: class_multiplication(UNSIGNED_WALK, 3),
    lambda: class_multiplication(SIGNED_WALK, (1, 1, 1), "right"),
], ids=["signed-short", "signed-list", "unsigned-long", "unsigned-int", "signed-long"])
def test_walks_and_class_columns_refuse_a_block_of_the_wrong_shape(call):
    with pytest.raises(ValueError, match="is not a tuple of [12] sizes"):
        call()


@pytest.mark.parametrize("t, size", [
    ((frozenset({(0, 1), (0, 2), (0, 3)}), EMPTY), 4),
    ((frozenset({(0, 1), (1, 2)}), frozenset({(0, 2)})), 3),
    ((frozenset({(1, 1)}), EMPTY), 2),
    ((frozenset({(0, 2), (1, 2)}), EMPTY), 3),
], ids=["branching-chain", "odd-cycle", "self-loop", "second-vertex-matched-twice"])
def test_chains_and_cycles_reject_pairs_that_are_not_matchings(t, size):
    # classify refuses these as states first; the decomposition keeps its own check
    with pytest.raises(AssertionError):
        list(oracle.chains_and_cycles(t, size, *t))


ODD_CHAIN = (frozenset({(0, 1)}), frozenset({(1, 2)}))       # 0 - 1 - 2
CYCLE = (frozenset({(0, 1), (2, 3)}), frozenset({(1, 2), (0, 3)}))  # 0 - 1 - 2 - 3 - 0


@pytest.mark.parametrize("t, size, shape", [
    ((EMPTY, EMPTY), 1, [(1, (0, 0), None)]),
    ((PAIR, EMPTY), 2, [(2, (0, 1), 0)]),
    ((EMPTY, PAIR), 2, [(2, (0, 1), 1)]),
    (ODD_CHAIN, 3, [(3, (0, 2), 0)]),
    (ODD_CHAIN[::-1], 3, [(3, (0, 2), 1)]),
    (CYCLE, 4, [(4, (), 0)]),
    # the cycle on 0 .. 3, a lone 4, even chains 5 - 6 and 7 - 8, odd 9 - 10 - 11
    ((CYCLE[0] | {(5, 6), (9, 10)}, CYCLE[1] | {(7, 8), (10, 11)}), 12,
     [(1, (4, 4), None), (2, (5, 6), 0), (2, (7, 8), 1), (3, (9, 11), 0), (4, (), 0)]),
], ids=["lone-vertex", "even-chain-initial", "even-chain-final", "odd-chain-initial-first",
        "odd-chain-final-first", "cycle", "all-in-one"])
def test_chains_and_cycles_yield_count_ends_and_side(t, size, shape):
    # chains are walked from their lowest free end, before any cycle
    assert list(oracle.chains_and_cycles(t, size, *t)) == shape


@pytest.mark.parametrize("t", [(EMPTY,), (EMPTY, EMPTY, EMPTY), [EMPTY, PAIR]],
                         ids=["one-state", "three-states", "list"])
def test_classify_rejects_a_transition_that_is_not_a_pair(t):
    with pytest.raises(ValueError, match="is not a pair of states"):
        classify(t, 1, 1)


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


@pytest.mark.parametrize("model, blocks", MODEL_BLOCKS)
def test_moves_are_the_transpositions(model, blocks):
    # a transposition adds or removes exactly one matched pair, each move once
    for block in (b for b in blocks if sum(b) <= 7):
        all_states = model.states(*block)
        moves = neighbour_table(model, block)
        assert list(moves) == list(all_states)
        for s in all_states:
            assert len(set(moves[s])) == len(moves[s])
            assert set(moves[s]) == {t for t in all_states if len(s ^ t) == 1}


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
    if model is UNSIGNED_WALK:
        n, = block
        for p in permutations(range(n)):
            yield lambda s, p=p: frozenset(tuple(sorted((p[a], p[b]))) for a, b in s)
        return
    n_plus, n_minus = block
    for p in permutations(range(n_plus)):
        for q in permutations(range(n_plus, n_plus + n_minus)):
            yield lambda s, p=p, q=q: frozenset((p[a], q[b - n_plus]) for a, b in s)


def _blocks_through(size):
    """(model, block) for every signed block and unsigned n through size."""
    return ([pytest.param(SIGNED_WALK, b, id=f"signed{tuple(b)}")
             for b in enumerate_bidegrees(size)]
            + [pytest.param(UNSIGNED_WALK, (n,), id=f"unsigned({n})") for n in range(size + 1)])


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
    for side in ("left", "right"):
        columns = oracle.class_multiplication(model, block, side)
        moves = walk_reference.member_moves(model, block, side)
        assert columns == walk_reference.class_multiplication(moves)
        # the one-transition form rests on this: every member of a class has
        # exactly the move counts of its column
        assert all(counts == columns[mu] for mu, members in moves.items()
                   for counts in members)
    totals = oracle.walk_totals(model, block, 6)
    assert len(totals) == 7
    for m, total in enumerate(totals):
        assert total == walk_reference.walk_totals(model, block, m)


def _run_verify(script: str, suite: str, code: int = 1) -> list[str]:
    """Run script with SUITE bound to the suite name in a fresh interpreter;
    assert that it exits with code and return its FAIL lines."""
    src = os.path.dirname(os.path.dirname(realhurwitz.__file__))
    proc = subprocess.run([sys.executable, "-c", f"SUITE = {suite!r}\n{script}"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    return [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]


# every orbit weighted 1 instead of its size
WEIGHT_ONE = """
import sys
from realhurwitz import oracle
from realhurwitz.cli import main
orbits = oracle.orbits
oracle.orbits = lambda model, block: [(s, 1) for s, _ in orbits(model, block)]
sys.exit(main(["verify", "--suite", SUITE]))
"""


def test_verify_catches_unweighted_orbits():
    # The class multiplication reads one transition per type and no orbit
    # size; the walk totals catch the missing weights.
    failed = _run_verify(WEIGHT_ONE, "oracle")
    assert any(line.startswith("FAIL walk counts equal evolution on (2, 2)") for line in failed)
    assert not any("class multiplication" in line for line in failed)


def _source_mutant(line: str, mutated: str) -> str:
    """A script that runs verify on a variant of the oracle whose source has
    the one occurrence of line replaced by mutated."""
    return f"""
import sys
from realhurwitz import oracle
from realhurwitz.cli import main
source = open(oracle.__file__).read()
assert source.count({line!r}) == 1, "the line to mutate is not in the source once"
exec(compile(source.replace({line!r}, {mutated!r}), oracle.__file__, "exec"), vars(oracle))
sys.exit(main(["verify", "--suite", SUITE]))
"""


# a variant of the oracle whose representative of each class is the reversed
# pair (final, initial): a transition of the class with the even-part signs
# swapped, so only types without even parts keep their column
REVERSED_REPRESENTATIVE = _source_mutant("found.setdefault(mu, (rep, final))",
                                         "found.setdefault(mu, (final, rep))")

# the orbit of the largest pair count is left out, so some types get no column
DROPPED_ORBIT = """
import sys
from realhurwitz import oracle
from realhurwitz.cli import main
orbits = oracle.orbits
oracle.orbits = lambda model, block: orbits(model, block)[:-1]
sys.exit(main(["verify", "--suite", SUITE]))
"""

CLASS_MULTIPLICATION_CHECKS = {"oracle": "class multiplication on",
                               "nonsep": "transcribed operator form agrees on"}


# every even chain read as if its end edges lay in the other matching
FLIPPED_EVEN_CHAIN = _source_mutant("yield k, (start, v), side\n",
                                    "yield k, (start, v), side if k % 2 else 1 - side\n")


@pytest.mark.parametrize("suite", ["oracle", "nonsep"])
def test_verify_catches_a_flipped_even_chain(suite):
    failed = _run_verify(FLIPPED_EVEN_CHAIN, suite)
    assert failed and all(CLASS_MULTIPLICATION_CHECKS[suite] in line for line in failed)


@pytest.mark.parametrize("script, suite", [
    (REVERSED_REPRESENTATIVE, "oracle"),
    (REVERSED_REPRESENTATIVE, "nonsep"),
    (DROPPED_ORBIT, "oracle"),
], ids=["reversed-oracle", "reversed-nonsep", "dropped-orbit-oracle"])
def test_verify_catches_a_wrong_class_representative(script, suite):
    failed = _run_verify(script, suite)
    assert any(CLASS_MULTIPLICATION_CHECKS[suite] in line for line in failed)


# each table classified against the block's first state, not its representative
WRONG_TABLE = _source_mutant("model.classify((rep, s), *block)",
                             "model.classify((all_states[0], s), *block)")

# totals[m] read after m + 1 steps
ORDER_SHIFT = _source_mutant("            if m:\n", "            if True:\n")


# the signed edges with one same-side pair added: plus vertices 0 and 1
SAME_SIDE_EDGE = _source_mutant(
    "matchings(tuple((i, n_plus + j) for i in range(n_plus) for j in range(n_minus)))",
    "matchings(tuple(sorted([(i, n_plus + j) for i in range(n_plus) for j in range(n_minus)]"
    " + [(0, 1)] * (n_plus > 1))))")


def test_verify_catches_a_same_side_edge():
    # the class search on (2, 0) finds types the operators do not have, and
    # on (2, 1) the classifier refuses an odd chain with one end on each side
    failed = _run_verify(SAME_SIDE_EDGE, "oracle", code=3)
    assert failed[:2] == [
        f"FAIL {op} operator equals {side} class multiplication on (2, 0): "
        "expected True actual False" for op, side in (("plus", "left"), ("minus", "right"))]


@pytest.mark.parametrize("script", [WRONG_TABLE, ORDER_SHIFT],
                         ids=["wrong-table", "order-shift"])
def test_verify_catches_wrong_walk_totals(script):
    failed = _run_verify(script, "oracle")
    assert any(line.startswith("FAIL walk counts equal evolution on (1, 1)") for line in failed)


@pytest.mark.parametrize("model, block", _blocks_through(6))
def test_each_representative_pair_is_classified_once(model, block):
    # the walks and both sides of the class multiplication read one table of
    # the pairs that start at a representative
    calls = Counter()

    def counted(t, *args):
        calls[t] += 1
        return model.classify(t, *args)

    counting = model._replace(classify=counted)
    assert oracle.walk_totals(counting, block, 6) == oracle.walk_totals(model, block, 6)
    for side in ("left", "right"):
        assert (oracle.class_multiplication(counting, block, side)
                == oracle.class_multiplication(model, block, side))
    reps = {rep for rep, _ in orbits(model, block)}
    from_reps = [n for (initial, _), n in calls.items() if initial in reps]
    assert len(from_reps) == len(reps) * len(model.states(*block))
    assert set(from_reps) == {1}
    # the shared tables refuse edits
    with pytest.raises(TypeError):
        oracle.orbit_types(model, block)[0][2][model.states(*block)[0]] = None


def test_the_walks_and_the_class_search_list_the_neighbours_of_a_state_once():
    # the moves of every state of the oracle suite's blocks are listed once,
    # in one table per block, though the walks revisit states at each
    # representative and order and both sides of the class search read them
    calls = Counter()
    blocks = ([(SIGNED_WALK, b) for b in enumerate_bidegrees(5)]
              + [(UNSIGNED_WALK, (n,)) for n in range(6)])
    expected = [(oracle.walk_totals(model, block, 6),
                 *(oracle.class_multiplication(model, block, side) for side in ("left", "right")))
                for model, block in blocks]
    built = oracle.neighbour_table.cache_info().misses
    for (model, block), want in zip(blocks, expected):
        def counted(*block, model=model):
            calls[block] += 1
            return model.states(*block)

        counting = model._replace(states=counted)
        table = oracle.neighbour_table(counting, block)
        assert calls[tuple(block)] == 1
        assert (oracle.walk_totals(counting, block, 6),
                *(oracle.class_multiplication(counting, block, side)
                  for side in ("left", "right"))) == want
        assert oracle.neighbour_table(counting, block) is table
    # one table built per block, its moves taken from the states alone
    assert oracle.neighbour_table.cache_info().misses - built == len(blocks)
    # the shared table refuses edits
    with pytest.raises(TypeError):
        oracle.neighbour_table(SIGNED_WALK, Bidegree(1, 1))[EMPTY] = ()


def test_class_size_matches_formula():
    for b in enumerate_bidegrees(4):
        for mu in enumerate_types(b):
            assert len(class_members(mu)) == class_size_formula(mu)


def test_left_and_right_multiplication_commute():
    for b in enumerate_bidegrees(4):
        left = class_multiplication(SIGNED_WALK, b, "left")
        right = class_multiplication(SIGNED_WALK, b, "right")
        assert compose(left, right) == compose(right, left)


def test_walk_count_zero_steps():
    # Zero-step walks exist exactly for identity transitions.
    assert walk_count(rtype((1,), (1,)), 0) == 1
    assert walk_count(q_var(1), 0) == 1
    assert walk_count(p_plus(2), 0) == 0


def test_labelled_by_paths_block_1_1():
    # the label factor of (1, 1) is 1, so these are the counts themselves
    assert walk_totals(SIGNED_WALK, Bidegree(1, 1), 1) == ({rtype((1,), (1,)): 1, q_var(1): 1},
                                                    {p_plus(2): 1, p_minus(2): 1})


def test_labelled_by_paths_equals_label_times_walk_count_over_zeta():
    # walks between the pairs of one class agree, and a class has
    # label(b) / zeta transitions, so the total of a type is that many walk
    # counts of one member
    for b in enumerate_bidegrees(4):
        for m, table in enumerate(walk_totals(SIGNED_WALK, b, 3)):
            assert set(table) <= set(enumerate_types(b))
            for mu in enumerate_types(b):
                expected, rem = divmod(label(b) * walk_count(mu, m), zeta(mu))
                assert rem == 0
                assert table.get(mu, 0) == expected
