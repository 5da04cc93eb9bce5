"""Brute-force transition model on signed partial matchings.

A state on the block (n+, n-) is a partial matching between two labeled sets;
a transition is an ordered pair of states. The alternating chains and cycles
of a transition encode a ramification type, transpositions are the transitions
whose states differ by a single matched pair, and multiplying by the class sum
of transpositions gives matrices that the cut-and-join operators must equal.
Relabelling the ground sets keeps every type, move and walk and is transitive
on the states with one pair count, so initial states are summed one per orbit,
times its size; the rest is enumerated exhaustively. This module is the
independent check on the operator route, so it imports nothing from it but the
model. The chain/cycle decomposition, orbits, walks and class multiplication
are generic over the transition model, and the unsigned model binds them too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Hashable, Iterator, NamedTuple, Sequence

from .model import (
    Bidegree,
    RamificationType,
    enumerate_types,
    partition,
    unlabel,
)

State = frozenset
Transition = tuple[State, State]


@lru_cache(maxsize=None)
def states(n_plus: int, n_minus: int) -> tuple[State, ...]:
    """All partial matchings between {0..n+-1} and {0..n--1}, in a fixed order."""
    found = []
    for k in range(min(n_plus, n_minus) + 1):
        for plus_side in combinations(range(n_plus), k):
            for minus_side in permutations(range(n_minus), k):
                found.append(frozenset(zip(plus_side, minus_side)))
    found.sort(key=lambda s: sorted(s))
    found.sort(key=len)
    return tuple(found)


def neighbor_states(s: State, n_plus: int, n_minus: int) -> Iterator[State]:
    """States differing from s by one pair: every removal, then every addition."""
    for pair in sorted(s):
        yield s - {pair}
    used_plus = {i for i, _ in s}
    used_minus = {j for _, j in s}
    for i in range(n_plus):
        if i in used_plus:
            continue
        for j in range(n_minus):
            if j not in used_minus:
                yield s | {(i, j)}


def chains_and_cycles(t, size: int, initial_pairs, final_pairs
                      ) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Components of the overlay of two matchings on the vertices range(size).

    Yields (vertex count, end vertices, sides of the end edges) per
    component, where side 0 is initial_pairs and 1 is final_pairs; a cycle
    has no ends. Raises AssertionError, naming the transition t, for an odd
    cycle or a component that is neither a chain nor a cycle.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for side, pairs in enumerate((initial_pairs, final_pairs)):
        for a, b in pairs:
            adj[a].append((b, side))
            adj[b].append((a, side))
    seen = [False] * size
    for start in range(size):
        if seen[start]:
            continue
        seen[start] = True
        if not adj[start]:
            yield 1, (start,), ()
            continue
        component = [start]
        ends = []
        degrees = 0
        for v in component:  # grows while it is walked
            edges = adj[v]
            degrees += len(edges)
            if len(edges) < 2:
                ends.append(v)
            for w, _ in edges:
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
        k = len(component)
        if degrees == 2 * k and not ends:
            if k % 2:
                raise AssertionError(f"odd cycle in transition {t!r}")
            yield k, (), ()
        elif degrees == 2 * (k - 1) and len(ends) == 2:
            yield k, tuple(ends), (adj[ends[0]][0][1], adj[ends[1]][0][1])
        else:
            raise AssertionError(f"component of {t!r} is neither chain nor cycle")


def classify(t: Transition, n_plus: int, n_minus: int) -> RamificationType:
    """Ramification type of a transition, from its chain decomposition.

    Plus element i is vertex i and minus element j is vertex n_plus + j. A
    cycle on 2l vertices gives a part l of lam. A chain on k vertices gives
    a part k: for odd k in the kappa of the side holding both ends, for even
    k in kappa_plus when the ends are unmatched in the initial state and in
    kappa_minus when unmatched in the final state.
    """
    initial, final = t
    kappa_plus: list[int] = []
    kappa_minus: list[int] = []
    lam: list[int] = []
    for k, ends, sides in chains_and_cycles(
            t, n_plus + n_minus, [(i, n_plus + j) for i, j in initial],
            [(i, n_plus + j) for i, j in final]):
        if not ends:
            lam.append(k // 2)
        elif k % 2:
            plus = ends[0] < n_plus
            if (ends[-1] < n_plus) != plus:
                raise AssertionError(f"odd chain of {t!r} with mixed end sides")
            (kappa_plus if plus else kappa_minus).append(k)
        else:
            if sides[0] != sides[1]:
                raise AssertionError(f"even chain of {t!r} with mixed end matchings")
            # Ends carried only by the final matching are free in the initial one.
            (kappa_plus if sides[0] else kappa_minus).append(k)
    return RamificationType(partition(kappa_plus), partition(kappa_minus), partition(lam))


class WalkModel(NamedTuple):
    """states(*block) in a fixed order, the states one transposition away
    from s as neighbours(s, *block), and the type of a transition t as
    classify(t, *block)."""

    states: Callable[..., tuple]
    neighbours: Callable[..., Iterator]
    classify: Callable[..., Hashable]


def _signed() -> WalkModel:
    # built per call, so that a rebound module-level name takes effect
    return WalkModel(states, neighbor_states, classify)


def orbits(model: WalkModel, block: tuple) -> list[tuple[State, int]]:
    """(first state, number of states) per pair count: the relabelling orbits
    of the block's states, each with a representative and its size."""
    groups: dict[int, list] = {}
    for s in model.states(*block):
        groups.setdefault(len(s), [s, 0])[1] += 1
    return [(s, size) for s, size in groups.values()]


def class_multiplication(model: WalkModel, block: tuple, basis: Sequence,
                         side: str = "left") -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of multiplication by the transposition class sum on a block,
    in the basis of class sums scaled by inverse class size: entry [row][col]
    is the coefficient of basis[row] in the product with basis[col]. One pass
    classifies each transition from an orbit representative, and each of its
    one-step moves on that side, with the orbit size as weight.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    kind, neighbours = model.classify, model.neighbours
    index = {mu: i for i, mu in enumerate(basis)}
    size = [0] * len(basis)
    counts = [[0] * len(basis) for _ in basis]  # counts[col][row]
    all_states = model.states(*block)
    for initial, weight in orbits(model, block):
        for final in all_states:
            col = index[kind((initial, final), *block)]
            size[col] += weight
            for s in neighbours(initial if side == "left" else final, *block):
                moved = (s, final) if side == "left" else (initial, s)
                counts[col][index[kind(moved, *block)]] += weight
    return tuple(tuple(Fraction(counts[j][i], size[j]) for j in range(len(basis)))
                 for i in range(len(basis)))


def walks_from(model: WalkModel, block: tuple, start: State, m: int) -> dict[State, int]:
    """Number of m-step transposition walks from start to each state they reach."""
    counts = {start: 1}
    for _ in range(m):
        step: dict[State, int] = {}
        for s, c in counts.items():
            for t in model.neighbours(s, *block):
                step[t] = step.get(t, 0) + c
        counts = step
    return counts


def walk_totals(model: WalkModel, block: tuple, m: int) -> dict:
    """Number of m-step walks between all ordered state pairs, summed by the
    type of the pair over orbit representatives; types without walks are left out."""
    totals: dict = {}
    for s, weight in orbits(model, block):
        for t, count in walks_from(model, block, s, m).items():
            mu = model.classify((s, t), *block)
            totals[mu] = totals.get(mu, 0) + weight * count
    return totals


@lru_cache(maxsize=None)
def mult_c2_matrix(b: Bidegree, side: str = "left") -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of multiplication by the transposition class sum on the block b,
    over enumerate_types(b) in order; the image of the monomial basis is the
    basis of class sums scaled by inverse class size."""
    b = Bidegree(*b)
    return class_multiplication(_signed(), b, enumerate_types(b), side)


def labelled_by_paths(b: Bidegree, m: int) -> dict[RamificationType, int]:
    """m-step walk totals between all ordered state pairs of the block b,
    summed by the type of the pair: n_plus! n_minus! times the disconnected
    counts at u^m/m!, in int."""
    return walk_totals(_signed(), Bidegree(*b), m)


def hurwitz_by_paths(b: Bidegree, m: int) -> dict[RamificationType, Fraction]:
    """Disconnected counts at u^m/m! for every type on the ground set b.

    Divides the walk totals of labelled_by_paths by n_plus! n_minus!. Equals
    the walk count between the states of any one transition of a type over
    zeta of the type, since walks between pairs in one class agree.
    """
    return unlabel(labelled_by_paths(b, m), Bidegree(*b))
