"""Brute-force transition model on signed partial matchings.

A state on the block (n+, n-) is a partial matching between two labeled sets;
a transition is an ordered pair of states. The alternating chains and cycles
of a transition encode a ramification type, transpositions are the transitions
whose states differ by a single matched pair, and multiplying by the class sum
of transpositions gives the columns that the cut-and-join operators must equal.
Relabelling the ground sets keeps every type, move and walk and is transitive
on the states with one pair count and on each class of transitions, so walks
start from one state per orbit, times its size, and one transition stands
for its class; the rest is enumerated exhaustively. Each pair that starts at
a representative is classified once per block (orbit_types), the neighbours
of each state are listed once per block (neighbour_table), and the class
search, its moves and the walks read those tables; each representative's walk
is stepped once through every order, so labelled_by_paths(b, max_m) returns
the orders 0 .. max_m, as the evolution does. This module is the
independent check on the operator route, so it imports nothing from it but the
model. The chain/cycle decomposition, orbits, walks and class multiplication
are generic over the transition model, and the unsigned model binds them too.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from types import MappingProxyType
from typing import Callable, Hashable, Iterator, Mapping, NamedTuple

from .model import Bidegree, RamificationType, nonnegative, partition

State = frozenset
Transition = tuple[State, State]


def states(n_plus: int, n_minus: int) -> tuple[State, ...]:
    """All partial matchings between {0..n+-1} and {0..n--1}, in a fixed order;
    a size that is not a nonnegative int raises ValueError before the cache."""
    nonnegative(n_plus=n_plus, n_minus=n_minus)
    return _states(n_plus, n_minus)


@lru_cache(maxsize=None)
def _states(n_plus: int, n_minus: int) -> tuple[State, ...]:
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


@lru_cache(maxsize=None)
def orbit_types(model: WalkModel, block: tuple) -> tuple[tuple[State, int, Mapping], ...]:
    """(representative, orbit size, {state: type of (representative, state)})
    per orbit: every pair that starts at a representative, classified once
    per block and shared, read-only, by the class search, its moves and the walks."""
    all_states = model.states(*block)
    return tuple((rep, size, MappingProxyType({s: model.classify((rep, s), *block)
                                               for s in all_states}))
                 for rep, size in orbits(model, block))


@lru_cache(maxsize=None)
def neighbour_table(model: WalkModel, block: tuple) -> Mapping:
    """{state: the states one transposition away}, read-only: model.neighbours
    asked once per state of the block and shared by the class search and the walks."""
    return MappingProxyType({s: tuple(model.neighbours(s, *block)) for s in model.states(*block)})


def class_multiplication(model: WalkModel, block: tuple, side: str = "left") -> dict:
    """Multiplication by the transposition class sum on a block, in the
    operators' column form {mu: {nu: count}}. The representative of mu is the
    first transition of type mu met from an orbit representative; column mu
    counts its one-step moves on that side by the type they land in. A move
    from a representative is read from orbit_types, any other is classified.
    Relabelling is transitive on each class, so every member has these counts.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    tables = {rep: types for rep, _, types in orbit_types(model, block)}

    def kind(initial: State, final: State):
        types = tables.get(initial)
        return model.classify((initial, final), *block) if types is None else types[final]

    found: dict = {}
    for rep, types in tables.items():
        for final, mu in types.items():
            found.setdefault(mu, (rep, final))
    neighbours = neighbour_table(model, block)
    columns: dict = {}
    for mu, (initial, final) in found.items():
        column = columns[mu] = {}
        for s in neighbours[initial if side == "left" else final]:
            nu = kind(s, final) if side == "left" else kind(initial, s)
            column[nu] = column.get(nu, 0) + 1
    return columns


def walk_totals(model: WalkModel, block: tuple, max_m: int) -> tuple[dict, ...]:
    """Number of m-step transposition walks between all ordered state pairs,
    summed by the type of the pair over orbit representatives, for
    m = 0 .. max_m; types without walks are left out. Each representative's
    walk counts {state: walks} are stepped once, one order after the other."""
    totals: tuple[dict, ...] = tuple({} for _ in range(max_m + 1))
    neighbours = neighbour_table(model, block)
    for rep, weight, types in orbit_types(model, block):
        counts = {rep: 1}
        for m, total in enumerate(totals):
            if m:
                step: dict[State, int] = {}
                for s, c in counts.items():
                    for t in neighbours[s]:
                        step[t] = step.get(t, 0) + c
                counts = step
            for s, c in counts.items():
                mu = types[s]
                total[mu] = total.get(mu, 0) + weight * c
    return totals


def mult_c2_matrix(b: Bidegree, side: str = "left") -> dict:
    """Multiplication by the transposition class sum on the block b, in
    column form (see class_multiplication): what block_matrix(kind, b).columns
    must equal, with the plus operator on the left and the minus on the right."""
    b = Bidegree(*b)
    nonnegative(n_plus=b.n_plus, n_minus=b.n_minus)
    return class_multiplication(_signed(), b, side)


def labelled_by_paths(b: Bidegree, max_m: int) -> tuple[dict[RamificationType, int], ...]:
    """m-step walk totals between all ordered state pairs of the block b,
    summed by the type of the pair, for m = 0 .. max_m: n_plus! n_minus!
    times the disconnected counts at u^m/m!, in int."""
    return walk_totals(_signed(), Bidegree(*b), max_m)
