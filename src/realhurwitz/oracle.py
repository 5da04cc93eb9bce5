"""Brute-force transition model on signed partial matchings.

A state of a walk model is a matching on the vertices range(size), a frozenset
of pairs (a, b) with a < b, and a transition is an ordered pair of states. On
the signed block (n+, n-) the plus vertices 0 .. n+-1 come first and each pair
joins one to a minus vertex; both models list their states by matchings. The
alternating chains and cycles of a transition encode a ramification type,
transpositions are the transitions whose states differ by a single pair, and
multiplying by the class sum of transpositions gives the columns that the
cut-and-join operators must equal.
Relabelling the ground sets keeps every type, move and walk and is transitive
on the states with one pair count and on each class of transitions, so walks
start from one state per orbit, times its size, and one transition stands
for its class; the rest is enumerated exhaustively. Each pair that starts at
a representative is classified once per block (orbit_types), the moves of
each state are listed once per block from its states alone (neighbour_table),
and the class search, its moves and the walks read those tables; each
representative's walk is stepped once through every order, so
labelled_by_paths(b, max_m) returns the orders 0 .. max_m, as the evolution
does. This module is the independent check on the operator route, so it
imports nothing from it but the model. A walk model is its states and its
classifier, and the unsigned model binds the same core; both classifiers
refuse a transition that is not two states of its block (check_transition).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Hashable, Iterator, Mapping, NamedTuple

from .model import Bidegree, RamificationType, nonnegative, partition

State = frozenset
Transition = tuple[State, State]


def states(n_plus: int, n_minus: int) -> tuple[State, ...]:
    """All partial matchings of the block: the matchings of the graph joining
    each plus vertex 0 .. n+-1 to each minus vertex n+ .. n+ + n- - 1; a size
    that is not a nonnegative int raises ValueError before the cache."""
    nonnegative(n_plus=n_plus, n_minus=n_minus)
    return matchings(tuple((i, n_plus + j) for i in range(n_plus) for j in range(n_minus)))


@lru_cache(maxsize=None)
def matchings(edges: tuple) -> tuple[State, ...]:
    """Every matching of the graph with these sorted edges (a, b), a < b,
    ordered by pair count and then by sorted pairs: each one built once, its
    pairs added in increasing order, so every level comes out sorted."""
    found, level = [], [((), ())]
    while level:
        found += (frozenset(pairs) for pairs, _ in level)
        level = [(pairs + (e,), used + e) for pairs, used in level for e in edges
                 if (not pairs or e > pairs[-1]) and e[0] not in used and e[1] not in used]
    return tuple(found)


def chains_and_cycles(t, size: int, initial_pairs, final_pairs
                      ) -> Iterator[tuple[int, tuple[int, ...], int | None]]:
    """Components of the overlay of two matchings on the vertices range(size):
    (vertex count, ends, side) per component, ends a chain's end vertices (a
    lone vertex twice) or () for a cycle, side the matching of the first edge
    walked (0 initial, 1 final, None alone). A vertex paired with itself or
    twice on one side raises AssertionError naming t; past this one guard,
    every component is an alternating path or an even cycle."""
    first, second = partners = ({}, {})
    for partner, pairs in zip(partners, (initial_pairs, final_pairs)):
        for a, b in pairs:
            if a == b or a in partner or b in partner:
                raise AssertionError(f"transition {t!r} is not a pair of matchings")
            partner[a], partner[b] = b, a
    seen = set()
    # chain ends (free on a side) first: a start still unseen then is on a cycle
    for start in (*(v for v in range(size) if v not in first or v not in second), *first):
        if start in seen:
            continue
        seen.add(start)
        side = 0 if start in first else 1 if start in second else None
        k, v, s = 1, start, side
        while s is not None and v in partners[s]:
            v = partners[s][v]
            if v == start:
                yield k, (), side
                break
            seen.add(v)
            k, s = k + 1, 1 - s
        else:
            yield k, (start, v), side


@lru_cache(maxsize=None, typed=True)  # typed: a bool size is not the int's block
def _state_set(states_of: Callable[..., tuple], *block) -> frozenset:
    return frozenset(states_of(*block))


def check_transition(t, states_of: Callable[..., tuple], block: tuple) -> None:
    """Raise ValueError, naming the first bad state, unless t is a pair of
    states of the block, states_of(*block), read as a set cached per block."""
    known = _state_set(states_of, *block)
    if type(t) is not tuple or len(t) != 2:
        raise ValueError(f"transition {t!r} is not a pair of states")
    for s in t:
        if type(s) is not frozenset or s not in known:
            raise ValueError(f"{s!r} is not a state of the block {block}")


def classify(t: Transition, n_plus: int, n_minus: int) -> RamificationType:
    """Ramification type of a transition, from its chain decomposition.

    The states are matchings of the block (see states), plus vertices
    first; a t that is not a pair of them raises ValueError. A cycle on 2l
    vertices gives a part l of lam. A chain on k vertices gives a part k:
    for odd k in the kappa of the side holding both ends, for even k in
    kappa_plus when the ends are unmatched in the initial state and in
    kappa_minus when unmatched in the final state.
    """
    check_transition(t, states, (n_plus, n_minus))
    kappa_plus: list[int] = []
    kappa_minus: list[int] = []
    lam: list[int] = []
    for k, ends, side in chains_and_cycles(t, n_plus + n_minus, *t):
        if not ends:
            lam.append(k // 2)
        elif k % 2:
            plus = ends[0] < n_plus
            if (ends[1] < n_plus) != plus:
                raise AssertionError(f"odd chain of {t!r} with mixed end sides")
            (kappa_plus if plus else kappa_minus).append(k)
        else:
            # Ends carried only by the final matching are free in the initial one.
            (kappa_plus if side else kappa_minus).append(k)
    return RamificationType(partition(kappa_plus), partition(kappa_minus), partition(lam))


class WalkModel(NamedTuple):
    """states(*block), the matchings of the block in the order of matchings,
    and the type of a transition t as classify(t, *block)."""

    states: Callable[..., tuple]
    classify: Callable[..., Hashable]


def _signed() -> WalkModel:
    # built per call, so that a rebound module-level name takes effect
    return WalkModel(states, classify)


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
    """{state: the states one transposition away}, read-only, built once per
    block and shared by the class search and the walks. A move removes one
    pair, or adds one edge of the block (a pair of one of its states) whose
    two ends are free."""
    all_states = model.states(*block)
    edges = sorted(set().union(*all_states))
    table = {}
    for s in all_states:
        used = set().union(*s)
        table[s] = (*(s - {p} for p in s), *(s | {e} for e in edges if used.isdisjoint(e)))
    return MappingProxyType(table)


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
    nonnegative(max_m=max_m, **Bidegree(*b)._asdict())
    return walk_totals(_signed(), Bidegree(*b), max_m)
