"""Full enumeration of the walk models: every initial state, every transition.

The oracle sums walks over one initial state per relabelling orbit, weighted
by the orbit size, and reads the class multiplication from one transition per
type. These functions enumerate every transition instead and are kept only as
the references that the oracle tests compare against: the move counts of
every transition with their class means, the walks from one state and the
walk totals of one order, each walked afresh from its start, the class of a
type, its first member as a representative, and the number of walks between
the two states of that representative, which times the class size gives the
walk total of the type in oracle.walk_totals. compose multiplies two operators
given in that column form.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from realhurwitz.model import RamificationType, WalkModel, bidegree
from realhurwitz.nonsep import UNSIGNED_WALK
from realhurwitz.oracle import SIGNED_WALK


@lru_cache(maxsize=None)
def transpositions(model: WalkModel, block: tuple) -> dict:
    """{state: the states that differ from it by one pair}, by comparing
    every two states of the block."""
    all_states = model.states(*block)
    return {s: [t for t in all_states if len(s ^ t) == 1] for s in all_states}


def transitions(n_plus: int, n_minus: int) -> list[tuple]:
    """Every ordered pair of states of the block, initial state first."""
    all_states = SIGNED_WALK.states(n_plus, n_minus)
    return [(initial, final) for initial in all_states for final in all_states]


def members(model: WalkModel, block: tuple, mu) -> tuple:
    """Every transition of type mu on the block."""
    all_states = model.states(*block)
    return tuple((s, t) for s in all_states for t in all_states
                 if model.classify((s, t), *block) == mu)


def member_moves(model: WalkModel, block: tuple, side: str = "left") -> dict:
    """Per type, the one-step move counts {type: count} on that side of each
    of its transitions, every transition and move classified once."""
    kind, neighbours = model.classify, transpositions(model, block)
    found: dict = {}
    all_states = model.states(*block)
    for initial in all_states:
        for final in all_states:
            counts: dict = {}
            for s in neighbours[initial if side == "left" else final]:
                nu = kind((s, final) if side == "left" else (initial, s), *block)
                counts[nu] = counts.get(nu, 0) + 1
            found.setdefault(kind((initial, final), *block), []).append(counts)
    return found


def class_multiplication(moves: dict) -> dict:
    """oracle.class_multiplication from every transition: column mu is the
    mean of member_moves over the class of mu, in Fractions."""
    columns = {}
    for mu, members in moves.items():
        total: Counter = Counter()
        for counts in members:
            total.update(counts)
        columns[mu] = {nu: Fraction(c, len(members)) for nu, c in total.items()}
    return columns


def walks_from(model: WalkModel, block: tuple, start, m: int) -> dict:
    """Number of m-step transposition walks from start to each state they
    reach, stepped afresh from start for each m."""
    counts = {start: 1}
    neighbours = transpositions(model, block)
    for _ in range(m):
        step: dict = {}
        for s, c in counts.items():
            for t in neighbours[s]:
                step[t] = step.get(t, 0) + c
        counts = step
    return counts


def walk_totals(model: WalkModel, block: tuple, m: int) -> dict:
    """Order m of oracle.walk_totals, with walks from every initial state."""
    totals: dict = {}
    for s in model.states(*block):
        for t, count in walks_from(model, block, s, m).items():
            mu = model.classify((s, t), *block)
            totals[mu] = totals.get(mu, 0) + count
    return totals


def class_members(mu: RamificationType) -> tuple:
    """Every transition of type mu on the block bidegree(mu), in order."""
    return members(SIGNED_WALK, bidegree(mu), mu)


def tilde_class_members(mu) -> tuple:
    """Every unsigned transition of type mu on mu.degree elements, in order."""
    return members(UNSIGNED_WALK, (mu.degree,), mu)


def representative(mu: RamificationType) -> tuple:
    """The first transition of type mu on the block bidegree(mu)."""
    return class_members(mu)[0]


def walk_count(mu: RamificationType, m: int) -> int:
    """Number of m-step transposition walks linking the states of the
    representative transition of type mu."""
    initial, final = representative(mu)
    return walks_from(SIGNED_WALK, bidegree(mu), initial, m).get(final, 0)


def compose(a: dict, b: dict) -> dict:
    """Columns of the product a b: each column of b mapped through a."""
    out = {}
    for mu, column in b.items():
        image: dict = {}
        for nu, c in column.items():
            for rho, x in a[nu].items():
                image[rho] = image.get(rho, 0) + c * x
        out[mu] = {rho: x for rho, x in image.items() if x}
    return out
