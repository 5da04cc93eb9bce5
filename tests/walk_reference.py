"""Full enumeration of the walk models: every initial state, every transition.

The oracle sums over one initial state per relabelling orbit, weighted by the
orbit size. These functions sum over every initial state instead and are kept
only as the references that the oracle tests compare against: the class
multiplication and the walk totals, the class of a type, its first member as
a representative, and the number of walks between the two states of that
representative, which times the class size gives the walk total that
hurwitz_by_paths reads.
"""

from fractions import Fraction

from realhurwitz.model import RamificationType, bidegree
from realhurwitz.nonsep import tilde_classify, tilde_neighbors, tilde_states
from realhurwitz.oracle import WalkModel, classify, neighbor_states, states, walks_from

SIGNED = WalkModel(states, neighbor_states, classify)
UNSIGNED = WalkModel(tilde_states, tilde_neighbors, tilde_classify)


def transitions(n_plus: int, n_minus: int) -> list[tuple]:
    """Every ordered pair of states of the block, initial state first."""
    all_states = states(n_plus, n_minus)
    return [(initial, final) for initial in all_states for final in all_states]


def members(model: WalkModel, block: tuple, mu) -> tuple:
    """Every transition of type mu on the block."""
    all_states = model.states(*block)
    return tuple((s, t) for s in all_states for t in all_states
                 if model.classify((s, t), *block) == mu)


def class_multiplication(model: WalkModel, block: tuple, basis, side: str = "left"):
    """oracle.class_multiplication with every transition counted once."""
    kind, neighbours = model.classify, model.neighbours
    index = {mu: i for i, mu in enumerate(basis)}
    size = [0] * len(basis)
    counts = [[0] * len(basis) for _ in basis]  # counts[col][row]
    all_states = model.states(*block)
    for initial in all_states:
        for final in all_states:
            col = index[kind((initial, final), *block)]
            size[col] += 1
            for s in neighbours(initial if side == "left" else final, *block):
                moved = (s, final) if side == "left" else (initial, s)
                counts[col][index[kind(moved, *block)]] += 1
    return tuple(tuple(Fraction(counts[j][i], size[j]) for j in range(len(basis)))
                 for i in range(len(basis)))


def walk_totals(model: WalkModel, block: tuple, m: int) -> dict:
    """oracle.walk_totals with walks from every initial state."""
    totals: dict = {}
    for s in model.states(*block):
        for t, count in walks_from(model, block, s, m).items():
            mu = model.classify((s, t), *block)
            totals[mu] = totals.get(mu, 0) + count
    return totals


def class_members(mu: RamificationType) -> tuple:
    """Every transition of type mu on the block bidegree(mu), in order."""
    return members(SIGNED, bidegree(mu), mu)


def tilde_class_members(mu) -> tuple:
    """Every unsigned transition of type mu on mu.degree elements, in order."""
    return members(UNSIGNED, (mu.degree,), mu)


def representative(mu: RamificationType) -> tuple:
    """The first transition of type mu on the block bidegree(mu)."""
    return class_members(mu)[0]


def walk_count(mu: RamificationType, m: int) -> int:
    """Number of m-step transposition walks linking the states of the
    representative transition of type mu."""
    initial, final = representative(mu)
    return walks_from(SIGNED, bidegree(mu), initial, m).get(final, 0)
