"""Transitions, classes and single-pair walk counts of the signed walk model.

They enumerate every transition of a block and are kept only as the
references that the oracle tests compare against: the class of a type, its
first member as a representative, and the number of walks between the two
states of that representative, which times the class size gives the walk
total that hurwitz_by_paths reads.
"""

from realhurwitz.model import RamificationType, bidegree
from realhurwitz.oracle import WalkModel, classify, members, neighbor_states, states, walks_from

SIGNED = WalkModel(states, neighbor_states, classify)


def transitions(n_plus: int, n_minus: int) -> list[tuple]:
    """Every ordered pair of states of the block, initial state first."""
    all_states = states(n_plus, n_minus)
    return [(initial, final) for initial in all_states for final in all_states]


def class_members(mu: RamificationType) -> tuple:
    """Every transition of type mu on the block bidegree(mu), in order."""
    return members(SIGNED, bidegree(mu), mu)


def representative(mu: RamificationType) -> tuple:
    """The first transition of type mu on the block bidegree(mu)."""
    return class_members(mu)[0]


def walk_count(mu: RamificationType, m: int) -> int:
    """Number of m-step transposition walks linking the states of the
    representative transition of type mu."""
    initial, final = representative(mu)
    return walks_from(SIGNED, bidegree(mu), initial, m).get(final, 0)
