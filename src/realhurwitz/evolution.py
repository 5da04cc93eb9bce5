"""The signed walk model's binding to the shared series pipeline.

The disconnected series starts from exp(p_1^+ + p_1^- + q_1) and evolves by
the plus cut-and-join operator; the connected series is its formal log.
SIGNED hands the shared steps (operators.evolve, operators.operator_matrix,
poly.series, poly.value) the plus operator's int columns, the labelled start
vector of a bidegree and rtype. A block (n+, n-) is stored as n+! n-! times
its coefficients, for the disconnected series the walk totals of the block
(oracle.walk_totals on oracle.SIGNED_WALK). A product of blocks c and b - c
lies in block b, so both series are exact on any set of blocks that holds
every block below one of its own: the total degree at most d
(model.enumerate_bidegrees), or the box that a table lists
(model.bidegree_box).
"""

from __future__ import annotations

from math import comb, perm

from .model import Bidegree, ModelBinding, RamificationType, rtype
from .operators import wplus_column


def _start(b: Bidegree) -> dict[RamificationType, int]:
    """n+! n-! times the bidegree-b piece of exp(p_1^+ + p_1^- + q_1): the
    type of k pairs weighs n+! n-! / (i! j! k!), the number of matchings of
    k pairs, with i = n+ - k and j = n- - k."""
    n_plus, n_minus = b
    return {rtype((1,) * (n_plus - k), (1,) * (n_minus - k), (1,) * k):
            comb(n_plus, k) * perm(n_minus, k) for k in range(min(b) + 1)}


SIGNED = ModelBinding(wplus_column, _start, rtype)
