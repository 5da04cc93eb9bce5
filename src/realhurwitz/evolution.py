"""The signed walk model's binding to the shared series pipeline, and its tables.

The disconnected series starts from exp(p_1^+ + p_1^- + q_1) and evolves by
the plus cut-and-join operator; the connected series is its formal log.
SIGNED hands the shared steps (operators.evolve, poly.series, poly.value)
the plus operator's int columns, the labelled start vector of a bidegree and
rtype. A block (n+, n-) is stored as n+! n-! times its coefficients, for the
disconnected series the walk totals of the block. A product of blocks c and
b - c lies in block b, so both series are exact on any set of blocks that
holds every block below one of its own: the total degree at most d, or the
box that a table lists.
"""

from __future__ import annotations

from math import comb, perm

from .model import Bidegree, RamificationType, bidegree_box, enumerate_bidegrees, rtype
from .operators import ModelBinding, wplus_column


def _start(b: Bidegree) -> dict[RamificationType, int]:
    """n+! n-! times the bidegree-b piece of exp(p_1^+ + p_1^- + q_1): the
    type of k pairs weighs n+! n-! / (i! j! k!), the number of matchings of
    k pairs, with i = n+ - k and j = n- - k."""
    n_plus, n_minus = b
    return {rtype((1,) * (n_plus - k), (1,) * (n_minus - k), (1,) * k):
            comb(n_plus, k) * perm(n_minus, k) for k in range(min(b) + 1)}


SIGNED = ModelBinding(wplus_column, _start, rtype)


def disconnected_series(max_degree: int, max_m: int) -> LabelledSeries:
    """The disconnected series, truncated to total degree max_degree and u^max_m."""
    from .poly import series
    return series(SIGNED, enumerate_bidegrees(max_degree), max_m, False)


def connected_series(max_degree: int, max_m: int) -> LabelledSeries:
    """Formal logarithm of the disconnected series, same truncation."""
    from .poly import series
    return series(SIGNED, enumerate_bidegrees(max_degree), max_m, True)


def hurwitz_value(mu: RamificationType, m: int, connected: bool = True):
    """One framed count, a Fraction: coefficient of p_mu u^m/m! in the chosen series."""
    from .poly import value
    return value(SIGNED, mu, m, connected)


def table_rows(block_cap: int, max_m: int, connected: bool = True) -> list[HurwitzRow]:
    """Nonzero counts for all types with max(n_plus, n_minus) <= block_cap,
    ordered by m and then by canonical type order."""
    from .poly import series
    return series(SIGNED, bidegree_box(Bidegree(block_cap, block_cap)), max_m, connected).rows()
