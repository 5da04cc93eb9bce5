"""Evolution of the disconnected generating series and derived tables.

The disconnected series starts from exp(p_1^+ + p_1^- + q_1) and evolves by
the plus cut-and-join operator, one derivative in u per step, on one block
of each sign-swap pair; the other is its mirror. The connected series is its
formal logarithm, and a product of blocks c and b - c lies in block b, so
both series are exact on any set of blocks that holds every block below one
of its own: the total degree at most d, or the box that a table lists.

Both series are kept as labelled integer counts (poly.LabelledSeries):
n+! n-! times each coefficient of the block (n+, n-), which for the
disconnected series are the walk totals of the block. The labelled initial
vector and the plus operator's int columns, read per type with no block
basis, keep the evolution in int; each request evolves its blocks afresh
into a store of its own, which the formal log reads and the public series
functions return. Fractions enter where a value leaves it: table rows,
hurwitz_value and the coefficients the store yields by order.
"""

from __future__ import annotations

from math import comb, perm

from .model import (
    Bidegree,
    RamificationType,
    bidegree,
    bidegree_box,
    enumerate_bidegrees,
    rtype,
)
from .operators import powers, wplus_column
from .poly import HurwitzRow, LabelledSeries, series_log


def _labelled_initial_vector(b: Bidegree) -> dict[RamificationType, int]:
    """n+! n-! times the bidegree-b piece of exp(p_1^+ + p_1^- + q_1): the
    type of k pairs weighs n+! n-! / (i! j! k!), the number of matchings of
    k pairs, with i = n+ - k and j = n- - k."""
    b = Bidegree(*b)
    terms = {}
    for k in range(min(b.n_plus, b.n_minus) + 1):
        mu = rtype((1,) * (b.n_plus - k), (1,) * (b.n_minus - k), (1,) * k)
        terms[mu] = comb(b.n_plus, k) * perm(b.n_minus, k)
    return terms


def _mirror(piece: tuple) -> tuple[dict[RamificationType, int], ...]:
    """The piece of block (b, a) from that of (a, b) in new dicts, each key swapped once."""
    swapped = {mu: mu.swap_signs() for mu in set().union(*piece)}
    return tuple({swapped[mu]: x for mu, x in vec.items()} for vec in piece)


def evolve_labelled(b: Bidegree, max_m: int) -> tuple[dict[RamificationType, int], ...]:
    """n+! n-! times the block coefficients of the disconnected series at
    u^m/m!, m <= max_m: the walk totals of the block, in int.

    Entry m is the m-th power of the plus operator applied to the labelled
    initial vector, stepped through its cached columns; the minus and mean
    operators give the same values. So with S the sign swap, W- = S W+ S and
    H_(b,a) = S H_(a,b): a block with n+ < n- is the mirror of its partner.
    """
    if b[0] < b[1]:
        return _mirror(evolve_labelled(b[::-1], max_m))
    return powers(wplus_column, _labelled_initial_vector(b), max_m)


def _series(blocks: list[Bidegree], max_m: int, connected: bool) -> LabelledSeries:
    # each sign-swap pair of listed blocks is evolved once, at n+ >= n-
    pieces = {b: evolve_labelled(b, max_m) for b in blocks
              if b.n_plus >= b.n_minus or b[::-1] not in blocks}
    pieces = {b: pieces.get(b) or _mirror(pieces[b[::-1]]) for b in blocks}
    series = LabelledSeries(pieces, max_m, False)
    return series_log(series, max_m, blocks) if connected else series


def disconnected_series(max_degree: int, max_m: int) -> LabelledSeries:
    """Exponential generating series of disconnected counts, truncated to
    total degree max_degree and order max_m in u."""
    return _series(enumerate_bidegrees(max_degree), max_m, False)


def connected_series(max_degree: int, max_m: int) -> LabelledSeries:
    """Formal logarithm of the disconnected series, same truncation."""
    return _series(enumerate_bidegrees(max_degree), max_m, True)


def box_series(corner: Bidegree, max_m: int, connected: bool = True) -> LabelledSeries:
    """The chosen series on the blocks componentwise at most corner."""
    return _series(bidegree_box(corner), max_m, connected)


def hurwitz_value(mu: RamificationType, m: int, connected: bool = True):
    """One framed count, a Fraction: coefficient of p_mu u^m/m! in the chosen series."""
    return _series(bidegree_box(bidegree(mu)), m, connected).value(mu, m)


def table_rows(block_cap: int, max_m: int, connected: bool = True) -> list[HurwitzRow]:
    """Nonzero counts for all types with max(n_plus, n_minus) <= block_cap,
    ordered by m and then by canonical type order."""
    return _series(bidegree_box(Bidegree(block_cap, block_cap)), max_m, connected).rows()
