"""Evolution of the disconnected generating series and derived tables.

The disconnected series starts from exp(p_1^+ + p_1^- + q_1) and evolves by
the plus cut-and-join operator, one derivative in u per step. Both graded
pieces of every bidegree block evolve independently. The connected series is
its formal logarithm, and a product of blocks c and b - c lies in block b, so
both series are exact on any set of blocks that holds every block below one
of its own: the total degree at most d, or the box that a table lists.

Both series are kept as labelled integer counts (poly.LabelledSeries):
n+! n-! times each coefficient of the block (n+, n-), which for the
disconnected series are the walk totals of the block. The labelled initial
vector and the plus operator's int columns, read per type with no block
basis, keep the evolution in int; each request evolves its blocks afresh
into a store of its own, which the formal log reads and the public series
functions return. Fractions enter where a value leaves it: table rows,
hurwitz_value, evolve_block and the coefficients the store yields by order.

The genus-0 layer keeps the top Euler characteristic part, forgets signs,
and checks its quadratic flow equation on the images of the flow's terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from typing import NamedTuple

from .model import (
    Bidegree,
    RamificationType,
    bidegree,
    bidegree_box,
    canonical_key,
    enumerate_bidegrees,
    euler_characteristic,
    rtype,
    unlabel,
)
from .operators import (
    G0Type,
    g0_from_type,
    genus0_images,
    genus0_join_images,
    powers,
    wplus_column,
)
from .poly import (
    HurwitzRow,
    LabelledSeries,
    PolyVector,
    series_log,
)


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


def evolve_labelled(b: Bidegree, max_m: int) -> tuple[dict[RamificationType, int], ...]:
    """n+! n-! times the block coefficients of the disconnected series at
    u^m/m!, m <= max_m: the walk totals of the block, in int.

    Entry m is the m-th power of the plus operator applied to the labelled
    initial vector, stepped through its cached columns; the minus and mean
    operators give the same values.
    """
    return powers(wplus_column, _labelled_initial_vector(b), max_m)


def evolve_block(b: Bidegree, max_m: int) -> tuple[PolyVector, ...]:
    """Block coefficients of the disconnected series at u^m/m!, m <= max_m."""
    return tuple(PolyVector(unlabel(vec, b)) for vec in evolve_labelled(b, max_m))


def _series(blocks: list[Bidegree], max_m: int, connected: bool) -> LabelledSeries:
    series = LabelledSeries({b: evolve_labelled(b, max_m) for b in blocks}, max_m, False)
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


def hurwitz_value(mu: RamificationType, m: int, connected: bool = True) -> Fraction:
    """One framed count: coefficient of p_mu u^m/m! in the chosen series."""
    return _series(bidegree_box(bidegree(mu)), m, connected).value(mu, m)


def table_rows(block_cap: int, max_m: int, connected: bool = True) -> list[HurwitzRow]:
    """Nonzero counts for all types with max(n_plus, n_minus) <= block_cap,
    ordered by m and then by canonical type order."""
    return _series(bidegree_box(Bidegree(block_cap, block_cap)), max_m, connected).rows(
        canonical_key, euler_characteristic)


def genus0_series(max_m: int, max_degree: int) -> tuple[PolyVector, ...]:
    """Unsigned genus-zero series, its coefficients of u^m/m! for
    m = 0 .. max_m: half the chi = 2 part of the connected series, with both
    signed variable families collapsed to one."""
    conn = connected_series(max_degree, max_m)
    coeffs = []
    for m in range(max_m + 1):
        kept = {mu: c / 2 for mu, c in conn.coeff(m)
                if euler_characteristic(mu, m) == 2}
        coeffs.append(PolyVector(kept).map_keys(g0_from_type))
    return tuple(coeffs)


def genus0_unit_values(max_m: int) -> list[Fraction]:
    """Evaluation of the genus-zero series at p_1 = q_1 = 1, rest zero."""
    # every contributing monomial has parts of size one only, and chi = 2
    # forces its degree to be exactly (m + 2) / 2, so this cap loses nothing
    series = genus0_series(max_m, (max_m + 2) // 2)
    values = []
    for m in range(max_m + 1):
        total = Fraction(0)
        for key, c in series[m]:
            if all(p == 1 for p in key.p_parts) and all(q == 1 for q in key.q_parts):
                total += c
        values.append(total)
    return values


def genus0_single_part_values(n_max: int) -> list[Fraction]:
    """Coefficient of p_n at u^(n-1)/(n-1)! in the genus-zero series,
    for n = 1 .. n_max."""
    series = genus0_series(n_max - 1, n_max)
    return [series[n - 1].coeff(G0Type((n,), ())) for n in range(1, n_max + 1)]


class PDEResidualReport(NamedTuple):
    """Residuals of the genus-zero flow equation, one per checked order."""

    max_m: int
    max_degree: int
    residuals: tuple[PolyVector, ...]

    @property
    def is_zero(self) -> bool:
        return all(not r for r in self.residuals)

    @property
    def offending(self) -> tuple[int, G0Type, Fraction] | None:
        for m, r in enumerate(self.residuals):
            for key, c in sorted(r, key=lambda item: item[0]):
                return (m, key, c)
        return None


def genus0_pde_residuals(h: tuple[PolyVector, ...], max_m: int,
                         max_degree: int) -> PDEResidualReport:
    """Residual h[m+1] - rhs_m for any candidate genus-zero series h, given
    by its coefficients of u^m/m! for m = 0 .. max_m + 1.

    The right side is half the sum of the cut and q-term images of h[m], the
    join images of the pairs of monomials of h[k] and h[m-k] weighted by
    comb(m, k), and p_2 at order zero. A join keeps the total degree of its
    pair, so pairs above max_degree are skipped.
    """
    residuals = []
    for m in range(max_m + 1):
        rhs: dict = {G0Type((2,), ()): 1} if m == 0 else {}
        for key, c in h[m]:
            for nu, a in genus0_images(key):
                rhs[nu] = rhs.get(nu, 0) + c * a
        for k in range(m + 1):
            weight = comb(m, k)
            for a, x in h[k]:
                for b, y in h[m - k]:
                    if a.degree + b.degree <= max_degree:
                        for nu, e in genus0_join_images(a, b):
                            rhs[nu] = rhs.get(nu, 0) + weight * x * y * e
        residual = PolyVector({k: h[m + 1].coeff(k) - Fraction(rhs.get(k, 0), 2)
                               for k in {**h[m + 1].terms, **rhs}})
        residuals.append(residual.restrict_degree(max_degree))
    return PDEResidualReport(max_m, max_degree, tuple(residuals))


def verify_genus0_pde(max_m: int, max_degree: int) -> PDEResidualReport:
    """Check the computed genus-zero series against its flow equation."""
    h = genus0_series(max_m + 1, max_degree)
    return genus0_pde_residuals(h, max_m, max_degree)
