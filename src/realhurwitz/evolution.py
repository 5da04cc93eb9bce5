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
vector and the integer columns of the cached operator keep the evolution in
int; the cached orbit of {type: int} vectors is the only copy, and the
formal log runs on the same store. Fractions enter where a value leaves it:
table rows, hurwitz_value, and the public evolve_block and series functions.

The genus-0 layer keeps the top Euler characteristic part, forgets signs,
and checks the quadratic flow equation it satisfies.
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
    G0_P2,
    G0Type,
    OperatorKind,
    block_matrix,
    g0_from_type,
    genus0_cut,
    genus0_join,
    genus0_qterm,
)
from .poly import (
    HurwitzRow,
    LabelledSeries,
    PolyVector,
    USeries,
    iterate,
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


_ORBITS: dict[Bidegree, list[dict[RamificationType, int]]] = {}


def evolve_labelled(b: Bidegree, max_m: int) -> tuple[dict[RamificationType, int], ...]:
    """n+! n-! times the block coefficients of the disconnected series at
    u^m/m!, m <= max_m: the walk totals of the block, in int.

    Entry m is the m-th power of the plus operator block matrix applied to
    the labelled initial vector; the minus and mean operators give the same
    values. The entries are the cached orbit itself and must not be changed.
    """
    b = Bidegree(*b)
    return iterate(_ORBITS, b, _labelled_initial_vector(b),
                   lambda v: block_matrix(OperatorKind.WPLUS, b).step(v), max_m)


def evolve_block(b: Bidegree, max_m: int) -> tuple[PolyVector, ...]:
    """Block coefficients of the disconnected series at u^m/m!, m <= max_m."""
    return tuple(PolyVector(unlabel(vec, b)) for vec in evolve_labelled(b, max_m))


def _series(blocks: list[Bidegree], max_m: int, connected: bool) -> LabelledSeries:
    series = LabelledSeries({b: evolve_labelled(b, max_m) for b in blocks}, max_m, False)
    return series_log(series, max_m, blocks) if connected else series


def disconnected_series(max_degree: int, max_m: int) -> USeries:
    """Exponential generating series of disconnected counts, truncated to
    total degree max_degree and order max_m in u."""
    return _series(enumerate_bidegrees(max_degree), max_m, False).to_useries()


def connected_series(max_degree: int, max_m: int) -> USeries:
    """Formal logarithm of the disconnected series, same truncation."""
    return _series(enumerate_bidegrees(max_degree), max_m, True).to_useries()


def box_series(corner: Bidegree, max_m: int, connected: bool = True) -> USeries:
    """The chosen series on the blocks componentwise at most corner."""
    return _series(bidegree_box(corner), max_m, connected).to_useries()


def hurwitz_value(mu: RamificationType, m: int, connected: bool = True) -> Fraction:
    """One framed count: coefficient of p_mu u^m/m! in the chosen series."""
    return _series(bidegree_box(bidegree(mu)), m, connected).value(mu, m)


def table_rows(block_cap: int, max_m: int, connected: bool = True) -> list[HurwitzRow]:
    """Nonzero counts for all types with max(n_plus, n_minus) <= block_cap,
    ordered by m and then by canonical type order."""
    return _series(bidegree_box(Bidegree(block_cap, block_cap)), max_m, connected).rows(
        canonical_key, euler_characteristic)


def genus0_series(max_m: int, max_degree: int) -> USeries:
    """Unsigned genus-zero series: half the chi = 2 part of the connected
    series, with both signed variable families collapsed to one."""
    conn = connected_series(max_degree, max_m)
    coeffs = []
    for m in range(max_m + 1):
        kept = {mu: c for mu, c in conn.coeff(m)
                if euler_characteristic(mu, m) == 2}
        collapsed = PolyVector(kept).map_keys(g0_from_type).scale(Fraction(1, 2))
        coeffs.append(collapsed)
    return USeries(tuple(coeffs), connected=True)


def genus0_unit_values(max_m: int) -> list[Fraction]:
    """Evaluation of the genus-zero series at p_1 = q_1 = 1, rest zero."""
    # every contributing monomial has parts of size one only, and chi = 2
    # forces its degree to be exactly (m + 2) / 2, so this cap loses nothing
    series = genus0_series(max_m, (max_m + 2) // 2)
    values = []
    for m in range(max_m + 1):
        total = Fraction(0)
        for key, c in series.coeff(m):
            if all(p == 1 for p in key.p_parts) and all(q == 1 for q in key.q_parts):
                total += c
        values.append(total)
    return values


def genus0_single_part_values(n_max: int) -> list[Fraction]:
    """Coefficient of p_n at u^(n-1)/(n-1)! in the genus-zero series,
    for n = 1 .. n_max."""
    series = genus0_series(n_max - 1, n_max)
    return [series.coeff(n - 1).coeff(G0Type((n,), ())) for n in range(1, n_max + 1)]


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


def genus0_pde_residuals(h: USeries, max_m: int, max_degree: int) -> PDEResidualReport:
    """Residual h_{m+1} - rhs_m for any candidate genus-zero series h.

    The right side convolves the quadratic join over u-orders with binomial
    weights and adds half of p_2 at order zero. h must supply coefficients
    through max_m + 1.
    """
    residuals = []
    for m in range(max_m + 1):
        rhs = genus0_cut(h.coeff(m)) + genus0_qterm(h.coeff(m))
        for k in range(m + 1):
            j = genus0_join(h.coeff(k), h.coeff(m - k), max_degree)
            rhs = rhs + j.scale(Fraction(comb(m, k)))
        if m == 0:
            rhs = rhs + G0_P2
        residual = (h.coeff(m + 1) - rhs.scale(Fraction(1, 2))).restrict_degree(max_degree)
        residuals.append(residual)
    return PDEResidualReport(max_m, max_degree, tuple(residuals))


def verify_genus0_pde(max_m: int, max_degree: int) -> PDEResidualReport:
    """Check the computed genus-zero series against its flow equation."""
    h = genus0_series(max_m + 1, max_degree)
    return genus0_pde_residuals(h, max_m, max_degree)
