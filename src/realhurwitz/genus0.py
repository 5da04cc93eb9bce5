"""The genus-zero layer: the unsigned genus-zero series and its flow equation.

The genus-zero series is half the top Euler characteristic part of the
connected series with signs forgotten, one dict {G0Type: Fraction} per order.
Its quadratic flow equation is checked on the images of the flow's terms: the
cut and the q-term of one monomial, and the join of a pair of monomials. Only
`verify --suite genus0` and the names the package exports from here load it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb
from typing import Iterator, NamedTuple

from .evolution import SIGNED
from .model import (Partition, RamificationType, enumerate_bidegrees, merge_partitions,
                    nonnegative, without)
from .poly import series


class G0Type(NamedTuple):
    """Monomial index in the unsigned genus-0 variables p_k, q_k."""

    p_parts: Partition
    q_parts: Partition

    @property
    def degree(self) -> int:
        return sum(self.p_parts) + 2 * sum(self.q_parts)


def g0_from_type(mu: RamificationType) -> G0Type:
    """Forget signs: both real-part lists merge, complex pairs stay."""
    return G0Type(merge_partitions(mu.kappa_plus, mu.kappa_minus), mu.lam)


def genus0_images(key: G0Type) -> Iterator[tuple[G0Type, int]]:
    """Images of the genus-0 flow's linear terms on the monomial p_key,
    without the half factor: the cut, summed over ordered (i, j) of
    p_i p_j d/dp_{i+j}, and the q-term, summed over i of q_i d/dp_{2i}.

    Yields (key, integer multiplier); repeated keys must be summed by the caller.
    """
    p, q = key
    for n, mult in Counter(p).items():
        base = without(p, n)
        for i in range(1, n):
            yield G0Type(merge_partitions(base, (i, n - i)), q), mult
        if n % 2 == 0:
            yield G0Type(base, merge_partitions(q, (n // 2,))), mult


def genus0_join_images(a: G0Type, b: G0Type) -> Iterator[tuple[G0Type, int]]:
    """Images of the genus-0 join on the pair of monomials (p_a, p_b),
    summed over ordered (i, j) of p_{i+j} (d p_a/dp_i) (d p_b/dp_j), without
    the half factor. Yields (key, integer multiplier) as genus0_images does.
    """
    q = merge_partitions(a.q_parts, b.q_parts)
    b_counts = Counter(b.p_parts)
    for i, mult_a in Counter(a.p_parts).items():
        rest = without(a.p_parts, i)
        for j, mult_b in b_counts.items():
            yield (G0Type(merge_partitions(rest + without(b.p_parts, j), (i + j,)), q),
                   mult_a * mult_b)


def genus0_series(max_m: int, max_degree: int) -> tuple[dict, ...]:
    """Unsigned genus-zero series, its coefficients of u^m/m! for m = 0 .. max_m
    of degree at most max_degree: half the chi = 2 part of the connected
    series, signs forgotten. A coefficient does not depend on the caps."""
    conn = series(SIGNED, enumerate_bidegrees(max_degree), max_m, True)
    coeffs = tuple({} for _ in range(max_m + 1))
    for m, mu, chi, num, den in conn.records():
        if chi == 2:
            key = g0_from_type(mu)
            coeffs[m][key] = coeffs[m].get(key, 0) + Fraction(num, 2 * den)
    return coeffs


def genus0_unit_values(max_m: int) -> list[Fraction]:
    """Evaluation of the genus-zero series at p_1 = q_1 = 1, rest zero."""
    nonnegative(max_m=max_m)
    # every contributing monomial has parts of size one only, and chi = 2
    # forces its degree to be exactly (m + 2) / 2, so this cap loses nothing
    h = genus0_series(max_m, (max_m + 2) // 2)
    values = []
    for m in range(max_m + 1):
        total = Fraction(0)
        for key, c in h[m].items():
            if all(p == 1 for p in key.p_parts) and all(q == 1 for q in key.q_parts):
                total += c
        values.append(total)
    return values


def genus0_single_part_values(n_max: int) -> list[Fraction]:
    """Coefficient of p_n at u^(n-1)/(n-1)! in the genus-zero series,
    for n = 1 .. n_max."""
    nonnegative(n_max=n_max)
    h = genus0_series(max(n_max - 1, 0), n_max)
    return [h[n - 1].get(G0Type((n,), ()), Fraction(0)) for n in range(1, n_max + 1)]


def genus0_pde_residuals(h: tuple[dict, ...], max_m: int,
                         max_degree: int) -> tuple[int, G0Type, Fraction] | None:
    """The first nonzero residual h[m+1] - rhs_m of degree at most max_degree,
    as (m, key, value) with the least m and then the least key, or None if
    there is none through m = max_m. The candidate genus-zero series h is given
    by its coefficients {G0Type: value} of u^m/m! for m = 0 .. max_m + 1.

    The right side is half the sum of the cut and q-term images of h[m], the
    join images of the pairs of monomials of h[k] and h[m-k] weighted by
    comb(m, k), and p_2 at order zero. A join keeps the total degree of its
    pair, so pairs above max_degree are skipped.
    """
    for m in range(max_m + 1):
        rhs: dict = {G0Type((2,), ()): 1} if m == 0 else {}
        for key, c in h[m].items():
            for nu, a in genus0_images(key):
                rhs[nu] = rhs.get(nu, 0) + c * a
        for k in range(m + 1):
            weight = comb(m, k)
            for a, x in h[k].items():
                for b, y in h[m - k].items():
                    if a.degree + b.degree <= max_degree:
                        for nu, e in genus0_join_images(a, b):
                            rhs[nu] = rhs.get(nu, 0) + weight * x * y * e
        residual = [(k, c) for k in {**h[m + 1], **rhs} if k.degree <= max_degree
                    and (c := h[m + 1].get(k, 0) - Fraction(rhs.get(k, 0), 2))]
        if residual:
            return (m, *min(residual))
    return None


def verify_genus0_pde(max_m: int, max_degree: int) -> tuple[int, G0Type, Fraction] | None:
    """The first nonzero residual of the computed genus-zero series in its flow
    equation, as genus0_pde_residuals gives it, or None."""
    nonnegative(max_m=max_m, max_degree=max_degree)
    return genus0_pde_residuals(genus0_series(max_m + 1, max_degree), max_m, max_degree)
