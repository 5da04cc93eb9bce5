"""Cut-and-join operators on ramification-type polynomials.

The plus operator acts on a monomial p_mu by four term families, summed over
ordered pairs (i, j) of positive integers, with s(i) = '+' for even i and '-'
for odd i:

  cut:   p_i^{s(i)} p_j^+ d/dp_{i+j}^{s(i)}   (chi shift 0)
  join:  p_{i+j}^{s(i)} d^2/(dp_i^{s(i)} dp_j^+)   (chi shift -2)
  real to complex pair:  i q-removal  i p_{2i}^+ d/dq_i   (chi shift -2)
  complex pair to real:  q_i d/dp_{2i}^+   (chi shift 0)

The minus operator conjugates the plus one by the sign swap p_k^+ <-> p_k^-,
and the mean is their half sum. All three preserve degree and bidegree.
The plus and minus operators are read-only int columns, one per type, built
on first use; powers steps through them, and a BlockMatrix holds those of
one block (the mean's Fraction columns are built there). The terms of the
genus-0 flow on unsigned variables live here as well, as images of one
monomial (cut and q-term) or of a pair of monomials (join).
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Hashable, Iterator, Mapping, NamedTuple

from .model import (
    Bidegree,
    Partition,
    RamificationType,
    enumerate_types,
    merge_partitions,
    rtype,
    without,
)


class OperatorKind(Enum):
    WPLUS = "wplus"
    WMINUS = "wminus"
    WMEAN = "wmean"


def wplus_images(mu: RamificationType) -> Iterator[tuple[RamificationType, int]]:
    """Images of the plus operator on the monomial p_mu.

    Yields (type, integer multiplier); repeated types may appear and must be
    summed by the caller.
    """
    kp, km, lam = mu.kappa_plus, mu.kappa_minus, mu.lam
    kp_counts = Counter(kp)
    km_counts = Counter(km)
    # cut differentiating a plus part: i even, both new parts positive
    for n, mult in kp_counts.items():
        for i in range(2, n, 2):
            yield RamificationType(merge_partitions(without(kp, n), (i, n - i)), km, lam), mult
    # cut differentiating a minus part: i odd stays negative, j positive
    for n, mult in km_counts.items():
        for i in range(1, n, 2):
            yield (RamificationType(merge_partitions(kp, (n - i,)),
                                    merge_partitions(without(km, n), (i,)), lam), mult)
    # join of two plus parts (i even): result positive
    for i in kp_counts:
        if i % 2:
            continue
        for j in kp_counts:
            mult = kp_counts[i] * (kp_counts[j] - (1 if i == j else 0))
            if mult:
                yield (RamificationType(merge_partitions(without(kp, i, j), (i + j,)), km, lam),
                       mult)
    # join of a minus part (i odd) with a plus part: result negative
    for i in km_counts:
        if i % 2 == 0:
            continue
        for j in kp_counts:
            yield (RamificationType(without(kp, j),
                                    merge_partitions(without(km, i), (i + j,)), lam),
                   km_counts[i] * kp_counts[j])
    # complex pair of order l becomes a positive real part 2l, weight l
    for l, mult in Counter(lam).items():
        yield RamificationType(merge_partitions(kp, (2 * l,)), km, without(lam, l)), l * mult
    # even positive real part 2l becomes a complex pair of order l
    for n, mult in kp_counts.items():
        if n % 2 == 0:
            yield RamificationType(without(kp, n), km, merge_partitions(lam, (n // 2,))), mult


_INTERNED: dict = {}  # each type once, with its grade: the keys of every column
_GRADES: dict = {}  # each grade once, shared by the types of its block


def _intern(mu, canonical: Callable) -> tuple:
    """The one copy of mu and its grade. On first sight mu must be what
    canonical, its model's validated constructor, rebuilds from its fields;
    else it lies in no block basis and raises RuntimeError."""
    got = _INTERNED.get(mu)
    if got is None:
        try:
            rebuilt = canonical(*mu)
        except ValueError:
            rebuilt = None
        if rebuilt != mu:
            raise RuntimeError(f"type {mu!r} is not in canonical form")
        grade = mu.grade
        got = _INTERNED[mu] = (mu, _GRADES.setdefault(grade, grade))
    return got


def cached_columns(image: Callable, canonical: Callable) -> Callable:
    """The column accessor of one operator: the column at mu sums the
    (type, value) pairs of image(mu), built on first use and then handed out
    read-only. Every type is checked once against canonical (see _intern).
    A value that is not an int raises ArithmeticError, an image of another
    grade than mu RuntimeError. The canonical types of one grade are exactly
    the basis of its block, so these checks need no block basis."""
    cache: dict = {}

    def column(mu) -> Mapping:
        col = cache.get(mu)
        if col is None:
            mu, grade = _intern(mu, canonical)
            col = {}
            for nu, c in image(mu):
                nu, g = _intern(nu, canonical)
                if g != grade:
                    raise RuntimeError(f"operator image {nu!r} of {mu!r} leaves grade {grade}")
                if type(c) is not int:
                    raise ArithmeticError(f"entry {c} at ({nu!r}, {mu!r}) of the operator "
                                          "is not an int")
                col[nu] = col.get(nu, 0) + c
            col = cache[mu] = MappingProxyType({nu: c for nu, c in col.items() if c})
        return col

    return column


wplus_column = cached_columns(wplus_images, rtype)
# the minus operator is the plus one relabelled by the sign swap
wminus_column = cached_columns(lambda mu: ((nu.swap_signs(), c) for nu, c in
                                           wplus_column(mu.swap_signs()).items()), rtype)


def _wmean_column(mu) -> Mapping:
    """Half the sum of the plus and minus columns at mu, in Fractions: the
    image of the two columns, each weighted 1/2."""
    half = Fraction(1, 2)
    return MappingProxyType(_image({0: half, 1: half},
                                   (wplus_column(mu), wminus_column(mu)).__getitem__))


def _image(terms: Mapping, column: Callable) -> dict:
    """Sum over the terms c p_mu of c times the sparse column(mu), without
    the zero sums."""
    out: dict = {}
    for mu, c in terms.items():
        for nu, a in column(mu).items():
            out[nu] = out.get(nu, 0) + c * a
    return {nu: x for nu, x in out.items() if x}


def powers(column: Callable, start: dict, max_m: int) -> tuple[dict, ...]:
    """start and its first max_m images through the columns: the
    coefficients of u^m/m! of e^(uW) applied to start, each a new dict."""
    out = [start]
    for _ in range(max_m):
        out.append(_image(out[-1], column))
    return tuple(out)


class BlockMatrix:
    """One linear operator on one block of a walk model: columns maps each
    basis type, read-only, to column(type), the shared cached column itself.
    The block is a Bidegree for the signed model, the degree n for the unsigned."""

    def __init__(self, block: Hashable, basis: tuple, column: Callable) -> None:
        self.block, self.basis = block, basis
        self.columns = MappingProxyType({mu: column(mu) for mu in basis})

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense view entries[row][col], built on first use. Every entry is
        a Fraction, so exact elimination on it never turns into float division."""
        return tuple(tuple(Fraction(self.columns[col].get(row, 0)) for col in self.basis)
                     for row in self.basis)

    def matvec(self, vec) -> list:
        """Exact image of a coordinate vector over the basis, summed from the
        sparse columns; float coordinates are read as the rationals they equal."""
        image = _image({mu: Fraction(c) for mu, c in zip(self.basis, vec) if c},
                       self.columns.__getitem__)
        return [image.get(mu, Fraction(0)) for mu in self.basis]

    def step(self, vec: Mapping) -> dict:
        """Image of a vector {type: exact value} of this block; a key
        outside the basis raises KeyError."""
        return _image(vec, self.columns.__getitem__)


_COLUMNS = {OperatorKind.WPLUS: wplus_column, OperatorKind.WMINUS: wminus_column,
            OperatorKind.WMEAN: _wmean_column}


@lru_cache(maxsize=None)
def block_matrix(kind: OperatorKind, b: Bidegree) -> BlockMatrix:
    """The chosen operator on the enumerate_types(b) basis, assembled once
    from the shared columns; the mean's half-sum columns are built here."""
    b = Bidegree(*b)
    return BlockMatrix(b, enumerate_types(b), _COLUMNS[kind])


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
