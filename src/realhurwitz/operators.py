"""Cut-and-join operators on ramification-type polynomials.

The plus operator acts on a monomial p_mu by four term families, summed over
ordered pairs (i, j) of positive integers, with s(i) = '+' for even i and '-'
for odd i:

  cut:   p_i^{s(i)} p_j^+ d/dp_{i+j}^{s(i)}   (chi shift 0)
  join:  p_{i+j}^{s(i)} d^2/(dp_i^{s(i)} dp_j^+)   (chi shift -2)
  real to complex pair:  i q-removal  i p_{2i}^+ d/dq_i   (chi shift -2)
  complex pair to real:  q_i d/dp_{2i}^+   (chi shift 0)

The minus operator conjugates the plus one by the sign swap p_k^+ <-> p_k^-,
and the mean is their half sum. All three preserve degree and bidegree. The
plus and minus operators are read-only int columns, one per type, built on
first use from moves cached per partition. evolve steps the start vector of
a grade of either walk model through its columns (powers), and a BlockMatrix
holds the columns of one block (the mean's Fraction columns are built there).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from enum import Enum
from functools import cached_property, lru_cache, partial
from types import MappingProxyType
from typing import Callable, Hashable, Iterator, Mapping

from .model import (
    Bidegree,
    Partition,
    RamificationType,
    enumerate_types,
    merge_partitions,
    nonnegative,
    partition,
    rtype,
    without,
)


class OperatorKind(Enum):
    WPLUS = "wplus"
    WMINUS = "wminus"
    WMEAN = "wmean"


@lru_cache(maxsize=None)
def _moves(p: Partition) -> tuple:
    """The moves on p of both walk models' term families, once per partition:
    its (part, multiplicity) pairs, largest first; p without one of each part,
    by the part; and p after each cut of a part and each join of two, i even
    (the plus families, on kappa_plus), as (partition, multiplier)s. Every
    partition handed out is the checked one of model.partition."""
    counts = tuple(Counter(p).items())
    less = {n: partition(without(p, n)) for n, _ in counts}
    return (counts, less,
            tuple((partition(merge_partitions(less[n], (i, n - i))), c)
                  for n, c in counts for i in range(2, n, 2)),
            tuple((partition(merge_partitions(without(p, i, j), (i + j,))), ci * (cj - (i == j)))
                  for i, ci in counts if i % 2 == 0 for j, cj in counts if cj - (i == j)))


@lru_cache(maxsize=None)
def _insert(p: Partition, k: int) -> Partition:
    """p with one more part k, the checked partition."""
    return partition(merge_partitions(p, (k,)))


# RamificationType's own __new__ is a Python function; the images skip it
_new_type = partial(tuple.__new__, RamificationType)


def wplus_images(mu: RamificationType) -> Iterator[tuple[RamificationType, int]]:
    """Images of the plus operator on the monomial p_mu.

    Yields (type, integer multiplier); repeated types may appear and must be
    summed by the caller.
    """
    kp, km, lam = mu
    (kp_counts, kp_less, cuts, joins), minus, pairs = map(_moves, mu)
    (km_counts, km_less), (lam_counts, lam_less) = minus[:2], pairs[:2]
    # cut differentiating a plus part: i even, both new parts positive
    for p, mult in cuts:
        yield _new_type((p, km, lam)), mult
    # cut differentiating a minus part: i odd stays negative, j positive
    for n, mult in km_counts:
        for i in range(1, n, 2):
            yield _new_type((_insert(kp, n - i), _insert(km_less[n], i), lam)), mult
    # join of two plus parts (i even): result positive
    for p, mult in joins:
        yield _new_type((p, km, lam)), mult
    # join of a minus part (i odd) with a plus part: result negative
    for i, ci in km_counts:
        if i % 2:
            for j, cj in kp_counts:
                yield _new_type((kp_less[j], _insert(km_less[i], i + j), lam)), ci * cj
    # complex pair of order l becomes a positive real part 2l, weight l
    for l, mult in lam_counts:
        yield _new_type((_insert(kp, 2 * l), km, lam_less[l])), l * mult
    # even positive real part 2l becomes a complex pair of order l
    for n, mult in kp_counts:
        if n % 2 == 0:
            yield _new_type((kp_less[n], km, _insert(lam, n // 2))), mult


_INTERNED: dict = {}  # each type once, with its grade: the keys of every column
_GRADES: dict = {}  # each grade once, shared by the types of its block


def _intern(mu, canonical: Callable) -> tuple:
    """The one copy of mu and its grade. On first sight mu must be what
    canonical, its model's validated constructor (each partition checked in full
    once), rebuilds from its fields; else it lies in no block basis: RuntimeError.
    The copy kept is the rebuilt one, made of the checked partitions."""
    got = _INTERNED.get(mu)
    if got is None:
        try:
            rebuilt = canonical(*mu)
        except ValueError:
            rebuilt = None
        if rebuilt != mu:
            raise RuntimeError(f"type {mu!r} is not in canonical form")
        grade = rebuilt.grade
        got = _INTERNED[rebuilt] = (rebuilt, _GRADES.setdefault(grade, grade))
    return got


def cached_columns(image: Callable, canonical: Callable) -> Callable:
    """The column accessor of one operator: the column at mu sums the (type,
    value) pairs of image(mu), built on first use and handed out read-only, the
    sum itself unless an entry cancelled. Every type is checked once against
    canonical (see _intern); an image seen before is read from the interned
    copies directly. A value that is not an int raises ArithmeticError, an image
    of another grade than mu RuntimeError. The canonical types of one grade are
    exactly the basis of its block, so these checks need no block basis."""
    cache: dict = {}
    interned = _INTERNED.get

    def column(mu) -> Mapping:
        col = cache.get(mu)
        if col is None:
            mu, grade = _intern(mu, canonical)
            col = {}
            for nu, c in image(mu):
                nu, g = interned(nu) or _intern(nu, canonical)
                if g is not grade:
                    raise RuntimeError(f"operator image {nu!r} of {mu!r} leaves grade {grade}")
                if type(c) is not int:
                    raise ArithmeticError(f"entry {c} at ({nu!r}, {mu!r}) of the operator "
                                          "is not an int")
                col[nu] = col.get(nu, 0) + c
            col = cache[mu] = MappingProxyType(
                col if all(col.values()) else {nu: c for nu, c in col.items() if c})
        return col

    return column


wplus_column = cached_columns(wplus_images, rtype)
# the minus operator is the plus one relabelled by the sign swap
wminus_column = cached_columns(lambda mu: ((nu.swap_signs(), c) for nu, c in
                                           wplus_column(mu.swap_signs()).items()), rtype)


def _wmean_column(mu) -> Mapping:
    """Half the sum of the plus and minus columns at mu, in Fractions: their image."""
    from fractions import Fraction
    half = Fraction(1, 2)
    return MappingProxyType(_image({0: half, 1: half},
                                   (wplus_column(mu), wminus_column(mu)).__getitem__))


def _image(terms: Mapping, column: Callable) -> dict:
    """Sum over the terms c p_mu of c times the sparse column(mu), without
    the zero sums: the sum itself when it has none."""
    out: dict = {}
    for mu, c in terms.items():
        for nu, a in column(mu).items():
            out[nu] = out.get(nu, 0) + c * a
    return out if all(out.values()) else {nu: x for nu, x in out.items() if x}


def powers(column: Callable, start: dict, max_m: int) -> tuple[dict, ...]:
    """start and its first max_m images through the columns: the
    coefficients of u^m/m! of e^(uW) applied to start, each a new dict."""
    out = [start]
    for _ in range(max_m):
        out.append(_image(out[-1], column))
    return tuple(out)


# what the shared series steps read of one walk model: its operator's column
# accessor, the labelled start vector of a grade, its validated type constructor
ModelBinding = namedtuple("ModelBinding", "column start canonical")


def mirror(piece: tuple) -> tuple[dict, ...]:
    """The piece of grade (b, a) from that of (a, b) in new dicts, each key swapped once."""
    swapped = {mu: mu.swap_signs() for mu in set().union(*piece)}
    return tuple({swapped[mu]: x for mu, x in vec.items()} for vec in piece)


def evolve(model: ModelBinding, grade: tuple, max_m: int) -> tuple[dict, ...]:
    """powers of the model's columns on the start vector of grade: the walk
    totals of its block, in int, for every grade, the lower ones included."""
    nonnegative(max_m=max_m, **{f"grade[{i}]": n for i, n in enumerate(grade)})
    return powers(model.column, model.start(grade), max_m)


class BlockMatrix:
    """One linear operator on one block of a walk model: columns maps each
    basis type, read-only, to column(type), the shared cached column itself.
    The block is a Bidegree for the signed model, the degree n for the unsigned."""

    def __init__(self, block: Hashable, basis: tuple, column: Callable) -> None:
        self.block, self.basis = block, basis
        self.columns = MappingProxyType({mu: column(mu) for mu in basis})

    @cached_property
    def entries(self) -> tuple[tuple, ...]:
        """Dense view entries[row][col], built on first use. Every entry is
        a Fraction, so exact elimination on it never turns into float division."""
        from fractions import Fraction
        return tuple(tuple(Fraction(self.columns[col].get(row, 0)) for col in self.basis)
                     for row in self.basis)

    def step(self, vec: Mapping) -> dict:
        """Image of a vector {type: exact value} of this block; a key
        outside the basis raises KeyError."""
        return _image(vec, self.columns.__getitem__)


_COLUMNS = {OperatorKind.WPLUS: wplus_column, OperatorKind.WMINUS: wminus_column,
            OperatorKind.WMEAN: _wmean_column}


def block_matrix(kind: OperatorKind, b: Bidegree) -> BlockMatrix:
    """The chosen operator on the enumerate_types(b) basis, assembled from
    the shared columns; the mean's half-sum columns are built here. A
    component of b that is not a nonnegative int raises ValueError."""
    b = Bidegree(*b)
    nonnegative(n_plus=b.n_plus, n_minus=b.n_minus)
    return BlockMatrix(b, enumerate_types(b), _COLUMNS[kind])
