"""The labelled store of u-series of counts, and the one series pipeline.

A series stores the coefficients of u^m/m!, so series products use binomial
convolution, and the connected series is the log of the disconnected one.
The keys of a series in the labelled store provide
`.union(other)` (monomial product) and `.grade`: a tuple of nonnegative
integers that adds under union and is zero only for the constant monomial
(the bidegree of a RamificationType, the 1-tuple of the degree of a tilde
type).

Series of counts are kept as labelled integers (Flajolet-Sedgewick,
Analytic Combinatorics, ch. II): a LabelledSeries holds label(g) times each
coefficient of grade g, the product of the factorials of the components of
g. Every count of both walk models is an int there. series, the one
pipeline of both walk models, evolves the listed grades through a model's
binding: by operators.evolve for disconnected counts, by the connected
cut-and-join equation for connected ones, importing realhurwitz.connected
only then, so a disconnected table compiles none of it; value reads one
connected count. A table leaves the store as records, each value two ints
in lowest terms, ordered by model.canonical_key and with
model.euler_characteristic (both serve either model's types); the command
line reads only those. Fractions, imported where one is built, enter where
a value leaves the store otherwise: one value, or the dict {key: Fraction}
of the nonzero entries of one order. A read above the order
or outside the grades a store was computed on raises ValueError; none reads
as zero.
"""

from __future__ import annotations

from itertools import chain, compress, product
from math import gcd
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .model import key_and_chi, label, nonnegative

if TYPE_CHECKING:
    from fractions import Fraction


def _check_keys(grade, vec) -> None:
    """Refuse, by ValueError, a key of vec, one order of the piece of the given
    grade, that is of another grade: merged with the other pieces, it would be
    joined with the entries of the piece of its own grade."""
    for k in vec:
        if k.grade != grade:
            raise ValueError(f"key {k!r} of grade {tuple(k.grade)} is in the piece "
                             f"of grade {tuple(grade)}")


class LabelledSeries(NamedTuple):
    """Labelled integer counts of a series in u^m/m!.

    pieces maps each grade g to a sequence, indexed by m = 0 .. max_m, of
    {key: x}, where x is label(g) times the coefficient of p_key u^m/m!, an
    int. A disconnected series of either walk model holds the walk totals
    that the oracle divides by the label factor. Every key lies in the piece of
    its own grade; reading a series that breaks this raises ValueError, and
    so does a read above max_m or on a grade without a piece.
    """

    pieces: dict
    max_m: int
    connected: bool

    def _order(self, m: int) -> None:
        if type(m) is not int or not 0 <= m <= self.max_m:
            raise ValueError(f"order {m!r} is outside the series, computed to u^{self.max_m}")

    def value(self, key, m: int) -> Fraction:
        """The coefficient of p_key u^m/m!."""
        self._order(m)
        g = key.grade
        if g not in self.pieces:
            raise ValueError(f"grade {tuple(g)} of {key!r} was not computed")
        from fractions import Fraction
        return Fraction(self.pieces[g][m].get(key, 0), label(g))

    def coeff(self, m: int) -> dict:
        """The coefficient of u^m/m! as a new dict {key: Fraction} of its
        nonzero entries: each labelled entry over the label factor of its grade."""
        from fractions import Fraction
        self._order(m)
        out: dict = {}
        for g, piece in self.pieces.items():
            _check_keys(g, piece[m])
            d = label(g)
            out.update((k, Fraction(x, d)) for k, x in piece[m].items() if x)
        return out

    @property
    def coeffs(self) -> list[dict]:
        """The coefficients of u^m/m!, m = 0 .. max_m."""
        return [self.coeff(m) for m in range(self.max_m + 1)]

    def records(self) -> Iterator[tuple]:
        """Nonzero coefficients as (m, key, chi, num, den), num/den in lowest
        terms with den > 0, ordered by m and then by canonical_key: each key ranked
        once, with its chi and label, and each order's entries placed by rank."""
        keyed = sorted((*key_and_chi(k), k, d) for g, piece in self.pieces.items()
                       for d in (label(g),) for k in set().union(*piece))
        rank = {k: i for i, (_, _, k, _) in enumerate(keyed)}
        # of the grade check of _check_keys, the part that costs nothing: no key in two pieces
        if len(rank) != len(keyed):
            raise ValueError("a key lies in two pieces")
        def placed():
            for m in range(self.max_m + 1):
                slots = [0] * len(keyed)
                for k, x in chain.from_iterable(p[m].items() for p in self.pieces.values()):
                    slots[rank[k]] = x
                for (_, chi, k, d), x in compress(zip(keyed, slots), slots):
                    yield m, k, chi - m, x // (q := gcd(x, d)), d // q
        return placed()


def series(model, grades, max_m: int, connected: bool) -> LabelledSeries:
    """The disconnected or the connected series of a walk model on the listed
    grades through u^max_m. The connected one flows by its own equation
    (connected.connected_series). Of the disconnected one each sign-swap pair
    of grades is evolved once, the lower grade read as the mirror of its
    reverse: W- = S W+ S, S the sign swap, evolves each start vector as W+ does."""
    nonnegative(max_m=max_m)
    if connected:
        from .connected import connected_series
        return LabelledSeries(connected_series(model, grades, max_m), max_m, True)
    from .operators import evolve, mirror
    pieces = {g: evolve(model, g, max_m) for g in grades if g >= g[::-1] or g[::-1] not in grades}
    pieces = {g: pieces.get(g) or mirror(pieces[g[::-1]]) for g in grades}
    return LabelledSeries(pieces, max_m, False)


def value(model, mu, m: int) -> Fraction:
    """One count, a Fraction: the coefficient of p_mu u^m/m! in the connected
    series on the grades at most mu's. A type that model.canonical does not
    rebuild unchanged, or one of another model, raises ValueError, and so does
    an order m that is not a nonnegative int."""
    nonnegative(m=m)
    if type(mu) is not type(model.canonical()) or model.canonical(*mu) != mu:
        raise ValueError(f"type {mu!r} is not in canonical form")
    grades = list(product(*(range(x + 1) for x in mu.grade)))
    return series(model, grades, m, True).value(mu, m)
