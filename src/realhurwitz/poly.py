"""The labelled store of u-series of counts, and its exp and log.

A series stores the coefficients of u^m/m!, so series products use binomial
convolution and exp/log are the exponential-generating-function transforms
relating disconnected and connected counts. The keys of a series in the
labelled store provide `.union(other)` (monomial product) and `.grade`: a
tuple of nonnegative integers that adds under union and is zero only for
the constant monomial (the bidegree of a RamificationType, the 1-tuple of
the degree of a tilde type). exp and log read both, and are truncated to a
set of grades rather than to a total degree.

Series of counts are kept as labelled integers (Flajolet-Sedgewick,
Analytic Combinatorics, ch. II): a LabelledSeries holds label(g) times each
coefficient of grade g, the product of the factorials of the components of
g. Every count of both walk models is an int there, and exp and log run on
it in int arithmetic, with an exact division that raises ArithmeticError on
a remainder. series, the one pipeline of both walk models, evolves the
listed grades through a model's binding (operators.evolve) and takes the log
for connected counts; value reads one count. A table leaves the store as
records, each value two ints in lowest terms, ordered by model.canonical_key
and with model.euler_characteristic (both serve either model's types); the
command line reads only those. Fractions, imported where one is built, enter
where a value leaves the store otherwise: a row, one value, or the dict
{key: Fraction} of the nonzero entries of one order. A read above the order
or outside the grades a store was computed on raises ValueError, and so do
an exp or log asked for an order above its input's; none reads as zero.
"""

from __future__ import annotations

from itertools import chain, compress, product
from math import comb, gcd, prod
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .model import EMPTY_TYPE, key_and_chi, label, nonnegative

if TYPE_CHECKING:
    from fractions import Fraction


def _keys(grade, piece) -> dict:
    """The keys of a piece in order of first appearance. A key must lie in
    the piece of its own grade, else it would be joined with the entries of
    that piece when pieces merge; one that does not raises ValueError."""
    keys = dict.fromkeys(k for vec in piece for k in vec)
    for k in keys:
        if k.grade != grade:
            raise ValueError(f"key {k!r} of grade {tuple(k.grade)} is in the piece "
                             f"of grade {tuple(grade)}")
    return keys


class HurwitzRow(NamedTuple):
    m: int
    mu: object
    chi: int
    connected: bool
    value: Fraction


class LabelledSeries(NamedTuple):
    """Labelled integer counts of a series in u^m/m!.

    pieces maps each grade g to a sequence, indexed by m = 0 .. max_m, of
    {key: x}, where x is label(g) times the coefficient of p_key u^m/m!, an
    int. A disconnected series of either walk model holds the walk totals
    that the oracle divides by the label factor. Every key lies in the piece
    of its own grade; reading a series that breaks this raises ValueError,
    and so does a read above max_m or on a grade without a piece.
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
            _keys(g, (piece[m],))
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
        # of the grade check of _keys, the part that costs nothing: no key in two pieces
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

    def rows(self) -> list[HurwitzRow]:
        """The records as table rows, each value a Fraction."""
        from fractions import Fraction
        return [HurwitzRow(m, k, chi, self.connected, Fraction(num, den))
                for m, k, chi, num, den in self.records()]


def _constant_row(series: LabelledSeries) -> list:
    """Coefficients of the constant monomial, the only key of grade zero.
    exp and log read it first, so any other input raises TypeError here."""
    if not isinstance(series, LabelledSeries):
        raise TypeError(f"series_exp and series_log take a LabelledSeries, "
                        f"not {type(series).__name__}")
    for g, piece in series.pieces.items():
        if not any(g):
            return [sum(vec.values()) for vec in piece]
    return []


def _convolve_into(acc: dict, a: dict, b: dict, weight: int, binom: list,
                   max_m: int) -> None:
    """Add weight times the product of two labelled pieces {key: row} to acc.
    Rows convolve binomially, the u^m/m! normalization: entry m of the
    product of rows x and y is the sum over k of comb(m, k) x_k y_(m-k)."""
    b = [(kb, [(j, y) for j, y in enumerate(row) if y]) for kb, row in b.items()]
    for ka, row in a.items():
        sa = [(i, weight * x, binom[i]) for i, x in enumerate(row) if x]
        if not sa:
            continue
        for kb, sb in b:
            if not sb or sa[0][0] + sb[0][0] > max_m:
                continue
            key = ka.union(kb)
            out = acc.get(key)
            if out is None:
                out = acc[key] = [0] * (max_m + 1)
            for i, x, ci in sa:
                for j, y in sb:
                    if i + j > max_m:
                        break
                    out[i + j] += ci[j] * x * y


def _euler_recurrence(given: LabelledSeries, max_m: int, grades, log: bool) -> LabelledSeries:
    """log (log=True) or exp (log=False) of a labelled series, by the Euler
    operator.

    theta multiplies the graded piece of grade b by |b|, the sum of its
    components; it is a derivation, so H = exp F satisfies theta H =
    (theta F) H. On labelled counts the product of pieces c and b - c
    carries the weight w(b, c) = prod_i comb(b_i, c_i), so the piece of
    grade b reads

        |b| F_b = |b| H_b - sum over 0 < c < b of |c| w(b, c) F_c * H_(b - c).

    Solved for F_b (log) or H_b (exp) in order of |b|, this uses each pair
    of pieces once, in int arithmetic. The labelled log and exp of an
    integer series are integers (the rooted form of the same recurrence has
    integer weights), so the division by |b| is exact; a remainder raises
    ArithmeticError. grades must contain, with every grade, all smaller
    ones (componentwise); a product of pieces c and b - c lies in piece b,
    so the result is exact on every listed grade. An order max_m that is
    not a nonnegative int, or one above given's, raises ValueError, and so
    does a listed grade of nonzero size whose piece given lacks or cuts short.
    """
    nonnegative(max_m=max_m)
    if max_m > given.max_m:
        raise ValueError(f"max_m {max_m} is above the input's, computed to u^{given.max_m}")
    grades = set(grades)
    for g in grades:
        for i, x in enumerate(g):
            if x and g[:i] + (x - 1,) + g[i + 1:] not in grades:
                raise ValueError(f"grade {tuple(g)} is listed without a smaller one")
    width = max_m + 1
    zeros = [0] * width
    binom = [[comb(i + j, i) for j in range(width)] for i in range(width)]
    solved: dict = {}   # grade -> piece of F (log) or of H (exp)
    h: dict = {}        # grade -> piece of H
    theta_f: dict = {}  # grade -> piece of theta F
    for b in sorted(grades, key=sum):
        size = sum(b)
        if not size:  # the log has no constant term; exp sets its own
            solved[b] = [{} for _ in range(width)]
            continue
        acc: dict = {}
        for c, piece in theta_f.items():
            d = tuple(x - y for x, y in zip(b, c))
            if min(d) >= 0 and sum(d):
                weight = prod(comb(x, y) for x, y in zip(b, c))
                _convolve_into(acc, piece, h[d], weight, binom, max_m)
        if b not in given.pieces:
            raise ValueError(f"grade {tuple(b)} is listed but was not computed")
        vectors = list(given.pieces[b])[:width]
        if len(vectors) < width:
            raise ValueError(f"grade {tuple(b)} stops at u^{len(vectors) - 1}, below u^{max_m}")
        known = {k: [vec.get(k, 0) for vec in vectors] for k in _keys(b, vectors)}
        out = {}
        for k in {**known, **acc}:
            row = []
            for x, y in zip(known.get(k, zeros), acc.get(k, zeros)):
                q, r = divmod(y, size)
                if r:
                    raise ArithmeticError(f"labelled sum {y} at {k!r} is not divisible by {size}")
                row.append(x - q if log else x + q)
            if any(row):
                out[k] = row
        solved[b] = [{k: row[m] for k, row in out.items() if row[m]} for m in range(width)]
        f_b, h[b] = (out, known) if log else (known, out)
        theta_f[b] = {k: [size * x for x in row] for k, row in f_b.items()}
    return LabelledSeries(solved, max_m, log)


def series_exp(h: LabelledSeries, max_m: int, grades,
               empty_key=EMPTY_TYPE) -> LabelledSeries:
    """exp of a series with no constant-monomial term, on the listed grades
    (closed under taking smaller grades) and through u^max_m, at most h's
    max_m. The result's
    constant monomial (coefficient 1 at m=0) is indexed by empty_key, which
    must match the key type of h."""
    for m, x in enumerate(_constant_row(h)):
        if x:
            raise ValueError(f"series_exp input has a constant-monomial term at m={m}")
    result = _euler_recurrence(h, max_m, grades, log=False)
    result.pieces[empty_key.grade] = [{empty_key: 1}] + [{} for _ in range(max_m)]
    return result


def series_log(big_h: LabelledSeries, max_m: int, grades) -> LabelledSeries:
    """log of a series whose m=0 coefficient has constant term 1 (and 0 for
    m>0), on the listed grades (closed under taking smaller grades) and
    through u^max_m, at most big_h's max_m."""
    constant = _constant_row(big_h)
    if constant[:1] != [1]:
        raise ValueError("series_log input must have constant-monomial coefficient 1 at m=0")
    for m, x in enumerate(constant[1:], 1):
        if x:
            raise ValueError(f"series_log input has a constant-monomial term at m={m}")
    return _euler_recurrence(big_h, max_m, grades, log=True)


def series(model, grades, max_m: int, connected: bool) -> LabelledSeries:
    """The disconnected series of a walk model on the listed grades through
    u^max_m, or its log; each sign-swap pair of grades is evolved once."""
    from .operators import evolve, mirror
    nonnegative(max_m=max_m)
    pieces = {g: evolve(model, g, max_m) for g in grades if g >= g[::-1] or g[::-1] not in grades}
    pieces = {g: pieces.get(g) or mirror(pieces[g[::-1]]) for g in grades}
    disc = LabelledSeries(pieces, max_m, False)
    return series_log(disc, max_m, grades) if connected else disc


def value(model, mu, m: int, connected: bool = True) -> Fraction:
    """One count, a Fraction: the coefficient of p_mu u^m/m! in the chosen series
    on the grades at most mu's. A type that model.canonical does not rebuild
    unchanged, or one of another model, raises ValueError, and so does an
    order m that is not a nonnegative int."""
    nonnegative(m=m)
    if type(mu) is not type(model.canonical()) or model.canonical(*mu) != mu:
        raise ValueError(f"type {mu!r} is not in canonical form")
    grades = list(product(*(range(x + 1) for x in mu.grade)))
    return series(model, grades, m, connected).value(mu, m)
