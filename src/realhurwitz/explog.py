"""exp and log of labelled series, the exponential-generating-function
transforms between disconnected and connected counts.

Both run on the labelled store (poly.LabelledSeries) in int arithmetic, with
an exact division that raises ArithmeticError on a remainder, truncated to a
set of grades rather than to a total degree: they read the keys' `.union`
and `.grade` (see poly). Only poly.series takes the log, for connected
counts, and it imports this module on call, so a disconnected table
compiles none of it. An exp or log asked for an order above its input's
raises ValueError rather than reading the missing orders as zero.
"""

from __future__ import annotations

from math import comb, prod

from .model import EMPTY_TYPE, nonnegative
from .poly import LabelledSeries, _keys


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
