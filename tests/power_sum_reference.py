"""Reference formal logarithm by the power sum log(1+X) = sum (-1)^(n+1) X^n/n,
and exponential by exp(X) = sum X^n/n!.

A series here is the list of its coefficients of u^m/m!, m = 0 .. max_m, as
PolyVectors of Fractions; LabelledSeries.coeffs yields one. The functions
build X^2, X^3, ... as full series products truncated to total degree, by
the bucketed monomial product `mul`, and are kept only as the slow reference
that the one-pass labelled recurrence of realhurwitz.poly is checked against.
PolyVector is a read-only view, so the sums they need are formed by `add`.
"""

from fractions import Fraction
from math import comb

from realhurwitz.poly import PolyVector


def add(a: PolyVector, b: PolyVector, scale: Fraction | int = 1) -> PolyVector:
    """a + scale * b; coefficients that sum to zero drop out."""
    out = dict(a.terms)
    for k, c in b.terms.items():
        out[k] = out.get(k, 0) + scale * c
    return PolyVector(out)


def _by_degree(v: PolyVector) -> dict[int, list[tuple[object, Fraction]]]:
    buckets: dict[int, list[tuple[object, Fraction]]] = {}
    for k, c in v.terms.items():
        buckets.setdefault(k.degree, []).append((k, c))
    return buckets


def mul(a: PolyVector, b: PolyVector, max_degree: int | None = None) -> PolyVector:
    """Bilinear monomial product; keys combine by part-wise union."""
    if not a.terms or not b.terms:
        return PolyVector()
    out: dict = {}
    for da, a_terms in _by_degree(a).items():
        for db, b_terms in _by_degree(b).items():
            if max_degree is not None and da + db > max_degree:
                continue
            for ka, ca in a_terms:
                for kb, cb in b_terms:
                    key = ka.union(kb)
                    s = out.get(key, 0) + ca * cb
                    if s:
                        out[key] = s
                    else:
                        del out[key]
    return PolyVector(out)


def series_mul(a: list[PolyVector], b: list[PolyVector], max_m: int,
               max_degree: int) -> list[PolyVector]:
    """Product of u-series in the u^m/m! normalization (binomial convolution)."""
    out = []
    for m in range(max_m + 1):
        acc = PolyVector()
        for k in range(m + 1):
            ak = a[k]
            bk = b[m - k]
            if ak and bk:
                acc = add(acc, mul(ak, bk, max_degree), comb(m, k))
        out.append(acc)
    return out


def power_sum_log(big_h: list[PolyVector], max_m: int, max_degree: int) -> list[PolyVector]:
    """log of a series with constant term 1, truncated to total degree
    max_degree and order max_m in u."""
    x = [PolyVector({k: c for k, c in big_h[m] if any(k.grade)}).restrict_degree(max_degree)
         for m in range(max_m + 1)]
    result = list(x)
    power = x
    sign = 1
    # X has minimum degree 1 in every coefficient, so X^n vanishes past max_degree.
    for n in range(2, max_degree + 1):
        power = series_mul(power, x, max_m, max_degree)
        if not any(power):
            break
        sign = -sign
        for m in range(max_m + 1):
            result[m] = add(result[m], power[m], Fraction(sign, n))
    return result


def power_sum_exp(x: list[PolyVector], max_m: int, max_degree: int,
                  empty_key) -> list[PolyVector]:
    """exp of a series with no constant term, truncated to total degree
    max_degree and order max_m in u."""
    x = [x[m].restrict_degree(max_degree) for m in range(max_m + 1)]
    result = list(x)
    result[0] = add(result[0], PolyVector({empty_key: 1}))
    power = x
    factorial = 1
    for n in range(2, max_degree + 1):
        power = series_mul(power, x, max_m, max_degree)
        if not any(power):
            break
        factorial *= n
        for m in range(max_m + 1):
            result[m] = add(result[m], power[m], Fraction(1, factorial))
    return result
