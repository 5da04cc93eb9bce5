"""Reference formal logarithm by the power sum log(1+X) = sum (-1)^(n+1) X^n/n,
and exponential by exp(X) = sum X^n/n!.

A series here is the list of its coefficients of u^m/m!, m = 0 .. max_m, as
dicts {key: Fraction} of their nonzero entries; LabelledSeries.coeffs yields
one. The functions build X^2, X^3, ... as full series products truncated to
total degree, by the bucketed monomial product `mul`, and are kept only as
the slow reference that the one-pass labelled recurrence of realhurwitz.explog
is checked against. Each function returns new dicts; the sums they need are
formed by `add`, which drops the entries that cancel.
"""

from fractions import Fraction
from math import comb


def add(a: dict, b: dict, scale: Fraction | int = 1) -> dict:
    """a + scale * b; coefficients that sum to zero drop out."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def _by_degree(v: dict) -> dict[int, list[tuple[object, Fraction]]]:
    buckets: dict[int, list[tuple[object, Fraction]]] = {}
    for k, c in v.items():
        buckets.setdefault(k.degree, []).append((k, c))
    return buckets


def mul(a: dict, b: dict, max_degree: int | None = None) -> dict:
    """Bilinear monomial product; keys combine by part-wise union."""
    if not a or not b:
        return {}
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
    return out


def series_mul(a: list[dict], b: list[dict], max_m: int, max_degree: int) -> list[dict]:
    """Product of u-series in the u^m/m! normalization (binomial convolution)."""
    out = []
    for m in range(max_m + 1):
        acc: dict = {}
        for k in range(m + 1):
            ak = a[k]
            bk = b[m - k]
            if ak and bk:
                acc = add(acc, mul(ak, bk, max_degree), comb(m, k))
        out.append(acc)
    return out


def _up_to(v: dict, max_degree: int) -> dict:
    return {k: c for k, c in v.items() if k.degree <= max_degree}


def power_sum_log(big_h: list[dict], max_m: int, max_degree: int) -> list[dict]:
    """log of a series with constant term 1, truncated to total degree
    max_degree and order max_m in u."""
    x = [{k: c for k, c in _up_to(big_h[m], max_degree).items() if any(k.grade)}
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


def power_sum_exp(x: list[dict], max_m: int, max_degree: int, empty_key) -> list[dict]:
    """exp of a series with no constant term, truncated to total degree
    max_degree and order max_m in u."""
    x = [_up_to(x[m], max_degree) for m in range(max_m + 1)]
    result = list(x)
    result[0] = add(result[0], {empty_key: 1})
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
