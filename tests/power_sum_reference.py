"""Reference formal logarithm by the power sum log(1+X) = sum (-1)^(n+1) X^n/n,
and exponential by exp(X) = sum X^n/n!.

They build X^2, X^3, ... as full series products of Fractions truncated to
total degree, and are kept only as the slow reference that the one-pass
labelled recurrence of realhurwitz.poly is checked against.
"""

from fractions import Fraction
from math import comb

from realhurwitz.poly import PolyVector, USeries


def series_mul(a: USeries, b: USeries, max_m: int, max_degree: int) -> USeries:
    """Product of u-series in the u^m/m! normalization (binomial convolution)."""
    out = []
    for m in range(max_m + 1):
        acc = PolyVector()
        for k in range(m + 1):
            ak = a.coeff(k)
            bk = b.coeff(m - k)
            if ak and bk:
                acc = acc + ak.mul(bk, max_degree).scale(comb(m, k))
        out.append(acc)
    return USeries(out)


def power_sum_log(big_h: USeries, max_m: int, max_degree: int) -> USeries:
    """log of a series with constant term 1, truncated to total degree
    max_degree and order max_m in u."""
    x = USeries([PolyVector({k: c for k, c in big_h.coeff(m) if any(k.grade)})
                 .restrict_degree(max_degree) for m in range(max_m + 1)])
    result = list(x.coeffs)
    power = USeries(list(result))
    sign = 1
    # X has minimum degree 1 in every coefficient, so X^n vanishes past max_degree.
    for n in range(2, max_degree + 1):
        power = series_mul(power, x, max_m, max_degree)
        if not any(power.coeffs):
            break
        sign = -sign
        for m in range(max_m + 1):
            result[m] = result[m] + power.coeff(m).scale(Fraction(sign, n))
    return USeries(result, connected=True)


def power_sum_exp(x: USeries, max_m: int, max_degree: int, empty_key) -> USeries:
    """exp of a series with no constant term, truncated to total degree
    max_degree and order max_m in u."""
    x = USeries([x.coeff(m).restrict_degree(max_degree) for m in range(max_m + 1)])
    result = list(x.coeffs)
    result[0] = result[0] + PolyVector.monomial(empty_key)
    power = USeries(list(x.coeffs))
    factorial = 1
    for n in range(2, max_degree + 1):
        power = series_mul(power, x, max_m, max_degree)
        if not any(power.coeffs):
            break
        factorial *= n
        for m in range(max_m + 1):
            result[m] = result[m] + power.coeff(m).scale(Fraction(1, factorial))
    return USeries(result)
