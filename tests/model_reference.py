"""Reference formulas and a text parser for ramification types.

They are kept only as the independent references that the tests check the
package against: the product formulas for the number of types of each
bidegree (enumerate_types) and of each unsigned degree
(tilde_enumerate_types), the class size n+! n-! / zeta(mu) (zeta and the
exhaustive classes of the walk model), and a parser of the text form of
both walk models' types, which shows that format_type loses nothing.
"""

import re

from realhurwitz.model import RamificationType, bidegree, label, partition, zeta
from realhurwitz.nonsep import TildeType


def dimension_series(max_total: int) -> dict[tuple[int, int], int]:
    """Coefficients of prod_k (1-x^k y^k)^-3 (1-x^k y^(k-1))^-1 (1-x^(k-1) y^k)^-1.

    Returns {(a, b): coefficient} for a + b <= max_total; the coefficient at
    (a, b) is the number of ramification types of bidegree (a, b).
    """
    series: dict[tuple[int, int], int] = {(0, 0): 1}

    def mul_geometric(cur: dict[tuple[int, int], int], step: tuple[int, int],
                      power: int) -> dict[tuple[int, int], int]:
        # Multiply by (1 - x^sa y^sb)^-power = sum_n C(n+power-1, power-1) (x^sa y^sb)^n.
        sa, sb = step
        out: dict[tuple[int, int], int] = {}
        for (a, b), c in cur.items():
            n = 0
            coeff = 1
            while a + n * sa + b + n * sb <= max_total:
                key = (a + n * sa, b + n * sb)
                out[key] = out.get(key, 0) + c * coeff
                n += 1
                coeff = coeff * (n + power - 1) // n
        return out

    for k in range(1, max_total + 1):
        if 2 * k > max_total and (2 * k - 1) > max_total:
            break
        series = mul_geometric(series, (k, k), 3)
        series = mul_geometric(series, (k, k - 1), 1)
        series = mul_geometric(series, (k - 1, k), 1)
    return {key: c for key, c in series.items() if sum(key) <= max_total}


def unsigned_type_counts(max_n: int) -> list[int]:
    """Coefficients of prod_(k even) (1-x^k)^-2 prod_(k odd) (1-x^k)^-1
    prod_l (1-x^(2l))^-1 through x^max_n: the number of unsigned types of
    each degree, even real poles signed, odd ones not, conjugate pairs of
    order l at degree 2l."""
    series = [1] + [0] * max_n
    factors = [k for k in range(1, max_n + 1) for _ in range(2 - k % 2)]
    for step in factors + list(range(2, max_n + 1, 2)):
        for n in range(step, max_n + 1):  # times 1/(1 - x^step), in place
            series[n] += series[n - step]
    return series


def class_size_formula(mu: RamificationType) -> int:
    """Number of distinct transitions of type mu: n+! n-! / zeta(mu)."""
    num = label(bidegree(mu))
    z = zeta(mu)
    if num % z:
        raise ArithmeticError(f"zeta({mu}) = {z} does not divide {num}")
    return num // z


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse the bracket form '[3 1 1]' that format_partition prints."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"cannot parse partition {text!r}")
    return partition(int(token) for token in body[1:-1].split())


_TYPE_RE = re.compile(r"^\s*k\+:(\[[^\]]*\])\s+k-:(\[[^\]]*\])"
                      r"(?:\s+k:(\[[^\]]*\]))?\s+l:(\[[^\]]*\])\s*$")


def parse_type(text: str) -> RamificationType | TildeType:
    """Parse the form 'k+:[...] k-:[...] l:[...]' that format_type prints for
    a RamificationType, or 'k+:[...] k-:[...] k:[...] l:[...]' for a TildeType."""
    m = _TYPE_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse ramification type {text!r}")
    kp, km, ko, lam = m.groups()
    if ko is None:
        return RamificationType(*map(parse_partition, (kp, km, lam)))
    return TildeType(*map(parse_partition, (kp, km, ko, lam)))
