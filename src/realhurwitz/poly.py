"""Exact sparse polynomials indexed by monomial keys, and exp/log of u-series.

A PolyVector is a finitely supported map key -> Fraction. Keys must be hashable
and provide `.degree` (int), `.union(other)` (monomial product), and
`.is_empty` (True for the constant monomial); RamificationType satisfies this,
as do the tilde and genus-0 key types.

A USeries stores the coefficients of u^m/m!, so series products use binomial
convolution and exp/log are the exponential-generating-function transforms
relating disconnected and connected counts. exp and log also read `.grade`
from each key: a tuple of nonnegative integers that adds under union and is
zero only for the constant monomial (the bidegree of a RamificationType, the
1-tuple of the degree of a tilde type). They are truncated to a set of
grades rather than to a total degree.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .model import EMPTY_TYPE, RamificationType, bidegree, zeta


class PolyVector:
    """Immutable finitely supported map from monomial keys to exact rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | Iterable[tuple[object, Fraction]] = ()):
        data: dict = dict(terms)
        self.terms = {k: c if type(c) is Fraction else Fraction(c)
                      for k, c in data.items() if c != 0}

    @classmethod
    def monomial(cls, key, coeff: Fraction | int = 1) -> "PolyVector":
        return cls({key: Fraction(coeff)})

    @classmethod
    def zero(cls) -> "PolyVector":
        return cls()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyVector) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __iter__(self) -> Iterator[tuple[object, Fraction]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def coeff(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def __add__(self, other: "PolyVector") -> "PolyVector":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return PolyVector(out)

    def __sub__(self, other: "PolyVector") -> "PolyVector":
        return self + other.scale(-1)

    def scale(self, c: Fraction | int) -> "PolyVector":
        c = Fraction(c)
        if not c:
            return PolyVector()
        return PolyVector({k: v * c for k, v in self.terms.items()})

    def mul(self, other: "PolyVector", max_degree: int | None = None) -> "PolyVector":
        """Bilinear monomial product; keys combine by part-wise union."""
        if not self.terms or not other.terms:
            return PolyVector()
        out: dict = {}
        for da, a_terms in _by_degree(self).items():
            for db, b_terms in _by_degree(other).items():
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

    def restrict_degree(self, max_degree: int) -> "PolyVector":
        return PolyVector({k: c for k, c in self.terms.items() if k.degree <= max_degree})

    def map_keys(self, f) -> "PolyVector":
        out: dict = {}
        for k, c in self.terms.items():
            key = f(k)
            out[key] = out.get(key, 0) + c
        return PolyVector(out)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {c}" for k, c in sorted(
            self.terms.items(), key=lambda item: repr(item[0])))
        return f"PolyVector({{{inner}}})"


def _by_degree(v: PolyVector) -> dict[int, list[tuple[object, Fraction]]]:
    buckets: dict[int, list[tuple[object, Fraction]]] = {}
    for k, c in v.terms.items():
        buckets.setdefault(k.degree, []).append((k, c))
    return buckets


def vector_bidegree(v: PolyVector):
    """Common bidegree tag of all supported types, or None if empty or mixed."""
    tags = set()
    for k, _ in v:
        if not isinstance(k, RamificationType):
            return None
        tags.add(bidegree(k))
    if len(tags) == 1:
        return tags.pop()
    return None


def scalar_product(a: PolyVector, b: PolyVector) -> Fraction:
    """Bilinear extension of (p_mu, p_nu) = delta_{mu,nu} zeta(mu)."""
    if len(b.terms) < len(a.terms):
        a, b = b, a
    total = Fraction(0)
    for k, c in a:
        cb = b.coeff(k)
        if cb:
            total += c * cb * zeta(k)
    return total


class USeries:
    """Coefficients of u^m/m!; index m holds a PolyVector."""

    __slots__ = ("coeffs", "connected")

    def __init__(self, coeffs: Iterable[PolyVector], connected: bool = False):
        self.coeffs = list(coeffs)
        self.connected = connected

    @property
    def max_m(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, m: int) -> PolyVector:
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return PolyVector()

    def __eq__(self, other) -> bool:
        if not isinstance(other, USeries):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.coeff(m) == other.coeff(m) for m in range(n))


def iterate(cache: dict, key, start, step: Callable, max_m: int) -> tuple:
    """The first max_m + 1 points of the orbit start, step(start), ...

    The orbit is kept in cache[key] and extended in place, so each point is
    computed once however the caps of later calls grow.
    """
    orbit = cache.setdefault(key, [start])
    while len(orbit) <= max_m:
        orbit.append(step(orbit[-1]))
    return tuple(orbit[:max_m + 1])


def merge_blocks(orbits: Iterable[Sequence[PolyVector]], max_m: int) -> USeries:
    """Disconnected series whose coefficient at u^m/m! joins the m-th vectors
    of the per-block orbits. Blocks have disjoint keys; a key found in two
    blocks raises."""
    orbits = list(orbits)
    coeffs = [PolyVector({k: c for vectors in orbits for k, c in vectors[m]})
              for m in range(max_m + 1)]
    if any(len(v) != sum(len(vectors[m]) for vectors in orbits)
           for m, v in enumerate(coeffs)):
        raise ValueError("a key occurs in two blocks")
    return USeries(coeffs, connected=False)


class HurwitzRow(NamedTuple):
    m: int
    mu: object
    chi: int
    connected: bool
    value: Fraction


def series_rows(series: USeries, sort_key: Callable, chi: Callable) -> list[HurwitzRow]:
    """Nonzero coefficients of a series as table rows, ordered by m and then
    by sort_key."""
    return [HurwitzRow(m, mu, chi(mu, m), series.connected, c)
            for m, vec in enumerate(series.coeffs)
            for mu, c in sorted(vec, key=lambda item: sort_key(item[0]))]


def _constant_coeff(v: PolyVector) -> Fraction:
    for k, c in v:
        if k.is_empty:
            return c
    return Fraction(0)


def _product_into(out: dict, a: dict, b: dict, max_m: int) -> None:
    """Add the product of two graded pieces {key: [c_0, ..., c_max_m]} to
    out. Entries are scaled by 1/m!, so the binomial convolution of the
    u^m/m! normalization is a plain Cauchy product here."""
    a, b = ([(k, [(m, x) for m, x in enumerate(row) if x]) for k, row in piece.items()]
            for piece in (a, b))
    for ka, sa in a:
        for kb, sb in b:
            if sa[0][0] + sb[0][0] > max_m:
                continue
            acc = out.setdefault(ka.union(kb), [0] * (max_m + 1))
            for i, x in sa:
                for j, y in sb:
                    if i + j > max_m:
                        break
                    acc[i + j] += x * y


def _euler_recurrence(given: USeries, max_m: int, grades, log: bool) -> USeries:
    """log (log=True) or exp (log=False) of a series, by the Euler operator.

    theta multiplies the graded piece of grade b by |b|, the sum of its
    components; it is a derivation, so H = exp F satisfies theta H =
    (theta F) H, which on the piece of grade b reads

        |b| F_b = |b| H_b - sum over 0 < c < b of |c| F_c * H_(b - c).

    Solved for F_b (log) or H_b (exp) in order of |b|, this uses each pair
    of pieces once. grades must contain, with every grade, all smaller
    ones (componentwise); a product of pieces c and b - c lies in piece b,
    so the result is exact on every listed grade.
    """
    grades = set(grades)
    for g in grades:
        for i, x in enumerate(g):
            if x and g[:i] + (x - 1,) + g[i + 1:] not in grades:
                raise ValueError(f"grade {tuple(g)} is listed without a smaller one")
    zeros = [0] * (max_m + 1)
    given_pieces: dict = {g: {} for g in grades}
    for m in range(max_m + 1):
        for k, c in given.coeff(m):
            piece = given_pieces.get(k.grade)
            if piece is not None and not k.is_empty:
                piece.setdefault(k, list(zeros))[m] = c / factorial(m)
    solved: dict = {}   # grade -> piece of F (log) or of H (exp)
    h: dict = {}        # grade -> piece of H
    theta_f: dict = {}  # grade -> piece of theta F
    for b in sorted(grades, key=sum):
        size = sum(b)
        if not size:
            continue
        acc: dict = {}
        for c, piece in theta_f.items():
            d = tuple(x - y for x, y in zip(b, c))
            if min(d) >= 0 and sum(d):
                _product_into(acc, piece, h[d], max_m)
        scale = Fraction(-1 if log else 1, size)
        known = given_pieces[b]
        out = {}
        for k in {**known, **acc}:
            row = [x + scale * y if y else x
                   for x, y in zip(known.get(k, zeros), acc.get(k, zeros))]
            if any(row):
                out[k] = row
        solved[b] = out
        f_b, h[b] = (out, known) if log else (known, out)
        theta_f[b] = {k: [size * x for x in row] for k, row in f_b.items()}
    coeffs: list[dict] = [{} for _ in range(max_m + 1)]
    for piece in solved.values():
        for k, row in piece.items():
            for m, x in enumerate(row):
                if x:
                    coeffs[m][k] = x * factorial(m)
    return USeries([PolyVector(c) for c in coeffs], connected=log)


def series_exp(h: USeries, max_m: int, grades, empty_key=EMPTY_TYPE) -> USeries:
    """exp of a series with no constant-monomial term, on the listed grades
    (closed under taking smaller grades) and through u^max_m.

    The result's constant monomial (coefficient 1 at m=0) is indexed by
    empty_key, which must match the key type of h.
    """
    for m, v in enumerate(h.coeffs):
        if _constant_coeff(v):
            raise ValueError(f"series_exp input has a constant-monomial term at m={m}")
    result = _euler_recurrence(h, max_m, grades, log=False)
    result.coeffs[0] = result.coeffs[0] + PolyVector.monomial(empty_key, 1)
    return result


def series_log(big_h: USeries, max_m: int, grades) -> USeries:
    """log of a series whose m=0 coefficient has constant term 1 (and 0 for
    m>0), on the listed grades (closed under taking smaller grades) and
    through u^max_m."""
    if _constant_coeff(big_h.coeff(0)) != 1:
        raise ValueError("series_log input must have constant-monomial coefficient 1 at m=0")
    for m in range(1, len(big_h.coeffs)):
        if _constant_coeff(big_h.coeff(m)):
            raise ValueError(f"series_log input has a constant-monomial term at m={m}")
    return _euler_recurrence(big_h, max_m, grades, log=True)
