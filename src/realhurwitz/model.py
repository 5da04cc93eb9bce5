"""Partitions, ramification types, and the numeric functionals indexing everything else.

Partitions are plain tuples of positive integers sorted non-increasing.
A ramification type is a triple of partitions (kappa_plus, kappa_minus, lam):
orders of positive real poles, negative real poles, and conjugate pole pairs.
Monomials correspond to types via p_mu = prod p_k^+ prod p_k^- prod q_l with
deg p_k^{+-} = k and deg q_l = 2l.

canonical_key, euler_characteristic and format_type read a type only through
its degree, its partitions and their field names, and types_by_grade lists a
model's types through its validated constructor, so all four serve the
unsigned quadruple of nonsep (with its odd real poles kappa_odd) unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, product
from math import factorial, prod
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

Partition = tuple[int, ...]


_CHECKED: dict = {}  # each partition once, after its check: p -> (p, _counts(p))


def _counts(p: Partition) -> tuple[int, int]:
    """The sums of ceil(k/2) and of floor(k/2) over the parts k of p."""
    got = _CHECKED.get(p)
    return got[1] if got else (sum((k + 1) // 2 for k in p), sum(k // 2 for k in p))


def partition(parts: Iterable[int]) -> Partition:
    """Normalize an iterable of positive ints (not bools) into a partition
    tuple. A tuple is checked in full once: an equal one then passes if its
    parts are ints too, for (1.0,) and (True,) equal (1,) and hash alike."""
    got = _CHECKED.get(parts) if type(parts) is tuple else None
    if got is not None and (got[0] is parts or {*map(type, parts)} <= {int}):
        return got[0]
    t = tuple(sorted(parts, reverse=True))
    if any(type(p) is not int or p <= 0 for p in t):
        raise ValueError(f"partition parts must be positive integers, got {t!r}")
    return (_CHECKED.get(t) or _CHECKED.setdefault(t, (t, _counts(t))))[0]


def nonnegative(**caps) -> None:
    """Refuse each named cap that is not a nonnegative int (a bool is not
    one): ValueError, naming the argument."""
    for name, value in caps.items():
        if type(value) is not int or value < 0:
            raise ValueError(f"{name} must be a nonnegative int, got {value!r}")


def partitions_of(n: int) -> Iterator[Partition]:
    """Yield all partitions of n in non-increasing part order; none if n < 0."""

    def gen(remaining: int, largest: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(n, n)


def aut_order(p: Partition) -> int:
    """Order of the automorphism group: product of factorials of part multiplicities."""
    return prod(map(factorial, map(p.count, set(p))))


def merge_partitions(a: Partition, b: Partition) -> Partition:
    """Disjoint union of parts, kept non-increasing."""
    return tuple(sorted(a + b, reverse=True))


def without(p: Partition, *parts: int) -> Partition:
    """p with one occurrence of each given part removed."""
    items = list(p)
    for k in parts:
        items.remove(k)
    return tuple(items)


class Bidegree(NamedTuple):
    n_plus: int
    n_minus: int


class RamificationType(NamedTuple):
    """Monomial index p_mu: pole orders at infinity, split by sign and reality."""

    kappa_plus: Partition
    kappa_minus: Partition
    lam: Partition

    @property
    def degree(self) -> int:
        return sum(self.kappa_plus) + sum(self.kappa_minus) + 2 * sum(self.lam)

    def union(self, other: "RamificationType") -> "RamificationType":
        return RamificationType(
            merge_partitions(self.kappa_plus, other.kappa_plus),
            merge_partitions(self.kappa_minus, other.kappa_minus),
            merge_partitions(self.lam, other.lam),
        )

    @property
    def grade(self) -> "Bidegree":
        return bidegree(self)

    def swap_signs(self) -> "RamificationType":
        return RamificationType(self.kappa_minus, self.kappa_plus, self.lam)


EMPTY_TYPE = RamificationType((), (), ())


def rtype(kappa_plus: Iterable[int] = (), kappa_minus: Iterable[int] = (),
          lam: Iterable[int] = ()) -> RamificationType:
    """Build a ramification type from arbitrary part iterables."""
    return RamificationType(partition(kappa_plus), partition(kappa_minus), partition(lam))


def p_plus(k: int) -> RamificationType:
    """Built by rtype, as in p_minus and q_var: a k that is not a positive int raises ValueError."""
    return rtype((k,))


def p_minus(k: int) -> RamificationType:
    return rtype((), (k,))


def q_var(k: int) -> RamificationType:
    return rtype((), (), (k,))


def bidegree(mu: RamificationType) -> Bidegree:
    """Signed element counts (n+, n-) of any transition of this type.

    Each part k of kappa_plus contributes (ceil(k/2), floor(k/2)), of
    kappa_minus the swap, and each part l of lam contributes (l, l).
    """
    (a, b), (c, d), (e, f) = map(_counts, mu)
    return Bidegree(a + d + e + f, b + c + e + f)


def euler_characteristic(mu, m: int) -> int:
    """Euler characteristic of the source surface: degree plus pole count
    minus m, with conjugate pairs (lam) counting twice."""
    nonnegative(m=m)
    return key_and_chi(mu)[1] - m


def zeta(mu: RamificationType) -> int:
    """Stabilizer order of a transition of type mu under S(n+) x S(n-)."""
    result = aut_order(mu.kappa_plus) * aut_order(mu.kappa_minus) * aut_order(mu.lam)
    for l in mu.lam:
        result *= l
    return result


def label(grade) -> int:
    """Label factor of a grade, the product of the factorials of its
    components: n+! n-! for a bidegree, n! for a degree."""
    return prod(factorial(g) for g in grade)


def canonical_key(mu) -> tuple:
    """Deterministic sort key of a type: its degree, then its partitions."""
    return key_and_chi(mu)[0]


def key_and_chi(mu) -> tuple[tuple, int]:
    """canonical_key(mu) and euler_characteristic(mu, 0), from one degree."""
    d = mu.degree
    return (d, *mu), d + sum(map(len, mu)) + len(mu.lam)


@lru_cache(maxsize=None)
def types_by_grade(canonical: Callable, degree: int) -> Mapping:
    """A walk model's types of the given total degree, by grade, each in
    canonical order: the tuples of checked partitions, one per field of its
    type (a lam part counts twice), that canonical, its validated
    constructor, accepts. The types of one grade are exactly its block's basis."""
    weights = [2 if field == "lam" else 1 for field in canonical()._fields]
    by_weight = [tuple(map(partition, partitions_of(k))) for k in range(degree + 1)]
    found = []
    for ks in product(*(range(degree // w + 1) for w in weights)):
        if sum(w * k for w, k in zip(weights, ks)) == degree:
            for parts in product(*map(by_weight.__getitem__, ks)):
                try:
                    found.append(canonical(*parts))
                except ValueError:
                    continue
    found.sort(key=lambda mu: (mu.grade, canonical_key(mu)))
    return MappingProxyType({g: tuple(ts) for g, ts in groupby(found, lambda mu: mu.grade)})


def enumerate_types(b: Bidegree) -> tuple[RamificationType, ...]:
    """All ramification types of the given bidegree, in canonical order."""
    b = Bidegree(*b)
    nonnegative(n_plus=b.n_plus, n_minus=b.n_minus)
    return types_by_grade(rtype, sum(b)).get(b, ())


def enumerate_bidegrees(max_degree: int) -> list[Bidegree]:
    """All bidegrees with n+ + n- <= max_degree, ordered by (total, n+)."""
    nonnegative(max_degree=max_degree)
    return [Bidegree(n_plus, total - n_plus)
            for total in range(max_degree + 1) for n_plus in range(total + 1)]


def bidegree_box(corner: Bidegree) -> list[Bidegree]:
    """All bidegrees componentwise at most corner, ordered by (total, n+)."""
    return [b for b in enumerate_bidegrees(sum(corner))
            if b.n_plus <= corner[0] and b.n_minus <= corner[1]]


def format_partition(p: Partition) -> str:
    return "[" + " ".join(str(k) for k in p) + "]"


_FIELD_TEXT = {"kappa_plus": "k+", "kappa_minus": "k-", "kappa_odd": "k", "lam": "l"}


def format_type(mu) -> str:
    """Canonical text form, each partition after the label of its field:
    k+:[...] k-:[...] l:[...], with k:[...] before l for a TildeType."""
    return " ".join(f"{_FIELD_TEXT[f]}:{format_partition(p)}" for f, p in zip(mu._fields, mu))
