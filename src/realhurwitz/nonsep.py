"""Unsigned transition model for simple real functions on curves that need
not separate.

States are the involutive partial matchings of one unsigned ground set
range(n), the matchings of its complete graph (oracle.matchings); a real
pole carries a sign only when its order is even, so ramification data is a
quadruple: even positive real poles, even negative real poles, odd real
poles, and conjugate pole pairs. The evolution operator
on the invariant algebra is left multiplication by the class sum of
transpositions; it preserves the total degree but not a bidegree. Its
columns come from its term families (tilde_images), the transcribed
differential-operator form with its garbled superscripts repaired, as the
signed plus operator's come from wplus_images; both read the same per-partition
move tables (operators._moves). The walks are the check: bound to the
oracle's core as tilde_states and tilde_classify, tilde_mult_c2_matrix derives
the same columns and tilde_labelled_by_paths the walk totals that the
evolution must equal; only these walk bindings import the oracle.
The entries are integers, so the series run on labelled integer counts, n!
times each count of degree n. UNSIGNED binds the model to the pipeline that
the signed model shares (operators.evolve, poly.series, poly.value): these
columns, the labelled start vector of a degree (a 1-tuple grade) and ttype,
with no mirror, for a degree is its own sign swap. A TildeType is
listed, ordered, printed and given its Euler characteristic by the signed
model's types_by_grade, canonical_key, format_type and euler_characteristic.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import combinations
from math import comb, factorial, prod
from typing import Iterator, NamedTuple

from .model import Partition, aut_order, merge_partitions, nonnegative, partition, types_by_grade
from .operators import BlockMatrix, ModelBinding, _insert, _moves, cached_columns
from .poly import series, value

TildeState = frozenset
TildeTransition = tuple[TildeState, TildeState]


class TildeType(NamedTuple):
    """Ramification quadruple; signs exist for even-order real poles only."""

    kappa_plus: Partition   # even parts
    kappa_minus: Partition  # even parts
    kappa_odd: Partition    # odd parts
    lam: Partition

    @property
    def degree(self) -> int:
        return (sum(self.kappa_plus) + sum(self.kappa_minus)
                + sum(self.kappa_odd) + 2 * sum(self.lam))

    @property
    def grade(self) -> tuple[int]:
        return (self.degree,)

    def union(self, other: "TildeType") -> "TildeType":
        return TildeType(merge_partitions(self.kappa_plus, other.kappa_plus),
                         merge_partitions(self.kappa_minus, other.kappa_minus),
                         merge_partitions(self.kappa_odd, other.kappa_odd),
                         merge_partitions(self.lam, other.lam))


TILDE_EMPTY = TildeType((), (), (), ())


def ttype(kappa_plus=(), kappa_minus=(), kappa_odd=(), lam=()) -> TildeType:
    """Validated constructor: even parts in the signed slots, odd in kappa."""
    kp, km = partition(kappa_plus), partition(kappa_minus)
    ko, lm = partition(kappa_odd), partition(lam)
    if any(k % 2 for k in kp) or any(k % 2 for k in km):
        raise ValueError("signed real poles must have even order")
    if any(k % 2 == 0 for k in ko):
        raise ValueError("unsigned real poles must have odd order")
    return TildeType(kp, km, ko, lm)


def tilde_zeta(mu: TildeType) -> int:
    """Stabilizer order of a transition of type mu inside S(n)."""
    out = (aut_order(mu.kappa_plus) * aut_order(mu.kappa_minus)
           * aut_order(mu.kappa_odd) * aut_order(mu.lam))
    for l in mu.lam:
        out *= 2 * l
    return out * 2 ** (len(mu.kappa_plus) + len(mu.kappa_minus))


def tilde_class_size_formula(mu: TildeType) -> int:
    n = mu.degree
    z = tilde_zeta(mu)
    size, rem = divmod(factorial(n), z)
    if rem:
        raise ArithmeticError(f"stabilizer order {z} does not divide {n}!")
    return size


def tilde_enumerate_types(n: int) -> tuple[TildeType, ...]:
    """All quadruples of total degree n, in canonical order."""
    nonnegative(n=n)
    return types_by_grade(ttype, n)[(n,)]


def tilde_states(n: int) -> tuple[TildeState, ...]:
    """Involutive partial matchings on range(n): the matchings of the
    complete graph on it. An n that is not a nonnegative int raises
    ValueError."""
    from .oracle import matchings
    nonnegative(n=n)
    return matchings(tuple(combinations(range(n), 2)))


def tilde_classify(t: TildeTransition, n: int) -> TildeType:
    """Ramification type from the chain/cycle decomposition of a transition.

    Cycles of length 2l give a conjugate pair of order l. Odd chains give an
    unsigned real pole. Even chains give a positive pole when both end edges
    lie in the final matching (ends unmatched initially), negative when both
    lie in the initial one. A t that is not a pair of states of the block,
    tilde_states(n), raises ValueError.
    """
    from .oracle import chains_and_cycles, check_transition
    check_transition(t, tilde_states, (n,))
    kp, km, ko, lam = [], [], [], []
    for k, ends, side in chains_and_cycles(t, n, *t):
        if not ends:
            lam.append(k // 2)
        elif k % 2:
            ko.append(k)
        else:
            (kp if side else km).append(k)
    return TildeType(partition(kp), partition(km), partition(ko), partition(lam))


def _unsigned():
    # built per call, so that a rebound module-level name takes effect
    from .oracle import WalkModel
    return WalkModel(tilde_states, tilde_classify)


def tilde_class_sizes(n: int) -> Counter:
    """Transitions on n elements counted by type: those from each orbit
    representative, times the orbit size."""
    from .oracle import orbit_types
    sizes: Counter = Counter()
    for _, weight, types in orbit_types(_unsigned(), (n,)):
        for mu in types.values():
            sizes[mu] += weight
    return sizes


# TildeType's own __new__ is a Python function; the images skip it
_new_tilde = partial(tuple.__new__, TildeType)


def tilde_images(mu: TildeType) -> Iterator[tuple[TildeType, int]]:
    """Images of the evolution operator on the monomial of mu: the
    transcribed differential form, with its garbled superscripts repaired
    (odd-order variables carry no sign, and the join prefactors are 2, 1/2,
    2). Yields (type, integer coefficient); repeated types may appear and
    must be summed by the caller."""
    kp, km, ko, lam = mu
    (kp_counts, kp_less, cuts, joins), minus, odd, pairs = map(_moves, mu)
    (km_counts, km_less), (ko_counts, ko_less) = minus[:2], odd[:2]
    lam_counts, lam_less = pairs[:2]
    # join of an odd pole with a positive even pole, prefactor 2
    for a, ca in ko_counts:
        for b, cb in kp_counts:
            yield _new_tilde((kp_less[b], km, _insert(ko_less[a], a + b), lam)), 2 * ca * cb
    # join of two odd poles into a negative even pole, prefactor 1/2 over
    # ordered pairs: once per unordered pair
    for a, ca in ko_counts:
        for b, cb in ko_counts:
            mult = ca * cb if a < b else comb(ca, 2) if a == b else 0
            if mult:
                yield _new_tilde((kp, _insert(km, a + b), _moves(ko_less[a])[1][b], lam)), mult
    # join of two positive even poles, prefactor 2
    for p, mult in joins:
        yield _new_tilde((p, km, ko, lam)), 2 * mult
    # cut of a negative even pole into two odd ones
    for n, mult in km_counts:
        for a in range(1, n, 2):
            yield _new_tilde((kp, km_less[n], _insert(_insert(ko, a), n - a), lam)), mult
    # cut of an odd pole into an odd and a positive even one
    for n, mult in ko_counts:
        for a in range(1, n - 1, 2):
            yield _new_tilde((_insert(kp, n - a), km, _insert(ko_less[n], a), lam)), mult
    # cut of a positive even pole into two positive even ones
    for p, mult in cuts:
        yield _new_tilde((p, km, ko, lam)), mult
    # conjugate pair of order l to a positive pole of order 2l, weight l
    for l, mult in lam_counts:
        yield _new_tilde((_insert(kp, 2 * l), km, ko, lam_less[l])), l * mult
    # positive even pole to a conjugate pair of half the order
    for n, mult in kp_counts:
        yield _new_tilde((kp_less[n], km, ko, _insert(lam, n // 2))), mult


# through the module-level name, so that a rebound tilde_images takes effect
tilde_column = cached_columns(lambda mu: tilde_images(mu), ttype)


def tilde_operator_matrix(n: int) -> BlockMatrix:
    """Matrix of the evolution operator on the degree-n invariant algebra,
    assembled from the shared columns of tilde_images. An n that is not a
    nonnegative int raises ValueError."""
    nonnegative(n=n)
    return BlockMatrix(n, tilde_enumerate_types(n), tilde_column)


def tilde_mult_c2_matrix(n: int) -> dict:
    """The check on tilde_operator_matrix(n).columns: multiplication by the
    transposition class sum on n elements, from one transition per type of
    the walk model, in column form {mu: {nu: count}}."""
    from .oracle import class_multiplication
    nonnegative(n=n)
    return class_multiplication(_unsigned(), (n,))


def _start(grade: tuple[int]) -> dict[TildeType, int]:
    """n! times the degree-n piece of the evolution start: the class of the
    identity transition on a singles and b pairs weighs n!/(a! b! 2^b), the
    number of involutions with b pairs, comb(n, 2b) (2b - 1)!!."""
    n, = grade
    return {TildeType((), (), (1,) * (n - 2 * b), (1,) * b):
            comb(n, 2 * b) * prod(range(1, 2 * b, 2)) for b in range(n // 2 + 1)}


UNSIGNED = ModelBinding(tilde_column, _start, ttype)


def tilde_labelled_by_paths(n: int, max_m: int) -> tuple[dict[TildeType, int], ...]:
    """Walk totals at u^m/m! on n elements, summed by type, for
    m = 0 .. max_m: n! times the disconnected counts."""
    from .oracle import walk_totals
    nonnegative(n=n, max_m=max_m)
    return walk_totals(_unsigned(), (n,), max_m)


def tilde_connected_value(mu: TildeType, m: int):
    """One unsigned connected count, a Fraction: coefficient of p_mu u^m/m!."""
    return value(UNSIGNED, mu, m)


def tilde_table_rows(max_n: int, max_m: int, connected: bool = True) -> list[HurwitzRow]:
    nonnegative(max_n=max_n)
    return series(UNSIGNED, [(n,) for n in range(max_n + 1)], max_m, connected).rows()
