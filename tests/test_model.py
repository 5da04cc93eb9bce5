"""Tests for ramification types, gradings, and counting formulas."""

import pytest

from model_reference import (class_size_formula, dimension_series, parse_partition, parse_type,
                             unsigned_type_counts)
from realhurwitz.model import (
    Bidegree,
    EMPTY_TYPE,
    RamificationType,
    aut_order,
    bidegree,
    canonical_key,
    enumerate_bidegrees,
    enumerate_types,
    euler_characteristic,
    format_partition,
    format_type,
    merge_partitions,
    p_minus,
    p_plus,
    partition,
    partitions_of,
    q_var,
    rtype,
    types_by_grade,
    zeta,
)
from realhurwitz.nonsep import TildeType, ttype


def test_partition_sorts_descending():
    assert partition([1, 3, 2, 3]) == (3, 3, 2, 1)
    assert partition([]) == ()


def test_partition_rejects_nonpositive_parts():
    with pytest.raises(ValueError):
        partition([2, 0])
    with pytest.raises(ValueError):
        partition([-1])


@pytest.mark.parametrize("parts", [(True,), (2, True), (1.0,), (2.0, 1)],
                         ids=["bool", "int-and-bool", "float", "float-and-int"])
def test_a_part_equal_to_an_int_of_another_type_is_refused(parts):
    # the int twins are checked first: a partition is checked in full once,
    # and an equal tuple of other part types must not pass as a repeat
    assert partition((1,)) == (1,) and partition((2, 1)) == (2, 1)
    with pytest.raises(ValueError):
        partition(parts)
    with pytest.raises(ValueError):
        rtype(parts)
    with pytest.raises(ValueError):
        rtype((), (), parts)


@pytest.mark.parametrize("make", [p_plus, p_minus, q_var])
@pytest.mark.parametrize("k", [-2, 0, 1.5, 2.0, True, "1"])
def test_a_monomial_part_that_is_not_a_positive_int_is_refused(make, k):
    with pytest.raises(ValueError, match="positive integers"):
        make(k)


def test_partitions_of_counts():
    # Partition numbers 1, 1, 2, 3, 5, 7, 11.
    for n, count in enumerate([1, 1, 2, 3, 5, 7, 11]):
        assert len(list(partitions_of(n))) == count


def test_partitions_of_zero_is_empty_partition():
    assert list(partitions_of(0)) == [()]


def test_partitions_of_a_negative_number_are_none():
    assert list(partitions_of(-1)) == []


def test_aut_order():
    assert aut_order(()) == 1
    assert aut_order((3, 1, 1)) == 2
    assert aut_order((2, 2, 2)) == 6


def test_merge_partitions():
    assert merge_partitions((3, 1), (2,)) == (3, 2, 1)
    assert merge_partitions((), ()) == ()


def test_rtype_validates_and_sorts():
    mu = rtype([1, 3], [2], [1])
    assert mu.kappa_plus == (3, 1)
    assert mu.kappa_minus == (2,)
    assert mu.lam == (1,)


def test_degree_counts_pair_poles_twice():
    assert rtype((3,), (), ()).degree == 3
    assert rtype((), (), (2,)).degree == 4
    assert EMPTY_TYPE.degree == 0


def test_bidegree_splits_even_and_odd_orders():
    # A positive pole of order k covers ceil(k/2) upper sheets inside the
    # framed half and floor(k/2) outside; negative poles swap the roles.
    assert bidegree(p_plus(1)) == Bidegree(1, 0)
    assert bidegree(p_plus(2)) == Bidegree(1, 1)
    assert bidegree(p_minus(1)) == Bidegree(0, 1)
    assert bidegree(p_minus(2)) == Bidegree(1, 1)
    assert bidegree(q_var(1)) == Bidegree(1, 1)
    assert bidegree(rtype((3,), (2, 1), (1,))) == Bidegree(4, 4)


def test_euler_characteristic_examples():
    assert euler_characteristic(p_plus(1), 0) == 2
    assert euler_characteristic(p_plus(3), 6) == -2
    assert euler_characteristic(rtype((1,), (1,)), 2) == 2
    assert euler_characteristic(q_var(1), 0) == 4


def test_zeta_values():
    # Automorphism orders of the three partitions times the pair-pole sizes.
    assert zeta(p_plus(1)) == 1
    assert zeta(p_plus(2)) == 1
    assert zeta(q_var(1)) == 1
    assert zeta(rtype((), (), (3,))) == 3
    assert zeta(rtype((), (), (2, 2))) == 2 * 2 * 2
    assert zeta(rtype((2, 2), (), (3,))) == 2 * 3
    assert zeta(rtype((1, 1, 1), (), ())) == 6
    assert zeta(EMPTY_TYPE) == 1


def test_class_size_formula_is_integral():
    for b in enumerate_bidegrees(4):
        for mu in enumerate_types(b):
            size = class_size_formula(mu)
            assert size >= 1


def test_enumerate_types_matches_dimension_series():
    dims = dimension_series(5)
    for (a, b), expected in dims.items():
        assert len(enumerate_types(Bidegree(a, b))) == expected


def test_tilde_enumerate_types_matches_its_generating_function():
    counts = [1, 1, 4, 5, 14, 18, 41, 54, 109, 145, 267, 357, 618, 826, 1359]
    assert unsigned_type_counts(14) == counts
    assert [len(types_by_grade(ttype, n)[(n,)]) for n in range(15)] == counts


def test_dimension_series_printed_rows():
    dims = dimension_series(5)

    def row(total):
        return [dims[(a, total - a)] for a in range(total, -1, -1)]

    assert row(0) == [1]
    assert row(1) == [1, 1]
    assert row(2) == [1, 4, 1]
    assert row(3) == [1, 5, 5, 1]
    assert row(4) == [1, 5, 15, 5, 1]
    assert row(5) == [1, 5, 19, 19, 5, 1]


def test_canonical_key_orders_by_degree_first():
    types = sorted(enumerate_types(Bidegree(1, 1)), key=canonical_key)
    assert [mu.degree for mu in types] == sorted(mu.degree for mu in types)


def test_format_and_parse_partition_roundtrip():
    for p in [(), (1,), (3, 1, 1), (5, 5, 2)]:
        assert parse_partition(format_partition(p)) == p


def test_format_and_parse_type_roundtrip():
    for mu in enumerate_types(Bidegree(2, 1)):
        assert parse_type(format_type(mu)) == mu


def _replaced_formulas(mu, m: int) -> tuple:
    """The sort key, chi and text that each walk model computed on its own
    before canonical_key, euler_characteristic and format_type served both."""
    def text(p):
        return "[" + " ".join(str(k) for k in p) + "]"
    if isinstance(mu, TildeType):
        kp, km, ko, lam = mu
        return ((mu.degree, kp, km, ko, lam),
                mu.degree + len(kp) + len(km) + len(ko) + 2 * len(lam) - m,
                f"k+:{text(kp)} k-:{text(km)} k:{text(ko)} l:{text(lam)}")
    kp, km, lam = mu
    return ((mu.degree, kp, km, lam), mu.degree + len(kp) + len(km) + 2 * len(lam) - m,
            f"k+:{text(kp)} k-:{text(km)} l:{text(lam)}")


# every signed type of total degree <= 8 and every unsigned type of degree <= 8
_PROTOCOL_TYPES = ([mu for b in enumerate_bidegrees(8) for mu in enumerate_types(b)]
                   + [mu for n in range(9) for mu in types_by_grade(ttype, n)[(n,)]])


def _protocol_mismatches(key, chi, text) -> list:
    return [mu for mu in _PROTOCOL_TYPES for m in (0, 5)
            if (key(mu), chi(mu, m), text(mu)) != _replaced_formulas(mu, m)]


def test_key_protocol_equals_the_formulas_it_replaces():
    assert any(isinstance(mu, TildeType) and mu.kappa_odd and mu.lam for mu in _PROTOCOL_TYPES)
    assert _protocol_mismatches(canonical_key, euler_characteristic, format_type) == []


@pytest.mark.parametrize("key, chi, text", [
    # the text without the k: slot, as the signed model printed it
    (canonical_key, euler_characteristic,
     lambda mu: format_type(RamificationType(mu.kappa_plus, mu.kappa_minus, mu.lam))),
    # conjugate pairs counted once
    (canonical_key, lambda mu, m: mu.degree + sum(map(len, mu)) - m, format_type),
    # partitions only, no degree first
    (tuple, euler_characteristic, format_type),
], ids=["format-drops-k", "chi-pairs-once", "key-without-degree"])
def test_key_protocol_check_catches_a_mutant(key, chi, text):
    assert _protocol_mismatches(key, chi, text)


def test_enumerate_bidegrees_order_and_count():
    bs = enumerate_bidegrees(2)
    assert bs[0] == Bidegree(0, 0)
    assert len(bs) == 6
    assert all(b.n_plus + b.n_minus <= 2 for b in bs)
