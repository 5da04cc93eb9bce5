"""Property tests: text round trip, sign-swap symmetry, integrality."""

from hypothesis import given, settings
from hypothesis import strategies as st

from model_reference import parse_type
from realhurwitz.evolution import connected_series, hurwitz_value
from realhurwitz.model import RamificationType, format_type, partition, rtype

parts = st.lists(st.integers(min_value=1, max_value=12), max_size=6).map(partition)
types = st.builds(RamificationType, parts, parts, parts)
small_parts = st.lists(st.integers(min_value=1, max_value=4), max_size=3)
small_types = st.builds(rtype, small_parts, small_parts, small_parts).filter(
    lambda mu: mu.degree <= 6)


@given(types)
def test_format_type_round_trips_through_parse_type(mu):
    assert parse_type(format_type(mu)) == mu


@settings(max_examples=60, deadline=None)
@given(small_types, st.integers(min_value=0, max_value=7))
def test_connected_count_symmetric_under_sign_swap(mu, m):
    assert hurwitz_value(mu, m) == hurwitz_value(mu.swap_signs(), m)


def test_connected_counts_through_degree_eight_are_integers():
    series = connected_series(8, 8)
    assert any(series.coeffs)
    for m, vec in enumerate(series.coeffs):
        for mu, c in vec:
            assert c.denominator == 1, (m, format_type(mu), c)
