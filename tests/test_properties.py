"""Property tests: text round trip, sign-swap symmetry, integrality."""

from hypothesis import given, settings
from hypothesis import strategies as st

from model_reference import parse_type
from realhurwitz.evolution import SIGNED
from realhurwitz.model import RamificationType, enumerate_bidegrees, format_type, partition, rtype
from realhurwitz.nonsep import TildeType
from realhurwitz.poly import series, value

parts = st.lists(st.integers(min_value=1, max_value=12), max_size=6).map(partition)
types = st.builds(RamificationType, parts, parts, parts)
even_parts = st.lists(st.integers(min_value=1, max_value=6).map(lambda k: 2 * k),
                      max_size=4).map(partition)
odd_parts = st.lists(st.integers(min_value=0, max_value=6).map(lambda k: 2 * k + 1),
                     max_size=4).map(partition)
tilde_types = st.builds(TildeType, even_parts, even_parts, odd_parts, parts)
small_parts = st.lists(st.integers(min_value=1, max_value=4), max_size=3)
small_types = st.builds(rtype, small_parts, small_parts, small_parts).filter(
    lambda mu: mu.degree <= 6)


@given(types)
def test_format_type_round_trips_through_parse_type(mu):
    assert parse_type(format_type(mu)) == mu


@given(tilde_types)
def test_format_type_round_trips_a_tilde_type_through_parse_type(mu):
    got = parse_type(format_type(mu))
    assert type(got) is TildeType and got == mu


@settings(max_examples=60, deadline=None)
@given(small_types, st.integers(min_value=0, max_value=7))
def test_connected_count_symmetric_under_sign_swap(mu, m):
    assert value(SIGNED, mu, m) == value(SIGNED, mu.swap_signs(), m)


def test_connected_counts_through_degree_eight_are_integers():
    conn = series(SIGNED, enumerate_bidegrees(8), 8, True)
    assert any(conn.coeffs)
    for m, vec in enumerate(conn.coeffs):
        for mu, c in vec.items():
            assert c.denominator == 1, (m, format_type(mu), c)
