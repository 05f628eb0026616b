import math

from hypothesis import given, strategies as st

from hamdec import ConnectionSet, analyze
from helpers import component_set


def test_one_two_fails_parity():
    r = analyze(ConnectionSet([1, 2]))
    assert r.gcd == 1 and not r.parity_ok and not r.admissible


def test_consecutive_four_admissible():
    assert analyze(ConnectionSet([1, 2, 3, 4])).admissible


def test_even_gcd_disconnects():
    r = analyze(ConnectionSet([2, 4]))
    assert r.gcd == 2 and r.component_count == 2 and not r.admissible


def test_one_three_admissible():
    assert analyze(ConnectionSet([1, 3])).admissible


def test_singleton_sets():
    assert analyze(ConnectionSet([1])).admissible
    for a in (2, 3, 5, 8):
        assert not analyze(ConnectionSet([a])).admissible


def test_component_set_examples():
    assert component_set(ConnectionSet([2, 6])).s_plus == (1, 3)
    assert component_set(ConnectionSet([1, 5])).s_plus == (1, 5)
    assert component_set(ConnectionSet([6, 10, 15])).s_plus == (6, 10, 15)


sets = st.lists(st.integers(1, 200), min_size=1, max_size=8, unique=True).map(ConnectionSet)


@given(sets)
def test_component_set_is_coprime(s):
    assert math.gcd(*component_set(s).s_plus) == 1


@given(sets)
def test_admissible_implies_connected_and_fixed(s):
    if analyze(s).admissible:
        assert math.gcd(*s.s_plus) == 1
        assert component_set(s) == s


@given(sets, st.integers(1, 100))
def test_parity_closure_under_even_extension(s, half):
    even = 2 * half
    if analyze(s).admissible and even not in s:
        assert not analyze(ConnectionSet([*s.s_plus, even])).admissible
