import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from stochflow.dyadic import MAX_LEVEL, DyadicTime, dyadic
from stochflow.errors import AlignmentError, ResolutionError


def _fraction(t: DyadicTime) -> Fraction:
    return Fraction(t.numerator, 1 << t.level)


def test_canonical_form():
    assert dyadic(4, 2) == dyadic(1)
    assert dyadic(6, 3) == dyadic(3, 2)
    assert dyadic(0, 7) == dyadic(0)
    assert dyadic(5, 3).level == 3


def test_value_and_fraction():
    t = dyadic(-3, 1)
    assert t.value == -1.5
    assert _fraction(t) == Fraction(-3, 2)
    assert dyadic(7).floor_int == 7
    assert dyadic(-3, 1).floor_int == -2


def test_ordering():
    assert dyadic(1, 1) < dyadic(1)
    assert dyadic(-5) < dyadic(-9, 1)
    assert dyadic(3, 2) <= dyadic(3, 2)


def test_arithmetic():
    assert dyadic(1, 1) + dyadic(1, 2) == dyadic(3, 2)
    assert dyadic(1) - dyadic(1, 3) == dyadic(7, 3)
    assert dyadic(5) - 2 == dyadic(3)
    assert -dyadic(3, 1) == dyadic(-3, 1)


def test_at_level():
    assert dyadic(3, 2).at_level(4) == 12
    with pytest.raises(AlignmentError):
        dyadic(3, 2).at_level(1)
    with pytest.raises(ResolutionError):
        DyadicTime(1, MAX_LEVEL + 1)


@given(st.integers(-10**6, 10**6), st.integers(0, MAX_LEVEL))
def test_roundtrip_is_canonical(num, lev):
    t = DyadicTime(num, lev)
    assert t.level == 0 or t.numerator % 2 == 1
    assert _fraction(t) == Fraction(num, 1 << lev)


@given(st.integers(-2**40, 2**40), st.integers(0, MAX_LEVEL),
       st.integers(-2**40, 2**40), st.integers(0, MAX_LEVEL),
       st.booleans(), st.integers(-2, 2))
@settings(max_examples=300)
def test_order_matches_fraction_order(n1, l1, n2, l2, near, nudge):
    if near:  # b within two steps of a on b's grid, often equal to it
        n2 = ((n1 << l2) >> l1) + nudge
    a, b = DyadicTime(n1, l1), DyadicTime(n2, l2)
    fa, fb = _fraction(a), _fraction(b)
    assert [a < b, a <= b, a > b, a >= b, a == b] == [fa < fb, fa <= fb, fa > fb, fa >= fb,
                                                      fa == fb]
    assert _fraction(a + b) == fa + fb
