import math

import pytest
from hypothesis import given, strategies as st

from commsemi import zmod


def gcd_by_subtraction(a, b):
    # independent of math.gcd: Euclid's original form
    while a != b:
        if a == 0:
            return b
        if b == 0:
            return a
        if a > b:
            a -= b
        else:
            b -= a
    return a


class TestGcd:
    def test_divisor(self):
        assert zmod.gcd(63, 3) == 3

    def test_coprime(self):
        assert zmod.gcd(7, 5) == 1

    def test_trivial_centre_condition_of_survey_pair(self):
        # gcd(315, 272-1): the subtraction oracle agrees it is 1
        assert gcd_by_subtraction(315, 271) == 1
        assert zmod.gcd(315, 271) == 1

    def test_zero_argument(self):
        assert zmod.gcd(12, 0) == 12
        assert zmod.gcd(0, 12) == 12

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            zmod.gcd(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            zmod.gcd(-3, 6)

    @given(st.integers(0, 10**6), st.integers(1, 10**6))
    def test_matches_subtraction_oracle(self, a, b):
        assert zmod.gcd(a, b) == gcd_by_subtraction(a, b)


class TestMultOrder:
    @pytest.mark.parametrize(
        "k,m,expected", [(2, 63, 6), (6, 7, 2), (3, 5, 4)]
    )
    def test_known_orders(self, k, m, expected):
        assert zmod.mult_order(k, m) == expected

    def test_non_unit_rejected(self):
        with pytest.raises(zmod.NonUnit):
            zmod.mult_order(21, 63)

    @given(st.integers(2, 2000), st.integers(2, 2000))
    def test_order_is_minimal_and_annihilating(self, m, k):
        k %= m
        if m < 2 or math.gcd(k, m) != 1:
            return
        d = zmod.mult_order(k, m)
        # direct powering: k^d = 1 and no earlier power is 1
        x = 1
        for t in range(1, d + 1):
            x = x * k % m
            if t < d:
                assert x != 1
        assert x == 1

    @pytest.mark.parametrize("m", [5, 9, 12, 35, 63, 97])
    def test_lagrange(self, m):
        unit_count = sum(1 for r in range(m) if math.gcd(r, m) == 1)
        for k in range(2, m):
            if math.gcd(k, m) == 1:
                assert unit_count % zmod.mult_order(k, m) == 0


def test_modulus_bounds():
    with pytest.raises(ValueError):
        zmod.check_modulus(1)
    with pytest.raises(ValueError):
        zmod.check_modulus(2**63)
    assert zmod.check_modulus(2) == 2
