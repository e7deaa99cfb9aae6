"""Exact arithmetic in the multiplicative semigroup Z_m.

Residues are plain ints kept fully reduced into [0, m), so equality is
structural: `mult_order` reduces its own argument, and outside input is
reduced where it enters (`sigma.make_base`) or refused (`group.validate`).
The modulus must fit in a signed 64-bit word; Python's big ints make
overflow a non-issue beyond that check.
"""

from __future__ import annotations

import math

MAX_MODULUS = 2**63 - 1


class NonUnit(ValueError):
    """A multiplicative order was requested for a non-unit."""


def check_modulus(m: int) -> int:
    if not 2 <= m <= MAX_MODULUS:
        raise ValueError(f"modulus must be in [2, 2^63-1], got {m}")
    return m


def gcd(a: int, b: int) -> int:
    """Greatest common divisor with gcd(a, 0) = a; rejects gcd(0, 0)."""
    if a < 0 or b < 0:
        raise ValueError("gcd arguments must be nonnegative")
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def mult_order(k: int, m: int) -> int:
    """Least d >= 1 with k^d = 1 (mod m).

    Computed by iterated multiplication: desk-scale moduli make the O(d)
    walk cheaper than factoring the unit-group order.
    """
    k = k % m
    if math.gcd(k, m) != 1:
        raise NonUnit(f"{k} is not invertible mod {m}")
    d, x = 1, k
    while x != 1:
        x = x * k % m
        d += 1
    return d
