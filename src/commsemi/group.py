"""Metacyclic presentations G(m,n,k) = <a,b; a^m = 1, b^n = 1, a^b = a^k>.

A presentation is accepted only when the group it defines has trivial
centre: k must be a unit mod m, k - 1 must also be a unit, and n is forced
to be the multiplicative order of k.  Elements are kept in the normal form
a^i b^j with 0 <= i < m, 0 <= j < n.  A Presentation holds m, n and k
alone; the power tables of k and c = k^-1 follow from them and are built
on first read, so a caller that needs only the parameters pays O(1) for
a validated presentation beyond finding n.

The product rule follows from b a b^-1 = a^(k^-1):

    (a^i b^j)(a^r b^s) = a^(i + r*c^j) b^(j+s mod n),   c = k^-1 mod m.

The dual convention (exponent of b first) would silently swap k and k^-1;
the commutator cross-check (commutator_formula vs commutator_direct) pins
the convention rather than trusting the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import zmod


class InvalidPresentation(ValueError):
    """Base class for rejected (m, k) parameter pairs."""


class OutOfRange(InvalidPresentation):
    """m lies outside [2, 2^63) or k outside [0, m)."""


class NotCoprimeK(InvalidPresentation):
    """k shares a factor with m, so a^b = a^k is not an automorphism."""


class NonTrivialCentre(InvalidPresentation):
    """gcd(m, k-1) > 1: some power of a is central."""


class Abelian(InvalidPresentation):
    """k = 1 (mod m): the presented group is abelian."""


@dataclass(frozen=True, order=True)
class GroupElement:
    """Normal form a^i b^j."""

    i: int
    j: int

    def __str__(self) -> str:
        return f"a^{self.i} b^{self.j}"


IDENTITY = GroupElement(0, 0)


@dataclass(frozen=True)
class Presentation:
    """Validated parameters of G(m,n,k); equality and hashing see only them.

    The power tables are derived from (m, n, k) and built on first read:
    k_pow[t] = k^t mod m and k_sub[t] = k^t - 1 mod m for 0 <= t <= n;
    c_pow holds the matching powers of c = k^-1 for the product rule.
    """

    m: int
    n: int
    k: int

    @cached_property
    def k_pow(self) -> tuple[int, ...]:
        out = [1]
        for _ in range(self.n):
            out.append(out[-1] * self.k % self.m)
        return tuple(out)

    @cached_property
    def k_sub(self) -> tuple[int, ...]:
        return tuple((x - 1) % self.m for x in self.k_pow)

    @cached_property
    def c_pow(self) -> tuple[int, ...]:
        # c^t = k^(n - t), since k^n = 1
        return self.k_pow[::-1]

    @property
    def order(self) -> int:
        return self.m * self.n

    def elements(self) -> list[GroupElement]:
        return [GroupElement(i, j) for i in range(self.m) for j in range(self.n)]

    def __str__(self) -> str:
        return f"G({self.m},{self.n},{self.k})"


def validate(m: int, k: int) -> Presentation:
    """Accept (m, k) only if G(m, ind_m(k), k) is non-abelian with trivial centre."""
    if not (2 <= m <= zmod.MAX_MODULUS and 0 <= k < m):
        raise OutOfRange(f"need 2 <= m < 2^63 and 0 <= k < m, got m = {m}, k = {k}")
    if zmod.gcd(m, k) != 1:
        raise NotCoprimeK(f"gcd({m}, {k}) = {zmod.gcd(m, k)} != 1")
    if k == 1:
        raise Abelian(f"k = 1 mod {m} presents an abelian group")
    if zmod.gcd(m, k - 1) != 1:
        raise NonTrivialCentre(f"gcd({m}, {k - 1}) = {zmod.gcd(m, k - 1)} != 1")
    p = Presentation(m, zmod.mult_order(k, m), k)
    assert pow(k, p.n, m) == 1
    return p


def unchecked(m: int, k: int) -> Presentation:
    """Build a presentation without the trivial-centre checks.

    Still requires gcd(m, k) = 1 and k != 1 so that n = ind_m(k) exists and
    the normal form is well defined.  Only intended for negative tests and
    the centre() oracle; everything downstream of validate() assumes the
    centre really is trivial.
    """
    zmod.check_modulus(m)
    if zmod.gcd(m, k % m) != 1:
        raise NotCoprimeK(f"gcd({m}, {k}) != 1")
    if k % m == 1:
        raise Abelian("k = 1 mod m has no multiplicative order > 1")
    return Presentation(m, zmod.mult_order(k % m, m), k % m)


def multiply(p: Presentation, g: GroupElement, h: GroupElement) -> GroupElement:
    return GroupElement(
        (g.i + h.i * p.c_pow[g.j]) % p.m,
        (g.j + h.j) % p.n,
    )


def inverse(p: Presentation, g: GroupElement) -> GroupElement:
    # (a^i b^j)^-1 = a^(-i*k^j) b^(n-j): then i + (-i*k^j)*c^j = 0.
    return GroupElement((-g.i * p.k_pow[g.j]) % p.m, (p.n - g.j) % p.n)


def commutator_formula(p: Presentation, g: GroupElement, h: GroupElement) -> GroupElement:
    """[a^i b^j, a^r b^s] = a^N with N = i*k^j*k_s - r*k^s*k_j (mod m)."""
    n_exp = (g.i * p.k_pow[g.j] * p.k_sub[h.j] - h.i * p.k_pow[h.j] * p.k_sub[g.j]) % p.m
    return GroupElement(n_exp, 0)


def commutator_direct(p: Presentation, g: GroupElement, h: GroupElement) -> GroupElement:
    """[g, h] = g^-1 h^-1 g h by four normal-form multiplications."""
    out = multiply(p, inverse(p, g), inverse(p, h))
    out = multiply(p, out, g)
    return multiply(p, out, h)


def centre(p: Presentation) -> frozenset[GroupElement]:
    """Brute-force scan: the elements commuting with both a and b.

    Redundant for validated presentations (always {identity}) but kept as
    the oracle for negative tests on presentations built with unchecked().
    """
    a = GroupElement(1 % p.m, 0)
    b = GroupElement(0, 1 % p.n)
    out = []
    for g in p.elements():
        if multiply(p, g, a) == multiply(p, a, g) and multiply(p, g, b) == multiply(p, b, g):
            out.append(g)
    return frozenset(out)
