"""The Sigma engine: G-semigroups based on a subset of Z_m.

Given a base S (a subset of Z_m containing 0 and at least one unit), the
semigroup generated by {mu(s, z) : s in S, z in Z_m} decomposes as a
disjoint union, over x in the multiplicative closure S*, of unions of
containers C(x, y) with y ranging over

    Y(x) = {s*z : s* in S*, z in Z_m, some s in S has s*s* = x (mod m)}.

Everything here works with that decomposition: D(x) is the witness set
{s* in S* : some s in S has s*s* = x}, kept only as its divisors
gcd(s*, m), since s*Z_m = gcd(s*, m)Z_m.  Each family keeps the
divisibility-minimal ones (maximal containers), and Y(x) is the union of
their container ranges; the set union performs the inclusion-exclusion
over overlapping containers exactly.

The right and left commutation semigroups are the special cases
S = R = {k^j - 1} and S = L = {-(k^j - 1)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .container import Container
from .group import Presentation
from .mumap import MuMap

# the two commutation sides: P(G) is based on R, Lambda(G) on L
RIGHT, LEFT = "right", "left"
SIDES = (RIGHT, LEFT)


class InvalidBase(ValueError):
    """The proposed base is missing 0, has no unit, or is off-modulus."""


@dataclass(frozen=True)
class BaseSet:
    m: int
    elements: frozenset[int]


@dataclass(frozen=True)
class ClosedSet:
    """S* with its unit / non-unit split; I(S*) is a group containing 1."""

    m: int
    elements: frozenset[int]
    units: frozenset[int]
    non_units: frozenset[int]


@dataclass(frozen=True)
class Orbit:
    """orb(x, S*) = {x*u : u in I(S*)}; basic when it meets S."""

    representative: int
    elements: frozenset[int]
    basic: bool


@dataclass(frozen=True)
class Family:
    """The x-family of containers inside the semigroup.

    generators_d holds the divisibility-minimal divisors gcd(s*, m) over
    s* in D(x); the family is complete exactly when 1 is among them (the
    maximal container C(x, 1) then swallows the rest).
    """

    x: int
    generators_d: frozenset[int]
    y_set_size: int
    complete: bool
    maximal_containers: tuple[Container, ...]


@dataclass(frozen=True)
class SigmaAnalysis:
    presentation: Presentation
    base: BaseSet
    closure: ClosedSet
    orbits: tuple[Orbit, ...]
    families: tuple[Family, ...]
    total_order: int
    complete: bool


def make_base(m: int, elements) -> BaseSet:
    """Validate and canonicalize a base: residues reduced, 0 present, a unit present."""
    reduced = frozenset(e % m for e in elements)
    if not reduced:
        raise InvalidBase("base must be non-empty")
    if 0 not in reduced:
        raise InvalidBase("base must contain 0")
    if not any(math.gcd(e, m) == 1 for e in reduced):
        raise InvalidBase("base must contain at least one unit of Z_m")
    return BaseSet(m, reduced)


def right_base(p: Presentation) -> BaseSet:
    """R = {k^j - 1 mod m : 0 <= j < n}; trivial centre guarantees a unit."""
    return make_base(p.m, p.k_sub[: p.n])


def left_base(p: Presentation) -> BaseSet:
    """L = -R elementwise."""
    return make_base(p.m, ((-t) % p.m for t in p.k_sub[: p.n]))


def closure(s: BaseSet) -> ClosedSet:
    """Least multiplicatively closed superset of S, split into units/non-units."""
    m = s.m
    cur = set(s.elements)
    gens = sorted(s.elements)
    frontier = list(cur)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                v = a * g % m
                if v not in cur:
                    cur.add(v)
                    fresh.append(v)
        frontier = fresh
    units = frozenset(u for u in cur if math.gcd(u, m) == 1)
    return ClosedSet(m, frozenset(cur), units, frozenset(cur - units))


def orbits(s: BaseSet, c: ClosedSet) -> list[Orbit]:
    """Partition S* into orbits under multiplication by I(S*), ascending by
    representative; iterating ascending makes the first unseen element the
    orbit minimum."""
    m = c.m
    units = sorted(c.units)
    base_elems = s.elements
    seen: set[int] = set()
    out = []
    for x in sorted(c.elements):
        if x in seen:
            continue
        orb = frozenset(x * u % m for u in units)
        seen |= orb
        out.append(Orbit(x, orb, not orb.isdisjoint(base_elems)))
    return out


def _minimal_divisors(divisors: set[int]) -> frozenset[int]:
    return frozenset(
        d for d in divisors if not any(e != d and d % e == 0 for e in divisors)
    )


def _family_codes(m: int, x: int, divisors: frozenset[int]) -> range | list[int]:
    """The codes x*m + y of the x-family, ascending: y runs over the union
    of the multiples of each divisor d (the container C(x; d))."""
    base = x * m
    if len(divisors) == 1:
        (d,) = divisors
        return range(base, base + m, d)
    return sorted(set().union(*(range(base, base + m, d) for d in divisors)))


def analyze(p: Presentation, s: BaseSet, *, verify: bool = False) -> SigmaAnalysis:
    """Full decomposition of the semigroup based on S.

    One pass over S x S* fills the divisors of every D(x) at once.  With
    verify=True the cross identities tying orbits to families are asserted
    on the result.
    """
    if s.m != p.m:
        raise InvalidBase(f"base modulus {s.m} does not match presentation modulus {p.m}")
    m = p.m
    closed = closure(s)
    orbs = orbits(s, closed)

    # a witness s* of x enters its family only through gcd(s*, m)
    gcd_of = {st: math.gcd(st, m) for st in closed.elements}
    divisors: dict[int, set[int]] = {x: set() for x in closed.elements}
    for b in s.elements:
        for st, d in gcd_of.items():
            divisors[b * st % m].add(d)

    families = []
    for x in sorted(closed.elements):
        gens_d = _minimal_divisors(divisors[x])
        size = len(_family_codes(m, 0, gens_d))
        maximal = tuple(Container(x, d) for d in sorted(gens_d))
        families.append(Family(x, gens_d, size, 1 in gens_d, maximal))
    total = sum(f.y_set_size for f in families)
    complete = all(o.basic for o in orbs)

    analysis = SigmaAnalysis(p, s, closed, orbs, tuple(families), total, complete)
    if verify:
        _verify(analysis)
    return analysis


def _verify(a: SigmaAnalysis) -> None:
    """Internal consistency: the orbit/family correspondences must agree."""
    m = a.closure.m
    basic_of = {}
    for orb in a.orbits:
        for x in orb.elements:
            basic_of[x] = orb.basic
    assert set(basic_of) == set(a.closure.elements), "orbits must partition S*"
    assert sum(len(o.elements) for o in a.orbits) == len(a.closure.elements)
    for f in a.families:
        # an orbit is basic iff its families are complete
        assert f.complete == basic_of[f.x], f"x={f.x}: completeness/basicness mismatch"
        assert f.generators_d, f"x={f.x}: empty witness set"
    for orb in a.orbits:
        if orb.representative in a.closure.units or not orb.elements.isdisjoint(
            a.base.elements
        ):
            assert orb.basic  # unit orbits and base-meeting orbits are basic
    if a.complete:
        assert a.total_order == m * len(a.closure.elements)


def element_codes(a: SigmaAnalysis) -> list[int]:
    """The exact element set as sorted codes x*m + y (bulk-comparison form)."""
    m = a.presentation.m
    out = []
    for f in a.families:
        out.extend(_family_codes(m, f.x, f.generators_d))
    return out


def enumerate_elements(a: SigmaAnalysis) -> list[MuMap]:
    """Every mu-map of the semigroup, deduplicated, sorted by (x, y)."""
    m = a.presentation.m
    return [MuMap(*divmod(code, m)) for code in element_codes(a)]
