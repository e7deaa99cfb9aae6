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

The engine works on orbits.  The unit group U = I(S*) is generated by the
units of S, S* is a union of U-orbits x*U, and the divisors of D(x) are
the same for every x of one orbit (b*(r*u) = (b*r)*u and
gcd(r*u, m) = gcd(r, m)), so every x of one orbit has the same y-set.
Each orbit is built exactly once, by closure, which grows S* an orbit at a
time and keeps the orbit sets; orbits() only labels them, analyze fills D
once per orbit from its representative, and element_codes builds one
y-set per orbit and writes it at every x of the orbit.  With gens the
generators that enlarge U (at most log2 |U| of them), the cost is
O(|U|*gens + orbits*(|U| + |S|) + |S*|*|D|) rather than O(|S|*|S*|): at
prime m, where U is every unit and there are two orbits, it is about
linear in m.

The right and left commutation semigroups are the special cases
S = R = {k^j - 1} and S = L = {-(k^j - 1)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """S* with its unit / non-unit split; I(S*) is a group containing 1.

    orbit_sets partitions S* into its I(S*)-orbits, ascending by minimum.
    """

    m: int
    elements: frozenset[int]
    units: frozenset[int]
    non_units: frozenset[int]
    orbit_sets: tuple[frozenset[int], ...]


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


def _unit_group(m: int, gens) -> tuple[list[int], list[int]]:
    """<gens> for units gens of Z_m, by coset extension (Dimino): each
    generator g not yet in H appends the cosets gH, g^2H, ... until the next
    power of g is back in H; Z_m^* is abelian, so these cosets make <H, g>.
    Returns the elements and the generators that enlarged the group."""
    one = 1 % m
    elements, members, enlarging = [one], {one}, []
    for g in gens:
        if g in members:
            continue
        enlarging.append(g)
        h = elements[:]
        coset_rep = g
        while coset_rep not in members:
            coset = [coset_rep * e % m for e in h]
            elements.extend(coset)
            members.update(coset)
            coset_rep = coset_rep * g % m
    return elements, enlarging


def _base_units(s: BaseSet) -> list[int]:
    return sorted(e for e in s.elements if math.gcd(e, s.m) == 1)


def closure(s: BaseSet) -> ClosedSet:
    """Least multiplicatively closed superset of S, split into units/non-units
    and into its U-orbits.

    A product with a non-unit factor is a non-unit, so the units of S* form
    U = <units of S>, built by coset extension in O(|U| log |U|).  S* is a
    union of U-orbits, grown from the orbit of 1 by a worklist over orbit
    representatives times the non-unit elements of S only: a unit of S maps
    every orbit to itself, and S itself enters at the first step, as 1*b.
    Each orbit is multiplied out once, here, and kept in the result.
    Cost O(|U| log |U| + orbits*(|U| + |S|)).
    """
    m = s.m
    units, _ = _unit_group(m, _base_units(s))
    non_unit_gens = sorted(e for e in s.elements if math.gcd(e, m) != 1)
    unit_set = frozenset(units)
    elements = set(unit_set)
    grown = [unit_set]
    reps = [units[0]]
    for r in reps:  # the worklist: reps grows while it is walked
        for b in non_unit_gens:
            v = r * b % m
            if v not in elements:
                orbit = frozenset(v * u % m for u in units)
                elements |= orbit
                grown.append(orbit)
                reps.append(v)
    closed = frozenset(elements)
    return ClosedSet(m, closed, unit_set, closed - unit_set, tuple(sorted(grown, key=min)))


def orbits(s: BaseSet, c: ClosedSet) -> list[Orbit]:
    """Label the orbits closure built, ascending by representative: each
    orbit's representative is its minimum, and it is basic when it meets S."""
    return [Orbit(min(o), o, not o.isdisjoint(s.elements)) for o in c.orbit_sets]


def _minimal_divisors(divisors: set[int]) -> frozenset[int]:
    return frozenset(
        d for d in divisors if not any(e != d and d % e == 0 for e in divisors)
    )


def _y_set(m: int, divisors: frozenset[int]) -> np.ndarray:
    """The y-set of one orbit, ascending int64: the union of the multiples
    of each divisor d in Z_m (the containers C(x; d)).  It is the same for
    every x of the orbit, and the x-family's codes are x*m + y."""
    if len(divisors) == 1:
        (d,) = divisors
        return np.arange(0, m, d, dtype=np.int64)
    hit = np.zeros(m, dtype=bool)
    for d in divisors:
        hit[::d] = True
    return np.flatnonzero(hit)


def analyze(p: Presentation, s: BaseSet, *, verify: bool = False) -> SigmaAnalysis:
    """Full decomposition of the semigroup based on S.

    The divisors of D(x) are the same on each U-orbit, since
    b*(r*u) = (b*r)*u and gcd(r*u, m) = gcd(r, m).  So one pass over orbit
    representatives r and b in S fills them all, adding gcd(r, m) to the
    orbit of b*r.  The minimal divisors, the family size and completeness
    are then worked out once per orbit and shared by its families.  Cost
    O(orbits*|S| + |S*|*|D|) on top of closure and orbits.  With verify=True
    the closure and the cross identities tying orbits to families are
    asserted on the result.
    """
    if s.m != p.m:
        raise InvalidBase(f"base modulus {s.m} does not match presentation modulus {p.m}")
    m = p.m
    closed = closure(s)
    orbs = tuple(orbits(s, closed))
    orbit_of = {x: i for i, o in enumerate(orbs) for x in o.elements}

    divisors: list[set[int]] = [set() for _ in orbs]
    for o in orbs:
        r = o.representative
        d = math.gcd(r, m)
        for b in s.elements:
            divisors[orbit_of[b * r % m]].add(d)

    per_orbit = []
    for ds in divisors:
        gens_d = _minimal_divisors(ds)
        per_orbit.append((gens_d, _y_set(m, gens_d).size, 1 in gens_d, sorted(gens_d)))

    families = []
    for x in sorted(closed.elements):
        gens_d, size, family_complete, ds = per_orbit[orbit_of[x]]
        maximal = tuple(Container(x, d) for d in ds)
        families.append(Family(x, gens_d, size, family_complete, maximal))
    total = sum(f.y_set_size for f in families)
    complete = all(o.basic for o in orbs)

    analysis = SigmaAnalysis(p, s, closed, orbs, tuple(families), total, complete)
    if verify:
        _verify(analysis)
    return analysis


def _verify(a: SigmaAnalysis) -> None:
    """Internal consistency: S* must be closed, and the orbit/family
    correspondences must agree.

    Closure is checked at orbit level: every orbit must be r*I(S*) for its
    representative r, I(S*) must be closed under the generators of
    <units of S>, and r*s must lie in S* for each r and s in S; then
    (r*u)*s = (r*s)*u lies in S* too.
    """
    c = a.closure
    m = c.m
    assert a.base.elements <= c.elements, "S must lie in S*"
    assert c.units == {x for x in c.elements if math.gcd(x, m) == 1}
    assert c.non_units == c.elements - c.units
    _, unit_gens = _unit_group(m, _base_units(a.base))
    assert all(u * g % m in c.units for g in unit_gens for u in c.units), "I(S*) must be closed"
    for orb in a.orbits:
        r = orb.representative
        assert orb.elements == {r * u % m for u in c.units}, f"orbit of {r} must be r*I(S*)"
        assert all(r * b % m in c.elements for b in a.base.elements), f"{r}*S must lie in S*"

    basic_of = {}
    for orb in a.orbits:
        for x in orb.elements:
            basic_of[x] = orb.basic
    assert set(basic_of) == set(c.elements), "orbits must partition S*"
    assert sum(len(o.elements) for o in a.orbits) == len(c.elements)
    for f in a.families:
        # an orbit is basic iff its families are complete
        assert f.complete == basic_of[f.x], f"x={f.x}: completeness/basicness mismatch"
        assert f.generators_d, f"x={f.x}: empty witness set"
    for orb in a.orbits:
        if orb.representative in c.units or not orb.elements.isdisjoint(a.base.elements):
            assert orb.basic  # unit orbits and base-meeting orbits are basic
    if a.complete:
        assert a.total_order == m * len(c.elements)


def element_codes(a: SigmaAnalysis) -> np.ndarray:
    """The exact element set as codes x*m + y: one strictly increasing int64
    array of length total_order (the bulk-comparison form).

    The y-set is built once per orbit and written at every x of the orbit,
    each x's block x*m + Y at the offset its family takes in x order (the
    cumulative family sizes), so the result comes out sorted.
    """
    m = a.presentation.m
    families = a.families
    index = {f.x: i for i, f in enumerate(families)}
    ends = np.cumsum([f.y_set_size for f in families], dtype=np.int64)
    out = np.empty(a.total_order, dtype=np.int64)
    for o in a.orbits:
        ys = _y_set(m, families[index[o.representative]].generators_d)
        for x in o.elements:
            end = ends[index[x]]
            np.add(ys, x * m, out=out[end - ys.size : end])
    return out


def enumerate_elements(a: SigmaAnalysis) -> list[MuMap]:
    """Every mu-map of the semigroup, deduplicated, sorted by (x, y)."""
    m = a.presentation.m
    return [MuMap(*divmod(code, m)) for code in element_codes(a).tolist()]
