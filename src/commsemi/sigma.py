"""The Sigma engine: G-semigroups based on a subset of Z_m.

Given a base S (a subset of Z_m containing 0 and at least one unit), the
semigroup generated by {mu(s, z) : s in S, z in Z_m} decomposes as a
disjoint union, over x in the multiplicative closure S*, of unions of
containers C(x, y) with y ranging over

    Y(x) = {s*z : s* in S*, z in Z_m, some s in S has s*s* = x (mod m)}.

Everything here works with that decomposition: D(x) is the witness set
{s* in S* : some s in S has s*s* = x}, each family keeps only the
divisibility-minimal canonical divisors of D(x) (maximal containers), and
|Y(x)| is counted by a direct residue scan, which performs the
inclusion-exclusion over overlapping containers exactly.

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


class XNotInClosure(ValueError):
    """A family was requested for an x outside S*."""


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


def _count_multiples(m: int, divisors: frozenset[int]) -> int:
    # Exact union count over the divisor ideals; the scan is the
    # inclusion-exclusion, so container overlaps need no special casing.
    if 1 in divisors:
        return m
    ds = sorted(divisors)
    return sum(1 for w in range(m) if any(w % d == 0 for d in ds))


def _family_from_witnesses(m: int, x: int, witnesses: set[int]) -> Family:
    gens_d = _minimal_divisors({math.gcd(w, m) for w in witnesses})
    complete = 1 in gens_d
    size = _count_multiples(m, gens_d)
    maximal = tuple(Container(x, d) for d in sorted(gens_d))
    return Family(x, gens_d, size, complete, maximal)


def family(s: BaseSet, c: ClosedSet, x: int) -> Family:
    """The x-family, computed from D(x) by scanning s* over S* for every s in S.

    Scanning avoids the zero-divisor case analysis of solving s*s* = x
    directly; the s* = 1 witness (present exactly when x is itself in S)
    accounts for the generator maps mu(x, z).
    """
    if x not in c.elements:
        raise XNotInClosure(f"{x} is not in the closure")
    m = c.m
    witnesses = {st for st in c.elements for b in s.elements if b * st % m == x}
    return _family_from_witnesses(m, x, witnesses)


def analyze(p: Presentation, s: BaseSet, *, verify: bool = False) -> SigmaAnalysis:
    """Full decomposition of the semigroup based on S.

    One pass over S x S* fills every D(x) at once, so the whole analysis
    costs what a single family query does.  With verify=True the cross
    identities tying orbits to families are asserted on the result.
    """
    if s.m != p.m:
        raise InvalidBase(f"base modulus {s.m} does not match presentation modulus {p.m}")
    m = p.m
    closed = closure(s)
    orbs = orbits(s, closed)

    witnesses: dict[int, set[int]] = {x: set() for x in closed.elements}
    for b in s.elements:
        for st in closed.elements:
            witnesses[b * st % m].add(st)

    families = tuple(
        _family_from_witnesses(m, x, witnesses[x]) for x in sorted(closed.elements)
    )
    total = sum(f.y_set_size for f in families)
    complete = all(o.basic for o in orbs)

    analysis = SigmaAnalysis(p, s, closed, orbs, families, total, complete)
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
        base = f.x * m
        if f.complete:
            out.extend(range(base, base + m))
        else:
            ds = sorted(f.generators_d)
            out.extend(base + w for w in range(m) if any(w % d == 0 for d in ds))
    return out


def enumerate_elements(a: SigmaAnalysis) -> list[MuMap]:
    """Every mu-map of the semigroup, deduplicated, sorted by (x, y)."""
    m = a.presentation.m
    return [MuMap(*divmod(code, m)) for code in element_codes(a)]
