"""The Sigma engine: G-semigroups based on a subset of Z_m.

Given a base S (a subset of Z_m containing 0 and at least one unit), the
semigroup generated by {mu(s, z) : s in S, z in Z_m} decomposes as a
disjoint union, over x in the multiplicative closure S*, of unions of
containers C(x, y) with y ranging over

    Y(x) = {s*z : s* in S*, z in Z_m, some s in S has s*s* = x (mod m)}.

Everything here works with that decomposition: D(x) is the witness set
{s* in S* : some s in S has s*s* = x}, kept only as its divisors
gcd(s*, m), since s*Z_m = gcd(s*, m)Z_m.  The divisibility-minimal ones
name the maximal containers, and Y(x) is the union of their container
ranges; the set union performs the inclusion-exclusion over overlapping
containers exactly.

The orbit is the engine's only record.  The unit group U = I(S*) is
generated by the units of S, S* is a union of U-orbits x*U, and every x of
one orbit has the same divisors of D(x), hence the same y-set.  The engine
walks S* once: closure grows each orbit and records its divisors from the
same products r*b, orbits() keeps the minimal ones, and nothing is stored
per x.  With gens the generators that enlarge U (at most log2 |U|), analyze
costs O(|U|*gens + orbits*(|U| + |S|) + |S* - U|) rather than
O(|S|*|S*|), each product r*b formed once: about linear in m at prime m.

The right and left commutation semigroups are the special cases
S = R = {k^j - 1} and S = L = {-(k^j - 1)}.  Every generator k^j of <k>
(j coprime to n) presents the same group with b replaced by b^j, so it has
the same R and L, hence the same decomposition.  Inside a
shared_analyses() scope, analyze computes the decomposition once per base
and hands each caller its own SigmaAnalysis; outside any scope it keeps
nothing.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .group import Presentation
from .mumap import MuMap

# the two commutation sides: P(G) is based on R, Lambda(G) on L
RIGHT, LEFT = "right", "left"
SIDES = (RIGHT, LEFT)


# Codes element_codes writes at most: 2^27 int64 codes, 1 GiB.  It is above
# the pair oracle's m*m mask bound (oracle.PAIR_MASK_LIMIT = 2^24), since no
# semigroup holds more than m*m maps, so every group the pair oracle checks
# gets its codes.  Both sides of G(15015,n,2) (97M and 126M maps) fit too.
CODE_LIMIT = 1 << 27


# The decompositions of the innermost open shared_analyses() scope, keyed by
# base; None outside every scope.
_shared: ContextVar[dict | None] = ContextVar("shared_analyses", default=None)


class InvalidBase(ValueError):
    """The proposed base is missing 0, has no unit, or is off-modulus."""


class CodeBudgetExceeded(ValueError):
    """The semigroup has more maps than element_codes may list."""


@dataclass(frozen=True)
class BaseSet:
    """S with its unit / non-unit split, made once by make_base."""

    m: int
    elements: frozenset[int]
    units: frozenset[int]
    non_units: frozenset[int]


@dataclass(frozen=True)
class ClosedSet:
    """S* with its unit / non-unit split; I(S*) is a group containing 1.

    orbit_sets partitions S* into its I(S*)-orbits, ascending by minimum;
    orbit_minima[i] is the least element of orbit_sets[i], and
    orbit_divisors[i] holds the divisors gcd(s*, m) over the witness set
    D(x), the same for every x of orbit_sets[i].
    """

    m: int
    elements: frozenset[int]
    units: frozenset[int]
    non_units: frozenset[int]
    orbit_sets: tuple[frozenset[int], ...]
    orbit_divisors: tuple[frozenset[int], ...]
    orbit_minima: tuple[int, ...]


@dataclass(frozen=True)
class Orbit:
    """orb(x, S*) = {x*u : u in I(S*)}; basic when it meets S.

    generators_d holds the divisibility-minimal divisors gcd(s*, m) over
    s* in D(x), and y_set_size the size of the y-set they cover; both are
    the same for every x of the orbit.
    """

    representative: int
    elements: frozenset[int]
    basic: bool
    generators_d: frozenset[int]
    y_set_size: int


@dataclass(frozen=True)
class Family:
    """The x-family of containers, x's view of its orbit: the maximal
    containers are C(x; d) for d in generators_d, and the family is
    complete exactly when 1 is among them (C(x; 1) swallows the rest)."""

    x: int
    generators_d: frozenset[int]
    y_set_size: int
    complete: bool


@dataclass(frozen=True)
class SigmaAnalysis:
    presentation: Presentation
    base: BaseSet
    closure: ClosedSet
    orbits: tuple[Orbit, ...]
    total_order: int
    complete: bool

    @property
    def families(self) -> tuple[Family, ...]:
        """One Family per x of S*, ascending by x, derived from the orbits
        on every read in O(|S*| log |S*|)."""
        fams = (
            Family(x, o.generators_d, o.y_set_size, 1 in o.generators_d)
            for o in self.orbits
            for x in o.elements
        )
        return tuple(sorted(fams, key=lambda f: f.x))


def make_base(m: int, elements) -> BaseSet:
    """Validate and canonicalize a base: residues reduced, 0 present, a unit
    present.  The unit test splits S into units and non-units, the only
    place S's elements are tested for units."""
    reduced = frozenset(e % m for e in elements)
    if not reduced:
        raise InvalidBase("base must be non-empty")
    if 0 not in reduced:
        raise InvalidBase("base must contain 0")
    units = frozenset(e for e in reduced if math.gcd(e, m) == 1)
    if not units:
        raise InvalidBase("base must contain at least one unit of Z_m")
    return BaseSet(m, reduced, units, reduced - units)


def right_base(p: Presentation) -> BaseSet:
    """R = {k^j - 1 mod m : 0 <= j < n}; trivial centre guarantees a unit."""
    return make_base(p.m, p.k_sub[: p.n])


def left_base(p: Presentation) -> BaseSet:
    """L = -R elementwise."""
    return make_base(p.m, ((-t) % p.m for t in p.k_sub[: p.n]))


def _unit_group(m: int, gens) -> tuple[list[int], list[int]]:
    """<gens> for units gens of Z_m, by coset extension (Dimino): each
    generator g not yet in H appends the cosets gH, g^2H, ... up to the
    first power of g that lies in H; Z_m^* is abelian, so these cosets make
    <H, g>.  The powers are walked first and every coset is then written
    in one pass, g^i H after g^(i-1) H, each in H's element order.
    Returns the elements and the generators that enlarged the group."""
    one = 1 % m
    elements, members, enlarging = [one], {one}, []
    for g in gens:
        if g in members:
            continue
        enlarging.append(g)
        reps = [g]
        while (nxt := reps[-1] * g % m) not in members:
            reps.append(nxt)
        cosets = [r * e % m for r in reps for e in elements]
        elements.extend(cosets)
        members.update(cosets)
    return elements, enlarging


def closure(s: BaseSet) -> ClosedSet:
    """Least multiplicatively closed superset of S, split into units/non-units
    and into its U-orbits, each with the divisors of its witness set.

    A product with a non-unit factor is a non-unit, so the units of S* form
    U = <units of S>, built by coset extension.  S* is a union of U-orbits,
    grown from the orbit of 1 by a worklist over orbit representatives r
    times the non-unit elements b of S (S enters at the first step, as 1*b).
    Each product is formed once and also gives the divisors: D(x) is the
    same on an orbit, since b*(r*u) = (b*r)*u and gcd(r*u, m) = gcd(r, m),
    so r*b adds gcd(r, m) to its orbit, found in an int32 label array.  A
    unit of S keeps every orbit in place, giving each orbit its own gcd.
    Each orbit's minimum is taken once, from the index array that labels
    it; U's is its first element, 1.
    Cost O(|U|*gens + orbits*(|U| + |S|) + |S* - U|).
    """
    m = s.m
    units, _ = _unit_group(m, s.units)
    label = np.full(m, -1, dtype=np.int32)  # orbit index of each non-unit of S*
    grown, reps, divisors, minima = [frozenset(units)], [units[0]], [{1}], [units[0]]
    for r in reps:  # the worklist: reps grows while it is walked
        d = math.gcd(r, m)
        for b in s.non_units:
            v = r * b % m
            j = label.item(v)
            if j < 0:
                j = len(grown)
                orbit = frozenset(v * u % m for u in units)
                where = np.fromiter(orbit, np.int64, len(orbit))
                label[where] = j
                grown.append(orbit)
                reps.append(v)
                divisors.append({math.gcd(v, m)})
                minima.append(int(where.min()))
            divisors[j].add(d)
    non_units = frozenset().union(*grown[1:])
    order = sorted(range(len(grown)), key=minima.__getitem__)
    return ClosedSet(
        m, grown[0] | non_units, grown[0], non_units,
        tuple(grown[i] for i in order),
        tuple(frozenset(divisors[i]) for i in order),
        tuple(minima[i] for i in order),
    )


def orbits(s: BaseSet, c: ClosedSet) -> list[Orbit]:
    """The orbits closure built, ascending by representative (the minimum
    closure recorded), basic when they meet S, each with the minimal ones of
    the divisors closure recorded for it and the size of the y-set they
    cover.  No product and no minimum is formed here: cost one disjointness
    test and one y-set per orbit."""
    m = s.m
    out = []
    for r, o, ds in zip(c.orbit_minima, c.orbit_sets, c.orbit_divisors):
        gens_d = _minimal_divisors(ds)
        out.append(Orbit(r, o, not o.isdisjoint(s.elements), gens_d, _y_set(m, gens_d).size))
    return out


def _minimal_divisors(divisors: frozenset[int]) -> frozenset[int]:
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


@contextmanager
def shared_analyses():
    """A scope in which analyze decomposes each base once.

    Inside the block, analyze keeps the closure, orbits, order and
    completeness of every base it decomposes and reuses them for any equal
    base, such as R or L of another generator of the same <k>.  On exit,
    also by an exception, the kept decompositions are dropped and the
    enclosing scope (or none) is back in force, so scopes nest.
    """
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def analyze(p: Presentation, s: BaseSet) -> SigmaAnalysis:
    """Full decomposition of the semigroup based on S: closure, orbits and
    the order, the sum of |orbit| * y_set_size.

    The decomposition depends on S alone; inside a shared_analyses() scope
    an equal base decomposed before is not decomposed again, and the result
    still holds the caller's presentation and base.  Outside any scope
    nothing is kept."""
    if s.m != p.m:
        raise InvalidBase(f"base modulus {s.m} does not match presentation modulus {p.m}")
    shared = _shared.get()
    parts = None if shared is None else shared.get(s)
    if parts is None:
        closed = closure(s)
        orbs = tuple(orbits(s, closed))
        total = sum(len(o.elements) * o.y_set_size for o in orbs)
        parts = (closed, orbs, total, all(o.basic for o in orbs))
        if shared is not None:
            shared[s] = parts
    return SigmaAnalysis(p, s, *parts)


def _verify(a: SigmaAnalysis) -> None:
    """Internal consistency: S* must be closed, the orbits must partition
    it, and each orbit's divisors must agree with its basicness.

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
    _, unit_gens = _unit_group(m, a.base.units)
    assert all(u * g % m in c.units for g in unit_gens for u in c.units), "I(S*) must be closed"
    for orb in a.orbits:
        r = orb.representative
        assert orb.elements == {r * u % m for u in c.units}, f"orbit of {r} must be r*I(S*)"
        assert all(r * b % m in c.elements for b in a.base.elements), f"{r}*S must lie in S*"
        assert orb.generators_d, f"orbit {r}: empty witness set"
        # an orbit is basic iff its families are complete
        assert (1 in orb.generators_d) == orb.basic, f"orbit {r}: completeness/basicness mismatch"
        if r in c.units or not orb.elements.isdisjoint(a.base.elements):
            assert orb.basic  # unit orbits and base-meeting orbits are basic
    assert set().union(*(o.elements for o in a.orbits)) == c.elements, "orbits must partition S*"
    assert sum(len(o.elements) for o in a.orbits) == len(c.elements)
    if a.complete:
        assert a.total_order == m * len(c.elements)


def element_codes(a: SigmaAnalysis) -> np.ndarray:
    """The exact element set as codes x*m + y: one strictly increasing int64
    array of length total_order (the bulk-comparison form).

    The y-set is built once per orbit and written at every x of the orbit.
    Each x's block x*m + Y ends at the cumulative sum of the family sizes
    of the residues up to x (0 off S*), so the result comes out sorted.
    Raises CodeBudgetExceeded, before allocating anything, when the order
    is above CODE_LIMIT.
    """
    if a.total_order > CODE_LIMIT:
        raise CodeBudgetExceeded(
            f"{a.total_order} maps exceed the element-code limit {CODE_LIMIT}"
        )
    m = a.presentation.m
    sizes = np.zeros(m, dtype=np.int64)
    for o in a.orbits:
        sizes[np.fromiter(o.elements, np.int64, len(o.elements))] = o.y_set_size
    ends = np.cumsum(sizes).tolist()
    out = np.empty(a.total_order, dtype=np.int64)
    for o in a.orbits:
        ys = _y_set(m, o.generators_d)
        for x in o.elements:
            end = ends[x]
            np.add(ys, x * m, out=out[end - ys.size : end])
    return out


def enumerate_elements(a: SigmaAnalysis) -> list[MuMap]:
    """Every mu-map of the semigroup, deduplicated, sorted by (x, y)."""
    m = a.presentation.m
    return [MuMap(*divmod(code, m)) for code in element_codes(a).tolist()]
