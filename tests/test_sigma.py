import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies

from commsemi import group, oracle, sigma, survey
from commsemi.mumap import MuMap

# R* of G(63,6,2), fixed by hand from the k_t table and closure arithmetic
R_STAR_63 = [
    0, 1, 3, 4, 6, 7, 9, 12, 15, 16, 18, 21, 24, 27, 28, 30,
    31, 33, 36, 39, 42, 45, 48, 49, 51, 54, 55, 57, 60, 61,
]


class TestBases:
    def test_right_base_values(self, g3, g7, g63):
        assert sorted(sigma.right_base(g3).elements) == [0, 1]
        assert sorted(sigma.right_base(g63).elements) == [0, 1, 3, 7, 15, 31]
        assert sorted(sigma.right_base(g7).elements) == [0, 5]

    def test_left_base_values(self, g3, g7):
        assert sorted(sigma.left_base(g3).elements) == [0, 2]
        assert sorted(sigma.left_base(g7).elements) == [0, 2]

    def test_left_is_negated_right(self, g63):
        r = sigma.right_base(g63).elements
        l = sigma.left_base(g63).elements
        assert l == {(-x) % 63 for x in r}

    def test_make_base_validation(self):
        with pytest.raises(sigma.InvalidBase):
            sigma.make_base(5, [1, 2])  # no zero
        with pytest.raises(sigma.InvalidBase):
            sigma.make_base(6, [0, 2, 3])  # no unit
        with pytest.raises(sigma.InvalidBase):
            sigma.make_base(5, [])
        base = sigma.make_base(5, [0, -1])  # residues reduced on entry
        assert base.elements == {0, 4}
        assert base.units == {4} and base.non_units == {0}

    @given(
        strategies.integers(1, 200),
        strategies.lists(strategies.integers(-500, 500), max_size=12),
    )
    def test_make_base_splits_units(self, m, residues):
        # negative and off-modulus residues included; 0 is always there, so
        # only a list without a unit is refused
        elements = [0, *residues]
        units = {e % m for e in elements if math.gcd(e, m) == 1}
        if not units:
            with pytest.raises(sigma.InvalidBase, match="unit"):
                sigma.make_base(m, elements)
            return
        base = sigma.make_base(m, elements)
        assert base.elements == {e % m for e in elements}
        assert base.units | base.non_units == base.elements
        assert not base.units & base.non_units
        assert base.units == units

    def test_trivial_centre_forces_unit_in_bases(self):
        # validated presentations always have a unit in R and in L; the
        # rejected near-miss (9, 4) would not
        for m, k in [(3, 2), (63, 2), (315, 272)]:
            p = group.validate(m, k)
            assert any(math.gcd(e, m) == 1 for e in sigma.right_base(p).elements)
            assert any(math.gcd(e, m) == 1 for e in sigma.left_base(p).elements)
        near_miss = group.unchecked(9, 4)
        r = {t % 9 for t in near_miss.k_sub[: near_miss.n]}
        assert not any(math.gcd(e, 9) == 1 for e in r)


class TestClosure:
    def test_s3_left(self, g3):
        c = sigma.closure(sigma.left_base(g3))
        assert sorted(c.elements) == [0, 1, 2]

    def test_g63_values(self, g63):
        c = sigma.closure(sigma.right_base(g63))
        assert sorted(c.elements) == R_STAR_63
        assert sorted(c.units) == [1, 4, 16, 31, 55, 61]

    def test_pq_example(self, g7):
        c = sigma.closure(sigma.left_base(g7))
        assert sorted(c.elements) == [0, 1, 2, 4]

    def test_idempotent(self, g63):
        c = sigma.closure(sigma.right_base(g63))
        again = sigma.closure(sigma.make_base(63, c.elements))
        assert again.elements == c.elements

    def test_unit_nonunit_partition(self, g63):
        c = sigma.closure(sigma.right_base(g63))
        assert c.units | c.non_units == c.elements
        assert not (c.units & c.non_units)
        assert 1 in c.units


class TestOrbits:
    def test_g63_non_basic_orbits(self, g63):
        s = sigma.right_base(g63)
        orbs = sigma.orbits(s, sigma.closure(s))
        non_basic = [o for o in orbs if not o.basic]
        assert [o.representative for o in non_basic] == [9, 21, 42]
        by_rep = {o.representative: o for o in orbs}
        assert sorted(by_rep[9].elements) == [9, 18, 27, 36, 45, 54]
        assert by_rep[21].elements == {21}
        assert by_rep[42].elements == {42}

    def test_s3_left_orbit_of_one(self, g3):
        s = sigma.left_base(g3)
        orbs = sigma.orbits(s, sigma.closure(s))
        by_rep = {o.representative: o for o in orbs}
        assert by_rep[1].elements == {1, 2}
        assert by_rep[1].basic  # meets L at 2

    def test_partition(self, g63):
        for side in (sigma.right_base(g63), sigma.left_base(g63)):
            c = sigma.closure(side)
            orbs = sigma.orbits(side, c)
            seen = set()
            for o in orbs:
                assert not (o.elements & seen)
                assert o.representative == min(o.elements)
                seen |= o.elements
            assert seen == c.elements

    def test_unit_orbits_are_basic(self, g63):
        s = sigma.right_base(g63)
        c = sigma.closure(s)
        for o in sigma.orbits(s, c):
            if o.elements & c.units:
                assert o.basic

    def test_partition_at_315(self):
        # the largest fixture: orbits still partition S* on both sides
        p = group.validate(315, 272)
        for base in (sigma.right_base(p), sigma.left_base(p)):
            c = sigma.closure(base)
            orbs = sigma.orbits(base, c)
            seen: set[int] = set()
            for o in orbs:
                assert not (o.elements & seen)
                seen |= o.elements
            assert seen == c.elements


def families_of(p, base):
    return {f.x: f for f in sigma.analyze(p, base).families}


class TestFamily:
    def test_nine_family(self, g63):
        f = families_of(g63, sigma.right_base(g63))[9]
        assert sorted(f.generators_d) == [3]
        assert f.y_set_size == 21
        assert not f.complete

    def test_twentyone_family(self, g63):
        f = families_of(g63, sigma.right_base(g63))[21]
        assert sorted(f.generators_d) == [3, 7]
        assert f.y_set_size == 21 + 9 - 3

    def test_fortytwo_family(self, g63):
        # 15 * 7 = 42 (mod 63) with 15 in R and 7 in R*, so C(42; 7) joins
        # C(42; 3); size matches the x = 21 family.  (Cross-checked against
        # both brute-force oracles in the oracle suite.)
        f = families_of(g63, sigma.right_base(g63))[42]
        assert sorted(f.generators_d) == [3, 7]
        assert f.y_set_size == 27

    def test_basic_x_family_is_maximal_container(self, g63):
        f = families_of(g63, sigma.right_base(g63))[1]
        assert f.complete
        assert sorted(f.generators_d) == [1]
        assert f.y_set_size == 63

    def test_x_outside_closure_rejected(self, g63):
        s = sigma.right_base(g63)
        assert 2 not in sigma.closure(s).elements
        assert 2 not in families_of(g63, s)

    def test_family_size_matches_triple_enumeration(self, g5):
        # brute Y(x): all distinct s*.z over witnesses, tiny groups only
        for base in (sigma.right_base(g5), sigma.make_base(5, [0, 4])):
            c = sigma.closure(base)
            fams = families_of(g5, base)
            assert set(fams) == c.elements
            for x in c.elements:
                ys = {
                    st * z % 5
                    for st in c.elements
                    for s in base.elements
                    if s * st % 5 == x
                    for z in range(5)
                }
                assert fams[x].y_set_size == len(ys)

    def test_family_size_matches_triple_enumeration_63(self, g63):
        base = sigma.right_base(g63)
        c = sigma.closure(base)
        fams = families_of(g63, base)
        assert set(fams) == c.elements
        for x in sorted(c.elements):
            witnesses = {st for st in c.elements for b in base.elements if b * st % 63 == x}
            ys = {st * z % 63 for st in witnesses for z in range(63)}
            assert fams[x].y_set_size == len(ys), x


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def test_family_codes_match_definition():
    # every m <= 60, every set of at most three divisors of m
    for m in range(1, 61):
        for r in range(4):
            for ds in itertools.combinations(_divisors(m), r):
                ys = sigma._y_set(m, frozenset(ds))
                want = [w for w in range(m) if any(w % d == 0 for d in ds)]
                assert ys.dtype == np.int64 and ys.tolist() == want, (m, ds)


class TestAnalyze:
    def test_s3_orders(self, g3):
        ar = sigma.analyze(g3, sigma.right_base(g3))
        al = sigma.analyze(g3, sigma.left_base(g3))
        sigma._verify(ar)
        sigma._verify(al)
        assert ar.total_order == 6
        assert al.total_order == 9
        assert ar.complete and al.complete

    def test_custom_base_example(self, g5):
        a = sigma.analyze(g5, sigma.make_base(5, [0, 4]))
        sigma._verify(a)
        assert sorted(a.closure.elements) == [0, 1, 4]
        assert a.complete
        assert a.total_order == 15

    def test_g63_order_from_families(self, g63):
        # 22 basic elements contribute 63 each; the six-element orbit of 9
        # contributes 6*21 and the singleton orbits 27 each: 1566.  This
        # value is pinned by the pair and table oracles (test_oracle).
        a = sigma.analyze(g63, sigma.right_base(g63))
        sigma._verify(a)
        assert len(a.closure.elements) == 30
        assert not a.complete
        assert a.total_order == 22 * 63 + 6 * 21 + 27 + 27 == 1566

    def test_complete_case_order_formula(self, g7):
        for base in (sigma.right_base(g7), sigma.left_base(g7)):
            a = sigma.analyze(g7, base)
            sigma._verify(a)
            assert a.complete
            assert a.total_order == 7 * len(a.closure.elements)
        assert sigma.analyze(g7, sigma.right_base(g7)).total_order == 49
        assert sigma.analyze(g7, sigma.left_base(g7)).total_order == 28

    def test_completeness_iff_all_orbits_basic(self, g63):
        for side in (sigma.right_base(g63), sigma.left_base(g63)):
            a = sigma.analyze(g63, side)
            sigma._verify(a)
            assert a.complete == all(o.basic for o in a.orbits)
            for f, x in zip(a.families, sorted(a.closure.elements)):
                assert f.x == x

    def test_base_modulus_mismatch(self, g63):
        with pytest.raises(sigma.InvalidBase):
            sigma.analyze(g63, sigma.make_base(5, [0, 4]))


class TestSharedAnalyses:
    """G(63,6,2) and G(63,6,32) present one group: 32 = 2^5 generates <2>,
    so both have the same R and the same L."""

    @pytest.fixture
    def closures(self, monkeypatch):
        calls = []
        real = sigma.closure

        def counting(s):
            calls.append(s)
            return real(s)

        monkeypatch.setattr(sigma, "closure", counting)
        return calls

    @pytest.fixture
    def pair(self):
        p, q = group.validate(63, 2), group.validate(63, 32)
        assert p.n == q.n == 6 and sigma.right_base(p) == sigma.right_base(q)
        return p, q

    @staticmethod
    def right_sides(pair):
        return [sigma.analyze(p, sigma.right_base(p)) for p in pair]

    def test_one_closure_per_base_inside_a_scope(self, closures, pair):
        with sigma.shared_analyses():
            self.right_sides(pair)
        assert len(closures) == 1

    def test_every_call_computes_outside_a_scope(self, closures, pair):
        self.right_sides(pair)
        assert len(closures) == 2

    def test_nothing_kept_after_the_block(self, closures, pair):
        with sigma.shared_analyses():
            self.right_sides(pair)
        self.right_sides(pair)
        assert len(closures) == 3
        with pytest.raises(RuntimeError):
            with sigma.shared_analyses():
                self.right_sides(pair)
                raise RuntimeError("leave the block")
        assert len(closures) == 4
        self.right_sides(pair)
        assert len(closures) == 6

    def test_nested_scope_restores_the_outer_one(self, closures, pair):
        p, q = pair
        with sigma.shared_analyses():
            sigma.analyze(p, sigma.right_base(p))
            with sigma.shared_analyses():
                sigma.analyze(q, sigma.right_base(q))  # the inner scope starts empty
                sigma.analyze(p, sigma.right_base(p))
            assert len(closures) == 2
            sigma.analyze(q, sigma.right_base(q))  # the outer scope's decomposition
            sigma.analyze(q, sigma.left_base(q))
        assert len(closures) == 3

    def test_shared_analyses_equal_unscoped_ones(self, pair):
        with sigma.shared_analyses():
            shared = [sigma.analyze(p, survey.base_for(p, side)) for side in sigma.SIDES for p in pair]
        alone = [sigma.analyze(p, survey.base_for(p, side)) for side in sigma.SIDES for p in pair]
        for a, b, p in zip(shared, alone, pair * 2):
            assert a.presentation is p
            for f in dataclasses.fields(sigma.SigmaAnalysis):
                assert getattr(a, f.name) == getattr(b, f.name), f.name


class TestEnumerate:
    def test_s3_right_listing(self, g3):
        a = sigma.analyze(g3, sigma.right_base(g3))
        assert sigma.enumerate_elements(a) == [
            MuMap(0, 0), MuMap(0, 1), MuMap(0, 2),
            MuMap(1, 0), MuMap(1, 1), MuMap(1, 2),
        ]

    def test_s3_left_listing(self, g3):
        a = sigma.analyze(g3, sigma.left_base(g3))
        assert sigma.enumerate_elements(a) == [
            MuMap(x, y) for x in range(3) for y in range(3)
        ]

    def test_length_is_total_order(self, g63):
        for base in (sigma.right_base(g63), sigma.left_base(g63)):
            a = sigma.analyze(g63, base)
            elems = sigma.enumerate_elements(a)
            assert len(elems) == a.total_order
            assert len(set(elems)) == len(elems)
            assert elems == sorted(elems)

    def test_codes_match_elements(self, g63):
        a = sigma.analyze(g63, sigma.right_base(g63))
        codes = sigma.element_codes(a)
        assert [MuMap(*divmod(c, 63)) for c in codes] == sigma.enumerate_elements(a)

    def test_elements_hold_python_ints(self, g63):
        for base in (sigma.right_base(g63), sigma.left_base(g63)):
            for mu in sigma.enumerate_elements(sigma.analyze(g63, base)):
                assert type(mu.x) is int and type(mu.y) is int

    def test_codes_are_one_sorted_int64_array(self):
        # the element-set format every caller compares: strictly increasing
        # int64 codes, one per element, on every valid (m, k) with m < 100
        cases = 0
        for m in range(3, 100):
            for p in survey.validated_presentations(m):
                for side in sigma.SIDES:
                    a = sigma.analyze(p, survey.base_for(p, side))
                    codes = sigma.element_codes(a)
                    assert isinstance(codes, np.ndarray) and codes.dtype == np.int64
                    assert codes.shape == (a.total_order,), (m, p.k, side)
                    assert (np.diff(codes) > 0).all(), (m, p.k, side)
                    cases += 1
        assert cases == 3146

    def test_code_budget_one_below_and_one_above(self, monkeypatch, g63):
        # G(63,6,2) right holds 1566 maps: listed under a budget one above
        # that order or equal to it, refused under one below it
        a = sigma.analyze(g63, sigma.right_base(g63))
        want = sigma.element_codes(a)
        for limit in (a.total_order + 1, a.total_order):
            monkeypatch.setattr(sigma, "CODE_LIMIT", limit)
            assert np.array_equal(sigma.element_codes(a), want)
        monkeypatch.setattr(sigma, "CODE_LIMIT", a.total_order - 1)
        with pytest.raises(sigma.CodeBudgetExceeded, match=str(a.total_order - 1)):
            sigma.element_codes(a)

    def test_code_budget_refuses_before_allocating(self, monkeypatch):
        # G(100003,100002,2) right has m*m = 10^10 maps, 74.5 GiB of codes
        p = group.validate(100003, 2)
        a = sigma.analyze(p, sigma.right_base(p))
        assert a.total_order == 100003 * 100003
        monkeypatch.setattr(sigma, "_y_set", None)  # the refusal comes first
        with pytest.raises(sigma.CodeBudgetExceeded, match=str(sigma.CODE_LIMIT)):
            sigma.element_codes(a)

    def test_code_budget_covers_the_pair_oracle(self):
        assert sigma.CODE_LIMIT >= oracle.PAIR_MASK_LIMIT


# ---------------------------------------------------------------------------
# the definition-level reference: the quadratic route the orbit engine
# replaced, a frontier BFS over S* x S for the closure, every orbit
# multiplied out from its least element, and one pass over S x S* for the
# witness divisors of every x


def reference_closure(s):
    """S* with its orbits, and the divisors of D(x) for every x, from one
    pass over S x S*; each orbit takes the divisors of its least element."""
    m = s.m
    cur = set(s.elements)
    frontier = list(cur)
    while frontier:
        fresh = []
        for a in frontier:
            for g in s.elements:
                v = a * g % m
                if v not in cur:
                    cur.add(v)
                    fresh.append(v)
        frontier = fresh
    divisors = {x: set() for x in cur}
    for b in s.elements:
        for st in cur:
            divisors[b * st % m].add(math.gcd(st, m))
    units = frozenset(u for u in cur if math.gcd(u, m) == 1)
    orbit_sets, orbit_divisors, orbit_minima, seen = [], [], [], set()
    for x in sorted(cur):
        if x not in seen:
            orb = frozenset(x * u % m for u in units)
            seen |= orb
            orbit_sets.append(orb)
            orbit_divisors.append(frozenset(divisors[x]))
            orbit_minima.append(x)
    closed = sigma.ClosedSet(
        m, frozenset(cur), units, frozenset(cur - units),
        tuple(orbit_sets), tuple(orbit_divisors), tuple(orbit_minima),
    )
    return closed, divisors


def reference_analyze(p, s):
    """The analysis and its per-x families, every family from its own
    witnesses; each orbit takes the family of its least element."""
    m = p.m
    closed, divisors = reference_closure(s)
    families = {}
    for x in sorted(closed.elements):
        gens_d = sigma._minimal_divisors(divisors[x])
        size = sigma._y_set(m, gens_d).size
        families[x] = sigma.Family(x, gens_d, size, 1 in gens_d)
    orbs = []
    for o in closed.orbit_sets:
        f = families[min(o)]
        basic = not o.isdisjoint(s.elements)
        orbs.append(sigma.Orbit(min(o), o, basic, f.generators_d, f.y_set_size))
    analysis = sigma.SigmaAnalysis(
        p, s, closed, tuple(orbs),
        sum(f.y_set_size for f in families.values()), all(o.basic for o in orbs),
    )
    return analysis, tuple(families.values())


def assert_matches_reference(p, base, label):
    a = sigma.analyze(p, base)
    sigma._verify(a)
    ref, families = reference_analyze(p, base)
    assert a == ref, label
    assert a.families == families, label


def _random_bases(rng, m, count):
    """Bases holding 0, one unit and a random handful of other residues."""
    units = [u for u in range(m) if math.gcd(u, m) == 1]
    for _ in range(count):
        extra = rng.sample(range(m), rng.randint(0, min(m, 6)))
        yield sigma.make_base(m, [0, rng.choice(units), *extra])


def coset_by_coset_unit_group(m, gens):
    """<gens> by Dimino's extension one coset at a time: each g not yet in
    H appends gH, then g^2H, ..., until the next power of g is a member."""
    elements, members, enlarging = [1 % m], {1 % m}, []
    for g in gens:
        if g in members:
            continue
        enlarging.append(g)
        h = elements[:]
        rep = g
        while rep not in members:
            coset = [rep * e % m for e in h]
            elements.extend(coset)
            members.update(coset)
            rep = rep * g % m
    return elements, enlarging


class TestOrbitEngine:
    def test_matches_reference_on_every_small_group(self):
        cases = 0
        for m in range(3, 100):
            for p in survey.validated_presentations(m):
                for side in sigma.SIDES:
                    assert_matches_reference(p, survey.base_for(p, side), (m, p.k, side))
                    cases += 1
        assert cases == 3146

    def test_matches_reference_on_random_bases(self):
        rng = random.Random(20240611)
        cases = 0
        for m in range(3, 61):
            p = group.unchecked(m, m - 1)
            for base in _random_bases(rng, m, 8):
                assert_matches_reference(p, base, (m, sorted(base.elements)))
                cases += 1
        assert cases == 58 * 8

    def test_units_are_the_generated_group(self):
        # closure(s).units against the brute-force multiplicative closure of
        # the units of S for every m <= 150: on {0, 1} (S & units = {1}), on
        # three random unit subsets, and on R and L of every presentation of m
        def brute_units(s):
            gens = [e for e in s.elements if math.gcd(e, s.m) == 1]
            group_ = set(gens)
            frontier = list(gens)
            while frontier:
                fresh = [u * g % s.m for u in frontier for g in gens]
                frontier = [v for v in set(fresh) if v not in group_]
                group_.update(frontier)
            return frozenset(group_)

        rng = random.Random(150)
        trivial = 0
        for m in range(3, 151):
            bases = [sigma.make_base(m, [0, 1])]
            units = [u for u in range(2, m) if math.gcd(u, m) == 1]
            non_units = [e for e in range(m) if math.gcd(e, m) != 1]
            for _ in range(3):
                picked = rng.sample(units, rng.randint(0, min(len(units), 4)))
                bases.append(sigma.make_base(m, [0, 1, *picked, *rng.sample(non_units, 1)]))
            for p in survey.validated_presentations(m):
                bases += [sigma.right_base(p), sigma.left_base(p)]
            for base in bases:
                units_of_s = {e for e in base.elements if math.gcd(e, m) == 1}
                trivial += units_of_s == {1}
                assert sigma.closure(base).units == brute_units(base), (m, sorted(base.elements))
        assert trivial >= 148

    def test_unit_group_by_coset_extension(self):
        # 2 has order 6 mod 21 and 4 = 2^2 adds nothing; 5 lies outside <2>,
        # and <2, 5> is all 12 units of Z_21
        elements, enlarging = sigma._unit_group(21, [2, 4, 5])
        assert sorted(elements) == [u for u in range(21) if math.gcd(u, 21) == 1]
        assert len(elements) == len(set(elements))
        assert enlarging == [2, 5]
        assert sigma._unit_group(21, []) == ([1], [])

    def test_unit_group_matches_coset_by_coset_extension(self):
        # the walk-then-write extension lists the same products in the same
        # order as appending one coset g^i H at a time, on the units of
        # every right and left base with m <= 60
        cases = enlarged = 0
        for m in range(3, 61):
            for p in survey.validated_presentations(m):
                for base in (sigma.right_base(p), sigma.left_base(p)):
                    gens = list(base.units)
                    got = sigma._unit_group(m, gens)
                    assert got == coset_by_coset_unit_group(m, gens), (m, p.k, gens)
                    cases += 1
                    enlarged += len(got[1]) > 1
        assert cases == 1158 and enlarged > 0

    def test_analysis_is_hashable_and_frozen(self, g63):
        a = sigma.analyze(g63, sigma.right_base(g63))
        assert isinstance(a.orbits, tuple)
        assert hash(a) == hash(sigma.analyze(g63, sigma.right_base(g63)))
        with pytest.raises(AttributeError):
            a.orbits.append(a.orbits[0])

    def test_prime_8009_at_scale(self):
        p = group.validate(8009, 3)
        assert p.n == 8008
        for base in (sigma.right_base(p), sigma.left_base(p)):
            a = sigma.analyze(p, base)
            assert a.complete
            assert len(a.closure.elements) == 8009
            assert len(a.orbits) == 2
            assert a.total_order == 8009**2 == 64144081


class TestVerify:
    def test_verify_rejects_an_unclosed_closure(self, g63):
        # drop the non-basic orbit of 21: the rest still partitions, but
        # 21 = 3 * 7 leaves S* and verify must say so
        a = sigma.analyze(g63, sigma.right_base(g63))
        c = a.closure
        kept = [i for i, o in enumerate(c.orbit_sets) if 21 not in o]
        closed = sigma.ClosedSet(
            63, c.elements - {21}, c.units, c.non_units - {21},
            tuple(c.orbit_sets[i] for i in kept), tuple(c.orbit_divisors[i] for i in kept),
            tuple(c.orbit_minima[i] for i in kept),
        )
        broken = dataclasses.replace(
            a,
            closure=closed,
            orbits=tuple(o for o in a.orbits if o.representative != 21),
        )
        with pytest.raises(AssertionError, match=r"\d\*S must lie in S\*"):
            sigma._verify(broken)

    def test_verify_rejects_units_missing_a_generator_power(self, g63):
        # 4 = 31^3 is in I(R*) of G(63,6,2), generated by 31 in R; take 4
        # out of the units and out of its orbit
        a = sigma.analyze(g63, sigma.right_base(g63))
        c = a.closure
        closed = sigma.ClosedSet(
            63, c.elements - {4}, c.units - {4}, c.non_units,
            tuple(o - {4} for o in c.orbit_sets), c.orbit_divisors, c.orbit_minima,
        )
        orbits = tuple(dataclasses.replace(o, elements=o.elements - {4}) for o in a.orbits)
        broken = dataclasses.replace(a, closure=closed, orbits=orbits)
        with pytest.raises(AssertionError, match=r"I\(S\*\) must be closed"):
            sigma._verify(broken)

    @pytest.mark.parametrize(
        "divisors, message",
        [({1}, "completeness/basicness mismatch"), (set(), "empty witness set")],
    )
    def test_verify_rejects_divisors_off_basicness(self, g63, divisors, message):
        # the orbit of 9 in R* of G(63,6,2) is non-basic with divisors {3}:
        # {1} would make its families complete, and no divisor at all would
        # leave them without a witness
        a = sigma.analyze(g63, sigma.right_base(g63))
        orbits = tuple(
            dataclasses.replace(o, generators_d=frozenset(divisors)) if o.representative == 9 else o
            for o in a.orbits
        )
        assert not next(o for o in a.orbits if o.representative == 9).basic
        with pytest.raises(AssertionError, match=message):
            sigma._verify(dataclasses.replace(a, orbits=orbits))
