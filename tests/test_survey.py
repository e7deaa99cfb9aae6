import numpy as np
import pytest
from hypothesis import given, settings, strategies

from commsemi import group, sigma, survey
from test_oracle import mu_generators, pair_closure


def per_k_scan(m_lo, m_hi):
    """The scan by definition: for every validated k and both sides, fresh
    bases and sigma.analyze with no scope open, so nothing is shared."""
    out = []
    for m in range(m_lo, m_hi + 1):
        for p in survey.validated_presentations(m):
            for side in sigma.SIDES:
                a = sigma.analyze(p, survey.base_for(p, side))
                reps = tuple(o.representative for o in a.orbits if not o.basic)
                out.append(survey.ScanRecord(m, p.k, p.n, side, reps, a.complete, a.total_order))
    return out


class TestScan:
    def test_nothing_below_63(self):
        records = survey.scan(3, 62)
        assert all(not r.non_basic_reps for r in records)
        assert survey.non_basic_moduli(records) == {}

    def test_g63_scan_record(self):
        records = survey.scan(63, 63)
        rec = next(r for r in records if r.k == 2 and r.side == "right")
        assert rec.n == 6
        assert rec.non_basic_reps == (9, 21, 42)
        assert not rec.complete
        assert rec.order == 1566

    def test_window_around_63(self):
        # 63 = 3^2*7 is the only modulus with non-basic orbits in [60, 70];
        # cross-checked against the pair-closure oracle below
        records = survey.scan(60, 70)
        assert survey.non_basic_moduli(records) == {63: "3^2*7"}

    def test_records_deterministic_and_ordered(self):
        a = survey.scan(3, 40)
        b = survey.scan(3, 40)
        assert a == b
        keys = [(r.m, r.k, 0 if r.side == "right" else 1) for r in a]
        assert keys == sorted(keys)

    def test_parallel_matches_serial(self):
        assert survey.scan(3, 40, jobs=2) == survey.scan(3, 40)

    def test_worker_count_capped(self, monkeypatch):
        # a fake pool records max_workers and maps serially: no process starts
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(survey, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(survey.os, "cpu_count", lambda: 3)
        assert survey.scan(3, 12, jobs=100000) == survey.scan(3, 12)
        assert survey.scan(3, 4, jobs=100000) == survey.scan(3, 4)
        monkeypatch.setattr(survey.os, "cpu_count", lambda: None)
        assert survey.scan(3, 12, jobs=8) == survey.scan(3, 12)
        assert seen == [3, 2]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            survey.scan(10, 5)
        with pytest.raises(ValueError):
            survey.scan(1, 1)

    def test_matches_per_k_reference(self):
        assert survey.scan(3, 200) == per_k_scan(3, 200)

    @settings(max_examples=30, deadline=5000)
    @given(strategies.integers(3, 400))
    def test_one_modulus_matches_per_k_reference(self, m):
        assert survey._scan_one_modulus(m) == per_k_scan(m, m)

    def test_tables_built_once_per_cyclic_subgroup(self, monkeypatch):
        # only the first presentation of each <k> builds power tables; every
        # later generator of <k> finds its bases by k and builds none
        created = []
        validated = survey.validated_presentations

        def recording(m):
            ps = validated(m)
            created.extend(ps)
            return ps

        monkeypatch.setattr(survey, "validated_presentations", recording)
        survey.scan(3, 60)
        subgroups = {}  # (m, <k>) -> [(k, tables built)] in scan order
        for p in created:
            key = (p.m, frozenset(pow(p.k, t, p.m) for t in range(p.n)))
            built = bool(vars(p).keys() & {"k_pow", "k_sub", "c_pow"})
            subgroups.setdefault(key, []).append((p.k, built))
        assert len(created) == 579 and len(subgroups) < len(created)
        for ks in subgroups.values():
            assert [built for _, built in ks] == [True] + [False] * (len(ks) - 1), ks

    def test_orders_agree_with_pair_oracle(self):
        # every recorded order is the cardinality of the raw BFS closure
        for rec in survey.scan(31, 35):
            p = group.validate(rec.m, rec.k)
            base = survey.base_for(p, rec.side)
            assert rec.order == len(pair_closure(p, mu_generators(p, base)))


class TestValidatedPresentations:
    def test_m9(self):
        ks = [p.k for p in survey.validated_presentations(9)]
        assert ks == [2, 5, 8]  # 4 and 7 fail the trivial-centre condition

    def test_prime_m_accepts_all_k(self):
        assert [p.k for p in survey.validated_presentations(11)] == list(range(2, 11))


class TestTheoremSuites:
    def test_prime_m(self):
        report = survey.verify_prime_m(31)
        assert report.ok and report.cases > 0

    def test_prime_m_chain_values(self, g7):
        # the chain is consistent even when the orders differ: G(7,2,6) has
        # |R*| = 7 vs |L*| = 4 and orders 49 vs 28, all four tests False
        report = survey.verify_prime_m(7)
        assert report.ok

    def test_families_decide_map_set_equality(self):
        # verify_prime_m compares the two map sets as their families; on
        # every valid k of every prime <= 97 that agrees with comparing the
        # element codes, and both outcomes occur (G(7,2,6): 49 vs 28 maps)
        outcomes = set()
        for q in survey.primes_up_to(97):
            for p in survey.validated_presentations(q):
                ar = sigma.analyze(p, sigma.right_base(p))
                al = sigma.analyze(p, sigma.left_base(p))
                same = ar.families == al.families
                codes_equal = np.array_equal(sigma.element_codes(ar), sigma.element_codes(al))
                assert same == codes_equal, (q, p.k)
                outcomes.add(same)
        assert outcomes == {True, False}

    def test_divisors_decide_map_set_equality(self):
        # the chain's "map sets equal" link compares each x's minimal divisors
        # read off the orbits; on every valid presentation with m < 100 that
        # agrees with comparing the element codes, and both outcomes occur
        outcomes = set()
        for q in range(3, 100):
            for p in survey.validated_presentations(q):
                ar = sigma.analyze(p, sigma.right_base(p))
                al = sigma.analyze(p, sigma.left_base(p))
                same = survey._divisors_by_x(ar) == survey._divisors_by_x(al)
                codes_equal = np.array_equal(sigma.element_codes(ar), sigma.element_codes(al))
                assert same == codes_equal, (q, p.k)
                outcomes.add(same)
        assert outcomes == {True, False}

    def test_prime_square_m(self):
        report = survey.verify_prime_square_m(7)
        assert report.ok and report.cases > 0

    def test_prime_n(self):
        report = survey.verify_prime_n(80)
        assert report.ok and report.cases > 0

    def test_g63_excluded_from_prime_n(self, g63):
        assert not survey.is_prime(g63.n)


class TestMinimalPrimeIndex:
    def test_g63_indices(self, g63):
        assert survey.minimal_prime_index(g63, 3) == 2
        assert survey.minimal_prime_index(g63, 7) == 3

    def test_not_a_divisor(self, g63):
        with pytest.raises(survey.NotADivisor):
            survey.minimal_prime_index(g63, 5)

    def test_index_divides_n(self):
        for m, k in [(63, 2), (63, 5), (117, 23), (315, 272)]:
            p = group.validate(m, k)
            for q in (d for d in range(2, m + 1) if m % d == 0 and survey.is_prime(d)):
                s = survey.minimal_prime_index(p, q)
                assert p.n % s == 0

    def test_range_report(self):
        report = survey.verify_minimal_prime_index(63)
        assert report.ok and report.cases > 0


class TestHelpers:
    def test_factor_string(self):
        assert survey.factor_string(63) == "3^2*7"
        assert survey.factor_string(125) == "5^3"
        assert survey.factor_string(1) == "1"
        assert survey.factor_string(97) == "97"

    def test_is_prime(self):
        assert [q for q in range(2, 20) if survey.is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert not survey.is_prime(1)
