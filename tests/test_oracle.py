import random

import numpy as np
import pytest

from commsemi import group, mumap, oracle, sigma, survey
from commsemi.mumap import MuMap
from commsemi.sigma import left_base, make_base, right_base


def mu_generators(p, s):
    """The generator set {mu(s, z) : s in S, z in Z_m}."""
    return [MuMap(b, z) for b in sorted(s.elements) for z in range(p.m)]


def rho_generators(p):
    return [mumap.rho_of(p, g) for g in p.elements()]


def lambda_generators(p):
    return [mumap.lambda_of(p, g) for g in p.elements()]


def pair_closure(p, generators):
    """Reference pair closure: MuMap objects, the composition law only.

    Worklist BFS composing on the right with one generator per distinct x
    (the composition law never reads the partner's y).
    """
    gens = set(generators)
    partners = [MuMap(x, 0) for x in sorted({g.x for g in gens})]
    result = set(gens)
    frontier = list(gens)
    while frontier:
        fresh = []
        for f in frontier:
            for g in partners:
                h = mumap.compose(p, f, g)
                if h not in result:
                    result.add(h)
                    fresh.append(h)
        frontier = fresh
    return frozenset(result)


def scalar_tables(p, side):
    """Commutation tables straight from the scalar commutator definition."""
    els = p.elements()
    out = []
    for h in els:
        if side == "right":
            out.append(tuple(group.commutator_direct(p, x, h) for x in els))
        else:
            out.append(tuple(group.commutator_direct(p, h, x) for x in els))
    return out


class TestPairClosure:
    def test_s3_sizes(self, g3):
        assert len(pair_closure(g3, rho_generators(g3))) == 6
        assert len(pair_closure(g3, lambda_generators(g3))) == 9

    def test_pq_sizes(self, g7):
        assert len(pair_closure(g7, rho_generators(g7))) == 49
        assert len(pair_closure(g7, lambda_generators(g7))) == 28

    def test_g5_sizes(self, g5):
        assert len(pair_closure(g5, rho_generators(g5))) == 25
        assert len(pair_closure(g5, lambda_generators(g5))) == 25

    def test_g63_closure_size(self, g63):
        # the container engine, this BFS, and the raw table closure all
        # give 1566 for P(G(63,6,2))
        assert len(pair_closure(g63, rho_generators(g63))) == 1566

    def test_generator_order_independence(self, g63):
        gens = rho_generators(g63)
        shuffled = gens[:]
        random.Random(3).shuffle(shuffled)
        assert pair_closure(g63, gens) == pair_closure(g63, shuffled)

    def test_codes_path_matches_object_path(self, g63):
        for base in (right_base(g63), left_base(g63)):
            via_objects = pair_closure(g63, mu_generators(g63, base))
            via_codes = oracle.pair_closure_codes(g63, oracle.mu_generator_codes(g63, base))
            assert sorted(m.x * 63 + m.y for m in via_objects) == via_codes.tolist()

    @pytest.mark.parametrize("mk,elements", [((5, 3), [0, 4]), ((21, 2), [0, 2, 9]), ((9, 2), [0, 3, 4])])
    def test_codes_path_matches_object_path_custom_bases(self, mk, elements):
        p = group.validate(*mk)
        base = make_base(p.m, elements)
        via_objects = pair_closure(p, mu_generators(p, base))
        via_codes = oracle.pair_closure_codes(p, oracle.mu_generator_codes(p, base))
        assert sorted(f.x * p.m + f.y for f in via_objects) == via_codes.tolist()

    def test_rho_generators_are_gamma_of_right_base(self, g63):
        # {rho(g)} and {mu(s, z) : s in R} generate from the same set
        assert set(rho_generators(g63)) == set(
            mu_generators(g63, right_base(g63))
        )

    def test_closure_contains_generators_and_is_closed(self, g5):
        gens = rho_generators(g5)
        result = pair_closure(g5, gens)
        assert set(gens) <= result
        for f in result:
            for g in gens:
                assert mumap.compose(g5, f, g) in result


class TestTableClosure:
    @pytest.mark.parametrize(
        "mk,side,expected",
        [
            ((3, 2), "right", 6),
            ((3, 2), "left", 9),
            ((7, 6), "right", 49),
            ((7, 6), "left", 28),
            ((5, 3), "right", 25),
            ((5, 3), "left", 25),
            ((63, 2), "right", 1566),
        ],
    )
    def test_sizes(self, mk, side, expected):
        p = group.validate(*mk)
        assert len(oracle.table_closure(p, side)) == expected

    def test_cap(self, g63):
        with pytest.raises(oracle.CapExceeded):
            oracle.table_closure(g63, "right", cap=100)

    @pytest.mark.parametrize("fixture", ["g3", "g5", "g7", "g63"])
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_generator_build_matches_scalar_commutators(self, fixture, side, request):
        p = request.getfixturevalue(fixture)
        gens, _ = oracle._generator_tables(p, side)
        want = scalar_tables(p, side)
        n = p.n
        for h_idx, col in enumerate(want):
            assert all(e.j == 0 for e in col)
            assert gens[h_idx].tolist() == [e.i for e in col]

    def test_closure_closed_under_composition(self, g3):
        tables = oracle.table_closure(g3, "left")
        assert tables.shape == (9, 6) and tables.dtype == np.uint16
        by_data = {t.tobytes() for t in tables}
        assert len(by_data) == len(tables)
        for t1 in tables:
            for t2 in tables:
                comp = t2[:: g3.n][t1.astype(np.int64)]
                assert comp.tobytes() in by_data

    def test_tables_correspond_to_pair_closure(self, g7):
        for side, base in (("right", right_base(g7)), ("left", left_base(g7))):
            pairs = pair_closure(g7, mu_generators(g7, base))
            codes = [mu.x * g7.m + mu.y for mu in pairs]
            translated = {t.tobytes() for t in oracle._mu_tables(g7, codes)}
            tables = {t.tobytes() for t in oracle.table_closure(g7, side)}
            assert translated == tables

    def test_mu_tables_match_apply(self, g7):
        codes = np.arange(7 * 7)
        rows = oracle._mu_tables(g7, codes)
        assert rows.shape == (49, 7 * g7.n) and rows.dtype == np.uint16
        for code, row in zip(codes.tolist(), rows):
            mu = MuMap(*divmod(code, 7))
            assert row.tolist() == [mumap.apply(g7, mu, g).i for g in g7.elements()]


KERNEL_GROUPS = [(7, 3), (9, 2), (21, 2), (25, 7), (63, 2)]  # G(7,6,3) ... G(63,6,2)


def fingerprints_of_rows(p, rows):
    """The fingerprint definition: both weight dot products of every table,
    folded to one word, deduplicated."""
    w = oracle._fp_weights(p.m * p.n, oracle._FP_SEED)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, p.m * p.n)
    return np.unique(oracle._combine64(rows @ w[0], rows @ w[1]))


class TestFingerprints:
    def test_matches_exact_closure(self):
        for mk in KERNEL_GROUPS:
            p = group.validate(*mk)
            for side in sigma.SIDES:
                fp = oracle.table_fingerprints(p, side)
                want = fingerprints_of_rows(p, oracle.table_closure(p, side))
                assert np.array_equal(fp, want), (mk, side)

    @pytest.mark.parametrize("mk", KERNEL_GROUPS)
    @pytest.mark.parametrize("side", sigma.SIDES)
    def test_mu_fingerprints_match_definition(self, mk, side):
        p = group.validate(*mk)
        codes = np.asarray(sigma.element_codes(sigma.analyze(p, survey.base_for(p, side))))
        one_x = codes[codes // p.m == codes[-1] // p.m]
        for subset in (codes, codes[:0], one_x, one_x[:1], codes[::5]):
            want = fingerprints_of_rows(p, oracle._mu_tables(p, subset))
            got = oracle.mu_table_fingerprints(p, subset)
            assert got.dtype == np.uint64 and np.array_equal(got, want)

    @pytest.mark.parametrize("entries", [1, 1000])
    def test_block_size_does_not_change_results(self, monkeypatch, entries):
        # G(21,6,2) has 126 elements: a 1000-entry grid splits every kernel
        # into several blocks with a ragged last one, and 1 makes every block
        # a single row or x
        p = group.validate(21, 2)
        codes = np.asarray(sigma.element_codes(sigma.analyze(p, right_base(p))))

        def run():
            oracle._fingerprint_build.cache_clear()
            return (
                [oracle.table_fingerprints(p, side) for side in sigma.SIDES]
                + [oracle.table_closure(p, side) for side in sigma.SIDES]
                + [oracle._mu_tables(p, codes), oracle.mu_table_fingerprints(p, codes)]
            )

        want = run()
        monkeypatch.setattr(oracle, "_GRID_ENTRIES", entries)
        got = run()
        oracle._fingerprint_build.cache_clear()
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_sorted_unique_matches_np_unique(self):
        rng = np.random.default_rng(7)
        top = np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1, 2**63], dtype=np.uint64)
        arrays = [
            np.array([], dtype=np.int64),
            np.array([], dtype=np.uint64),
            np.array([5], dtype=np.int64),
            rng.integers(-50, 50, size=1000),
            rng.integers(-(2**63), 2**63 - 1, size=1000, dtype=np.int64),
            rng.integers(0, 2**64 - 1, size=1000, dtype=np.uint64),
            np.concatenate([top, rng.integers(2**63, 2**64 - 1, size=500, dtype=np.uint64)] * 2),
            rng.integers(0, 30, size=(20, 20)),
        ]
        for a in arrays:
            got, want = oracle._sorted_unique(a), np.unique(a)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_translation_side_matches(self, g63):
        for side, base in (("right", right_base(g63)), ("left", left_base(g63))):
            a = sigma.analyze(g63, base)
            codes = np.asarray(sigma.element_codes(a), dtype=np.int64)
            mfp = oracle.mu_table_fingerprints(g63, codes)
            assert mfp.size == codes.size  # distinct pairs gave distinct tables
            assert np.array_equal(mfp, oracle.table_fingerprints(g63, side))

    def test_deterministic(self, g7):
        a = oracle.table_fingerprints(g7, "right")
        b = oracle.table_fingerprints(g7, "right")
        assert np.array_equal(a, b)

    def test_cap(self, g63):
        with pytest.raises(oracle.CapExceeded):
            oracle.table_fingerprints(g63, "right", cap=10)


class TestDifferentialCheck:
    def test_g63_values(self, g63):
        rep = oracle.differential_check(g63, right_base(g63))
        assert rep.agree and rep.pair_agree and rep.table_agree
        assert rep.engine_order == rep.pair_order == rep.table_order == 1566
        assert rep.base_label == "right"
        assert rep.table_status == "ok"
        assert rep.witness is None

    def test_s3_left(self, g3):
        rep = oracle.differential_check(g3, left_base(g3))
        assert rep.agree
        assert rep.engine_order == 9

    def test_custom_base(self, g5):
        rep = oracle.differential_check(g5, make_base(5, [0, 4]))
        assert rep.agree
        assert rep.engine_order == rep.pair_order == 15
        assert rep.base_label == "custom"
        assert rep.table_status == "not_applicable"
        assert rep.table_order is None

    def test_cap_exceeded_still_runs_pair(self, g63):
        rep = oracle.differential_check(g63, right_base(g63), cap=100)
        assert rep.table_status == "cap_exceeded"
        assert rep.pair_agree
        assert rep.agree  # pair route agreed; table was skipped, not failed

    @pytest.mark.parametrize("mk", [(9, 2), (11, 7), (15, 2), (21, 2), (25, 7)])
    def test_small_groups_agree_both_sides(self, mk):
        p = group.validate(*mk)
        for base in (right_base(p), left_base(p)):
            rep = oracle.differential_check(p, base)
            assert rep.agree, rep

    @pytest.mark.parametrize("mk", [(9, 2), (25, 7)])
    def test_table_row_that_is_no_mu_map(self, monkeypatch, mk):
        # a closure row whose images of a and b match an engine map but
        # which differs elsewhere is caught, and named by those images
        p = group.validate(*mk)
        closure = oracle.table_closure

        def corrupted(*a, **kw):
            t = closure(*a, **kw).copy()
            t[-1, -1] = (t[-1, -1] + 1) % p.m
            return t

        rows = closure(p, "right")
        code = int(rows[-1, p.n]) * p.m + (-int(rows[-1, 1]) * pow(p.k - 1, -1, p.m)) % p.m
        monkeypatch.setattr(oracle, "table_closure", corrupted)
        rep = oracle.differential_check(p, right_base(p))
        assert rep.pair_agree and rep.table_order == len(rows)
        assert rep.table_agree is False and not rep.agree
        assert rep.witness == MuMap(*divmod(code, p.m))

    @pytest.mark.parametrize("mk", [(63, 2), (9, 2), (25, 7)])
    @pytest.mark.parametrize("side", sigma.SIDES)
    @pytest.mark.parametrize("holder", ["engine", "tables"])
    def test_table_witness_from_either_side(self, monkeypatch, mk, side, holder):
        # make one map extra on one side of the table comparison only; the
        # witness must name it whichever side holds it
        p = group.validate(*mk)
        base = survey.base_for(p, side)
        codes = sigma.element_codes(sigma.analyze(p, base))
        extra = codes[-1]
        if holder == "engine":
            row = oracle._mu_tables(p, [extra])[0]
            closure = oracle.table_closure
            monkeypatch.setattr(
                oracle, "table_closure",
                lambda *a, **kw: (t := closure(*a, **kw))[(t != row).any(axis=1)],
            )
        else:
            element_codes, pair_codes = sigma.element_codes, oracle.pair_closure_codes
            monkeypatch.setattr(
                sigma, "element_codes", lambda a: [c for c in element_codes(a) if c != extra]
            )
            monkeypatch.setattr(
                oracle, "pair_closure_codes", lambda *a: (c := pair_codes(*a))[c != extra]
            )
        rep = oracle.differential_check(p, base)
        assert rep.pair_agree
        assert rep.table_agree is False and not rep.agree
        assert rep.witness == MuMap(*divmod(extra, p.m))
