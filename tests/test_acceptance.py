"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Criteria 2, 5 and 6 were first written against reference values that the
definitions refute: |P(G(63,6,2))| = 1770 with a 21-element 42-family, the
non-basic moduli up to 125 listed as {63, 75, 81, 99, 117, 125}, and
non-basic orbits of 225 in L* of G(315,12,272) and of 130 in R* of
G(135,12,62).  These tests assert the verified values instead, and each
pins its value with a brute-force oracle run inside the test, outside any
timed region: the table closure of raw commutator tables (criterion 2) or
the pair closure under the composition law (criteria 5 and 6).  Their
announce lines print the verified value next to the stated one it
replaces.  The oracle-equivalence and theorem suites (criteria 7 and 8)
remain the broad correctness gates.
"""

import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from commsemi import group, oracle, sigma, survey
from commsemi.mumap import MuMap


@pytest.fixture
def announce(capsys):
    def _announce(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"\n[criterion {num}] {status}: {detail}")

    return _announce


def _best_of(fn, repeats=7):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_criterion_1_s3_orders(announce):
    p = group.validate(3, 2)

    def work():
        ar = sigma.analyze(p, sigma.right_base(p))
        al = sigma.analyze(p, sigma.left_base(p))
        return sigma.enumerate_elements(ar), sigma.enumerate_elements(al)

    elapsed, (right, left) = _best_of(work)
    problems = []
    if len(right) != 6 or len(left) != 9:
        problems.append(f"orders {len(right)}/{len(left)} != 6/9")
    if right != [MuMap(x, y) for x in (0, 1) for y in range(3)]:
        problems.append("right listing mismatch")
    if left != [MuMap(x, y) for x in range(3) for y in range(3)]:
        problems.append("left listing mismatch")
    if elapsed >= 1e-3:
        problems.append(f"runtime {elapsed * 1e3:.3f} ms >= 1 ms")
    announce(1, not problems, f"S3 orders 6/9 with exact listings ({elapsed * 1e6:.0f} us)")
    assert not problems, problems


def test_criterion_2_g63_reference_values(announce):
    p = group.validate(63, 2)

    def work():
        return sigma.analyze(p, sigma.right_base(p))

    elapsed, analysis = _best_of(work, repeats=3)
    fams = {f.x: f for f in analysis.families}
    sizes = (fams[9].y_set_size, fams[21].y_set_size, fams[42].y_set_size)
    reps = tuple(o.representative for o in analysis.orbits if not o.basic)

    # Table oracle, outside the timed region: raw commutator tables closed
    # under composition, grouped by the image of a (element index n).
    tables = oracle.table_closure(p, "right")
    per_x = Counter(tables[:, p.n].tolist())
    # 1566 = 22*63 + 6*21 + 27 + 27: the orbit of 9 gives six 21-element
    # families, and 42 = 15*7 with 15 in R puts C(42; 7) beside C(42; 3).
    short = {9: 21, 18: 21, 27: 21, 36: 21, 45: 21, 54: 21, 21: 27, 42: 27}

    problems = []
    if sorted(analysis.base.elements) != [0, 1, 3, 7, 15, 31]:
        problems.append(f"R = {sorted(analysis.base.elements)}")
    if len(analysis.closure.elements) != 30:
        problems.append(f"|R*| = {len(analysis.closure.elements)} != 30")
    if reps != (9, 21, 42):
        problems.append(f"non-basic representatives {reps} != (9, 21, 42)")
    if sizes != (21, 27, 27):
        problems.append(f"family sizes {sizes[0]}/{sizes[1]}/{sizes[2]} != 21/27/27")
    if analysis.total_order != 1566:
        problems.append(f"total order {analysis.total_order} != 1566")
    if len(tables) != 1566:
        problems.append(f"table closure holds {len(tables)} maps != 1566")
    if per_x != {f.x: f.y_set_size for f in analysis.families}:
        problems.append("family sizes differ from the table closure grouped by image of a")
    if {x: c for x, c in per_x.items() if c != 63} != short:
        problems.append(f"table closure families below 63: {sorted(per_x.items())}")
    if elapsed >= 0.1:
        problems.append(f"runtime {elapsed * 1e3:.1f} ms >= 100 ms")
    announce(
        2,
        not problems,
        "G(63,6,2): |P| = 1566 (stated 1770, refuted by table closure), "
        "42-family 27 (stated 21), families 21/27/27 at 9/21/42, "
        f"R and |R*| = 30 as stated ({elapsed * 1e3:.1f} ms)"
        + ("" if not problems else f" -- {problems}"),
    )
    assert not problems, problems


def test_criterion_3_pq_group(announce):
    p = group.validate(7, 6)
    ar = sigma.analyze(p, sigma.right_base(p))
    al = sigma.analyze(p, sigma.left_base(p))
    problems = []
    if ar.total_order != 49 or al.total_order != 28:
        problems.append(f"orders {ar.total_order}/{al.total_order} != 49/28")
    if sorted(ar.closure.elements) != list(range(7)):
        problems.append(f"R* = {sorted(ar.closure.elements)}")
    if sorted(al.closure.elements) != [0, 1, 2, 4]:
        problems.append(f"L* = {sorted(al.closure.elements)}")
    announce(3, not problems, "G(7,2,6): |P| = 49, |Lambda| = 28, closures as stated")
    assert not problems, problems


def test_criterion_4_custom_base(announce):
    p = group.validate(5, 3)
    a = sigma.analyze(p, sigma.make_base(5, [0, 4]))
    ar = sigma.analyze(p, sigma.right_base(p))
    al = sigma.analyze(p, sigma.left_base(p))
    problems = []
    if sorted(a.closure.elements) != [0, 1, 4]:
        problems.append(f"S* = {sorted(a.closure.elements)}")
    if not a.complete:
        problems.append("not complete")
    if a.total_order != 15:
        problems.append(f"|Sigma| = {a.total_order} != 15")
    if ar.total_order != 25 or al.total_order != 25:
        problems.append(f"|P|/|Lambda| = {ar.total_order}/{al.total_order} != 25/25")
    announce(4, not problems, "G(5,4,3) with S = {0,4}: complete, order 15; |P| = |Lambda| = 25")
    assert not problems, problems


def test_criterion_5_scan_reproduction(announce):
    t0 = time.perf_counter()
    records = survey.scan(3, 125, jobs=1)
    elapsed = time.perf_counter() - t0
    flagged = sorted(survey.non_basic_moduli(records))
    verified = [63, 117]
    stated = [63, 75, 81, 99, 117, 125]

    # Pair oracle, outside the timed scan: at every modulus the stated list
    # adds, each valid k is complete on both sides, |Sigma| = m * |{x}|.
    orders = {(r.m, r.k, r.side): r.order for r in records}
    pair_cases = 0
    problems = []
    for m in sorted(set(stated) - set(verified)):
        for p in survey.validated_presentations(m):
            for side in survey.SIDES:
                base = survey.base_for(p, side)
                codes = oracle.pair_closure_codes(p, oracle.mu_generator_codes(p, base))
                xs = np.unique(codes // m)
                pair_cases += 1
                if not codes.size == m * xs.size == orders.get((m, p.k, side)):
                    problems.append(
                        f"G({m},{p.n},{p.k}) {side}: pair closure {codes.size} maps over "
                        f"{xs.size} x-values, scan order {orders.get((m, p.k, side))}"
                    )

    below = [m for m in flagged if m < 63]
    if below:
        problems.append(f"non-basic orbits below 63: {below}")
    if flagged != verified:
        problems.append(f"flagged m {flagged} != {verified}")
    if pair_cases != 288:
        problems.append(f"pair closure checked {pair_cases} cases at m = 75/81/99/125 != 288")
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.1f} s >= 60 s")
    announce(
        5,
        not problems,
        f"scan(3,125) in {elapsed:.1f} s: non-basic m = {verified} "
        f"(stated {stated}, refuted by pair closure: "
        f"{pair_cases} cases at m = 75/81/99/125 complete)"
        + ("" if not problems else f" -- {problems}"),
    )
    assert not problems, problems


def test_criterion_6_example_pair(announce):
    # (m, k, side, x the stated non-basic orbit contains, verified |S*|)
    cases = ((315, 272, "left", 225, 87), (135, 62, "right", 130, 51))
    problems = []
    for m, k, stated_side, x, closure_size in cases:
        p = group.validate(m, k)
        for side in survey.SIDES:
            base = survey.base_for(p, side)
            a = sigma.analyze(p, base)
            codes = oracle.pair_closure_codes(p, oracle.mu_generator_codes(p, base))
            xs = set((codes // m).tolist())
            tag = f"G({m},{p.n},{k}) {side}"
            if not a.complete:
                problems.append(f"{tag}: engine reports a non-basic orbit")
            if not codes.size == m * len(xs) == a.total_order:
                problems.append(
                    f"{tag}: pair closure {codes.size} maps over {len(xs)} x-values, "
                    f"engine order {a.total_order}"
                )
            if side == stated_side:
                if xs != a.closure.elements or len(xs) != closure_size:
                    problems.append(
                        f"{tag}: pair closure x-values ({len(xs)}) != S* "
                        f"({len(a.closure.elements)}) or != {closure_size}"
                    )
                if x in xs:
                    problems.append(f"{tag}: {x} is an image of a in the pair closure")

    announce(
        6,
        not problems,
        "225 not in L* of G(315,12,272) (|L*| = 87), 130 not in R* of G(135,12,62) "
        "(|R*| = 51), both groups complete on both sides (stated: orb(225, L*) and "
        "orb(130, R*) non-basic, refuted by pair closure); no one-sided "
        "non-basic presentation exists for m <= 320 to take their place"
        + ("" if not problems else f" -- {problems}"),
    )
    assert not problems, problems


def _oracle_chunk(m: int) -> tuple[int, int, list[str]]:
    """Criterion 7 worker: verify one modulus, both sides, all valid k.

    The pair closure reads only m and S, and k and k^j with j coprime to n
    share R and L, so it runs once per distinct base set of the modulus;
    every case is still compared and counted, and the engine and the table
    oracle still run per case.  A case is a table case unless
    `table_fingerprints` refuses it with CapExceeded, the library's own cap."""
    pair_checked = table_checked = 0
    failures = []
    pair_of = {}  # base set S -> its pair closure codes
    for p in survey.validated_presentations(m):
        for side in ("right", "left"):
            base = survey.base_for(p, side)
            codes = sigma.element_codes(sigma.analyze(p, base))
            if base.elements not in pair_of:
                gens = oracle.mu_generator_codes(p, base)
                pair_of[base.elements] = oracle.pair_closure_codes(p, gens)
            pair = pair_of[base.elements]
            pair_checked += 1
            if not np.array_equal(codes, pair):
                failures.append(f"G({m},{p.n},{p.k}) {side}: engine != pair closure")
                continue
            try:
                tfp = oracle.table_fingerprints(p, side)
            except oracle.CapExceeded:
                continue
            table_checked += 1
            mfp = oracle.mu_table_fingerprints(p, codes)
            if mfp.size != codes.size:
                failures.append(f"G({m},{p.n},{p.k}) {side}: translated tables collide")
            elif not (tfp.size == mfp.size and np.array_equal(tfp, mfp)):
                failures.append(f"G({m},{p.n},{p.k}) {side}: engine != table closure")
    return pair_checked, table_checked, failures


def test_criterion_7_oracle_equivalence(announce):
    # heaviest moduli first so two workers stay balanced
    moduli = sorted(range(3, 101), key=lambda m: -m)
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_oracle_chunk, moduli, chunksize=1))
    elapsed = time.perf_counter() - t0
    pair_checked = sum(r[0] for r in results)
    table_checked = sum(r[1] for r in results)
    failures = [f for r in results for f in r[2]]
    announce(
        7,
        not failures,
        f"engine = pair closure on {pair_checked} cases, "
        f"= table closure on {table_checked} cases, m <= 100 "
        f"({elapsed:.0f} s)" + ("" if not failures else f" -- {failures[:5]}"),
    )
    assert not failures, failures[:20]
    # the table oracle's own cap decides the table cases; a case it skips
    # or admits wrongly moves these counts
    assert (pair_checked, table_checked) == (3146, 2670)


def test_criterion_8_theorem_suites(announce):
    reports = [
        survey.verify_prime_m(97),
        survey.verify_prime_square_m(11),
        survey.verify_prime_n(200),
        survey.verify_minimal_prime_index(125),
    ]
    failures = [v for r in reports for v in r.violations]
    cases = {r.suite: r.cases for r in reports}
    announce(
        8,
        not failures,
        f"theorem suites clean: {cases}" + ("" if not failures else f" -- {failures[:5]}"),
    )
    assert not failures, failures[:20]


def test_criterion_9_container_micro_properties(announce):
    failures = []
    for m in range(2, 201):
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        # order law |C(x,y)| = m/gcd(m,y), from the defining set
        for y in range(m):
            if len({y * z % m for z in range(m)}) != m // math.gcd(m, y):
                failures.append(f"m={m} y={y}: order law")
        # subset <=> divisor divisibility <=> element-wise containment
        for d1 in divisors:
            mult1 = {w for w in range(m) if w % d1 == 0}
            for d2 in divisors:
                mult2 = {w for w in range(m) if w % d2 == 0}
                if (d1 % d2 == 0) != (mult1 <= mult2):
                    failures.append(f"m={m} d1={d1} d2={d2}: subset law")
        # unit-multiplier equality and maximality
        for y in range(m):
            d = math.gcd(m, y)
            for u in range(m):
                if math.gcd(u, m) == 1 and math.gcd(y * u % m, m) != d:
                    failures.append(f"m={m} y={y} u={u}: unit multiplier")
            if (d == 1) != (math.gcd(y, m) == 1):
                failures.append(f"m={m} y={y}: maximality")
        if failures:
            break

    # API-level replay on every modulus that admits a presentation
    from commsemi import container

    for m in range(3, 201, 2):
        pres = None
        for k in range(2, m):
            try:
                pres = group.validate(m, k)
                break
            except group.InvalidPresentation:
                continue
        if pres is None:
            continue
        for d1 in (d for d in range(1, m + 1) if m % d == 0):
            c1 = container.make_container(pres, 1, d1)
            assert container.order(pres, c1) == m // d1
            members1 = container.members(pres, c1)
            assert len(members1) == m // d1
            for d2 in (d for d in range(1, m + 1) if m % d == 0):
                c2 = container.make_container(pres, 1, d2)
                memberwise = all(container.contains(pres, c2, mu) for mu in members1)
                if container.subset(pres, c1, c2) != (d1 % d2 == 0) or memberwise != (
                    d1 % d2 == 0
                ):
                    failures.append(f"m={m} API subset law d1={d1} d2={d2}")
        disjoint = set(container.members(pres, container.make_container(pres, 1, 1)))
        other = set(container.members(pres, container.make_container(pres, 2 % m, 1)))
        if m > 3 and disjoint & other:
            failures.append(f"m={m}: containers with distinct x intersect")

    announce(9, not failures, "container micro-properties exhaustive for m <= 200")
    assert not failures, failures[:20]
