"""The benchmark's workloads: seeded case lists, timed bodies, output checks
and the per-layer metrics derived from a traced run.

Every workload is a closed loop in one process: one case at a time, no
worker pools.  A case is one (m, k, side).  The library is driven from
outside only, through ``cli.main`` and the public functions of ``group``,
``survey``, ``sigma`` and ``oracle``; all of them are looked up through
their modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from commsemi import cli, group, oracle, sigma, survey, zmod

DEFAULT_SEED = 0
SIDES = ("right", "left")


@dataclass
class Outcome:
    """What the checks found; a failed case is counted once."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    stdout_bytes: int = 0
    cap_skipped: int = 0
    observed: dict = field(default_factory=dict)

    def fail(self, cases: int, why: str) -> None:
        self.failed += cases
        self.failures.append(why)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _payload_sha(payload) -> str:
    return sha256(json.dumps(payload, sort_keys=True))


def _run_cli(argv: list[str]):
    """cli.main with stdout captured; returns (exit code or error text, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a raising call is a failed case, not a harness crash
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, buf.getvalue()


def _tag(m: int, n: int, k: int) -> str:
    return f"G({m},{n},{k})"


# ---------------------------------------------------------------------------
# scan-small


class Scan:
    """``commsemi scan --from LO --to HI --jobs 1``; the seed changes nothing,
    since the scan already covers every k of every modulus in range."""

    openers = ("sigma.analyze",)
    per_case = False

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi = lo, hi

    def cases(self, seed: int) -> list[list[str]]:
        return [["scan", "--from", str(self.lo), "--to", str(self.hi), "--jobs", "1"]]

    def run(self, cases, tracer) -> list:
        return [_run_cli(argv) for argv in cases]

    def check(self, cases, raw, pins: dict) -> Outcome:
        (rc, text), = raw
        out = Outcome(attempted=pins.get("records", 1))
        out.stdout_bytes = len(text.encode())
        out.observed = {"stdout_sha256": sha256(text)}
        if rc != 0:
            out.fail(out.attempted, f"scan exited {rc}")
            return out
        payload = json.loads(text)["payload"]
        out.observed["records"] = len(payload["records"])
        out.observed["non_basic_m"] = sorted(payload["non_basic_m"], key=int)
        for key in ("stdout_sha256", "records", "non_basic_m"):
            if out.observed[key] != pins.get(key):
                out.fail(out.attempted, f"scan {key}: {out.observed[key]!r} != pinned {pins.get(key)!r}")
                break
        return out


# ---------------------------------------------------------------------------
# analyze-large and oracle-exact


def subgroup_generator(m: int, n: int, k0: int, rng: random.Random | None) -> int:
    """k0^j for a random j coprime to n (k0 itself without an rng).

    Every such k generates the same subgroup <k0> of the units, so
    G(m,n,k) is the same group with b replaced by b^j, R and L are the same
    sets, and the engine does the same work with the same results.  Drawing
    k from other subgroups would change the problem size from seed to seed.
    """
    if rng is None:
        return k0
    return pow(k0, rng.choice([j for j in range(1, n) if math.gcd(j, n) == 1]), m)


class CliGroups:
    """``commsemi COMMAND --m M --k K --side both`` once per group.

    With ``seeded`` the seed draws each group's k with subgroup_generator;
    without it every seed runs the default k.
    """

    per_case = True

    def __init__(self, name: str, command: str, groups, opener: str, seeded: bool):
        self.name, self.command, self.groups = name, command, tuple(groups)
        self.openers = (opener,)
        self.seeded = seeded

    def cases(self, seed: int) -> list[tuple[int, int, int, int]]:
        rng = random.Random(f"{self.name}:{seed}") if self.seeded and seed != DEFAULT_SEED else None
        return [(m, n, k0, subgroup_generator(m, n, k0, rng)) for m, n, k0 in self.groups]

    def run(self, cases, tracer) -> list:
        return [
            _run_cli([self.command, "--m", str(m), "--k", str(k), "--side", "both"])
            for m, _, _, k in cases
        ]

    def check(self, cases, raw, pins: dict) -> Outcome:
        out = Outcome(attempted=2 * len(cases))
        for (m, n, k0, k), (rc, text) in zip(cases, raw):
            tag, pin = _tag(m, n, k), pins.get(_tag(m, n, k0), {})
            out.stdout_bytes += len(text.encode())
            if rc != 0:
                out.fail(2, f"{self.command} {tag} exited {rc}")
                continue
            payload = json.loads(text)["payload"]
            entries = payload["analyses" if self.command == "analyze" else "checks"]
            seen = {
                "stdout_sha256": sha256(text),
                "payload_sha256": _payload_sha(payload),
                "orders": [e["total_order" if self.command == "analyze" else "engine_order"] for e in entries],
            }
            out.observed[_tag(m, n, k0)] = seen
            out.cap_skipped += sum(e.get("table_status") == "cap_exceeded" for e in entries)
            keys = ["payload_sha256"] + (["stdout_sha256"] if k == k0 else [])
            bad = [key for key in keys if seen[key] != pin.get(key)]
            if bad:
                out.fail(2, f"{self.command} {tag}: {', '.join(bad)} differ from the pins")
                continue
            for side, entry, want, got in zip(SIDES, entries, pin["orders"], seen["orders"]):
                if got != want or entry.get("agree", True) is not True:
                    out.fail(1, f"{self.command} {tag} {side}: order {got} (pinned {want}), agree={entry.get('agree')}")
        return out


# ---------------------------------------------------------------------------
# oracle-sweep


def valid_ks(m: int) -> list[int]:
    """Every k in [2, m) that presents a group with trivial centre."""
    return [k for k in range(2, m) if math.gcd(m, k) == 1 and math.gcd(m, k - 1) == 1]


class Sweep:
    """The criterion-7 route on every valid k and both sides of each
    modulus: engine codes, then the pair oracle, then (when m*n is within
    the table cap) the fingerprint table oracle.  The seed changes nothing,
    since every valid k is already covered."""

    openers = ("bench.case",)
    per_case = False

    def __init__(self, moduli, cap: int = 4000):
        self.moduli, self.cap = tuple(moduli), cap

    def cases(self, seed: int) -> list[tuple[int, int]]:
        return [(m, k) for m in self.moduli for k in valid_ks(m)]

    def _one(self, p, side: str) -> tuple:
        base = survey.base_for(p, side)
        codes = np.asarray(sigma.element_codes(sigma.analyze(p, base)), dtype=np.int64)
        pair = oracle.pair_closure_codes(p, oracle.mu_generator_codes(p, base))
        if not np.array_equal(codes, pair):
            return int(codes.size), "engine != pair closure"
        if p.m * p.n > self.cap:
            return int(codes.size), "cap"
        tfp = oracle.table_fingerprints(p, side)
        mfp = oracle.mu_table_fingerprints(p, codes)
        if mfp.size != codes.size:
            return int(codes.size), "translated tables collide"
        if not np.array_equal(tfp, mfp):
            return int(codes.size), "engine != table closure"
        return int(codes.size), "ok"

    def run(self, cases, tracer) -> list:
        results = []
        for m, k in cases:
            try:
                p = group.validate(m, k)
            except Exception as exc:  # a raising call is a failed case, not a harness crash
                results.extend((m, k, 0, side, 0, f"raised {exc!r}") for side in SIDES)
                continue
            for side in SIDES:
                span = tracer.span("bench.case") if tracer else contextlib.nullcontext()
                with span:
                    try:
                        order, status = self._one(p, side)
                    except Exception as exc:  # as above
                        order, status = 0, f"raised {exc!r}"
                results.append((m, k, p.n, side, order, status))
        return results

    def check(self, cases, raw, pins: dict) -> Outcome:
        out = Outcome(attempted=len(raw))
        for m, k, n, side, order, status in raw:
            if status not in ("ok", "cap"):
                out.fail(1, f"G({m},{n},{k}) {side}: {status}")
        out.cap_skipped = sum(r[5] == "cap" for r in raw)
        out.observed = {
            "pair_cases": len(raw),
            "table_cases": sum(r[5] == "ok" for r in raw),
            "orders_sha256": sha256(json.dumps([list(r[:5]) for r in raw])),
        }
        bad = [key for key in out.observed if out.observed[key] != pins.get(key)]
        if bad and not out.failed:
            out.fail(out.attempted, f"sweep {', '.join(bad)} differ from the pins")
        return out


# oracle-exact is not seeded: the exact table oracle's peak memory depends on
# how the presentation labels the group's elements (G(99,30,k) peaks at 426,
# 360 and 435 MB for k = 5, 59 and 86, all generators of <5>), so drawing k
# would make its spread measure the inputs rather than the code.
WORKLOADS = {
    "scan-small": Scan(3, 125),
    "analyze-large": CliGroups(
        "analyze-large", "analyze", [(2003, 2002, 5), (4095, 12, 212)], "sigma.analyze", seeded=True
    ),
    "oracle-sweep": Sweep((63, 73, 91)),
    "oracle-exact": CliGroups(
        "oracle-exact", "oracle", [(99, 30, 5), (63, 6, 2)], "oracle.differential_check", seeded=False
    ),
}

# The same four workloads at sizes that run in well under a second, for the
# harness self-test (perfbench/selftest.py); the small cap makes the sweep
# skip the table oracle on G(9,6,2).
TINY = {
    "scan-small": Scan(3, 21),
    "analyze-large": CliGroups("analyze-large", "analyze", [(7, 3, 2), (9, 6, 2)], "sigma.analyze", seeded=True),
    "oracle-sweep": Sweep((7, 9), cap=40),
    "oracle-exact": CliGroups("oracle-exact", "oracle", [(7, 3, 2), (9, 6, 2)], "oracle.differential_check", seeded=False),
}


# ---------------------------------------------------------------------------
# tracing


def _count_analysis(c, a, args, kwargs) -> None:
    m = a.presentation.m
    base, closed = len(a.base.elements), len(a.closure.elements)
    incomplete = [f for f in a.families if not f.complete]
    c["sigma.base_size"] += base
    c["sigma.closure_size"] += closed
    c["sigma.witness_pairs"] += base * closed
    c["sigma.orbits"] += len(a.orbits)
    c["sigma.nonbasic_orbits"] += sum(not o.basic for o in a.orbits)
    c["sigma.incomplete_families"] += len(incomplete)
    c["sigma.residue_scan"] += sum(m * len(f.generators_d) for f in incomplete)


def _counter(key: str, size):
    def count(c, out, args, kwargs):
        c[key] += size(out)

    return count


def install(tracer) -> None:
    """Wrap every public entry point the workloads reach."""
    fingerprinted: set[tuple[int, int]] = set()

    def cold_or_warm(args, kwargs) -> str:
        # _fingerprint_build caches one group, so the first side of a group
        # pays the build and the second reuses it
        p = args[0]
        key = (p.m, p.k)
        if key in fingerprinted:
            return "warm"
        fingerprinted.add(key)
        return "cold"

    tracer.wrap(cli, "main")
    tracer.wrap(survey, "scan")
    tracer.wrap(survey, "validated_presentations")
    tracer.wrap(group, "validate")
    tracer.wrap(zmod, "mult_order", count=_counter("zmod.mult_order_steps", int))
    tracer.wrap(sigma, "analyze", count=_count_analysis)
    tracer.wrap(sigma, "closure")
    tracer.wrap(sigma, "orbits")
    tracer.wrap(sigma, "element_codes", count=_counter("sigma.element_codes_count", len))
    tracer.wrap(oracle, "mu_generator_codes")
    tracer.wrap(oracle, "pair_closure_codes", count=_counter("oracle.pair_codes", len))
    tracer.wrap(oracle, "table_fingerprints", count=_counter("oracle.fingerprints", len), label=cold_or_warm)
    tracer.wrap(oracle, "mu_table_fingerprints")
    tracer.wrap(oracle, "table_closure", count=_counter("oracle.table_order", len))
    tracer.wrap(oracle, "differential_check")


def percentile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_xs:
        return 0.0
    return sorted_xs[max(0, math.ceil(q / 100 * len(sorted_xs)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond
    it; 100 (the maximum) when there are too few samples for any."""
    for q in (99.9, 99.0, 90.0):
        if n - math.ceil(q / 100 * n) >= 10:
            return q
    return 100.0


# Problem-size counters, each with the wrapped functions it is read from.
# They are derived from returned values, so they repeat exactly from run to
# run; every traced run checks them against the pins, and a change is a
# failed case: a faster run must solve the same problem, not a smaller one.
# A counter whose function is absent reads 0 and is not checked.
SIZES = {
    "sigma.base_size": ("sigma.analyze",),
    "sigma.closure_size": ("sigma.analyze",),
    "sigma.witness_pairs": ("sigma.analyze",),
    "sigma.orbits": ("sigma.analyze",),
    "sigma.nonbasic_orbits": ("sigma.analyze",),
    "sigma.incomplete_families": ("sigma.analyze",),
    "sigma.residue_scan": ("sigma.analyze",),
    "sigma.element_codes_count": ("sigma.element_codes",),
    "oracle.pair_codes": ("oracle.pair_closure_codes",),
    "oracle.fingerprints": ("oracle.table_fingerprints",),
    "oracle.table_order": ("oracle.table_closure",),
    "oracle.table_cases": ("oracle.table_fingerprints", "oracle.table_closure"),
}


def check_sizes(metrics: dict, absent, pins: dict, out: Outcome) -> None:
    """Record the size counters and fail every case not yet failed when one
    differs from its pin."""
    out.observed["sizes"] = {key: metrics[key] for key in SIZES}
    want = pins.get("sizes", {})
    bad = [
        f"{key} {metrics[key]} (pinned {want.get(key)})"
        for key, sources in SIZES.items()
        if not set(sources) & set(absent) and metrics[key] != want.get(key)
    ]
    if bad:
        out.fail(out.attempted - out.failed, "sizes differ from the pins: " + ", ".join(bad))


PER_CASE = {
    "sigma.analyze_s": "sigma.analyze",
    "sigma.closure_s": "sigma.closure",
    "sigma.orbits_s": "sigma.orbits",
    "sigma.analyze_self_s": "sigma.analyze.self",
    "sigma.element_codes_s": "sigma.element_codes",
    "oracle.pair_closure_s": "oracle.pair_closure_codes",
    "oracle.table_closure_s": "oracle.table_closure",
    "oracle.differential_check_self_s": "oracle.differential_check.self",
}
PER_CASE_COUNT = 4


def layer_metrics(workload, tracer, out: Outcome) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    total, self_time, calls, per_case = tracer.totals()
    c = tracer.counters
    analyze_ms = sorted(d * 1e3 for d in tracer.durations("sigma.analyze"))
    tail = tail_percentile(len(analyze_ms)) if analyze_ms else 0.0
    metrics = {
        "cli.main_s": total["cli.main"],
        "cli.self_s": self_time["cli.main"],
        "cli.stdout_bytes": out.stdout_bytes,
        "survey.scan_s": total["survey.scan"],
        "survey.validated_presentations_s": total["survey.validated_presentations"],
        "group.validate_s": total["group.validate"],
        "group.validate_calls": calls["group.validate"],
        "zmod.mult_order_s": total["zmod.mult_order"],
        "zmod.mult_order_steps": c["zmod.mult_order_steps"],
        "sigma.analyze_s": total["sigma.analyze"],
        "sigma.analyze_calls": calls["sigma.analyze"],
        "sigma.analyze_p50_ms": percentile(analyze_ms, 50),
        "sigma.analyze_tail_ms": percentile(analyze_ms, tail),
        "sigma.analyze_tail_pct": tail,
        "sigma.closure_s": total["sigma.closure"],
        "sigma.orbits_s": total["sigma.orbits"],
        "sigma.analyze_self_s": self_time["sigma.analyze"],
        "sigma.element_codes_s": total["sigma.element_codes"],
        "sigma.element_codes_count": c["sigma.element_codes_count"],
        "oracle.pair_closure_s": total["oracle.pair_closure_codes"],
        "oracle.pair_calls": calls["oracle.pair_closure_codes"],
        "oracle.pair_codes": c["oracle.pair_codes"],
        "oracle.table_fingerprints_cold_s": total["oracle.table_fingerprints.cold"],
        "oracle.table_fingerprints_warm_s": total["oracle.table_fingerprints.warm"],
        "oracle.mu_table_fingerprints_s": total["oracle.mu_table_fingerprints"],
        "oracle.fingerprints": c["oracle.fingerprints"],
        "oracle.table_cases": calls["oracle.table_fingerprints.cold"]
        + calls["oracle.table_fingerprints.warm"]
        + calls["oracle.table_closure"],
        "oracle.cap_skipped": out.cap_skipped,
        "oracle.differential_check_s": total["oracle.differential_check"],
        "oracle.table_closure_s": total["oracle.table_closure"],
        "oracle.table_order": c["oracle.table_order"],
        "oracle.differential_check_self_s": self_time["oracle.differential_check"],
        "trace.spans": len(tracer.spans),
        "trace.absent": len(tracer.absent),
    }
    for key in (
        "sigma.base_size",
        "sigma.closure_size",
        "sigma.witness_pairs",
        "sigma.orbits",
        "sigma.nonbasic_orbits",
        "sigma.incomplete_families",
        "sigma.residue_scan",
    ):
        metrics[key] = c[key]
    for case in range(PER_CASE_COUNT):
        spans = per_case.get(case, {}) if workload.per_case else {}
        for metric, span in PER_CASE.items():
            metrics[f"case{case + 1}.{metric}"] = spans.get(span, 0.0)
    return metrics
