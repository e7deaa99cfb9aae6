"""Run the commsemi benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each repetition of a workload runs in a
fresh worker process (perfbench/worker.py), which imports the library
from ``src/``.  With ``--trace 0`` the runner first starts fifteen workers
that only set up, then repeats the workload while the next repetition
still fits in ``--seconds``, and reports the medians of the end-to-end
metrics.  ``--workload``, ``--seed``, ``--seconds`` and ``--trace`` are the
benchmark's command line, the one every measurement run is made with;
``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.  With ``--trace 1`` it runs the workload once untraced and once
traced and reports the per-layer metrics.  Metric names and units come
from BENCHMARK.json.  Every output is checked against perfbench/pins.json;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 all cases correct, 1 some case failed, 2 the checkout is not
runnable (no library source, or a worker crashed or timed out).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("scan-small", "analyze-large", "oracle-sweep", "oracle-exact")
SETUP_SAMPLES = 15  # set-up-only workers per untraced run, besides each repetition's own
BUDGET_S = 170  # every run ends within 180 s


class RunnerError(RuntimeError):
    """A worker crashed or ran past the time budget."""


def _spawn(workload: str, seed: int, extra: list[str], deadline: float) -> dict:
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise RunnerError(f"{workload}: worker ran past the {BUDGET_S} s budget") from None
    end = time.monotonic()
    if proc.returncode != 0:
        raise RunnerError(f"{workload}: worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    result["elapsed_s"] = end - start
    return result


def measure(workload: str, seed: int, seconds: float, extra: list[str]) -> dict:
    """Untraced run: median end-to-end metrics over repeated workers."""
    deadline = time.monotonic() + BUDGET_S
    setups = [_spawn(workload, seed, ["--setup-only", *extra], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps: list[dict] = []
    spent = 0.0
    while not reps or spent + reps[-1]["elapsed_s"] <= seconds:
        reps.append(_spawn(workload, seed, extra, deadline))
        spent += reps[-1]["elapsed_s"]
    cases = reps[0]["attempted"]
    return {
        "reps": reps,
        "metrics": {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cases_per_s": statistics.median(cases / r["wall_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        },
    }


def trace(workload: str, seed: int, extra: list[str]) -> dict:
    """Traced run: per-layer metrics of one traced worker, and the tracing
    overhead against one untraced worker."""
    deadline = time.monotonic() + BUDGET_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}.json"
    plain = _spawn(workload, seed, extra, deadline)
    traced = _spawn(workload, seed, ["--trace", "--spans", str(spans), *extra], deadline)
    metrics = dict(traced["per_layer"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {"reps": [plain, traced], "metrics": metrics, "absent": traced["absent"]}


def _declared(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _report(workload: str, seed: int, run: dict, units: dict[str, str]) -> dict:
    reps = run["reps"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    missing = sorted(set(units) - set(run["metrics"]))
    if missing:
        raise RunnerError(f"{workload}: no value for declared metrics {missing}")
    print(f"== {workload} (seed {seed}, {len(reps)} repetitions, inputs {reps[0]['inputs']})")
    print(f"   openblas threads {reps[0]['openblas_threads']}; closed loop, one process, one case at a time")
    walls = ", ".join(f"{r['wall_s']:.4f}" for r in reps)
    print(f"   repetition wall_s: {walls}")
    for name, unit in units.items():
        print(f"   {name:<40} {run['metrics'][name]:>16.6f} {unit}")
    print(f"   {'failed_frac':<40} {failed / attempted:>16.6f} ratio ({failed}/{attempted})")
    for why in sorted({w for r in reps for w in r["failures"]}):
        print(f"   FAILED: {why}", file=sys.stderr)
    for name in run.get("absent", ()):
        print(f"   absent (not wrapped): {name}")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def run_all(names, seed: int, seconds: float, traced: bool, extra: list[str]) -> int:
    """Run the named workloads, print the report and return the exit code."""
    units = _declared("per_layer" if traced else "end_to_end")
    results = {}
    try:
        for name in names:
            run = trace(name, seed, extra) if traced else measure(name, seed, seconds, extra)
            results[name] = _report(name, seed, run, units)
    except RunnerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    correct = summary["failed"] == 0
    print(json.dumps({"correct": correct, **summary}), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run the commsemi benchmark.")
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "commsemi" / "__init__.py").is_file():
        print(f"run.py: no library source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        with open(ROOT / "BENCHMARK.json") as fh:
            seconds = json.load(fh)["run_seconds"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    return run_all(names, args.seed, seconds, bool(args.trace), [])


if __name__ == "__main__":
    sys.exit(main())
