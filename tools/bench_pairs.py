"""Run alternating parent/change pairs of benchmark workloads and write
their summary into a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        [--workload W2 ...] [--pairs 10] [--seed S] --out FILE

DIR is the root of a checkout.  Each run is

    python3 perfbench/run.py --workload W --seed S

started in the root of one tree, at the run length its BENCHMARK.json sets.
Pair i (from 1) runs the parent first when i is odd and the change first
when i is even.  With several ``--workload`` options the tool runs all
pairs of the first workload, then all pairs of the next, and so on.  A run
that does not end with ``correct: true`` stops the tool with exit 1 before
anything is written.

A run that finds no compiled bytecode compiles the library from source,
which shows in ``setup_s``.  So before the first run the tool records, for
each tree, whether any ``__pycache__`` lies under ``src/`` or
``perfbench/`` and the value of ``PYTHONDONTWRITEBYTECODE``; when the two
trees differ it refuses with exit 1, before any run.

FILE keeps whatever it already holds; the tool sets its ``machine`` key and
one entry per workload under ``pairs``, named ``W seed S``.  For every
end-to-end metric of the change's BENCHMARK.json the entry holds each
side's runs, median and inclusive quartiles, the pairs the change wins
(ties count for neither), and two checks:

* ``gain``: the change wins at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
* ``within_bound``: the change's median is no worse than the parent's by
  more than the metric's bound, a fraction of the parent's median.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


class RunRefused(RuntimeError):
    """A benchmark run failed or did not report every case correct."""


def run_once(tree: Path, workload: str, seed: int) -> dict[str, float]:
    """One ``perfbench/run.py`` run in tree; its end-to-end metric values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or report.get("correct") is not True:
        raise RunRefused(f"{tree}: {workload} seed {seed} exited {proc.returncode}, correct={report.get('correct')}")
    return {name: metric["value"] for name, metric in report["metrics"].items()}


def bytecode_state(tree: Path) -> dict:
    """Whether compiled bytecode lies under the tree's src/ or perfbench/,
    and whether the runs may write it."""
    return {
        "pycache": any(any((tree / d).rglob("__pycache__")) for d in ("src", "perfbench")),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def _quartiles(xs: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q3]


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: both sides' runs, medians, quartiles, the change's wins
    and the gain and bound checks.  parent[i] and change[i] are pair i."""
    out = {}
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        sign = 1 if spec["better"] == "lower" else -1  # sign * (a - b) > 0: b is better
        runs = {"parent": [r[name] for r in parent], "change": [r[name] for r in change]}
        med = {side: statistics.median(xs) for side, xs in runs.items()}
        quartiles = {side: _quartiles(xs) for side, xs in runs.items()}
        iqr = quartiles["parent"][1] - quartiles["parent"][0]
        wins = sum(sign * (p - c) > 0 for p, c in zip(runs["parent"], runs["change"]))
        gain = sign * (med["parent"] - med["change"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "runs": runs,
            "median": med,
            "quartiles": quartiles,
            "parent_iqr": iqr,
            "change_wins": wins,
            "pairs": len(parent),
            "change_vs_parent_pct": 100 * (med["change"] - med["parent"]) / med["parent"],
            "gain": 10 * wins >= 9 * len(parent) and gain > iqr,
            "within_bound": -gain <= bound * med["parent"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, to give quartiles")
    trees = {"parent": args.parent, "change": args.change}
    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    bytecode = {side: bytecode_state(tree) for side, tree in trees.items()}
    if bytecode["parent"] != bytecode["change"]:
        print(f"bench_pairs: the trees differ in compiled bytecode: {bytecode}", file=sys.stderr)
        return 1

    entries = {}
    for workload in dict.fromkeys(args.workload):
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        try:
            for i in range(1, args.pairs + 1):
                for side in SIDES if i % 2 else SIDES[::-1]:
                    runs[side].append(run_once(trees[side], workload, args.seed))
                    print(f"{workload} pair {i} {side}: {runs[side][-1]}", file=sys.stderr, flush=True)
        except RunRefused as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1
        entries[f"{workload} seed {args.seed}"] = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed {args.seed}",
            "order": "parent first in odd pairs, change first in even pairs",
            "bytecode": bytecode,
            "metrics": summarize(runs["parent"], runs["change"], spec),
        }

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["machine"] = f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}"
    doc.setdefault("pairs", {}).update(entries)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
