"""Run workloads on several seeds and summarize the run-to-run spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10]

For each workload and each seed, runs ``perfbench/run.py --trace 0`` with
the run length from BENCHMARK.json, then prints one JSON document with,
per end-to-end metric, the values, their median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (quartile
distance over the median) and the bound from BENCHMARK.json.  This is how
perfbench/baseline.json was produced, and how a later change measures its
own side of a comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="Run-to-run spread of the end-to-end metrics.")
    ap.add_argument("--workload", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for name in args.workload:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{m}={v[-1]:.4f}" for m, v in values.items()), file=sys.stderr)
        stats = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            stats[metric] = {
                "median": statistics.median(vals),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals),
                "bound": bounds[metric],
                "values": vals,
            }
        summary["workloads"][name] = stats
    print(json.dumps(summary, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
