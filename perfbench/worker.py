"""One repetition of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Imports the library from the checkout's ``src/``, builds the seeded case
list, runs the workload once and prints one JSON object: the monotonic
clock at the first timed call (so the parent can measure set-up from
process start), the timed wall time, the outcome of the checks, peak RSS
and, when traced, the per-layer metrics.  A fresh process per repetition
keeps the library's per-group caches cold, as a user's run finds them, and
makes ``ru_maxrss`` belong to this workload alone.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_once(workload, seed: int, pins: dict, trace: bool, spans_path=None) -> dict:
    """Run one repetition in this process and return its result record."""
    from spans import Tracer
    from workloads import check_sizes, install, layer_metrics

    cases = workload.cases(seed)
    tracer = Tracer(workload.openers) if trace else None
    if tracer is not None:
        install(tracer)
    ready = time.monotonic()
    t0 = time.perf_counter()
    try:
        raw = workload.run(cases, tracer)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
    out = workload.check(cases, raw, pins)
    result = {"inputs": [list(c) for c in cases[:8]], "ready": ready, "wall_s": wall}
    if tracer is not None:
        result["per_layer"] = layer_metrics(workload, tracer, out)
        result["absent"] = tracer.absent
        check_sizes(result["per_layer"], tracer.absent, pins, out)
        if spans_path is not None:
            tracer.dump(spans_path)
    result.update(attempted=out.attempted, failed=out.failed, failures=out.failures[:10], observed=out.observed)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pins", default=str(HERE / "pins.json"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file to write the traced spans to")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="the self-test's tiny variant of the workload")
    args = ap.parse_args(argv)

    if not (SRC / "commsemi" / "__init__.py").is_file():
        print(f"worker: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import commsemi
    from workloads import TINY, WORKLOADS

    if not Path(commsemi.__file__).resolve().is_relative_to(SRC):
        print(f"worker: imported commsemi from {commsemi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    if args.setup_only:
        workload.cases(args.seed)
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    with open(args.pins) as fh:
        pins = json.load(fh)[args.workload]
    result = run_once(workload, args.seed, pins, args.trace, args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["openblas_threads"] = openblas_threads()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
