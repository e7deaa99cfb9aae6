"""The library still serves the benchmark.

perfbench drives the library from outside: its tracer wraps public names
and reads the analysis fields (``families``, ``generators_d``, every size
counter), and every output is checked against ``perfbench/pins.json``.  A
refactor that renames a wrapped function or drops a field the tracer reads
breaks the benchmark without failing any other test; these run all four
workloads traced, through perfbench's own worker, and require every case
correct and every wrapped name present.
"""

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["scan-small", "analyze-large", "oracle-sweep", "oracle-exact"])
def test_traced_workload_matches_pins(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker
    from workloads import DEFAULT_SEED, WORKLOADS

    pins = json.loads((PERFBENCH / "pins.json").read_text())[name]
    result = worker.run_once(WORKLOADS[name], DEFAULT_SEED, pins, trace=True)
    assert result["absent"] == []
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
