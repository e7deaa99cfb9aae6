"""Self-test of the benchmark harness on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Runs the tiny variants of the four workloads (workloads.TINY) through the
same runner and worker processes as the real benchmark, with pins
recorded on the spot, and checks that every metric BENCHMARK.json
declares is emitted with its unit, that a wrong pin (an output or a
problem-size counter) is counted as a failed case and makes the run exit
nonzero, and that a wrapped name the library no longer has is reported as
absent rather than failing or crashing the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import TINY, Outcome, check_sizes  # noqa: E402

OUT = HERE / "out"


def _run(seed: int, traced: bool, pins_path: Path):
    """run.run_all over every tiny workload; returns (exit code, last JSON line)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.run_all(run.WORKLOAD_NAMES, seed, 0, traced, ["--tiny", "--pins", str(pins_path)])
    return rc, json.loads(buf.getvalue().strip().splitlines()[-1])


class HarnessSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        OUT.mkdir(exist_ok=True)
        pins = {name: worker.run_once(w, 0, {}, True)["observed"] for name, w in TINY.items()}
        cls.pins = OUT / "selftest-pins.json"
        cls.pins.write_text(json.dumps(pins))

    def assert_metrics(self, result: dict, kind: str) -> None:
        want = {f"{w}.{name}": unit for w in run.WORKLOAD_NAMES for name, unit in run._declared(kind).items()}
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_end_to_end_metrics_emitted_with_units(self):
        for seed in (0, 7):  # 7 draws other generators k for analyze-large
            rc, result = _run(seed, False, self.pins)
            self.assertEqual(rc, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assert_metrics(result, "end_to_end")

    def test_per_layer_metrics_emitted_with_units(self):
        rc, result = _run(0, True, self.pins)
        self.assertEqual(rc, 0)
        self.assert_metrics(result, "per_layer")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(metrics["oracle-sweep.oracle.cap_skipped"], 0)
        self.assertGreater(metrics["oracle-exact.case1.oracle.table_closure_s"], 0)
        self.assertEqual(metrics["scan-small.oracle.pair_calls"], 0)

    def assert_wrong_pin_fails(self, traced: bool, edit) -> None:
        pins = json.loads(self.pins.read_text())
        edit(pins)
        wrong = OUT / "selftest-wrong-pins.json"
        wrong.write_text(json.dumps(pins))
        rc, result = _run(0, traced, wrong)
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])

    def test_wrong_pin_fails_the_run(self):
        def edit(pins):
            pins["oracle-exact"]["G(9,6,2)"]["payload_sha256"] = "0" * 64

        self.assert_wrong_pin_fails(False, edit)

    def test_wrong_size_pin_fails_the_traced_run(self):
        def edit(pins):
            pins["analyze-large"]["sizes"]["sigma.closure_size"] += 1

        self.assert_wrong_pin_fails(True, edit)

    def test_missing_wrapped_name_is_absent(self):
        from commsemi import oracle

        saved = oracle.table_closure
        del oracle.table_closure
        pins = json.loads(self.pins.read_text())
        try:
            result = worker.run_once(TINY["analyze-large"], 0, pins["analyze-large"], True)
        finally:
            oracle.table_closure = saved
        self.assertEqual(result["absent"], ["oracle.table_closure"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["per_layer"]["trace.absent"], 1)
        self.assertEqual(result["per_layer"]["oracle.table_closure_s"], 0)
        self.assertIs(oracle.table_closure, saved)

        # a size counter read from an absent function is not checked
        sizes = dict(pins["oracle-exact"]["sizes"], **{"oracle.table_order": 0})
        out = Outcome(attempted=4)
        check_sizes(sizes, ["oracle.table_closure"], pins["oracle-exact"], out)
        self.assertEqual(out.failed, 0)
        check_sizes(sizes, [], pins["oracle-exact"], out)
        self.assertEqual(out.failed, 4)


if __name__ == "__main__":
    unittest.main()
