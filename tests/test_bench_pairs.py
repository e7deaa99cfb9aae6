import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cases_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def runs(walls):
    return [{"wall_s": w, "cases_per_s": 100 / w} for w in walls]


def test_summary_of_a_clear_gain_with_one_tie():
    parent = runs([1.0, 1.1, 1.2, 1.3, 1.0, 1.1, 1.2, 1.3, 1.0, 1.1])
    change = runs([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.1])  # pair 10 ties
    summary = bench_pairs.summarize(parent, change, END_TO_END)
    wall = summary["wall_s"]
    assert wall["runs"]["change"] == [r["wall_s"] for r in change]
    assert wall["median"] == {"parent": 1.1, "change": 0.5}
    assert wall["quartiles"]["parent"] == pytest.approx([1.025, 1.2])
    assert wall["parent_iqr"] == pytest.approx(0.175)
    assert wall["change_wins"] == 9 and wall["pairs"] == 10
    assert wall["gain"] and wall["within_bound"]
    assert wall["change_vs_parent_pct"] == pytest.approx(-100 * 0.6 / 1.1)
    # higher is better here: the same runs win as higher rates
    rate = summary["cases_per_s"]
    assert rate["change_wins"] == 9 and rate["gain"] and rate["within_bound"]


def test_eight_wins_claim_no_gain():
    parent = runs([1.0] * 10)
    change = runs([0.5] * 8 + [1.0, 1.5])
    wall = bench_pairs.summarize(parent, change, END_TO_END)["wall_s"]
    assert wall["change_wins"] == 8
    assert not wall["gain"]


def test_gain_must_exceed_the_parent_spread():
    parent = runs([1.0, 2.0] * 5)
    change = runs([0.9, 1.9] * 5)  # wins every pair, by less than the IQR
    wall = bench_pairs.summarize(parent, change, END_TO_END)["wall_s"]
    assert wall["change_wins"] == 10
    assert wall["parent_iqr"] == pytest.approx(1.0)
    assert not wall["gain"]


def test_bound_is_a_fraction_of_the_parent_median():
    parent = runs([1.0] * 10)
    assert bench_pairs.summarize(parent, runs([1.25] * 10), END_TO_END)["wall_s"]["within_bound"]
    slower = bench_pairs.summarize(parent, runs([1.3] * 10), END_TO_END)
    assert not slower["wall_s"]["within_bound"]
    assert slower["cases_per_s"]["within_bound"]  # 100/1.3 = 76.9 is within 25% of 100
    assert not bench_pairs.summarize(parent, runs([1.34] * 10), END_TO_END)["cases_per_s"]["within_bound"]


def test_a_run_not_correct_is_refused(monkeypatch, tmp_path):
    class Done:
        returncode = 1
        stdout = json.dumps({"correct": False, "metrics": {}}) + "\n"

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: Done)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "w", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert not out.exists()


def test_trees_differing_in_bytecode_are_refused(monkeypatch, tmp_path):
    # a stale __pycache__ in one tree only would lower that tree's setup_s
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    (parent / "src" / "pkg" / "__pycache__").mkdir()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.bytecode_state(parent) == {"pycache": True, "PYTHONDONTWRITEBYTECODE": "1"}
    assert bench_pairs.bytecode_state(change) == {"pycache": False, "PYTHONDONTWRITEBYTECODE": "1"}

    started = []

    class Done:
        returncode = 0
        stdout = json.dumps({"correct": True, "metrics": {"wall_s": {"value": 1.0}, "cases_per_s": {"value": 100.0}}})

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: started.append(k["cwd"]) or Done)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert not out.exists() and not started

    (change / "perfbench" / "__pycache__").mkdir()  # now both trees hold bytecode
    assert bench_pairs.main(argv) == 0
    entry = json.loads(out.read_text())["pairs"]["w seed 0"]
    state = {"pycache": True, "PYTHONDONTWRITEBYTECODE": "1"}
    assert entry["bytecode"] == {"parent": state, "change": state}
    assert started == [parent, change, change, parent]


STUB_RUN = """\
import json, sys
from pathlib import Path
workload, seed = sys.argv[sys.argv.index("--workload") + 1], sys.argv[sys.argv.index("--seed") + 1]
tree = Path.cwd().name
with open(Path.cwd().parent / "log", "a") as log:
    log.write(f"{workload} {tree}\\n")
wall = {"parent": 1.0, "change": 0.5}[tree] * {"a": 1, "b": 3}[workload]
print("stub run")
print(json.dumps({"correct": True, "metrics": {"wall_s": {"value": wall}, "cases_per_s": {"value": 100 / wall}}}))
"""


def test_several_workloads_run_one_after_another_into_one_file(monkeypatch, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(STUB_RUN)
        (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    checked = []
    state = bench_pairs.bytecode_state
    monkeypatch.setattr(bench_pairs, "bytecode_state", lambda tree: checked.append(tree) or state(tree))
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"pairs": {"earlier seed 0": {}}}))
    argv = [
        "--parent", str(parent), "--change", str(change), "--workload", "a", "--workload", "b",
        "--pairs", "2", "--seed", "1", "--out", str(out),
    ]
    assert bench_pairs.main(argv) == 0

    assert checked == [parent, change]  # once per tree, before any run
    log = (tmp_path / "log").read_text().split("\n")[:-1]
    assert log == ["a parent", "a change", "a change", "a parent", "b parent", "b change", "b change", "b parent"]
    pairs = json.loads(out.read_text())["pairs"]
    assert sorted(pairs) == ["a seed 1", "b seed 1", "earlier seed 0"]
    for workload, scale in (("a", 1), ("b", 3)):
        entry = pairs[f"{workload} seed 1"]
        assert entry["command"] == f"python3 perfbench/run.py --workload {workload} --seed 1"
        wall = entry["metrics"]["wall_s"]
        assert wall["runs"] == {"parent": [scale * 1.0] * 2, "change": [scale * 0.5] * 2}
        assert wall["change_wins"] == 2


def test_a_refused_run_in_a_later_workload_writes_nothing(monkeypatch, tmp_path):
    reports = iter([{"correct": True, "metrics": {"wall_s": {"value": 1.0}, "cases_per_s": {"value": 100.0}}}] * 4)

    class Done:
        returncode = 0

        @property
        def stdout(self):
            return json.dumps(next(reports, {"correct": False}))

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: Done())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    out = tmp_path / "BENCH.json"
    argv = [
        "--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "a", "--workload", "b",
        "--pairs", "2", "--out", str(out),
    ]
    assert bench_pairs.main(argv) == 1
    assert not out.exists()
