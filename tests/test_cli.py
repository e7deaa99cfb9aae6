import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from commsemi import cli, group, oracle, sigma, survey


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestValidate:
    def test_valid(self, capsys):
        code, rep, _ = run_json(capsys, "validate", "--m", "63", "--k", "2")
        assert code == 0
        assert rep["schema_version"] == "1"
        assert rep["command"] == "validate"
        assert rep["payload"] == {"valid": True, "m": 63, "k": 2, "n": 6}

    def test_non_trivial_centre(self, capsys):
        code, rep, err = run_json(capsys, "validate", "--m", "9", "--k", "4")
        assert code == 2
        assert rep["payload"]["valid"] is False
        assert rep["payload"]["reason"] == "NonTrivialCentre"
        assert "invalid" in err

    def test_abelian(self, capsys):
        code, rep, _ = run_json(capsys, "validate", "--m", "5", "--k", "1")
        assert code == 2
        assert rep["payload"]["reason"] == "Abelian"

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--m", "63"])
        assert exc.value.code == 1

    def test_unknown_command_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "validate", "--m", "63", "--k", "2", "--format", "table")
        assert code == 0
        assert "n = 6" in out


class TestAnalyze:
    def test_right_side(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", "--m", "63", "--k", "2", "--side", "right")
        assert code == 0
        (a,) = rep["payload"]["analyses"]
        assert a["side"] == "right"
        assert a["base"] == [0, 1, 3, 7, 15, 31]
        assert a["closure_size"] == 30
        assert a["non_basic_representatives"] == [9, 21, 42]
        assert a["total_order"] == 1566
        assert a["complete"] is False

    def test_both_sides_default(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", "--m", "3", "--k", "2")
        assert code == 0
        sides = [a["side"] for a in rep["payload"]["analyses"]]
        assert sides == ["right", "left"]
        orders = [a["total_order"] for a in rep["payload"]["analyses"]]
        assert orders == [6, 9]

    def test_custom_base(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", "--m", "5", "--k", "3", "--base", "0,4")
        assert code == 0
        (a,) = rep["payload"]["analyses"]
        assert a["side"] == "custom"
        assert a["total_order"] == 15
        assert a["complete"] is True

    def test_invalid_presentation_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--m", "9", "--k", "4")
        assert code == 2 and out == ""

    def test_invalid_base_exit_3(self, capsys):
        code, out, err = run(capsys, "analyze", "--m", "5", "--k", "3", "--base", "1,2")
        assert code == 3
        assert "invalid base" in err

    def test_table_format_containers(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--m", "63", "--k", "2", "--side", "right",
            "--format", "table",
        )
        assert code == 0
        assert "C(9; 3)" in out
        assert "NON-BASIC" in out

    # SHA-256 of analyze stdout, (json, table).  G(63,6,2) carries non-basic
    # orbits 9/21/42 and two-container families; G(7,6,3) is complete on
    # both sides; the base {0,3,7,8} of Z_63 has nine non-basic orbits.
    # Any change to these bytes is a schema change.
    PINNED = {
        ("63", "2", "--side", "right"): (
            "ea3922c5c0fac431bdad3dd05962f4491c5b8a6cec73a2abcc1b17b9afdd258c",
            "dfa28ad1a1d2b50e0ccbc7e89039f51f2d1ab9d5c9138d0310c0cb4132bb4e79",
        ),
        ("63", "2", "--side", "left"): (
            "64d424a6984621f57c137a6bb4aa90a6a8798bd42461e7e78c34ae5e9da8f20a",
            "d7f78ddf2812ed7a840e565e4002139a01ed02b979cc5122758c0647de82fc46",
        ),
        ("7", "3", "--side", "right"): (
            "fdf6d88ab9b2f91dc051fd7a6be71ffd5f81c39c88fb8727c306dd4fe4ad561e",
            "4b2ab770ba3f07ba067b1b0d8598be7b58ef2f7f59c28dae95d4b11d2bbd691e",
        ),
        ("7", "3", "--side", "left"): (
            "8f76eba25b4418093620990b3fb8e3248775c9d40d29108ef1538ebe9b6fbc03",
            "2feb703d5e22fc49335b29a9bbed4eda65077c76424021b5102fa2957e5b6cb3",
        ),
        ("63", "2", "--base", "0,8,3,7"): (
            "436b06f42b5a28b087d40fd26d5259001f4e9f33f85f3654df7ba1431bed6204",
            "ffa0f7ef84723059b1f93dbbeb6b60434241b7be971b36d3d40b260b53802318",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: "_".join(c).replace("--", ""))
    def test_stdout_bytes_pinned(self, capsys, case):
        m, k, *rest = case
        for fmt, want in zip(("json", "table"), self.PINNED[case]):
            code, out, _ = run(capsys, "analyze", "--m", m, "--k", k, *rest, "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want, (case, fmt)


class TestOracle:
    def test_both_sides_agree(self, capsys):
        code, rep, _ = run_json(capsys, "oracle", "--m", "3", "--k", "2")
        assert code == 0
        checks = rep["payload"]["checks"]
        assert [c["engine_order"] for c in checks] == [6, 9]
        assert all(c["agree"] for c in checks)
        assert all(c["table_status"] == "ok" for c in checks)

    def test_g63_values(self, capsys):
        code, rep, _ = run_json(capsys, "oracle", "--m", "63", "--k", "2", "--side", "right")
        assert code == 0
        (c,) = rep["payload"]["checks"]
        assert c["engine_order"] == c["pair_order"] == c["table_order"] == 1566

    def test_custom_base(self, capsys):
        code, rep, _ = run_json(capsys, "oracle", "--m", "5", "--k", "3", "--base", "0,4")
        assert code == 0
        (c,) = rep["payload"]["checks"]
        assert c["engine_order"] == 15
        assert c["table_status"] == "not_applicable"

    def test_cap_exceeded_exit_5(self, capsys, monkeypatch):
        # G(101,100,2) has order 10100 > oracle.TABLE_CAP: no grid is built
        def build(*args):
            raise AssertionError("generator tables reached")

        monkeypatch.setattr(oracle, "_generator_tables", build)
        code, rep, err = run_json(capsys, "oracle", "--m", "101", "--k", "2", "--side", "right")
        assert code == 5
        assert rep["parameters"]["oracle_cap"] == oracle.TABLE_CAP
        (c,) = rep["payload"]["checks"]
        assert c["table_status"] == "cap_exceeded"
        assert c["pair_agree"] is True

    def test_entry_budget_exit_5(self, capsys):
        # G(1031,2,1030) right: m*n = 2062 is under the cap, but the closure
        # outgrows oracle.TABLE_ENTRY_LIMIT and is refused, not OOM-killed
        code, rep, err = run_json(capsys, "oracle", "--m", "1031", "--k", "1030", "--side", "right")
        assert code == 5
        assert err == "table oracle skipped: cap exceeded\n"
        (c,) = rep["payload"]["checks"]
        assert c["table_status"] == "cap_exceeded" and c["table_order"] is None
        assert c["pair_agree"] is True

    def test_invalid_presentation_exit_2(self, capsys):
        code, _, _ = run(capsys, "oracle", "--m", "9", "--k", "4")
        assert code == 2

    @pytest.mark.parametrize("mk", [("2003", "5"), ("46343", "46342")])
    def test_pair_budget_exit_6(self, capsys, monkeypatch, mk):
        # G(2003,2002,5): 8.0e9 products; G(46343,2,46342): 2.1e9 mask entries.
        # Both are refused before the engine runs.
        def reached(*args, **kwargs):
            raise AssertionError("engine reached past the pair budget")

        monkeypatch.setattr(sigma, "analyze", reached)
        code, out, err = run(capsys, "oracle", "--m", mk[0], "--k", mk[1])
        assert code == 6
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("pair oracle refused: ")


class TestScan:
    def test_range(self, capsys):
        code, rep, _ = run_json(capsys, "scan", "--from", "3", "--to", "20")
        assert code == 0
        assert rep["payload"]["non_basic_m"] == {}
        recs = rep["payload"]["records"]
        assert recs and all(r["complete"] for r in recs)

    def test_summary_includes_63(self, capsys):
        code, rep, _ = run_json(capsys, "scan", "--from", "63", "--to", "63")
        assert code == 0
        assert rep["payload"]["non_basic_m"] == {"63": "3^2*7"}

    def test_deterministic_bytes_and_jobs(self, capsys):
        _, out1, _ = run(capsys, "scan", "--from", "3", "--to", "25")
        _, out2, _ = run(capsys, "scan", "--from", "3", "--to", "25")
        assert out1 == out2
        _, outj1, _ = run(capsys, "scan", "--from", "3", "--to", "25", "--jobs", "2")
        _, outj2, _ = run(capsys, "scan", "--from", "3", "--to", "25", "--jobs", "2")
        assert outj1 == outj2
        # the worker count shows up in parameters but never in the payload
        assert json.loads(out1)["payload"] == json.loads(outj1)["payload"]

    def test_bad_range_exit_1(self, capsys):
        code, _, err = run(capsys, "scan", "--from", "10", "--to", "5")
        assert code == 1

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "scan", "--from", "3", "--to", "10")
        rep = json.loads(out)
        assert json.dumps(rep, sort_keys=True, indent=2) + "\n" == out


# SHA-256 of the JSON stdout of the other commands, with their exit codes:
# a scan with its records and summary, both oracle checks of G(63,6,2), a
# verify suite, and one valid and one invalid validate.  Any change to these
# bytes is a schema change.
STDOUT_PINS = {
    ("scan", "--from", "3", "--to", "30"): (
        0, "6ddfd1d8e4526e691010edd99042e84d9a467ac048b4fd02244050709e71916e",
    ),
    ("oracle", "--m", "63", "--k", "2", "--side", "both"): (
        0, "3462762397eed0716bd7667a0dae96b24a806cb966ca4a39020086e4cfca74e1",
    ),
    ("verify", "prime-m", "--p-max", "13"): (
        0, "d2843eb6cb888154abab319ffefb74dbfd658012fa3dba53c69055a466e5591f",
    ),
    ("validate", "--m", "63", "--k", "2"): (
        0, "6168bb4ea0231b40c8c8a4ec2b2aeabbe313b774a4d6818af192598268ff4a85",
    ),
    ("validate", "--m", "9", "--k", "4"): (
        2, "b8392077049f63289b2255364ad349453a31d906f5bfd80af4aa70b1905b8c0e",
    ),
}


@pytest.mark.parametrize("argv", sorted(STDOUT_PINS), ids=lambda a: "_".join(a).replace("--", ""))
def test_json_stdout_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == STDOUT_PINS[argv]


# SHA-256 of the --format table stdout of the same commands, with their exit
# codes: the table renders the payload, so it is pinned beside the JSON.
TABLE_PINS = {
    ("scan", "--from", "3", "--to", "30"): (
        0, "d11a5984ce7b8c5c63306d4fbecdb28c42d32f89e3cbd89fb135ac1ada2c6334",
    ),
    ("oracle", "--m", "63", "--k", "2", "--side", "both"): (
        0, "809709b1e6f4ec72f224977f7dd1022d16326bd704150ae30a5677a79b0db31c",
    ),
    ("verify", "prime-m", "--p-max", "13"): (
        0, "651c6a3caf845c013b38a9f52d3fc7ece68d68e184639cd1da694ff441c00235",
    ),
    ("validate", "--m", "9", "--k", "4"): (
        2, "7d6f2497fab2ed3f443390673e442647d68149960007856ecf23b24c4a587c9c",
    ),
}


@pytest.mark.parametrize("argv", sorted(TABLE_PINS), ids=lambda a: "_".join(a).replace("--", ""))
def test_table_stdout_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "table")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == TABLE_PINS[argv]


# The exact diagnostic and exit code of each failure path that still writes
# (or, for the bad range, withholds) a report.
STDERR_PINS = {
    ("oracle", "--m", "1031", "--k", "1030", "--side", "right"): (
        5, "table oracle skipped: cap exceeded\n",
    ),
    ("validate", "--m", "9", "--k", "4"): (2, "invalid presentation: gcd(9, 3) = 3 != 1\n"),
    ("scan", "--from", "10", "--to", "5"): (1, "error: bad scan range [10, 5]\n"),
}


@pytest.mark.parametrize("argv", sorted(STDERR_PINS), ids=lambda a: "_".join(a).replace("--", ""))
def test_stderr_and_exit_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == STDERR_PINS[argv]
    assert (out == "") == (argv[0] == "scan")


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--from", "3", "--to", "5", "--jobs", "0"),
        ("scan", "--from", "3", "--to", "5", "--jobs", "-2"),
        ("verify", "prime-m", "--p-max", "-3"),
        ("verify", "prime-n", "--m-max", "-1"),
    ],
)
def test_bad_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and "must be a positive integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--m", "7", "--k", "9"),
        ("analyze", "--m", "7", "--k", "-1"),
        ("oracle", "--m", "1", "--k", "0"),
    ],
)
def test_out_of_range_is_invalid_presentation(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.count("\n") == 1 and "invalid presentation" in err
    if argv[0] == "validate":
        assert json.loads(out)["payload"]["reason"] == "OutOfRange"
    else:
        assert out == ""


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["validate", "analyze", "oracle"]),
    m=st.integers(-2, 40),
    k=st.integers(-3, 45),
    side=st.sampled_from([*sigma.SIDES, "both"]),
)
@example(command="validate", m=7, k=9, side="both")
@example(command="analyze", m=7, k=-1, side="both")
@example(command="oracle", m=1, k=0, side="both")
@example(command="oracle", m=1031, k=1030, side="right")
def test_every_m_k_answers_or_exits_documented(command, m, k, side):
    argv = [command, "--m", str(m), "--k", str(k)]
    if command != "validate":
        argv += ["--side", side]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert 0 <= code <= 5
    if out.getvalue():
        json.loads(out.getvalue())  # exactly one JSON document


class TestVerify:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "prime-m", "--p-max", "13"),
            ("verify", "prime-square-m", "--p-max", "5"),
            ("verify", "prime-n", "--m-max", "40"),
            ("verify", "lemma-6-4", "--m-max", "40"),
        ],
    )
    def test_suites_pass(self, capsys, argv):
        code, rep, _ = run_json(capsys, *argv)
        assert code == 0
        assert rep["payload"]["ok"] is True
        assert rep["payload"]["violations"] == []
        assert rep["payload"]["cases"] > 0

    def test_table_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "prime-m", "--p-max", "7", "--format", "table"
        )
        assert code == 0
        assert "zero violations" in out


# JSON trees for the writer: plain and huge ints, bools mixed into int lists
# (the type(v) is int trap), None, floats with -0.0, inf and nan, strings
# with quotes, backslashes, control characters and non-ASCII text, tuples
# beside lists, and empty and nested containers.
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(),
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf")]),
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f é \U0001f600'),
)
_int_lists = st.lists(st.one_of(st.integers(), st.booleans()), min_size=1)
# keys that a %-template or a str encoder could get wrong
_keys = st.text(alphabet='%s"\\é\U0001f600ab', max_size=3)


def _records(kids):
    """Lists of dicts sharing one key list, the records the writer encodes a
    column at a time: most share its (unsorted) order, some permute it."""
    def rows(keys):
        order = st.just(keys) | st.permutations(keys)
        row = order.flatmap(lambda ks: st.tuples(*[kids] * len(ks)).map(lambda vs: dict(zip(ks, vs))))
        return st.lists(row, min_size=1, max_size=5)

    return st.lists(_keys, min_size=1, max_size=4, unique=True).flatmap(rows)


_trees = st.recursive(
    _leaves | _int_lists,
    lambda kids: st.one_of(
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.dictionaries(st.text(), kids),
        _records(kids | st.integers() | st.booleans()),
        st.lists(st.lists(kids) | st.lists(kids).map(tuple) | _int_lists),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_trees)
@example([1, True])
@example({"a": [], "b": {}, "c": [[], {}], "": [0, -1, 2**64]})
@example([-0.0, float("inf"), float("nan"), None, False])
@example({"r": (), "s": [(), {}, [()]]})
@example([{"a%s": 1}, {"a%s": 2}])
@example([[1], [], (2, 3)])
@example([{"a": 1}, {"a": True}])
@example([{"b": 1, "a": 2}, {"a": 3, "b": 4}])
def test_writer_matches_json_dumps(tree):
    assert cli._dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "tree",
    [
        {1: 2}, {"a": {None: 1}}, [{1.5: 0}], {True: 0}, {(1,): 0},
        [{1: 0}, {1: 1}], [[{None: 0}], [{None: 1}]],  # records: one key tuple
    ],
)
def test_writer_refuses_non_str_keys(tree):
    with pytest.raises(TypeError):
        cli._dumps(tree)


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--m", "2003", "--k", "5", "--side", "both"),
        ("scan", "--from", "3", "--to", "60"),
        ("oracle", "--m", "63", "--k", "2"),
        ("verify", "prime-square-m"),
    ],
    ids=lambda a: "_".join(a).replace("--", ""),
)
def test_real_reports_round_trip(capsys, argv):
    _, out, _ = run(capsys, *argv)
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def _families_from_family_objects(a):
    """The families rows as built from SigmaAnalysis.families, one Family
    per x, each container listed by its sorted divisor."""
    m = a.presentation.m
    return [
        {
            "x": f.x,
            "maximal_containers": [
                {"x": f.x, "d": d, "order": m // d} for d in sorted(f.generators_d)
            ],
            "y_set_size": f.y_set_size,
            "complete": f.complete,
        }
        for f in a.families
    ]


def test_family_rows_match_family_objects():
    cases = [
        (p, side, survey.base_for(p, side))
        for m in range(3, 61)
        for p in survey.validated_presentations(m)
        for side in sigma.SIDES
    ]
    cases.append((group.validate(63, 2), "custom", sigma.make_base(63, [0, 1, 9, 21, 42])))
    assert len(cases) == 1159  # 1158 presentation sides with m ≤ 60, one custom base
    for p, side, base in cases:
        a = sigma.analyze(p, base)
        assert cli._analysis_payload(a, side)["families"] == _families_from_family_objects(a), (p, side)
