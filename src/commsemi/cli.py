"""Command-line front end.

One JSON report per invocation on stdout (schema_version, command,
parameters, payload; keys sorted, element lists ascending), diagnostics on
stderr.  The stdout contract is exact: the bytes are
json.dumps(report, sort_keys=True, indent=2) + "\n", written by this
module's own writer (_dumps), which produces those bytes without the
stdlib's pure-Python indent walk.  --format table renders the same payload
for humans: mu-maps print as "(x,y)" and containers as "C(x; d)" with the
canonical divisor.

Exit codes: 0 success/agreement, 1 usage error, 2 invalid presentation,
3 invalid base, 4 oracle mismatch or verification violation, 5 table
oracle skipped: m*n over oracle.TABLE_CAP or the exact closure over
oracle.TABLE_ENTRY_LIMIT entries, 6 pair oracle refused: m*m or m*m*|S| is
over its budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import group, oracle, sigma, survey

SCHEMA_VERSION = "1"

EX_OK = 0
EX_USAGE = 1
EX_INVALID_PRESENTATION = 2
EX_INVALID_BASE = 3
EX_MISMATCH = 4
EX_CAP_EXCEEDED = 5
EX_PAIR_BUDGET = 6


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the report contract reserves 2 for
    invalid presentations, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _report(command: str, parameters: dict, payload) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "payload": payload,
    }


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for trees
    of dicts with str keys, lists, tuples and scalars.  With any indent the
    stdlib leaves its C encoder for a Python walk with one generator frame
    per node; this walk appends strings to one list, encodes a dict's
    scalar values in place, writes each list of plain ints in one join,
    and leaves only rare leaves to json.dumps."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii

# the leaves encoded in place, by exact type: a bool is not an int here, so
# [1, True] takes the item-by-item route and prints true
_ENCODERS = {
    int: int.__repr__,
    str: _encode_str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _write(o, nl: str, out: list[str]) -> None:
    """Append o's encoding to out; nl is the newline and indent of o's line."""
    enc = _ENCODERS.get(type(o))
    if enc is not None:
        out.append(enc(o))
    elif isinstance(o, dict) and o:
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            v = o[key]
            enc = _ENCODERS.get(type(v))
            if enc is None:
                out.append(sep + _encode_str(key) + ": ")
                _write(v, inner, out)
            else:
                out.append(sep + _encode_str(key) + ": " + enc(v))
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)) and o:
        inner = nl + "  "
        if set(map(type, o)) == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]")
            return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:  # floats, subclasses of str and int, and empty dicts and lists
        out.append(json.dumps(o))


def _emit(rep: dict, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(rep))
    else:
        _render_table(rep)


# ---------------------------------------------------------------------------
# table rendering


def _render_table(rep: dict) -> None:
    cmd = rep["command"]
    pay = rep["payload"]
    if cmd == "validate":
        if pay["valid"]:
            print(f"G({pay['m']},{pay['n']},{pay['k']}) is valid: n = {pay['n']}")
        else:
            print(f"invalid presentation: {pay['reason']} ({pay['detail']})")
    elif cmd == "analyze":
        for a in pay["analyses"]:
            _render_analysis(a)
    elif cmd == "oracle":
        for c in pay["checks"]:
            status = "agree" if c["agree"] else "MISMATCH"
            table = c["table_status"]
            extra = f", table={table}"
            if c["table_order"] is not None:
                extra += f" ({c['table_order']})"
            print(
                f"[{c['base_label']}] engine={c['engine_order']} "
                f"pair={c['pair_order']}{extra}: {status}"
            )
            if c["witness"] is not None:
                w = c["witness"]
                print(f"  witness ({w['x']},{w['y']})")
    elif cmd == "scan":
        for r in pay["records"]:
            reps = ",".join(str(t) for t in r["non_basic_reps"]) or "-"
            print(
                f"m={r['m']} k={r['k']} n={r['n']} {r['side']:>5}: "
                f"order={r['order']} complete={r['complete']} non-basic=[{reps}]"
            )
        hits = pay["non_basic_m"]
        if hits:
            listing = ", ".join(f"{m} = {f}" for m, f in hits.items())
            print(f"moduli with non-basic orbits: {listing}")
        else:
            print("moduli with non-basic orbits: none")
    elif cmd == "verify":
        print(f"suite {pay['suite']}: {pay['cases']} cases, ", end="")
        if pay["ok"]:
            print("zero violations")
        else:
            print(f"{len(pay['violations'])} violations")
            for v in pay["violations"]:
                print(f"  {v}")


def _render_analysis(a: dict) -> None:
    print(f"== {a['side']} ==")
    print(f"base: {a['base']}")
    print(f"closure ({a['closure_size']}): {a['closure']}")
    print(f"units: {a['units']}")
    print("orbits:")
    for o in a["orbits"]:
        flag = "basic" if o["basic"] else "NON-BASIC"
        print(f"  rep {o['representative']:>5} size {len(o['elements']):>4} {flag}")
    print("families:")
    for f in a["families"]:
        cs = " ".join(f"C({c['x']}; {c['d']})" for c in f["maximal_containers"])
        print(
            f"  x={f['x']:>5} size {f['y_set_size']:>6} "
            f"complete={f['complete']} maximal: {cs}"
        )
    print(f"total order: {a['total_order']}  complete: {a['complete']}")


# ---------------------------------------------------------------------------
# payload builders


def _analysis_payload(a: sigma.SigmaAnalysis, side_label: str) -> dict:
    m = a.presentation.m
    return {
        "side": side_label,
        "base": sorted(a.base.elements),
        "closure_size": len(a.closure.elements),
        "closure": sorted(a.closure.elements),
        "units": sorted(a.closure.units),
        "non_units": sorted(a.closure.non_units),
        "orbits": [
            {
                "representative": o.representative,
                "elements": sorted(o.elements),
                "basic": o.basic,
            }
            for o in a.orbits
        ],
        "non_basic_representatives": [
            o.representative for o in a.orbits if not o.basic
        ],
        "families": [
            {
                "x": f.x,
                "maximal_containers": [
                    {"x": f.x, "d": d, "order": m // d} for d in sorted(f.generators_d)
                ],
                "y_set_size": f.y_set_size,
                "complete": f.complete,
            }
            for f in a.families
        ],
        "total_order": a.total_order,
        "complete": a.complete,
    }


def _check_payload(rep: oracle.DifferentialReport) -> dict:
    return {
        "base_label": rep.base_label,
        "base": list(rep.base),
        "engine_order": rep.engine_order,
        "pair_order": rep.pair_order,
        "pair_agree": rep.pair_agree,
        "table_status": rep.table_status,
        "table_order": rep.table_order,
        "table_agree": rep.table_agree,
        "agree": rep.agree,
        "witness": None if rep.witness is None else {"x": rep.witness.x, "y": rep.witness.y},
    }


def _parse_base(text: str, m: int) -> sigma.BaseSet:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise sigma.InvalidBase(f"base must be comma-separated integers, got {text!r}")
    return sigma.make_base(m, values)


def _sides_and_bases(p, args) -> list[tuple[str, sigma.BaseSet]]:
    if args.base is not None:
        return [("custom", _parse_base(args.base, p.m))]
    sides = sigma.SIDES if args.side == "both" else [args.side]
    return [(s, survey.base_for(p, s)) for s in sides]


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> int:
    params = {"m": args.m, "k": args.k}
    try:
        p = group.validate(args.m, args.k)
    except group.InvalidPresentation as exc:
        payload = {
            "valid": False,
            "m": args.m,
            "k": args.k,
            "reason": type(exc).__name__,
            "detail": str(exc),
        }
        _emit(_report("validate", params, payload), args.format)
        print(f"invalid presentation: {exc}", file=sys.stderr)
        return EX_INVALID_PRESENTATION
    payload = {"valid": True, "m": p.m, "k": p.k, "n": p.n}
    _emit(_report("validate", params, payload), args.format)
    return EX_OK


def _cmd_analyze(args) -> int:
    params = {"m": args.m, "k": args.k, "side": args.side, "base": args.base}
    p = group.validate(args.m, args.k)
    analyses = [
        _analysis_payload(sigma.analyze(p, base), label)
        for label, base in _sides_and_bases(p, args)
    ]
    _emit(_report("analyze", params, {"analyses": analyses}), args.format)
    return EX_OK


def _cmd_oracle(args) -> int:
    params = {
        "m": args.m,
        "k": args.k,
        "side": args.side,
        "base": args.base,
        "oracle_cap": oracle.TABLE_CAP,
    }
    p = group.validate(args.m, args.k)
    checks = [
        _check_payload(oracle.differential_check(p, base))
        for _, base in _sides_and_bases(p, args)
    ]
    _emit(_report("oracle", params, {"checks": checks}), args.format)
    if any(not c["agree"] for c in checks):
        print("oracle mismatch", file=sys.stderr)
        return EX_MISMATCH
    if any(c["table_status"] == "cap_exceeded" for c in checks):
        print("table oracle skipped: cap exceeded", file=sys.stderr)
        return EX_CAP_EXCEEDED
    return EX_OK


def _cmd_scan(args) -> int:
    params = {"from": getattr(args, "from"), "to": args.to, "jobs": args.jobs}
    try:
        records = survey.scan(params["from"], params["to"], jobs=args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    payload = {
        "records": [
            {
                "m": r.m,
                "k": r.k,
                "n": r.n,
                "side": r.side,
                "non_basic_reps": list(r.non_basic_reps),
                "complete": r.complete,
                "order": r.order,
            }
            for r in records
        ],
        "non_basic_m": {
            str(m): f for m, f in survey.non_basic_moduli(records).items()
        },
    }
    _emit(_report("scan", params, payload), args.format)
    return EX_OK


def _cmd_verify(args) -> int:
    suites = {
        "prime-m": lambda: survey.verify_prime_m(args.p_max),
        "prime-square-m": lambda: survey.verify_prime_square_m(args.p_max),
        "prime-n": lambda: survey.verify_prime_n(args.m_max),
        "lemma-6-4": lambda: survey.verify_minimal_prime_index(args.m_max),
    }
    report = suites[args.suite]()
    params = {"suite": args.suite}
    if hasattr(args, "p_max"):
        params["p_max"] = args.p_max
    if hasattr(args, "m_max"):
        params["m_max"] = args.m_max
    payload = {
        "suite": report.suite,
        "cases": report.cases,
        "violations": list(report.violations),
        "ok": report.ok,
    }
    _emit(_report("verify", params, payload), args.format)
    if not report.ok:
        print(f"{len(report.violations)} violations", file=sys.stderr)
        return EX_MISMATCH
    return EX_OK


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    """argparse type for counts and bounds; a bad value is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_format(p) -> None:
    p.add_argument("--format", choices=("json", "table"), default="json")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="commsemi",
        description=(
            "Commutation semigroups of finite metacyclic groups with trivial "
            "centre: container-calculus analysis, brute-force oracles, surveys."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_val = sub.add_parser("validate", help="validate a presentation G(m, ind_m(k), k)")
    p_val.add_argument("--m", type=int, required=True)
    p_val.add_argument("--k", type=int, required=True)
    _add_format(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_an = sub.add_parser("analyze", help="decompose a commutation or custom semigroup")
    p_an.add_argument("--m", type=int, required=True)
    p_an.add_argument("--k", type=int, required=True)
    p_an.add_argument("--side", choices=(*sigma.SIDES, "both"), default="both")
    p_an.add_argument("--base", help="comma-separated residues overriding --side")
    _add_format(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_or = sub.add_parser("oracle", help="differential check against brute-force oracles")
    p_or.add_argument("--m", type=int, required=True)
    p_or.add_argument("--k", type=int, required=True)
    p_or.add_argument("--side", choices=(*sigma.SIDES, "both"), default="both")
    p_or.add_argument("--base", help="comma-separated residues overriding --side")
    _add_format(p_or)
    p_or.set_defaults(func=_cmd_oracle)

    p_sc = sub.add_parser("scan", help="survey a range of moduli for non-basic orbits")
    p_sc.add_argument("--from", dest="from", type=int, required=True)
    p_sc.add_argument("--to", type=int, required=True)
    p_sc.add_argument("--jobs", type=_positive_int, default=1)
    _add_format(p_sc)
    p_sc.set_defaults(func=_cmd_scan)

    p_ve = sub.add_parser("verify", help="run a theorem verification suite")
    ver_sub = p_ve.add_subparsers(dest="suite", required=True, parser_class=_Parser)
    for name, flag, default in (
        ("prime-m", "p_max", 97),
        ("prime-square-m", "p_max", 11),
        ("prime-n", "m_max", 200),
        ("lemma-6-4", "m_max", 125),
    ):
        sp = ver_sub.add_parser(name)
        sp.add_argument(
            f"--{flag.replace('_', '-')}", dest=flag, type=_positive_int, default=default
        )
        _add_format(sp)
        sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except group.InvalidPresentation as exc:
        print(f"invalid presentation: {exc}", file=sys.stderr)
        return EX_INVALID_PRESENTATION
    except sigma.InvalidBase as exc:
        print(f"invalid base: {exc}", file=sys.stderr)
        return EX_INVALID_BASE
    except oracle.PairBudgetExceeded as exc:
        print(f"pair oracle refused: {exc}", file=sys.stderr)
        return EX_PAIR_BUDGET


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
