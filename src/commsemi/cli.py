"""Command-line front end.

One JSON report per invocation on stdout (schema_version, command,
parameters, payload; keys sorted, element lists ascending), diagnostics on
stderr.  The stdout contract is exact: the bytes are
json.dumps(report, sort_keys=True, indent=2) + "\n", written by this
module's own writer (_dumps), which produces those bytes without the
stdlib's pure-Python indent walk.  It encodes the items of a list a column
at a time: a scan's records and an analysis's family rows, dicts of one
shape, become one column per key and one %-template applied to each row.
--format table renders the same payload for humans: mu-maps print as
"(x,y)" and containers as "C(x; d)" with the canonical divisor.

There is one report path.  Each command returns its payload, exit code and
diagnostic, and main() writes the report and the diagnostic.  The
parameters are the parsed options (minus the command, its handler and the
output format), and the payloads are the library's records: a ScanRecord's
fields, a VerificationReport's fields plus ok, and a DifferentialReport's
fields plus agree.

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
from itertools import accumulate

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


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for trees
    of dicts with str keys, lists, tuples and scalars.  With any indent the
    stdlib leaves its C encoder for a Python walk with one generator frame
    per node.  This walk appends strings to one list, encodes a dict's
    scalar values in place and each empty container as it stands, and
    hands every non-empty list to _column, which encodes its items a
    column at a time; only rare leaves go to json.dumps."""
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


def _key(key) -> str:
    """A dict key's encoding; json.dumps would coerce some non-str keys, but
    no report has them, so the writer refuses them all."""
    if type(key) is not str:
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _encode_str(key)


def _write(o, nl: str, out: list[str]) -> None:
    """Append o's encoding to out; nl is the newline and indent of o's line."""
    enc = _ENCODERS.get(type(o))
    if enc is not None:
        out.append(enc(o))
    elif isinstance(o, dict) and o:
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            v = o[key]
            enc = _ENCODERS.get(type(v))
            if enc is None:
                out.append(sep + _key(key) + ": ")
                _write(v, inner, out)
            else:
                out.append(sep + _key(key) + ": " + enc(v))
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)) and o:
        inner = nl + "  "
        out.append("[" + inner + ("," + inner).join(_column(o, inner)) + nl + "]")
    elif isinstance(o, (dict, list, tuple)):  # empty: the non-empty ones are above
        out.append("{}" if isinstance(o, dict) else "[]")
    else:  # floats and subclasses of str and int
        out.append(json.dumps(o))


def _column(values, nl: str) -> list[str]:
    """The encoding of each of values, every one starting on a line whose
    newline and indent is nl.  Values of one type are encoded together: one
    _ENCODERS type in one map; non-empty dicts sharing one key tuple as
    records, one column per key and one %-template for the rows; lists (or
    tuples) flattened into one column and sliced back.  The rest go item by
    item through _write."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    inner = nl + "  "
    if kind in _ENCODERS:
        return list(map(_ENCODERS[kind], values))
    if kind is dict:
        shapes = set(map(tuple, values))
        keys = sorted(shapes.pop()) if len(shapes) == 1 else ()
        if keys:
            fields = ("," + inner).join(_key(k).replace("%", "%%") + ": %s" for k in keys)
            cols = [_column([d[k] for d in values], inner) for k in keys]
            return list(map(("{" + inner + fields + nl + "}").__mod__, zip(*cols)))
    if kind is list or kind is tuple:
        flat = _column([v for o in values for v in o], inner)
        ends = list(accumulate(map(len, values)))
        head, sep, tail = "[" + inner, "," + inner, nl + "]"
        return [head + sep.join(flat[s:e]) + tail if s < e else "[]" for s, e in zip([0, *ends], ends)]
    out = []
    for v in values:
        parts: list[str] = []
        _write(v, nl, parts)
        out.append("".join(parts))
    return out


# ---------------------------------------------------------------------------
# table rendering


def _render_table(cmd: str, pay: dict) -> None:
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
            order = "" if c["table_order"] is None else f" ({c['table_order']})"
            print(
                f"[{c['base_label']}] engine={c['engine_order']} pair={c['pair_order']}, "
                f"table={c['table_status']}{order}: {'agree' if c['agree'] else 'MISMATCH'}"
            )
            w = c["witness"]
            if w is not None:
                print(f"  witness ({w['x']},{w['y']})")
    elif cmd == "scan":
        for r in pay["records"]:
            reps = ",".join(str(t) for t in r["non_basic_reps"]) or "-"
            print(
                f"m={r['m']} k={r['k']} n={r['n']} {r['side']:>5}: "
                f"order={r['order']} complete={r['complete']} non-basic=[{reps}]"
            )
        listing = ", ".join(f"{m} = {f}" for m, f in pay["non_basic_m"].items())
        print(f"moduli with non-basic orbits: {listing or 'none'}")
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
    """The analysis as a report: S*, its orbits, and one family row per x
    of S*, ascending.  A family is x's view of its orbit, so each orbit's
    containers (d, m // d), y-set size and completeness are built once and
    filed under every x of it."""
    m = a.presentation.m
    closure = sorted(a.closure.elements)
    view: dict[int, tuple] = {}
    for o in a.orbits:
        containers = [(d, m // d) for d in sorted(o.generators_d)]
        view.update(dict.fromkeys(o.elements, (containers, o.y_set_size, 1 in o.generators_d)))
    return {
        "side": side_label,
        "base": sorted(a.base.elements),
        "closure_size": len(closure),
        "closure": closure,
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
                "x": x,
                "maximal_containers": [{"x": x, "d": d, "order": q} for d, q in containers],
                "y_set_size": size,
                "complete": complete,
            }
            for x, (containers, size, complete) in zip(closure, map(view.__getitem__, closure))
        ],
        "total_order": a.total_order,
        "complete": a.complete,
    }


def _check_payload(rep: oracle.DifferentialReport) -> dict:
    """The report's fields plus agree, with the witness map as {x, y}."""
    witness = None if rep.witness is None else vars(rep.witness)
    return {**vars(rep), "agree": rep.agree, "witness": witness}


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

# what each command hands to main(): its payload (None when it writes no
# report), its exit code, and its diagnostic for stderr (None when silent)
_Outcome = tuple[dict | None, int, str | None]


def _cmd_validate(args) -> _Outcome:
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
        return payload, EX_INVALID_PRESENTATION, f"invalid presentation: {exc}"
    return {"valid": True, "m": p.m, "k": p.k, "n": p.n}, EX_OK, None


def _cmd_analyze(args) -> _Outcome:
    p = group.validate(args.m, args.k)
    analyses = [
        _analysis_payload(sigma.analyze(p, base), label)
        for label, base in _sides_and_bases(p, args)
    ]
    return {"analyses": analyses}, EX_OK, None


def _cmd_oracle(args) -> _Outcome:
    p = group.validate(args.m, args.k)
    reports = [oracle.differential_check(p, base) for _, base in _sides_and_bases(p, args)]
    payload = {"checks": [_check_payload(r) for r in reports]}
    if not all(r.agree for r in reports):
        return payload, EX_MISMATCH, "oracle mismatch"
    if any(r.table_status == "cap_exceeded" for r in reports):
        return payload, EX_CAP_EXCEEDED, "table oracle skipped: cap exceeded"
    return payload, EX_OK, None


def _cmd_scan(args) -> _Outcome:
    try:
        records = survey.scan(getattr(args, "from"), args.to, jobs=args.jobs)
    except ValueError as exc:
        return None, EX_USAGE, f"error: {exc}"
    hits = {str(m): f for m, f in survey.non_basic_moduli(records).items()}
    return {"records": [vars(r) for r in records], "non_basic_m": hits}, EX_OK, None


# verify's suites: the option bounding each, its default, and its survey
# function, named so that it is looked up in survey at call time
_SUITES = {
    "prime-m": ("p_max", 97, "verify_prime_m"),
    "prime-square-m": ("p_max", 11, "verify_prime_square_m"),
    "prime-n": ("m_max", 200, "verify_prime_n"),
    "lemma-6-4": ("m_max", 125, "verify_minimal_prime_index"),
}


def _cmd_verify(args) -> _Outcome:
    flag, _, suite = _SUITES[args.suite]
    report = getattr(survey, suite)(getattr(args, flag))
    payload = {**vars(report), "ok": report.ok}
    if report.ok:
        return payload, EX_OK, None
    return payload, EX_MISMATCH, f"{len(report.violations)} violations"


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    """argparse type for counts and bounds; a bad value is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(
        prog="commsemi",
        description=(
            "Commutation semigroups of finite metacyclic groups with trivial "
            "centre: container-calculus analysis, brute-force oracles, surveys."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    presentation = argparse.ArgumentParser(add_help=False)
    presentation.add_argument("--m", type=int, required=True)
    presentation.add_argument("--k", type=int, required=True)
    sides = argparse.ArgumentParser(add_help=False, parents=[presentation])
    sides.add_argument("--side", choices=(*sigma.SIDES, "both"), default="both")
    sides.add_argument("--base", help="comma-separated residues overriding --side")

    p_val = sub.add_parser(
        "validate", parents=[presentation], help="validate a presentation G(m, ind_m(k), k)"
    )
    p_val.set_defaults(func=_cmd_validate)
    p_an = sub.add_parser(
        "analyze", parents=[sides], help="decompose a commutation or custom semigroup"
    )
    p_an.set_defaults(func=_cmd_analyze)
    p_or = sub.add_parser(
        "oracle", parents=[sides], help="differential check against brute-force oracles"
    )
    # not an option: the table oracle's cap is reported among the parameters
    p_or.set_defaults(func=_cmd_oracle, oracle_cap=oracle.TABLE_CAP)
    p_sc = sub.add_parser("scan", help="survey a range of moduli for non-basic orbits")
    p_sc.add_argument("--from", dest="from", type=int, required=True)
    p_sc.add_argument("--to", type=int, required=True)
    p_sc.add_argument("--jobs", type=_positive_int, default=1)
    p_sc.set_defaults(func=_cmd_scan)
    leaves = [p_val, p_an, p_or, p_sc]

    p_ve = sub.add_parser("verify", help="run a theorem verification suite")
    ver_sub = p_ve.add_subparsers(dest="suite", required=True, parser_class=_Parser)
    for name, (flag, default, _) in _SUITES.items():
        sp = ver_sub.add_parser(name)
        sp.add_argument(
            f"--{flag.replace('_', '-')}", dest=flag, type=_positive_int, default=default
        )
        sp.set_defaults(func=_cmd_verify)
        leaves.append(sp)

    # added after each command's own options, so every usage line ends with it
    for leaf in leaves:
        leaf.add_argument("--format", choices=("json", "table"), default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code, diagnostic = args.func(args)
    except group.InvalidPresentation as exc:
        payload, code, diagnostic = None, EX_INVALID_PRESENTATION, f"invalid presentation: {exc}"
    except sigma.InvalidBase as exc:
        payload, code, diagnostic = None, EX_INVALID_BASE, f"invalid base: {exc}"
    except oracle.PairBudgetExceeded as exc:
        payload, code, diagnostic = None, EX_PAIR_BUDGET, f"pair oracle refused: {exc}"
    if payload is not None and args.format == "table":
        _render_table(args.command, payload)
    elif payload is not None:
        params = {
            key: v for key, v in vars(args).items() if key not in ("command", "func", "format")
        }
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "parameters": params,
            "payload": payload,
        }
        print(_dumps(report))
    if diagnostic is not None:
        print(diagnostic, file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
