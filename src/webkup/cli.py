"""Command-line surface.

Sign strings use the characters o, +, -, x on the command line; state
strings use 1, 0, m for the states +1, 0, -1.  Laurent values print in
the canonical text form, least to greatest exponent never mixed: highest
power first, e.g. "q^2 + 1 + q^-2".

Exit codes: 0 success, 1 a verification report failed, 2 usage errors
(bad flags, malformed strings, unusable input files).  A counterexample
found by search-counterexample is a result, not a failure: it is reported
on stdout and the exit code stays 0.
"""

from __future__ import annotations

import argparse
import json
import sys

# no artifact command runs acceptance, howe, planar or render: their handlers import them
from .qlaurent import LaurentPoly
from .webs import LadderWeb, format_states, parse_states, weight_of_signs
from .flows import bracket, expansion
from .growth import dominant_states, flow_census, growth, web_space
from .tableaux import center_dim, is_balanced, is_semistandard, state_to_filling
from .dualcan import default_budget, element, search_counterexample
from .cache import Workspace, dumps


class UsageError(Exception):
    pass


def _sign_string(s: str) -> str:
    try:
        weight_of_signs(s)
    except (ValueError, KeyError):
        raise argparse.ArgumentTypeError(
            f"bad sign string {s!r}: use characters o + - x"
        )
    return s


def _state_string(s: str):
    try:
        return parse_states(s)
    except (ValueError, KeyError):
        raise argparse.ArgumentTypeError(
            f"bad state string {s!r}: use characters 1 0 m"
        )


def _read_web(path: str) -> LadderWeb:
    try:
        text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    try:
        return LadderWeb.from_json(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"{path} is not a ladder web: {exc}")


def _emit(doc) -> None:
    print(dumps(doc, indent=2))


def _poly_out(p: LaurentPoly, q1: bool):
    return p.eval_at_one() if q1 else str(p)


def _rows_at_one(table: dict) -> dict:
    """A cached {row: {col: Laurent string}} table read back at q = 1,
    parsing each distinct text once."""
    texts = {v for row in table.values() for v in row.values()}
    at_one = {v: LaurentPoly.parse(v).eval_at_one() for v in texts}
    return {J: {k: at_one[v] for k, v in row.items()} for J, row in table.items()}


# -- per-boundary artifact payloads (also the cached representations) --------


def basis_payload(signs: str) -> dict:
    space = web_space(signs)
    return {
        "signs": signs,
        "webs": {
            format_states(J): w.to_json() for J, w in space.basis.items()
        },
    }


def _text_writer():
    """A function writing a {state: Laurent} row as {state string: text}.
    Over all the rows it writes, each distinct state and each distinct
    coefficient is written once; a boundary's rows share a few thousand
    states and a few dozen coefficients among tens of thousands of
    entries."""
    state_text: dict[tuple, str] = {}
    coeff_text: dict[tuple, str] = {}

    def write(vec: dict) -> dict:
        row = {}
        for k, v in vec.items():
            key = state_text.get(k)
            if key is None:
                key = state_text[k] = format_states(k)
            items = tuple(v.coeffs.items())
            text = coeff_text.get(items)
            if text is None:
                text = coeff_text[items] = str(v)
            row[key] = text
        return row

    return write


def expansions_payload(signs: str) -> dict:
    write = _text_writer()
    return {format_states(J): write(exp) for J, exp in web_space(signs).scan()}


def dualcan_payload(signs: str) -> dict:
    """The dual canonical elements of signs and their non-empty rows, as
    text.  Each element is built along the space's scan, written, and
    dropped from space.elements unless it was there before; only its text
    is kept.  Dropping is safe: the scan descends, and element(J) reads
    only elements below J."""
    space = web_space(signs)
    kept = set(space.elements)
    write = _text_writer()
    elements, d_matrix = {}, {}
    for J, _ in space.scan():
        vec, row = element(space, J)
        key = format_states(J)
        elements[key] = write(vec)
        if row:
            d_matrix[key] = write(row)
        if J not in kept:
            del space.elements[J]
    return {"elements": elements, "d_matrix": d_matrix}


def blocks_payload(signs: str) -> dict:
    mult = {format_states(J): m for J, m in flow_census(signs).items()}
    return {
        "multiplicities": mult,
        "sum_of_squares": sum(c * c for c in mult.values()),
    }


_BUILDERS = {
    "basis": basis_payload,
    "expansions": expansions_payload,
    "dualcan": dualcan_payload,
    "blocks": blocks_payload,
}


def _artifact(args, kind: str, signs: str) -> dict:
    if not args.cache:
        return _BUILDERS[kind](signs)
    ws = Workspace.from_env()
    try:
        return ws.fetch(kind, signs, lambda: _BUILDERS[kind](signs))
    except OSError as exc:
        raise UsageError(f"cannot use cache directory {ws.root}: {exc}")


# -- subcommands --------------------------------------------------------------


def cmd_enumerate(args) -> int:
    payload = _artifact(args, "basis", args.signs)
    if args.json:
        _emit(payload)
        return 0
    for key in sorted(payload["webs"]):
        web = payload["webs"][key]
        print(f"{key} {json.dumps(web, sort_keys=True, separators=(',', ':'))}")
    return 0


def cmd_eval(args) -> int:
    from .planar import PlanarWeb, rewrite_bracket
    web = _read_web(args.closed)
    if not web.is_closed():
        raise UsageError("eval needs a closed web (all boundary labels 0 or 3)")
    if args.route in ("statesum", "both"):
        value = bracket(web)
    else:
        value = rewrite_bracket(PlanarWeb.from_ladder(web))
    if args.route == "both" and rewrite_bracket(PlanarWeb.from_ladder(web)) != value:
        print("FAIL: the two evaluators disagree", file=sys.stderr)
        return 1
    print(_poly_out(value, args.q1))
    return 0


def cmd_expand(args) -> int:
    if args.boundary == []:  # argparse reads --boundary=-- as an empty list
        args.boundary = "--"
    if (args.web is None) == (args.boundary is None):
        raise UsageError("expand needs a web file or --boundary, not both")
    if args.boundary is not None:
        payload = _artifact(args, "expansions", args.boundary)
        _emit(_rows_at_one(payload) if args.q1 else payload)
        return 0
    web = _read_web(args.web)
    if not web.has_closed_bottom():
        raise UsageError("expand needs a web with a closed bottom")
    vec = expansion(web)
    _emit({format_states(k): _poly_out(v, args.q1) for k, v in vec.items()})
    return 0


def cmd_dualcan(args) -> int:
    payload = _artifact(args, "dualcan", args.signs)
    if args.q1:
        payload = {part: _rows_at_one(table) for part, table in payload.items()}
    _emit(payload)
    return 0


def cmd_howe_verify(args) -> int:
    from .howe import verify_relations
    try:
        count = verify_relations(args.k, args.k)
    except AssertionError as exc:
        print(f"k={args.k}: FAIL: {exc}")
        return 1
    if count == 0:
        # fewer than 2 columns, or a total weight with no invariant webs
        raise UsageError(f"--k {args.k} leaves no relation instance to check")
    print(f"k={args.k}: {count} relation instances hold: PASS")
    return 0


def cmd_center_dim(args) -> int:
    print(center_dim(args.signs))
    return 0


def cmd_blocks(args) -> int:
    _emit(_artifact(args, "blocks", args.signs))
    return 0


def cmd_tableau(args) -> int:
    signs, J = args.signs, args.states
    try:
        filling = state_to_filling(signs, J)
    except ValueError as exc:
        raise UsageError(str(exc))
    balanced = is_balanced(filling)
    _emit(
        {
            "rows": [list(r) for r in zip(*filling)] if balanced else None,
            "columns": {"1": list(filling[0]), "0": list(filling[1]), "-1": list(filling[2])},
            "balanced": balanced,
            "semistandard": is_semistandard(filling),
        }
    )
    return 0


def cmd_inverse_growth(args) -> int:
    from .howe import format_word, inverse_growth
    signs, J = args.signs, args.states
    if J not in set(dominant_states(signs)):
        raise UsageError(f"state {format_states(J)} is not dominant for {signs}")
    word, lam0 = inverse_growth(growth(signs, J).web)
    if args.pretty:
        print(format_word(word, lam0))
        return 0
    _emit([{"sign": s.sign, "index": s.index, "power": s.power} for s in word])
    return 0


def _env_budget() -> float:
    try:
        return default_budget()
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_search(args) -> int:
    if args.max_strands < 2:  # below the least --min-strands
        raise UsageError(f"--max-strands {args.max_strands} leaves no boundary to search")
    if not 2 <= args.min_strands <= args.max_strands:
        raise UsageError(f"--min-strands must be from 2 to --max-strands, got {args.min_strands}")
    budget = _env_budget() if args.budget_s is None else args.budget_s
    if not budget >= 0:  # also true for nan
        raise UsageError(f"--budget-s must be a number of seconds >= 0, got {budget}")
    rep = search_counterexample(
        max_strands=args.max_strands,
        budget_s=budget,
        stop_at_first=args.stop_at_first,
        min_strands=args.min_strands,
    )
    print(rep.summary())
    return 0


def cmd_render(args) -> int:
    from .render import render
    if (args.web is None) == (args.signs is None):
        raise UsageError("render needs a web file or a boundary with a state")
    if args.web is not None:
        svg = render(_read_web(args.web))
    else:
        if args.states is None:
            raise UsageError("render with a boundary also needs a state string")
        if args.states not in set(dominant_states(args.signs)):
            raise UsageError("render needs a dominant state (a basis web)")
        grown = growth(args.signs, args.states)
        svg = render(grown.web, None if args.no_flow else grown)
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(svg)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}")
    return 0


def cmd_selftest(args) -> int:
    from .acceptance import CRITERIA, run_all
    numbers = None
    if args.only is not None:
        try:
            numbers = sorted({int(tok) for tok in args.only.split(",")})
        except ValueError:
            raise UsageError(f"--only wants comma-separated integers, got {args.only!r}")
        unknown = [k for k in numbers if k not in CRITERIA]
        if unknown:
            raise UsageError(f"no such criteria: {unknown}")
    if numbers is None or 12 in numbers:
        _env_budget()  # a bad setting is a usage error, not a failed AC12
    results = run_all(numbers)
    return 0 if all(r.passed for r in results) else 1


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webkup",
        description="Exact computations in the sl3 web calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        return p

    p = add("enumerate", cmd_enumerate, help="list the basis webs of a boundary")
    p.add_argument("signs", type=_sign_string)
    p.add_argument("--json", action="store_true", help="emit the full JSON artifact")
    p.add_argument("--cache", action="store_true")

    p = add("eval", cmd_eval, help="evaluate a closed web")
    p.add_argument("--closed", required=True, metavar="WEB_JSON",
                   help="path to the closed web (JSON; - for stdin)")
    p.add_argument("--q1", action="store_true", help="evaluate at q=1")
    p.add_argument("--route", choices=("statesum", "rewrite", "both"),
                   default="statesum")

    p = add("expand", cmd_expand, help="boundary expansion of a web")
    p.add_argument("web", nargs="?", metavar="WEB_JSON")
    p.add_argument("--boundary", type=_sign_string,
                   help="emit the expansion matrix of a whole boundary")
    p.add_argument("--q1", action="store_true")
    p.add_argument("--cache", action="store_true")

    p = add("dualcan", cmd_dualcan, help="dual canonical vectors and d-matrix")
    p.add_argument("signs", type=_sign_string)
    p.add_argument("--q1", action="store_true")
    p.add_argument("--cache", action="store_true")

    p = add("howe-verify", cmd_howe_verify, help="check the generator relations")
    p.add_argument("--k", type=int, required=True, metavar="K",
                   help="number of columns (weights summing to K)")

    p = add("center-dim", cmd_center_dim, help="center dimension of a boundary")
    p.add_argument("signs", type=_sign_string)

    p = add("blocks", cmd_blocks, help="block multiplicities at a root of unity")
    p.add_argument("signs", type=_sign_string)
    p.add_argument("--cache", action="store_true")

    p = add("tableau", cmd_tableau, help="the column filling of a state")
    p.add_argument("signs", type=_sign_string)
    p.add_argument("states", type=_state_string)

    p = add("inverse-growth", cmd_inverse_growth,
            help="generator word hitting a basis web")
    p.add_argument("signs", type=_sign_string)
    p.add_argument("states", type=_state_string)
    p.add_argument("--pretty", action="store_true",
                   help="print the display form instead of JSON")

    p = add("search-counterexample", cmd_search,
            help="scan for a basis web that is not dual canonical")
    p.add_argument("--max-strands", type=int, default=10)
    p.add_argument("--min-strands", type=int, default=2,
                   help="skip the boundaries of fewer strands (default: 2)")
    p.add_argument("--budget-s", type=float, default=None,
                   help="seconds (default: WEBKUP_SEARCH_BUDGET or 1800)")
    p.add_argument("--stop-at-first", action="store_true")

    p = add("render", cmd_render, help="draw a web as SVG")
    p.add_argument("--web", metavar="WEB_JSON")
    p.add_argument("signs", nargs="?", type=_sign_string)
    p.add_argument("states", nargs="?", type=_state_string)
    p.add_argument("-o", "--out", default="-", help="output file (- for stdout)")
    p.add_argument("--no-flow", action="store_true",
                   help="skip the canonical flow overlay")

    p = add("selftest", cmd_selftest, help="run the acceptance criteria")
    p.add_argument("--only", metavar="N,N,...",
                   help="run a subset, e.g. --only 1,2,9")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
