"""Re-derive the single-move weight table from its defining constraints.

Prints the gauge report (solution counts with and without the gauge
conditions), asserts the gauged solution is unique and matches the table
frozen in webkup.flows, and regenerates docs/derived_rules.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from webkup import flows
from webkup.growth import canonical_rule_tables, _h_strategy_keys

DOC = Path(__file__).resolve().parent.parent / "docs" / "derived_rules.md"


def _fmt_colors(zs) -> str:
    return ", ".join(str(z) for z in sorted(zs, reverse=True))


def docs_text(n_free: int, n_gauged: int) -> str:
    """The two derivations a reader most often wants to audit: the gauge
    argument pinning the weight table, and the growth rule tables
    extracted from it (the weight-zero moves per sign pair and states)."""
    lines = [
        "# Derived rule tables",
        "",
        "Generated by scripts/calibrate_weights.py; do not edit by hand.",
        "",
        "## Weight table gauge",
        "",
        "The defining constraints of the single-move weight table leave a",
        f"finite solution set: {n_free} tables satisfy the constraints,",
        "related by reassigning the roles of the three edge colors.  The",
        f"gauge conditions cut this to {n_gauged}; the frozen table in",
        "webkup.flows is that unique solution, and verify_frozen_table()",
        "rechecks every constraint against it at import time in tests.",
        "",
        "## Growth rules from the weight table",
        "",
        "Each entry lists the weight-zero moves of the corresponding slice",
        "exchange, keyed by the pair of states above it.  The growth engine",
        "uses them in the priority arc > Y > exchange.",
        "",
    ]
    names = {"arc": "Arc", "y": "Y", "h": "Exchange"}
    for (kind, sp, sq), entry in canonical_rule_tables().items():
        header = "weight-zero moves" if kind == "h" else "move"
        lines += [f"### {names[kind]} rule, signs ({sp}, {sq})", ""]
        lines += [f"| states above | {header} |", "|---|---|"]
        for states in sorted(entry, reverse=True):
            colors = [z for _, moved, *_ in entry[states] for z in moved]
            lines.append(f"| ({states[0]},{states[1]}) | {_fmt_colors(colors)} |")
        if kind == "h":
            strategy = _h_strategy_keys(sp, sq)
            lines.append("")
            lines.append(
                "Engine strategy keys (pairs where growth applies the"
                " exchange, walking a 0 state left): "
                + "; ".join(
                    f"({a},{b}) -> {strategy[(a, b)]}"
                    for a, b in sorted(strategy, reverse=True)
                )
            )
        lines.append("")
    return "\n".join(lines)


def write_docs(n_free: int, n_gauged: int) -> Path:
    DOC.parent.mkdir(parents=True, exist_ok=True)
    DOC.write_text(docs_text(n_free, n_gauged))
    return DOC


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--print-literal",
        action="store_true",
        help="print the solved table as a Python literal and exit",
    )
    args = ap.parse_args()

    free = flows.calibrate_weight_table(with_gauge=False)
    gauged = flows.calibrate_weight_table(with_gauge=True)
    print(f"solutions without gauge: {len(free)}")
    print(f"solutions with gauge:    {len(gauged)}")
    if len(gauged) != 1:
        print("ERROR: gauge did not pin a unique table", file=sys.stderr)
        return 1
    table = dict(sorted(gauged[0].items()))

    if args.print_literal:
        print("PLUS_WEIGHTS = {")
        for k, v in table.items():
            print(f"    {k!r}: {v},")
        print("}")
        return 0

    if flows.PLUS_WEIGHTS != table:
        print("ERROR: frozen PLUS_WEIGHTS differs from the derived table", file=sys.stderr)
        return 1
    flows.verify_frozen_table()
    print("frozen table matches the derivation and satisfies all constraints")

    write_docs(len(free), len(gauged))
    print("regenerated docs/derived_rules.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
