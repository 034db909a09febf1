"""Re-derive the single-move weights from their defining constraints.

Solves the constraints stated in the webkup.flows docstring, with one
variable per '+' move and each '-' move read as its mirror, and prints
the gauge report (solution counts with and without the gauge conditions).
It asserts that the gauged solution is unique and equals the weights of
flows' power-1 transition tables, '+' and '-' alike, and regenerates
docs/derived_rules.md.  Run it with no arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from webkup.flows import SUBSETS, enumerate_flows, transitions, walk_moves
from webkup.growth import _rule_moves, _rule_priority
from webkup.qlaurent import qint
from webkup.webs import LadderWeb

DOC = Path(__file__).resolve().parent.parent / "docs" / "derived_rules.md"


# ---------------------------------------------------------------------------
# calibration of the weight table
#
# A variable is a '+' move, keyed (sorted A, sorted B, moved color x) with
# x carried from the right column (set B) into the left column (set A).
# ---------------------------------------------------------------------------


def _key(A: frozenset, B: frozenset, x: int) -> tuple:
    return (tuple(sorted(A)), tuple(sorted(B)), x)


def vis(k: int) -> int:
    """Visible strands of a column of weight k."""
    return 1 if k in (1, 2) else 0


def minus_reflection(A: frozenset, B: frozenset, z: int) -> tuple[tuple, int]:
    """Mirror requirement: a '-' move of z from A to B weighs its reflected
    '+' move plus the change in visible-strand count of the two columns."""
    shift = (vis(len(A)) + vis(len(B))) - (vis(len(A) - 1) + vis(len(B) + 1))
    return _key(A - {z}, B | {z}, z), shift


def plus_table() -> dict[tuple, int]:
    """flows' '+' weights as calibration variables, read off its table."""
    return {
        _key(A, B, x): w
        for (A, B), moves in transitions("+", 1).items()
        for (x,), _, _, w in moves
    }


class _Constraint:
    """Polynomial identity sum(q^expr) - sum(q^expr) == rhs, where each
    expr is a sum of table variables plus a constant."""

    __slots__ = ("plus", "minus", "rhs", "vars", "tag")

    def __init__(self, plus, minus, rhs, tag):
        self.plus = plus
        self.minus = minus
        self.rhs = rhs
        self.tag = tag
        vs = set()
        for keys, _ in plus:
            vs.update(keys)
        for keys, _ in minus:
            vs.update(keys)
        self.vars = frozenset(vs)

    def check(self, assign) -> bool:
        acc: dict[int, int] = {}
        for keys, const in self.plus:
            e = const + sum(assign[k] for k in keys)
            acc[e] = acc.get(e, 0) + 1
        for keys, const in self.minus:
            e = const + sum(assign[k] for k in keys)
            acc[e] = acc.get(e, 0) - 1
        acc = {e: c for e, c in acc.items() if c}
        return acc == self.rhs


def _gauge_webs():
    # the two arcs and the two three-strand joins, with the state string
    # of their distinguished (lex largest) flow
    return [
        (LadderWeb((0, 3), (("+", 1, 1),)), (1, -1)),
        (LadderWeb((3, 0), (("-", 1, 1),)), (1, -1)),
        (LadderWeb((3, 0, 0), (("-", 1, 1), ("-", 2, 1), ("-", 1, 1))), (1, 0, -1)),
        (LadderWeb((0, 3, 3), (("+", 1, 1), ("+", 2, 1), ("+", 1, 1))), (1, 0, -1)),
    ]


def _flow_term(flow) -> tuple:
    """A power-1 flow's weight as (table keys, constant): a '+' move reads
    its own key, a '-' move its reflected key plus the reflection's shift."""
    cfgs, _ = walk_moves(flow.web, flow.moves)
    keys, const = [], 0
    for (sign, index, _), (x,), cfg in zip(flow.web.slices, flow.moves, cfgs):
        A, B = cfg[index - 1], cfg[index]
        if sign == "+":
            keys.append(_key(A, B, x))
        else:
            k, shift = minus_reflection(A, B, x)
            keys.append(k)
            const += shift
    return tuple(keys), const


def build_constraints(with_gauge: bool = True) -> list[_Constraint]:
    cons: list[_Constraint] = []

    # two-column commutation: opposite moves in either order differ by the
    # quantum integer of the weight gap on the diagonal
    for A in SUBSETS:
        for B in SUBSETS:
            per_target: dict[tuple, tuple[list, list]] = {}
            for (z,), A1, B1, _ in transitions("-", 1)[A, B]:
                for (x,), A2, B2, _ in transitions("+", 1)[A1, B1]:
                    mk, ms = minus_reflection(A, B, z)
                    term = ((mk, _key(A1, B1, x)), ms)
                    per_target.setdefault((A2, B2), ([], []))[0].append(term)
            for (x,), A1, B1, _ in transitions("+", 1)[A, B]:
                for (z,), A2, B2, _ in transitions("-", 1)[A1, B1]:
                    mk, ms = minus_reflection(A1, B1, z)
                    term = ((_key(A, B, x), mk), ms)
                    per_target.setdefault((A2, B2), ([], []))[1].append(term)
            targets = set(per_target) | {(A, B)}
            for tgt in sorted(targets, key=lambda t: (sorted(t[0]), sorted(t[1]))):
                plus, minus = per_target.get(tgt, ([], []))
                rhs = (
                    dict(qint(len(A) - len(B)).coeffs)
                    if tgt == (A, B)
                    else {}
                )
                if plus or minus or rhs:
                    cons.append(
                        _Constraint(plus, minus, rhs, f"comm2 {set(A)},{set(B)}")
                    )

    # three-column commutation: both generators move out of (or into) the
    # shared middle column, in either order, with equal weights
    for A in SUBSETS:
        for B in SUBSETS:
            for C in SUBSETS:
                for (x,), _, Bx, _ in transitions("+", 1)[A, B]:
                    for (z,), Bz, _, _ in transitions("-", 1)[B, C]:
                        if x == z:
                            continue
                        mk1, s1 = minus_reflection(B, C, z)
                        mk2, s2 = minus_reflection(Bx, C, z)
                        cons.append(
                            _Constraint(
                                [((mk1, _key(A, Bz, x)), s1)],
                                [((_key(A, B, x), mk2), s2)],
                                {},
                                "comm3a",
                            )
                        )
                for (z,), _, Bz, _ in transitions("-", 1)[A, B]:
                    for (x,), Bx, _, _ in transitions("+", 1)[B, C]:
                        if x == z:
                            continue
                        mk1, s1 = minus_reflection(A, B, z)
                        mk2, s2 = minus_reflection(A, Bx, z)
                        cons.append(
                            _Constraint(
                                [((mk1, _key(Bz, C, x)), s1)],
                                [((_key(B, C, x), mk2), s2)],
                                {},
                                "comm3b",
                            )
                        )

    if with_gauge:
        for web, states in _gauge_webs():
            hits = enumerate_flows(web, boundary=states)
            if len(hits) != 1:
                raise AssertionError(
                    f"gauge web should have one distinguished flow, got {len(hits)}"
                )
            cons.append(_Constraint([_flow_term(hits[0])], [], {0: 1}, "gauge"))
    return cons


_CALIBRATION_DOMAIN = range(-6, 7)
_CALIBRATION_LIMIT = 2000


def calibrate_weight_table(with_gauge: bool = True):
    """Solve the constraint system for the single-move weights.

    Returns every solution with weights in _CALIBRATION_DOMAIN, at most
    _CALIBRATION_LIMIT of them, each a dict mapping key -> int."""
    cons = build_constraints(with_gauge)

    # static order: walk constraints from fewest variables up, appending
    # unseen variables, so equations complete as early as possible; every
    # table key is in some constraint, so the order holds them all
    order: list[tuple] = []
    seen = set()
    for con in sorted(cons, key=lambda c: (len(c.vars), c.tag)):
        for v in sorted(c for c in con.vars if c not in seen):
            seen.add(v)
            order.append(v)
    assert set(plus_table()) <= seen, "a table key is in no constraint"

    # each constraint is checked once, when its last variable is assigned
    position = {v: k for k, v in enumerate(order)}
    due: list[list[_Constraint]] = [[] for _ in order]
    for con in cons:
        due[max(position[v] for v in con.vars)].append(con)

    assign: dict[tuple, int] = {}
    solutions: list[dict] = []

    def search(k) -> bool:
        """Extend the assignment from order[k]; True once the limit is hit."""
        if k == len(order):
            solutions.append(dict(assign))
            return len(solutions) >= _CALIBRATION_LIMIT
        for val in _CALIBRATION_DOMAIN:
            assign[order[k]] = val
            if all(con.check(assign) for con in due[k]) and search(k + 1):
                return True
        del assign[order[k]]
        return False

    search(0)
    return solutions


def verify_frozen_table() -> None:
    """Check flows' power-1 weights: the '+' table against every
    calibration constraint, and each '-' move against the mirror of its
    '+' key, since flows weighs the two kinds independently."""
    table = plus_table()
    for con in build_constraints(with_gauge=True):
        if not con.check(table):
            raise AssertionError(f"flows' weight table violates {con.tag}")
    for (A, B), moves in transitions("-", 1).items():
        for (z,), _, _, w in moves:
            key, shift = minus_reflection(A, B, z)
            if w != table[key] + shift:
                raise AssertionError(
                    f"'-' move of {z} on {set(A)},{set(B)} is not the mirror of {key}"
                )


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
        f"gauge conditions cut this to {n_gauged}; webkup.flows.move_weight",
        "gives that unique solution, and verify_frozen_table() rechecks",
        "every constraint and the mirror of every '-' move against it in tests.",
        "",
        "## Growth rules from the weight table",
        "",
        "Each entry lists the weight-zero moves of the corresponding slice",
        "exchange, keyed by the pair of states above it.  The growth engine",
        "uses them in the priority arc > Y > exchange.",
        "",
    ]
    names = {"arc": "Arc", "y": "Y", "h": "Exchange"}
    ranked = _rule_priority()
    for (kind, sp, sq), table in _rule_moves().items():
        header = "weight-zero moves" if kind == "h" else "move"
        lines += [f"### {names[kind]} rule, signs ({sp}, {sq})", ""]
        lines += [f"| states above | {header} |", "|---|---|"]
        for states in sorted(table, reverse=True):
            colors = [z for _, moved, _, _ in table[states] for z in moved]
            lines.append(f"| ({states[0]},{states[1]}) | {_fmt_colors(colors)} |")
        if kind == "h":
            # the rank-2 entries of the ranked table are the exchanges growth makes
            strategy = {
                (a, b): z
                for (p, q, a, b), (rank, _, (z,), *_) in ranked.items()
                if rank == 2 and (p, q) == (sp, sq)
            }
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


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()  # takes no options
    free = calibrate_weight_table(with_gauge=False)
    gauged = calibrate_weight_table(with_gauge=True)
    print(f"solutions without gauge: {len(free)}")
    print(f"solutions with gauge:    {len(gauged)}")
    if len(gauged) != 1:
        print("ERROR: gauge did not pin a unique table", file=sys.stderr)
        return 1
    if plus_table() != gauged[0]:
        print("ERROR: flows' '+' weights differ from the derived table", file=sys.stderr)
        return 1
    verify_frozen_table()
    DOC.write_text(docs_text(len(free), len(gauged)))
    print("flows' weights match the derivation; regenerated docs/derived_rules.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
