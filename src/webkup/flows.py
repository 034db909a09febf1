"""Flow model and exact evaluation of ladder webs.

A flow decorates every edge of a web with a subset of the three colors
{-1, 0, +1}, of size equal to the edge label, conserving colors at every
junction.  Sweeping a ladder bottom to top, a slice moving `power` units
between adjacent columns moves a set X of that many colors, and each move
carries an integer weight; a flow contributes q^(total weight).

The boundary value (state) of a visible column is the sum of its color
set: a single strand shows its color, a double strand shows the sum of
its pair (equivalently minus the hidden third color).

The weights of single moves are pinned by three requirements:
  * the commutation identity for opposite ladder operators on two
    columns, whose diagonal is the quantum integer of the weight gap;
  * commutation of opposite operators on disjoint overlapping column
    pairs (three-column contexts);
  * mirror symmetry: reflecting a web top to bottom shifts every flow
    weight by the visible-strand count of the top minus the bottom.
Those determine the table up to relabeling the colors; the residual
freedom is fixed by requiring the distinguished flow of four small webs
(the two arcs and the two three-strand joins) to have weight zero.
The result is frozen below in PLUS_WEIGHTS.  scripts/calibrate_weights.py
re-derives the table from these requirements, reports how many
solutions survive with and without the gauge, and checks the frozen
table against every constraint.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .qlaurent import LaurentPoly, qfact
from .webs import LadderWeb, visible_columns

COLORS = (-1, 0, 1)
FULL = frozenset(COLORS)


def vis(k: int) -> int:
    return 1 if k in (1, 2) else 0


def colorset_for(weight: int, state: int) -> frozenset:
    """The unique color set of given size summing to the state."""
    if weight == 1:
        if state not in COLORS:
            raise ValueError(f"bad single-strand state {state}")
        return frozenset((state,))
    if weight == 2:
        return FULL - {-state}
    raise ValueError(f"column of weight {weight} has no visible state")


# ---------------------------------------------------------------------------
# frozen single-move weight table
#
# Key ('+' side only): (sorted tuple A, sorted tuple B, moved color x) with
# x in B, x not in A; the move carries x from the right column (set B) to
# the left column (set A).  Generated by scripts/calibrate_weights.py,
# which re-derives it and asserts equality.
# ---------------------------------------------------------------------------

PLUS_WEIGHTS: dict[tuple[tuple[int, ...], tuple[int, ...], int], int] = {
    ((), (-1,), -1): 0,
    ((), (-1, 0), -1): -1,
    ((), (-1, 0), 0): 0,
    ((), (-1, 0, 1), -1): -2,
    ((), (-1, 0, 1), 0): -1,
    ((), (-1, 0, 1), 1): 0,
    ((), (-1, 1), -1): -1,
    ((), (-1, 1), 1): 0,
    ((), (0,), 0): 0,
    ((), (0, 1), 0): -1,
    ((), (0, 1), 1): 0,
    ((), (1,), 1): 0,
    ((-1,), (-1, 0), 0): 0,
    ((-1,), (-1, 0, 1), 0): -1,
    ((-1,), (-1, 0, 1), 1): 0,
    ((-1,), (-1, 1), 1): 0,
    ((-1,), (0,), 0): 0,
    ((-1,), (0, 1), 0): -1,
    ((-1,), (0, 1), 1): 0,
    ((-1,), (1,), 1): 0,
    ((-1, 0), (-1, 0, 1), 1): 0,
    ((-1, 0), (-1, 1), 1): 0,
    ((-1, 0), (0, 1), 1): 0,
    ((-1, 0), (1,), 1): 0,
    ((-1, 1), (-1, 0), 0): 1,
    ((-1, 1), (-1, 0, 1), 0): 0,
    ((-1, 1), (0,), 0): 1,
    ((-1, 1), (0, 1), 0): 0,
    ((0,), (-1,), -1): 1,
    ((0,), (-1, 0), -1): 0,
    ((0,), (-1, 0, 1), -1): -1,
    ((0,), (-1, 0, 1), 1): 0,
    ((0,), (-1, 1), -1): 0,
    ((0,), (-1, 1), 1): 0,
    ((0,), (0, 1), 1): 0,
    ((0,), (1,), 1): 0,
    ((0, 1), (-1,), -1): 2,
    ((0, 1), (-1, 0), -1): 1,
    ((0, 1), (-1, 0, 1), -1): 0,
    ((0, 1), (-1, 1), -1): 1,
    ((1,), (-1,), -1): 1,
    ((1,), (-1, 0), -1): 0,
    ((1,), (-1, 0), 0): 1,
    ((1,), (-1, 0, 1), -1): -1,
    ((1,), (-1, 0, 1), 0): 0,
    ((1,), (-1, 1), -1): 0,
    ((1,), (0,), 0): 1,
    ((1,), (0, 1), 0): 0,
}


def _key(A: frozenset, B: frozenset, x: int) -> tuple:
    return (tuple(sorted(A)), tuple(sorted(B)), x)


def plus_weight(A: frozenset, B: frozenset, x: int) -> int:
    return PLUS_WEIGHTS[_key(A, B, x)]


def minus_reflection(A: frozenset, B: frozenset, z: int) -> tuple[tuple, int]:
    """Mirror rule: a right-move is a reflected left-move plus the change
    in visible-strand count of the two columns involved."""
    shift = (vis(len(A)) + vis(len(B))) - (vis(len(A) - 1) + vis(len(B) + 1))
    return _key(A - {z}, B | {z}, z), shift


def minus_weight(A: frozenset, B: frozenset, z: int) -> int:
    key, shift = minus_reflection(A, B, z)
    return PLUS_WEIGHTS[key] + shift


# ---------------------------------------------------------------------------
# transitions, including divided powers
# ---------------------------------------------------------------------------


def _single_moves(sign: str, A: frozenset, B: frozenset):
    """Weight-free single moves: (moved color, new left set, new right set).

    A '+' slice carries a color from the right column to the left one, a
    '-' slice from the left column to the right one.  This is the only
    place that spells out how a slice changes the two columns it touches.
    """
    if sign == "+":
        for x in sorted(B - A):
            yield x, A | {x}, B - {x}
    else:
        for z in sorted(A - B):
            yield z, A - {z}, B | {z}


SUBSETS = tuple(frozenset(c for i, c in enumerate(COLORS) if mask >> i & 1) for mask in range(8))


def _state_table() -> dict[frozenset, int]:
    """Each color set of a visible column to its state, checked against colorset_for."""
    table = {A: sum(A) for A in SUBSETS if len(A) in (1, 2)}
    if len(table) != 6 or any(colorset_for(len(A), s) != A for A, s in table.items()):
        raise AssertionError(f"state table does not invert colorset_for: {table}")
    return table


STATE_OF = _state_table()  # no ∅ or FULL: looking either up raises KeyError


def colorset_state(colors: frozenset) -> int:
    """Boundary state shown by a visible column carrying this color set."""
    if colors not in STATE_OF:
        raise ValueError(f"visible column needs 1 or 2 colors, got {set(colors)}")
    return STATE_OF[colors]


@lru_cache(maxsize=None)
def transitions(sign: str, power: int) -> dict:
    """The transition table of one slice kind: each of the 64 pairs (A, B)
    of column color sets maps to its moves (moved set X, new left set,
    new right set, weight), sorted by X.

    Power 1 holds the single moves with their weights.  Power a is power 1
    applied a times and divided by the quantum factorial [a]!; each entry
    must come out as a plain power of q, the flow weight of the move.
    That, and that every move carries `power` colors across (so a column's
    color set always has as many colors as its weight, which the weight
    windows rely on), are checked loudly on every pair.
    """
    if power == 1:
        weight = plus_weight if sign == "+" else minus_weight
        table = {
            (A, B): tuple(
                (frozenset((x,)), nA, nB, weight(A, B, x)) for x, nA, nB in _single_moves(sign, A, B)
            )
            for A in SUBSETS
            for B in SUBSETS
        }
    else:
        one, fact, table = transitions(sign, 1), qfact(power), {}
        for A, B in one:
            # moved set -> (new left set, new right set, path count by weight)
            paths = {frozenset(): (A, B, Counter({0: 1}))}
            for _ in range(power):
                longer: dict[frozenset, tuple] = {}
                for moved, (curA, curB, counts) in paths.items():
                    for X, nA, nB, w in one[curA, curB]:
                        acc = longer.setdefault(moved | X, (nA, nB, Counter()))[2]
                        for e, k in counts.items():
                            acc[e + w] += k
                paths = longer
            moves = []
            for X in sorted(paths, key=sorted):
                nA, nB, counts = paths[X]
                mono = LaurentPoly(counts).exact_div(fact)
                if not mono.is_monomial_coeff_one():
                    raise AssertionError(
                        f"divided power entry is not a plain q power: {sign}^{power} "
                        f"on {set(A)},{set(B)} moving {set(X)} gave {mono}"
                    )
                moves.append((X, nA, nB, mono.degree()))
            table[A, B] = tuple(moves)
    d = power if sign == "+" else -power
    for (A, B), moves in table.items():
        for X, nA, nB, _ in moves:
            if len(X) != power or len(nA) != len(A) + d or len(nB) != len(B) - d:
                raise AssertionError(f"{sign}^{power} on {set(A)},{set(B)} moves {set(X)} wrongly")
    return table


# ---------------------------------------------------------------------------
# sweeping ladders
# ---------------------------------------------------------------------------


def start_config(lam: tuple[int, ...]) -> tuple[frozenset, ...]:
    cfg = []
    for v in lam:
        if v == 0:
            cfg.append(frozenset())
        elif v == 3:
            cfg.append(FULL)
        else:
            raise ValueError("sweep needs a closed bottom weight (entries 0/3)")
    return tuple(cfg)


def sweep_raw(raw: dict, slices) -> dict:
    """The ladder-sweep kernel: apply slices in order to a vector of raw
    {exponent: coeff} dicts over color configurations, reading each
    slice's moves from its transitions table.  Every vector the library
    sweeps starts as web_vector's {start: {0: 1}}, and each move only adds
    a coefficient-1 power of q (transitions asserts it of divided powers),
    so coefficients stay in N[q, q^-1], no sum cancels and the output
    holds no zero without a filter.  The input is not mutated, and it is
    returned as is when there is no slice."""
    for sign, index, power in slices:
        c = index - 1
        table = transitions(sign, power)
        out: dict[tuple, dict[int, int]] = {}
        for cfg, coeffs in raw.items():
            for _, nA, nB, w in table[cfg[c], cfg[c + 1]]:
                acc = out.setdefault(cfg[:c] + (nA, nB) + cfg[c + 2 :], {})
                for e, k in coeffs.items():
                    acc[e + w] = acc.get(e + w, 0) + k
        raw = out
    return raw


def web_vector(web: LadderWeb) -> dict[tuple, dict[int, int]]:
    """Top color configurations of a closed-bottom web with their raw
    {exponent: coeff} coefficients, swept slice by slice from the bottom."""
    return sweep_raw({start_config(web.bottom_weight): {0: 1}}, web.slices)


def config_states(cfg, cols) -> tuple[int, ...]:
    try:
        return tuple([STATE_OF[cfg[i]] for i in cols])
    except KeyError:  # colorset_state names the column with no state
        return tuple([colorset_state(cfg[i]) for i in cols])


def expansion(web: LadderWeb) -> dict[tuple[int, ...], LaurentPoly]:
    """Boundary-state coefficients of a closed-bottom web.

    Maps each state string of the top boundary to an exact Laurent
    polynomial; the top configuration of a flow determines its states
    (and conversely, so no information is lost here).
    """
    cols = visible_columns(web.top_weight)
    return {
        config_states(cfg, cols): LaurentPoly._trusted(coeffs)
        for cfg, coeffs in web_vector(web).items()
    }


def bracket(web: LadderWeb) -> LaurentPoly:
    """Value of a closed web: the sum q^(weight) over all of its flows."""
    if not web.is_closed():
        raise ValueError("bracket needs a closed web")
    return expansion(web).get((), LaurentPoly.zero())


@dataclass(frozen=True)
class Flow:
    """One flow on a ladder web: the color set moved by each slice."""

    web: LadderWeb
    moves: tuple[frozenset, ...]
    weight: int
    boundary: tuple[int, ...]


def enumerate_flows(web: LadderWeb, boundary=None) -> list[Flow]:
    """All flows of a closed-bottom web, optionally filtered by boundary."""
    cols = visible_columns(web.top_weight)
    out: list[Flow] = []

    def rec(idx, cfg, moves, wsum):
        if idx == len(web.slices):
            states = config_states(cfg, cols)
            if boundary is None or states == boundary:
                out.append(Flow(web, tuple(moves), wsum, states))
            return
        s = web.slices[idx]
        c = s.index - 1
        for X, nA, nB, w in transitions(s.sign, s.power)[cfg[c], cfg[c + 1]]:
            moves.append(X)
            rec(idx + 1, cfg[:c] + (nA, nB) + cfg[c + 2 :], moves, wsum + w)
            moves.pop()

    rec(0, start_config(web.bottom_weight), [], 0)
    return out


def walk_moves(web: LadderWeb, moves) -> tuple[list[tuple[frozenset, ...]], int]:
    """Configurations at every level (bottom first) and total weight of a
    recorded move list; raises if a move is not a legal transition."""
    cfg = list(start_config(web.bottom_weight))
    cfgs = [tuple(cfg)]
    weight = 0
    for (sign, index, power), X in zip(web.slices, moves):
        c = index - 1
        for Y, nA, nB, w in transitions(sign, power)[cfg[c], cfg[index]]:
            if Y == X:
                break
        else:
            raise AssertionError("recorded move not among slice transitions")
        cfg[c], cfg[index] = nA, nB
        cfgs.append(tuple(cfg))
        weight += w
    return cfgs, weight


def count_weight_zero_flows(web: LadderWeb, stop_at: int | None = None) -> int:
    """Number of weight-zero flows of a basis web, by branch and bound;
    pass stop_at to return early once that many are found.

    No flow of a basis web has positive weight, so the walk prunes on the
    upper bound only, with per-slice windows keyed by the weights of the
    two columns below the slice: it reaches every flow of weight >= 0,
    counts those of weight 0 and raises AssertionError on one of
    positive weight.
    """
    # per slice: its table, its left column and the most the slices above add
    steps = []
    high = 0
    for (sign, index, power), lam in zip(reversed(web.slices), web.levels()[-2::-1]):
        steps.append((transitions(sign, power), index - 1, high))
        high += _weight_window(sign, power, lam[index - 1], lam[index])
    if high < 0:
        return 0
    steps.reverse()
    n = len(steps)
    cfg = list(start_config(web.bottom_weight))
    count = 0

    def rec(idx, wsum):
        nonlocal count
        if idx == n:
            if wsum > 0:
                raise AssertionError(f"basis web has a flow of weight {wsum}: {web}")
            count += 1
            return
        table, c, high = steps[idx]
        A, B = cfg[c], cfg[c + 1]
        for _, nA, nB, w in table[A, B]:
            w += wsum
            if w + high < 0:
                continue
            cfg[c], cfg[c + 1] = nA, nB
            rec(idx + 1, w)
            if count == stop_at:
                break
        cfg[c], cfg[c + 1] = A, B

    rec(0, 0)
    return count


@lru_cache(maxsize=None)
def _weight_window(sign: str, power: int, a: int, b: int) -> float:
    """Greatest weight of a move of one slice kind on columns of weights
    a and b, i.e. on color sets of sizes a and b; -inf, which prunes
    every branch, if the slice has no move there."""
    ws = [
        w
        for (A, B), moves in transitions(sign, power).items()
        if (len(A), len(B)) == (a, b)
        for _, _, _, w in moves
    ]
    return max(ws, default=-math.inf)


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def lusztig_form_vec(u: dict, v: dict) -> LaurentPoly:
    """Normalized pairing of two state-coefficient vectors, coordinatewise; on
    two expansions it is q^(-strand count) * bracket(close(u, v))."""
    out = LaurentPoly.zero()
    for k, a in u.items():
        b = v.get(k)
        if b is not None:
            out = out + a * b
    return out
