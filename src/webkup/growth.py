"""Growth algorithm: canonical basis webs from boundary state strings.

Reading a sign string S and a state string J from the top down, the
algorithm repeatedly consumes adjacent visible strands:

  * arc      opposite signs, meeting states   -> both strands end
  * join     equal signs, merging states      -> one combined strand
  * exchange opposite signs, a 0 state        -> the 0 hops leftward

and transports strands sideways across invisible columns when the pair
to consume is not physically adjacent.  Which states each rule may
consume is not hard-coded: the tables are derived at import time from
the calibrated move weights (a canonical rule is one whose move has
weight zero), and the derived tables are asserted in tests.

The procedure terminates exactly on the state strings whose color
expansion satisfies the nested ballot condition (is_dominant_closed);
those J index the web basis of their boundary.  The same engine with
non-canonical rules allowed builds a flow with prescribed boundary on
some web (construct_flow), used by the tableau correspondence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .qlaurent import LaurentPoly, ONE
from .webs import LadderWeb, Slice, weight_of_signs, visible_columns
from .flows import (
    FULL,
    Flow,
    colorset_for,
    colorset_state,
    expansion,
    minus_weight,
    plus_weight,
    walk_moves,
)


class GrowthStuck(Exception):
    """No growth rule applies; the state string is not dominant."""


# ---------------------------------------------------------------------------
# rule tables, derived from the move weight table
# ---------------------------------------------------------------------------


def _arc_moves(sp: str, sq: str):
    """Arc rule on an opposite-sign pair: above states -> (move, weight)."""
    out = {}
    if (sp, sq) == ("+", "-"):
        for x in sorted(FULL):
            out[(x, -x)] = (x, plus_weight(frozenset(), FULL, x))
    elif (sp, sq) == ("-", "+"):
        for z in sorted(FULL):
            out[(-z, z)] = (z, minus_weight(FULL, frozenset(), z))
    else:
        raise ValueError("arc needs opposite signs")
    return out


def _y_moves(sp: str, sq: str):
    """Join rule on an equal-sign pair: above states -> (move, weight)."""
    out = {}
    if (sp, sq) == ("+", "+"):
        for w in sorted(FULL):
            for z in sorted(FULL - {w}):
                out[(w, z)] = (z, minus_weight(frozenset((w, z)), frozenset(), z))
    elif (sp, sq) == ("-", "-"):
        for y in sorted(FULL):
            for x in sorted(FULL - {y}):
                key = (colorset_state(frozenset((x, y))), -x)
                assert key not in out
                out[key] = (x, plus_weight(frozenset((y,)), FULL, x))
    else:
        raise ValueError("join needs equal signs")
    return out


def _h_moves(sp: str, sq: str):
    """Exchange rule on an opposite-sign pair: above states -> [(move, w)]."""
    out: dict[tuple, list] = {}
    if (sp, sq) == ("+", "-"):
        for a in sorted(FULL):
            for q_state in (-1, 0, 1):
                Q = colorset_for(2, q_state)
                for z in sorted(Q - {a}):
                    w = minus_weight(frozenset((a, z)), Q - {z}, z)
                    out.setdefault((a, q_state), []).append((z, w))
    elif (sp, sq) == ("-", "+"):
        for p_state in (-1, 0, 1):
            P = colorset_for(2, p_state)
            for b in sorted(FULL):
                for z in sorted(P - {b}):
                    w = plus_weight(P - {z}, frozenset((b, z)), z)
                    out.setdefault((p_state, b), []).append((z, w))
    else:
        raise ValueError("exchange needs opposite signs")
    return out


@lru_cache(maxsize=None)
def canonical_rule_tables():
    """Weight-zero state tables for each rule and sign arrangement."""
    tables: dict[tuple, dict] = {}
    for sp, sq in (("+", "-"), ("-", "+")):
        arc = {k: z for k, (z, w) in _arc_moves(sp, sq).items() if w == 0}
        assert len(arc) == 1, f"arc table for {sp}{sq} is not a single state"
        tables[("arc", sp, sq)] = arc
        hs = {}
        for k, opts in _h_moves(sp, sq).items():
            zs = [z for z, w in opts if w == 0]
            if zs:
                hs[k] = tuple(zs)
        tables[("h", sp, sq)] = hs
    for s in "+-":
        y = {k: z for k, (z, w) in _y_moves(s, s).items() if w == 0}
        tables[("y", s, s)] = y
    return tables


# the exchange strategy only ever moves a 0 state to the left
@lru_cache(maxsize=None)
def _h_strategy_keys(sp: str, sq: str):
    table = canonical_rule_tables()[("h", sp, sq)]
    out = {}
    for k, zs in table.items():
        if k[1] == 0 and k[0] != 0:
            assert len(zs) == 1, f"ambiguous weight-zero exchange at {k}"
            out[k] = zs[0]
    return out


# ---------------------------------------------------------------------------
# dominance (ballot) test
# ---------------------------------------------------------------------------


def expand_states(signs: str, states: tuple[int, ...]) -> tuple[int, ...]:
    """Color word of a boundary: singles show their color, doubles their
    pair in decreasing order; invisible columns contribute nothing."""
    vis_signs = [c for c in signs if c in "+-"]
    if len(vis_signs) != len(states):
        raise ValueError("state string length must match visible strands")
    out: list[int] = []
    for c, j in zip(vis_signs, states):
        if c == "+":
            if j not in (-1, 0, 1):
                raise ValueError(f"bad state {j}")
            out.append(j)
        else:
            out.extend(sorted(colorset_for(2, j), reverse=True))
    return tuple(out)


def is_dominant_closed(signs: str, states: tuple[int, ...]) -> bool:
    """Ballot condition on the color word: every prefix has at least as
    many +1 as 0 as -1, with equal totals overall."""
    word = expand_states(signs, tuple(states))
    c1 = c0 = cm = 0
    for x in word:
        if x == 1:
            c1 += 1
        elif x == 0:
            c0 += 1
        else:
            cm += 1
        if not (c1 >= c0 >= cm):
            return False
    return c1 == c0 == cm


# ---------------------------------------------------------------------------
# the growth engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrownWeb:
    web: LadderWeb
    flow: Flow


def _run_engine(signs: str, states: tuple[int, ...], canonical: bool) -> GrownWeb:
    lam = list(weight_of_signs(signs))
    vis = list(visible_columns(tuple(lam)))
    states = tuple(states)
    if len(states) != len(vis):
        raise ValueError("state string length must match visible strands")
    col_state = dict(zip(vis, states))
    col_colors = {c: colorset_for(lam[c], col_state[c]) for c in vis}
    emitted: list[tuple[Slice, frozenset]] = []  # top-down discovery order

    def emit(sign, col0, power, moved):
        # record the upward slice whose level below is the current lam
        emitted.append((Slice(sign, col0 + 1, power), frozenset(moved)))

    def transport(c):
        """Hop the strand at column c across the invisible column c-1."""
        e, s = lam[c - 1], lam[c]
        assert e in (0, 3) and s in (1, 2)
        colors = col_colors[c]
        if e == 0:
            emit("-", c - 1, s, colors)
        else:
            emit("+", c - 1, 3 - s, FULL - colors)
        lam[c - 1], lam[c] = s, e
        col_state[c - 1] = col_state.pop(c)
        col_colors[c - 1] = col_colors.pop(c)

    def bring_adjacent(p, r):
        for c in range(r, p + 1, -1):
            transport(c)

    def sign_at(c):
        return "+" if lam[c] == 1 else "-"

    def visible_pairs():
        cols = sorted(col_state)
        return list(zip(cols, cols[1:]))

    tables = canonical_rule_tables()
    guard = 0
    while col_state:
        guard += 1
        if guard > 4 * len(signs) ** 2 + 16:
            raise AssertionError("growth failed to terminate")
        pairs = visible_pairs()
        action = None
        # 1. arcs on meeting states
        for p, r in pairs:
            sp, sq = sign_at(p), sign_at(r)
            if sp != sq and (col_state[p], col_state[r]) in tables[("arc", sp, sq)]:
                action = ("arc", p, r)
                break
        # 2. joins on merging states
        if action is None:
            for p, r in pairs:
                sp, sq = sign_at(p), sign_at(r)
                if sp == sq and (col_state[p], col_state[r]) in tables[("y", sp, sq)]:
                    action = ("y", p, r)
                    break
        # 3. exchange, walking a 0 state leftward
        if action is None:
            for p, r in pairs:
                sp, sq = sign_at(p), sign_at(r)
                if sp != sq and (col_state[p], col_state[r]) in _h_strategy_keys(sp, sq):
                    action = ("h", p, r)
                    break
        if action is None and not canonical:
            # fall back to moves of nonzero weight: arcs first, then joins
            for p, r in pairs:
                sp, sq = sign_at(p), sign_at(r)
                if sp != sq and (col_state[p], col_state[r]) in _arc_moves(sp, sq):
                    action = ("arc", p, r)
                    break
            else:
                for p, r in pairs:
                    sp, sq = sign_at(p), sign_at(r)
                    if sp == sq and (col_state[p], col_state[r]) in _y_moves(sp, sq):
                        action = ("y", p, r)
                        break
        if action is None:
            raise GrowthStuck(f"no rule applies to {signs} with {states}")

        kind, p, r = action
        bring_adjacent(p, r)
        q = p + 1
        sp, sq = sign_at(p), sign_at(q)
        jp, jq = col_state[p], col_state[q]
        if kind == "arc":
            moved, _w = _arc_moves(sp, sq)[(jp, jq)]
            if sp == "+":
                emit("+", p, 1, {moved})
                lam[p], lam[q] = 0, 3
            else:
                emit("-", p, 1, {moved})
                lam[p], lam[q] = 3, 0
            del col_state[p], col_state[q], col_colors[p], col_colors[q]
        elif kind == "y":
            moved, _w = _y_moves(sp, sq)[(jp, jq)]
            if sp == "+":
                new_colors = col_colors[p] | col_colors[q]
                assert len(new_colors) == 2
                emit("-", p, 1, {moved})
                lam[p], lam[q] = 2, 0
            else:
                new_colors = col_colors[p] & col_colors[q]
                assert len(new_colors) == 1
                emit("+", p, 1, {moved})
                lam[p], lam[q] = 1, 3
            del col_state[q], col_colors[q]
            col_state[p] = colorset_state(new_colors)
            col_colors[p] = new_colors
        else:  # exchange
            z = _h_strategy_keys(sp, sq)[(jp, jq)]
            if sp == "+":
                below_p, below_q = col_colors[p] | {z}, col_colors[q] - {z}
                emit("-", p, 1, {z})
                lam[p], lam[q] = 2, 1
            else:
                below_p, below_q = col_colors[p] - {z}, col_colors[q] | {z}
                emit("+", p, 1, {z})
                lam[p], lam[q] = 1, 2
            assert len(below_p) == lam[p] and len(below_q) == lam[q]
            col_colors[p], col_colors[q] = below_p, below_q
            col_state[p] = colorset_state(below_p)
            col_state[q] = colorset_state(below_q)

    web = LadderWeb(tuple(lam), tuple(s for s, _ in reversed(emitted)))
    moves = tuple(m for _, m in reversed(emitted))
    _, weight = walk_moves(web, moves)
    flow = Flow(web, moves, weight, states)
    return GrownWeb(web, flow)


def growth(signs: str, states) -> GrownWeb:
    """Canonical growth; defined exactly on dominant state strings.

    The constructed flow always has weight zero (asserted), making it the
    distinguished flow of the resulting basis web.
    """
    gw = _run_engine(signs, tuple(states), canonical=True)
    assert gw.flow.weight == 0, "canonical growth produced a nonzero weight"
    return gw


def construct_flow(signs: str, states) -> GrownWeb:
    """Build some web with a flow whose boundary is the given state string.

    Canonical rules are preferred, so on dominant strings this returns the
    growth web with its distinguished flow; otherwise nonzero-weight arcs
    and joins are allowed."""
    return _run_engine(signs, tuple(states), canonical=False)


# ---------------------------------------------------------------------------
# bases and triangular reduction
# ---------------------------------------------------------------------------


def dominant_states(signs: str) -> list[tuple[int, ...]]:
    k = len([c for c in signs if c in "+-"])
    out = [J for J in product((1, 0, -1), repeat=k) if is_dominant_closed(signs, J)]
    out.sort(reverse=True)
    return out


@lru_cache(maxsize=None)
def web_space(signs: str) -> "WebSpace":
    return WebSpace(signs)


class WebSpace:
    """The web basis of one boundary string with its expansions."""

    def __init__(self, signs: str):
        self.signs = signs
        self.basis: dict[tuple, LadderWeb] = {}
        for J in dominant_states(signs):
            self.basis[J] = growth(signs, J).web
        self.expansions = {J: expansion(w) for J, w in self.basis.items()}
        for J, exp in self.expansions.items():
            lead = max(k for k, v in exp.items() if not v.is_zero())
            if lead != J or exp[J] != ONE:
                raise AssertionError(f"expansion of {signs} {J} is not unitriangular")

    def reduce_to_basis(self, vec: dict) -> dict:
        """Coefficients of a boundary-state vector over the web basis."""
        vec = {k: v for k, v in vec.items() if not v.is_zero()}
        out: dict[tuple, LaurentPoly] = {}
        while vec:
            k = max(vec)
            if k not in self.basis:
                raise AssertionError(
                    f"vector has leading state {k} outside the dominant set"
                )
            c = vec[k]
            out[k] = out.get(k, LaurentPoly.zero()) + c
            row = self.expansions[k]
            for k2, v2 in row.items():
                nv = vec.get(k2, LaurentPoly.zero()) - c * v2
                if nv.is_zero():
                    vec.pop(k2, None)
                else:
                    vec[k2] = nv
        return out


def enumerate_basis(signs: str) -> dict[tuple, LadderWeb]:
    return dict(web_space(signs).basis)


def flow_census(signs: str) -> Counter:
    """Flow count of each boundary state, summed over the basis webs.

    Every flow adds +q^weight to the expansion coefficient of its
    boundary, so the count is that coefficient at q = 1."""
    census: Counter = Counter()
    for exp in web_space(signs).expansions.values():
        for state, poly in exp.items():
            census[state] += poly.eval_at_one()
    return census
