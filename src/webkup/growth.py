"""Growth algorithm: canonical basis webs from boundary state strings.

Reading a sign string S and a state string J from the top down, the
algorithm repeatedly consumes adjacent visible strands:

  * arc      opposite signs, meeting states   -> both strands end
  * join     equal signs, merging states      -> one combined strand
  * exchange opposite signs, a 0 state        -> the 0 hops leftward

and transports strands sideways across invisible columns when the pair
to consume is not physically adjacent.  Which states each rule may
consume is not hard-coded: every rule is read off the slice-transition
table of webkup.flows (its moves of weight zero), and the derived
tables are asserted in tests.

The procedure terminates exactly on the state strings whose column
filling is semistandard (webkup.tableaux); those J, the dominant states,
index the web basis of their boundary.

That each balanced state bounds a flow on some web needs no web built
for it: flow_census counts the flows on the basis webs, and criterion 13
checks that their boundary states are exactly the balanced ones.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import combinations, product

from .webs import WEIGHT_TO_SIGN, LadderWeb, Slice, weight_of_signs, visible_columns
from .flows import (
    COLORS,
    FULL,
    Flow,
    Memo,
    colorset_for,
    colorset_state,
    coefficient,
    config_states,
    pack,
    transitions,
    unpack,
    walk_moves,
    web_vector,
)
from .tableaux import semistandard_states


class GrowthStuck(Exception):
    """No growth rule applies; the state string is not dominant."""


# ---------------------------------------------------------------------------
# rule tables, read off the slice-transition table
# ---------------------------------------------------------------------------


# Column weights below the slice of each rule, by sign pair above; the
# slice sign is whichever turns them into the weights above.
_RULE_BELOW = {
    ("arc", "+", "-"): (0, 3),
    ("arc", "-", "+"): (3, 0),
    ("y", "+", "+"): (2, 0),
    ("y", "-", "-"): (1, 3),
    ("h", "+", "-"): (2, 1),
    ("h", "-", "+"): (1, 2),
}


@lru_cache(maxsize=None)
def _rule_moves():
    """Every weight-zero move of each rule, read off the slice-transition
    table: (kind, sp, sq) -> states above -> tuple of (slice sign, moved
    set, left set below, right set below)."""
    tables: dict[tuple, dict] = {}
    for (kind, sp, sq), (a, b) in _RULE_BELOW.items():
        sign = "+" if weight_of_signs(sp)[0] > a else "-"
        table: dict[tuple, list] = {}
        for A, B in product(combinations(COLORS, a), combinations(COLORS, b)):
            A, B = frozenset(A), frozenset(B)
            for X, nA, nB, w in transitions(sign, 1)[A, B]:
                if w == 0:
                    above = (colorset_state(nA), colorset_state(nB))
                    table.setdefault(above, []).append((sign, X, A, B))
        tables[(kind, sp, sq)] = {k: tuple(v) for k, v in table.items()}
    return tables


_RANK = {"arc": 0, "y": 1, "h": 2}


@lru_cache(maxsize=None)
def _rule_priority() -> dict:
    """The moves growth may make: (sp, sq, state p, state q) -> (rank,
    slice sign, moved set, weights below p and q, strands left below).

    The rank orders arcs before joins before exchanges.  The exchange
    strategy only walks a 0 state left past a nonzero one.  The strands
    left below are (offset from p, sign, state) of the columns that stay
    visible."""
    ranked: dict[tuple, tuple] = {}
    for (kind, sp, sq), table in _rule_moves().items():
        for (jp, jq), moves in table.items():
            if kind == "h" and (jp == 0 or jq != 0):
                continue
            assert len(moves) == 1, f"ambiguous {kind} move at {sp}{sq} {(jp, jq)}"
            sign, moved, below_p, below_q = moves[0]
            left = tuple(
                (offset, WEIGHT_TO_SIGN[len(below)], colorset_state(below))
                for offset, below in enumerate((below_p, below_q))
                if len(below) in (1, 2)
            )
            assert (sp, sq, jp, jq) not in ranked, f"two rules at {sp}{sq} {(jp, jq)}"
            ranked[(sp, sq, jp, jq)] = (_RANK[kind], sign, moved, len(below_p), len(below_q), left)
    return ranked


@lru_cache(maxsize=None)
def _hop(e: int, s: int, state: int, c: int) -> tuple[Slice, frozenset]:
    """The slice, with its moved set, that hops the strand of weight s
    showing `state` at column c leftward across the invisible column c-1
    of weight e."""
    assert e in (0, 3) and s in (1, 2)
    sign, power, other = ("-", s, frozenset()) if e == 0 else ("+", 3 - s, FULL)
    ((moved, _, _, _),) = transitions(sign, power)[colorset_for(s, state), other]
    return Slice(sign, c, power), moved


# ---------------------------------------------------------------------------
# the growth engine
# ---------------------------------------------------------------------------


def growth(signs: str, states) -> Flow:
    """Canonical growth; defined exactly on dominant state strings.

    Returns a flow on the basis web `.web`; it always has weight zero
    (asserted), making it the distinguished flow of that web.  Each step
    scans the adjacent visible pairs once and takes the move of lowest
    rank, leftmost first; it hops the pair's right strand leftward next
    to the left one and applies the move.  Slices are found from the top
    down; the flow's boundary is read off its replayed top configuration,
    not copied from `states`."""
    lam = list(weight_of_signs(signs))
    vis = visible_columns(tuple(lam))
    states = tuple(states)
    if len(states) != len(vis):
        raise ValueError("state string length must match visible strands")
    strands = [(c, WEIGHT_TO_SIGN[lam[c]], j) for c, j in zip(vis, states)]  # left to right
    ranked = _rule_priority()
    slices: list[Slice] = []
    moves: list[frozenset] = []
    guard = 0
    while strands:
        guard += 1
        if guard > 4 * len(signs) ** 2 + 16:
            raise AssertionError("growth failed to terminate")
        best = None
        for i in range(len(strands) - 1):
            (_, sp, jp), (_, sq, jq) = strands[i], strands[i + 1]
            hit = ranked.get((sp, sq, jp, jq))
            if hit is not None and (best is None or hit[0] < best[0]):
                best, at = hit, i
                if hit[0] == 0:
                    break
        if best is None:
            raise GrowthStuck(f"no rule applies to {signs} with {states}")
        _, sign, moved, below_p, below_q, left = best
        (p, _, _), (r, _, jr) = strands[at], strands[at + 1]
        for c in range(r, p + 1, -1):
            hop, hop_moved = _hop(lam[c - 1], lam[c], jr, c)
            slices.append(hop)
            moves.append(hop_moved)
            lam[c - 1], lam[c] = lam[c], lam[c - 1]
        slices.append(Slice(sign, p + 1, 1))
        moves.append(moved)
        lam[p], lam[p + 1] = below_p, below_q
        strands[at : at + 2] = [(p + offset, s, j) for offset, s, j in left]

    web = LadderWeb(tuple(lam), tuple(reversed(slices)))
    moves.reverse()
    cfgs, weight = walk_moves(web, moves)
    assert weight == 0, "canonical growth produced a nonzero weight"
    return Flow(web, tuple(moves), weight, config_states(cfgs[-1], vis))


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def dominant_states(signs: str) -> list[tuple[int, ...]]:
    """The states of the semistandard fillings, in descending order."""
    return sorted(semistandard_states(signs), reverse=True)


@lru_cache(maxsize=None)
def web_space(signs: str) -> "WebSpace":
    return WebSpace(signs)


class WebSpace:
    """The web basis of one boundary string, keyed by its dominant states
    in descending order, with three memos filled on request and freed with
    the space: `expanded` (J -> the web's vector), `elements` (J -> dual
    canonical element, filled by dualcan.element) and `states_of`.

    A vector is flows.web_vector's flat form {cfg | e << 3n: coeff} on the
    space's n columns: one int key per term, its packed top configuration
    and its exponent of q.  As 0 <= cfg < 1 << 3n, a key is >= 0 exactly
    when its exponent is, and >= 1 << 3n exactly when it is positive."""

    def __init__(self, signs: str):
        self.signs = signs
        self.top_weight = weight_of_signs(signs)
        self.n = len(self.top_weight)
        self.basis = {J: growth(signs, J).web for J in dominant_states(signs)}
        self.expanded: dict[tuple, dict] = {}  # J -> vector, filled on request

    def key(self, J: tuple) -> int:
        """J's packed configuration: its term of exponent 0 in a vector."""
        states = iter(J)
        return pack([
            colorset_for(w, next(states)) if w in (1, 2) else FULL if w == 3 else frozenset()
            for w in self.top_weight
        ])

    def expansion(self, J: tuple) -> dict:
        """The vector of the web at J, built on first request and asserted
        unitriangular, the invariant every flat reader rests on: no flow
        has positive weight (every key is below 1 << 3n), J's configuration
        holds the one term q^0, and J is the largest state.  Shared, so
        read-only."""
        if J not in self.expanded:
            vec, s = web_vector(self.basis[J]), 3 * self.n
            if max(vec) >= 1 << s:
                raise AssertionError(f"the basis web at {J} has a flow of positive weight")
            mask, states_of = (1 << s) - 1, self.states_of
            if (
                coefficient(vec, self.key(J), self.n) != {0: 1}
                or max(map(states_of.__getitem__, [key & mask for key in vec])) != J
            ):
                raise AssertionError(f"expansion of the basis web at {J} is not unitriangular")
            self.expanded[J] = vec
        return self.expanded[J]

    def scan(self):
        """Yield (J, vector) over the basis in descending order, read from
        the memo where it holds J; any other is built by `expansion` and
        dropped once the caller moves on.  So a cold scan holds one vector
        at a time, and a scan leaves `expanded` and `states_of` as it found
        them, also when the caller stops early or raises.  The order lets
        a caller drop dual canonical elements too: element(J) reads only
        elements below J, which the scan has not reached."""
        assert list(self.basis) == sorted(self.basis, reverse=True), "basis not descending"
        kept, kept_states = set(self.expanded), "states_of" in vars(self)
        try:
            for J in self.basis:
                yield J, self.expansion(J)
                if J not in kept:
                    del self.expanded[J]
        finally:
            for J in set(self.expanded) - kept:
                del self.expanded[J]
            if not kept_states:
                vars(self).pop("states_of", None)

    @cached_property
    def elements(self) -> dict[tuple, tuple]:
        """J -> (vector, row), filled by dualcan.element; made on first use,
        since most spaces never build an element."""
        return {}

    @cached_property
    def states_of(self) -> Memo:
        """Packed configuration -> its states, filled as `expansion` checks
        each vector and read by every reader that names a configuration's
        state: a 10-strand boundary's vectors hold tens of thousands of
        terms over a few thousand configurations."""
        n, cols = self.n, visible_columns(self.top_weight)
        return Memo(lambda cfg: config_states(unpack(cfg, n), cols))

    @cached_property
    def expansions(self) -> dict[tuple, dict]:
        """The vector of every basis web, all held at once."""
        return {J: self.expansion(J) for J in self.basis}


def flow_census(signs: str) -> Counter:
    """Flow count of each boundary state, summed over the basis webs.

    Every flow adds +q^weight to its top configuration, so the count is
    the sum of that configuration's coefficients; they are summed per
    configuration, and each configuration is mapped to its state once.
    Read through WebSpace.scan, so it holds one vector at a time, or reads
    those already memoized (selftest's criterion 3 expands every space)."""
    space = web_space(signs)
    mask, counts, states_of = (1 << 3 * space.n) - 1, {}, {}
    get = counts.get
    for _, vec in space.scan():
        states_of = space.states_of  # held past the scan, which drops it if it made it
        for key, c in vec.items():
            key &= mask
            counts[key] = get(key, 0) + c
    return Counter({states_of[cfg]: count for cfg, count in counts.items()})
