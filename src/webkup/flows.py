"""Flow model and exact evaluation of ladder webs.

A flow decorates every edge of a web with a subset of the three colors
{-1, 0, +1}, of size equal to the edge label, conserving colors at every
junction.  Sweeping a ladder bottom to top, a slice moving `power` units
between adjacent columns moves a set X of that many colors, and each move
carries an integer weight; a flow contributes q^(total weight).

The boundary value (state) of a visible column is the sum of its color
set: a single strand shows its color, a double strand shows the sum of
its pair (equivalently minus the hidden third color).

The weight of a single move is one count in the color order -1 < 0 < 1
(move_weight).  With A and B the left and right color sets before the
move, a '+' move of x into A weighs #{a in A : a > x} - #{b in B : b > x},
and a '-' move of x into B, its mirror, weighs
#{b in B : b < x} - #{a in A : a < x}.  These weights are the unique
solution of three requirements and a gauge:
  * the commutation identity for opposite ladder operators on two
    columns, whose diagonal is the quantum integer of the weight gap;
  * commutation of opposite operators on disjoint overlapping column
    pairs (three-column contexts);
  * mirror symmetry: reflecting a web top to bottom shifts every flow
    weight by the visible-strand count of the top minus the bottom.
The requirements leave six solutions, the count read in each of the six
orders of the colors (relabeling the colors permutes them); the gauge,
that the distinguished flow of four small webs (the two arcs and the two
three-strand joins) has weight zero, picks the order above.
scripts/calibrate_weights.py solves the requirements on their own,
reports how many solutions survive with and without the gauge, and checks
that the power-1 tables of both slice kinds equal the derivation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .qlaurent import LaurentPoly, qfact
from .webs import LadderWeb, visible_columns

COLORS = (-1, 0, 1)
FULL = frozenset(COLORS)
SUBSETS = tuple(frozenset(c for i, c in enumerate(COLORS) if mask >> i & 1) for mask in range(8))
MASK_OF = {A: mask for mask, A in enumerate(SUBSETS)}  # bit i set for COLORS[i]

# each visible color set to its state; no ∅ or FULL: looking either up raises KeyError
STATE_OF = {A: sum(A) for A in SUBSETS if len(A) in (1, 2)}
_COLORSET_OF = {(len(A), s): A for A, s in STATE_OF.items()}
assert len(_COLORSET_OF) == 6, f"two visible color sets of one size show one state: {STATE_OF}"


def colorset_for(weight: int, state: int) -> frozenset:
    """The unique color set of given size summing to the state."""
    try:
        return _COLORSET_OF[weight, state]
    except KeyError:
        raise ValueError(f"no visible column of weight {weight} shows state {state}") from None


def colorset_state(colors: frozenset) -> int:
    """Boundary state shown by a visible column carrying this color set."""
    if colors not in STATE_OF:
        raise ValueError(f"visible column needs 1 or 2 colors, got {set(colors)}")
    return STATE_OF[colors]


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


def move_weight(sign: str, A: frozenset, B: frozenset, x: int) -> int:
    """Weight of a single move of color x on the left and right color sets
    A and B before it: a '+' move counts the colors above x in A less
    those in B, a '-' move the colors below x in B less those in A."""
    if sign == "+":
        return sum(a > x for a in A) - sum(b > x for b in B)
    return sum(b < x for b in B) - sum(a < x for a in A)


@lru_cache(maxsize=None)
def transitions(sign: str, power: int) -> dict:
    """The transition table of one slice kind: each of the 64 pairs (A, B)
    of column color sets maps to its moves (moved set X, new left set,
    new right set, weight), sorted by X.

    Power 1 holds the single moves weighed by move_weight.  Power a is
    the power-1 slice applied a times to the pair by sweep_raw and
    divided by the quantum factorial [a]!; each entry must come out as a
    plain power of q, the flow weight of the move.
    That, and that every move carries `power` colors across (so a column's
    color set always has as many colors as its weight, which the weight
    windows rely on), are checked loudly on every pair.
    """
    if power == 1:
        table = {
            (A, B): tuple(
                (frozenset((x,)), nA, nB, move_weight(sign, A, B, x))
                for x, nA, nB in _single_moves(sign, A, B)
            )
            for A, B in product(SUBSETS, repeat=2)
        }
    else:
        fact, table = qfact(power), {}
        for A, B in product(SUBSETS, repeat=2):
            # the single slice `power` times on the two columns alone; the
            # moved set is what the left column gained ('+') or lost ('-')
            raw = sweep_raw({MASK_OF[A] | MASK_OF[B] << 3: 1}, [(sign, 1, 1)] * power, 2)
            moves = []
            for pair, coeffs in by_config(raw, 2).items():
                nA, nB = SUBSETS[pair & 7], SUBSETS[pair >> 3]
                X = nA - A if sign == "+" else A - nA
                mono = LaurentPoly(coeffs).exact_div(fact)
                if not mono.is_monomial_coeff_one():
                    raise AssertionError(
                        f"divided power entry is not a plain q power: {sign}^{power} "
                        f"on {set(A)},{set(B)} moving {set(X)} gave {mono}"
                    )
                moves.append((X, nA, nB, mono.degree()))
            table[A, B] = tuple(sorted(moves, key=lambda move: sorted(move[0])))
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
    if any(v not in (0, 3) for v in lam):
        raise ValueError("sweep needs a closed bottom weight (entries 0/3)")
    return tuple([FULL if v else frozenset() for v in lam])


def pack(cfg) -> int:
    """A color configuration as one int: column i in bits 3i..3i+2, with
    bit j set for COLORS[j] (MASK_OF)."""
    return sum(MASK_OF[A] << 3 * i for i, A in enumerate(cfg))


def unpack(key: int, n: int) -> tuple[frozenset, ...]:
    """The n color sets of a packed configuration; pack's inverse."""
    return tuple([SUBSETS[key >> 3 * i & 7] for i in range(n)])


@lru_cache(maxsize=None)
def _moves(sign: str, power: int, c3: int, s: int) -> tuple:
    """transitions(sign, power) as the ints its moves add to a flat key
    (sweep_raw) whose column pair sits at bit c3 and exponent at bit s,
    entry pack((A, B)) for the left and right color sets A and B: the
    packed moved pair less the pair, shifted to c3, plus the weight,
    shifted to s, in transitions' order."""
    own = {}.setdefault  # one object per distinct int and move list: a table repeats few
    rows = [()] * 64
    for pair, moves in transitions(sign, power).items():
        p = pack(pair)
        rows[p] = [(pack((nA, nB)) - p << c3) + (w << s) for _, nA, nB, w in moves]
    return tuple([own(t, t) for t in [tuple([own(d, d) for d in row]) for row in rows]])


def sweep_raw(raw: dict, slices, n: int) -> dict:
    """The ladder-sweep kernel: apply slices in order to a flat vector
    {cfg | e << 3n: coeff} on n columns, each key one term, its packed
    color configuration (pack) and its exponent of q: key & (1 << 3n) - 1
    and key >> 3n, exact for e < 0 too, as >> floors.  A move adds its
    _moves int to the key.  Every vector the library sweeps starts as
    web_vector's {start: 1}, and each move only adds a coefficient-1 power
    of q (transitions asserts it of divided powers), so no sum cancels and
    the output holds no zero without a filter.  The input is not mutated,
    and it is returned as is when there is no slice."""
    for sign, index, power in slices:
        c3 = 3 * (index - 1)
        table = _moves(sign, power, c3, 3 * n)
        out: dict[int, int] = {}
        get = out.get
        for key, k in raw.items():
            for d in table[key >> c3 & 63]:
                nk = key + d
                out[nk] = get(nk, 0) + k
        raw = out
    return raw


def by_config(vec: dict, n: int) -> dict[int, dict[int, int]]:
    """A flat vector on n columns (sweep_raw) as {cfg: {exponent: coeff}},
    the configurations in the order of their first term."""
    s, mask, out = 3 * n, (1 << 3 * n) - 1, {}
    for key, k in vec.items():
        out.setdefault(key & mask, {})[key >> s] = k
    return out


def web_vector(web: LadderWeb) -> dict[int, int]:
    """The flat vector (sweep_raw) of a closed-bottom web's top color
    configurations and exponents, swept slice by slice from the bottom."""
    return sweep_raw({pack(start_config(web.bottom_weight)): 1}, web.slices, len(web.bottom_weight))


class Memo(dict):
    """A dict that fills a missing key with fill(key) and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


def config_states(cfg, cols) -> tuple[int, ...]:
    try:
        return tuple([STATE_OF[cfg[i]] for i in cols])
    except KeyError:  # colorset_state names the column with no state
        return tuple([colorset_state(cfg[i]) for i in cols])


def coefficient(vec: dict, cfg: int, n: int) -> dict[int, int]:
    """The {exponent: coeff} of one configuration of a flat vector on n
    columns (sweep_raw), probed at each exponent from the vector's least
    to its greatest."""
    s = 3 * n
    keys = [cfg + (e << s) for e in range(min(vec, default=0) >> s, (max(vec, default=0) >> s) + 1)]
    return {key >> s: vec[key] for key in keys if key in vec}


def add_scaled(acc: dict, c: LaurentPoly, vec: dict, n: int) -> None:
    """acc += c * vec in place, on flat vectors on n columns (sweep_raw):
    each term q^e of c adds e << 3n to vec's keys.  An entry that cancels
    is deleted, so a vector built here, like one the sweep builds, stores
    no zero and no reader filters zeros."""
    s = 3 * n
    get = acc.get
    for e, a in c.coeffs.items():
        d = e << s
        for key, k in vec.items():
            key += d
            if v := get(key, 0) + a * k:
                acc[key] = v
            else:
                del acc[key]


def expansion(web: LadderWeb) -> dict[tuple[int, ...], LaurentPoly]:
    """Boundary-state coefficients of a closed-bottom web.

    Maps each state string of the top boundary to an exact Laurent
    polynomial; the top configuration of a flow determines its states
    (and conversely, so no information is lost here).  The library's own
    readers keep web_vector's flat form; this is the form `expand
    WEB_JSON` writes.
    """
    n, cols = len(web.top_weight), visible_columns(web.top_weight)
    return {
        config_states(unpack(cfg, n), cols): LaurentPoly._trusted(coeffs)
        for cfg, coeffs in by_config(web_vector(web), n).items()
    }


def closed_value(vec: dict, n: int) -> LaurentPoly:
    """The value of a closed web on n columns read off its flat vector
    (sweep_raw), whose terms share one configuration (asserted)."""
    groups = by_config(vec, n)
    assert len(groups) <= 1, "a closed web has one top configuration"
    return LaurentPoly._trusted(next(iter(groups.values()), {}))


def bracket(web: LadderWeb) -> LaurentPoly:
    """Value of a closed web: the sum q^(weight) over all of its flows."""
    if not web.is_closed():
        raise ValueError("bracket needs a closed web")
    return closed_value(web_vector(web), len(web.top_weight))


class Flow(NamedTuple):
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
    """Normalized pairing of two vectors grouped by configuration
    (by_config), configuration by configuration; on two basis webs'
    vectors it is q^(-strand count) * bracket(close(u, v))."""
    out: dict[int, int] = {}
    for cfg, a in u.items():
        b = v.get(cfg)
        if b is not None:
            for e, c in a.items():
                for f, d in b.items():
                    out[e + f] = out.get(e + f, 0) + c * d
    return LaurentPoly(out)
