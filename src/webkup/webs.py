"""Boundary strings, weight vectors and webs in ladder form.

A web lives on n vertical columns.  Its shape is recorded as a bottom
weight vector (each entry 0..3, the multiplicity of the column strand)
plus a list of ladder slices; each slice moves `power` units of weight
between two adjacent columns, so every intermediate weight vector stays
inside {0,..,3}.

Boundary sign characters:  o (empty), + (single strand), - (double
strand), x (triple, invisible).  Only + and - columns are visible.
State characters for flow boundary values:  1, 0, m  (for +1, 0, -1).
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

SIGN_TO_WEIGHT = {"o": 0, "+": 1, "-": 2, "x": 3}
WEIGHT_TO_SIGN = {0: "o", 1: "+", 2: "-", 3: "x"}

STATE_TO_CHAR = {1: "1", 0: "0", -1: "m"}
CHAR_TO_STATE = {"1": 1, "0": 0, "m": -1}


def weight_of_signs(signs: str) -> tuple[int, ...]:
    """Weight vector of a (possibly enhanced) sign string."""
    try:
        return tuple(SIGN_TO_WEIGHT[c] for c in signs)
    except KeyError as exc:
        raise ValueError(f"bad sign character in {signs!r}") from exc


def signs_of_weight(lam: tuple[int, ...]) -> str:
    try:
        return "".join(WEIGHT_TO_SIGN[v] for v in lam)
    except KeyError as exc:
        raise ValueError(f"weight entries must be 0..3: {lam}") from exc


def hat(signs: str) -> str:
    """Drop the invisible o and x columns."""
    return "".join(c for c in signs if c in "+-")


def ell(signs: str) -> int:
    """Number of visible strands."""
    return len(hat(signs))


def visible_columns(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(lam) if v in (1, 2))


def parse_states(text: str) -> tuple[int, ...]:
    try:
        return tuple(CHAR_TO_STATE[c] for c in text)
    except KeyError as exc:
        raise ValueError(f"bad state character in {text!r}") from exc


def format_states(states: tuple[int, ...]) -> str:
    return "".join(map(STATE_TO_CHAR.__getitem__, states))


def plain_boundaries(max_strands: int, min_strands: int = 2) -> Iterator[str]:
    """Every sign string over + and - of min_strands to max_strands
    strands, shortest first."""
    for n in range(min_strands, max_strands + 1):
        for tup in product("+-", repeat=n):
            yield "".join(tup)


def weights_bounded(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """All weight vectors of length n, entries 0..3, summing to total."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(3, total) + 1):
        for rest in weights_bounded(n - 1, total - first):
            yield (first,) + rest


class Slice(NamedTuple):
    """One ladder rung: sign '+' moves weight toward the smaller column
    index, '-' away from it; index is 1-based (acts on columns index,
    index+1); power is the amount of weight moved (1..3)."""

    sign: str
    index: int
    power: int = 1

    def reflected(self) -> "Slice":
        return Slice("-" if self.sign == "+" else "+", self.index, self.power)

    def rung(self) -> tuple[int, int]:
        """The rung's (tail, head) columns, 0-based: a power-1 rung points
        the way the slice moves weight, a power-2 rung the other way.  A
        power-3 rung is invisible, and callers skip it."""
        left, right = self.index - 1, self.index
        to_left = (self.sign == "+") != (self.power == 2)
        return (right, left) if to_left else (left, right)


def mirror(slices) -> tuple[Slice, ...]:
    """The slices of a ladder read top to bottom, each rung reflected."""
    return tuple(s.reflected() for s in reversed(slices))


def step_weight(lam: tuple[int, ...], s: Slice):
    """Weight after one rung, or None if it leaves 0..3."""
    c = s.index - 1
    if not 1 <= s.index <= len(lam) - 1:
        raise ValueError(f"slice index out of range: {s}")
    d = s.power if s.sign == "+" else -s.power
    out = list(lam)
    out[c] += d
    out[c + 1] -= d
    if not (0 <= out[c] <= 3 and 0 <= out[c + 1] <= 3):
        return None
    return tuple(out)


class LadderWeb:
    """A web presented as a ladder: bottom weight plus slices, read upward.

    Immutable.  Equality, hash and repr read bottom_weight and slices;
    top_weight follows from them."""

    __slots__ = ("bottom_weight", "slices", "top_weight")

    def __init__(self, bottom_weight: tuple[int, ...], slices: tuple[Slice, ...]):
        init = object.__setattr__
        init(self, "bottom_weight", tuple(bottom_weight))
        init(self, "slices", tuple(s if type(s) is Slice else Slice(*s) for s in slices))
        # walk the levels once to validate everything loudly
        init(self, "top_weight", self.levels()[-1])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable LadderWeb")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable LadderWeb")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which validates again
        return LadderWeb, (self.bottom_weight, self.slices)

    def __eq__(self, other):
        if other.__class__ is not LadderWeb:
            return NotImplemented
        return self.bottom_weight == other.bottom_weight and self.slices == other.slices

    def __hash__(self):
        return hash((self.bottom_weight, self.slices))

    def __repr__(self):
        return f"LadderWeb(bottom_weight={self.bottom_weight!r}, slices={self.slices!r})"

    @property
    def n_cols(self) -> int:
        return len(self.bottom_weight)

    def levels(self) -> list[tuple[int, ...]]:
        """Weight vectors between slices, bottom first (len(slices)+1 of them)."""
        lam = self.bottom_weight
        if any(v not in (0, 1, 2, 3) for v in lam):
            raise ValueError(f"bottom weight out of range: {list(lam)}")
        out = [lam]
        for s in self.slices:
            if s.sign not in ("+", "-"):
                raise ValueError(f"bad slice sign: {s}")
            if not 1 <= s.power <= 3:
                raise ValueError(f"slice power out of range: {s}")
            lam = step_weight(lam, s)
            if lam is None:
                raise ValueError(f"slice {s} leaves the weight range 0..3 above {out[-1]}")
            out.append(lam)
        return out

    def runs(self) -> Iterator[tuple[int, int | None, int | None, int]]:
        """Each column's vertical runs, bottom to top, as (column, lower
        slice index, upper slice index, weight).  A run ends at every slice touching
        its column; None stands for the bottom or the top.  Runs of weight
        0 and 3 are included: they are invisible, not absent."""
        levels = self.levels()
        ends: list[list[int]] = [[] for _ in range(self.n_cols)]
        for k, s in enumerate(self.slices):
            ends[s.index - 1].append(k)
            ends[s.index].append(k)
        for col, ks in enumerate(ends):
            for lo, hi in zip([None, *ks], [*ks, None]):
                yield col, lo, hi, levels[0 if lo is None else lo + 1][col]

    def is_closed(self) -> bool:
        return self.has_closed_bottom() and all(v in (0, 3) for v in self.top_weight)

    def has_closed_bottom(self) -> bool:
        return all(v in (0, 3) for v in self.bottom_weight)

    def reflect(self) -> "LadderWeb":
        """Flip the web upside down (the star / mirror web)."""
        return LadderWeb(self.top_weight, mirror(self.slices))

    def stack(self, upper: "LadderWeb") -> "LadderWeb":
        if self.top_weight != upper.bottom_weight:
            raise ValueError("stack mismatch: top weight != upper bottom weight")
        return LadderWeb(self.bottom_weight, self.slices + upper.slices)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "bottom_weight": list(self.bottom_weight),
            "slices": [
                {"sign": s.sign, "index": s.index, "power": s.power}
                for s in self.slices
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LadderWeb":
        def integer(v):
            if type(v) is not int:  # bool, float and str are not read as ints
                raise ValueError(f"expected a JSON integer, got {v!r}")
            return v

        slices = tuple(
            Slice(s["sign"], integer(s["index"]), integer(s.get("power", 1)))
            for s in data["slices"]
        )
        return cls(tuple(integer(v) for v in data["bottom_weight"]), slices)


def empty_web(lam: tuple[int, ...]) -> LadderWeb:
    if any(v not in (0, 3) for v in lam):
        raise ValueError("empty web needs a closed weight (entries 0 or 3)")
    return LadderWeb(tuple(lam), ())


def close(u: LadderWeb, v: LadderWeb) -> LadderWeb:
    """Glue the mirror of u on top of v; both must share their top weight.

    When u and v also have closed bottoms the result is a closed web whose
    evaluation is the pairing of u and v.
    """
    if u.top_weight != v.top_weight:
        raise ValueError("close() needs matching top weights")
    return v.stack(u.reflect())
