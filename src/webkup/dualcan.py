"""Dual canonical vectors and their comparison with basis webs.

Construction by upper-triangular correction: walk the dominant state
strings upward; start from the basis web's coordinate vector and, for
each smaller dominant string, subtract the bar-symmetric top of its
coefficient times the already-built element, leaving every coefficient
below the leading one inside q^-1 Z[q^-1].  All ingredients are fixed by
the bar involution, so the result is too.

Basis webs often coincide with these vectors but need not; the search
walks boundaries in increasing size looking for a web with a second
weight-zero flow, then confirms the discrepancy against the constructed
element.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .qlaurent import LaurentPoly, ONE, add_scaled
from .flows import count_weight_zero_flows, expansion
from .growth import dominant_states, growth, web_space
from .webs import format_states, plain_boundaries


def bar_symmetric_top(p: LaurentPoly) -> LaurentPoly:
    """The unique bar-invariant polynomial agreeing with p in all
    exponents >= 0."""
    out = {}
    for e, c in p.coeffs.items():
        if e > 0:
            out[e] = c
            out[-e] = out.get(-e, 0) + c
        elif e == 0:
            out[0] = out.get(0, 0) + c
    return LaurentPoly(out)


def strictly_below_one(p: LaurentPoly) -> bool:
    """All exponents <= -1."""
    return all(e <= -1 for e in p.coeffs)


@dataclass
class DualBasis:
    signs: str
    elements: dict = field(default_factory=dict)  # J -> state vector
    d_matrix: dict = field(default_factory=dict)  # (J, J') -> poly


@lru_cache(maxsize=None)
def dual_canonical_basis(signs: str) -> DualBasis:
    space = web_space(signs)
    order = sorted(space.basis)  # increasing, so corrections exist already
    db = DualBasis(signs)
    for J in order:
        vec = dict(space.expansions[J])
        for Jp in sorted((k for k in db.elements if k < J), reverse=True):
            c = vec.get(Jp)
            if c is None:
                continue
            f = bar_symmetric_top(c)
            if f.is_zero():
                continue
            db.d_matrix[(J, Jp)] = f
            add_scaled(vec, -f, db.elements[Jp])
        assert vec.get(J) == ONE, f"leading coefficient corrupted at {J}"
        for k, v in vec.items():
            if k != J and not strictly_below_one(v):
                raise AssertionError(
                    f"correction failed: coefficient at {k} of element {J} "
                    f"is {v}"
                )
        db.elements[J] = vec
    return db


def apply_bar(signs: str, vec: dict) -> dict:
    """Bar involution in state coordinates: fix the basis webs, conjugate
    the web-basis coefficients."""
    space = web_space(signs)
    coords = space.reduce_to_basis(vec)
    out: dict = {}
    for J, c in coords.items():
        add_scaled(out, c.bar(), space.expansions[J])
    return out


def is_bar_invariant_vec(signs: str, vec: dict) -> bool:
    return apply_bar(signs, vec) == vec


def web_matches_dual_canonical(signs: str, J: tuple[int, ...]) -> bool:
    db = dual_canonical_basis(signs)
    space = web_space(signs)
    return space.expansions[J] == db.elements[J]


def web_is_dual_canonical(web, J: tuple[int, ...]) -> bool:
    """Whether the basis web with leading state J is its dual canonical
    element, read off the web's own expansion.

    The web is bar-invariant with leading coefficient 1, and the dual
    canonical element is the one such vector whose other coefficients all
    lie in q^-1 Z[q^-1]; so the two agree exactly when the web's do.
    web_matches_dual_canonical, which builds the whole space, is the
    reference this is tested against."""
    exp = expansion(web)
    if max(exp) != J or exp[J] != ONE:
        raise AssertionError(f"expansion of the basis web at {J} is not unitriangular")
    return all(strictly_below_one(v) for k, v in exp.items() if k != J)


# ---------------------------------------------------------------------------
# counterexample search
# ---------------------------------------------------------------------------


@dataclass
class SearchReport:
    found: list  # (signs, states) with web != dual canonical element
    checked_webs: int
    last_boundary: str | None
    completed: bool
    elapsed: float
    stopped_at_first: bool = False  # stop_at_first ended the search at a hit

    def summary(self) -> str:
        lines = []
        if self.found:
            for signs, J in self.found:
                lines.append(f"counterexample: boundary {signs} state {format_states(J)}")
        else:
            lines.append("no counterexample found")
        status = "complete" if self.completed else "budget exhausted"
        if self.stopped_at_first:
            status = "stopped at first counterexample"
        last = self.last_boundary
        where = f"last boundary {last}" if last else "no boundary started"
        lines.append(f"{status}: {self.checked_webs} webs checked, {where}, {self.elapsed:.1f}s")
        return "\n".join(lines)


def default_budget() -> float:
    text = os.environ.get("WEBKUP_SEARCH_BUDGET", "1800")
    try:
        if (budget := float(text)) >= 0:  # also false for nan
            return budget
    except ValueError:
        pass
    raise ValueError(f"WEBKUP_SEARCH_BUDGET must be a number of seconds >= 0, got {text!r}")


def search_counterexample(
    max_strands: int = 10,
    budget_s: float | None = None,
    stop_at_first: bool = False,
    min_strands: int = 2,
) -> SearchReport:
    """Scan plain boundaries of min_strands to max_strands strands, by size,
    for a basis web with more than one weight-zero flow; confirm from its
    expansion (web_is_dual_canonical) that it is not its dual canonical
    element.  With stop_at_first it ends at its first counterexample.

    The prefilter is complete only because no flow of a basis web has
    positive weight: every expansion coefficient has exponents <= 0 and
    the leading one is exactly 1, so a web with a single weight-zero
    flow has every off-leading exponent <= -1, needs no correction and
    is its dual canonical element.  The prefilter's walk checks that
    invariant on every web it visits (count_weight_zero_flows raises on
    a flow of positive weight)."""
    budget = default_budget() if budget_s is None else budget_s
    t0 = time.time()
    found = []
    checked = 0
    last = None
    for signs in plain_boundaries(max_strands, min_strands):
        if time.time() - t0 > budget:
            return SearchReport(found, checked, last, False, time.time() - t0)
        last = signs
        for J in dominant_states(signs):
            web = growth(signs, J).web
            checked += 1
            if count_weight_zero_flows(web, stop_at=2) > 1:
                if not web_is_dual_canonical(web, J):
                    found.append((signs, J))
                    if stop_at_first:
                        return SearchReport(
                            found, checked, last, False, time.time() - t0, True
                        )
    return SearchReport(found, checked, last, True, time.time() - t0)
