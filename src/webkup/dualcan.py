"""Dual canonical vectors and their comparison with basis webs.

Each element is built on demand from its own web (element): start from
the web's expansion and, at the largest state off the leading one whose
coefficient has an exponent >= 0, subtract the bar-symmetric top of that
coefficient times the element of that state; repeat until every
coefficient below the leading one lies in q^-1 Z[q^-1].  All ingredients
are fixed by the bar involution, so the result is too.

Basis webs often coincide with these vectors but need not; the search
walks boundaries in increasing size looking for a web with a second
weight-zero flow, then confirms the discrepancy by building that web's
element in a web space of its own boundary.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache

from .qlaurent import LaurentPoly, add_scaled
from .flows import count_weight_zero_flows
from .growth import WebSpace, web_space
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


def element(space: WebSpace, J: tuple) -> tuple[dict, dict]:
    """The dual canonical element led by J, as (state vector, row), where
    the row {K: c_JK} gives the web as the element plus the sum of c_JK
    times the element led by K; the row is empty exactly when the web is
    its element.  Each c_JK is bar-invariant by construction and in
    N[q, q^-1] (asserted): it is a graded multiplicity of a projective
    under the paper's Morita equivalence with a level-3 cyclotomic KLR
    algebra.  An element that needs no correction is its web's
    expansion itself; both are shared, so read-only.  Memoized in
    space.elements, so a rebuilt or planted space gets its own elements
    and dropping a space frees them."""
    if J in space.elements:
        return space.elements[J]
    vec, row = space.expansion(J), {}
    last = J
    # correct at the largest state off J whose coefficient has an exponent >= 0
    while (
        K := max((k for k, v in vec.items() if k != J and not strictly_below_one(v)), default=None)
    ) is not None:
        # a correction leaves only smaller states to correct, so each one
        # lands strictly below the last; anything else would never end
        if K >= last or K not in space.basis:
            raise AssertionError(f"correction failed: coefficient at {K} of element {J} is {vec[K]}")
        if not row:
            vec = dict(vec)
        row[K] = bar_symmetric_top(vec[K])
        if not row[K].is_nonnegative():
            raise AssertionError(f"negative correction at {K} of element {J}: {row[K]}")
        add_scaled(vec, -row[K], element(space, K)[0])
        last = K
    space.elements[J] = vec, row
    return space.elements[J]


@lru_cache(maxsize=None)
def dual_canonical_basis(signs: str) -> dict:
    """{J: element(space, J)} over the web basis of signs."""
    space = web_space(signs)
    return {J: element(space, J) for J in space.basis}


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
    for a basis web with more than one weight-zero flow; confirm that it
    is not its dual canonical element by a non-empty row of element.  Each
    boundary gets a WebSpace of its own, not the cached web_space, so its
    webs and elements are freed before the next.  With stop_at_first it
    ends at its first counterexample.

    The prefilter is complete only because no flow of a basis web has
    positive weight: every expansion coefficient has exponents <= 0 and
    the leading one is exactly 1, so a web with a single weight-zero
    flow has every off-leading exponent <= -1, needs no correction and
    is its dual canonical element.  The prefilter's walk checks that
    invariant on every web it visits (count_weight_zero_flows raises on
    a flow of positive weight), and the search raises AssertionError on
    a web whose walk misses growth's own weight-zero flow."""
    budget = default_budget() if budget_s is None else budget_s
    t0 = time.monotonic()
    found = []
    checked = 0
    last = None
    for signs in plain_boundaries(max_strands, min_strands):
        if time.monotonic() - t0 > budget:
            return SearchReport(found, checked, last, False, time.monotonic() - t0)
        last = signs
        space = WebSpace(signs)
        for J, web in space.basis.items():
            checked += 1
            if (zero_flows := count_weight_zero_flows(web, stop_at=2)) < 1:
                raise AssertionError(f"basis web {format_states(J)} of {signs} has no weight-zero flow")
            if zero_flows > 1 and element(space, J)[1]:
                found.append((signs, J))
                if stop_at_first:
                    return SearchReport(found, checked, last, False, time.monotonic() - t0, True)
    return SearchReport(found, checked, last, True, time.monotonic() - t0)
