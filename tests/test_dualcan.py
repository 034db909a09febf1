"""Tests for dual canonical vectors, the bar involution, and the search."""

import gc
import subprocess
import sys
import time
import weakref
from itertools import count, product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from test_flows import nested

from webkup.qlaurent import LaurentPoly, ONE, ZERO
from webkup import dualcan, flows, growth as growth_module
from webkup.webs import LadderWeb, Slice, close, parse_states, signs_of_weight
from webkup.flows import (
    add_scaled,
    bracket,
    by_config,
    coefficient,
    count_weight_zero_flows,
    lusztig_form_vec,
    web_vector,
)
from webkup.oracles import invariant_dim
from webkup.planar import PlanarWeb, rewrite_bracket
from webkup.growth import WebSpace, growth, web_space
from webkup.dualcan import (
    bar_symmetric_top,
    dual_canonical_basis,
    element,
    search_counterexample,
    strictly_below_one,
)

TRIPOD = LadderWeb((3, 0, 0), (Slice("-", 1), Slice("-", 2), Slice("-", 1)))

SMALL = ("+-", "-+", "+++", "---", "++--", "+-+-", "o+x-", "+++---", "++-+--")


def P(pairs):
    return LaurentPoly(dict(pairs))


def test_bar_symmetric_top():
    p = P({2: 3, 0: 1, -1: 4, -3: 2})
    assert bar_symmetric_top(p) == P({2: 3, -2: 3, 0: 1})
    assert bar_symmetric_top(ZERO) == ZERO
    assert bar_symmetric_top(ONE) == ONE


@settings(max_examples=100)
@given(
    st.dictionaries(
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-4, max_value=4),
        max_size=6,
    )
)
def test_bar_symmetric_top_properties(coeffs):
    p = LaurentPoly(coeffs)
    f = bar_symmetric_top(p)
    assert f.is_bar_invariant()
    # agrees with p at all nonnegative exponents
    for e in range(0, 7):
        assert f.coeffs.get(e, 0) == p.coeffs.get(e, 0)
    # the difference is concentrated in negative exponents
    assert strictly_below_one(p - f) or (p - f).is_zero()


def test_strictly_below_one():
    assert strictly_below_one(P({-1: 2, -4: 1}))
    assert not strictly_below_one(P({0: 1}))
    assert not strictly_below_one(P({1: 1, -1: 1}))
    assert strictly_below_one(ZERO)


def test_single_web_boundary_is_its_own_dual_canonical():
    db = dual_canonical_basis("+++")
    assert list(db) == [(1, 0, -1)]
    assert db[(1, 0, -1)] == (web_vector(TRIPOD), {})


def test_webs_match_dual_canonical_small():
    """On small boundaries the basis webs already are the dual canonical
    vectors and no correction term is ever needed, so no element is a
    copy of its web's expansion."""
    for signs in SMALL:
        space = web_space(signs)
        for J, (vec, row) in dual_canonical_basis(signs).items():
            assert row == {}
            assert vec is space.expansion(J)


def test_element_coefficients_below_leading():
    for signs in ("++--", "+++---"):
        db = dual_canonical_basis(signs)
        space = web_space(signs)
        for J, (vec, _) in db.items():
            assert coefficient(vec, space.key(J), space.n) == {0: 1}
            # a key >= 0 is a term of exponent >= 0
            assert all(key < 0 for key in vec if key != space.key(J))


def test_lusztig_pairings_near_delta():
    """Pairings of dual canonical vectors are delta plus lower order."""
    for signs in ("++--", "+-+-", "+++---"):
        db = dual_canonical_basis(signs)
        groups = {J: by_config(vec, len(signs)) for J, (vec, _) in db.items()}
        keys = sorted(db)
        for J in keys:
            for K in keys:
                f = lusztig_form_vec(groups[J], groups[K])
                delta = ONE if J == K else ZERO
                diff = f - delta
                assert diff.is_zero() or strictly_below_one(diff)


def test_search_small_complete():
    rep = search_counterexample(max_strands=4, budget_s=120)
    assert rep.found == []
    assert rep.completed
    assert rep.checked_webs == 16
    assert rep.last_boundary == "----"
    assert "no counterexample found" in rep.summary()
    assert "complete" in rep.summary()


def test_search_writes_a_hit_as_a_state_string(monkeypatch):
    # plant a hit: +- has one basis web, at state 1m
    real = dualcan.count_weight_zero_flows

    def second_flow_on_plus_minus(web, stop_at):
        return 2 if signs_of_weight(web.top_weight) == "+-" else real(web, stop_at)

    monkeypatch.setattr(dualcan, "count_weight_zero_flows", second_flow_on_plus_minus)
    monkeypatch.setattr(dualcan, "element", lambda space, J: ({}, {J: ONE}))
    rep = search_counterexample(max_strands=2, budget_s=120)
    assert rep.found == [("+-", (1, -1))]
    assert rep.summary().splitlines()[0] == "counterexample: boundary +- state 1m"


def test_stop_at_first_says_the_search_stopped_at_its_hit(monkeypatch):
    # every web is a planted hit, so the search stops at the first, +-
    monkeypatch.setattr(dualcan, "count_weight_zero_flows", lambda *args, **kwargs: 2)
    monkeypatch.setattr(dualcan, "element", lambda space, J: ({}, {J: ONE}))
    rep = search_counterexample(max_strands=4, budget_s=120, stop_at_first=True)
    assert rep.found == [("+-", (1, -1))]
    assert (rep.checked_webs, rep.last_boundary, rep.completed) == (1, "+-", False)
    status = rep.summary().splitlines()[1]
    assert status.startswith("stopped at first counterexample: 1 webs checked, last boundary +-,")


def test_search_stopped_before_its_first_boundary_says_so():
    status = dualcan.SearchReport([], 0, None, False, 0.0).summary().splitlines()[1]
    assert status == "budget exhausted: 0 webs checked, no boundary started, 0.0s"


def test_no_flow_of_a_basis_web_has_positive_weight():
    """The invariant behind the search prefilter: every flow adds q^weight
    to its boundary's coefficient, so no exponent above 0 means no flow
    of positive weight, and the leading coefficient 1 is the one flow of
    weight 0 at the web's own state."""
    for n in range(2, 8):
        for signs in ("".join(p) for p in product("+-", repeat=n)):
            space = web_space(signs)
            for J, exp in space.expansions.items():
                assert coefficient(exp, space.key(J), n) == {0: 1}, (signs, J)
                # exponent e > 0 would put a key at or above 1 << 3n
                assert max(exp) < 1 << 3 * n, (signs, J)


def test_search_raises_on_a_flow_of_positive_weight(monkeypatch):
    # the circle's flows have weights 2, 0 and -2; handed to the search as
    # the basis web of +-, it breaks the invariant the prefilter rests on
    circle = LadderWeb((0, 3), (Slice("+", 1), Slice("-", 1)))

    def planted(signs, J):
        return SimpleNamespace(web=circle) if signs == "+-" else growth(signs, J)

    # the name WebSpace reads when it grows the basis the search walks
    monkeypatch.setattr(growth_module, "growth", planted)
    with pytest.raises(AssertionError, match="flow of weight 2"):
        search_counterexample(max_strands=2, budget_s=60)


def test_search_raises_when_the_prefilter_misses_growths_own_flow(monkeypatch):
    # windows one too small prune growth's own weight-zero flow, so every
    # count reads 0; read as "no hit", that would hide every counterexample
    real = flows._weight_window
    monkeypatch.setattr(flows, "_weight_window", lambda *args: real(*args) - 1)
    with pytest.raises(AssertionError, match="basis web 1m of \\+- has no weight-zero flow"):
        search_counterexample(max_strands=4, budget_s=60)


def test_light_confirmation_agrees_with_the_full_construction(monkeypatch):
    """With a prefilter that passes every web, the search checks every
    basis web through 6 strands and reports exactly the webs whose element
    row is non-empty (none)."""
    expected, webs = [], 0
    for n in range(2, 7):
        for signs in ("".join(p) for p in product("+-", repeat=n)):
            space = WebSpace(signs)
            webs += invariant_dim(signs)
            expected += [(signs, J) for J in space.basis if element(space, J)[1]]
    assert expected == []
    monkeypatch.setattr(dualcan, "count_weight_zero_flows", lambda *args, **kwargs: 2)
    rep = search_counterexample(max_strands=6, budget_s=600)
    assert rep.completed and rep.found == expected
    assert rep.checked_webs == webs


def test_dropping_a_space_frees_its_elements():
    # elements are memoized on their space, and nothing else holds it
    space = WebSpace("+++---")
    J = max(space.basis)
    assert element(space, J) is element(space, J)
    ref = weakref.ref(space)
    del space
    gc.collect()
    assert ref() is None


# two of the four 12-strand webs that differ from their dual canonical
# element (the other two are these rotated by two strands), and two at 13
# strands: each has a second weight-zero flow, which puts a q^0 term off
# the leading state
@pytest.mark.parametrize(
    "signs, J, K, coeff",
    [
        ("++--++--++--", "11110000mmmm", "11m1m1m1m1mm", {0: 1, -2: 5, -4: 2}),
        ("+--++--++--+", "1110100m0mmm", "1m1m1m1m1m1m", {0: 1, -2: 7, -4: 11, -6: 2}),
        ("++++-++--++--", "111010000mmmm", "110m1m1m1m1mm", {0: 1, -2: 5, -4: 2}),
        ("+++-+++--++--", "111100000mmmm", "11000m1m1m1mm", {0: 1, -2: 6, -4: 4}),
    ],
)
def test_twelve_strand_counterexamples(signs, J, K, coeff):
    J, K = parse_states(J), parse_states(K)
    space = WebSpace(signs)
    web, other = space.basis[J], space.basis[K]
    assert count_weight_zero_flows(web) == 2
    assert count_weight_zero_flows(web, stop_at=2) == 2
    exp = space.expansion(J)
    assert coefficient(exp, space.key(K), space.n) == coeff
    # the web is its element plus the web at K, which is its own element
    vec, row = element(space, J)
    assert row == {K: ONE}
    # B_J has coefficients in N[q^-1] off its leading 1: a key >= 0 is a
    # term of exponent >= 0
    assert all(c >= 0 for c in vec.values())
    assert all(key < 0 for key in vec if key != space.key(J))
    assert element(space, K) == (space.expansion(K), {})
    recon = dict(vec)
    add_scaled(recon, ONE, space.expansion(K), space.n)
    assert recon == exp
    # planar certificate: off the leading state a dual canonical pairing has
    # no constant term, and the rewriting evaluator finds one without flows
    value = rewrite_bracket(PlanarWeb.from_ladder(close(web, other)))
    assert value == bracket(close(web, other))
    form = value.shift(-len(signs))
    assert form == lusztig_form_vec(by_config(exp, space.n), by_config(space.expansion(K), space.n))
    assert form.degree() == 0 and form.coeffs[0] == 1


def test_element_fails_on_a_shifted_bar_top(monkeypatch):
    # no web through 6 strands needs a correction, so the fault is planted
    # on a real 12-strand hit, where the correction at K cannot clear q^0
    real = dualcan.bar_symmetric_top
    monkeypatch.setattr(dualcan, "bar_symmetric_top", lambda p: real(p.shift(1)))
    with pytest.raises(AssertionError, match="^correction failed: coefficient at "):
        element(WebSpace("++--++--++--"), parse_states("11110000mmmm"))


def test_counterexample_script_prints_each_correction():
    script = Path(__file__).resolve().parent.parent / "scripts" / "check_counterexamples.py"
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    expected = [
        ("++--++--++--", "11110000mmmm", "11m1m1m1m1mm"),
        ("--++--++--++", "11110000mmmm", "11m1m1m1m1mm"),
        ("+--++--++--+", "1110100m0mmm", "1m1m1m1m1m1m"),
        ("-++--++--++-", "1110100m0mmm", "1m1m1m1m1m1m"),
    ]
    lines = run.stdout.splitlines()
    assert len(lines) == len(expected)
    for line, (signs, J, K) in zip(lines, expected):
        assert line.startswith(f"{signs} {J}: is not dual canonical; corrections: d({J}, {K}) = 1 ("), line


def test_state_vectors_hold_no_zero():
    """No vector the library builds stores a zero coefficient, which is
    why none of their readers filters zeros (flows.add_scaled)."""
    for n in range(2, 7):
        for signs in ("".join(p) for p in product("+-", repeat=n)):
            vectors = [
                *web_space(signs).expansions.values(),
                *(vec for vec, _ in dual_canonical_basis(signs).values()),
            ]
            for vec in vectors:
                assert 0 not in vec.values(), signs
            for web in web_space(signs).basis.values():
                raw = nested(web_vector(web), len(web.top_weight))
                assert all(c and 0 not in c.values() for c in raw.values()), signs


def test_search_budget_exhaustion():
    rep = search_counterexample(max_strands=10, budget_s=0.0)
    assert not rep.completed
    assert rep.found == []
    assert "budget exhausted" in rep.summary()


def test_search_budget_ignores_a_wall_clock_step(monkeypatch):
    # each reading of the wall clock steps it an hour, past the budget; the
    # search must still finish, timed by its own run alone
    wall = count(0.0, 3600.0)
    monkeypatch.setattr(time, "time", lambda: next(wall))
    rep = search_counterexample(max_strands=4, budget_s=60)
    assert rep.completed, rep.summary()
    assert 0 <= rep.elapsed < 60


def test_search_budget_env(monkeypatch):
    from webkup.dualcan import default_budget

    monkeypatch.setenv("WEBKUP_SEARCH_BUDGET", "7.5")
    assert default_budget() == 7.5
    monkeypatch.setenv("WEBKUP_SEARCH_BUDGET", "0")
    assert default_budget() == 0.0
    monkeypatch.delenv("WEBKUP_SEARCH_BUDGET")
    assert default_budget() == 1800.0
