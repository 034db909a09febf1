"""Tests for the growth algorithm and the web basis."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from webkup import flows
from webkup.qlaurent import ONE
from webkup.webs import LadderWeb, Slice, plain_boundaries, weight_of_signs
from webkup.flows import count_weight_zero_flows, expansion
from webkup.growth import (
    GrowthStuck,
    WebSpace,
    _rule_priority,
    dominant_states,
    growth,
    web_space,
)
from webkup.oracles import invariant_dim


def test_derived_rule_tables():
    def stage(ranked, rank):
        """(sp, sq) -> {(state p, state q): moved colors} of one rank."""
        out = {}
        for (sp, sq, jp, jq), (r, _, moved, *_) in ranked.items():
            if r == rank:
                out.setdefault((sp, sq), {})[(jp, jq)] = set(moved)
        return out

    canonical = _rule_priority()
    assert len(canonical) == 12
    assert set(stage(canonical, 0)) == {("+", "-"), ("-", "+")}
    assert all(set(t) == {(1, -1)} for t in stage(canonical, 0).values())
    joins = stage(canonical, 1)
    assert set(joins) == {("+", "+"), ("-", "-")}
    assert all(set(t) == {(1, 0), (1, -1), (0, -1)} for t in joins.values())
    # the exchange strategy only walks a 0 state left past a nonzero one
    assert stage(canonical, 2) == {
        ("+", "-"): {(1, 0): {-1}, (-1, 0): {1}},
        ("-", "+"): {(1, 0): {1}, (-1, 0): {-1}},
    }


def test_derived_rules_doc_is_current(calibration):
    """docs/derived_rules.md is what the calibration script writes from
    today's rule tables (6 solutions, 1 after the gauge): every
    weight-zero move, exchanges included, is pinned by the committed
    file.  The script is loaded, not run, so no calibration happens."""
    assert calibration.docs_text(6, 1) == calibration.DOC.read_text()


def test_dominance_examples():
    assert (1, -1) in dominant_states("+-")
    assert (0, 0) not in dominant_states("+-")  # row (2, 1, 2) not increasing
    assert (1, 0, -1) in dominant_states("+++")
    assert (0, 1, -1) not in dominant_states("+++")
    assert () in dominant_states("")


def test_dominant_states_rejects_bad_sign_characters():
    with pytest.raises(ValueError):
        dominant_states("+a-")


def test_growth_arc():
    gw = growth("+-", (1, -1))
    assert gw.web == LadderWeb((0, 3), (Slice("+", 1),))
    assert gw.weight == 0


def test_growth_tripod():
    gw = growth("+++", (1, 0, -1))
    assert gw.web == LadderWeb(
        (3, 0, 0), (Slice("-", 1), Slice("-", 2), Slice("-", 1))
    )
    assert gw.moves == (frozenset({-1}), frozenset({-1}), frozenset({0}))


def test_growth_nested_arcs():
    gw = growth("++--", (1, 1, -1, -1))
    assert gw.web == LadderWeb(
        (0, 3, 0, 3),
        (Slice("+", 1), Slice("-", 2, 2), Slice("+", 3), Slice("+", 2)),
    )


def test_growth_h_web():
    gw = growth("++--", (1, 0, 0, -1))
    assert gw.web == LadderWeb(
        (0, 3, 3, 0),
        (
            Slice("+", 1),
            Slice("+", 2),
            Slice("-", 3, 2),
            Slice("+", 1),
            Slice("-", 2, 2),
            Slice("-", 1),
        ),
    )


def test_growth_seven_strands():
    # a longer trace exercising transport, joins and the exchange rule
    gw = growth("+-+-+++", (1, 1, 0, 0, -1, 0, -1))
    assert gw.web.bottom_weight == (0, 3, 3, 0, 0, 3, 0)
    assert gw.weight == 0
    assert expansion(gw.web)[(1, 1, 0, 0, -1, 0, -1)] == ONE
    assert count_weight_zero_flows(gw.web) == 1


def test_growth_stuck_on_non_dominant():
    with pytest.raises(GrowthStuck):
        growth("+-", (0, 0))
    with pytest.raises(GrowthStuck):
        growth("++", (1, 1))


def test_termination_iff_dominance_small():
    for n in range(0, 6):
        for signs in ("".join(p) for p in product("+-", repeat=n)):
            dominant = set(dominant_states(signs))
            for J in product((1, 0, -1), repeat=n):
                dom = J in dominant
                try:
                    growth(signs, J)
                    assert dom, (signs, J)
                except GrowthStuck:
                    assert not dom, (signs, J)


@given(st.text(alphabet="+-", min_size=6, max_size=7),
       st.data())
@settings(max_examples=60, deadline=None)
def test_termination_iff_dominance_random(signs, data):
    J = tuple(data.draw(st.sampled_from((1, 0, -1))) for _ in signs)
    dom = J in dominant_states(signs)
    try:
        gw = growth(signs, J)
        assert dom
        assert gw.weight == 0
    except GrowthStuck:
        assert not dom


def test_basis_sizes_match_invariant_dim():
    for n in range(0, 7):
        for signs in ("".join(p) for p in product("+-", repeat=n)):
            assert len(dominant_states(signs)) == invariant_dim(signs)


def test_basis_sizes_enhanced_boundaries():
    for signs in ["+ox-", "o+x+--", "xx++--o", "+oxo-", "x", "oo", ""]:
        assert len(web_space(signs).basis) == invariant_dim(signs)


def test_expansions_unitriangular():
    ws = web_space("+-+-")
    states = sorted(ws.basis, reverse=True)
    for J in states:
        exp = ws.expansions[J]
        assert exp[J] == ONE
        for K, c in exp.items():
            if not c.is_zero():
                assert K <= J


def test_expansions_unitriangular_seven_and_eight_strands():
    # expansions are built on first use, so reading them here is what checks
    # the spaces that criterion 5 only counts
    spaces = 0
    for signs in ("".join(p) for n in (7, 8) for p in product("+-", repeat=n)):
        ws = web_space(signs)
        assert set(ws.expansions) == set(ws.basis)
        for J, exp in ws.expansions.items():
            assert exp[J] == ONE, (signs, J)
            assert all(K <= J and c.is_nonnegative() for K, c in exp.items()), (signs, J)
        spaces += 1
    assert spaces == 128 + 256


def test_every_basis_web_has_unique_weight_zero_flow():
    for signs in ["+-", "+++", "++--", "+-+-", "++-+--"]:
        for J, w in web_space(signs).basis.items():
            assert count_weight_zero_flows(w) == 1


def _module_memory(module) -> dict:
    """Size of every module-level dict, list and set and lru cache."""
    return {
        name: value.cache_info().currsize if hasattr(value, "cache_info") else len(value)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") or isinstance(value, (dict, list, set))
    }


@pytest.mark.parametrize(
    "signs", [*(s for s in plain_boundaries(6, 6) if s.count("+") == 3), "+-++--++--"]
)
def test_space_expansion_is_the_web_expansion(signs):
    """The space's memo of top configurations changes no expansion, not
    even its order.  It starts empty, lives on the space, shares each
    state tuple among the expansions and is freed once every basis web is
    expanded, also when a scan dropped each expansion it built; flows
    keeps no memo of its own."""
    space = WebSpace(signs)
    assert space.states_of == {}
    n = len(weight_of_signs(signs))
    for sign in "+-":
        for power in (1, 2, 3):
            flows.transitions(sign, power)
            for c3 in range(0, 3 * n - 3, 3):
                flows._moves(sign, power, c3, 3 * n)
    before = _module_memory(flows)
    for J, web in space.basis.items():
        assert list(space.expansion(J).items()) == list(expansion(web).items())
    assert _module_memory(flows) == before
    assert flows.expansion.__defaults__ == (None,)
    assert "states_of" not in vars(space)
    states = [k for exp in space.expansions.values() for k in exp]
    assert len({id(k) for k in states}) == len(set(states))
    assert WebSpace(signs).states_of == {}
    space = WebSpace(signs)
    scanned = [(J, list(exp.items())) for J, exp in space.scan()]
    assert scanned == [(J, list(expansion(web).items())) for J, web in space.basis.items()]
    assert space.expanded == {}
    assert "states_of" not in vars(space)
    states = [k for _, items in scanned for k, _ in items]
    assert len({id(k) for k in states}) == len(set(states))
