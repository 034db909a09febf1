"""Tests for the independent relation-rewriting evaluator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from webkup.qlaurent import ONE, qint
from webkup.webs import LadderWeb, Slice, close, plain_boundaries
from webkup.flows import bracket
from webkup.gornik import coloring_count
from webkup.planar import PlanarWeb, rewrite_bracket
from webkup.growth import dominant_states, growth, web_space

CIRCLE = LadderWeb((0, 3), (Slice("+", 1), Slice("-", 1)))
CIRCLE2 = LadderWeb((3, 0), (Slice("-", 1), Slice("+", 1)))
TRIPOD = LadderWeb((3, 0, 0), (Slice("-", 1), Slice("-", 2), Slice("-", 1)))
THETA = close(TRIPOD, TRIPOD)
EMPTY = LadderWeb((), ())


def test_circle_value():
    assert rewrite_bracket(CIRCLE) == qint(3)
    assert rewrite_bracket(CIRCLE2) == qint(3)


def test_theta_value():
    assert rewrite_bracket(THETA) == qint(2) * qint(3)


def test_empty_value():
    assert rewrite_bracket(EMPTY) == ONE


def test_circle_is_one_loop():
    pw = PlanarWeb.from_ladder(CIRCLE)
    assert pw.loops == 1
    assert not pw.nodes


def test_theta_graph_shape():
    pw = PlanarWeb.from_ladder(THETA)
    assert len(pw.nodes) == 2
    assert len(pw.twin) == 2 * 3
    # darts leaving each node: a sink and a source
    assert sorted(sum(d in pw.out for d in node) for node in pw.nodes) == [0, 3]


def test_contract_digon_leaves_a_loop():
    pw = PlanarWeb.from_ladder(THETA)
    pw.contract_digon(pw.faces()[0])
    assert (pw.loops, pw.digons, pw.nodes) == (1, 1, [])
    assert (pw.twin, pw.nxt, pw.out) == ({}, {}, set())


def test_face_cut_rejects_a_face_of_the_wrong_size():
    pw = PlanarWeb.from_ladder(THETA)
    face = pw.faces()[0]
    assert len(face) == 2
    with pytest.raises(AssertionError, match="2-face in 2 pairs"):
        pw.resolve_square(face, 0)


def test_face_cut_rejects_corners_that_do_not_alternate():
    pw = PlanarWeb.from_ladder(THETA)
    pw.out.clear()  # every dart enters its node: both nodes are sinks
    with pytest.raises(AssertionError, match="do not alternate"):
        pw.contract_digon(pw.faces()[0])


def test_square_faces():
    space = web_space("+++---")
    cube = close(space.basis[(1, 0, 1, 0, -1, -1)], space.basis[(1, 1, 0, -1, 0, -1)])
    pw = PlanarWeb.from_ladder(cube)
    # the cube: eight corners, six square faces
    assert len(pw.nodes) == 8
    assert len(pw.square_faces()) == len(pw.faces()) == 6
    # resolving a square on a clone leaves the original as it was
    before = (dict(pw.twin), dict(pw.nxt), set(pw.out))
    pw.clone_bare().resolve_square(pw.square_faces()[0], 0)
    assert (pw.twin, pw.nxt, pw.out) == before
    assert pw.evaluate() == bracket(cube)
    # two squares and two digons: only the squares are listed
    u = web_space("++--").basis[(1, 0, 0, -1)]
    pw = PlanarWeb.from_ladder(close(u, u))
    assert sorted(len(c) for c in pw.faces()) == [2, 2, 4, 4]
    assert len(pw.square_faces()) == 2


def test_reversed_doubled_rungs_crash_both_graph_routes(monkeypatch):
    # a doubled rung pointing the way weight moves is a convention error:
    # the graph must fail its orientation checks, not give a wrong number
    closures = _closed_pairs("++--")
    doubled = [w for w in closures if any(s.power == 2 for s in w.slices)]
    assert doubled
    real = Slice.rung
    monkeypatch.setattr(
        Slice, "rung", lambda s: real(s)[::-1] if s.power == 2 else real(s)
    )
    for w in doubled:
        for route in (rewrite_bracket, coloring_count):
            with pytest.raises(AssertionError, match="orientation"):
                route(w)


def test_open_web_rejected():
    arc = LadderWeb((0, 3), (Slice("+", 1),))
    with pytest.raises(ValueError):
        PlanarWeb.from_ladder(arc)


def _closed_pairs(signs):
    webs = list(web_space(signs).basis.values())
    return [close(u, v) for u in webs for v in webs]


ROUTE_CASES = (
    [CIRCLE, CIRCLE2, THETA, EMPTY]
    + _closed_pairs("++--")
    + _closed_pairs("+-+-")
    + _closed_pairs("+++---")[:6]
)


@pytest.mark.parametrize("idx", range(len(ROUTE_CASES)))
def test_routes_agree(idx):
    web = ROUTE_CASES[idx]
    assert rewrite_bracket(web) == bracket(web)


@given(st.sampled_from(ROUTE_CASES))
@settings(max_examples=15, deadline=None)
def test_rewrite_value_bar_invariant(web):
    assert rewrite_bracket(web).is_bar_invariant()


def test_three_routes_agree_past_six_strands():
    # a seeded sample of basis closures on 7 to 12 strands, where the
    # planar graphs are far larger than any that selftest rewrites
    rng = random.Random(20260816)
    small = [s for s in plain_boundaries(10, 7) if dominant_states(s)]
    # on 11 and 12 strands, listing the boundaries with an invariant
    # (#+ = #- mod 3) is cheaper than asking each for its dominant states
    large = [s for s in plain_boundaries(12, 11) if (s.count("+") - s.count("-")) % 3 == 0]
    assert len(large) == 2048
    for boundaries, samples in ((small, 300), (large, 40)):
        for _ in range(samples):
            signs = rng.choice(boundaries)
            states = dominant_states(signs)
            J, K = rng.choice(states), rng.choice(states)
            w = close(growth(signs, J).web, growth(signs, K).web)
            value = bracket(w)
            assert rewrite_bracket(w) == value, (signs, J, K)
            assert coloring_count(w) == value.eval_at_one(), (signs, J, K)
