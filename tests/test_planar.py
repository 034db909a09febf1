"""Tests for the independent relation-rewriting evaluator."""

import random
import re

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


def _rewrite(web):
    return rewrite_bracket(PlanarWeb.from_ladder(web))


def _tait(web):
    return coloring_count(PlanarWeb.from_ladder(web))


def test_circle_value():
    assert _rewrite(CIRCLE) == qint(3)
    assert _rewrite(CIRCLE2) == qint(3)


def test_theta_value():
    assert _rewrite(THETA) == qint(2) * qint(3)


def test_empty_value():
    assert _rewrite(EMPTY) == ONE


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
        for route in (_rewrite, _tait):
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
    assert _rewrite(web) == bracket(web)


@given(st.sampled_from(ROUTE_CASES))
@settings(max_examples=15, deadline=None)
def test_rewrite_value_bar_invariant(web):
    assert _rewrite(web).is_bar_invariant()


def _reference_from_ladder(web):
    """The graph built from the ladder's own runs and angles: each point
    keyed (slice, column) with a dict of its darts by angle, each column's
    runs found by rescanning the slices."""
    if not web.is_closed():
        raise ValueError("planar evaluation needs a closed web")
    pw = PlanarWeb()
    points = {}  # (slice, column) -> {angle: dart}

    def add_edge(n_tail_key, tail_angle, n_head_key, head_angle):
        d = len(pw.twin)
        pw.twin[d], pw.twin[d + 1] = d + 1, d
        pw.out.add(d)
        ends = ((n_tail_key, tail_angle, d), (n_head_key, head_angle, d + 1))
        for nkey, angle, dart in ends:
            slot = points.setdefault(nkey, {})
            assert angle not in slot, f"two edges share an angle at {nkey}"
            slot[angle] = dart

    # vertical edges: visible runs, single strands up, double strands down
    for col, lo, hi, w in web.runs():
        if w in (0, 3):
            continue
        assert lo is not None and hi is not None, "visible strand reaches the boundary"
        if w == 1:
            add_edge((lo, col), 90, (hi, col), 270)
        else:
            add_edge((hi, col), 270, (lo, col), 90)

    # rung edges
    for k, s in enumerate(web.slices):
        if s.power == 3:
            continue
        tail, head = s.rung()
        angle = 0 if head > tail else 180
        add_edge((k, tail), angle, (k, head), 180 - angle)

    # link each point's darts counterclockwise; smooth the 2-valent ones
    for nkey, slot in points.items():
        darts = [slot[a] for a in sorted(slot)]
        if len(darts) == 1:
            raise AssertionError("dangling edge in closed web")
        for a, b in zip(darts, darts[1:] + darts[:1]):
            pw.nxt[a] = b
        if len(darts) == 2:
            pw._smooth(*darts)
        elif len({d in pw.out for d in darts}) != 1:
            raise AssertionError(f"mixed orientation at trivalent node {nkey}")
    return pw


def _darts(pw):
    """The rotation system dart for dart, in insertion order."""
    return list(pw.twin.items()), list(pw.nxt.items()), pw.out, pw.loops


def test_from_ladder_equals_the_reference_on_every_closure_through_six_strands():
    closures = [w for signs in plain_boundaries(6) for w in _closed_pairs(signs)]
    assert len(closures) == 888
    for w in closures + [CIRCLE, CIRCLE2, THETA, EMPTY]:
        assert _darts(PlanarWeb.from_ladder(w)) == _darts(_reference_from_ladder(w)), w


def test_from_ladder_rejects_a_visible_strand_at_the_boundary(monkeypatch):
    monkeypatch.setattr(LadderWeb, "is_closed", lambda self: True)
    arc = LadderWeb((0, 3), (Slice("+", 1),))  # its top is a single strand
    with pytest.raises(AssertionError, match="^visible strand reaches the boundary$"):
        PlanarWeb.from_ladder(arc)


def test_from_ladder_rejects_a_dangling_edge(monkeypatch):
    # each rung turns back to its tail, so the run at its head ends alone
    real = Slice.rung
    monkeypatch.setattr(Slice, "rung", lambda s: (real(s)[0],) * 2)
    with pytest.raises(AssertionError, match="^dangling edge in closed web$"):
        PlanarWeb.from_ladder(CIRCLE)


def test_from_ladder_rejects_two_edges_at_one_angle(monkeypatch):
    # points are keyed slice * n_cols + column: a rung reaching n_cols
    # columns left of the first column lands on the point one slice down,
    # where the rung of THETA's slice 2 already leaves at angle 0
    real = Slice.rung
    monkeypatch.setattr(Slice, "rung", lambda s: (1, -3) if s == Slice("+", 1) else real(s))
    with pytest.raises(AssertionError, match=re.escape("two edges share an angle at (2, 0)")):
        PlanarWeb.from_ladder(THETA)


def test_from_ladder_rejects_a_node_of_mixed_orientation(monkeypatch):
    # a reversed single rung leaves a trivalent node neither sink nor source
    real = Slice.rung
    monkeypatch.setattr(Slice, "rung", lambda s: real(s)[::-1] if s.power == 1 else real(s))
    with pytest.raises(AssertionError, match=re.escape("mixed orientation at trivalent node (2, 0)")):
        PlanarWeb.from_ladder(THETA)


def test_three_routes_agree_past_six_strands():
    # a seeded sample of basis closures on 7 to 12 strands, where the
    # planar graphs are far larger than any that selftest rewrites
    rng = random.Random(20260816)

    def with_invariant(most, least):
        # the boundaries with dominant states are those with an invariant,
        # #+ = #- mod 3: listed without asking each for its states, and a
        # sampled boundary without states would fail rng.choice
        return [s for s in plain_boundaries(most, least) if (s.count("+") - s.count("-")) % 3 == 0]

    small, large = with_invariant(10, 7), with_invariant(12, 11)
    assert (len(small), len(large)) == (640, 2048)
    for boundaries, samples in ((small, 300), (large, 40)):
        for _ in range(samples):
            signs = rng.choice(boundaries)
            states = dominant_states(signs)
            J, K = rng.choice(states), rng.choice(states)
            w = close(growth(signs, J).web, growth(signs, K).web)
            value = bracket(w)
            # one graph per closure: the count reads it, then the rewriting consumes it
            pw = PlanarWeb.from_ladder(w)
            assert _darts(pw) == _darts(_reference_from_ladder(w)), (signs, J, K)
            assert coloring_count(pw) == value.eval_at_one(), (signs, J, K)
            assert rewrite_bracket(pw) == value, (signs, J, K)
