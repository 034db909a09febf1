"""Tests for boundary strings and ladder webs."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from test_flows import closed_bottom_ladders
from webkup.growth import web_space
from webkup.webs import (
    LadderWeb,
    Slice,
    close,
    ell,
    empty_web,
    format_states,
    hat,
    parse_states,
    plain_boundaries,
    signs_of_weight,
    visible_columns,
    weight_of_signs,
    weights_bounded,
)


def test_sign_weight_roundtrip():
    assert weight_of_signs("o+-x") == (0, 1, 2, 3)
    assert signs_of_weight((0, 1, 2, 3)) == "o+-x"


def test_bad_sign_raises():
    with pytest.raises(ValueError):
        weight_of_signs("+z")


def test_hat_and_ell():
    assert hat("o+x-o") == "+-"
    assert ell("o+x-o") == 2
    assert ell("") == 0


def test_visible_columns():
    assert visible_columns((0, 1, 3, 2)) == (1, 3)


def test_state_strings():
    assert parse_states("10m") == (1, 0, -1)
    assert format_states((1, 0, -1)) == "10m"
    with pytest.raises(ValueError):
        parse_states("12")


def test_weights_bounded_count():
    # compositions of 6 into 6 parts bounded by 3
    assert len(list(weights_bounded(6, 6))) == 336


def test_ladder_levels():
    w = LadderWeb((0, 3), (Slice("+", 1, 1),))
    assert w.levels() == [(0, 3), (1, 2)]
    assert w.top_weight == (1, 2)
    assert signs_of_weight(w.top_weight) == "+-"


def test_runs_cut_at_every_touching_slice():
    # (column, lower slice, upper slice, weight), bottom to top per column;
    # None is the bottom or the top, and weights 0 and 3 are kept
    arc = LadderWeb((0, 3), (Slice("+", 1),))
    assert list(arc.runs()) == [
        (0, None, 0, 0),
        (0, 0, None, 1),
        (1, None, 0, 3),
        (1, 0, None, 2),
    ]
    tripod = LadderWeb((3, 0, 0), (Slice("-", 1), Slice("-", 2), Slice("-", 1)))
    assert list(tripod.runs()) == [
        (0, None, 0, 3),
        (0, 0, 2, 2),
        (0, 2, None, 1),
        (1, None, 0, 0),
        (1, 0, 1, 1),
        (1, 1, 2, 0),
        (1, 2, None, 1),
        (2, None, 1, 0),
        (2, 1, None, 1),
    ]
    assert list(empty_web((0, 3)).runs()) == [(0, None, None, 0), (1, None, None, 3)]


def _reference_runs(web):
    """Each column's runs found by rescanning the slices for that column."""
    levels = web.levels()
    for col in range(web.n_cols):
        ends = [k for k, s in enumerate(web.slices) if s.index - 1 in (col - 1, col)]
        for lo, hi in zip([None, *ends], [*ends, None]):
            yield col, lo, hi, levels[0 if lo is None else lo + 1][col]


@given(closed_bottom_ladders())
@settings(max_examples=60, deadline=None)
def test_runs_equal_the_per_column_scan(web):
    assert list(web.runs()) == list(_reference_runs(web))


def test_runs_equal_the_per_column_scan_on_every_closure_through_six_strands():
    closures = [
        close(u, v)
        for signs in plain_boundaries(6)
        for basis in [list(web_space(signs).basis.values())]
        for u in basis
        for v in basis
    ]
    assert len(closures) == 888
    for web in closures:
        assert list(web.runs()) == list(_reference_runs(web)), web


def test_rung_direction():
    # power 1 points the way weight moves ('+' toward the smaller index),
    # power 2 the other way; columns are 0-based
    assert Slice("+", 2, 1).rung() == (2, 1)
    assert Slice("-", 2, 1).rung() == (1, 2)
    assert Slice("+", 2, 2).rung() == (1, 2)
    assert Slice("-", 2, 2).rung() == (2, 1)


def test_plain_boundaries():
    assert list(plain_boundaries(3)) == [
        "++", "+-", "-+", "--",
        "+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---",
    ]
    assert list(plain_boundaries(1, 1)) == ["+", "-"]
    assert list(plain_boundaries(1)) == []


def test_ladder_validation():
    # moving weight below 0 or above 3 is rejected
    with pytest.raises(ValueError):
        LadderWeb((0, 0), (Slice("+", 1, 1),))
    with pytest.raises(ValueError):
        LadderWeb((3, 1), (Slice("+", 1, 1),))
    with pytest.raises(ValueError):
        LadderWeb((1, 1), (Slice("+", 2, 1),))


ARC = LadderWeb((0, 3), [("+", 1)])


def test_ladder_web_is_a_value_of_its_bottom_and_slices():
    same = LadderWeb([0, 3], (Slice("+", 1, 1),))
    assert same == ARC and hash(same) == hash(ARC) and same.slices == (Slice("+", 1),)
    assert ARC != LadderWeb((0, 3), (Slice("+", 1, 2),)) and ARC != ((0, 3), ARC.slices)
    moved = copy.copy(ARC)
    object.__setattr__(moved, "top_weight", (3, 0))  # top_weight is derived, never compared
    assert moved == ARC and hash(moved) == hash(ARC)
    assert repr(ARC) == "LadderWeb(bottom_weight=(0, 3), slices=(Slice(sign='+', index=1, power=1),))"


def test_ladder_web_is_immutable_and_has_no_dict():
    for field in ("bottom_weight", "slices", "top_weight", "extra"):
        with pytest.raises(AttributeError):
            setattr(ARC, field, ())
    with pytest.raises(AttributeError):
        del ARC.slices
    assert not hasattr(ARC, "__dict__")


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))])
def test_ladder_web_copies_and_pickles_through_its_validation(clone):
    web = close(ARC, ARC)
    twin = clone(web)
    assert twin == web and twin.top_weight == web.top_weight and repr(twin) == repr(web)
    bad = copy.copy(ARC)
    object.__setattr__(bad, "bottom_weight", (4, 3))
    with pytest.raises(ValueError):
        clone(bad)


def test_reflect_reverses_slices():
    w = LadderWeb((3, 0, 0), (Slice("-", 1), Slice("-", 2), Slice("-", 1)))
    r = w.reflect()
    assert r.bottom_weight == w.top_weight
    assert r.top_weight == w.bottom_weight
    assert r.slices == (Slice("+", 1), Slice("+", 2), Slice("+", 1))


def test_stack_requires_matching_weights():
    arc = LadderWeb((0, 3), (Slice("+", 1),))
    with pytest.raises(ValueError):
        arc.stack(arc)
    tall = arc.stack(arc.reflect())
    assert tall.bottom_weight == (0, 3)
    assert tall.top_weight == (0, 3)


def test_close_is_closed():
    arc = LadderWeb((0, 3), (Slice("+", 1),))
    c = close(arc, arc)
    assert c.is_closed()
    assert not arc.is_closed()


def test_close_weight_mismatch():
    arc = LadderWeb((0, 3), (Slice("+", 1),))
    cup2 = LadderWeb((0, 3), (Slice("+", 1, 2),))
    with pytest.raises(ValueError):
        close(arc, cup2)


def test_empty_web():
    w = empty_web((0, 3, 3))
    assert w.slices == ()
    with pytest.raises(ValueError):
        empty_web((1, 2))


def test_json_roundtrip():
    w = LadderWeb((0, 3, 0, 3), (Slice("+", 1), Slice("-", 2, 2), Slice("+", 3)))
    assert LadderWeb.from_json(w.to_json()) == w


def test_json_power_optional():
    d = {"bottom_weight": [0, 3], "slices": [{"sign": "+", "index": 1}]}
    assert LadderWeb.from_json(d) == LadderWeb((0, 3), (Slice("+", 1, 1),))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_empty_web_roundtrip(lam):
    lam = tuple(3 if v >= 2 else 0 for v in lam)
    w = empty_web(lam)
    assert LadderWeb.from_json(w.to_json()) == w
    assert w.reflect() == w
