"""Golden-file tests for the SVG emitter."""

from pathlib import Path

import pytest

from webkup.webs import LadderWeb, Slice, empty_web
from webkup.growth import growth
from webkup.render import render

GOLDEN = Path(__file__).parent / "golden"

ARC = LadderWeb((0, 3), (Slice("+", 1),))


def test_arc_matches_golden():
    assert render(ARC) == (GOLDEN / "arc.svg").read_text()


def test_tripod_with_flow_matches_golden():
    g = growth("+++", (1, 0, -1))
    assert render(g.web, g) == (GOLDEN / "tripod_flow.svg").read_text()


def test_arc_has_one_cap():
    svg = render(ARC)
    horiz = [
        l
        for l in svg.splitlines()
        if l.startswith("<line") and 'y1="60"' in l and 'y2="60"' in l
    ]
    assert len(horiz) == 1  # the single rung is the arc's cap


def test_empty_web_is_markers_only():
    svg = render(empty_web((0, 3, 3)))
    assert "<line" not in svg
    assert svg.count("<text") == 3
    assert "&#9702;" in svg and "&#215;" in svg


def test_deterministic():
    g = growth("++--", (1, 1, -1, -1))
    assert render(g.web, g) == render(g.web, g)


def test_flow_overlay_only_with_flow():
    g = growth("+++", (1, 0, -1))
    bare = render(g.web)
    assert 'class="fl"' not in bare
    assert 'class="fl"' in render(g.web, g)


def test_foreign_flow_rejected():
    g1 = growth("+++", (1, 0, -1))
    g2 = growth("++--", (1, 1, -1, -1))
    with pytest.raises(ValueError):
        render(g1.web, g2)


def test_open_bottom_gets_bottom_markers():
    w = LadderWeb((1, 2), ())
    svg = render(w)
    assert svg.count("<text") == 4  # two boundaries, two columns
