"""Tests for the cube-root-of-unity specialization and block structure."""

from collections import Counter
from itertools import product

import pytest

from webkup.webs import LadderWeb, Slice, close
from webkup.flows import enumerate_flows
from webkup.growth import flow_census, web_space
from webkup.tableaux import (
    center_dim,
    enumerate_fillings,
    filling_to_state,
    is_balanced,
    state_to_filling,
)
from webkup.gornik import coloring_count
from webkup.planar import PlanarWeb

CIRCLE = LadderWeb((0, 3), (Slice("+", 1), Slice("-", 1)))
TRIPOD = LadderWeb((3, 0, 0), (Slice("-", 1), Slice("-", 2), Slice("-", 1)))
THETA = close(TRIPOD, TRIPOD)


def _tait(web):
    return coloring_count(PlanarWeb.from_ladder(web))


def test_coloring_counts():
    assert _tait(CIRCLE) == 3
    assert _tait(THETA) == 6
    with pytest.raises(ValueError):
        _tait(TRIPOD)


def test_theta_junctions():
    """The theta graph has two junctions; its Tait colorings are its flows."""
    pw = PlanarWeb.from_ladder(THETA)
    assert len(pw.nodes) == 2
    assert coloring_count(pw) == len(enumerate_flows(THETA)) == 6


def test_circle_has_no_junctions():
    pw = PlanarWeb.from_ladder(CIRCLE)
    assert not pw.nodes and pw.loops == 1
    assert coloring_count(pw) == len(enumerate_flows(CIRCLE)) == 3


def test_root_relations_on_basis_closures():
    """A flow whose junctions carry all three roots is a Tait coloring."""
    for signs in ("+-", "++--"):
        space = web_space(signs)
        for u in space.basis.values():
            for v in space.basis.values():
                w = close(u, v)
                assert _tait(w) == len(enumerate_flows(w))


def test_block_count_equals_center_dim():
    for signs in ("+-", "+++", "++--", "+-+-", "o+x-", "++-+--", "+++---"):
        assert len(flow_census(signs)) == center_dim(signs)
    assert center_dim("++--") == 15


def test_state_multiplicity_positive_iff_balanced():
    for signs in ("+++", "++--"):
        census = flow_census(signs)
        for J in product((1, 0, -1), repeat=len(signs)):
            assert (census[J] > 0) == is_balanced(state_to_filling(signs, J))


def test_sum_of_squares_identity():
    expected = {
        "+-": 3,
        "+++": 6,
        "++--": 33,
        "+-+-": 24,
        "++-+--": 636,
        "+++---": 771,
    }
    for signs, value in expected.items():
        basis = web_space(signs).basis.values()
        lhs = sum(_tait(close(u, v)) for u in basis for v in basis)
        rhs = sum(m * m for m in flow_census(signs).values())
        assert lhs == rhs == value


def test_pairwise_counts_decompose_by_boundary():
    """Colorings of a closure split as a sum over shared flow boundaries."""
    signs = "+-+-"
    space = web_space(signs)
    for Ju, u in space.basis.items():
        per_u = {}
        for f in enumerate_flows(u):
            per_u[f.boundary] = per_u.get(f.boundary, 0) + 1
        for Jv, v in space.basis.items():
            per_v = {}
            for f in enumerate_flows(v):
                per_v[f.boundary] = per_v.get(f.boundary, 0) + 1
            total = sum(
                per_u[J] * per_v.get(J, 0) for J in per_u
            )
            assert _tait(close(u, v)) == total


def test_flow_census_and_balanced_fillings_match_references():
    """On every plain boundary of 2 to 6 strands, the census is the flow
    enumeration bucketed by boundary, and the states of the balanced
    fillings are the balanced strings among all 3^k, in order."""
    boundaries = [
        "".join(p) for n in range(2, 7) for p in product("+-", repeat=n)
    ]
    assert len(boundaries) == 124
    for signs in boundaries:
        webs = web_space(signs).basis.values()
        expected = Counter(f.boundary for w in webs for f in enumerate_flows(w))
        assert flow_census(signs) == expected, signs
        balanced = [
            J
            for J in product((1, 0, -1), repeat=len(signs))
            if is_balanced(state_to_filling(signs, J))
        ]
        fillings = [filling_to_state(signs, f) for f in enumerate_fillings(signs)]
        assert fillings == balanced, signs
