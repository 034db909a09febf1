"""Tests for column fillings and their match with boundary states."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from webkup.growth import dominant_states, flow_census
from webkup.tableaux import (
    center_dim,
    enumerate_fillings,
    filling_to_state,
    hat_weights,
    is_balanced,
    is_semistandard,
    state_to_filling,
)


def all_states(signs):
    k = len(hat_weights(signs))
    return product((1, 0, -1), repeat=k)


def test_hat_weights():
    assert hat_weights("++-+--") == (1, 1, 2, 1, 2, 2)
    assert hat_weights("o+x-") == (1, 2)
    assert hat_weights("oxox") == ()


def test_state_filling_roundtrip_example():
    f = state_to_filling("++-+--", (1, 1, 0, 0, -1, -1))
    assert f == ((1, 2, 3), (4, 5, 6), (3, 5, 6))
    assert filling_to_state("++-+--", f) == (1, 1, 0, 0, -1, -1)
    assert is_balanced(f)
    assert not is_semistandard(f)  # row (1, 4, 3) is not weakly increasing
    g = state_to_filling("++-+--", (1, 1, -1, 0, 0, -1))
    assert g == ((1, 2, 5), (3, 4, 6), (3, 5, 6))
    assert is_semistandard(g)


def test_filling_to_state_checks_multiplicity():
    # strand 1 is a single but appears in two columns here
    with pytest.raises(ValueError):
        filling_to_state("+-", ((1,), (1,), (2,)))


def test_roundtrip_all_small():
    for signs in ("+-", "+++", "++--", "+-+-", "o+x-"):
        for J in all_states(signs):
            f = state_to_filling(signs, J)
            assert filling_to_state(signs, f) == J


def test_semistandard_iff_dominant():
    """Rows weakly increasing in color order picks out the basis states."""
    for signs in ("+-", "-+", "+++", "---", "++--", "+-+-", "+++---", "++-+--",
                  "o+x-", "+o-", "x++o--", "++-+-++"):
        dom = set(dominant_states(signs))
        for J in all_states(signs):
            assert is_semistandard(state_to_filling(signs, J)) == (J in dom)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from("+-"), min_size=2, max_size=6))
def test_semistandard_iff_dominant_random(chars):
    signs = "".join(chars)
    dom = set(dominant_states(signs))
    for J in all_states(signs):
        assert is_semistandard(state_to_filling(signs, J)) == (J in dom)


def _dominant_by_filter(signs):
    return sorted(
        (filling_to_state(signs, f) for f in enumerate_fillings(signs) if is_semistandard(f)),
        reverse=True,
    )


def test_dominant_states_match_the_semistandard_fillings():
    """The pruned prefix walk emits exactly the semistandard fillings'
    states, in descending order: every plain boundary of 0-8 strands and
    every boundary of 0-5 characters over o+-x."""
    for alphabet, top in (("+-", 8), ("o+-x", 5)):
        for n in range(top + 1):
            for chars in product(alphabet, repeat=n):
                signs = "".join(chars)
                assert dominant_states(signs) == _dominant_by_filter(signs), signs


def test_dominant_states_rejects_bad_signs():
    with pytest.raises(ValueError):
        dominant_states("+a-")


def test_enumerate_fillings_counts():
    assert center_dim("+-") == 3
    assert center_dim("+++") == 6
    assert center_dim("++--") == 15
    assert center_dim("+-+-") == 15
    assert center_dim("o+x-") == 3
    assert center_dim("++-+--") == 93
    assert center_dim("+++---") == 93


def test_enumerate_fillings_empty_when_unbalanced():
    assert enumerate_fillings("++") == []
    assert enumerate_fillings("+") == []


def test_enumerate_matches_conds_filter():
    for signs in ("+++", "++--", "+-+-"):
        by_filter = sorted(
            state_to_filling(signs, J)
            for J in all_states(signs)
            if is_balanced(state_to_filling(signs, J))
        )
        assert sorted(enumerate_fillings(signs)) == by_filter


def test_filling_flow_realizes_state():
    # the flows on the basis webs bound exactly the balanced states; criterion
    # 13 checks this through 6 strands
    for signs in ("++++-+-", "+-+-+-+-", "++-+--+-"):
        balanced = {filling_to_state(signs, f) for f in enumerate_fillings(signs)}
        assert set(flow_census(signs)) == balanced


def test_flow_exists_iff_conds():
    """A state bounds a flow on some web exactly when it is balanced."""
    from webkup.flows import enumerate_flows
    from webkup.growth import web_space

    for signs in ("+-", "+++", "++--"):
        space = web_space(signs)
        for J in all_states(signs):
            n = sum(
                len(enumerate_flows(w, boundary=J)) for w in space.basis.values()
            )
            assert (n > 0) == is_balanced(state_to_filling(signs, J))
