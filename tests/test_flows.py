"""Tests for flow state sums: expansions, brackets, forms, calibration."""

import math
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from webkup.qlaurent import LaurentPoly, ONE, qfact, qint
from webkup.webs import (
    LadderWeb,
    Slice,
    close,
    ell,
    plain_boundaries,
    signs_of_weight,
    visible_columns,
)
from webkup.flows import (
    COLORS,
    FULL,
    MASK_OF,
    STATE_OF,
    SUBSETS,
    _weight_window,
    add_scaled,
    bracket,
    by_config,
    closed_value,
    coefficient,
    colorset_for,
    colorset_state,
    config_states,
    count_weight_zero_flows,
    enumerate_flows,
    expansion,
    lusztig_form_vec,
    move_weight,
    pack,
    sweep_raw,
    transitions,
    unpack,
    walk_moves,
    web_vector,
)
from webkup import flows
from test_qlaurent import _reference, laurents
from webkup.acceptance import _closure_values
from webkup.growth import dominant_states, growth, web_space
from webkup.howe import step_weight, word_table, word_target
from webkup.tableaux import state_to_filling

CIRCLE = LadderWeb((0, 3), (Slice("+", 1), Slice("-", 1)))
CIRCLE2 = LadderWeb((3, 0), (Slice("-", 1), Slice("+", 1)))
ARC = LadderWeb((0, 3), (Slice("+", 1),))
TRIPOD = LadderWeb((3, 0, 0), (Slice("-", 1), Slice("-", 2), Slice("-", 1)))
THETA = close(TRIPOD, TRIPOD)


def P(pairs):
    return LaurentPoly(dict(pairs))


def test_colorset_state():
    assert colorset_state(frozenset((1,))) == 1
    assert colorset_state(frozenset((1, 0))) == 1
    assert colorset_state(frozenset((1, -1))) == 0
    assert colorset_for(2, -1) == frozenset((0, -1))


def test_state_table_inverts_colorset_for():
    assert len(STATE_OF) == 6
    assert set(STATE_OF) == {A for A in SUBSETS if len(A) in (1, 2)}
    assert all(colorset_for(len(A), s) == A for A, s in STATE_OF.items())
    for hidden in (frozenset(), FULL):
        with pytest.raises(ValueError, match="needs 1 or 2 colors"):
            colorset_state(hidden)
        with pytest.raises(ValueError, match="needs 1 or 2 colors"):
            config_states((frozenset((1,)), hidden, frozenset((0, -1))), (0, 1, 2))
    assert config_states((frozenset((1,)), FULL, frozenset((0, -1))), (0, 2)) == (1, -1)


def test_colorset_for_refuses_a_state_no_column_of_the_weight_shows():
    for weight, state in product(range(4), (2, -2, 5)):
        with pytest.raises(ValueError, match=f"weight {weight} shows state {state}$"):
            colorset_for(weight, state)
    for weight, state in product((0, 3), COLORS):
        with pytest.raises(ValueError, match="shows state"):
            colorset_for(weight, state)
    # no double strand shows 2, so no filling holds one that does
    with pytest.raises(ValueError, match="weight 2 shows state 2$"):
        state_to_filling("-", (2,))


def test_pack_round_trip():
    # every color set, the empty and the full one too, in every column
    for n in range(1, 6):
        for i in range(n):
            for A in SUBSETS:
                cfg = tuple(A if j == i else SUBSETS[(5 * j + 3) % 8] for j in range(n))
                key = pack(cfg)
                assert unpack(key, n) == cfg
                assert {c for j, c in enumerate(COLORS) if key >> 3 * i + j & 1} == A
    assert sorted(pack(pair) for pair in product(SUBSETS, repeat=2)) == list(range(64))
    assert [MASK_OF[frozenset((c,))] for c in COLORS] == [1, 2, 4]
    assert pack((frozenset(), FULL)) == 0o70


def test_move_tables_read_back_as_the_transitions():
    # on two columns with the exponent at bit 6, a pair's key plus each
    # of its move ints is the moved pair below bit 6 and the weight above,
    # negative weights too, as >> floors
    weights = set()
    for sign in "+-":
        for power in (1, 2, 3):
            table = flows._moves(sign, power, 0, 6)
            assert len(table) == 64
            for (A, B), moves in transitions(sign, power).items():
                code = pack((A, B))
                keys = [code + d for d in table[code]]
                want = [((nA, nB), w) for _, nA, nB, w in moves]
                assert [(unpack(k & 63, 2), k >> 6) for k in keys] == want
                weights.update(k >> 6 for k in keys)
    assert min(weights) < 0 < max(weights)


def test_frozen_weight_table_satisfies_constraints(calibration):
    calibration.verify_frozen_table()


# the 48 '+' moves, keyed (sorted A, sorted B, moved color) as the script keys them
PLUS_KEYS = sorted(
    (tuple(sorted(A)), tuple(sorted(B)), x)
    for (A, B), moves in transitions("+", 1).items()
    for (x,), *_ in moves
)


@pytest.mark.parametrize("key", PLUS_KEYS)
def test_frozen_table_check_catches_one_wrong_entry(calibration, shift_weight, fresh_transitions, key):
    # both shifts; the mirrored '-' move shifts too, so a constraint must fail
    for delta in (1, -1):
        shift_weight(key, delta)
        flows.transitions.cache_clear()
        with pytest.raises(AssertionError, match="violates"):
            calibration.verify_frozen_table()


def test_frozen_table_check_catches_a_minus_move_that_is_not_a_mirror(
    monkeypatch, calibration, fresh_transitions
):
    # one '-' move shifted alone: the '+' table still meets every constraint
    real = flows.move_weight
    move = ("-", frozenset((-1,)), frozenset(), -1)
    monkeypatch.setattr(flows, "move_weight", lambda *m: real(*m) + (m == move))
    detail = "'-' move of -1 on {-1},set() is not the mirror of ((), (-1,), -1)"
    with pytest.raises(AssertionError, match=re.escape(detail)):
        calibration.verify_frozen_table()


def test_cup_weights():
    assert move_weight("+", frozenset(), FULL, 1) == 0
    assert move_weight("+", frozenset(), FULL, 0) == -1
    assert move_weight("+", frozenset(), FULL, -1) == -2


def test_reflection_weight():
    # cap weights mirror the cup weights
    assert move_weight("-", FULL, frozenset(), -1) == 0
    assert move_weight("-", FULL, frozenset(), 0) == -1
    assert move_weight("-", FULL, frozenset(), 1) == -2


def test_circle_bracket():
    assert bracket(CIRCLE) == qint(3)
    assert bracket(CIRCLE2) == qint(3)
    assert sorted(f.weight for f in enumerate_flows(CIRCLE)) == [-2, 0, 2]


def test_theta_bracket():
    assert bracket(THETA) == qint(2) * qint(3)
    assert sorted(f.weight for f in enumerate_flows(THETA)) == [-3, -1, -1, 1, 1, 3]


def test_empty_web_bracket():
    w = LadderWeb((), ())
    assert bracket(w) == ONE


def test_bracket_needs_closed_web():
    with pytest.raises(ValueError):
        bracket(ARC)


def test_arc_expansion():
    assert expansion(ARC) == {
        (1, -1): ONE,
        (0, 0): P([(-1, 1)]),
        (-1, 1): P([(-2, 1)]),
    }


def test_tripod_expansion():
    assert expansion(TRIPOD) == {
        (1, 0, -1): ONE,
        (1, -1, 0): P([(-1, 1)]),
        (0, 1, -1): P([(-1, 1)]),
        (0, -1, 1): P([(-2, 1)]),
        (-1, 1, 0): P([(-2, 1)]),
        (-1, 0, 1): P([(-3, 1)]),
    }


def test_flow_counts():
    assert len(enumerate_flows(TRIPOD)) == 6
    assert len(enumerate_flows(ARC)) == 3
    assert count_weight_zero_flows(TRIPOD) == 1
    assert count_weight_zero_flows(ARC) == 1


def _reference_count(web):
    """Weight-zero flows counted with windows keyed by slice kind only:
    each ranges over all 64 column-set pairs, so it prunes less."""
    windows = {}
    for s in web.slices:
        if (s.sign, s.power) not in windows:
            ws = [w for moves in transitions(s.sign, s.power).values() for _, _, _, w in moves]
            windows[(s.sign, s.power)] = min(ws), max(ws)
    slices = web.slices
    minfut = [0] * (len(slices) + 1)
    maxfut = [0] * (len(slices) + 1)
    for i in range(len(slices) - 1, -1, -1):
        low, high = windows[(slices[i].sign, slices[i].power)]
        minfut[i] = minfut[i + 1] + low
        maxfut[i] = maxfut[i + 1] + high
    count = 0

    def rec(idx, cfg, wsum):
        nonlocal count
        if wsum + minfut[idx] > 0 or wsum + maxfut[idx] < 0:
            return
        if idx == len(slices):
            count += 1
            return
        s = slices[idx]
        c = s.index - 1
        for _, nA, nB, w in transitions(s.sign, s.power)[cfg[c], cfg[c + 1]]:
            rec(idx + 1, cfg[:c] + (nA, nB) + cfg[c + 2 :], wsum + w)

    rec(0, flows.start_config(web.bottom_weight), 0)
    return count


def _plain(n):
    return ("".join(p) for p in product("+-", repeat=n))


@pytest.fixture(scope="module")
def counted():
    """Every basis web through 8 strands (one weight-zero flow each) and
    the reference count of each."""
    basis = [growth(s, J).web for n in range(2, 9) for s in _plain(n) for J in dominant_states(s)]
    return {w: _reference_count(w) for w in basis}


def _counts_agree(counted) -> bool:
    return all(
        count_weight_zero_flows(w) == reference
        and count_weight_zero_flows(w, stop_at=2) == min(reference, 2)
        for w, reference in counted.items()
    )


def test_counter_matches_the_unkeyed_reference(counted):
    assert len(counted) == 2584 and set(counted.values()) == {1}
    assert _counts_agree(counted)


def test_a_narrowed_window_changes_a_count(monkeypatch, counted):
    # ('+', 1, 0, 3) is the arc; some flow reaches the bound narrowed
    def narrowed(*args):
        high = _weight_window(*args)
        return high - 1 if args == ("+", 1, 0, 3) else high

    monkeypatch.setattr(flows, "_weight_window", narrowed)
    assert not _counts_agree(counted)


def test_weight_windows_bound_every_move():
    for sign, power, a, b in product("+-", (1, 2, 3), range(4), range(4)):
        ws = [
            w
            for A in SUBSETS
            if len(A) == a
            for B in SUBSETS
            if len(B) == b
            for _, _, _, w in transitions(sign, power)[A, B]
        ]
        assert _weight_window(sign, power, a, b) == (max(ws) if ws else -math.inf)
    # a move that would overfill a column has no window, which prunes
    assert _weight_window("+", 1, 3, 0) == -math.inf
    assert _weight_window("+", 2, 1, 3) == 0


def test_an_empty_window_prunes(monkeypatch):
    monkeypatch.setattr(flows, "_weight_window", lambda *args: -math.inf)
    assert count_weight_zero_flows(TRIPOD) == 0


def test_a_flow_of_positive_weight_raises():
    # the circle's flows have weights 2, 0 and -2, the theta's are odd
    for web in (CIRCLE, THETA):
        with pytest.raises(AssertionError, match="flow of weight"):
            count_weight_zero_flows(web)


@pytest.fixture
def fresh_transitions():
    flows.transitions.cache_clear()
    yield
    flows.transitions.cache_clear()


def test_transitions_assert_the_column_sizes(monkeypatch, fresh_transitions):
    real = flows._single_moves

    def keeps_the_color(sign, A, B):  # a '+' move that leaves B whole
        for x, nA, nB in real(sign, A, B):
            yield x, nA, (B if sign == "+" else nB)

    monkeypatch.setattr(flows, "_single_moves", keeps_the_color)
    with pytest.raises(AssertionError, match="wrongly"):
        transitions("+", 1)
    assert transitions("-", 1)[frozenset((1,)), frozenset()] == (
        (frozenset((1,)), frozenset(), frozenset((1,)), 0),
    )


def test_divided_power_transitions():
    got = sorted(
        (tuple(sorted(X)), w)
        for X, _, _, w in transitions("+", 2)[frozenset(), FULL]
    )
    assert got == [((-1, 0), -2), ((-1, 1), -1), ((0, 1), 0)]
    full = [(X, w) for X, _, _, w in transitions("+", 3)[frozenset(), FULL]]
    assert full == [(FULL, 0)]


def test_each_slice_kind_has_one_table_of_every_pair():
    # a move the composition drops or duplicates changes a count or the order
    pairs = {(A, B) for A in SUBSETS for B in SUBSETS}
    assert len(pairs) == 64
    for sign, power in product("+-", (1, 2, 3)):
        table = transitions(sign, power)
        assert set(table) == pairs
        assert sum(len(moves) for moves in table.values()) == {1: 48, 2: 12, 3: 1}[power]
        for moves in table.values():
            keys = [sorted(X) for X, _, _, _ in moves]
            assert all(a < b for a, b in zip(keys, keys[1:])), (sign, power, moves)


def _kuperberg_form(u, v):
    """Pairing by closing: q^(strand count) times the closed-web value."""
    return bracket(close(u, v)).shift(ell(signs_of_weight(u.top_weight)))


def test_kuperberg_form_values():
    assert _kuperberg_form(ARC, ARC) == P([(4, 1), (2, 1), (0, 1)])
    assert _kuperberg_form(TRIPOD, TRIPOD) == P([(6, 1), (4, 2), (2, 2), (0, 1)])


def test_lusztig_form_values():
    arc, tripod = by_config(web_vector(ARC), 2), by_config(web_vector(TRIPOD), 3)
    assert lusztig_form_vec(arc, arc) == P([(0, 1), (-2, 1), (-4, 1)])
    assert lusztig_form_vec(tripod, tripod) == P([(0, 1), (-2, 2), (-4, 2), (-6, 1)])


def test_form_normalizations_agree():
    for u in (ARC, TRIPOD):
        n = ell(signs_of_weight(u.top_weight))
        vec = by_config(web_vector(u), len(u.top_weight))
        assert _kuperberg_form(u, u) == lusztig_form_vec(vec, vec).shift(2 * n)
    # the whole graded Cartan matrix through 6 strands is D^T D, with D the
    # expansion matrix: each closed value is the dot product of expansions
    pairs = 0
    for signs in plain_boundaries(6):
        n = ell(signs)
        groups = {J: by_config(vec, n) for J, vec in web_space(signs).expansions.items()}
        for (J, K), (value, _, _) in _closure_values(signs).items():
            assert value.shift(-n) == lusztig_form_vec(groups[J], groups[K]), (signs, J, K)
            pairs += 1
    assert pairs == 888


def test_closed_values_bar_invariant():
    for w in (CIRCLE, CIRCLE2, THETA, close(ARC, ARC)):
        assert bracket(w).is_bar_invariant()


def test_bracket_reflection_invariant():
    for w in (CIRCLE, THETA, close(ARC, ARC)):
        assert bracket(w.reflect()) == bracket(w)


def test_calibration_is_unique_with_gauge(calibration):
    assert calibration.calibrate_weight_table(with_gauge=True) == [calibration.plus_table()]


def _relabeled(table, perm):
    def colors(cs):
        return tuple(sorted(perm[c] for c in cs))

    return {(colors(A), colors(B), perm[x]): w for (A, B, x), w in table.items()}


def test_calibration_six_solutions_without_gauge(calibration):
    # the color-relabeling orbit
    sols = calibration.calibrate_weight_table(with_gauge=False)
    assert len(sols) == 6
    orbit = {
        frozenset(_relabeled(calibration.plus_table(), dict(zip(COLORS, p))).items())
        for p in permutations(COLORS)
    }
    assert {frozenset(sol.items()) for sol in sols} == orbit


def test_constraint_count_sane(calibration):
    cons = calibration.build_constraints(with_gauge=True)
    assert len(cons) > len(calibration.build_constraints(with_gauge=False))


def test_calibration_script_runs_as_a_script(calibration):
    doc = calibration.DOC.read_bytes()
    run = subprocess.run([sys.executable, calibration.__file__], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "solutions without gauge: 6",
        "solutions with gauge:    1",
        "flows' weights match the derivation; regenerated docs/derived_rules.md",
    ]
    assert calibration.DOC.read_bytes() == doc
    # the deleted --print-literal is refused, not ignored
    argv = [sys.executable, calibration.__file__, "--print-literal"]
    run = subprocess.run(argv, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert "unrecognized arguments: --print-literal" in run.stderr


@given(st.integers(1, 3), st.integers(0, 2))
def test_power_slices_compose(power, shift):
    # a power move on the full column is a single transition of weight 0
    A = frozenset()
    B = FULL
    moves = [(X, w) for X, _, _, w in transitions("+", power)[A, B]]
    if power == 3:
        assert moves == [(FULL, 0)]
    else:
        for X, w in moves:
            assert len(X) == power


FLOW_WEBS = [CIRCLE, CIRCLE2, ARC, TRIPOD, THETA]


@given(st.sampled_from(FLOW_WEBS))
@settings(max_examples=20, deadline=None)
def test_expansion_matches_flow_enumeration(web):
    exp = expansion(web)
    flows = enumerate_flows(web)
    by_state: dict = {}
    for f in flows:
        by_state.setdefault(f.boundary, LaurentPoly.zero())
        by_state[f.boundary] = by_state[f.boundary] + LaurentPoly({f.weight: 1})
    assert by_state == {k: v for k, v in exp.items() if not v.is_zero()}


def _legal_slices(lam):
    n = len(lam)
    return [
        Slice(sign, i, p)
        for sign in "+-"
        for i in range(1, n)
        for p in (1, 2, 3)
        if step_weight(lam, Slice(sign, i, p)) is not None
    ]


@st.composite
def slice_word(draw, lam, max_len):
    """Slices that each keep every column weight in 0..3, read upward."""
    word = []
    for _ in range(draw(st.integers(0, max_len))):
        legal = _legal_slices(lam)
        if not legal:
            break
        s = draw(st.sampled_from(legal))
        word.append(s)
        lam = step_weight(lam, s)
    return tuple(word)


@st.composite
def closed_bottom_ladders(draw):
    """Random ladders on 2-4 columns over an o/x bottom, with power 1, 2
    and 3 slices."""
    bottom = tuple(draw(st.lists(st.sampled_from((0, 3)), min_size=2, max_size=4)))
    return LadderWeb(bottom, draw(slice_word(bottom, 6)))


def _flow_census_by_config(web):
    """Sum of q^weight over the flows, grouped by top configuration, as
    raw {exponent: coeff} dicts; it walks each flow on its own and never
    runs the sweep."""
    census: dict = {}
    for f in enumerate_flows(web):
        top = walk_moves(web, f.moves)[0][-1]
        census.setdefault(top, Counter())[f.weight] += 1
    return {cfg: dict(c) for cfg, c in census.items()}


def nested(vec, n):
    """A flat vector on n columns (flows.sweep_raw) read term by term into
    {tuple of n color sets: {exponent: coeff}}, by floor division and
    remainder rather than the library's shift and mask."""
    out: dict = {}
    for key, k in vec.items():
        e, cfg = divmod(key, 8**n)
        out.setdefault(unpack(cfg, n), {})[e] = k
    return out


def by_state(vec, lam):
    """A flat vector on columns of weights lam as {states: LaurentPoly},
    read through nested and config_states rather than a web space's
    memo: the form flows.expansion returns."""
    cols = visible_columns(lam)
    return {config_states(cfg, cols): LaurentPoly(c) for cfg, c in nested(vec, len(lam)).items()}


def flat(vec, n):
    """nested's inverse: {tuple of n color sets: {exponent: coeff}} as a
    flat vector."""
    return {pack(cfg) + e * 8**n: k for cfg, coeffs in vec.items() for e, k in coeffs.items()}


POWER_WEBS = [
    LadderWeb((3, 0, 0), (Slice("-", 1, 3), Slice("+", 1, 2), Slice("-", 2), Slice("-", 1))),
    LadderWeb((3, 0, 3), (Slice("-", 1, 3), Slice("+", 1, 2), Slice("+", 2, 2), Slice("-", 2))),
]

# twelve columns, so a key spans 36 bits and more: four tripods, then
# rungs joining them and a power-2 rung at the last column pair
WIDE_WEB = LadderWeb(
    (3, 0, 0) * 4,
    tuple(s for i in (1, 4, 7, 10) for s in (Slice("-", i), Slice("-", i + 1), Slice("-", i)))
    + (Slice("+", 3), Slice("-", 6), Slice("+", 9), Slice("-", 11), Slice("+", 11, 2)),
)


@given(closed_bottom_ladders())
@example(POWER_WEBS[0])
@example(POWER_WEBS[1])
@example(WIDE_WEB)
@settings(max_examples=60, deadline=None)
def test_sweep_matches_flow_census(web):
    vec = nested(web_vector(web), len(web.top_weight))
    assert vec == _flow_census_by_config(web)
    assert all(coeffs and 0 not in coeffs.values() for coeffs in vec.values())


# three configurations of one column, as flat vectors read them
CFG_X, CFG_Y, CFG_Z = ((SUBSETS[mask],) for mask in (1, 2, 4))


def _flat_of(polys):
    """{configuration: LaurentPoly} on one column as a flat vector."""
    return flat({cfg: p.coeffs for cfg, p in polys.items()}, 1)


def test_add_scaled_removes_cancelled_entries():
    acc = _flat_of({CFG_X: ONE, CFG_Y: qint(2)})
    add_scaled(acc, -ONE, _flat_of({CFG_X: ONE, CFG_Z: qint(3)}), 1)
    assert acc == _flat_of({CFG_Y: qint(2), CFG_Z: -qint(3)})  # X cancelled: no key
    add_scaled(acc, qint(5), {}, 1)
    assert acc == _flat_of({CFG_Y: qint(2), CFG_Z: -qint(3)})
    add_scaled(acc, LaurentPoly({1: 1}), _flat_of({CFG_Y: ONE}), 1)
    assert acc == _flat_of({CFG_Y: LaurentPoly({1: 2, -1: 1}), CFG_Z: -qint(3)})


@given(laurents, laurents)
def test_add_scaled_stores_no_zero(a, b):
    c = b - a  # a + c is b: every term of a that b lacks cancels
    acc = _flat_of({CFG_X: a, CFG_Y: b})
    add_scaled(acc, ONE, _flat_of({CFG_X: -a, CFG_Y: c}), 1)  # X cancels exactly
    add_scaled(acc, b, _flat_of({CFG_Y: a, CFG_Z: a}), 1)
    got = nested(acc, 1)
    assert CFG_X not in got
    assert LaurentPoly(got.get(CFG_Y, {})) == _reference([(b, ONE), (c, ONE), (b, a)])
    assert LaurentPoly(got.get(CFG_Z, {})) == _reference([(b, a)])
    assert 0 not in acc.values()


@pytest.mark.parametrize("web", [ARC, TRIPOD, *POWER_WEBS, WIDE_WEB])
def test_coefficient_probes_one_configuration(web):
    n = len(web.top_weight)
    vec = web_vector(web)
    groups = nested(vec, n)
    for cfg, coeffs in groups.items():
        assert coefficient(vec, pack(cfg), n) == coeffs
    absent = next(key for key in range(8**n) if unpack(key, n) not in groups)
    assert coefficient(vec, absent, n) == {}
    assert coefficient({}, absent, n) == {}
    assert by_state(vec, web.top_weight) == expansion(web)


def test_closed_value_reads_the_one_configuration():
    assert closed_value(web_vector(THETA), 3) == bracket(THETA) == expansion(THETA)[()]
    assert closed_value({}, 3) == LaurentPoly.zero()
    with pytest.raises(AssertionError, match="one top configuration"):
        closed_value(web_vector(TRIPOD), 3)


def test_wide_web_keys_pass_two_to_the_thirty():
    vec = web_vector(WIDE_WEB)
    assert min(vec) < -(2**30) and max(vec) > 2**30
    assert min(e for coeffs in nested(vec, 12).values() for e in coeffs) < 0
    assert _check_act(WIDE_WEB, (Slice("+", 1), Slice("-", 11), Slice("+", 6, 2))) is not None


def _check_act(web, word):
    """A live word's vector in the web's word table, built from the
    word's prefixes, equals sweeping the web's vector with the whole word
    and the vector of the web with the word stacked on top.  Returns the
    word's target weight, None when the word kills the web."""
    target = word_target(web.top_weight, word)
    if target is not None:
        n = len(web.top_weight)
        whole = nested(word_table(web, [word[:k] for k in range(1, len(word) + 1)])[word], n)
        assert whole == nested(sweep_raw(web_vector(web), word, n), n)
        assert whole == nested(web_vector(LadderWeb(web.bottom_weight, web.slices + word)), n)
    return target


@given(closed_bottom_ladders(), st.data())
@settings(max_examples=60, deadline=None)
def test_act_word_equals_slice_by_slice(web, data):
    word = data.draw(slice_word(web.top_weight, 4))
    _check_act(web, word + data.draw(st.sampled_from(((), (Slice("+", 1, 3),)))))


def test_act_power_words():
    assert _check_act(POWER_WEBS[0], (Slice("-", 1), Slice("-", 2, 2))) == (0, 0, 3)
    assert _check_act(POWER_WEBS[0], (Slice("-", 1), Slice("+", 1, 3))) is None
    assert _check_act(POWER_WEBS[1], (Slice("+", 2), Slice("-", 2, 2))) == (2, 1, 3)


def _reference_sweep(raw, slices):
    """The kernel on single moves and their weights alone: a power-a slice
    is the single slice applied a times, each coefficient divided by [a]!."""
    for sign, index, power in slices:
        c = index - 1
        for _ in range(power):
            out = {}
            for cfg, coeffs in raw.items():
                A, B = cfg[c], cfg[c + 1]
                for x, nA, nB in flows._single_moves(sign, A, B):
                    acc = out.setdefault(cfg[:c] + (nA, nB) + cfg[c + 2 :], Counter())
                    for e, k in coeffs.items():
                        acc[e + move_weight(sign, A, B, x)] += k
            raw = out
        raw = {cfg: LaurentPoly(acc).exact_div(qfact(power)).coeffs for cfg, acc in raw.items()}
    return raw


def test_divided_powers_are_single_moves_divided_by_the_factorial():
    # every entry of the power-2 and power-3 tables, which come from the
    # kernel, against the reference, which reads single moves alone
    for sign, power, A, B in product("+-", (2, 3), SUBSETS, SUBSETS):
        moves = transitions(sign, power)[A, B]
        reference = _reference_sweep({(A, B): {0: 1}}, (Slice(sign, 1, power),))
        assert {(nA, nB): {w: 1} for _, nA, nB, w in moves} == reference, (sign, power, A, B)
        for X, nA, nB, _ in moves:
            assert (nA, nB) == ((A | X, B - X) if sign == "+" else (A - X, B | X))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_raw_equals_the_per_configuration_loop(seed):
    _check_sweep_raw(seed, 5)


@pytest.mark.parametrize("n", [11, 12])
def test_sweep_raw_equals_the_per_configuration_loop_past_ten_columns(n):
    # the keys pass 2^30; the seed is n
    _check_sweep_raw(n, n)


def _check_sweep_raw(seed, n):
    # n columns of any color sets, coefficients with several exponents,
    # negative ones too; every slice kind at the first, a middle and the
    # last column pair, so cfg[:c] and cfg[c + 2:] are each empty once;
    # an empty column beside a full one at each pair lets the power-3
    # slices move
    rng = random.Random(seed)
    cfgs = [[rng.choice(SUBSETS) for _ in range(n)] for _ in range(46)]
    for cfg, c, pair in zip(cfgs, (0, 2, n - 2) * 2, [(frozenset(), FULL)] * 3 + [(FULL, frozenset())] * 3):
        cfg[c : c + 2] = pair
    raw = {
        tuple(cfg): {e: rng.randint(1, 5) for e in rng.sample(range(-4, 5), rng.randint(2, 4))}
        for cfg in cfgs
    }
    vec = flat(raw, n)
    assert nested(vec, n) == raw
    before = dict(vec)
    kinds = [Slice(sign, index, power) for sign in "+-" for power in (1, 2, 3) for index in (1, 3, n - 1)]
    moved = 0
    for s in kinds:
        got = nested(sweep_raw(vec, (s,), n), n)
        assert got == _reference_sweep(raw, (s,)), s
        moved += bool(got)
    assert moved == len(kinds)
    word = tuple(rng.sample(kinds, 6))
    assert nested(sweep_raw(vec, word, n), n) == _reference_sweep(raw, word)
    assert vec == before
    assert sweep_raw(vec, (), n) is vec


def test_move_ints_are_the_xor_moves():
    # each int a move adds to a flat key, at a column pair amid other
    # columns and on a term of negative, zero and positive exponent, lands
    # where the xor of the pair with its transitions move and the weight
    # put the term
    rng = random.Random(7)
    for sign, power in product("+-", (1, 2, 3)):
        for c3, n in ((0, 2), (3, 5), (30, 12)):
            table = flows._moves(sign, power, c3, 3 * n)
            assert len(table) == 64
            for (A, B), moves in transitions(sign, power).items():
                pair = pack((A, B))
                cfg = rng.getrandbits(3 * n) & ~(63 << c3) | pair << c3
                for e in (-3, 0, 2):
                    key = cfg + e * 8**n
                    assert [key + d for d in table[pair]] == [
                        (cfg ^ (pair ^ pack((nA, nB))) << c3) + (e + w) * 8**n
                        for _, nA, nB, w in moves
                    ], (sign, power, c3, pair, e)
