"""Tests for the quantum gl_n rung action on web spaces."""

import random
import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from test_flows import nested

from webkup import flows, howe
from webkup.qlaurent import LaurentPoly, ONE, ZERO, _add_product, qbinom, qint
from webkup.webs import (
    LadderWeb,
    Slice,
    close,
    ell,
    empty_web,
    signs_of_weight,
    weight_of_signs,
    weights_bounded,
)
from webkup.flows import bracket, expansion
from webkup.growth import web_space
from webkup.howe import (
    adjunction_holds,
    format_word,
    inverse_growth,
    phi_word,
    standard_weight,
    step_weight,
    tau_word,
    verify_relations,
    word_target,
)

TRIPOD = LadderWeb((3, 0, 0), (Slice("-", 1), Slice("-", 2), Slice("-", 1)))


def test_step_weight_bounds():
    assert step_weight((0, 3), Slice("+", 1)) == (1, 2)
    assert step_weight((0, 0), Slice("+", 1)) is None
    assert step_weight((3, 1), Slice("+", 1)) is None
    with pytest.raises(ValueError):
        step_weight((1, 1), Slice("+", 2))


def test_phi_word_kills_out_of_range():
    w = empty_web((0, 3))
    assert phi_word((Slice("+", 1), Slice("+", 1), Slice("+", 1), Slice("+", 1)), w) is None
    res = phi_word((Slice("+", 1),), w)
    assert res is not None and res.top_weight == (1, 2)


def test_relations_three_columns():
    assert verify_relations(3, 3) == 536


def test_relations_small_spaces():
    assert verify_relations(2, 3) > 0
    assert verify_relations(4, 3) > 0


def _reference_instances(lam):
    """Every relation instance built afresh on the whole weight, with each
    coefficient made before its word is tested: the table that
    relation_instances builds per generator and column pair."""
    n = len(lam)
    out = []
    E = Slice

    def rel(name, *terms):
        live = []
        targets = set()
        for coeff, *slices in terms:
            word = tuple(s for s in slices if s.power > 0)
            target = word_target(lam, word)
            if target is not None and not coeff.is_zero():
                targets.add(target)
                live.append((coeff, word))
        assert len(targets) <= 1
        out.append((name, live))

    for i in range(1, n):
        bl = lam[i - 1] - lam[i]
        for j in range(1, n):
            rel(
                f"schur {i}{j}",
                (ONE, E("-", j), E("+", i)),
                (-ONE, E("+", i), E("-", j)),
                (-qint(bl) if i == j else ZERO,),
            )
        for a, b in ((1, 1), (1, 2), (2, 1)):
            for sign in "+-":
                rel(
                    f"divpow1 {sign}{i} {a},{b}",
                    (ONE, E(sign, i, b), E(sign, i, a)),
                    (-qbinom(a + b, a), E(sign, i, a + b)),
                )
        for a, b in product((1, 2, 3), repeat=2):
            js = range(min(a, b) + 1)
            rel(
                f"divpow2 {i} {a},{b}",
                (ONE, E("-", i, b), E("+", i, a)),
                *((-qbinom(a - b + bl, j), E("+", i, a - j), E("-", i, b - j)) for j in js),
            )
            rel(
                f"divpow3 {i} {a},{b}",
                (ONE, E("+", i, b), E("-", i, a)),
                *((-qbinom(a - b - bl, j), E("-", i, a - j), E("+", i, b - j)) for j in js),
            )
        pa, pb = lam[i - 1], lam[i]
        if pa == 0 and pb > 0:
            rel(f"adjust1 {i}", (ONE, E("+", i, pb), E("-", i, pb)), (-ONE,))
        if pb == 0 and pa > 0:
            rel(f"adjust1' {i}", (ONE, E("-", i, pa), E("+", i, pa)), (-ONE,))
        if pb == 3 and pa < 3:
            rel(f"adjust2 {i}", (ONE, E("+", i, 3 - pa), E("-", i, 3 - pa)), (-ONE,))
        if pa == 3 and pb < 3:
            rel(f"adjust2' {i}", (ONE, E("-", i, 3 - pb), E("+", i, 3 - pb)), (-ONE,))
    return out


def _reference_sides(live):
    """Signed terms (coeff, word) as the two positive sides (lhs, rhs) of
    raw (coeff, word) terms, each coefficient all of one sign."""
    lhs = tuple((c.coeffs, w) for c, w in live if min(c.coeffs.values()) > 0)
    rhs = tuple(((-c).coeffs, w) for c, w in live if max(c.coeffs.values()) < 0)
    assert len(lhs) + len(rhs) == len(live)
    return lhs, rhs


def _signed(sides):
    """The two sides (lhs, rhs) back as signed terms lhs minus rhs."""
    lhs, rhs = sides
    return [(LaurentPoly(c), w) for c, w in lhs] + [(-LaurentPoly(c), w) for c, w in rhs]


@pytest.mark.parametrize("n, d", [(3, 3), (4, 4), (6, 6)])
def test_relation_table_equals_the_per_weight_reference(n, d):
    # same names, order, coefficients and live words, split by sign
    for lam in weights_bounded(n, d):
        got = howe.relation_instances(lam)
        want = [(name, _reference_sides(live)) for name, live in _reference_instances(lam)]
        assert got == want, lam


def _reference_vanishes(table, terms, n) -> bool:
    """The residue check on signed terms, on vectors of n columns: sum
    coeff * table[word] term by term, deleting an entry that cancels, and
    test for zero."""
    residue: dict = {}
    for coeff, word in terms:
        for cfg, coeffs in nested(table[word], n).items():
            acc = residue.setdefault(cfg, {})
            _add_product(acc, coeff.coeffs, coeffs)
            if not acc:
                del residue[cfg]
    return not residue


def _times_q(side):
    return tuple(({e + 1: c for e, c in coeff.items()}, w) for coeff, w in side)


# (4, 4) holds no invariant vector (total weight 4 is not 0 mod 3), so
# these checks run on (4, 6)
@pytest.mark.parametrize("n, d", [(3, 3), (4, 6)])
def test_two_sided_check_equals_the_residue(n, d):
    # on every (instance, basis vector); a divpow1 coefficient times q
    # fails both wherever the instance has a live word
    scaled = 0
    for lam in weights_bounded(n, d):
        instances = howe.relation_instances(lam)
        words = howe.prefix_words(instances)
        for web in web_space(signs_of_weight(lam)).basis.values():
            table = howe.word_table(web, words)
            for name, (lhs, rhs) in instances:
                assert howe._vanishes(table, (lhs, rhs), len(lam))
                assert _reference_vanishes(table, _signed((lhs, rhs)), len(lam))
                if name.startswith("divpow1") and lhs:
                    wrong = (lhs, _times_q(rhs))
                    assert not howe._vanishes(table, wrong, len(lam)), (name, lam)
                    assert not _reference_vanishes(table, _signed(wrong), len(lam)), (name, lam)
                    scaled += 1
    assert scaled


@pytest.mark.parametrize("n, d", [(3, 3), (4, 6)])
def test_every_instance_is_checked_on_every_basis_vector(monkeypatch, n, d):
    real = howe._vanishes
    calls = Counter()

    def counted(table, sides, n):
        calls["vanishes"] += 1
        return real(table, sides, n)

    monkeypatch.setattr(howe, "_vanishes", counted)
    verify_relations(n, d)
    checks = sum(
        len(howe.relation_instances(lam)) * len(web_space(signs_of_weight(lam)).basis)
        for lam in weights_bounded(n, d)
    )
    assert checks and calls["vanishes"] == checks


@pytest.mark.parametrize("n, d", [(3, 3), (4, 6)])
def test_each_prefix_is_swept_once_per_basis_web(monkeypatch, n, d):
    # one sweep for the web's vector and one per distinct non-empty
    # prefix of the weight's instance words, on every basis web
    verify_relations(n, d)  # warm the tables and spaces, which sweep too
    calls = Counter()
    real = flows.sweep_raw

    def counted(raw, slices, cols):
        calls["sweep"] += 1
        return real(raw, slices, cols)

    monkeypatch.setattr(flows, "sweep_raw", counted)
    monkeypatch.setattr(howe, "sweep_raw", counted)
    verify_relations(n, d)
    want = 0
    for lam in weights_bounded(n, d):
        words = {
            w[:k]
            for _, sides in howe.relation_instances(lam)
            for side in sides
            for _, w in side
            for k in range(1, len(w) + 1)
        }
        want += len(web_space(signs_of_weight(lam)).basis) * (1 + len(words))
    assert want and calls["sweep"] == want


# divpow1 is E^(b) E^(a) = [a+b choose a] E^(a+b); with that coefficient
# times q, on a raise to a power-2 rung or a lower to a power-3 rung, the
# relation check must fail
@pytest.mark.parametrize(
    "name", ["divpow1 +1 1,1", "divpow1 -1 1,2"], ids=["raise-2", "lower-3"]
)
def test_divided_power_fails_on_a_wrong_factorial(monkeypatch, name):
    real = howe.relation_instances

    def planted(lam):
        return [
            (n, (lhs, _times_q(rhs)) if n == name else (lhs, rhs))
            for n, (lhs, rhs) in real(lam)
        ]

    monkeypatch.setattr(howe, "relation_instances", planted)
    with pytest.raises(AssertionError, match=re.escape(f"relation {name} fails")):
        verify_relations(3, 3)


def test_tripod_word():
    word, lam0 = inverse_growth(TRIPOD)
    assert lam0 == (3, 0, 0)
    assert word == (Slice("-", 1), Slice("-", 2), Slice("-", 1))
    assert format_word(word, lam0) == "1_(1,1,1) E_{-1} E_{-2} E_{-1} 1_(3,0,0)"


def test_inverse_growth_roundtrip():
    nested = LadderWeb(
        (0, 3, 0, 3), (Slice("+", 1), Slice("-", 2, 2), Slice("+", 3), Slice("+", 2))
    )
    for web in (TRIPOD, nested, LadderWeb((0, 3), (Slice("+", 1),))):
        word, lam0 = inverse_growth(web)
        res = phi_word(word, empty_web(lam0))
        assert res is not None
        assert expansion(res) == expansion(web)


def test_standard_weight():
    assert standard_weight(4, 6) == (3, 3, 0, 0)
    assert standard_weight(3, 0) == (0, 0, 0)


def test_tau_reverses_and_flips():
    word = (Slice("+", 1), Slice("-", 2))
    scalar, back = tau_word(word, (1, 2, 0))
    assert back == (Slice("+", 2), Slice("-", 1))
    assert not scalar.is_zero()


def test_tau_rejects_divided_powers():
    with pytest.raises(ValueError):
        tau_word((Slice("+", 1, 2),), (0, 3))


def test_adjunction_small():
    assert adjunction_holds("+-", (Slice("+", 1),))
    assert adjunction_holds("++--", (Slice("-", 2),))
    assert adjunction_holds("o+x-", (Slice("+", 1), Slice("-", 3)))


def _kuperberg_form(u, v):
    return bracket(close(u, v)).shift(ell(signs_of_weight(u.top_weight)))


def _reference_adjunction(signs, word):
    """Adjointness evaluated as stated: <xu, v> and scalar * <u, tau(x) v>,
    two closures swept on their own for every pair of basis webs."""
    lam = weight_of_signs(signs)
    target = word_target(lam, word)
    if target is None:
        return True
    scalar, back = howe.tau_word(word, lam)
    for u in web_space(signs).basis.values():
        xu = phi_word(word, u)
        for v in web_space(signs_of_weight(target)).basis.values():
            tv = phi_word(back, v)
            assert close(xu, v) == close(u, tv)  # the one web adjunction_holds sweeps
            if _kuperberg_form(xu, v) != scalar * _kuperberg_form(u, tv):
                return False
    return True


def _plant_tau_times_q(mp):
    """tau's scalar multiplied by q: adjointness must fail."""
    real = howe.tau_word

    def planted(word, source):
        scalar, back = real(word, source)
        return scalar * LaurentPoly({1: 1}), back

    mp.setattr(howe, "tau_word", planted)


@given(st.sampled_from(["+-", "+++", "++--", "+-+-"]), st.data())
@settings(max_examples=25, deadline=None)
def test_adjunction_random_words(signs, data):
    # the one-sweep check agrees with the reference, which evaluates the
    # two closures of every pair apart, also under a wrong tau scalar;
    # every boundary here has a nonzero closed value, so the fault shows
    lam = weight_of_signs(signs)
    n = len(lam)
    k = data.draw(st.integers(1, 3))
    word = tuple(
        Slice(data.draw(st.sampled_from("+-")), data.draw(st.integers(1, n - 1)))
        for _ in range(k)
    )
    if word_target(lam, word) is None:
        return
    assert adjunction_holds(signs, word)
    assert _reference_adjunction(signs, word)
    with pytest.MonkeyPatch.context() as mp:
        _plant_tau_times_q(mp)
        assert not adjunction_holds(signs, word)
        assert not _reference_adjunction(signs, word)
