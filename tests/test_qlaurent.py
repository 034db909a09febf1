import functools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from webkup.qlaurent import LaurentPoly, ONE, ZERO, add_scaled, qbinom, qfact, qint


# strategy: small Laurent polynomials with bounded exponents/coefficients
laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)


@functools.cache
def qbinom_pascal(top: int, bot: int) -> LaurentPoly:
    """Independent oracle: balanced q-Pascal recursion.

    [t; b] = q^b [t-1; b] + q^(b-t) [t-1; b-1], anchored at
    [t; 0] = 1 and [0; b] = 0 for b > 0.
    """
    if bot == 0:
        return ONE
    if bot < 0:
        return ZERO
    if top == 0:
        return ZERO
    return qbinom_pascal(top - 1, bot).shift(bot) + qbinom_pascal(
        top - 1, bot - 1
    ).shift(bot - top)


def test_qint_small_values():
    assert str(qint(1)) == "1"
    assert str(qint(2)) == "q + q^-1"
    assert str(qint(3)) == "q^2 + 1 + q^-2"
    assert qint(0).is_zero()
    assert qint(-2) == -qint(2)


def test_theta_value_text_form():
    theta = qint(2) * qint(3)
    assert str(theta) == "q^3 + 2*q + 2*q^-1 + q^-3"
    assert theta.eval_at_one() == 6


def test_str_negative_coeffs_and_zero():
    assert str(ZERO) == "0"
    p = LaurentPoly({2: -1, 0: 3, -1: -2})
    assert str(p) == "-q^2 + 3 - 2*q^-1"


def test_qfact():
    assert qfact(0) == ONE
    assert qfact(3) == qint(1) * qint(2) * qint(3)
    with pytest.raises(ValueError):
        qfact(-1)


@pytest.mark.parametrize("top", range(0, 8))
@pytest.mark.parametrize("bot", range(0, 6))
def test_qbinom_matches_pascal_oracle(top, bot):
    assert qbinom(top, bot) == qbinom_pascal(top, bot)


@pytest.mark.parametrize("top", range(-5, 0))
@pytest.mark.parametrize("bot", range(0, 6))
def test_qbinom_negative_top_vs_pascal(top, bot):
    # [-t; b] = (-1)^b [t+b-1; b], right side checked by the Pascal oracle
    expect = qbinom_pascal(-top + bot - 1, bot)
    if bot % 2:
        expect = -expect
    assert qbinom(top, bot) == expect


def test_qbinom_edge_cases():
    assert qbinom(4, 0) == ONE
    assert qbinom(2, 5).is_zero()
    assert qbinom(5, 5) == ONE
    # negation rule: [-t; b] = (-1)^b [t+b-1; b]
    assert qbinom(-3, 2) == qbinom(4, 2)
    assert qbinom(-3, 3) == -qbinom(5, 3)


def test_qbinom_bar_invariant():
    for top in range(0, 7):
        for bot in range(0, top + 1):
            assert qbinom(top, bot).is_bar_invariant()


def test_exact_div_remainder_error():
    with pytest.raises(ValueError):
        (qint(3) + qint(2)).exact_div(qint(2))
    with pytest.raises(ValueError):
        ONE.exact_div(ZERO)


def test_exact_div_units():
    p = LaurentPoly({5: 7, -2: 3})
    assert p.exact_div(LaurentPoly({2: 1})) == LaurentPoly({3: 7, -4: 3})


def test_add_scaled_removes_cancelled_entries():
    acc = {"a": ONE, "b": qint(2)}
    add_scaled(acc, -ONE, {"a": ONE, "c": qint(3)})
    assert acc == {"b": qint(2), "c": -qint(3)}  # "a" cancelled: no key
    add_scaled(acc, qint(5), {})
    assert acc == {"b": qint(2), "c": -qint(3)}
    add_scaled(acc, LaurentPoly({1: 1}), {"b": ONE})
    assert acc == {"b": LaurentPoly({1: 2, -1: 1}), "c": -qint(3)}


def _reference(terms) -> LaurentPoly:
    """Sum of c1*c2*q^(e1+e2) over (a, b) pairs of polynomials, summed in a
    Counter and normalised by the public constructor."""
    raw: Counter = Counter()
    for a, b in terms:
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                raw[e1 + e2] += c1 * c2
    return LaurentPoly(raw)


@given(laurents, laurents, st.integers(-4, 4))
def test_arithmetic_stores_no_zero(a, b, d):
    c = b - a  # a + c is b: every term of a that b lacks cancels
    results = {
        "a+b": (a + b, _reference([(a, ONE), (b, ONE)])),
        "a-b": (a - b, _reference([(a, ONE), (b, -ONE)])),
        "a+c": (a + c, b),
        "a-a": (a - a, ZERO),
        "a+(-a)": (a + (-a), ZERO),
        "a*b": (a * b, _reference([(a, b)])),
        "(a+1)(a-1)": ((a + ONE) * (a - ONE), _reference([(a, a), (ONE, -ONE)])),
        "shift": (a.shift(d), _reference([(a, LaurentPoly({d: 1}))])),
        "bar": (a.bar().bar(), a),
    }
    acc = {"x": a, "y": b}
    add_scaled(acc, ONE, {"x": -a, "y": c})  # "x" cancels exactly
    add_scaled(acc, b, {"y": a, "z": a})
    assert "x" not in acc
    results["acc y"] = (acc.get("y", ZERO), _reference([(b, ONE), (c, ONE), (b, a)]))
    if "z" in acc:
        results["acc z"] = (acc["z"], _reference([(b, a)]))
    for name, (got, want) in results.items():
        assert 0 not in got.coeffs.values(), name
        assert got == LaurentPoly(dict(got.coeffs)), name
        assert got == want, name
    assert all(not v.is_zero() for v in acc.values())


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert (a - a).is_zero()


@given(laurents, laurents)
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()


@given(laurents, laurents)
def test_exact_div_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


@given(laurents)
def test_eval_at_one_additive(a):
    assert a.eval_at_one() == sum(a.coeffs.values())
    assert a.bar().eval_at_one() == a.eval_at_one()
