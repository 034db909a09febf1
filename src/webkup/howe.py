"""Ladder-rung action of the idempotented quantum gl_n on web spaces.

A generator raises or lowers one unit of column weight between adjacent
columns, which on webs is exactly appending a ladder rung on top; the
divided power appends a heavier rung.  Words are tuples of Slice tokens
stored in application order (word[0] acts first).  A word kills a web
when some step would push a column weight outside 0..3.

Operator identities are checked as linear maps: webs with equal boundary
are compared through their flow expansions, which are faithful
coordinates on the invariant space.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .qlaurent import ONE, qbinom
from .webs import (
    LadderWeb,
    Slice,
    ell,
    mirror,
    signs_of_weight,
    step_weight,
    weight_of_signs,
    weights_bounded,
)
from .flows import closed_value, sweep_raw, web_vector
from .growth import web_space

Word = tuple[Slice, ...]


def word_target(lam: tuple[int, ...], word: Word):
    for s in word:
        lam = step_weight(lam, s)
        if lam is None:
            return None
    return lam


def phi_word(word: Word, web: LadderWeb):
    """Apply a word to a web from the top; None when the word kills it."""
    if word_target(web.top_weight, word) is None:
        return None
    return LadderWeb(web.bottom_weight, web.slices + tuple(word))


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------


def _bar_lam(lam, i):
    # difference of the two column weights a generator at i sees
    return lam[i - 1] - lam[i]


def _sides(name: str, terms, where) -> tuple:
    """Split the live terms (coeff, word) of a relation sum(coeff * word)
    = 0 by coefficient sign into two positive sides (lhs, rhs), each a
    tuple of (raw {exponent: coeff} dict, word) with lhs = rhs.  Every
    coefficient must be nonzero with all its coefficients of one sign
    (asserted): then each side is a sum of products of positive
    polynomials, which never cancels (see _vanishes)."""
    lhs, rhs = [], []
    for coeff, word in terms:
        signs = {c > 0 for c in coeff.coeffs.values()}
        assert len(signs) == 1, f"relation {name} has a coefficient {coeff} of mixed signs on {where}"
        if signs == {True}:
            lhs.append((coeff.coeffs, word))
        else:
            rhs.append(((-coeff).coeffs, word))
    return tuple(lhs), tuple(rhs)


@lru_cache(maxsize=None)
def _generator_relations(i: int, pa: int, pb: int):
    """Generator i's own relation instances (schur i i, divpow1-3 and
    adjust) on columns i and i+1 of weights pa and pb, as (name, (lhs,
    rhs)) in _sides' form.  A term (sign, top, bot, *slices) is its word
    times sign * qbinom(top, bot), so (1, 0, 0) is 1; the coefficient is
    made only once the word is found live, and a zero one drops the
    term."""
    cols = (0,) * (i - 1) + (pa, pb)  # the words read columns i and i+1 only
    out = []
    E = Slice

    def rel(name, *terms):
        live, targets = [], set()
        for sign, top, bot, *slices in terms:
            word = tuple(s for s in slices if s.power > 0)
            target = word_target(cols, word)
            if target is not None and not (coeff := qbinom(top, bot)).is_zero():
                targets.add(target)
                live.append((coeff if sign > 0 else -coeff, word))
        assert len(targets) <= 1, f"relation {name} mixes target weights on columns {(pa, pb)}"
        out.append((name, _sides(name, live, f"columns {(pa, pb)}")))

    bl = pa - pb
    rel(
        f"schur {i}{i}",
        (1, 0, 0, E("-", i), E("+", i)),
        (-1, 0, 0, E("+", i), E("-", i)),
        (-1, bl, 1),
    )
    for (a, b), sign in product(((1, 1), (1, 2), (2, 1)), "+-"):
        rel(
            f"divpow1 {sign}{i} {a},{b}",
            (1, 0, 0, E(sign, i, b), E(sign, i, a)),
            (-1, a + b, a, E(sign, i, a + b)),
        )
    for a, b in product((1, 2, 3), repeat=2):
        js = range(min(a, b) + 1)
        # divpow3 is divpow2 with the signs swapped and bl negated
        for name, u, v, c in (("divpow2", "-", "+", bl), ("divpow3", "+", "-", -bl)):
            rel(
                f"{name} {i} {a},{b}",
                (1, 0, 0, E(u, i, b), E(v, i, a)),
                *((-1, a - b + c, j, E(v, i, a - j), E(u, i, b - j)) for j in js),
            )
    if pa == 0 and pb > 0:
        rel(f"adjust1 {i}", (1, 0, 0, E("+", i, pb), E("-", i, pb)), (-1, 0, 0))
    if pb == 0 and pa > 0:
        rel(f"adjust1' {i}", (1, 0, 0, E("-", i, pa), E("+", i, pa)), (-1, 0, 0))
    if pb == 3 and pa < 3:
        rel(f"adjust2 {i}", (1, 0, 0, E("+", i, 3 - pa), E("-", i, 3 - pa)), (-1, 0, 0))
    if pa == 3 and pb < 3:
        rel(f"adjust2' {i}", (1, 0, 0, E("-", i, 3 - pb), E("+", i, 3 - pb)), (-1, 0, 0))
    return tuple(out)


def relation_instances(lam: tuple[int, ...]):
    """The relation instances on one weight space, as (name, (lhs, rhs)):
    two sides of positive terms (raw coeff, word) over the live words
    only (((), ()) if none is), built by _sides; the live words share one
    target weight (asserted).  The commutators schur i j, j != i, are
    built here with coefficients +1 and -1, the rest per generator and
    column pair."""
    out = []
    for i in range(1, len(lam)):
        own = _generator_relations(i, lam[i - 1], lam[i])
        for j in range(1, len(lam)):
            if j == i:
                out.append(own[0])
                continue
            name = f"schur {i}{j}"
            words = (Slice("-", j), Slice("+", i)), (Slice("+", i), Slice("-", j))
            t1, t2 = (word_target(lam, w) for w in words)
            assert t1 == t2, f"relation {name} maps its words to {t1} and {t2} on {lam}"
            live = tuple(zip((ONE, -ONE), words)) if t1 is not None else ()
            out.append((name, _sides(name, live, lam)))
        out.extend(own[1:])
    return out


def _side(table: dict, terms, n: int) -> dict:
    """sum(coeff * table[word]) over one side's terms, on flat vectors of
    n columns: a term c q^e of coeff adds c * k at each key plus e << 3n.
    A lone word with coefficient 1 is the table's own dict, not a copy."""
    if len(terms) == 1 and terms[0][0] == ONE.coeffs:
        return table[terms[0][1]]
    out: dict = {}
    get = out.get
    for coeff, word in terms:
        vec = table[word]
        for e, c in coeff.items():
            d = e << 3 * n
            for key, k in vec.items():
                out[key + d] = get(key + d, 0) + c * k
    return out


def _vanishes(table: dict, sides, n: int) -> bool:
    """Whether a relation lhs = rhs holds on one web of n columns: the two
    sides, each built by _side from its word_table, compared as dicts.
    That is exact: the table's vectors hold only positive coefficients
    (each starts at web_vector's {start: 1} and every move adds a
    coefficient-1 power of q to a key, see flows.sweep_raw), every
    coefficient of a side is positive (_sides asserts it), and a sum of
    products of positive terms never cancels, so neither side holds a
    zero entry and equal vectors are equal dicts."""
    lhs, rhs = sides
    return _side(table, lhs, n) == _side(table, rhs, n)


def prefix_words(instances) -> list[Word]:
    """The non-empty prefixes of the words of relation instances
    (relation_instances' form), each once, shortest first."""
    words = (w for _, sides in instances for side in sides for _, w in side)
    return sorted(dict.fromkeys(w[:k] for w in words for k in range(1, len(w) + 1)), key=len)


def word_table(web: LadderWeb, words) -> dict:
    """The flat vectors (flows.sweep_raw's form) of live words on one
    closed-bottom web: () maps to web_vector(web), and each of words,
    prefix-closed and shortest first (prefix_words), to its prefix's
    vector swept by its last slice, which is the web swept with the word
    stacked on top (tests/test_flows.py::test_act_word_equals_slice_by_slice)."""
    table, n = {(): web_vector(web)}, len(web.bottom_weight)
    for word in words:
        table[word] = sweep_raw(table[word[:-1]], word[-1:], n)
    return table


def verify_relations(n: int, d: int) -> int:
    """Check the schur, divpow1-3 and adjust instances on every weight
    space of n columns and total weight d, each on every basis web as
    the equality of its two positive sides (_vanishes); the quantum Serre
    relations and the commutation of like-signed generators at distance
    >= 2 are not checked yet.  Returns the number of instances checked."""
    checked = 0
    for lam in weights_bounded(n, d):
        basis = web_space(signs_of_weight(lam)).basis
        if not basis:
            continue
        instances = relation_instances(lam)
        words = prefix_words(instances)
        for web in basis.values():
            # one web's table at a time keeps memory at one web's words
            table = word_table(web, words)
            for name, sides in instances:
                assert _vanishes(table, sides, len(lam)), f"relation {name} fails on {lam}"
        checked += len(instances)
    return checked


# ---------------------------------------------------------------------------
# the bilinear-form antiautomorphism
# ---------------------------------------------------------------------------


def tau_word(word: Word, source: tuple[int, ...]):
    """Antiautomorphism sending a word on the source weight to a scalar
    times its mirror, the reversed opposite-sign word.  Power 1 only."""
    scalar = ONE
    lam = source
    for s in word:
        if s.power != 1:
            raise ValueError("tau is only implemented for power-1 tokens")
        nlam = step_weight(lam, s)
        if nlam is None:
            raise ValueError("word is zero on this weight")
        bl = _bar_lam(lam, s.index)
        if s.sign == "+":
            scalar = scalar.shift(-1 - bl)
        else:
            # the target weight carries the exponent here
            scalar = scalar.shift(1 + _bar_lam(nlam, s.index))
        lam = nlam
    return scalar, mirror(word)


def adjunction_holds(signs: str, word: Word) -> bool:
    """Kuperberg-form adjointness of a word x and its tau image, tested on
    all pairs (u, v) of basis webs of the two boundaries involved:
    <xu, v> == scalar * <u, tau(x) v>, each form being q^(strand count
    of its first web's top) times the value of a closure.

    Both closures are one web, v's slices, then tau's reversed mirrored
    word, then the mirror of u.  So the check compares tau's scalar with
    the strand-count normalization, q^(l_target - l_source), on every pair
    whose closed value is nonzero.  Each target basis web is swept with
    tau's word on top once and then through each source web's mirror."""
    lam = weight_of_signs(signs)
    target = word_target(lam, word)
    if target is None:
        return True  # the map is zero and so is its partner
    tsigns = signs_of_weight(target)
    scalar, back = tau_word(word, lam)
    # close(xu, v) and close(u, tau(x) v) both read v, back, mirror(u)
    ell_s, ell_t, n = ell(signs), ell(tsigns), len(lam)
    mirrors = [mirror(u.slices) for u in web_space(signs).basis.values()]
    for v in web_space(tsigns).basis.values():
        tv = sweep_raw(web_vector(v), back, n)
        for slices in mirrors:
            b = closed_value(sweep_raw(tv, slices, n), n)
            if b.shift(ell_t) != scalar * b.shift(ell_s):
                return False
    return True


# ---------------------------------------------------------------------------
# inverse growth: a web as a word on a standard closed weight
# ---------------------------------------------------------------------------


def standard_weight(n: int, total: int) -> tuple[int, ...]:
    assert total % 3 == 0 and total <= 3 * n
    k = total // 3
    return (3,) * k + (0,) * (n - k)


def inverse_growth(web: LadderWeb) -> tuple[Word, tuple[int, ...]]:
    """Word moving the standard closed weight to the web's own bottom and
    then climbing its rungs; applying it to the empty web on the standard
    weight reproduces the web's invariant vector."""
    bot = web.bottom_weight
    assert all(v in (0, 3) for v in bot), "inverse growth needs a closed bottom"
    n = len(bot)
    lam0 = standard_weight(n, sum(bot))
    targets = [i for i, v in enumerate(bot) if v == 3]
    k = len(targets)
    word: list[Slice] = []
    # walk the packed columns right to left so moves never collide
    for j in range(k - 1, -1, -1):
        for c in range(j, targets[j]):
            word.append(Slice("-", c + 1, 3))
    word.extend(web.slices)
    return tuple(word), lam0


def format_word(word: Word, lam0: tuple[int, ...]) -> str:
    """Display form, rightmost token acting first."""
    lam = lam0
    parts = [f"1_{lam0}".replace(" ", "")]
    for s in word:
        lam = step_weight(lam, s)
        assert lam is not None
        tok = f"E_{{{s.sign}{s.index}}}"
        if s.power > 1:
            tok += f"^({s.power})"
        parts.append(tok)
    parts.append(f"1_{lam}".replace(" ", ""))
    return " ".join(reversed(parts))
