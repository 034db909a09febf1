"""The acceptance gate: thirteen checks, one line of output each.

Every check reduces a structural claim about the library to finite exact
computation: the two closed-web evaluators agree, the growth basis is
unitriangular and counted by independent oracles, the quantum group
relations hold on web vectors, the forms and the bar involution behave,
the root-of-unity block data is consistent, and the dual canonical
comparison plus its counterexample search run to a recorded frontier.

Sweeps marked "all boundaries" run over every plain sign string of the
stated size; padding by label-0 and label-3 strands is inert and is
witnessed separately by the enhanced strings included in criterion 13.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product

from .qlaurent import ONE, ZERO, add_scaled, qint
from .webs import (
    LadderWeb,
    Slice,
    close,
    ell,
    empty_web,
    format_states,
    plain_boundaries,
    signs_of_weight,
    weight_of_signs,
    weights_bounded,
)
from .flows import bracket, enumerate_flows, expansion, lusztig_form_vec
from .planar import PlanarWeb, rewrite_bracket
from .growth import (
    GrowthStuck,
    dominant_states,
    flow_census,
    growth,
    web_space,
)
from .gornik import coloring_count
from .oracles import hook_content_dim, invariant_dim, ssyt_count
from .howe import (
    adjunction_holds,
    format_word,
    inverse_growth,
    phi_word,
    verify_relations,
)
from .tableaux import (
    center_dim,
    enumerate_fillings,
    filling_to_state,
    hat_weights,
    is_balanced,
    state_to_filling,
)
from .dualcan import (
    dual_canonical_basis,
    default_budget,
    search_counterexample,
    strictly_below_one,
)

SEED = 20260816


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"AC{self.number:02d} {flag} ({self.elapsed:6.1f}s) {self.name}: {self.detail}"


def _result(number, name, fn) -> CriterionResult:
    t0 = time.monotonic()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        return CriterionResult(number, name, False, f"error: {exc!r}", time.monotonic() - t0)
    return CriterionResult(number, name, passed, detail, time.monotonic() - t0)


CRITERIA: dict = {}  # number -> runner, filled by @criterion


def criterion(number: int, name: str):
    """Register a check returning (passed, detail) as CRITERIA[number]: a
    runner that times it and reports a crash as a failure, returned so
    the module binds the same object as criterion_<number>."""

    def register(check):
        CRITERIA[number] = partial(_result, number, name, check)
        return CRITERIA[number]

    return register


@lru_cache(maxsize=None)
def _closure_values(signs: str) -> dict:
    """Each pair of basis webs of `signs`, keyed (J, K) in basis order,
    closed once into w = close(u, v) and valued three ways for criteria
    1, 2, 8 and 10: (bracket(w), Tait count, rewritten value), the last
    two read off one planar graph of w that no entry keeps.  q^-n times
    the bracket is the web algebra's graded Cartan matrix."""
    basis = web_space(signs).basis.items()
    table = {}
    for J, u in basis:
        for K, v in basis:
            w = close(u, v)
            pw = PlanarWeb.from_ladder(w)
            # the count reads the graph before the rewriting consumes it
            table[J, K] = (bracket(w), coloring_count(pw), rewrite_bracket(pw))
    return table


# -- 1: the two evaluators agree --------------------------------------------


@criterion(1, "evaluator agreement")
def criterion_1():
    t0 = time.monotonic()
    pairs = 0
    for signs in plain_boundaries(6):
        for value, _, rewritten in _closure_values(signs).values():
            if value != rewritten:
                return False, f"evaluators disagree on a closure over {signs}"
            pairs += 1
    took = time.monotonic() - t0
    return took < 120.0, f"{pairs} closures agree, {took:.1f}s of 120s budget"


# -- 2: ground-truth relations of the evaluation -----------------------------


@criterion(2, "circle, digon, square ground truths")
def criterion_2():
    circle = LadderWeb((0, 3), (Slice("+", 1), Slice("-", 1)))
    tripod = LadderWeb((3, 0, 0), (Slice("-", 1), Slice("-", 2), Slice("-", 1)))
    theta = close(tripod, tripod)
    for w, expect, wrong in (
        (circle, qint(3), "circle value is not [3]"),
        (theta, qint(2) * qint(3), "closed digon value is not [2][3]"),
    ):
        if bracket(w) != expect or rewrite_bracket(PlanarWeb.from_ladder(w)) != expect:
            return False, wrong

    rng = random.Random(SEED)
    boundaries = [s for s in plain_boundaries(6, 3) if web_space(s).basis]
    done = 0
    attempts = 0
    while done < 20:
        attempts += 1
        if attempts > 2000:
            return False, f"only {done} square-bearing webs found"
        signs = rng.choice(boundaries)
        space = web_space(signs)
        keys = sorted(space.basis)
        J, K = rng.choice(keys), rng.choice(keys)
        w = close(space.basis[J], space.basis[K])
        pw = PlanarWeb.from_ladder(w)
        if not pw.nodes:
            continue
        squares = pw.square_faces()
        if not squares:
            continue
        sq = min(squares, key=min)
        pre = (qint(3) ** pw.loops) * (qint(2) ** pw.digons)
        a = pw.clone_bare()
        a.resolve_square(sq, 0)
        b = pw.clone_bare()
        b.resolve_square(sq, 1)
        if _closure_values(signs)[J, K][0] != pre * (a.evaluate() + b.evaluate()):
            return False, f"square identity fails on a closure over {signs}"
        done += 1
    return True, f"circle [3], digon [2][3], square identity on {done} webs"


# -- 3: unitriangular nonnegative basis matrix --------------------------------


@criterion(3, "unitriangularity and positivity")
def criterion_3():
    webs = 0
    for signs in plain_boundaries(6):
        space = web_space(signs)
        for J in sorted(space.basis):
            exp = space.expansions[J]
            if exp.get(J) != ONE:
                return False, f"diagonal entry at {signs} {J} is not 1"
            for Jp, c in exp.items():
                if Jp > J:
                    return False, f"entry above the diagonal at {signs} {J}"
                if not c.is_nonnegative():
                    return False, f"negative entry at {signs} ({J},{Jp})"
            webs += 1
    return True, f"{webs} expansions unitriangular with entries in N[q,q^-1]"


# -- 4: the dominant flow is unique and weight zero ---------------------------


@criterion(4, "canonical flow uniqueness")
def criterion_4():
    webs = 0
    for signs in plain_boundaries(6):
        for J, w in web_space(signs).basis.items():
            flows = enumerate_flows(w, boundary=J)
            if len(flows) != 1:
                return False, f"{len(flows)} flows extend {J} over {signs}"
            if flows[0].weight != 0:
                return False, f"dominant flow weight {flows[0].weight} at {signs} {J}"
            webs += 1
    return True, f"{webs} basis webs each admit one weight-0 dominant flow"


# -- 5: basis counts against independent oracles ------------------------------


@criterion(5, "basis counts vs oracles")
def criterion_5():
    boundaries = 0
    for signs in plain_boundaries(8):
        if len(web_space(signs).basis) != invariant_dim(signs):
            return False, f"basis count disagrees with tensor oracle at {signs}"
        boundaries += 1
    totals = []
    for n in (3, 6):
        shape = (3,) * (n // 3)
        tot = 0
        for mu in weights_bounded(n, n):
            b = len(web_space(signs_of_weight(mu)).basis)
            if b != ssyt_count(shape, mu):
                return False, f"tableau count disagrees at weight {mu}"
            tot += b
        if tot != hook_content_dim(shape, n):
            return False, f"total over weights of {n} is {tot}"
        totals.append(tot)
    return True, (
        f"{boundaries} boundaries match the tensor oracle; "
        f"weight totals {totals[0]} and {totals[1]} match hook content"
    )


# -- 6: quantum group relations on web vectors --------------------------------


@criterion(6, "generator relations")
def criterion_6():
    t0 = time.monotonic()
    c3 = verify_relations(3, 3)
    if c3 != 536:
        return False, f"three-column relation count changed: {c3}"
    c6 = verify_relations(6, 6)
    took = time.monotonic() - t0
    ok = took < 600.0
    return ok, f"{c3} + {c6} relation instances hold, {took:.1f}s of 600s budget"


# -- 7: inverse growth roundtrip ----------------------------------------------


@criterion(7, "inverse growth roundtrip")
def criterion_7():
    tripod = LadderWeb((3, 0, 0), (Slice("-", 1), Slice("-", 2), Slice("-", 1)))
    word, lam0 = inverse_growth(tripod)
    shown = format_word(word, lam0)
    if shown != "1_(1,1,1) E_{-1} E_{-2} E_{-1} 1_(3,0,0)":
        return False, f"worked example reads {shown}"
    done = 0
    for n in (3, 6):
        for mu in weights_bounded(n, n):
            signs = signs_of_weight(mu)
            for J, w in web_space(signs).basis.items():
                word, lam0 = inverse_growth(w)
                res = phi_word(word, empty_web(lam0))
                if res is None or expansion(res) != expansion(w):
                    return False, f"roundtrip fails at weight {mu} state {J}"
                done += 1
    return True, f"{done} roundtrips reproduce their webs; worked example matches"


# -- 8: forms, adjunction, bar invariance --------------------------------------


def _sample_words(signs: str, rng: random.Random):
    n = len(weight_of_signs(signs))
    words = [(Slice("+", 1),), (Slice("-", 1),)]
    for _ in range(2):
        length = rng.randint(2, 3)
        words.append(
            tuple(
                Slice(rng.choice("+-"), rng.randint(1, n - 1)) for _ in range(length)
            )
        )
    return words


@criterion(8, "form identities and adjunction")
def criterion_8():
    rng = random.Random(SEED)
    diag = 0
    closures = 0
    adjunctions = 0
    for signs in plain_boundaries(6):
        space = web_space(signs)
        values = _closure_values(signs)
        for J, exp in space.expansions.items():
            expect = ONE
            for k, c in exp.items():
                if k != J:
                    expect = expect + c * c
            if values[J, J][0].shift(-ell(signs)) != expect:
                return False, f"diagonal form value differs at {signs} {J}"
            diag += 1
        for value, _, _ in values.values():
            if not value.is_bar_invariant():
                return False, f"closed value not bar-invariant over {signs}"
            closures += 1
        if len(weight_of_signs(signs)) >= 2 and space.basis:
            for word in _sample_words(signs, rng):
                if not adjunction_holds(signs, word):
                    return False, f"adjunction fails for a word on {signs}"
                adjunctions += 1
    return True, (
        f"{diag} diagonal values are 1 + sum of squares, "
        f"{closures} closed values bar-invariant, {adjunctions} adjunctions"
    )


# -- 9: center dimension equals block count ------------------------------------


@criterion(9, "center dimensions")
def criterion_9():
    if center_dim("+++") != 6 or center_dim("+-") != 3:
        return False, "frozen center dimensions changed"
    checked = 0
    for signs in plain_boundaries(6):
        if len(flow_census(signs)) != center_dim(signs):
            return False, f"block count differs from center dimension at {signs}"
        checked += 1
    return True, f"{checked} boundaries; blocks = balanced fillings everywhere"


# -- 10: semisimple bookkeeping at q = 1 ----------------------------------------


@criterion(10, "root-of-unity bookkeeping")
def criterion_10():
    for signs in plain_boundaries(6):
        lhs = 0
        for value, colorings, _ in _closure_values(signs).values():
            if colorings != value.eval_at_one():
                return False, f"coloring count differs from q=1 value at {signs}"
            lhs += colorings
        rhs = sum(c * c for c in flow_census(signs).values())
        if lhs != rhs:
            return False, f"sum of squares fails at {signs}: {lhs} vs {rhs}"
    return True, "coloring counts match q=1 values; sum-of-squares holds everywhere"


# -- 11: dual canonical comparison ----------------------------------------------


@criterion(11, "dual canonical basis")
def criterion_11():
    """Each element B_J leads with 1 above coefficients in q^-1 Z[q^-1],
    its row rebuilds the web, W_J = B_J + sum c_JK B_K, and each c_JK is
    bar-invariant.  That is bar-invariance of B_J under the bar that fixes
    the webs: the B_K are unitriangular, so independent, and by induction
    on J, B_J is fixed exactly when every c_JK is."""
    elements = 0
    corrections = 0
    for signs in plain_boundaries(6):
        db = dual_canonical_basis(signs)
        space = web_space(signs)
        for J, (vec, row) in db.items():
            if vec.get(J) != ONE:
                return False, f"leading coefficient at {signs} {J}"
            for k, v in vec.items():
                if k != J and not strictly_below_one(v):
                    return False, f"off-leading coefficient at {signs} {J}"
            if not all(c.is_bar_invariant() for c in row.values()):
                return False, f"element not bar-invariant at {signs} {J}"
            # the web is the element plus corrections by smaller elements
            recon = dict(vec)
            for K, d in row.items():
                add_scaled(recon, d, db[K][0])
                corrections += 1
            if recon != space.expansion(J):
                return False, f"change of basis does not reconstruct {signs} {J}"
            elements += 1
        keys = sorted(db)
        for J in keys:
            for K in keys:
                f = lusztig_form_vec(db[J][0], db[K][0])
                delta = ONE if J == K else ZERO
                if not strictly_below_one(f - delta):
                    return False, f"pairing off delta at {signs} ({J},{K})"
    return True, (
        f"{elements} elements bar-invariant and below-leading; "
        f"{corrections} correction entries, pairings in delta + q^-1 Z[q^-1]"
    )


# -- 12: counterexample search ---------------------------------------------------


def criterion_12() -> CriterionResult:
    budget = default_budget()  # a bad setting raises here, outside the check
    def check():
        rep = search_counterexample(max_strands=10, budget_s=budget)
        if rep.completed:
            expected = sum(invariant_dim(s) for s in plain_boundaries(10))
            if rep.checked_webs != expected:
                return False, (
                    f"complete sweep checked {rep.checked_webs} webs, "
                    f"expected {expected}"
                )
        if rep.found:
            head = ", ".join(f"{s} {format_states(J)}" for s, J in rep.found[:3])
            return True, f"found {len(rep.found)} discrepant webs: {head}"
        if rep.completed:
            return True, (
                f"complete through 10 strands: {rep.checked_webs} webs, none found, "
                f"{rep.elapsed:.0f}s"
            )
        where = f"frontier {rep.last_boundary}" if rep.last_boundary else "no boundary started"
        return True, f"inconclusive at budget {budget:.0f}s: {rep.checked_webs} webs, {where}"

    return _result(12, "counterexample search", check)


CRITERIA[12] = criterion_12


# -- 13: tableau dictionary -------------------------------------------------------


def _small_weight_signs():
    """Sign strings whose visible weights sum to at most 6, plus a few
    padded variants with inert label-0 and label-3 strands."""
    out = [s for s in plain_boundaries(6, 1) if sum(hat_weights(s)) <= 6]
    out.extend(["o+x-", "+o-", "x++o--"])
    return out


@criterion(13, "tableau dictionary")
def criterion_13():
    roundtrips = 0
    for signs in _small_weight_signs():
        k = len(hat_weights(signs))
        realized = set(flow_census(signs))
        dominant = set(dominant_states(signs))
        for J in product((1, 0, -1), repeat=k):
            f = state_to_filling(signs, J)
            if filling_to_state(signs, f) != J:
                return False, f"roundtrip fails at {signs} {J}"
            roundtrips += 1
            ok = is_balanced(f)  # balanced exactly when a flow on a basis web bounds J
            if ok != (J in realized):
                return False, f"flow existence mismatch at {signs} {J}"
            try:  # growth stops exactly on the dominant states
                grown = growth(signs, J)
            except GrowthStuck:
                grown = None
            if (grown is not None) != (J in dominant):
                return False, f"growth and dominant states disagree at {signs} {J}"
            if grown and (grown.weight != 0 or grown.boundary != J):
                return False, f"canonical flow wrong at {signs} {J}"
        balanced = {filling_to_state(signs, f) for f in enumerate_fillings(signs)}
        if balanced != realized:
            return False, f"balanced fillings differ from flow boundaries at {signs}"
    return True, f"{roundtrips} roundtrips; existence and canonical-flow checks hold"


def run_all(numbers=None) -> list[CriterionResult]:
    chosen = sorted(CRITERIA) if numbers is None else sorted(numbers)
    results = []
    for k in chosen:
        res = CRITERIA[k]()
        print(res.line())
        results.append(res)
    failed = [r for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} criteria pass"
        + (f"; failing: {', '.join(str(r.number) for r in failed)}" if failed else "")
    )
    return results
