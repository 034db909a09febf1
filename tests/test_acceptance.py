"""The acceptance gate, one test per criterion.

Each criterion prints its own summary line; the assertion carries it so
a failure shows the detail.  Criterion 12 honors WEBKUP_SEARCH_BUDGET
(seconds; default 1800) for the counterexample search.
"""

import importlib
import importlib.util
import pkgutil
import re
import time
from collections import Counter
from itertools import count
from pathlib import Path

import pytest

import webkup
from webkup import acceptance, dualcan, flows, growth, howe, planar
from webkup.planar import PlanarWeb
from webkup.flows import add_scaled
from webkup.qlaurent import LaurentPoly, qint
from webkup.webs import Slice


# every cache holding a table derived from the flow weights
DERIVED_TABLES = (
    acceptance._closure_values,
    flows.transitions,
    flows._moves,
    flows._weight_window,
    growth._rule_moves,
    growth._rule_priority,
    growth._hop,
    growth.web_space,
    dualcan.dual_canonical_basis,
    howe._generator_relations,
)

# caches that read no derived table
PLAIN_CACHES = {"qbinom", "hook_content_dim"}


def test_every_cache_of_a_derived_table_is_cleared():
    # a cache missing from DERIVED_TABLES would keep a planted fault's table
    modules = [importlib.import_module(f"webkup.{m.name}") for m in pkgutil.iter_modules(webkup.__path__)]
    assert {"cli", "gornik", "planar", "tableaux"} <= {m.__name__.split(".")[1] for m in modules}
    caches = {
        obj.__name__: obj
        for module in modules
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear")
    }
    assert PLAIN_CACHES <= set(caches)
    missing = [n for n, f in caches.items() if n not in PLAIN_CACHES and f not in DERIVED_TABLES]
    assert not missing, f"caches missing from DERIVED_TABLES: {missing}"


@pytest.fixture
def fresh_tables():
    """Rebuild the derived tables around a planted fault, so the fault
    reaches the criterion and no later test reads a faulty table."""
    for table in DERIVED_TABLES:
        table.cache_clear()
    yield
    for table in DERIVED_TABLES:
        table.cache_clear()


def _load_workloads():
    """perfbench/workloads.py loaded as a module: the benchmark's selftest
    reference lines and its masking of timings."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _load_workloads()
REFERENCE = WORKLOADS.load_reference()["selftest"]


def test_reference_holds_every_criterion_but_the_search():
    assert set(REFERENCE) == {str(k) for k in acceptance.CRITERIA if k != 12}


def test_each_criterion_is_bound_once():
    # perfbench times acceptance.AC{k} by rebinding one object under both names
    assert set(acceptance.CRITERIA) == set(range(1, 14))
    for k, run in acceptance.CRITERIA.items():
        assert getattr(acceptance, f"criterion_{k}") is run, k


def _check(number):
    res = acceptance.CRITERIA[number]()
    print(res.line())
    assert res.passed, res.line()
    if str(number) in REFERENCE:  # a drifted detail fails here, not first in perfbench
        assert WORKLOADS.normalize_line(res.line()) == REFERENCE[str(number)]


@pytest.mark.parametrize("number", [1, 6])
def test_criterion_budgets_ignore_a_wall_clock_step(monkeypatch, number):
    # each reading of the wall clock steps it an hour, past criteria 1's
    # and 6's budgets; neither may fail on it or report it as elapsed
    wall = count(0.0, 3600.0)
    monkeypatch.setattr(time, "time", lambda: next(wall))
    res = acceptance.CRITERIA[number]()
    assert res.passed, res.line()
    assert 0 <= res.elapsed < 60
    assert WORKLOADS.normalize_line(res.line()) == REFERENCE[str(number)]


def test_criterion_01_evaluator_agreement():
    _check(1)


def test_criterion_02_ground_truth_relations():
    _check(2)


def test_criterion_03_unitriangularity():
    _check(3)


def test_criterion_04_canonical_flow():
    _check(4)


def test_criterion_05_basis_counts():
    _check(5)


def test_criterion_06_generator_relations():
    _check(6)


def test_criterion_07_inverse_growth():
    _check(7)


def test_criterion_08_forms_and_adjunction():
    _check(8)


def test_criterion_09_center_dimensions():
    _check(9)


def test_criterion_10_root_of_unity():
    _check(10)


def test_criterion_11_dual_canonical():
    _check(11)


def test_criterion_12_counterexample_search():
    _check(12)


def test_criterion_13_tableau_dictionary():
    _check(13)


def _report(checked_webs, completed=True):
    return dualcan.SearchReport([], checked_webs, "+" * 10, completed, 0.0)


def test_criterion_12_fails_on_wrong_web_count(monkeypatch):
    # a complete sweep through 10 strands checks 45,340 basis webs
    monkeypatch.setattr(
        acceptance, "search_counterexample", lambda **kw: _report(45_339)
    )
    res = acceptance.CRITERIA[12]()
    assert not res.passed
    assert "45339" in res.detail and "45340" in res.detail
    monkeypatch.setattr(
        acceptance, "search_counterexample", lambda **kw: _report(45_340)
    )
    res = acceptance.CRITERIA[12]()
    assert res.passed, res.line()
    assert res.detail.startswith("complete through 10 strands: 45340 webs")


def test_criterion_13_fails_on_dropped_dominant_state(monkeypatch):
    # growth still terminates on the dropped state, so AC13 must see it
    real = acceptance.dominant_states

    def drop_one(signs):
        states = real(signs)
        return states[1:] if signs == "+++" else states

    monkeypatch.setattr(acceptance, "dominant_states", drop_one)
    res = acceptance.CRITERIA[13]()
    assert not res.passed
    assert res.detail == "growth and dominant states disagree at +++ (1, 0, -1)"


def test_criterion_12_reads_a_bad_budget_outside_its_check(monkeypatch):
    # a bad setting is a usage error for the caller, not an AC12 failure
    monkeypatch.setenv("WEBKUP_SEARCH_BUDGET", "abc")
    with pytest.raises(ValueError, match="WEBKUP_SEARCH_BUDGET"):
        acceptance.CRITERIA[12]()


def test_criterion_06_fails_on_a_wrong_coefficient(monkeypatch):
    # word actions are memoized, coefficients are not: a wrong one must show
    real = howe.relation_instances
    planted = []

    def one_wrong(lam):
        out = real(lam)
        for k, (name, (lhs, rhs)) in enumerate(out):
            if not planted and name.startswith("adjust") and lhs:
                (coeff, word), *rest = lhs
                out[k] = (name, (((LaurentPoly(coeff).shift(1).coeffs, word), *rest), rhs))
                planted.append((name, lam))
        return out

    monkeypatch.setattr(howe, "relation_instances", one_wrong)
    res = acceptance.CRITERIA[6]()
    assert not res.passed
    name, lam = planted[0]
    assert f"relation {name} fails on {lam}" in res.detail


def test_criterion_06_fails_on_a_dropped_instance(monkeypatch):
    real = howe.relation_instances

    def drop_one(lam):
        out = real(lam)
        return out[1:] if lam == (3, 0, 0) else out

    monkeypatch.setattr(howe, "relation_instances", drop_one)
    res = acceptance.CRITERIA[6]()
    assert not res.passed
    assert res.detail == "three-column relation count changed: 535"


def test_criterion_06_fails_on_a_term_with_another_target(monkeypatch, fresh_tables):
    # every live word of an instance must land on one weight; generator
    # 1's own instances are built on its two columns
    real = howe.word_target
    stray = (Slice("-", 1), Slice("+", 1))  # the first word of schur 11

    def one_stray(lam, word):
        target = real(lam, word)
        return (0, 2) if (lam, word) == ((1, 1), stray) else target

    monkeypatch.setattr(howe, "word_target", one_stray)
    res = acceptance.CRITERIA[6]()
    assert not res.passed
    assert "relation schur 11 mixes target weights on columns (1, 1)" in res.detail


def test_criterion_06_fails_on_a_commutator_with_one_live_word(monkeypatch, fresh_tables):
    # on (1, 1, 1) both words of schur 21 reach (0, 3, 0); kill one
    real = howe.word_target
    lower_first = (Slice("-", 1), Slice("+", 2))

    def one_killed(lam, word):
        return None if (lam, word) == ((1, 1, 1), lower_first) else real(lam, word)

    monkeypatch.setattr(howe, "word_target", one_killed)
    res = acceptance.CRITERIA[6]()
    assert not res.passed
    assert "relation schur 21 maps its words to None and (0, 3, 0) on (1, 1, 1)" in res.detail


def test_criterion_06_fails_on_a_coefficient_of_mixed_signs(monkeypatch, fresh_tables):
    # [2] = q + q^-1 becomes 1 - q: the two sides of a relation must each
    # hold positive coefficients, or their equality proves nothing
    real = howe.qbinom

    def one_mixed(top, bot):
        return LaurentPoly({0: 1, 1: -1}) if (top, bot) == (2, 1) else real(top, bot)

    monkeypatch.setattr(howe, "qbinom", one_mixed)
    res = acceptance.CRITERIA[6]()
    assert not res.passed
    name = "divpow1 +2 1,1"
    assert f"relation {name} has a coefficient q - 1 of mixed signs on columns (0, 3)" in res.detail


def test_criterion_08_fails_on_a_scaled_closed_value(monkeypatch, fresh_tables):
    # the diagonal form value must match the closed-web route too
    real = acceptance.bracket
    monkeypatch.setattr(acceptance, "bracket", lambda w: real(w) * LaurentPoly({1: 1}))
    res = acceptance.CRITERIA[8]()
    assert not res.passed
    assert res.detail == "diagonal form value differs at +- (1, -1)"


def test_criterion_08_fails_on_a_wrong_tau_scalar(monkeypatch):
    # tau's scalar times q breaks adjointness; acceptance binds no tau_word
    # of its own and reaches it through howe.adjunction_holds
    assert not hasattr(acceptance, "tau_word")
    real = howe.tau_word

    def planted(word, source):
        scalar, back = real(word, source)
        return scalar * LaurentPoly({1: 1}), back

    monkeypatch.setattr(howe, "tau_word", planted)
    res = acceptance.CRITERIA[8]()
    assert not res.passed
    assert res.detail == "adjunction fails for a word on +-"


def test_criteria_01_08_10_evaluate_each_closure_once(monkeypatch, fresh_tables):
    # the 888 basis closures through 6 strands go through one table: each
    # is closed once, valued once and built into one planar graph
    calls = Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(acceptance, "bracket", counted("bracket", acceptance.bracket))
    monkeypatch.setattr(acceptance, "close", counted("close", acceptance.close))
    monkeypatch.setattr(PlanarWeb, "from_ladder", counted("from_ladder", PlanarWeb.from_ladder))
    for number in (1, 8, 10):
        res = acceptance.CRITERIA[number]()
        assert res.passed, res.line()
    assert calls == {"bracket": 888, "close": 888, "from_ladder": 888}


def test_a_wrong_digon_fails_criterion_01_alone(monkeypatch, fresh_tables):
    # a digon worth q [2] reaches only the rewritten values of the table;
    # the Tait counts read the same graphs before the rewriting and hold
    real = planar.qint
    monkeypatch.setattr(planar, "qint", lambda n: real(n).shift(1) if n == 2 else real(n))
    res = acceptance.CRITERIA[1]()
    assert not res.passed
    assert res.detail == "evaluators disagree on a closure over +++"
    res = acceptance.CRITERIA[10]()
    assert res.passed, res.line()


def test_a_wrong_tait_count_fails_criterion_10_alone(monkeypatch, fresh_tables):
    real = acceptance.coloring_count
    monkeypatch.setattr(acceptance, "coloring_count", lambda pw: real(pw) + 1)
    res = acceptance.CRITERIA[10]()
    assert not res.passed
    assert res.detail == "coloring count differs from q=1 value at +-"
    res = acceptance.CRITERIA[1]()
    assert res.passed, res.line()


def test_criterion_10_fails_on_a_dropped_transition(monkeypatch, fresh_tables):
    # only flows' binding is wrong, so growth still builds the true webs;
    # the Tait count reads no transition and must differ from the bracket
    real = flows.transitions
    dropped = dict(real("-", 1))
    pair = (flows.FULL, frozenset())
    dropped[pair] = dropped[pair][:-1]
    monkeypatch.setattr(flows, "transitions", lambda *kind: dropped if kind == ("-", 1) else real(*kind))
    res = acceptance.CRITERIA[10]()
    assert not res.passed
    assert res.detail == "coloring count differs from q=1 value at -+"


def test_criterion_06_fails_on_a_wrong_weight(shift_weight, fresh_tables):
    # the Howe checks sweep each basis web through the weight table, so a
    # shifted weight must reach them; many other keys make growth or a
    # divided power raise first
    shift_weight(((), (-1,), -1), 1)
    res = acceptance.CRITERIA[6]()
    assert not res.passed
    assert res.detail == "error: AssertionError('relation schur 11 fails on (0, 1, 2)')"


def test_criterion_01_fails_on_a_wrong_weight(shift_weight, fresh_tables):
    # many other keys make growth or a divided power raise instead
    shift_weight(((), (-1, 0, 1), -1), 1)
    res = acceptance.CRITERIA[1]()
    assert not res.passed
    assert res.detail == "evaluators disagree on a closure over +-"


def test_criterion_05_fails_on_a_wrong_oracle(monkeypatch):
    real = acceptance.invariant_dim
    monkeypatch.setattr(acceptance, "invariant_dim", lambda signs: real(signs) + 1)
    res = acceptance.CRITERIA[5]()
    assert not res.passed
    assert res.detail == "basis count disagrees with tensor oracle at ++"


def _planted_space(monkeypatch, signs, change):
    """Serve a web space of `signs` whose per-web vectors `change` has
    edited in the space's memo, to the acceptance checks and to the dual
    canonical construction: both read them through WebSpace.expansion."""
    space = growth.WebSpace(signs)
    space.expanded = {J: dict(space.expansion(J)) for J in space.basis}
    change(space)
    for module in (acceptance, dualcan):
        real = module.web_space
        monkeypatch.setattr(
            module, "web_space", lambda s, real=real: space if s == signs else real(s)
        )


def test_criterion_03_fails_on_a_negative_entry_off_the_dominant_states(monkeypatch):
    # the entry sits in a column of a state that is not dominant
    J, k = (1, 1, -1, -1), (-1, -1, 1, 1)

    def negate(space):
        vec, mask = space.expanded[J], (1 << 3 * space.n) - 1
        terms = [key for key in vec if key & mask == space.key(k)]
        assert terms
        for key in terms:
            vec[key] = -vec[key]

    _planted_space(monkeypatch, "+-+-", negate)
    res = acceptance.CRITERIA[3]()
    assert not res.passed
    assert res.detail == f"negative entry at +-+- ({J},{k})"


PLANTED_TOP, OTHER = (1, 1, -1, -1), (1, -1, 1, -1)  # the dominant states of +-+-


def _top_plus_q_plus_inverse_q_times_other(space):
    add_scaled(space.expanded[PLANTED_TOP], qint(2), space.expanded[OTHER], space.n)


def test_criterion_11_corrects_a_web_that_is_not_dual_canonical(monkeypatch, fresh_tables):
    # e_top + (q + q^-1) e_other is bar-invariant and unitriangular, and its
    # dual canonical element is the real e_top, reached by one correction
    real = growth.WebSpace("+-+-").expansions
    _planted_space(monkeypatch, "+-+-", _top_plus_q_plus_inverse_q_times_other)
    db = dualcan.dual_canonical_basis("+-+-")
    assert {J: row for J, (_, row) in db.items()} == {PLANTED_TOP: {OTHER: qint(2)}, OTHER: {}}
    assert {J: vec for J, (vec, _) in db.items()} == real
    res = acceptance.CRITERIA[11]()
    assert res.passed, res.line()
    assert "; 1 correction entries," in res.detail


# three dominant states of +++---, from the top down
CHAIN_J, CHAIN_K, CHAIN_L = (1, 1, 1, -1, -1, -1), (1, 1, 0, 0, -1, -1), (1, 0, -1, 1, 0, -1)


def _chain(space):
    # plant e_K + [2] e_L at K, then e_J + [2] (that) at J
    vectors = space.expanded
    add_scaled(vectors[CHAIN_K], qint(2), vectors[CHAIN_L], space.n)
    add_scaled(vectors[CHAIN_J], qint(2), vectors[CHAIN_K], space.n)


def test_criterion_11_corrects_a_chain_of_two_levels(monkeypatch, fresh_tables):
    # J corrects at K by [2], which leaves [2]^2 e_L for a correction at L;
    # building J's element builds K's, which itself corrects at L
    real = growth.WebSpace("+++---").expansions
    _planted_space(monkeypatch, "+++---", _chain)
    db = dualcan.dual_canonical_basis("+++---")
    rows = {J: row for J, (_, row) in db.items() if row}
    assert rows == {
        CHAIN_J: {CHAIN_K: qint(2), CHAIN_L: qint(2) * qint(2)},
        CHAIN_K: {CHAIN_L: qint(2)},
    }
    assert {J: vec for J, (vec, _) in db.items()} == real
    res = acceptance.CRITERIA[11]()
    assert res.passed, res.line()
    assert "; 3 correction entries," in res.detail


def test_criterion_11_fails_on_a_bar_top_wrong_only_at_nonnegative_exponents(
    monkeypatch, fresh_tables
):
    # element passes only coefficients with an exponent >= 0, and no web
    # through 6 strands has one, so the fault needs the planted space
    real = dualcan.bar_symmetric_top
    monkeypatch.setattr(
        dualcan,
        "bar_symmetric_top",
        lambda p: real(p) if dualcan.strictly_below_one(p) else real(p.shift(1)),
    )
    _planted_space(monkeypatch, "+-+-", _top_plus_q_plus_inverse_q_times_other)
    res = acceptance.CRITERIA[11]()
    assert not res.passed
    assert res.detail.startswith("error: AssertionError('correction failed: ")


def test_criterion_11_fails_on_a_correction_that_is_not_bar_invariant(monkeypatch, fresh_tables):
    # a correction of (q + q^-1) + q^-1 still rebuilds the web, but the
    # element it leaves is not fixed by the bar that fixes the webs
    real = dualcan.bar_symmetric_top
    monkeypatch.setattr(dualcan, "bar_symmetric_top", lambda p: real(p) + LaurentPoly({-1: 1}))
    _planted_space(monkeypatch, "+-+-", _top_plus_q_plus_inverse_q_times_other)
    res = acceptance.CRITERIA[11]()
    assert not res.passed
    assert res.detail == f"element not bar-invariant at +-+- {PLANTED_TOP}"


def _top_minus_two_times_other(space):
    add_scaled(space.expanded[PLANTED_TOP], -qint(2), space.expanded[OTHER], space.n)


def test_criterion_11_fails_on_a_negative_correction(monkeypatch, fresh_tables):
    # e_top - (q + q^-1) e_other is bar-invariant and unitriangular, but no
    # web splits with a negative multiplicity: element must refuse it
    _planted_space(monkeypatch, "+-+-", _top_minus_two_times_other)
    message = f"negative correction at {OTHER} of element {PLANTED_TOP}: -q - q^-1"
    with pytest.raises(AssertionError, match=re.escape(message)):
        dualcan.element(dualcan.web_space("+-+-"), PLANTED_TOP)
    res = acceptance.CRITERIA[11]()
    assert not res.passed
    assert res.detail == f"error: AssertionError({message!r})"


def test_criterion_02_fails_on_a_dropped_square_smoothing(monkeypatch):
    real = PlanarWeb.resolve_square
    monkeypatch.setattr(
        PlanarWeb, "resolve_square", lambda self, cyc, which: real(self, cyc, 0)
    )
    res = acceptance.CRITERIA[2]()
    assert not res.passed
    assert res.detail == "square identity fails on a closure over --+-++"


def test_criterion_04_fails_on_a_repeated_dominant_flow(monkeypatch):
    real = acceptance.enumerate_flows
    monkeypatch.setattr(
        acceptance, "enumerate_flows", lambda w, boundary=None: 2 * real(w, boundary)
    )
    res = acceptance.CRITERIA[4]()
    assert not res.passed
    assert res.detail == "2 flows extend (1, -1) over +-"


def test_criterion_07_fails_on_closed_columns_packed_left_to_right(monkeypatch):
    # packing the leftmost column first runs it into the columns still to move
    def left_to_right(web):
        bot = web.bottom_weight
        targets = [i for i, v in enumerate(bot) if v == 3]
        word = [Slice("-", c + 1, 3) for j, t in enumerate(targets) for c in range(j, t)]
        return tuple(word) + tuple(web.slices), howe.standard_weight(len(bot), sum(bot))

    monkeypatch.setattr(acceptance, "inverse_growth", left_to_right)
    res = acceptance.CRITERIA[7]()
    assert not res.passed
    assert res.detail == "roundtrip fails at weight (0, 0, 0, 0, 3, 3) state ()"


def test_criterion_09_fails_on_a_dropped_block(monkeypatch):
    real = acceptance.flow_census

    def drop_top(signs):
        census = Counter(real(signs))
        if signs == "+-+-":
            del census[max(census)]
        return census

    monkeypatch.setattr(acceptance, "flow_census", drop_top)
    res = acceptance.CRITERIA[9]()
    assert not res.passed
    assert res.detail == "block count differs from center dimension at +-+-"


def test_criterion_12_names_its_frontier_or_says_none_was_started(monkeypatch):
    monkeypatch.setenv("WEBKUP_SEARCH_BUDGET", "0")
    for last, where in (("+-", "frontier +-"), (None, "no boundary started")):
        report = dualcan.SearchReport([], 0, last, False, 0.0)
        monkeypatch.setattr(acceptance, "search_counterexample", lambda **kw: report)
        res = acceptance.CRITERIA[12]()
        assert res.detail == f"inconclusive at budget 0s: 0 webs, {where}"


def test_criterion_12_writes_found_states_as_state_strings(monkeypatch):
    found = [("++--++--++--", (1, 1, 1, 1, 0, 0, 0, 0, -1, -1, -1, -1))]
    report = dualcan.SearchReport(found, 3, "++--++--++--", False, 0.0)
    monkeypatch.setattr(acceptance, "search_counterexample", lambda **kw: report)
    res = acceptance.CRITERIA[12]()
    assert res.detail == "found 1 discrepant webs: ++--++--++-- 11110000mmmm"
