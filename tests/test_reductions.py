import gc
import hashlib
import pickle
import random
import tracemalloc
import weakref

import pytest

from hornlearn import core
from hornlearn import (
    ArityError,
    Assignment,
    ClosureFromEntailment,
    ClosureFromStandard,
    EntailmentClause,
    EntailmentFromClosure,
    GenConfig,
    HornFormula,
    Implication,
    ProtocolError,
    QueryStats,
    StandardFromClosure,
    Teacher,
    afp,
    clh,
    closure,
    cq_from_emq,
    cq_from_smq_seq,
    emq_from_cq,
    entails,
    eeq_from_seq_cq,
    equivalent,
    gd_basis,
    lower_bound_demo,
    random_formula,
    satisfies,
    seq_from_eeq_emq,
    smq_from_cq,
    smq_from_emq,
)

from hornlearn.reductions import _LEARNED

from helpers import asg, formula, vs


def random_target(rng, n):
    return HornFormula(
        n,
        [
            Implication(
                frozenset(rng.sample(range(n), rng.randint(0, 2))),
                frozenset(rng.sample(range(n), rng.randint(1, 2))),
            )
            for _ in range(rng.randint(1, 6))
        ],
    )


class TestPointwiseSimulations:
    def test_cq_from_emq_value_and_budget(self, gd_example):
        teacher = Teacher(gd_example)
        y = Assignment.from_vars(vs("ad"), 5)
        assert cq_from_emq(teacher, y).ones() == vs("abcde")
        assert teacher.stats.emq == 3  # one per variable outside {a, d}

    def test_cq_from_emq_on_top(self, gd_example):
        teacher = Teacher(gd_example)
        top = Assignment.full(5)
        assert cq_from_emq(teacher, top) == top
        assert teacher.stats.emq == 0

    def test_cq_from_emq_simple_chain(self):
        teacher = Teacher(formula(4, ("a", "b"), ("a", "c"), ("c", "d")))
        got = cq_from_emq(teacher, Assignment.from_vars(vs("c"), 4))
        assert got.ones() == vs("cd")

    def test_smq_from_emq(self, gd_example):
        teacher = Teacher(gd_example)
        assert smq_from_emq(teacher, Assignment.full(5))
        assert teacher.stats.emq == 0
        assert not smq_from_emq(teacher, Assignment.from_vars(vs("e"), 5))
        empty_teacher = Teacher(HornFormula(3, []))
        assert smq_from_emq(empty_teacher, asg("100"))
        assert empty_teacher.stats.emq == 2

    def test_emq_from_cq(self, gd_example):
        teacher = Teacher(gd_example)
        assert emq_from_cq(teacher, EntailmentClause(vs("ad"), 4))  # ad -> e
        assert teacher.stats.cq == 1
        assert emq_from_cq(teacher, EntailmentClause(vs("ab"), 0))
        assert not emq_from_cq(teacher, EntailmentClause(vs("e"), 0))
        assert teacher.stats.cq == 3

    @pytest.mark.parametrize(
        "clause",
        [EntailmentClause({0}, 9), EntailmentClause({7}, 0)],
        ids=["head", "antecedent"],
    )
    def test_emq_from_cq_rejects_a_clause_outside_the_arity(self, gd_example, clause):
        with pytest.raises(ArityError) as direct:
            Teacher(gd_example).emq(clause)
        inner = Teacher(gd_example)
        with pytest.raises(ArityError, match=f"^{direct.value}$"):
            EntailmentFromClosure(inner).emq(clause)
        assert inner.stats.cq == 0

    def test_smq_from_cq(self, gd_example):
        teacher = Teacher(gd_example)
        assert smq_from_cq(teacher, Assignment.full(5))
        assert teacher.stats.cq == 1
        assert not smq_from_cq(teacher, Assignment.from_vars(vs("e"), 5))
        assert teacher.stats.cq == 2
        t2 = Teacher(formula(2, ("a", "b")))
        assert not smq_from_cq(t2, asg("10"))
        assert t2.stats.cq == 1

    def test_exhaustive_agreement(self):
        rng = random.Random(80)
        for _ in range(25):
            n = rng.randint(2, 6)
            target = random_target(rng, n)
            genuine = Teacher(target)
            emq_side = Teacher(target)
            cq_side = Teacher(target)
            for mask in range(1 << n):
                x = Assignment(mask, n)
                assert cq_from_emq(emq_side, x) == genuine.cq(x)
                assert smq_from_emq(emq_side, x) == genuine.smq(x)
                assert smq_from_cq(cq_side, x) == genuine.smq(x)
                for head in range(n):
                    clause = EntailmentClause(x.ones(), head)
                    assert emq_from_cq(cq_side, clause) == genuine.emq(clause)


class TestSeqFromEntailment:
    def test_yes_costs_one_eeq(self, gd_example):
        teacher = Teacher(gd_example)
        assert seq_from_eeq_emq(teacher, gd_example) is None
        assert teacher.stats.eeq == 1 and teacher.stats.emq == 0

    def test_negative_case_needs_no_memberships(self):
        teacher = Teacher(formula(2, ("a", "b")))
        assert seq_from_eeq_emq(teacher, HornFormula(2, [])) == asg("10")
        assert teacher.stats.emq == 0

    def test_positive_case_uses_memberships(self):
        teacher = Teacher(HornFormula(2, []))
        assert seq_from_eeq_emq(teacher, formula(2, ("a", "b"))) == asg("10")
        assert teacher.stats.emq <= 2

    def test_matches_direct_teacher_with_first_strategy(self):
        # under list-order scanning both pick the same violated implication,
        # so even the concrete counterexample assignment coincides
        rng = random.Random(81)
        for _ in range(60):
            n = rng.randint(2, 6)
            target = random_target(rng, n)
            hypothesis = random_target(rng, n)
            direct = Teacher(target).seq(hypothesis)
            simulated = seq_from_eeq_emq(Teacher(target), hypothesis)
            assert direct == simulated


class TestEeqFromStandard:
    def test_yes_costs_one_seq(self, gd_example):
        teacher = Teacher(gd_example)
        assert eeq_from_seq_cq(teacher, gd_example) is None
        assert teacher.stats.seq == 1 and teacher.stats.cq == 0

    def test_negative_counterexample_clause(self):
        teacher = Teacher(formula(2, ("a", "b")))
        clause = eeq_from_seq_cq(teacher, HornFormula(2, []))
        assert clause == EntailmentClause(vs("a"), 1)
        assert teacher.stats.seq == 1 and teacher.stats.cq == 1

    def test_negative_clause_takes_the_lowest_gained_variable(self):
        # `100` closes to `111`; b and c are both valid heads
        teacher = Teacher(formula(3, ("a", "bc")))
        clause = eeq_from_seq_cq(teacher, HornFormula(3, []))
        assert clause == EntailmentClause(vs("a"), 1)

    def test_positive_counterexample_clause(self):
        teacher = Teacher(HornFormula(2, []))
        clause = eeq_from_seq_cq(teacher, formula(2, ("a", "b")))
        assert clause == EntailmentClause(vs("a"), 1)
        assert teacher.stats.seq == 1 and teacher.stats.cq == 1

    def test_clauses_valid_and_budget_respected(self):
        rng = random.Random(82)
        for _ in range(60):
            n = rng.randint(2, 6)
            target = random_target(rng, n)
            hypothesis = random_target(rng, n)
            teacher = Teacher(target)
            clause = eeq_from_seq_cq(teacher, hypothesis)
            assert teacher.stats.seq == 1 and teacher.stats.cq <= 1
            if clause is None:
                assert equivalent(target, hypothesis)
            else:
                assert entails(target, clause) != entails(hypothesis, clause)


class TestCqFromStandard:
    def test_trivial_target_costs_one_seq(self):
        teacher = Teacher(HornFormula(3, []))
        y = asg("010")
        assert cq_from_smq_seq(teacher, y) == y
        assert teacher.stats.seq == 1 and teacher.stats.smq == 0

    def test_values(self, gd_example):
        teacher = Teacher(gd_example)
        got = cq_from_smq_seq(teacher, Assignment.from_vars(vs("bd"), 5))
        assert got.ones() == vs("bcd")
        t2 = Teacher(formula(2, ("a", "b")))
        assert cq_from_smq_seq(t2, asg("10")) == asg("11")

    def test_learning_happens_once(self, gd_example):
        teacher = Teacher(gd_example)
        cq_from_smq_seq(teacher, Assignment.zero(5))
        spent = teacher.stats.as_dict()
        for mask in (3, 7, 12, 30):
            cq_from_smq_seq(teacher, Assignment(mask, 5))
        assert teacher.stats.as_dict() == spent

    def test_wrong_length_rejected_before_learning(self, gd_example):
        teacher = Teacher(gd_example)
        with pytest.raises(ArityError, match="^assignment length 3 vs arity 5$"):
            cq_from_smq_seq(teacher, Assignment(0, 3))
        assert teacher.stats == QueryStats()
        assert teacher not in _LEARNED

    def test_cache_lets_its_teacher_go(self, gd_example):
        # a long-lived process must not keep every teacher it learned alive
        gc.collect()
        cached = len(_LEARNED)
        teacher = Teacher(gd_example)
        cq_from_smq_seq(teacher, Assignment.zero(5))
        assert teacher in _LEARNED and len(_LEARNED) == cached + 1
        gone = weakref.ref(teacher)
        del teacher
        gc.collect()
        assert gone() is None
        assert len(_LEARNED) == cached

    def test_exhaustive_agreement(self):
        rng = random.Random(83)
        for _ in range(15):
            n = rng.randint(2, 6)
            target = random_target(rng, n)
            genuine = Teacher(target)
            wrapped = Teacher(target)
            for mask in range(1 << n):
                x = Assignment(mask, n)
                assert cq_from_smq_seq(wrapped, x) == genuine.cq(x)


def assert_log_adds_up(adapter, stats):
    """The spends in the adapter's per-call log sum to the inner counters."""
    total = QueryStats()
    for _, spent in adapter.adapter_stats.calls:
        for kind, count in spent.items():
            setattr(total, kind, getattr(total, kind) + count)
    assert total == stats


class CheckedAdapter:
    """An adapter's surface that checks each call's log entry against a
    spend built afresh from the inner counters, as the log once built it."""

    def __init__(self, adapter) -> None:
        self.adapter = adapter
        self.arity = adapter.arity
        self.stats = adapter.stats
        self.checked = 0

    def __getattr__(self, op):
        method = getattr(self.adapter, op)

        def call(query):
            before = self.stats.as_dict()
            try:
                return method(query)
            finally:
                after = self.stats.as_dict()
                fresh = {k: after[k] - before[k] for k in after if after[k] != before[k]}
                entry = self.adapter.adapter_stats.calls[-1]
                assert entry == (op, fresh) and list(entry[1]) == list(fresh)
                self.checked += 1

        return call


class RecordingClosureFromEntailment(ClosureFromEntailment):
    """The adapter, noting the mask of each closure query it is asked."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.asked = []

    def cq(self, y):
        self.asked.append(y.mask)
        return super().cq(y)


class MemolessClosureFromEntailment:
    """The reference closure surface: every call goes straight to the
    stateless simulation, with no memo."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.arity = inner.arity
        self.stats = inner.stats

    def cq(self, y):
        return cq_from_emq(self.inner, y)

    def seq(self, hypothesis):
        return seq_from_eeq_emq(self.inner, hypothesis)


def trace_key(report):
    return [
        (e.kind, e.index, e.counterexample, e.hypothesis.implications)
        for e in report.trace
    ]


class TestAdapters:
    def test_closure_from_entailment_runs_clh(self, gd_example):
        inner = Teacher(gd_example)
        adapter = ClosureFromEntailment(inner)
        report = clh(adapter)
        assert frozenset(report.output.implications) == frozenset(
            gd_basis(gd_example).implications
        )
        assert inner.stats.seq == 0 and inner.stats.cq == 0
        assert inner.stats.eeq > 0 and inner.stats.emq > 0
        # every simulated call stayed within its ceiling
        n = gd_example.arity
        for spent in adapter.adapter_stats.per_call("cq"):
            assert spent.get("emq", 0) <= n and "eeq" not in spent
        for spent in adapter.adapter_stats.per_call("seq"):
            assert spent.get("eeq", 0) == 1 and spent.get("emq", 0) <= n

    @pytest.mark.parametrize("seed", range(5))
    def test_closure_from_entailment_runs_afp(self, seed):
        target = random_formula(GenConfig(10, 20, (1, 3), (1, 2), seed=seed))
        inner = Teacher(target)
        adapter = ClosureFromEntailment(inner)
        assert equivalent(afp(adapter).output, target)
        assert inner.stats.smq == 0 and inner.stats.seq == 0
        spent_per_smq = adapter.adapter_stats.per_call("smq")
        assert spent_per_smq
        for spent in spent_per_smq:
            assert set(spent) <= {"emq"} and spent.get("emq", 0) <= target.arity

    def test_standard_from_closure_runs_afp(self, gd_example):
        inner = Teacher(gd_example)
        adapter = StandardFromClosure(inner)
        report = afp(adapter)
        assert equivalent(report.output, gd_example)
        assert inner.stats.smq == 0 and inner.stats.emq == 0
        for spent in adapter.adapter_stats.per_call("smq"):
            assert spent == {"cq": 1}

    def test_entailment_from_closure_budgets(self, gd_example):
        inner = Teacher(gd_example)
        adapter = EntailmentFromClosure(inner)
        checked = CheckedAdapter(adapter)
        checked.emq(EntailmentClause(vs("ad"), 4))
        checked.smq(Assignment.full(5))
        checked.eeq(HornFormula(5, []))
        assert checked.checked == 3
        for op, spent in adapter.adapter_stats.calls:
            if op in ("emq", "smq"):
                assert spent == {"cq": 1}
            else:
                assert spent.get("seq", 0) == 1 and spent.get("cq", 0) <= 1

    def test_closure_from_standard_runs_clh(self, gd_example):
        inner = Teacher(gd_example)
        report = clh(ClosureFromStandard(inner))
        assert frozenset(report.output.implications) == frozenset(
            gd_basis(gd_example).implications
        )
        assert inner.stats.cq == 0 and inner.stats.emq == 0

    @pytest.mark.parametrize(
        "strategy, seed", [("first", None), ("random", 7), ("minimal", None)]
    )
    def test_closure_from_entailment_asks_each_distinct_closure_once(
        self, strategy, seed
    ):
        for n in range(3, 13):
            for formula_seed in range(6):
                target = random_formula(GenConfig(n, 2 * n, seed=formula_seed))
                inner = Teacher(target, strategy=strategy, seed=seed)
                adapter = RecordingClosureFromEntailment(inner)
                report = clh(adapter)
                reference = clh(
                    MemolessClosureFromEntailment(
                        Teacher(target, strategy=strategy, seed=seed)
                    )
                )
                assert report.output.implications == reference.output.implications
                assert trace_key(report) == trace_key(reference)
                assert report.stats.eeq == reference.stats.eeq
                # clh's counterexamples are all negative: seq asks no EMQ
                distinct = set(adapter.asked)
                assert report.stats.emq == sum(
                    n - bin(mask).count("1") for mask in distinct
                )

    @pytest.mark.parametrize("strategy", ["first", "random", "minimal"])
    def test_closure_from_entailment_hands_clh_the_plain_counterexamples(
        self, strategy
    ):
        # eeq picks the gap seq picks, so every simulated seq costs one EEQ
        # and returns the counterexample clh gets from the plain teacher.
        # Nonempty antecedents keep the runs long: with facts in the target
        # most runs end after two SEQs.
        seed = 7 if strategy == "random" else None
        for n in (3, 8, 13, 20, 30):
            for formula_seed in range(4):
                config = GenConfig(n, 2 * n, (1, 3), (1, 2), seed=formula_seed)
                target = random_formula(config)
                plain = clh(Teacher(target, strategy=strategy, seed=seed))
                inner = Teacher(target, strategy=strategy, seed=seed)
                simulated = clh(ClosureFromEntailment(inner))
                assert trace_key(simulated) == trace_key(plain)
                assert simulated.output.implications == plain.output.implications
                assert simulated.stats.eeq == plain.stats.seq

    def test_repeated_closure_query_spends_nothing(self, gd_example):
        inner = Teacher(gd_example)
        adapter = ClosureFromEntailment(inner)
        y = Assignment.from_vars(vs("ad"), 5)
        first = adapter.cq(y)
        before = inner.stats.as_dict()
        again = adapter.cq(Assignment.from_vars(vs("ad"), 5))
        assert again == first and again.ones() == vs("abcde")
        assert inner.stats.as_dict() == before
        assert adapter.adapter_stats.calls == [("cq", {"emq": 3}), ("cq", {})]

    def test_a_call_that_spends_nothing_logs_an_empty_spend(self, gd_example):
        # both calls go through _Adapter._run; neither is a memo hit
        adapter = ClosureFromStandard(Teacher(gd_example))
        y = Assignment.from_vars(vs("ad"), 5)
        assert adapter.cq(y) == adapter.cq(y)
        assert adapter.adapter_stats.calls == [
            ("cq", {"seq": 9, "smq": 11}),
            ("cq", {}),
        ]
        inner = Teacher(gd_example)
        adapter = ClosureFromEntailment(inner)
        assert adapter.smq(Assignment.full(5))  # no variable left to ask about
        assert adapter.adapter_stats.calls == [("smq", {})]
        assert inner.stats == QueryStats()

    def test_memoized_mask_of_the_wrong_length_is_rejected(self, gd_example):
        inner = Teacher(gd_example)
        adapter = ClosureFromEntailment(inner)
        mask = Assignment.from_vars(vs("ad"), 5).mask
        adapter.cq(Assignment(mask, 5))
        before = inner.stats.as_dict()
        with pytest.raises(ArityError, match="assignment length 6 vs arity 5"):
            adapter.cq(Assignment(mask, 6))
        assert inner.stats.as_dict() == before
        assert len(adapter.adapter_stats.calls) == 1

    def test_closure_memo_stays_bounded(self, gd_example, monkeypatch):
        monkeypatch.setattr(core, "CLOSURE_MEMO_LIMIT", 2)
        adapter = ClosureFromEntailment(Teacher(gd_example))
        genuine = Teacher(gd_example)
        masks = list(range(1 << 5)) * 2
        random.Random(3).shuffle(masks)
        for mask in masks:
            y = Assignment(mask, 5)
            assert adapter.cq(y) == genuine.cq(y)
            assert len(adapter._closures) <= 2
        # the memo was cleared and refilled: some repeats asked again
        spent = adapter.adapter_stats.per_call("cq")
        assert sum(1 for s in spent if s.get("emq", 0) > 0) > len(set(masks))

    # sha256 of repr(adapter_stats.calls) on one n=30 target
    @pytest.mark.parametrize(
        "learner, adapter_class, strategy, seed, digest",
        [
            (
                clh, ClosureFromEntailment, "first", None,
                "c9276d0f78ae82dd2d078fb5856a565cb8d3b8000d85ba4aa4d7d12e4df44b19",
            ),
            (
                clh, ClosureFromEntailment, "random", 7,
                "72217728a27d9715eb50766ccd5b8e16a7de6451a88c2da64dc422a100dc1163",
            ),
            (
                afp, StandardFromClosure, "first", None,
                "63f40d4d81cb083408611055900543c0cc9df04022bff72c8b553ebd5a180bc9",
            ),
            (
                afp, StandardFromClosure, "random", 7,
                "183eaa4848543fa12f195af84612709573341dc9d3df6cced2d57aa4c5311b28",
            ),
        ],
    )
    def test_per_call_log_is_pinned(
        self, learner, adapter_class, strategy, seed, digest
    ):
        target = random_formula(GenConfig(30, 90, (1, 3), (1, 2), seed=3))
        inner = Teacher(target, strategy=strategy, seed=seed)
        adapter = adapter_class(inner)
        learner(adapter)
        calls = repr(adapter.adapter_stats.calls).encode()
        assert hashlib.sha256(calls).hexdigest() == digest
        assert_log_adds_up(adapter, inner.stats)

    def test_calls_with_equal_spends_share_one_entry(self, gd_example):
        adapter = StandardFromClosure(Teacher(gd_example))
        afp(adapter)
        calls = adapter.adapter_stats.calls
        assert len({id(e) for e in calls}) == len({repr(e) for e in calls}) < len(calls)
        # a memo hit logs the very entry of a closure query that spent nothing
        adapter = ClosureFromEntailment(Teacher(gd_example))
        top = Assignment.full(5)
        adapter.cq(top)
        adapter.cq(top)
        spent_nothing, memo_hit = adapter.adapter_stats.calls
        assert spent_nothing == ("cq", {}) and memo_hit is spent_nothing
        # entries are the adapter's own, not shared with another adapter
        other = ClosureFromEntailment(Teacher(gd_example))
        other.cq(top)
        assert other.adapter_stats.calls[0] is not spent_nothing

    @pytest.mark.parametrize(
        "learner, adapter_class",
        [
            (clh, ClosureFromEntailment),
            (afp, ClosureFromEntailment),
            (afp, StandardFromClosure),
            (clh, ClosureFromStandard),
        ],
    )
    def test_every_entry_equals_a_fresh_spend(self, learner, adapter_class):
        target = random_formula(GenConfig(12, 36, (1, 3), (1, 2), seed=5))
        inner = Teacher(target, strategy="random", seed=7)
        checked = CheckedAdapter(adapter_class(inner))
        learner(checked)
        assert checked.checked == len(checked.adapter.adapter_stats.calls) > 0

    def test_log_survives_a_pickle_round_trip(self, gd_example):
        adapter = ClosureFromEntailment(Teacher(gd_example, strategy="random", seed=7))
        clh(adapter)
        calls = adapter.adapter_stats.calls
        back = pickle.loads(pickle.dumps(adapter.adapter_stats)).calls
        assert back == calls and repr(back) == repr(calls)
        assert len({id(e) for e in back}) == len({id(e) for e in calls})

    def test_log_costs_a_list_slot_per_call(self, gd_example):
        # after every distinct spend has been logged once, each further
        # call adds only its list slot (8 B and the list's overallocation)
        adapter = ClosureFromEntailment(Teacher(gd_example))
        queries = [Assignment(mask, 5) for mask in range(1 << 5)]
        for y in queries:
            adapter.cq(y)
            adapter.smq(y)
        rounds = 100
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(rounds):
                for y in queries:
                    adapter.cq(y)  # a memo hit
                    adapter.smq(y)  # EMQs through the inner teacher
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        logged = 2 * len(queries) * rounds
        assert logged >= 5000
        assert grown <= 16 * logged

    def test_adapters_expose_inner_counters(self, gd_example):
        inner = Teacher(gd_example)
        adapter = ClosureFromEntailment(inner)
        assert adapter.stats is inner.stats
        assert adapter.arity == 5


class ScriptedTeacher:
    """A 3-variable inner teacher with canned answers, capped at 20 queries
    so that a simulation which never gives up fails instead of hanging."""

    arity = 3

    def __init__(self, seq=None, cq=None, eeq=None, emq=None):
        self.stats = QueryStats()
        self._answers = {"seq": seq, "cq": cq, "eeq": eeq, "emq": emq}

    def _answer(self, op, query):
        setattr(self.stats, op, getattr(self.stats, op) + 1)
        assert sum(self.stats.as_dict().values()) <= 20, "the simulation never gave up"
        return self._answers[op](query)

    def seq(self, hypothesis):
        return self._answer("seq", hypothesis)

    def cq(self, y):
        return self._answer("cq", y)

    def eeq(self, hypothesis):
        return self._answer("eeq", hypothesis)

    def emq(self, clause):
        return self._answer("emq", clause)


class TestDishonestInnerTeacher:
    """Each inner teacher breaks one promise that a simulation can check
    without another inner query; the adapter raises ProtocolError."""

    def test_closure_below_its_query_fails_emq(self):
        inner = ScriptedTeacher(cq=lambda y: Assignment.zero(3))
        with pytest.raises(ProtocolError, match="must lie above its query"):
            EntailmentFromClosure(inner).emq(EntailmentClause(vs("a"), 0))
        assert inner.stats.cq == 1

    @pytest.mark.parametrize("closed", ["011", "1000"])  # beside, wrong length
    def test_closure_not_above_its_query_fails_smq(self, closed):
        inner = ScriptedTeacher(cq=lambda y: asg(closed))
        with pytest.raises(ProtocolError, match="must lie above its query"):
            StandardFromClosure(inner).smq(asg("100"))
        assert inner.stats.cq == 1

    def test_closure_below_the_counterexample_fails_eeq(self):
        inner = ScriptedTeacher(seq=lambda h: asg("110"), cq=lambda y: asg("100"))
        hypothesis = formula(3, ("a", "c"))
        with pytest.raises(ProtocolError, match="must lie above its query"):
            EntailmentFromClosure(inner).eeq(hypothesis)
        assert inner.stats.seq == 1 and inner.stats.cq == 1

    def test_counterexample_that_separates_nothing_fails_eeq(self):
        # `100` is closed under the inner closures and the empty hypothesis
        inner = ScriptedTeacher(seq=lambda h: asg("100"), cq=lambda y: y)
        with pytest.raises(ProtocolError, match="must satisfy exactly one"):
            EntailmentFromClosure(inner).eeq(HornFormula(3, []))
        assert inner.stats.seq == 1 and inner.stats.cq == 1

    def test_counterexample_of_the_wrong_length_fails_eeq(self):
        inner = ScriptedTeacher(seq=lambda h: Assignment(0, 4), cq=lambda y: y)
        with pytest.raises(ProtocolError, match="of length 4; .* must have length 3"):
            EntailmentFromClosure(inner).eeq(HornFormula(3, []))
        assert inner.stats.seq == 1 and inner.stats.cq == 0

    def test_clause_entailed_by_both_sides_fails_seq(self):
        # the hypothesis entails a -> b, and every membership says yes
        inner = ScriptedTeacher(
            eeq=lambda h: EntailmentClause(vs("a"), 1), emq=lambda c: True
        )
        with pytest.raises(ProtocolError, match="entailed by exactly one"):
            ClosureFromEntailment(inner).seq(formula(3, ("a", "b")))
        assert inner.stats.eeq == 1 and inner.stats.emq <= 3

    def test_a_call_that_raises_still_logs_its_spend(self):
        # the target is a -> b; the teacher offers a -> b as a counterexample
        # to a hypothesis that entails it, and answers memberships honestly
        target = formula(3, ("a", "b"))
        inner = ScriptedTeacher(
            eeq=lambda h: EntailmentClause(vs("a"), 1),
            emq=lambda c: entails(target, c),
        )
        adapter = ClosureFromEntailment(inner)
        with pytest.raises(ProtocolError, match="entailed by exactly one"):
            adapter.seq(target)
        assert inner.stats.as_dict() == QueryStats(eeq=1, emq=2).as_dict()
        assert adapter.adapter_stats.calls[-1] == ("seq", {"eeq": 1, "emq": 2})
        assert_log_adds_up(adapter, inner.stats)

    @pytest.mark.parametrize(
        "clause", [EntailmentClause(vs("a"), 9), EntailmentClause({5}, 1)]
    )
    def test_clause_outside_the_arity_fails_seq(self, clause):
        # a head or an antecedent variable beyond the 3 variables
        inner = ScriptedTeacher(eeq=lambda h: clause, emq=lambda c: False)
        with pytest.raises(ProtocolError, match=rf"clause {clause} .* arity 3"):
            ClosureFromEntailment(inner).seq(HornFormula(3, []))
        assert inner.stats.eeq == 1 and inner.stats.emq == 0


class TestLowerBoundDemo:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_exhaustive_needs_all_but_one_ruled_out(self, n):
        report = lower_bound_demo(n)
        assert report.initial_candidates == 2**n - 1
        assert report.queries == 2**n - 2
        # every query below the top leaves exactly one candidate fewer
        assert report.remaining == tuple(range(2**n - 2, 0, -1))

    def test_closure_undetermined_while_two_candidates_remain(self):
        from hornlearn import AdversarialSmqTeacher, family_member

        n = 4
        adversary = AdversarialSmqTeacher(n)
        masks = list(range((1 << n) - 1))
        for mask in masks[:-2]:
            adversary.smq(Assignment(mask, n))
        assert adversary.remaining_candidates == 2
        survivors = [
            Assignment(m, n)
            for m in masks
            if not adversary.is_ruled_out(Assignment(m, n))
        ]
        closures = {
            frozenset(closure(frozenset(), family_member(x))) for x in survivors
        }
        assert len(closures) == 2  # still two possible answers for cq(0^n)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            lower_bound_demo(1)
        with pytest.raises(ValueError):
            lower_bound_demo(17)
