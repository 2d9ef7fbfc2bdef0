import random

import pytest

from hornlearn import (
    AdversarialSmqTeacher,
    ArityError,
    Assignment,
    EntailmentClause,
    HornFormula,
    Implication,
    QueryStats,
    Teacher,
    afp,
    clh,
    entails,
    equivalent,
    family_member,
    gd_basis,
    models,
    satisfies,
)

from hornlearn import core, oracles
from hornlearn.generate import GenConfig, random_formula

from helpers import (
    FreshScanTeacher,
    asg,
    augment,
    brute_closure_mask,
    brute_model_masks,
    formula,
    fresh_gap,
    lex_key,
    record_formula,
    vs,
)


def random_pair(rng, n_max=8):
    n = rng.randint(2, n_max)

    def rand_formula(m):
        return HornFormula(
            n,
            [
                Implication(
                    frozenset(rng.sample(range(n), rng.randint(0, 2))),
                    frozenset(rng.sample(range(n), rng.randint(1, 2))),
                )
                for _ in range(m)
            ],
        )

    return rand_formula(rng.randint(1, 6)), rand_formula(rng.randint(0, 4))


class TestConstruction:
    def test_unknown_strategy(self, gd_example):
        with pytest.raises(ValueError):
            Teacher(gd_example, strategy="clever")

    def test_random_needs_seed(self, gd_example):
        with pytest.raises(ValueError):
            Teacher(gd_example, strategy="random")

    def test_arity_is_bound_once(self, gd_example):
        assert vars(Teacher(gd_example))["arity"] == gd_example.arity == 5

    @pytest.mark.parametrize("strategy", ["first", "minimal"])
    @pytest.mark.parametrize("learner", [clh, afp])
    def test_only_random_reads_a_seed(self, learner, strategy):
        for formula_seed in range(1, 6):
            config = GenConfig(20, 60, (1, 4), (1, 2), seed=formula_seed)
            target = random_formula(config)
            seeded = Teacher(target, strategy=strategy, seed=3)
            assert seeded._rng is None
            plain = Teacher(target, strategy=strategy)
            assert _run_digest(learner(seeded)) == _run_digest(learner(plain))
        assert Teacher(target, strategy="random", seed=3)._rng is not None

    @pytest.mark.parametrize("learner", [clh, afp])
    def test_learns_under_minimal(self, learner):
        target = random_formula(GenConfig(14, 40, (1, 4), (1, 2), seed=3))
        report = learner(Teacher(target, strategy="minimal"))
        assert equivalent(report.output, target)
        if learner is clh:
            assert set(report.output._masks) == set(gd_basis(target)._masks)


class TestMembershipAndClosure:
    def test_smq_values(self, gd_example):
        t = Teacher(gd_example)
        assert t.smq(Assignment.full(5))
        assert not t.smq(Assignment.from_vars(vs("e"), 5))
        assert Teacher(HornFormula(3, [])).smq(asg("010"))

    def test_cq_values(self, gd_example):
        t = Teacher(gd_example)
        assert t.cq(Assignment.from_vars(vs("ad"), 5)).ones() == vs("abcde")
        satisfying = Assignment.from_vars(vs("bcd"), 5)
        assert t.cq(satisfying) == satisfying
        t2 = Teacher(formula(4, ("a", "b"), ("a", "c"), ("c", "d")))
        assert t2.cq(Assignment.from_vars(vs("c"), 4)).ones() == vs("cd")

    def test_closed_query_is_its_own_answer(self, gd_example):
        t = Teacher(gd_example)
        for mask in range(1 << 5):
            y = Assignment(mask, 5)
            closed = t.cq(y)
            if t.smq(y):
                assert closed is y
            else:
                assert closed is not y and closed.n == y.n and closed != y

    def test_cq_is_a_fixpoint_above_the_query(self, gd_example):
        t = Teacher(gd_example)
        rng = random.Random(60)
        for _ in range(50):
            y = Assignment(rng.randrange(1 << 5), 5)
            closed = t.cq(y)
            assert y <= closed
            assert t.cq(closed) == closed

    def test_emq_values(self, gd_example):
        t = Teacher(gd_example)
        assert t.emq(EntailmentClause(vs("cd"), 1))  # cd -> b
        assert t.emq(EntailmentClause(vs("ab"), 0))  # head inside antecedent
        assert not t.emq(EntailmentClause(vs("e"), 0))

    def test_counters_and_arity_checks(self, gd_example):
        t = Teacher(gd_example)
        t.smq(Assignment.full(5))
        t.cq(Assignment.zero(5))
        t.emq(EntailmentClause(vs("e"), 3))
        t.seq(HornFormula(5, []))
        t.eeq(HornFormula(5, []))
        assert t.stats.as_dict() == {"smq": 1, "cq": 1, "emq": 1, "seq": 1, "eeq": 1}
        # the field order is the order the CLI prints and the CSV columns
        assert list(QueryStats().as_dict()) == ["seq", "cq", "smq", "emq", "eeq"]
        snapshot = t.stats.copy()
        assert snapshot == t.stats and snapshot is not t.stats
        snapshot.smq += 1
        snapshot.as_dict()["cq"] = 7
        assert t.stats.smq == 1 and snapshot.cq == 1
        with pytest.raises(ArityError):
            t.smq(asg("111"))
        with pytest.raises(ArityError):
            t.seq(HornFormula(4, []))
        # failed queries are not counted
        assert t.stats.smq == 1 and t.stats.seq == 1

    @pytest.mark.parametrize(
        "kind, query, message",
        [
            ("cq", asg("111"), "assignment length 3 vs arity 5"),
            ("cq", asg("1010101"), "assignment length 7 vs arity 5"),
            ("smq", asg("111"), "assignment length 3 vs arity 5"),
            ("smq", asg("000000"), "assignment length 6 vs arity 5"),
            (
                "emq",
                EntailmentClause([1, 7], 0),
                "variable index 7 out of range for arity 5",
            ),
            (
                "emq",
                EntailmentClause([0, 4], 5),
                "variable index 5 out of range for arity 5",
            ),
            (
                "emq",
                EntailmentClause([], 9),
                "variable index 9 out of range for arity 5",
            ),
        ],
    )
    def test_refusals_leave_every_counter(self, gd_example, kind, query, message):
        t = Teacher(gd_example)
        t.cq(Assignment.zero(5))
        t.smq(Assignment.full(5))
        t.emq(EntailmentClause(vs("e"), 3))
        before = t.stats.copy()
        with pytest.raises(ArityError) as refused:
            getattr(t, kind)(query)
        assert str(refused.value) == message
        assert t.stats == before


@pytest.mark.parametrize("seed", [0, 3, 7, 11, 2**40 + 5])
def test_random_pick_by_range_draws_like_a_pick_from_the_list(seed):
    # the "random" strategy draws the k-th gap slot by `choice(range(count))`
    # and answers as `choice(gaps)` on the list of gaps did: the same index
    # and the same generator state after the draw
    for k in range(1, 301):
        by_range, by_list = random.Random(seed), random.Random(seed)
        assert by_range.choice(range(k)) == by_list.choice(list(range(k)))
        assert by_range.getstate() == by_list.getstate()


class TestSeq:
    def test_yes_on_equivalent(self, gd_example):
        rng = random.Random(61)
        t = Teacher(gd_example)
        assert t.seq(gd_basis(gd_example)) is None
        assert t.seq(augment(gd_example, rng)) is None

    def test_negative_counterexample(self):
        t = Teacher(formula(2, ("a", "b")))
        assert t.seq(HornFormula(2, [])) == asg("10")

    def test_positive_counterexample(self):
        t = Teacher(HornFormula(2, []))
        assert t.seq(formula(2, ("a", "b"))) == asg("10")

    @pytest.mark.parametrize("strategy", ["first", "random", "minimal"])
    def test_counterexamples_separate_exactly_one_side(self, strategy):
        rng = random.Random(62)
        for _ in range(120):
            target, hypothesis = random_pair(rng)
            seed = rng.randrange(2**32) if strategy == "random" else None
            t = Teacher(target, strategy=strategy, seed=seed)
            x = t.seq(hypothesis)
            if x is None:
                assert equivalent(target, hypothesis)
            else:
                assert satisfies(x, target) != satisfies(x, hypothesis)

    def test_negative_preferred_when_both_exist(self):
        rng = random.Random(63)
        for _ in range(100):
            target, hypothesis = random_pair(rng)
            t = Teacher(target)
            x = t.seq(hypothesis)
            if x is None:
                continue
            both_sides = any(
                satisfies(Assignment(m, target.arity), hypothesis)
                and not satisfies(Assignment(m, target.arity), target)
                for m in range(1 << target.arity)
            )
            if both_sides:
                assert satisfies(x, hypothesis)

    def test_random_strategy_reproducible(self, gd_example):
        h = HornFormula(5, [])
        a = Teacher(gd_example, strategy="random", seed=99).seq(h)
        b = Teacher(gd_example, strategy="random", seed=99).seq(h)
        assert a == b

    def test_minimal_matches_brute_force(self):
        rng = random.Random(64)
        for _ in range(150):
            target, hypothesis = random_pair(rng, n_max=7)
            t = Teacher(target, strategy="minimal")
            got = t.seq(hypothesis)
            want = self._brute_minimal(target, hypothesis)
            assert got == want

    @staticmethod
    def _brute_minimal(target, hypothesis):
        n = target.arity
        negatives, positives = [], []
        for mask in range(1 << n):
            x = Assignment(mask, n)
            on_target = satisfies(x, target)
            on_hyp = satisfies(x, hypothesis)
            if on_hyp and not on_target:
                negatives.append(mask)
            elif on_target and not on_hyp:
                positives.append(mask)
        pool = negatives or positives
        if not pool:
            return None
        best = min(pool, key=lambda m: (bin(m).count("1"), lex_key(m, n)))
        return Assignment(best, n)


class TestEeq:
    def test_yes_on_equivalent(self, gd_example):
        assert Teacher(gd_example).eeq(gd_basis(gd_example)) is None

    def test_clause_entailed_by_target_only(self):
        t = Teacher(formula(2, ("a", "b")))
        assert t.eeq(HornFormula(2, [])) == EntailmentClause(vs("a"), 1)

    def test_clause_entailed_by_hypothesis_only(self):
        t = Teacher(HornFormula(2, []))
        assert t.eeq(formula(2, ("a", "b"))) == EntailmentClause(vs("a"), 1)

    @pytest.mark.parametrize("strategy", ["first", "random", "minimal"])
    def test_clauses_entailed_by_exactly_one_side(self, strategy):
        rng = random.Random(65)
        for _ in range(120):
            target, hypothesis = random_pair(rng)
            seed = rng.randrange(2**32) if strategy == "random" else None
            t = Teacher(target, strategy=strategy, seed=seed)
            clause = t.eeq(hypothesis)
            if clause is None:
                assert equivalent(target, hypothesis)
            else:
                assert entails(target, clause) != entails(hypothesis, clause)

    @pytest.mark.parametrize("strategy", ["first", "random", "minimal"])
    def test_negative_clause_whenever_the_hypothesis_misses_one(self, strategy):
        # the target entails a clause the hypothesis does not iff the
        # hypothesis misses a target implication; eeq then answers with one
        rng = random.Random(66)
        for _ in range(200):
            target, hypothesis = random_pair(rng, n_max=10)
            seed = rng.randrange(2**32) if strategy == "random" else None
            clause = Teacher(target, strategy=strategy, seed=seed).eeq(hypothesis)
            if any(c & ~hypothesis.close(a) for a, c in target._masks):
                assert entails(target, clause) and not entails(hypothesis, clause)

    @pytest.mark.parametrize("strategy", ["first", "random", "minimal"])
    def test_states_the_seq_counterexample_with_its_lowest_head(self, strategy):
        # a twin teacher asked seq on the same hypotheses answers w; eeq
        # answers with the antecedent of an implication whose gap w is, on
        # the side w falls on, and the lowest variable of that gap as head
        rng = random.Random(69)
        for _ in range(12):
            n = rng.randint(3, 12)
            target = random_formula(GenConfig(n, 2 * n, seed=rng.randrange(2**32)))
            seed = 23 if strategy == "random" else None
            by_eeq = Teacher(target, strategy=strategy, seed=seed)
            by_seq = Teacher(target, strategy=strategy, seed=seed)
            pairs, history = [], [[]]
            for _ in range(60):
                pairs = _mutate(rng, pairs, history, target)
                history.append(pairs)
                h = HornFormula._of(n, pairs)
                clause, x = by_eeq.eeq(h), by_seq.seq(h)
                if x is None:
                    assert clause is None
                    continue
                if satisfies(x, h):
                    side = core._gaps(record_formula(target, strategy), h)
                else:
                    side = core._gaps(h, target)
                stated = {
                    EntailmentClause._of(a, (gap & -gap).bit_length() - 1)
                    for a, w, gap in side
                    if w == x.mask
                }
                assert clause in stated


def _mask_pair(rng, n, heads=None):
    """A random (antecedent, consequent) mask pair; the consequent is drawn
    from the variable list `heads`, by default from all n variables."""
    heads = heads or range(n)
    a = sum(1 << v for v in rng.sample(range(n), rng.randint(0, min(3, n))))
    c = sum(1 << v for v in rng.sample(heads, rng.randint(1, min(2, len(heads)))))
    return a, c


def _candidate_pair(rng, target):
    """A target implication, one the target entails, or a random one."""
    n = target.arity
    roll = rng.random()
    if roll < 0.4:
        return rng.choice(target._masks)
    a, c = _mask_pair(rng, n)
    closed = [v for v in range(n) if target.close(a) >> v & 1]
    if roll < 0.7 and closed:
        c = _mask_pair(rng, n, closed)[1]
    return a, c


def _mutate(rng, pairs, history, target):
    """The next hypothesis: an append, a deleted entry, an antecedent shrunk
    or grown, a consequent shrunk, or an exact repeat of an earlier one."""
    n = target.arity
    kind = rng.choice(("append", "delete", "shrink_a", "grow_a", "shrink_c", "repeat"))
    if kind == "repeat":
        return list(rng.choice(history))
    pairs = list(pairs)
    if kind == "append" or not pairs:
        pairs.insert(rng.randint(0, len(pairs)), _candidate_pair(rng, target))
        return pairs
    i = rng.randrange(len(pairs))
    a, c = pairs[i]
    bit = 1 << rng.randrange(n)
    if kind == "delete":
        del pairs[i]
    elif kind == "shrink_a":
        pairs[i] = (a & ~bit, c)
    elif kind == "grow_a":
        pairs[i] = (a | bit, c)
    elif c & ~bit:
        pairs[i] = (a, c & ~bit)
    return pairs


class TestLongLivedTeacher:
    """One teacher answers a long, non-monotone run of hypotheses; each
    answer must equal the one recomputed from scratch for that hypothesis."""

    _fresh_gap = staticmethod(fresh_gap)

    @pytest.mark.parametrize("strategy", ["first", "random", "minimal"])
    def test_answers_equal_a_fresh_scan(self, strategy):
        rng = random.Random(67)
        for _ in range(12):
            n = rng.randint(2, 8)
            m = rng.randint(2, 10)
            target = HornFormula._of(n, [_mask_pair(rng, n) for _ in range(m)])
            seed = 17 if strategy == "random" else None
            teacher = Teacher(target, strategy=strategy, seed=seed)
            replay = random.Random(seed)
            pairs, history = [], [[]]
            for _ in range(240):
                pairs = _mutate(rng, pairs, history, target)
                history.append(pairs)
                h = HornFormula._of(n, pairs)

                found = self._fresh_gap(target, h, strategy, replay)
                want = None if found is None else Assignment(found[1], n)
                assert teacher.seq(h) == want

                found = self._fresh_gap(target, h, strategy, replay)
                want = None
                if found is not None:
                    a, _, gap = found
                    heads = [v for v in range(n) if gap >> v & 1]
                    want = EntailmentClause._of(a, heads[0])
                assert teacher.eeq(h) == want

            _assert_bounded_records(teacher, h)

    @pytest.mark.parametrize("strategy", ["first", "random", "minimal"])
    def test_resumed_slots_answer_like_a_fresh_scan(self, strategy):
        # one seq per hypothesis, so a gap record is kept or re-derived
        # across every change.  Arities up to 20 make chains several passes
        # deep.
        rng = random.Random(68)
        for _ in range(10):
            n = rng.randint(10, 20)
            target = random_formula(GenConfig(n, 2 * n, seed=rng.randrange(2**32)))
            seed = 19 if strategy == "random" else None
            teacher = Teacher(target, strategy=strategy, seed=seed)
            replay = random.Random(seed)
            pairs, history = [], [[]]
            for _ in range(300):
                pairs = _mutate(rng, pairs, history, target)
                history.append(pairs)
                h = HornFormula._of(n, pairs)
                found = self._fresh_gap(target, h, strategy, replay)
                want = None if found is None else Assignment(found[1], n)
                assert teacher.seq(h) == want

            _assert_bounded_records(teacher, h)

    @pytest.mark.parametrize(
        "strategy, seed", [("first", None), ("random", 7), ("minimal", None)]
    )
    def test_first_answer_on_the_empty_hypothesis_derives_nothing(
        self, monkeypatch, strategy, seed
    ):
        # a new teacher's records are the derivations under the empty
        # hypothesis, which every learner asks first
        calls = []
        derive = oracles._derive
        monkeypatch.setattr(
            oracles, "_derive", lambda *args: calls.append(args) or derive(*args)
        )
        target = random_formula(GenConfig(12, 48, (1, 4), (1, 2), seed=3))
        empty = HornFormula(target.arity, [])
        for query in ["seq", "eeq"]:
            teacher = Teacher(target, strategy=strategy, seed=seed)
            plain = FreshScanTeacher(target, strategy=strategy, seed=seed)
            got = getattr(teacher, query)(empty)
            assert got is not None and got == getattr(plain, query)(empty)
            _assert_bounded_records(teacher, empty)
        assert calls == []

    @pytest.mark.parametrize(
        "strategy, seed", [("first", None), ("random", 7), ("minimal", None)]
    )
    @pytest.mark.parametrize("learner", [clh, afp])
    def test_whole_runs_match_a_teacher_without_slots(self, learner, strategy, seed):
        for formula_seed in (1, 2):
            config = GenConfig(60, 240, (1, 4), (1, 2), seed=formula_seed)
            target = random_formula(config)
            plain = FreshScanTeacher(target, strategy=strategy, seed=seed)
            got = _run_digest(learner(Teacher(target, strategy=strategy, seed=seed)))
            assert got == _run_digest(learner(plain))


def _run_digest(report):
    """A whole run: its output, its counters and every round of its trace."""
    trace = [
        (e.kind, e.index, e.hypothesis._masks, e.counterexample.mask)
        for e in report.trace
    ]
    return report.output._masks, report.stats, trace


def _assert_bounded_records(teacher, last):
    """The slot records' invariants after the hypothesis `last`: one record
    per implication of the formula they index (`record_formula`), each pair
    of its `used` a pair of `last` that added a bit, chaining `a` over `used`
    reaches `w`, a gap record's `w` is the closure of `a` under `last`, and
    the slot masks are the ones rebuilt from the records."""
    target = record_formula(teacher.target, teacher.strategy)
    assert len(teacher._w) == len(teacher._used) == len(target)
    have = set(last._masks)
    gapbits, cols, users = 0, [0] * target.arity, {}
    for j, ((a, c), w, used) in enumerate(
        zip(target._masks, teacher._w, teacher._used)
    ):
        assert len(used) <= (w & ~a).bit_count()
        assert set(used) <= have
        assert core._chain(a, used) == w
        for pair in used:
            users[pair] = users.get(pair, 0) | 1 << j
        if c & ~w:
            assert w == last.close(a)
            gapbits |= 1 << j
            for v in range(target.arity):
                if w >> v & 1:
                    cols[v] |= 1 << j
    assert teacher._gapbits == gapbits
    assert teacher._cols == cols
    assert teacher._users.keys() <= have
    assert {p: u for p, u in teacher._users.items() if u} == users


class TestMembershipMemo:
    def test_long_lived_teacher_answers_membership_across_memo_clears(
        self, monkeypatch
    ):
        monkeypatch.setattr(core, "CLOSURE_MEMO_LIMIT", 8)
        target = random_formula(GenConfig(8, 14, seed=5))
        n = target.arity
        is_model = set(brute_model_masks(target))
        teacher = Teacher(target)
        memo = teacher._basis._closure_cache  # the formula the teacher closes through
        rng = random.Random(71)
        masks = list(range(1 << n))
        asked = clears = 0
        for _ in range(2):
            rng.shuffle(masks)
            for mask in masks:
                x = Assignment(mask, n)
                before = len(memo)
                assert teacher.smq(x) == (mask in is_model)
                asked += 1
                assert teacher.stats.smq == asked
                closed = brute_closure_mask(mask, target)
                if rng.random() < 0.5:
                    assert teacher.cq(x).mask == closed
                head = rng.randrange(n)
                clause = EntailmentClause._of(mask, head)
                assert teacher.emq(clause) == bool(closed >> head & 1)
                clears += len(memo) < before
                assert len(memo) <= 8
        assert asked == 2 << n and clears > 0
        assert teacher.stats.emq == asked


def _awkward_targets():
    rng = random.Random(72)
    base = random_formula(GenConfig(6, 8, seed=9))
    return {
        "no-variables": HornFormula(0, []),
        "no-implications": HornFormula(4, []),
        "duplicates": formula(4, ("a", "b"), ("b", "c"), ("a", "b"), ("b", "c")),
        "consequent-inside-antecedent": formula(
            4, ("ab", "a"), ("bc", "bc"), ("c", "d"), ("abd", "b")
        ),
        "unsaturated-redundant": augment(base, rng, extra=6),
    }


class TestBasisBackedTeacher:
    """The teacher closes through the target's GD basis; on awkward targets
    its answers must still be the target's, and the target's memo unused."""

    @pytest.mark.parametrize("name", sorted(_awkward_targets()))
    def test_answers_match_brute_force(self, name):
        target = _awkward_targets()[name]
        n = target.arity
        is_model = set(brute_model_masks(target))
        teacher = Teacher(target)
        for mask in range(1 << n):
            x = Assignment(mask, n)
            closed = brute_closure_mask(mask, target)
            assert teacher.cq(x).mask == closed
            assert teacher.smq(x) == (mask in is_model)
            for head in range(n):
                clause = EntailmentClause._of(mask, head)
                assert teacher.emq(clause) == bool(closed >> head & 1)

    @pytest.mark.parametrize("name", sorted(_awkward_targets()))
    def test_equivalent_copies_answer_alike(self, name):
        target = _awkward_targets()[name]
        n = target.arity
        rng = random.Random(73)
        shuffled = list(target.implications)
        rng.shuffle(shuffled)
        copies = [HornFormula(n, shuffled), augment(target, rng)]
        teachers = [Teacher(f) for f in [target] + copies]
        for mask in range(1 << n):
            x = Assignment(mask, n)
            clauses = [EntailmentClause._of(mask, head) for head in range(n)]
            want = teachers[0].cq(x), teachers[0].smq(x)
            want_emq = [teachers[0].emq(c) for c in clauses]
            for teacher in teachers[1:]:
                assert (teacher.cq(x), teacher.smq(x)) == want
                assert [teacher.emq(c) for c in clauses] == want_emq

    @pytest.mark.parametrize("strategy, seed", [("random", 7), ("minimal", None)])
    @pytest.mark.parametrize("learner", [clh, afp])
    def test_runs_do_not_depend_on_the_target_beyond_its_basis(
        self, learner, strategy, seed
    ):
        # under "random" and "minimal" the slot records follow the basis, so
        # a target and its basis teach alike; "first" follows the target's
        # list order and may differ
        for formula_seed in range(1, 9):
            config = GenConfig(30, 120, (1, 4), (1, 2), seed=formula_seed)
            target = random_formula(config)
            runs = [
                _run_digest(learner(Teacher(f, strategy=strategy, seed=seed)))
                for f in (target, gd_basis(target))
            ]
            assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", sorted(_awkward_targets()))
    def test_learning_leaves_the_target_memo_empty(self, name):
        target = _awkward_targets()[name]
        outputs = [learner(Teacher(target)).output for learner in (clh, afp)]
        assert target._closure_cache == {}
        assert all(equivalent(output, target) for output in outputs)


class TestAdversary:
    def test_initial_candidate_count(self):
        assert AdversarialSmqTeacher(3).remaining_candidates == 7
        assert AdversarialSmqTeacher(2).remaining_candidates == 3
        with pytest.raises(ValueError, match="at least one variable"):
            AdversarialSmqTeacher(0)

    def test_initial_count_is_bound_once(self):
        adversary = AdversarialSmqTeacher(3)
        adversary.smq(asg("010"))
        assert vars(adversary)["initial_candidates"] == 7
        assert adversary.remaining_candidates == 6

    def test_top_query_is_positive_and_free(self):
        adversary = AdversarialSmqTeacher(3)
        assert adversary.smq(Assignment.full(3))
        assert adversary.remaining_candidates == 7

    def test_each_new_query_rules_out_one(self):
        adversary = AdversarialSmqTeacher(3)
        x = asg("010")
        assert not adversary.smq(x)
        assert adversary.remaining_candidates == 6
        assert not adversary.smq(x)  # repeats rule out nothing further
        assert adversary.remaining_candidates == 6

    def test_lower_bound_invariant(self):
        rng = random.Random(67)
        n = 6
        adversary = AdversarialSmqTeacher(n)
        for _ in range(40):
            adversary.smq(Assignment(rng.randrange(1 << n), n))
            assert (
                adversary.remaining_candidates
                >= (1 << n) - 1 - adversary.queries
            )


class TestFamilyMember:
    def test_two_variable_member(self):
        f = family_member(asg("10"))
        assert f.implications == (
            Implication(frozenset(), {0}),
            Implication({1}, {0, 1}),
        )
        assert [str(m) for m in models(f)] == ["10", "11"]

    def test_bottom_member(self):
        f = family_member(Assignment.zero(3))
        assert [str(m) for m in models(f)] == ["000", "111"]

    def test_three_variable_member(self):
        f = family_member(asg("110"))
        assert [str(m) for m in models(f)] == ["110", "111"]

    def test_top_rejected(self):
        with pytest.raises(ValueError):
            family_member(Assignment.full(4))

    def test_distinct_members_answer_bottom_closure_differently(self):
        f1 = family_member(asg("100"))
        f2 = family_member(asg("010"))
        zero = frozenset()
        from hornlearn import closure

        assert closure(zero, f1) != closure(zero, f2)
