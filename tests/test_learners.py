import random
import zlib

import pytest

from hornlearn import (
    Assignment,
    ClosureFromEntailment,
    GenConfig,
    HornFormula,
    Implication,
    ProtocolError,
    StandardFromClosure,
    Teacher,
    afp,
    clh,
    equivalent,
    gd_basis,
    is_left_saturated,
    random_formula,
    satisfies,
)
from hornlearn.oracles import QueryStats

from helpers import asg, brute_equivalent, brute_model_masks, formula, imp


def random_target(rng, n_lo=3, n_hi=10, m_hi=8):
    n = rng.randint(n_lo, n_hi)
    imps = [
        Implication(
            frozenset(rng.sample(range(n), rng.randint(0, min(3, n)))),
            frozenset(rng.sample(range(n), rng.randint(1, min(3, n)))),
        )
        for _ in range(rng.randint(1, m_hi))
    ]
    return HornFormula(n, imps)


class TestClh:
    def test_trivial_target(self):
        report = clh(Teacher(HornFormula(2, [])))
        assert report.output == HornFormula(2, [])
        assert report.stats.seq == 1
        assert report.stats.cq == 0
        assert report.trace == ()

    def test_single_implication_run(self):
        report = clh(Teacher(formula(2, ("a", "b"))))
        assert report.output.implications == (imp("a", "ab"),)
        assert report.stats.seq == 2
        assert [(e.kind, str(e.counterexample)) for e in report.trace] == [
            ("append", "10")
        ]

    def test_gd_example(self, gd_example):
        report = clh(Teacher(gd_example))
        assert frozenset(report.output.implications) == frozenset(
            gd_basis(gd_example).implications
        )
        assert report.stats.seq <= 5 * 6 + 6 + 1

    @pytest.mark.parametrize("strategy", ["first", "random", "minimal"])
    def test_outputs_canonical_basis(self, strategy):
        rng = random.Random(70)
        for _ in range(40):
            target = random_target(rng)
            seed = rng.randrange(2**32) if strategy == "random" else None
            report = clh(Teacher(target, strategy=strategy, seed=seed))
            assert frozenset(report.output.implications) == frozenset(
                gd_basis(target).implications
            )
            assert brute_equivalent(report.output, target)

    def test_query_bounds_and_trace_invariants(self):
        rng = random.Random(71)
        for _ in range(40):
            target = random_target(rng)
            teacher = Teacher(target)
            report = clh(teacher)
            n = target.arity
            m = len(gd_basis(target))
            assert report.stats.seq <= n * m + m + 1
            assert report.stats.cq <= (m + 1) * (n * m + m + 1)
            assert report.stats.as_dict() == teacher.stats.as_dict()
            appends = [e for e in report.trace if e.kind == "append"]
            assert len(appends) <= m
            from hornlearn import closure

            for event in report.trace:
                assert is_left_saturated(event.hypothesis)
                assert satisfies(event.counterexample, event.hypothesis)
                assert not satisfies(event.counterexample, target)
                # the target entails every hypothesis ever submitted
                for implication in event.hypothesis.implications:
                    assert implication.consequent <= closure(
                        implication.antecedent, target
                    )
            assert is_left_saturated(report.output)

    def test_entries_violate_distinct_implications(self):
        # pairwise witness: a positive z with y_i & y_j <= z <= y_j
        rng = random.Random(72)
        for _ in range(25):
            target = random_target(rng, n_hi=8)
            report = clh(Teacher(target))
            n = target.arity
            entries = [
                Assignment.from_vars(i.antecedent, n)
                for i in report.output.implications
            ]
            positive = brute_model_masks(target)
            for i in range(len(entries)):
                for j in range(i + 1, len(entries)):
                    low = entries[i].mask & entries[j].mask
                    high = entries[j].mask
                    assert any(
                        z & low == low and z & high == z for z in positive
                    ), f"no witness between {entries[i]} and {entries[j]}"

    def test_positive_counterexample_aborts(self):
        class LyingTeacher:
            # answers the first equivalence query with an honest negative
            # counterexample, then repeats it once the hypothesis covers it
            arity = 2

            def __init__(self):
                self.stats = QueryStats()

            def seq(self, hypothesis):
                self.stats.seq += 1
                return asg("10")

            def cq(self, y):
                self.stats.cq += 1
                return Assignment(y.mask | 2, 2)

        with pytest.raises(ProtocolError, match="positive counterexample"):
            clh(LyingTeacher())

    def test_counterexample_equal_to_its_closure_aborts(self):
        # an honest negative counterexample lies strictly below its closure;
        # this teacher repeats one closed assignment, which clh would append
        # as the tautology `a -> a` on every round
        class ClosedCounterexampleTeacher:
            arity = 2

            def __init__(self):
                self.stats = QueryStats()

            def seq(self, hypothesis):
                self.stats.seq += 1
                assert self.stats.seq <= 20, "clh never gave up"
                return asg("10")

            def cq(self, y):
                self.stats.cq += 1
                return y

        with pytest.raises(ProtocolError, match="closure"):
            clh(ClosedCounterexampleTeacher())

    def test_refine_closure_not_above_its_query_aborts(self):
        class BesideClosureTeacher:
            # `110` is appended honestly; `101` then refines it to `100`,
            # whose closure query gets `010`, which does not contain `100`;
            # says YES once out of script
            arity = 3

            def __init__(self):
                self.stats = QueryStats()

            def seq(self, hypothesis):
                self.stats.seq += 1
                script = ["110", "101"]
                if self.stats.seq > len(script):
                    return None
                return asg(script[self.stats.seq - 1])

            def cq(self, y):
                self.stats.cq += 1
                return asg("010") if y == asg("100") else Assignment.full(3)

        teacher = BesideClosureTeacher()
        with pytest.raises(ProtocolError, match="must lie above its query"):
            clh(teacher)
        assert (teacher.stats.seq, teacher.stats.cq) == (2, 2)

    @pytest.mark.parametrize(
        "counterexamples",
        [
            # `100` is appended, and its closure query gets the short answer
            ["100"],
            # `110` is appended honestly, then `100` refines it to `100`,
            # whose closure query gets the short answer
            ["110", "100"],
        ],
    )
    def test_short_closure_answer_raises_protocol_error(self, counterexamples):
        class ShortClosureTeacher:
            # answers the closure of `100` with a two-bit assignment whose
            # mask would also fit three bits; says YES once out of script
            arity = 3

            def __init__(self):
                self.stats = QueryStats()

            def seq(self, hypothesis):
                self.stats.seq += 1
                if self.stats.seq > len(counterexamples):
                    return None
                return asg(counterexamples[self.stats.seq - 1])

            def cq(self, y):
                self.stats.cq += 1
                if y == asg("100"):
                    return Assignment(0b11, 2)
                return Assignment.full(3)

        with pytest.raises(ProtocolError, match="must lie above its query"):
            clh(ShortClosureTeacher())


class TestAfp:
    def test_trivial_target(self):
        report = afp(Teacher(HornFormula(2, [])))
        assert report.stats.seq == 1
        assert report.output == HornFormula(2, [])

    def test_single_implication(self):
        target = formula(2, ("a", "b"))
        report = afp(Teacher(target))
        assert equivalent(report.output, target)

    def test_positive_counterexamples_shrink_consequents(self):
        # over three variables the first guess a -> bc is too strong and a
        # positive counterexample must trim it
        target = formula(3, ("a", "b"))
        report = afp(Teacher(target))
        assert equivalent(report.output, target)
        kinds = [e.kind for e in report.trace]
        assert "positive" in kinds

    def test_gd_example(self, gd_example):
        report = afp(Teacher(gd_example))
        assert equivalent(report.output, gd_example)

    @pytest.mark.parametrize("strategy", ["first", "random", "minimal"])
    def test_learns_equivalent_formulas(self, strategy):
        rng = random.Random(74)
        for _ in range(30):
            target = random_target(rng)
            seed = rng.randrange(2**32) if strategy == "random" else None
            teacher = Teacher(target, strategy=strategy, seed=seed)
            report = afp(teacher)
            assert equivalent(report.output, target)
            assert brute_equivalent(report.output, target)
            assert report.stats.as_dict() == teacher.stats.as_dict()

    @pytest.mark.parametrize(
        "bits, message",
        [
            # `10` is negative in round 1 and appended as `10 -> 01`; repeated
            # in round 2 it falsifies that hypothesis, so it is positive and
            # leaves the entry no consequent
            ("10", "empties the consequent"),
            # no variable lies outside `11`, so it has no consequent to append
            ("11", "no admissible consequent"),
        ],
    )
    def test_repeated_counterexample_aborts(self, bits, message):
        class RepeatingTeacher:
            arity = 2

            def __init__(self):
                self.stats = QueryStats()

            def seq(self, hypothesis):
                self.stats.seq += 1
                assert self.stats.seq <= 20, "afp never gave up"
                return asg(bits)

            def smq(self, x):
                self.stats.smq += 1
                return False

        with pytest.raises(ProtocolError, match=message):
            afp(RepeatingTeacher())


class AfpRoundBound:
    """Passes queries through and asserts `afp`'s round bound at every SEQ:
    the k-th is asked with |N| = len(hypothesis) entries, k <= n(n+1)|N|+1."""

    def __init__(self, inner):
        self.inner, self.arity, self.stats = inner, inner.arity, inner.stats
        self.seqs = 0

    def smq(self, x):
        return self.inner.smq(x)

    def seq(self, hypothesis):
        self.seqs += 1
        n, entries = self.arity, len(hypothesis)
        assert self.seqs <= n * (n + 1) * entries + 1, (self.seqs, n, entries)
        return self.inner.seq(hypothesis)


class CoinFlipTeacher:
    """Answers with no target behind them.  A tenth of the counterexamples
    are random assignments; the rest are "negative": a random assignment
    that satisfies the hypothesis, or YES when 20 draws find none.  A
    membership answer is a coin flip of the teacher's own bias.  YES once
    100 SEQs have been asked."""

    def __init__(self, n, seed):
        self.arity, self.stats = n, QueryStats()
        self._rng = random.Random(seed)
        self._bias = self._rng.random()

    def seq(self, hypothesis):
        self.stats.seq += 1
        n, rng = self.arity, self._rng
        if self.stats.seq > 100:
            return None
        if rng.random() < 0.1:
            return Assignment(rng.getrandbits(n), n)
        for _ in range(20):
            x = Assignment(rng.getrandbits(n), n)
            if satisfies(x, hypothesis):
                return x
        return None

    def smq(self, x):
        self.stats.smq += 1
        return self._rng.random() < self._bias


class TestAfpRoundBound:
    def test_honest_teachers(self):
        rng = random.Random(38)
        for _ in range(500):
            n = rng.randint(1, 14)
            target = random_formula(
                GenConfig(n, rng.randint(0, 4 * n), seed=rng.randrange(2**32))
            )
            for strategy in ("first", "random", "minimal"):
                for simulate in (False, True):
                    teacher = Teacher(target, strategy=strategy, seed=3)
                    if simulate:
                        teacher = StandardFromClosure(teacher)
                    report = afp(AfpRoundBound(teacher))
                    assert equivalent(report.output, target)

    def test_lying_teachers(self):
        rng = random.Random(38)
        outcomes = {"yes": 0, "protocol error": 0}
        for seed in range(2000):
            teacher = CoinFlipTeacher(rng.randint(1, 10), seed)
            try:
                afp(AfpRoundBound(teacher))
                outcomes["yes"] += 1
            except ProtocolError:
                outcomes["protocol error"] += 1
        # the lies end runs both ways, so neither kind of answer is vacuous
        assert min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize(
    "learner",
    [clh, afp, lambda teacher: afp(StandardFromClosure(teacher))],
    ids=["clh", "afp", "afp-closure"],
)
def test_counterexample_of_the_wrong_length_aborts(learner):
    class LongCounterexampleTeacher:
        # a 3-variable teacher whose equivalence answer has 4 bits
        arity = 3

        def __init__(self):
            self.stats = QueryStats()

        def seq(self, hypothesis):
            self.stats.seq += 1
            return Assignment(0, 4)

        def cq(self, y):
            self.stats.cq += 1
            return Assignment.full(3)

        def smq(self, x):
            self.stats.smq += 1
            return False

    teacher = LongCounterexampleTeacher()
    with pytest.raises(ProtocolError, match="of length 4; .* must have length 3"):
        learner(teacher)
    assert teacher.stats.as_dict() == {"seq": 1, "cq": 0, "smq": 0, "emq": 0, "eeq": 0}


GOLDEN_TARGET = GenConfig(12, 24, (1, 3), (1, 2), seed=2)

LEARNERS = {
    "clh": clh,
    "afp": afp,
    "clh-entail": lambda teacher: clh(ClosureFromEntailment(teacher)),
    "afp-closure": lambda teacher: afp(StandardFromClosure(teacher)),
}

# (algorithm, strategy, seed) -> (nonzero query counts, |output|, CRC-32 of
# the counterexample sequence); a "first" teacher ignores its seed
GOLDEN_RUNS = {
    ("clh", "first", None): ({"seq": 16, "cq": 94}, 13, 0x8D502CB8),
    ("afp", "first", None): ({"smq": 78, "seq": 23}, 13, 0x8C967985),
    ("clh-entail", "first", None): ({"emq": 248, "eeq": 16}, 13, 0x8D502CB8),
    ("afp-closure", "first", None): ({"seq": 23, "cq": 78}, 13, 0x8C967985),
    ("clh", "first", 7): ({"seq": 16, "cq": 94}, 13, 0x8D502CB8),
    ("afp", "first", 7): ({"smq": 78, "seq": 23}, 13, 0x8C967985),
    ("clh-entail", "first", 7): ({"emq": 248, "eeq": 16}, 13, 0x8D502CB8),
    ("afp-closure", "first", 7): ({"seq": 23, "cq": 78}, 13, 0x8C967985),
    ("clh", "random", 7): ({"seq": 17, "cq": 101}, 13, 0x465AFFC3),
    ("afp", "random", 7): ({"smq": 73, "seq": 23}, 13, 0x6E50ACA3),
    ("clh-entail", "random", 7): ({"emq": 248, "eeq": 17}, 13, 0x465AFFC3),
    ("afp-closure", "random", 7): ({"seq": 23, "cq": 73}, 13, 0x6E50ACA3),
    ("clh", "minimal", None): ({"seq": 14, "cq": 83}, 13, 0xAD79EBFA),
    ("afp", "minimal", None): ({"smq": 70, "seq": 23}, 13, 0x743EAAC5),
    ("clh-entail", "minimal", None): ({"emq": 248, "eeq": 14}, 13, 0xAD79EBFA),
    ("afp-closure", "minimal", None): ({"seq": 23, "cq": 70}, 13, 0x743EAAC5),
}


@pytest.mark.parametrize("algo, strategy, seed", list(GOLDEN_RUNS))
def test_golden_counterexample_sequence(algo, strategy, seed):
    target = random_formula(GOLDEN_TARGET)
    report = LEARNERS[algo](Teacher(target, strategy=strategy, seed=seed))
    counts = {k: v for k, v in report.stats.as_dict().items() if v}
    sequence = " ".join(str(e.counterexample) for e in report.trace)
    assert (counts, len(report.output), zlib.crc32(sequence.encode())) == (
        GOLDEN_RUNS[algo, strategy, seed]
    )


class QueryRecorder:
    """Forwards everything to `teacher`, keeping each `cq` and `smq` query
    object in order; holding them keeps their ids distinct."""

    def __init__(self, teacher):
        self._teacher = teacher
        self.queries = []

    def __getattr__(self, name):
        return getattr(self._teacher, name)

    def cq(self, y):
        self.queries.append(y)
        return self._teacher.cq(y)

    def smq(self, x):
        self.queries.append(x)
        return self._teacher.smq(x)


# (algorithm, strategy, seed) -> (queries asked, distinct masks, CRC-32 of
# the mask sequence), for cq under clh and smq under afp
QUERY_SEQUENCES = {
    ("clh", "first", None): (94, 25, 0x5BD09268),
    ("clh", "random", 7): (101, 25, 0xDC7D53EA),
    ("clh", "minimal", None): (83, 25, 0x0CE56628),
    ("afp", "first", None): (78, 13, 0xEE9C5599),
    ("afp", "random", 7): (73, 13, 0x2D5B3E61),
    ("afp", "minimal", None): (70, 12, 0xB115F362),
}


@pytest.mark.parametrize("algo, strategy, seed", list(QUERY_SEQUENCES))
def test_one_query_value_per_mask(algo, strategy, seed):
    # a repeated query is the value the run first asked its mask with;
    # every query is still asked, in the same order
    teacher = Teacher(random_formula(GOLDEN_TARGET), strategy=strategy, seed=seed)
    recorder = QueryRecorder(teacher)
    LEARNERS[algo](recorder)
    masks = [q.mask for q in recorder.queries]
    ids = {}
    for q in recorder.queries:
        ids.setdefault(q.mask, set()).add(id(q))
    assert all(len(objects) == 1 for objects in ids.values())
    sequence = " ".join(map(str, masks)).encode()
    assert (len(masks), len(ids), zlib.crc32(sequence)) == (
        QUERY_SEQUENCES[algo, strategy, seed]
    )
    assert len(masks) == teacher.stats.cq + teacher.stats.smq


@pytest.mark.parametrize("algo", list(LEARNERS))
@pytest.mark.parametrize("strategy", ["first", "random", "minimal"])
def test_hypotheses_build_no_closure_memo(algo, strategy):
    # each hypothesis answers one membership question, the sign of its
    # counterexample, so a memo per hypothesis would only be filled
    report = LEARNERS[algo](Teacher(random_formula(GOLDEN_TARGET), strategy, seed=7))
    assert report.trace
    for event in report.trace:
        assert "_closure_cache" not in vars(event.hypothesis)
