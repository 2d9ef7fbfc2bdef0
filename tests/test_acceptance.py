"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
shared corpus of seeded random learning runs is built once per module.
"""

import itertools
import random
import time
from dataclasses import dataclass

import pytest

from hornlearn import (
    Assignment,
    ClosureFromEntailment,
    ClosureFromStandard,
    EntailmentClause,
    EntailmentFromClosure,
    GenConfig,
    HornFormula,
    Implication,
    StandardFromClosure,
    Teacher,
    afp,
    clh,
    closure,
    cq_from_emq,
    emq_from_cq,
    eeq_from_seq_cq,
    entails,
    equivalent,
    gd_basis,
    is_intersection_closed,
    is_left_saturated,
    lower_bound_demo,
    models,
    quasi_closure,
    satisfies,
    seq_from_eeq_emq,
    smq_from_cq,
    smq_from_emq,
)
from hornlearn.generate import example_corpus, random_formula

from helpers import augment, model_table, superset_meets, vs

CORPUS_SEED = 20260810
CORPUS_SIZE = 500
BRUTE_ARITY_LIMIT = 12


def _report(number: int, ok: bool, label: str) -> None:
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {label}")


@dataclass
class Run:
    target: HornFormula
    basis: HornFormula
    n: int
    m: int  # implication count of the canonical basis
    strategy: str
    report: object


@pytest.fixture(scope="module")
def corpus_runs():
    """The criterion-3 corpus: 500 seeded targets, each learned under every
    strategy."""
    rng = random.Random(CORPUS_SEED)
    runs = []
    targets = []
    started = time.perf_counter()
    for _ in range(CORPUS_SIZE):
        n = rng.randint(3, 16)
        count = rng.randint(1, 12)
        target = random_formula(GenConfig(n, count, seed=rng.randrange(2**32)))
        basis = gd_basis(target)
        targets.append((target, basis))
        jobs = [("first", None), ("random", rng.randrange(2**32)), ("minimal", None)]
        for strategy, seed in jobs:
            teacher = Teacher(target, strategy=strategy, seed=seed)
            report = clh(teacher)
            runs.append(Run(target, basis, n, len(basis), strategy, report))
    elapsed = time.perf_counter() - started
    return runs, targets, elapsed


def test_criterion_01_gd_example_closure_classes(gd_example):
    expected = [vs("de"), vs("bcd"), vs("bcd"), vs("bcd"), vs("abcde"), vs("abcde")]
    gd_example.close(0)  # build the mask table outside the timed region
    started = time.perf_counter()
    got = [closure(i.antecedent, gd_example) for i in gd_example.implications]
    elapsed = time.perf_counter() - started
    ok = got == expected and elapsed < 1e-3
    _report(1, ok, f"worked-example closure classes ({elapsed * 1e6:.0f} us)")
    assert got == expected
    assert elapsed < 1e-3


def test_criterion_02_bullet_example(bullet_example):
    star = closure(vs("ac"), bullet_example)
    bullet = quasi_closure(vs("ac"), bullet_example)
    ok = star == vs("abcd") and bullet == vs("acd")
    _report(2, ok, "closure vs quasi-closure on the three-implication example")
    assert star == vs("abcd")
    assert bullet == vs("acd")


def test_criterion_03_clh_learns_the_canonical_basis(corpus_runs):
    runs, targets, elapsed = corpus_runs
    started = time.perf_counter()
    mismatches = 0
    for run in runs:
        if frozenset(run.report.output.implications) != frozenset(
            run.basis.implications
        ):
            mismatches += 1
    brute_failures = 0
    for target, basis in targets:
        if target.arity <= BRUTE_ARITY_LIMIT:
            if model_table(target) != model_table(basis):
                brute_failures += 1
    total = elapsed + time.perf_counter() - started
    ok = mismatches == 0 and brute_failures == 0 and total < 60 and len(runs) >= 1000
    _report(
        3,
        ok,
        f"{len(runs)} runs over {len(targets)} targets, {total:.1f}s, "
        f"{mismatches} output mismatches, {brute_failures} brute-force failures",
    )
    assert mismatches == 0
    assert brute_failures == 0
    assert len(targets) >= 500
    assert total < 60


def test_criterion_15_afp_learns_the_canonical_basis(corpus_runs):
    """`afp` outputs the GD basis, each consequent without its antecedent,
    whatever counterexamples it gets (Arias & Balcazar, Machine Learning,
    2011): on the criterion-3 targets, under every strategy, directly and
    over the closure-query simulation."""
    _, targets, _ = corpus_runs
    rng = random.Random(CORPUS_SEED + 15)
    started = time.perf_counter()
    runs = mismatches = 0
    for target, basis in targets:
        want = set(basis._masks)
        jobs = [("first", None), ("random", rng.randrange(2**32)), ("minimal", None)]
        for strategy, seed in jobs:
            for wrap in (lambda t: t, StandardFromClosure):
                report = afp(wrap(Teacher(target, strategy=strategy, seed=seed)))
                runs += 1
                if {(a, a | c) for a, c in report.output._masks} != want:
                    mismatches += 1
    total = time.perf_counter() - started
    ok = mismatches == 0 and total < 60
    _report(
        15,
        ok,
        f"{runs} afp runs over {len(targets)} targets, {total:.1f}s, "
        f"{mismatches} outputs other than the canonical basis",
    )
    assert mismatches == 0
    assert runs >= 3000
    assert total < 60


def test_criterion_04_query_ceilings(corpus_runs):
    runs, _, _ = corpus_runs
    violations = []
    for run in runs:
        seq_cap = run.n * run.m + run.m + 1
        cq_cap = (run.m + 1) * seq_cap
        if run.report.stats.seq > seq_cap or run.report.stats.cq > cq_cap:
            violations.append(run)
    ok = not violations
    _report(4, ok, f"seq <= nm+m+1 and cq <= (m+1)(nm+m+1) on {len(runs)} runs")
    assert not violations


def test_criterion_05_hypotheses_left_saturated(corpus_runs):
    runs, _, _ = corpus_runs
    bad = 0
    for run in runs:
        for event in run.report.trace:
            if not is_left_saturated(event.hypothesis):
                bad += 1
        if not is_left_saturated(run.report.output):
            bad += 1
    ok = bad == 0
    _report(5, ok, "every submitted hypothesis is left-saturated")
    assert bad == 0


def test_criterion_06_counterexamples_always_negative(corpus_runs):
    runs, _, _ = corpus_runs
    bad = 0
    for run in runs:
        for event in run.report.trace:
            x = event.counterexample
            if not satisfies(x, event.hypothesis) or satisfies(x, run.target):
                bad += 1
    ok = bad == 0
    _report(6, ok, "every counterexample satisfies the hypothesis, not the target")
    assert bad == 0


def test_criterion_07_closure_operator_laws():
    rng = random.Random(CORPUS_SEED + 7)
    failures = 0
    for _ in range(2000):
        n = rng.randint(2, 12)
        f = random_formula(GenConfig(n, rng.randint(0, 10), seed=rng.randrange(2**32)))
        alpha = frozenset(rng.sample(range(n), rng.randint(0, n)))
        closed = closure(alpha, f)
        if not alpha <= closed:
            failures += 1
        if closure(closed, f) != closed:
            failures += 1
        beta = closed | frozenset(rng.sample(range(n), rng.randint(0, n)))
        if not closure(alpha, f) <= closure(beta, f):
            failures += 1
        if closure(alpha, augment(f, rng)) != closed:
            failures += 1
    # meet-of-models characterization, exhaustive over the hypercube
    meet_checked = 0
    exhaustive = [example_corpus()["gd-example"], example_corpus()["bullet-example"]]
    for seed in (1, 2, 3):
        exhaustive.append(random_formula(GenConfig(10, 8, seed=seed)))
    for f in exhaustive:
        n = f.arity
        meets = superset_meets([m.mask for m in models(f)], n)
        for mask in range(1 << n):
            back = Assignment.from_vars(
                closure(Assignment(mask, n).ones(), f), n
            ).mask
            if meets[mask] != back:
                failures += 1
            meet_checked += 1
    ok = failures == 0
    _report(
        7,
        ok,
        f"closure laws on 2000 random cases; meet characterization on "
        f"{meet_checked} exhaustive points",
    )
    assert failures == 0


def test_criterion_08_models_intersection_closed():
    rng = random.Random(CORPUS_SEED + 8)
    failures = 0
    for _ in range(200):
        n = rng.randint(2, 12)
        f = random_formula(GenConfig(n, rng.randint(1, 12), seed=rng.randrange(2**32)))
        sat = models(f)
        if not is_intersection_closed(sat):
            failures += 1
        if Assignment.full(n) not in sat:
            failures += 1
    ok = failures == 0
    _report(8, ok, "200 random model sets are meet-closed and contain the top")
    assert failures == 0


def test_criterion_09_basis_uniqueness_and_minimality():
    rng = random.Random(CORPUS_SEED + 9)
    uniqueness_failures = 0
    for _ in range(200):
        n = rng.randint(2, 10)
        f = random_formula(GenConfig(n, rng.randint(1, 8), seed=rng.randrange(2**32)))
        g = augment(f, rng, extra=rng.randint(1, 4))
        if frozenset(gd_basis(f).implications) != frozenset(gd_basis(g).implications):
            uniqueness_failures += 1

    # exhaustive minimality: every formula with arity <= 4 and at most 3
    # implications (consequents disjoint from antecedents cover all semantics)
    minimality_failures = 0
    checked = 0
    for n in (2, 3, 4):
        pool = []
        for ant_mask in range(1 << n):
            free = [v for v in range(n) if not ant_mask >> v & 1]
            ant = frozenset(v for v in range(n) if ant_mask >> v & 1)
            for k in range(1, len(free) + 1):
                for con in itertools.combinations(free, k):
                    pool.append(Implication(ant, frozenset(con)))
        for m in (1, 2, 3):
            for combo in itertools.combinations(range(len(pool)), m):
                f = HornFormula(n, [pool[i] for i in combo])
                if not _no_smaller_equivalent(f):
                    minimality_failures += 1
                checked += 1
    ok = uniqueness_failures == 0 and minimality_failures == 0
    _report(
        9,
        ok,
        f"200 equivalent pairs agree; no smaller basis among {checked} "
        f"exhaustive formulas",
    )
    assert uniqueness_failures == 0
    assert minimality_failures == 0


def _no_smaller_equivalent(f: HornFormula) -> bool:
    """Brute-force check that no equivalent implication set is smaller than
    the canonical basis of f.

    Candidates can be restricted to right-saturated implications with
    non-closed antecedents: right-saturating any equivalent formula keeps
    its size and equivalence, and closed antecedents yield droppable
    tautologies.
    """
    n = f.arity
    k = len(gd_basis(f))
    if k == 0:
        return True
    target_table = model_table(f)
    candidates = []
    for ant_mask in range(1 << n):
        closed = f.close(ant_mask)
        if closed != ant_mask:
            candidates.append(
                HornFormula(
                    n,
                    [
                        Implication(
                            frozenset(v for v in range(n) if ant_mask >> v & 1),
                            frozenset(v for v in range(n) if closed >> v & 1),
                        )
                    ],
                )
            )
    tables = [model_table(c) for c in candidates]
    full = (1 << (1 << n)) - 1
    for size in range(k):
        for combo in itertools.combinations(range(len(tables)), size):
            table = full
            for i in combo:
                table &= tables[i]
            if table == target_table:
                return False
    return True


def test_criterion_10_adapter_exactness_and_budgets():
    rng = random.Random(CORPUS_SEED + 10)
    failures = 0
    for _ in range(50):
        n = rng.randint(2, 6)
        target = random_formula(GenConfig(n, rng.randint(1, 8), seed=rng.randrange(2**32)))
        genuine = Teacher(target)
        emq_side = Teacher(target)
        cq_side = Teacher(target)
        for mask in range(1 << n):
            x = Assignment(mask, n)
            before = emq_side.stats.emq
            if cq_from_emq(emq_side, x) != genuine.cq(x):
                failures += 1
            if emq_side.stats.emq - before > n:
                failures += 1
            before = emq_side.stats.emq
            if smq_from_emq(emq_side, x) != genuine.smq(x):
                failures += 1
            if emq_side.stats.emq - before > n:
                failures += 1
            before = cq_side.stats.cq
            if smq_from_cq(cq_side, x) != genuine.smq(x):
                failures += 1
            if cq_side.stats.cq - before != 1:
                failures += 1
            for head in range(n):
                clause = EntailmentClause(x.ones(), head)
                before = cq_side.stats.cq
                if emq_from_cq(cq_side, clause) != genuine.emq(clause):
                    failures += 1
                if cq_side.stats.cq - before != 1:
                    failures += 1
        # formula-shaped queries on a spread of hypotheses
        hypotheses = [
            HornFormula(n, []),
            target,
            gd_basis(target),
            augment(target, rng),
            random_formula(GenConfig(n, 3, seed=rng.randrange(2**32))),
        ]
        for hypothesis in hypotheses:
            is_eq = equivalent(target, hypothesis)

            teacher = Teacher(target)
            x = seq_from_eeq_emq(teacher, hypothesis)
            if (x is None) != is_eq:
                failures += 1
            if teacher.stats.eeq != 1 or teacher.stats.emq > n:
                failures += 1
            if x is not None:
                if satisfies(x, target) == satisfies(x, hypothesis):
                    failures += 1

            teacher = Teacher(target)
            clause = eeq_from_seq_cq(teacher, hypothesis)
            if (clause is None) != is_eq:
                failures += 1
            if teacher.stats.seq != 1 or teacher.stats.cq > 1:
                failures += 1
            if clause is not None:
                if entails(target, clause) == entails(hypothesis, clause):
                    failures += 1
    ok = failures == 0
    _report(10, ok, "adapters exact and within their per-call query ceilings")
    assert failures == 0


def test_criterion_11_end_to_end_reductions():
    rng = random.Random(CORPUS_SEED + 11)
    entail_failures = 0
    for _ in range(200):
        n = rng.randint(3, 16)
        target = random_formula(GenConfig(n, rng.randint(1, 10), seed=rng.randrange(2**32)))
        basis = gd_basis(target)
        report = clh(ClosureFromEntailment(Teacher(target)))
        if frozenset(report.output.implications) != frozenset(basis.implications):
            entail_failures += 1
        if n <= BRUTE_ARITY_LIMIT and model_table(report.output) != model_table(target):
            entail_failures += 1
    closure_failures = 0
    for _ in range(200):
        n = rng.randint(3, 12)
        target = random_formula(GenConfig(n, rng.randint(1, 8), seed=rng.randrange(2**32)))
        report = afp(StandardFromClosure(Teacher(target)))
        if not equivalent(report.output, target):
            closure_failures += 1
        elif model_table(report.output) != model_table(target):
            closure_failures += 1
    ok = entail_failures == 0 and closure_failures == 0
    _report(
        11,
        ok,
        "200 entailment-protocol runs return the canonical basis; "
        "200 closure-protocol runs return equivalent formulas",
    )
    assert entail_failures == 0
    assert closure_failures == 0


def test_criterion_12_membership_lower_bound():
    started = time.perf_counter()
    n = 10
    report = lower_bound_demo(n)
    elapsed = time.perf_counter() - started
    exact = tuple(range((1 << n) - 2, 0, -1))
    ok = report.remaining == exact and elapsed < 5
    _report(
        12,
        ok,
        f"closure of the bottom pinned only after {report.queries} queries "
        f"({elapsed:.2f}s)",
    )
    assert report.remaining == exact
    assert elapsed < 5


def test_criterion_13_afp_query_growth(corpus_runs):
    _, targets, _ = corpus_runs
    ceiling = 4
    violations = 0
    fitted = 0
    for target, basis in targets:
        m = len(basis)
        teacher = Teacher(target)
        report = afp(teacher)
        if not equivalent(report.output, target):
            violations += 1
            continue
        if m == 0:
            # constant-true targets make the multiplicative bound vacuous;
            # they must finish on the first equivalence query
            if report.stats.seq != 1 or report.stats.smq != 0:
                violations += 1
            continue
        n = target.arity
        fitted += 1
        if report.stats.smq > ceiling * m * m * n:
            violations += 1
        if report.stats.seq > ceiling * m * n:
            violations += 1
    ok = violations == 0
    _report(
        13,
        ok,
        f"afp stayed within {ceiling}*m^2*n memberships and {ceiling}*m*n "
        f"equivalences on {fitted} targets",
    )
    assert violations == 0


def test_criterion_14_reductions_compose():
    """A simulation wrapped around its inverse reproduces the direct run."""
    rng = random.Random(CORPUS_SEED + 14)
    runs = clh_mismatches = afp_failures = afp_mismatches = count_mismatches = 0
    for _ in range(150):
        n = rng.randint(1, 12)
        config = GenConfig(n, rng.randint(0, 3 * n), seed=rng.randrange(2**32))
        target = random_formula(config)
        for strategy, seed in (("first", None), ("random", 3), ("minimal", None)):
            runs += 1
            direct = clh(Teacher(target, strategy=strategy, seed=seed))
            inner = Teacher(target, strategy=strategy, seed=seed)
            round_trip = clh(ClosureFromEntailment(EntailmentFromClosure(inner)))
            if (round_trip.output, round_trip.trace) != (direct.output, direct.trace):
                clh_mismatches += 1
            inner = Teacher(target, strategy=strategy, seed=seed)
            afp_trip = afp(StandardFromClosure(ClosureFromStandard(inner)))
            if not equivalent(afp_trip.output, target):
                afp_failures += 1
            if strategy == "first":
                # a "first" answer depends only on the hypothesis, so the
                # inner afp run leaves the outer run the direct run's answers
                afp_direct = afp(Teacher(target))
                if (afp_trip.output, afp_trip.trace) != (
                    afp_direct.output,
                    afp_direct.trace,
                ):
                    afp_mismatches += 1
                # one CQ per EMQ, plus one per EEQ counterexample (the last
                # EEQ answers YES); one SEQ per EEQ
                entail = clh(ClosureFromEntailment(Teacher(target))).stats
                want = (entail.emq + entail.eeq - 1, entail.eeq)
                if (round_trip.stats.cq, round_trip.stats.seq) != want:
                    count_mismatches += 1
    failures = (clh_mismatches, afp_failures, afp_mismatches, count_mismatches)
    _report(
        14,
        failures == (0, 0, 0, 0),
        f"{runs} round trips: {clh_mismatches} clh trace mismatches, "
        f"{afp_failures} inequivalent afp outputs; under first, "
        f"{afp_mismatches} afp trace and {count_mismatches} query-count mismatches",
    )
    assert failures == (0, 0, 0, 0)
