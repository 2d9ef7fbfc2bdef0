"""Seeded task lists for the benchmark workloads, one task's execution, and
the checks each output must pass.

A task is one closed-loop job: a learner run against a teacher (``learn``,
``simulate``) or one ``gd_basis`` call (``gd-basis``).  Everything here goes
through the public API of :mod:`hornlearn`; every execution starts from a
fresh copy of its input formula, so no closure memo survives from one
execution to the next.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from hornlearn import (
    ClosureFromEntailment,
    GenConfig,
    HornFormula,
    Implication,
    QueryStats,
    StandardFromClosure,
    Teacher,
    afp,
    clh,
    equivalent,
    gd_basis,
    left_saturate,
    random_formula,
    remove_redundant,
    right_saturate,
)

from tracing import OracleProxy, ReductionProxy, traced_close

# The task kinds of each workload, in the order they appear per formula.
KINDS = {
    "learn": ("clh", "afp"),
    "gd-basis": ("gd", "gd"),
    "simulate": ("clh-entail", "afp-closure"),
}
WORKLOADS = tuple(KINDS)

# Distinct formulas per task list.  Each yields two tasks, so every list has
# 28 tasks and its tail percentile is p64 (10 tasks beyond it).  One pass
# over a list takes 18-28 s on a 2-vCPU VM.
FORMULAS = 14

# The baseline target shape: m = 4n, antecedents of 1-4 and consequents of
# 1-2 variables.
LEARN_ARITY = (40, 100)
SIMULATE_ARITY = (30, 80)
GD_ARITY = (60, 250)
GD_RATIO = (2.0, 8.0)


@dataclass(frozen=True)
class Task:
    """One job of a task list.

    `kind` is a learner ("clh", "afp", "clh-entail", "afp-closure") or
    "gd".  `group` names the formula the task was drawn from; the two
    "gd" tasks of a group get the same formula in two implication orders.
    `reference` is the expected output implication set of a clh-kind task.
    """

    kind: str
    target: HornFormula
    group: int
    strategy: str = "first"
    teacher_seed: int | None = None
    reference: frozenset = field(default=frozenset(), compare=False)


@dataclass
class Outcome:
    """What one execution produced: the output, the teacher's counters and,
    for a simulated protocol, the adapter's per-call budget log."""

    output: HornFormula
    seconds: float
    stats: QueryStats | None = None
    adapter_stats: object = None
    rounds: int = 0  # equivalence queries the learner asked
    stages: tuple[float, float, float] | None = None  # traced gd only


def _slices(k: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """The midpoints of k equal slices of [lo, hi], in linear or log scale."""
    if log:
        return [math.exp(x) for x in _slices(k, math.log(lo), math.log(hi))]
    return [lo + (i + 0.5) * (hi - lo) / k for i in range(k)]


def _spread_order(k: int) -> list[int]:
    """Slice indices ordered so that every prefix covers the range evenly.

    A timed run may stop part-way through a pass, and the tasks it did run
    must have about the same size mix as the whole list."""
    golden = (math.sqrt(5) - 1) / 2
    return sorted(range(k), key=lambda i: (i * golden) % 1.0)


def _shuffled(formula: HornFormula, rng: random.Random) -> HornFormula:
    imps = list(formula.implications)
    rng.shuffle(imps)
    return HornFormula(formula.arity, imps)


def _relabeled(formula: HornFormula, rng: random.Random) -> HornFormula:
    """The formula with its variables renamed by a random permutation and
    its implications in a random order."""
    rename = list(range(formula.arity))
    rng.shuffle(rename)
    imps = [
        Implication(
            frozenset(rename[v] for v in imp.antecedent),
            frozenset(rename[v] for v in imp.consequent),
        )
        for imp in formula.implications
    ]
    return _shuffled(HornFormula(formula.arity, imps), rng)


# Every task list is built from the same base formulas, one per size slice,
# generated from fixed seeds; the workload seed renames their variables,
# shuffles their implications and seeds the random counterexample strategy.
# Random formulas of one size differ up to fivefold in learning time (clh at
# n=90: 0.38-1.86 s over six draws), so with fresh draws per seed the median
# task time of 40 tasks moved by 30-57% from seed to seed and measured the
# draw rather than the program.  A renamed formula keeps its difficulty, and
# the seed still changes every formula and every answer sequence.


def _base(n: int, m: int, slot: int) -> HornFormula:
    return random_formula(GenConfig(n, m, (1, 4), (1, 2), seed=slot))


def _learner_tasks(workload: str, arity: tuple[int, int], seed: int):
    kinds = KINDS[workload]
    rng = random.Random(seed)
    lo, hi = arity
    sizes = [int(x) for x in _slices(FORMULAS, lo, hi + 1)]
    tasks = []
    for slot in _spread_order(FORMULAS):
        n = sizes[slot]
        target = _relabeled(_base(n, 4 * n, slot), rng)
        strategy = "first" if slot % 2 == 0 else "random"
        teacher_seed = rng.randrange(2**32)
        reference = frozenset(gd_basis(_shuffled(target, rng)).implications)
        tasks.append(Task(kinds[0], target, slot, strategy, teacher_seed, reference))
        tasks.append(Task(kinds[1], target, slot, strategy, teacher_seed))
    return tasks


def _gd_tasks(seed: int):
    # Latin hypercube over (n, m/n): every n slice and every ratio slice is
    # used once.  Both are spaced in log scale: the time grows steeply with
    # n and m, and linear spacing spent most of a run on the largest few.
    rng = random.Random(seed)
    lo, hi = GD_ARITY
    sizes = [int(x) for x in _slices(FORMULAS, lo, hi + 1, log=True)]
    ratios = _slices(FORMULAS, *GD_RATIO, log=True)
    tasks = []
    for slot in _spread_order(FORMULAS):
        n = sizes[slot]
        ratio = ratios[5 * slot % FORMULAS]  # 5 is prime to FORMULAS
        formula = _relabeled(_base(n, round(ratio * n), slot), rng)
        tasks.append(Task("gd", formula, slot))
        tasks.append(Task("gd", _shuffled(formula, rng), slot))
    return tasks


def task_list(workload: str, seed: int) -> list[Task]:
    """The seeded task list of a workload, with its reference outputs."""
    if workload == "learn":
        return _learner_tasks(workload, LEARN_ARITY, seed)
    if workload == "simulate":
        return _learner_tasks(workload, SIMULATE_ARITY, seed)
    if workload == "gd-basis":
        return _gd_tasks(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str) -> None:
    """Run every task kind of the workload once on a small formula."""
    small = random_formula(GenConfig(8, 24, (1, 3), (1, 2), seed=0))
    reference = frozenset(gd_basis(small).implications)
    for kind in KINDS[workload]:
        execute(Task(kind, small, 0, "random", 0, reference))


def execute(task: Task, recorder=None) -> Outcome:
    """Run one task on a fresh copy of its input.

    With a recorder the teacher and the adapter are wrapped in timing
    proxies, ``HornFormula.close`` is traced, and a "gd" task runs its
    three stages one by one instead of calling ``gd_basis``.
    """
    if recorder is None:
        return _run(task, None)
    with traced_close(recorder):
        return _run(task, recorder)


def _run(task: Task, recorder) -> Outcome:
    start = time.perf_counter()
    target = HornFormula(task.target.arity, task.target.implications)
    if task.kind == "gd":
        if recorder is None:
            output = gd_basis(target)
            return Outcome(output, time.perf_counter() - start)
        right = right_saturate(target)
        t1 = time.perf_counter()
        left = left_saturate(right)
        t2 = time.perf_counter()
        output = remove_redundant(left)
        t3 = time.perf_counter()
        return Outcome(output, t3 - start, stages=(t1 - start, t2 - t1, t3 - t2))
    teacher = Teacher(target, task.strategy, task.teacher_seed)
    inner = teacher if recorder is None else OracleProxy(teacher, recorder)
    adapter = None
    if task.kind == "clh-entail":
        adapter = ClosureFromEntailment(inner)
    elif task.kind == "afp-closure":
        adapter = StandardFromClosure(inner)
    outer = inner if adapter is None else adapter
    if recorder is not None and adapter is not None:
        outer = ReductionProxy(adapter, recorder)
    learner = clh if task.kind.startswith("clh") else afp
    report = learner(outer)
    seconds = time.perf_counter() - start
    return Outcome(
        report.output,
        seconds,
        stats=teacher.stats.copy(),
        adapter_stats=None if adapter is None else adapter.adapter_stats,
        rounds=len(report.trace) + 1,
    )


# Per simulated call: the most inner queries of each kind, and whether that
# count is exact.  These are the budgets of the table in hornlearn.reductions.
def _budgets(n: int) -> dict[str, dict[str, dict[str, tuple[int, bool]]]]:
    return {
        "clh-entail": {
            "cq": {"emq": (n, False)},
            "smq": {"emq": (n, False)},
            "seq": {"eeq": (1, True), "emq": (n, False)},
        },
        "afp-closure": {
            "smq": {"cq": (1, True)},
            "seq": {"seq": (1, True)},
        },
    }


def budget_violation(task: Task, adapter_stats) -> str | None:
    """The first simulated call that broke its per-call budget, if any."""
    table = _budgets(task.target.arity)[task.kind]
    for index, (op, spent) in enumerate(adapter_stats.calls):
        allowed = table.get(op)
        if allowed is None:
            return f"call {index}: unexpected simulated {op}"
        for kind, used in spent.items():
            if kind not in allowed:
                return f"call {index}: {op} spent {used} {kind}"
        for kind, (limit, exact) in allowed.items():
            used = spent.get(kind, 0)
            if used > limit or (exact and used != limit):
                return f"call {index}: {op} spent {used} {kind}, budget {limit}"
    return None


class Checker:
    """Decides whether one execution's output is right.

    A "gd" task must give, as a set, the same basis as the other
    implication order of its formula: the first output of a group becomes
    the reference of every later output of that group.
    """

    def __init__(self) -> None:
        self._first_gd: dict[int, frozenset] = {}

    def failure(self, task: Task, outcome: Outcome) -> str | None:
        """Why the output is wrong, or None if it is right."""
        got = frozenset(outcome.output.implications)
        if task.kind == "gd":
            if got != self._first_gd.setdefault(task.group, got):
                return "gd_basis output differs from that of a permuted copy"
            if not equivalent(outcome.output, task.target):
                return "gd_basis output is not equivalent to its input"
            return None
        if task.kind.startswith("clh"):
            if got != task.reference:
                return "clh output differs from the reference GD basis"
            rounds = outcome.stats.seq + outcome.stats.eeq
            n, m = task.target.arity, len(task.reference)
            if rounds > n * m + m + 1:
                return f"clh used {rounds} equivalence queries, ceiling {n * m + m + 1}"
        elif not equivalent(outcome.output, task.target):
            return "afp output is not equivalent to the target"
        if outcome.adapter_stats is not None:
            return budget_violation(task, outcome.adapter_stats)
        return None


# The seed-1 baseline of the project roadmap: n=100, m=400, strategy
# "first".  Each workload reproduces the counts of the layers it times,
# exactly.  afp over StandardFromClosure asks afp's queries and answers each
# membership with one closure query, so it repeats afp's counts.
CROSSCHECK_CONFIG = GenConfig(100, 400, (1, 4), (1, 2), seed=1)
CROSSCHECK_EXPECTED = {
    "learn": {"clh.seq": 148, "clh.cq": 6176, "afp.seq": 156, "afp.smq": 5484},
    "gd-basis": {"gd_basis.size": 93},
    "simulate": {"afp-closure.seq": 156, "afp-closure.cq": 5484},
}


def crosscheck(workload: str) -> dict[str, int]:
    """Measure the counts that CROSSCHECK_EXPECTED fixes for the workload."""
    target = random_formula(CROSSCHECK_CONFIG)
    if workload == "gd-basis":
        return {"gd_basis.size": len(gd_basis(target))}
    if workload == "simulate":
        found = afp(StandardFromClosure(Teacher(target))).stats
        return {"afp-closure.seq": found.seq, "afp-closure.cq": found.cq}
    learned = clh(Teacher(target)).stats
    found = afp(Teacher(target)).stats
    return {
        "clh.seq": learned.seq,
        "clh.cq": learned.cq,
        "afp.seq": found.seq,
        "afp.smq": found.smq,
    }
