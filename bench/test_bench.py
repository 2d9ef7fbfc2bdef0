"""Tests of the benchmark itself: seeding, transparent proxies, checks.

Run from the repository root with ``python -m pytest bench``.
"""

import dataclasses
from pathlib import Path

import pytest

import run
import workloads
from hornlearn import AdapterStats, HornFormula, gd_basis
from tracing import Recorder
from workloads import Checker, Outcome, execute, task_list

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def lists():
    """Each workload's task list for seed 5, made once."""
    return {w: task_list(w, 5) for w in workloads.WORKLOADS}


def smallest(tasks, kind):
    return min((t for t in tasks if t.kind == kind), key=lambda t: t.target.arity)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_task_list(workload, lists):
    again = task_list(workload, 5)
    assert again == lists[workload]
    assert [t.reference for t in again] == [t.reference for t in lists[workload]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_another_seed_gives_other_targets_of_the_same_sizes(workload, lists):
    other = task_list(workload, 6)
    assert {t.target for t in other}.isdisjoint(t.target for t in lists[workload])

    def sizes(tasks):
        return [(t.kind, t.target.arity, len(t.target)) for t in tasks]

    assert sizes(other) == sizes(lists[workload])


def test_task_lists_follow_the_workload_shapes(lists):
    for workload, (lo, hi) in (
        ("learn", workloads.LEARN_ARITY),
        ("simulate", workloads.SIMULATE_ARITY),
        ("gd-basis", workloads.GD_ARITY),
    ):
        tasks = lists[workload]
        assert len(tasks) == 2 * workloads.FORMULAS
        assert all(lo <= t.target.arity <= hi for t in tasks)
    learn = lists["learn"]
    assert all(len(t.target) == 4 * t.target.arity for t in learn)
    assert {t.strategy for t in learn} == {"first", "random"}
    for t in lists["gd-basis"]:
        assert 2 <= len(t.target) / t.target.arity <= 8


@pytest.mark.parametrize(
    "workload,kind",
    [("learn", "clh"), ("learn", "afp"), ("simulate", "clh-entail"), ("simulate", "afp-closure")],
)
def test_same_task_gives_the_same_query_counts(workload, kind, lists):
    first = execute(smallest(lists[workload], kind))
    second = execute(smallest(task_list(workload, 5), kind))
    assert first.stats == second.stats
    assert first.output == second.output


@pytest.mark.parametrize(
    "workload,kind",
    [
        ("learn", "clh"),
        ("learn", "afp"),
        ("simulate", "clh-entail"),
        ("simulate", "afp-closure"),
        ("gd-basis", "gd"),
    ],
)
def test_tracing_proxies_forward_answers_unchanged(workload, kind, lists):
    task = smallest(lists[workload], kind)
    plain = execute(task)
    recorder = Recorder()
    traced = execute(task, recorder)
    assert traced.output == plain.output
    assert traced.stats == plain.stats
    assert Checker().failure(task, traced) is None
    assert HornFormula.close.__qualname__ == "HornFormula.close"
    assert recorder.close_calls > 0
    assert 0 <= recorder.close_repeats <= recorder.close_calls


def dropped_first(outcome: Outcome) -> Outcome:
    output = outcome.output
    corrupt = HornFormula(output.arity, output.implications[1:])
    return dataclasses.replace(outcome, output=corrupt)


@pytest.mark.parametrize(
    "workload,kind",
    [("learn", "clh"), ("simulate", "clh-entail")],
)
def test_checker_flags_a_clh_basis_missing_an_implication(workload, kind, lists):
    task = smallest(lists[workload], kind)
    outcome = execute(task)
    assert Checker().failure(task, outcome) is None
    assert Checker().failure(task, dropped_first(outcome)) is not None


@pytest.mark.parametrize(
    "workload,kind",
    [("learn", "afp"), ("simulate", "afp-closure")],
)
def test_checker_flags_an_inequivalent_afp_output(workload, kind, lists):
    task = smallest(lists[workload], kind)
    outcome = execute(task)
    assert Checker().failure(task, outcome) is None
    # a GD basis has no redundant implication, so dropping one changes it
    basis = dataclasses.replace(outcome, output=gd_basis(outcome.output))
    assert Checker().failure(task, basis) is None
    assert Checker().failure(task, dropped_first(basis)) is not None


def test_checker_flags_a_gd_basis_that_differs_from_its_sibling(lists):
    task = smallest(lists["gd-basis"], "gd")
    outcome = execute(task)
    checker = Checker()
    assert checker.failure(task, outcome) is None
    assert checker.failure(task, dropped_first(outcome)) is not None
    # first output of a group is the reference; equivalence is checked too
    assert Checker().failure(task, dropped_first(outcome)) is not None


def over_budget(outcome: Outcome, op: str, spent: dict) -> Outcome:
    stats = AdapterStats(list(outcome.adapter_stats.calls) + [(op, spent)])
    return dataclasses.replace(outcome, adapter_stats=stats)


def test_checker_flags_simulated_calls_over_budget(lists):
    task = smallest(lists["simulate"], "clh-entail")
    outcome = execute(task)
    n = task.target.arity
    checker = Checker()
    assert checker.failure(task, outcome) is None
    assert checker.failure(task, over_budget(outcome, "cq", {"emq": n + 1})) is not None
    assert checker.failure(task, over_budget(outcome, "seq", {"eeq": 2})) is not None
    assert checker.failure(task, over_budget(outcome, "seq", {"emq": 1})) is not None

    task = smallest(lists["simulate"], "afp-closure")
    outcome = execute(task)
    assert checker.failure(task, outcome) is None
    assert checker.failure(task, over_budget(outcome, "smq", {"cq": 2})) is not None
    assert checker.failure(task, over_budget(outcome, "smq", {"seq": 1, "cq": 1})) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_crosscheck_reproduces_the_seed_one_baseline(workload):
    assert workloads.crosscheck(workload) == workloads.CROSSCHECK_EXPECTED[workload]


def test_tail_percentile_leaves_ten_tasks_beyond_it():
    assert run.tail_percent(40) == 75
    assert run.tail_percent(28) == 64
    assert run.tail_percent(20) == 50
    assert run.tail_percent(100) == 90
    assert run.tail_percent(12) == 50


def test_schedule_runs_the_whole_list_at_least_once():
    assert list(run.schedule(5, 0)) == [0, 1, 2, 3, 4]


def test_run_refuses_a_checkout_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-directory")
    argv = ["--workload", "learn", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""
