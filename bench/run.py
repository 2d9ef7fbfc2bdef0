"""Benchmark for hornlearn: seeded closed-loop workloads with checked outputs.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload learn --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload, each in a fresh process.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs every task both plainly and through the timing proxies of
``tracing.py`` and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# A run sets up at least this many times and for at least this long;
# setup_s is the median set-up time.
SETUPS = 3
SETUP_SECONDS = 5.0

# Failure reasons printed per run; the rest are only counted.
SHOWN_FAILURES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_percent(samples: int) -> int:
    """The highest whole percentile with at least 10 samples beyond it."""
    return max(50, math.floor(100 * (samples - 10) / samples))


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with weights from the
    Beta(q(n+1), (1-q)(n+1)) distribution.  With 28 tasks of widely spread
    sizes the plain sample quantile jumps from one task to its neighbour
    whenever VM noise swaps their order; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    # Simpson's rule on each of the n slices [i/n, (i+1)/n]
    steps = 32
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        ends = density(i / n) + density((i + 1) / n)
        inner = sum((4 if k % 2 else 2) * density(i / n + k * h) for k in range(1, steps))
        weights.append((ends + inner) * h / 3)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, ordered)) / total


def schedule(count: int, seconds: float):
    """Task indices in list order, pass after pass: the whole list once,
    then on until `seconds` have gone by since the first index."""
    start = time.perf_counter()
    index = 0
    while index < count or time.perf_counter() - start < seconds:
        yield index % count
        index += 1


def in_child(fn):
    """Run ``fn()`` in a forked child process and wait for it.

    Returns ``(result, None, peak_rss_mb)`` or, when ``fn`` raised,
    ``(None, traceback, peak_rss_mb)``.  Each execution gets a process of
    its own so that its peak RSS can be read on its own and no memo or
    allocator state carries over to the next one.  The benchmark starts no
    threads, so forking is safe.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                payload = (fn(), None)
            except Exception:  # reported to the parent, which counts it
                payload = (None, traceback.format_exc(limit=3))
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as pipe:
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status, usage = os.wait4(pid, 0)
    peak_mb = usage.ru_maxrss / 1024
    if not data:
        return None, f"child ended with status {status} and no result", peak_mb
    result, error = pickle.loads(data)  # written by our own child just now
    return result, error, peak_mb


class Run:
    """Executes and checks tasks, and keeps what the metrics need."""

    def __init__(self, workloads, tasks) -> None:
        self.w = workloads
        self.tasks = tasks
        self.checker = workloads.Checker()
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.seconds: list[list[float]] = [[] for _ in tasks]
        self.peaks: list[list[float]] = [[] for _ in tasks]
        self.verified = 0
        self.verified_seconds = 0.0
        self.queries: list[tuple[int, int] | None] = [None] * len(tasks)

    def attempt(self, index: int, recorder=None):
        """Run task `index` once in a child process and check it.

        Returns ``(outcome, recorder)``, the recorder as the traced child
        left it; the outcome is None if the task failed.
        """
        task = self.tasks[index]
        self.attempted += 1

        def work():
            outcome = self.w.execute(task, recorder)
            if recorder is not None:
                recorder.end_task()
            return outcome, recorder

        result, error, peak_mb = in_child(work)
        if error is None:
            outcome, recorder = result
            error = self.checker.failure(task, outcome) or self._query_drift(
                index, outcome
            )
        if error is not None:
            self.failed += 1
            self.reasons.append(f"task {index} ({task.kind}): {error}")
            return None, recorder
        if recorder is None:
            self.verified += 1
            self.verified_seconds += outcome.seconds
            self.seconds[index].append(outcome.seconds)
            self.peaks[index].append(peak_mb)
        return outcome, recorder

    def _query_drift(self, index: int, outcome) -> str | None:
        if outcome.stats is None:
            return None
        s = outcome.stats
        counts = (s.seq + s.eeq, s.cq + s.smq + s.emq)
        if self.queries[index] is None:
            self.queries[index] = counts
        elif self.queries[index] != counts:
            return f"query counts {counts} differ from {self.queries[index]} of an earlier run"
        return None

    def query_means(self) -> tuple[float, float]:
        counted = [q for q in self.queries if q is not None]
        if not counted:
            return 0.0, 0.0
        return (
            statistics.fmean(q[0] for q in counted),
            statistics.fmean(q[1] for q in counted),
        )


def end_to_end(run: Run, seconds: float, setup_s: float) -> dict[str, tuple[float, str]]:
    for index in schedule(len(run.tasks), seconds):
        run.attempt(index)
    per_task = [statistics.median(s) for s in run.seconds if s]
    percent = tail_percent(len(per_task))
    print(
        f"task_s.tail is p{percent} of the median time of each of "
        f"{len(per_task)} tasks; {run.verified} verified executions"
    )
    return {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (run.verified / run.verified_seconds, "1/s"),
        "task_s.p50": (quantile(per_task, 0.5), "s"),
        "task_s.tail": (quantile(per_task, percent / 100), "s"),
        "peak_rss_mb": (
            statistics.median(statistics.median(p) for p in run.peaks if p),
            "MB",
        ),
    }


class Layers:
    """Sums of the per-layer numbers over the traced executions."""

    def __init__(self) -> None:
        self.traced = 0
        self.learner_runs = 0
        self.learner_self = 0.0
        self.rounds = 0
        self.stages = [0.0, 0.0, 0.0]
        self.implications_in = 0
        self.removed = 0
        self.basis_out = 0
        self.inner = 0
        self.simulated = 0
        self.plain_s = 0.0
        self.traced_s = 0.0

    def add(self, task, outcome, outermost_s: float) -> None:
        self.traced += 1
        if outcome.stages is not None:
            self.stages = [a + b for a, b in zip(self.stages, outcome.stages)]
            self.implications_in += len(task.target)
            self.removed += len(task.target) - len(outcome.output)
            self.basis_out += len(outcome.output)
        else:
            self.learner_runs += 1
            self.rounds += outcome.rounds
            self.learner_self += outcome.seconds - outermost_s
        if outcome.adapter_stats is not None:
            for _, spent in outcome.adapter_stats.calls:
                self.inner += sum(spent.values())
                self.simulated += 1


def per_layer(run: Run, seconds: float, tracing) -> dict[str, tuple[float, str]]:
    rec = tracing.Recorder()
    layers = Layers()

    def traced_attempt(index: int):
        nonlocal rec
        before = rec.outermost_seconds
        outcome, rec = run.attempt(index, rec)
        if outcome is not None:
            layers.add(run.tasks[index], outcome, rec.outermost_seconds - before)
        return outcome

    for turn, index in enumerate(schedule(len(run.tasks), seconds)):
        # alternate which of the pair goes first, so drift hits both alike
        if turn % 2 == 0:
            plain, traced = run.attempt(index)[0], traced_attempt(index)
        else:
            traced, plain = traced_attempt(index), run.attempt(index)[0]
        if plain is not None and traced is not None:
            layers.plain_s += plain.seconds
            layers.traced_s += traced.seconds

    def per(value, count=layers.traced):
        return value / count if count else 0.0

    metrics = {}
    for op in ("seq", "eeq", "cq", "smq", "emq"):
        name = f"oracles.{op}"
        metrics[f"{name}.calls"] = (per(rec.calls[name]), "calls/task")
        metrics[f"{name}.s"] = (per(rec.seconds[name]), "s/task")
    metrics["oracles.seq.hyp_impls"] = (
        per(rec.hyp_impls, rec.calls["oracles.seq"]),
        "impls/call",
    )
    for op in ("cq", "smq", "emq"):
        name = f"oracles.{op}"
        metrics[f"{name}.distinct_ratio"] = (
            per(rec.distinct[name], rec.calls[name]),
            "ratio",
        )
    metrics["learners.self_s"] = (per(layers.learner_self, layers.learner_runs), "s/task")
    metrics["learners.rounds"] = (per(layers.rounds, layers.learner_runs), "rounds/task")
    for op in ("cq", "smq", "seq"):
        name = f"reductions.{op}"
        metrics[f"{name}.calls"] = (per(rec.calls[name]), "calls/task")
    metrics["reductions.self_s"] = (per(rec.self_seconds["reductions"]), "s/task")
    metrics["reductions.inner_per_call"] = (
        per(layers.inner, layers.simulated),
        "queries/call",
    )
    metrics["core.close.calls"] = (per(rec.close_calls), "calls/task")
    metrics["core.close.s"] = (per(rec.close_seconds), "s/task")
    metrics["core.close.repeat_ratio"] = (
        per(rec.close_repeats, rec.close_calls),
        "ratio",
    )
    stage_names = ("right_saturate", "left_saturate", "remove_redundant")
    for stage, spent in zip(stage_names, layers.stages):
        metrics[f"basis.{stage}_s"] = (per(spent), "s/task")
    metrics["basis.removed_ratio"] = (per(layers.removed, layers.implications_in), "ratio")
    metrics["basis.out_ratio"] = (per(layers.basis_out, layers.implications_in), "ratio")
    metrics["trace.overhead_ratio"] = (per(layers.traced_s, layers.plain_s), "ratio")
    eq, member = run.query_means()
    metrics["eq_queries_per_task"] = (eq, "queries/task")
    metrics["member_queries_per_task"] = (member, "queries/task")
    return metrics


def run_one(args, workloads, tracing) -> int:
    setups = []
    while len(setups) < SETUPS or sum(setups) < SETUP_SECONDS:
        start = time.perf_counter()
        tasks = workloads.task_list(args.workload, args.seed)
        workloads.warm_up(args.workload)
        setups.append(time.perf_counter() - start)
    # the children never collect the parent's objects: no copy-on-write
    # storm, and no collection time that depends on the task list's size
    gc.collect()
    gc.freeze()

    run = Run(workloads, tasks)
    if args.trace:
        metrics = per_layer(run, args.seconds, tracing)
    else:
        metrics = end_to_end(run, args.seconds, statistics.median(setups))
    eq, member = run.query_means()
    print(f"queries per task: {eq:.2f} equivalence, {member:.2f} membership-type")

    expected = workloads.CROSSCHECK_EXPECTED[args.workload]
    found = workloads.crosscheck(args.workload)
    for key, value in expected.items():
        mark = "ok" if found[key] == value else "MISMATCH"
        print(f"crosscheck {key}={found[key]} expected {value} {mark}")
    for reason in run.reasons[:SHOWN_FAILURES]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"fail_ratio {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and found == expected,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def run_all(args, names) -> int:
    """Each workload in a fresh process, so that peak RSS and warm memos
    stay with their own workload."""
    worst = 0
    for name in names:
        print(f"== {name}", flush=True)
        argv = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hornlearn" / "__init__.py").is_file():
        print(f"error: no hornlearn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args, workloads, tracing)


if __name__ == "__main__":
    sys.exit(main())
