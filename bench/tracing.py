"""Timing proxies that measure the hornlearn layers from outside.

A proxy has the method shape of what it wraps and forwards every call and
answer unchanged; it only counts the call, times it and notes its input.
Spans nest (a reduction call contains the teacher calls it makes), so each
layer's self time is its span time minus the spans inside it.

``HornFormula.close`` is a method, not an object handed to the learner, so
:func:`traced_close` swaps it on the class for the length of one traced
execution.
"""

from __future__ import annotations

import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

from hornlearn import HornFormula


class Recorder:
    """Counts, busy seconds and distinct inputs per traced boundary."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)  # per layer
        self.distinct: dict[str, int] = defaultdict(int)
        self.hyp_impls = 0
        self.outermost_seconds = 0.0
        self.close_calls = 0
        self.close_seconds = 0.0
        self.close_repeats = 0
        self._inputs: dict[str, set] = defaultdict(set)
        self._open: list[float] = []  # child seconds of each open span

    def call(self, name: str, fn, arg, key=None):
        """Run ``fn(arg)`` as a span called `name` ("layer.op")."""
        if key is not None:
            self._inputs[name].add(key)
        self._open.append(0.0)
        start = time.perf_counter()
        out = fn(arg)
        spent = time.perf_counter() - start
        children = self._open.pop()
        self.calls[name] += 1
        self.seconds[name] += spent
        self.self_seconds[name.partition(".")[0]] += spent - children
        if self._open:
            self._open[-1] += spent
        else:
            self.outermost_seconds += spent
        return out

    def end_task(self) -> None:
        """Fold this execution's distinct inputs into the totals."""
        for name, inputs in self._inputs.items():
            self.distinct[name] += len(inputs)
        self._inputs.clear()


class OracleProxy:
    """Teacher-shaped proxy around a :class:`hornlearn.Teacher`."""

    def __init__(self, teacher, recorder: Recorder) -> None:
        self._teacher = teacher
        self._rec = recorder

    @property
    def arity(self) -> int:
        return self._teacher.arity

    @property
    def stats(self):
        return self._teacher.stats

    def seq(self, hypothesis):
        self._rec.hyp_impls += len(hypothesis)
        return self._rec.call("oracles.seq", self._teacher.seq, hypothesis)

    def eeq(self, hypothesis):
        return self._rec.call("oracles.eeq", self._teacher.eeq, hypothesis)

    def cq(self, y):
        return self._rec.call("oracles.cq", self._teacher.cq, y, y.mask)

    def smq(self, x):
        return self._rec.call("oracles.smq", self._teacher.smq, x, x.mask)

    def emq(self, clause):
        key = (clause.antecedent, clause.head)
        return self._rec.call("oracles.emq", self._teacher.emq, clause, key)


class ReductionProxy:
    """Teacher-shaped proxy around a protocol-simulation adapter."""

    def __init__(self, adapter, recorder: Recorder) -> None:
        self._adapter = adapter
        self._rec = recorder

    @property
    def arity(self) -> int:
        return self._adapter.arity

    @property
    def stats(self):
        return self._adapter.stats

    def cq(self, y):
        return self._rec.call("reductions.cq", self._adapter.cq, y)

    def smq(self, x):
        return self._rec.call("reductions.smq", self._adapter.smq, x)

    def seq(self, hypothesis):
        return self._rec.call("reductions.seq", self._adapter.seq, hypothesis)


@contextmanager
def traced_close(recorder: Recorder):
    """Count and time every ``HornFormula.close`` call inside the block.

    A call repeats when its (formula object, mask) pair came before, which
    is exactly a hit of the per-formula closure memo.  Formulas are keyed by
    identity: hashing a formula hashes its whole implication tuple.  A
    formula's entry goes when the formula does, so a reused id starts clean.
    """
    original = HornFormula.close
    seen: dict[int, tuple[weakref.ref, set[int]]] = {}

    def close(formula, mask):
        key = id(formula)
        entry = seen.get(key)
        if entry is None:
            entry = seen[key] = (
                weakref.ref(formula, lambda _, key=key: seen.pop(key, None)),
                set(),
            )
        masks = entry[1]
        if mask in masks:
            recorder.close_repeats += 1
        else:
            masks.add(mask)
        start = time.perf_counter()
        out = original(formula, mask)
        recorder.close_seconds += time.perf_counter() - start
        recorder.close_calls += 1
        return out

    HornFormula.close = close
    try:
        yield
    finally:
        HornFormula.close = original
