"""Exact learners for definite Horn targets.

``clh`` learns from closure and equivalence queries and outputs the
Guigues-Duquenne basis of the target.  ``afp`` is the classic learner from
standard membership and equivalence queries, in the variant that keeps, per
negative example, the strongest consequent compatible with the positive
examples seen so far; its output is equivalent to the target but not
canonical in general.

Each learner's state is one list of (antecedent, consequent) mask pairs,
and each round's hypothesis is ``HornFormula._of(n, pairs)``: in ``clh``,
the paper's hyp(N) = {y -> y* : y in N}.  An :class:`Assignment` is built
only where a teacher query needs one.

Both take any teacher-shaped object: ``clh`` needs ``cq``/``seq``, ``afp``
needs ``smq``/``seq``, plus ``arity`` and ``stats``.  An equivalence answer
is the counterexample itself, or None for YES.  Protocol-simulation
adapters from :mod:`hornlearn.reductions` satisfy the same shape, so the
learners run unchanged against other query models.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Assignment, HornFormula, _check_length, satisfies
from .oracles import QueryStats

__all__ = ["LearnerReport", "ProtocolError", "TraceEvent", "afp", "clh"]


class ProtocolError(RuntimeError):
    """The teacher's answers broke the promises of its query protocol."""


def _check_above(closed: Assignment, y: Assignment) -> None:
    """Raise ProtocolError unless the closure answer `closed` lies above `y`."""
    if closed.n != y.n or y.mask & ~closed.mask:
        raise ProtocolError(
            f"closure query returned {closed} for {y}; a closure must lie "
            "above its query"
        )


@dataclass(frozen=True)
class TraceEvent:
    """One learner iteration: which entry changed, on which counterexample.

    `kind` is "append", "refine" or (afp only) "positive"; `hypothesis` is
    the formula whose equivalence query produced `counterexample`.
    """

    kind: str
    index: int | None
    hypothesis: HornFormula
    counterexample: Assignment


@dataclass(frozen=True)
class LearnerReport:
    """Final formula, a snapshot of the teacher's counters, and the trace."""

    output: HornFormula
    stats: QueryStats
    trace: tuple[TraceEvent, ...]


def clh(teacher) -> LearnerReport:
    """Learn a definite Horn target from closure and equivalence queries.

    Keeps the list N of negative examples as (y, closure(y)) mask pairs, so
    each round's hypothesis is the paper's hyp(N) = {y -> y* : y in N},
    built as `HornFormula._of(n, pairs)`.  On a counterexample x, the first
    entry whose intersection with x is strictly smaller and still negative
    is replaced by that intersection; otherwise x is appended.  The final
    hypothesis is the GD basis of the target.

    Counterexamples must be negative (the hypothesis is always entailed by
    the target), so each lies strictly below its closure, and every closure
    answer must lie above its query; a teacher that breaks one of these
    promises raises :class:`ProtocolError`.  Every round
    appends an entry or strictly shrinks one, and an entry shrinks at most
    n times, so a run ending with |N| entries makes at most (n+1)|N|+1
    equivalence queries.
    """
    n = teacher.arity
    pairs: list[tuple[int, int]] = []
    trace: list[TraceEvent] = []

    def closure(y: int) -> int:
        query = Assignment(y, n)
        closed = teacher.cq(query)
        _check_length(closed, n)
        _check_above(closed, query)
        return closed.mask

    while True:
        current = HornFormula._of(n, pairs)
        x = teacher.seq(current)
        if x is None:
            return LearnerReport(current, teacher.stats.copy(), tuple(trace))
        if not satisfies(x, current):
            raise ProtocolError(
                f"positive counterexample {x}: the hypothesis is entailed by the "
                "target, so every counterexample must satisfy the hypothesis"
            )
        for i, (y_i, _) in enumerate(pairs):
            y = x.mask & y_i
            if y != y_i:
                closed = closure(y)
                if closed != y:
                    pairs[i] = (y, closed)
                    trace.append(TraceEvent("refine", i, current, x))
                    break
        else:
            closed = closure(x.mask)
            if closed == x.mask:
                raise ProtocolError(
                    f"closure query returned {x} for the negative "
                    f"counterexample {x}, which must lie strictly below it"
                )
            pairs.append((x.mask, closed))
            trace.append(TraceEvent("append", len(pairs) - 1, current, x))


def afp(teacher) -> LearnerReport:
    """Learn from standard membership and equivalence queries.

    Keeps one (y, consequent) mask pair per negative example y and the masks
    of the positive examples.  A consequent starts as every variable outside
    y and is intersected with each positive example above y.  Negative
    counterexamples refine the example list exactly as in `clh`, except the
    negativity of an intersection is tested with a membership query;
    positive ones shrink the consequents of the entries they cover.
    """
    n = teacher.arity
    full = (1 << n) - 1
    pairs: list[tuple[int, int]] = []
    positives: list[int] = []
    trace: list[TraceEvent] = []

    def strongest_consequent(y: int) -> int:
        c = full & ~y
        for p in positives:
            if p & y == y:
                c &= p
        if c == 0:
            raise ProtocolError(
                f"no admissible consequent left for negative example "
                f"{Assignment(y, n)}; the teacher's answers are inconsistent "
                "with a definite Horn target"
            )
        return c

    while True:
        current = HornFormula._of(n, pairs)
        x = teacher.seq(current)
        if x is None:
            return LearnerReport(current, teacher.stats.copy(), tuple(trace))
        if satisfies(x, current):
            # satisfies the hypothesis, hence falsifies the target: negative
            for i, (y_i, _) in enumerate(pairs):
                y = x.mask & y_i
                if y != y_i and not teacher.smq(Assignment(y, n)):
                    pairs[i] = (y, strongest_consequent(y))
                    trace.append(TraceEvent("refine", i, current, x))
                    break
            else:
                pairs.append((x.mask, strongest_consequent(x.mask)))
                trace.append(TraceEvent("append", len(pairs) - 1, current, x))
        else:
            positives.append(x.mask)
            for i, (y_i, c) in enumerate(pairs):
                if y_i & x.mask == y_i:
                    shrunk = c & x.mask
                    if shrunk == 0:
                        raise ProtocolError(
                            f"positive example {x} empties the consequent of "
                            f"{Assignment(y_i, n)}"
                        )
                    pairs[i] = (y_i, shrunk)
            trace.append(TraceEvent("positive", None, current, x))
