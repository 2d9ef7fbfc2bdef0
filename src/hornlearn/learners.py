"""Exact learners for definite Horn targets.

``clh`` learns from closure and equivalence queries and outputs the
Guigues-Duquenne basis of the target.  ``afp`` is the classic learner from
standard membership and equivalence queries, in the variant that keeps, per
negative example, the strongest consequent compatible with the positive
examples seen so far; its output is the Guigues-Duquenne basis too, each
consequent without its antecedent, whatever counterexamples it receives
(Arias & Balcazar, "Construction and learnability of canonical Horn
formulas", Machine Learning, 2011).

Each learner's state is one list of (antecedent, consequent) mask pairs,
and each round's hypothesis is ``HornFormula._of(n, pairs)``: in ``clh``,
the paper's hyp(N) = {y -> y* : y in N}.  Queries are asked as
:class:`Assignment` values, one per distinct query mask per run: a run keeps
the value it asked each mask with and hands the teacher that same value when
the mask comes up again.  Every query is still asked.

Both take any teacher-shaped object: ``clh`` needs ``cq``/``seq``, ``afp``
needs ``smq``/``seq``, plus ``arity`` and ``stats``, each bound once: the
adapters copy both from the teacher they wrap.  An equivalence answer
is the counterexample itself, of the arity's length, or None for YES.
Protocol-simulation adapters from :mod:`hornlearn.reductions` satisfy the
same shape, so the learners run unchanged against other query models.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Assignment, HornFormula, satisfies
from .oracles import QueryStats

__all__ = ["LearnerReport", "ProtocolError", "TraceEvent", "afp", "clh"]


class ProtocolError(RuntimeError):
    """The teacher's answers broke the promises of its query protocol."""


def _cq_above(teacher, y: Assignment) -> Assignment:
    """The teacher's closure of `y`; ProtocolError unless it has the length
    of `y` and lies above it."""
    closed = teacher.cq(y)
    if closed.n != y.n or y.mask & ~closed.mask:
        raise ProtocolError(
            f"closure query returned {closed} for {y}; a closure must lie "
            "above its query"
        )
    return closed


class _Queries(dict):
    """One run's query values by mask: ``queries[mask]`` is the Assignment
    the run first asked `mask` with, built on the first lookup."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, mask: int) -> Assignment:
        query = self[mask] = Assignment(mask, self.n)
        return query


def _seq_fitting(teacher, hypothesis: HornFormula) -> Assignment | None:
    """The teacher's equivalence answer to `hypothesis`; ProtocolError unless
    a counterexample has the hypothesis's arity as its length."""
    x = teacher.seq(hypothesis)
    if x is not None and x.n != hypothesis.arity:
        raise ProtocolError(
            f"equivalence query returned {x} of length {x.n}; a counterexample "
            f"must have length {hypothesis.arity}, the arity"
        )
    return x


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
    answer must have its query's length and lie above it; a teacher that
    breaks one of these promises raises :class:`ProtocolError`.  Every round
    appends an entry or strictly shrinks one, and an entry shrinks at most
    n times, so a run ending with |N| entries makes at most (n+1)|N|+1
    equivalence queries.
    """
    n = teacher.arity
    pairs: list[tuple[int, int]] = []
    trace: list[TraceEvent] = []
    asked = _Queries(n)

    while True:
        current = HornFormula._of(n, pairs)
        x = _seq_fitting(teacher, current)
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
                closed = _cq_above(teacher, asked[y]).mask
                if closed != y:
                    pairs[i] = (y, closed)
                    trace.append(TraceEvent("refine", i, current, x))
                    break
        else:
            closed = _cq_above(teacher, asked.setdefault(x.mask, x)).mask
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

    Each round appends an entry, strictly shrinks one antecedent (at most
    n times per entry) or, on a positive counterexample, strictly shrinks
    some consequent, which stays nonempty (at most n-1 times per entry
    between two refines of it).  So whatever the teacher answers, the k-th
    equivalence query, asked with |N| entries, has k <= n(n+1)|N|+1.
    """
    n = teacher.arity
    full = (1 << n) - 1
    pairs: list[tuple[int, int]] = []
    positives: list[int] = []
    trace: list[TraceEvent] = []
    asked = _Queries(n)

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
        x = _seq_fitting(teacher, current)
        if x is None:
            return LearnerReport(current, teacher.stats.copy(), tuple(trace))
        if satisfies(x, current):
            # satisfies the hypothesis, hence falsifies the target: negative
            for i, (y_i, _) in enumerate(pairs):
                y = x.mask & y_i
                if y != y_i and not teacher.smq(asked[y]):
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
