"""Simulating one query protocol with another.

Free functions implement the single-query simulations; the per-call budgets
they respect are:

=====================  =======================
simulation             inner queries per call
=====================  =======================
cq_from_emq            at most n EMQs
smq_from_emq           at most n EMQs
seq_from_eeq_emq       1 EEQ + at most n EMQs
emq_from_cq            exactly 1 CQ
smq_from_cq            exactly 1 CQ
eeq_from_seq_cq        1 SEQ + at most 1 CQ
cq_from_smq_seq        one full learner run, then none
=====================  =======================

The adapter classes wrap a teacher and expose the simulated protocol with
the same method shape, so learners run against them unchanged; each records
the inner queries spent per simulated call in an :class:`AdapterStats`,
also for a call that raises.
:class:`ClosureFromEntailment` asks the EMQs of each distinct closure query
only once: it answers a repeat from a bounded per-adapter memo and logs an
empty spend for it without reading any counter, within the table's "at most
n EMQs".
A simulation checks the inner teacher's promises that need no further
inner query (a closure lies above its query, a counterexample fits the
arity and separates) and raises :class:`ProtocolError` when one breaks.
There is no polynomial simulation of closures from memberships alone:
against an adversary that rules out at most one candidate target per query,
:func:`lower_bound_demo` needs exponentially many membership queries.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, fields
from operator import attrgetter

from . import core
from .core import (
    Assignment,
    EntailmentClause,
    HornFormula,
    _check_fits,
    _check_length,
    _low_bit,
)
from .learners import ProtocolError, _cq_above, _seq_fitting, afp
from .oracles import AdversarialSmqTeacher, QueryStats

__all__ = [
    "AdapterStats",
    "ClosureFromEntailment",
    "ClosureFromStandard",
    "EntailmentFromClosure",
    "LowerBoundReport",
    "StandardFromClosure",
    "cq_from_emq",
    "cq_from_smq_seq",
    "emq_from_cq",
    "eeq_from_seq_cq",
    "lower_bound_demo",
    "seq_from_eeq_emq",
    "smq_from_cq",
    "smq_from_emq",
]


def cq_from_emq(teacher, y: Assignment) -> Assignment:
    """Answer a closure query with one entailment membership per unset bit."""
    n = teacher.arity
    _check_length(y, n)
    emq, of = teacher.emq, EntailmentClause._of
    start = mask = y.mask
    for b in range(n):
        if not mask >> b & 1 and emq(of(start, b)):
            mask |= 1 << b
    return Assignment(mask, n)


def smq_from_emq(teacher, x: Assignment) -> bool:
    """Membership via entailment: x is negative iff some variable outside x
    is entailed by it.  Stops at the first positive answer."""
    n = teacher.arity
    _check_length(x, n)
    emq, of = teacher.emq, EntailmentClause._of
    mask = x.mask
    for b in range(n):
        if not mask >> b & 1 and emq(of(mask, b)):
            return False
    return True


def seq_from_eeq_emq(teacher, hypothesis: HornFormula) -> Assignment | None:
    """Standard equivalence from one entailment equivalence query.

    A counterexample clause entailed by the target becomes the hypothesis
    closure of its antecedent (a negative assignment, no extra queries); one
    entailed by the hypothesis becomes the target closure of its antecedent,
    rebuilt from entailment memberships (a positive assignment).  YES (None)
    passes through.
    """
    clause = teacher.eeq(hypothesis)
    if clause is None:
        return None
    n = hypothesis.arity
    if (clause._mask | 1 << clause.head) >> n:
        raise ProtocolError(f"counterexample clause {clause} does not fit arity {n}")
    start = Assignment(clause._mask, n)
    under_hyp = hypothesis.close(start.mask)
    if under_hyp >> clause.head & 1:
        # entailed by the hypothesis, not the target
        closed = cq_from_emq(teacher, start)
        if closed.mask >> clause.head & 1:
            raise ProtocolError(
                f"counterexample clause {clause} is entailed by the hypothesis "
                "and, by entailment membership, by the target; it must be "
                "entailed by exactly one"
            )
        return closed
    return Assignment(under_hyp, n)


def emq_from_cq(teacher, clause: EntailmentClause) -> bool:
    """Entailment membership from a single closure query, asked only for a
    clause that fits the arity."""
    n = teacher.arity
    _check_fits(clause._mask | 1 << clause.head, n)
    closed = _cq_above(teacher, Assignment(clause._mask, n))
    return bool(closed.mask >> clause.head & 1)


def smq_from_cq(teacher, x: Assignment) -> bool:
    """Membership from a single closure query: positive iff already closed."""
    return _cq_above(teacher, x).mask == x.mask


def eeq_from_seq_cq(teacher, hypothesis: HornFormula) -> EntailmentClause | None:
    """Entailment equivalence from one standard equivalence plus one closure.

    The closure of the counterexample decides its sign.  A negative
    assignment x yields the clause `ones(x) -> v` for the lowest variable v
    gained by its target closure; a positive x yields `ones(x) -> v` for the
    lowest v gained by forward chaining under the hypothesis.  YES (None)
    passes through.
    """
    x = _seq_fitting(teacher, hypothesis)
    if x is None:
        return None
    closed = _cq_above(teacher, x)
    if x < closed:
        gained = closed.mask & ~x.mask
    else:
        gained = hypothesis.close(x.mask) & ~x.mask
    if not gained:
        raise ProtocolError(
            f"counterexample {x} satisfies both the target and the "
            "hypothesis; it must satisfy exactly one"
        )
    return EntailmentClause._of(x.mask, _low_bit(gained))


_LEARNED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def cq_from_smq_seq(teacher, y: Assignment) -> Assignment:
    """Closure queries over the standard protocol, by learning the target.

    The first call runs the `afp` learner against the teacher; the result is
    cached per teacher instance and later calls chain locally over it, so
    query counters reflect a single learning run.
    """
    _check_length(y, teacher.arity)
    learned = _LEARNED.get(teacher)
    if learned is None:
        learned = afp(teacher).output
        _LEARNED[teacher] = learned
    return Assignment(learned.close(y.mask), learned.arity)


@dataclass
class AdapterStats:
    """Inner queries spent per simulated call, in call order.

    A spend maps each query kind whose counter moved to how far it moved; a
    memo hit spends nothing and logs ``{}``.  A call that raises is logged
    with what it spent before raising.
    """

    calls: list[tuple[str, dict[str, int]]] = field(default_factory=list)

    def per_call(self, op: str) -> list[dict[str, int]]:
        return [spent for name, spent in self.calls if name == op]


# The query kinds in QueryStats field order, and one read of all counters.
_KINDS = tuple(f.name for f in fields(QueryStats))
_snapshot = attrgetter(*_KINDS)


class _Adapter:
    def __init__(self, inner) -> None:
        self.inner = inner
        self.arity = inner.arity
        self.adapter_stats = AdapterStats()

    @property
    def stats(self):
        return self.inner.stats

    def _run(self, op, fn, query):
        stats = self.inner.stats
        before = _snapshot(stats)
        try:
            return fn(self.inner, query)
        finally:
            after = _snapshot(stats)
            spent = {}
            if after != before:
                for kind, b, a in zip(_KINDS, before, after):
                    if a != b:
                        spent[kind] = a - b
            self.adapter_stats.calls.append((op, spent))


def _seq(inner, hypothesis: HornFormula) -> Assignment | None:
    """Standard equivalence passed through to a teacher that answers it."""
    return inner.seq(hypothesis)


class ClosureFromEntailment(_Adapter):
    """cq/smq/seq surface over a teacher answering emq and eeq.

    A closure depends only on the target, so the adapter asks the
    memberships of each distinct closure query once and answers a repeat
    from a per-instance memo, logging an empty spend without reading the
    inner counters.  The memo is cleared at ``core.CLOSURE_MEMO_LIMIT``
    entries, as in :meth:`HornFormula.close`.
    """

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self._closures: dict[int, Assignment] = {}

    def cq(self, y: Assignment) -> Assignment:
        _check_length(y, self.arity)
        memo = self._closures
        out = memo.get(y.mask)
        if out is not None:
            self.adapter_stats.calls.append(("cq", {}))
            return out
        if len(memo) >= core.CLOSURE_MEMO_LIMIT:
            memo.clear()
        out = memo[y.mask] = self._run("cq", cq_from_emq, y)
        return out

    def smq(self, x: Assignment) -> bool:
        return self._run("smq", smq_from_emq, x)

    def seq(self, hypothesis: HornFormula) -> Assignment | None:
        return self._run("seq", seq_from_eeq_emq, hypothesis)


class EntailmentFromClosure(_Adapter):
    """emq/eeq/smq surface over a teacher answering cq and seq."""

    def emq(self, clause: EntailmentClause) -> bool:
        return self._run("emq", emq_from_cq, clause)

    def eeq(self, hypothesis: HornFormula) -> EntailmentClause | None:
        return self._run("eeq", eeq_from_seq_cq, hypothesis)

    def smq(self, x: Assignment) -> bool:
        return self._run("smq", smq_from_cq, x)


class StandardFromClosure(_Adapter):
    """smq/seq surface over a teacher answering cq and seq.

    Equivalence queries are native to the wrapped protocol and pass through.
    """

    def smq(self, x: Assignment) -> bool:
        return self._run("smq", smq_from_cq, x)

    def seq(self, hypothesis: HornFormula) -> Assignment | None:
        return self._run("seq", _seq, hypothesis)


class ClosureFromStandard(_Adapter):
    """cq/seq surface over a teacher answering smq and seq."""

    def cq(self, y: Assignment) -> Assignment:
        return self._run("cq", cq_from_smq_seq, y)

    def seq(self, hypothesis: HornFormula) -> Assignment | None:
        return self._run("seq", _seq, hypothesis)


@dataclass(frozen=True)
class LowerBoundReport:
    """A membership-only attempt to pin down a closure: the number of
    candidate targets left after each query."""

    initial_candidates: int
    remaining: tuple[int, ...]
    determined: bool
    invariant_held: bool

    @property
    def queries(self) -> int:
        return len(self.remaining)


def lower_bound_demo(n: int) -> LowerBoundReport:
    """Try to determine the closure of the all-zeros assignment with
    membership queries only, against the adversarial teacher.

    Asks every assignment below the top in ascending mask order.  The
    closure is determined once a single candidate target remains, which
    requires ruling out all but one of the 2**n - 1 candidates; the report
    also tracks the invariant `remaining >= initial - queries` at each step.
    """
    if not 2 <= n <= 16:
        raise ValueError("supported arities are 2..16")
    adversary = AdversarialSmqTeacher(n)
    remaining = []
    invariant_held = True
    for mask in range((1 << n) - 1):
        if adversary.remaining_candidates == 1:
            break
        adversary.smq(Assignment(mask, n))
        remaining.append(adversary.remaining_candidates)
        if remaining[-1] < adversary.initial_candidates - adversary.queries:
            invariant_held = False
    return LowerBoundReport(
        initial_candidates=adversary.initial_candidates,
        remaining=tuple(remaining),
        determined=adversary.remaining_candidates == 1,
        invariant_held=invariant_held,
    )
