"""Teachers answering the five query protocols against a hidden target.

Query kinds, named by their classic protocol ids:

* ``smq`` - standard membership: does this assignment satisfy the target?
* ``seq`` - standard equivalence: an assignment satisfying exactly one of
  hypothesis and target, or None for YES.
* ``cq``  - closure: the least superset of the queried assignment that
  satisfies the target.
* ``emq`` - entailment membership: does the target entail this clause?
* ``eeq`` - entailment equivalence: a clause entailed by exactly one of
  hypothesis and target, or None for YES.

A :class:`Teacher` wraps an immutable target formula with per-protocol
answer logic, query counters and a counterexample-selection strategy.
Equivalence-style answers prefer negative counterexamples (ones satisfying
the hypothesis), and `seq` and `eeq` pick the same one under every
strategy, which `eeq` states as a clause with its lowest head.  That
negative side reads one record per implication of the target under
"first", whose pick follows the target's list order, and of the target's
canonical basis under "random" and "minimal".  The records are carried
across queries and kept exact by bit-mask bookkeeping: a query re-derives
only the records its hypothesis change may have broken (incremental forward
chaining, as in Dowling & Gallier 1984, carried across queries), and never
walks the others.  A closure query whose
assignment is already closed is answered with that assignment itself.
Every closure the teacher reads goes through the target's canonical basis
(see :class:`Teacher`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .basis import _columns, gd_basis
from .core import (
    Assignment,
    EntailmentClause,
    HornFormula,
    _bit_list,
    _check_length,
    _check_same_arity,
    _derive,
    _gaps,
    _lex_key,
    _low_bit,
    entails,
    satisfies,
)

__all__ = [
    "AdversarialSmqTeacher",
    "QueryStats",
    "Teacher",
    "family_member",
]

STRATEGIES = ("first", "random", "minimal")


@dataclass
class QueryStats:
    """Monotone per-protocol query counters.

    The one list of query kinds: the fields are declared in the order in
    which the CLI prints them and ``hornlearn bench`` writes its columns,
    and `as_dict` and `copy` follow that order.
    """

    seq: int = 0
    cq: int = 0
    smq: int = 0
    emq: int = 0
    eeq: int = 0

    def copy(self) -> "QueryStats":
        return QueryStats(**self.__dict__)

    def as_dict(self) -> dict[str, int]:
        return self.__dict__.copy()


class Teacher:
    """Answers queries about a fixed target definite Horn formula.

    `strategy` picks among valid counterexamples, one rule for `seq` and
    `eeq` (`_counterexample`): "first" scans the target's implications in
    list order, "random" draws uniformly from the candidates (a seed is
    required), "minimal" takes the gap whose assignment `w` is
    bitwise-minimal.  `seq` answers with `w`, `eeq` with the clause from the
    gap implication's antecedent to the lowest consequent variable outside
    `w`.

    Every answer that is a closure read - membership (x is a model iff its
    closure is x), closure, entailment and the hypothesis side of an
    equivalence answer - closes through `_basis`, the target's GD basis,
    built once here.  Closures depend only on the represented function,
    and the basis is the smallest formula for it, with closed consequents,
    so it chains faster than the target; the answers are the same.  The
    teacher holds that basis (at most m pairs) and its one bounded closure
    memo; the target's own memo stays empty.
    The build is a fixed cost per teacher: about 0.07-0.15 ms on a tiny
    target (n below 10), about 3-7 ms at n=100, m=400 (Python 3.11).

    Equivalence answers keep one record per implication `a -> c` (slot j)
    of `_slots`: the target's implications under "first", whose answer is
    defined by their list order, and the basis's under "random" and
    "minimal", where the candidates are any gaps of an equivalent formula.
    Under "random" the draw is then uniform over the basis's gaps (93
    records at n=100, m=400, instead of 400), and under "minimal" the
    assignment `w` is the same over either formula: every negative
    counterexample violates some basis implication.  An `eeq` clause's
    antecedent and head still come from the slot's implication, here a
    basis implication (quasi-closed antecedent, closed consequent), so a
    direct `eeq` answer can differ from one read off the target's list.
    A record is the result of its slot's last derivation
    `_derive(a, pairs, c)`: `_w[j]`, the mask it reached, and `_used[j]`,
    the pairs that fired.  Every record holds for `_have`, the pair set of
    the hypothesis that `_sync` last read: chaining `a` over
    `used` reaches `w`, and `w` is the closure of `a` whenever `c` is not
    inside it.  A new teacher's records are the derivations under the
    empty hypothesis (`w = a`, nothing used), so a learner's first, empty
    hypothesis derives nothing.  Int masks over the slots, bit j for slot
    j, index the records:
    - `_gapbits`: the gap records (`c` not inside `w`);
    - `_users[pair]`: the records whose `used` holds `pair`, for the pairs
      of `_have` only;
    - `_cols[v]`: the gap records whose `w` holds variable v, kept by XOR
      of the old and new `w` at each derivation.
    Each SEQ/EEQ re-derives only the records the hypothesis change may have
    broken (`_sync`), then `_counterexample` picks off `_gapbits`.  Nothing
    is assumed of the hypothesis sequence, so every answer is that of a scan
    from scratch.  The state is one record per slot, each `used` at most
    `arity` pairs (every stored pair added a bit to the derivation), the
    masks, and `_have`; `_users` holds only pairs of `_have`.

    Counters and records mutate, so confine an instance to one logical
    thread; the target itself is never modified.
    """

    def __init__(
        self, target: HornFormula, strategy: str = "first", seed: int | None = None
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}, pick one of {STRATEGIES}")
        if strategy == "random" and seed is None:
            raise ValueError("the random strategy needs an explicit seed")
        self.target = target
        self.strategy = strategy
        self.stats = QueryStats()
        self._rng = random.Random(seed) if seed is not None else None
        self._basis = gd_basis(target)
        self._slots = target._masks if strategy == "first" else self._basis._masks
        masks = self._slots
        self._w = [a for a, _ in masks]
        self._used: list[list[tuple[int, int]]] = [[] for _ in masks]
        self._gapbits = sum(1 << j for j, (a, c) in enumerate(masks) if c & ~a)
        self._users: dict[tuple[int, int], int] = {}
        self._cols = _columns([a if c & ~a else 0 for a, c in masks], target.arity)[1]
        self._have: set[tuple[int, int]] = set()

    @property
    def arity(self) -> int:
        return self.target.arity

    def smq(self, x: Assignment) -> bool:
        answer = satisfies(x, self._basis)  # validates the length
        self.stats.smq += 1
        return answer

    def cq(self, y: Assignment) -> Assignment:
        _check_length(y, self.target.arity)
        self.stats.cq += 1
        closed = self._basis.close(y.mask)
        return y if closed == y.mask else Assignment(closed, y.n)

    def emq(self, clause: EntailmentClause) -> bool:
        answer = entails(self._basis, clause)  # validates the clause
        self.stats.emq += 1
        return answer

    def seq(self, hypothesis: HornFormula) -> Assignment | None:
        _check_same_arity(self.target, hypothesis)
        self.stats.seq += 1
        found = self._counterexample(hypothesis)
        return None if found is None else Assignment(found[1], self.arity)

    def eeq(self, hypothesis: HornFormula) -> EntailmentClause | None:
        _check_same_arity(self.target, hypothesis)
        self.stats.eeq += 1
        found = self._counterexample(hypothesis)
        if found is None:
            return None
        a, _, gap = found
        return EntailmentClause._of(a, _low_bit(gap))

    def _counterexample(self, hyp: HornFormula) -> tuple[int, int, int] | None:
        """One `(a, w, gap)`, negative side first, picked by the strategy.

        The negative side comes first: a slot's implication `a -> c` that
        the hypothesis does not entail gives `w = hyp.close(a)`, which
        satisfies the hypothesis and falsifies the target; it is read off
        the slot records (`_sync`), the same candidates in the same order as
        a scan of `_gaps(HornFormula._of(arity, self._slots), hyp)`.  The
        positive side walks the hypothesis and closes through the basis,
        whose closures are the target's.
        "first" takes the first gap in list order, "random" draws one gap of
        the side (the k-th gap slot, with the call `rng.choice` makes on the
        list of gaps), "minimal" takes the gap with the bitwise-minimal `w`:
        every counterexample contains the closure of some violated
        implication's antecedent, so the bitwise-minimal ones are minimal
        elements of these closures themselves.
        """
        gaps = self._sync(hyp)
        if gaps and self.strategy != "minimal":
            if self.strategy == "random":
                for _ in range(self._rng.choice(range(gaps.bit_count()))):
                    gaps &= gaps - 1
            return self._record(_low_bit(gaps))
        # what is left: "minimal" over the gap slots, or the positive side
        side = map(self._record, _bit_list(gaps)) if gaps else _gaps(hyp, self._basis)
        if self.strategy == "first":
            return next(side, None)
        found = list(side)
        if not found:
            return None
        if self.strategy == "random":
            return self._rng.choice(found)
        n = self.target.arity
        return min(found, key=lambda t: (t[1].bit_count(), _lex_key(t[1], n)))

    def _record(self, j: int) -> tuple[int, int, int]:
        a, c = self._slots[j]
        w = self._w[j]
        return a, w, c & ~w

    def _sync(self, hyp: HornFormula) -> int:
        """Brings the records from `_have` to `hyp` and returns `_gapbits`,
        the mask of the gap slots (0 if `hyp` entails every slot).

        Re-derives only the slots that may not hold.  A record that used a
        departed pair is found through `_users`.  A gap record keeps `w`, the
        closure of `a` under the previous hypothesis: the pairs that stayed do
        not fire on it, so it is the closure under `hyp` unless an entered
        pair `(x, y)` fires on it, and the gap slots whose `w` holds `x` are
        the AND of `x`'s columns.  An entailed record holds while its `used`
        remains, since adding pairs only grows a closure.
        """
        have = set(hyp._masks)
        last, self._have = self._have, have
        pairs, masks = hyp._masks, self._slots
        ws, useds, users, cols = self._w, self._used, self._users, self._cols
        todo = 0
        for pair in last - have:
            todo |= users.pop(pair, 0)
        gaps = self._gapbits
        for x, y in have - last:
            fired = gaps & ~todo
            while x and fired:
                bit = x & -x
                fired &= cols[bit.bit_length() - 1]
                x ^= bit
            while fired:
                low = fired & -fired
                if y & ~ws[low.bit_length() - 1]:
                    todo |= low
                fired ^= low
        gaps &= ~todo
        while todo:
            low = todo & -todo
            todo ^= low
            j = low.bit_length() - 1
            a, c = masks[j]
            old = ws[j]
            w, used = _derive(a, pairs, c)
            for pair in useds[j]:
                if pair in users:
                    users[pair] &= ~low
            for pair in used:
                users[pair] = users.get(pair, 0) | low
            ws[j], useds[j] = w, used
            gap = c & ~w
            diff = (old if c & ~old else 0) ^ (w if gap else 0)
            while diff:
                bit = diff & -diff
                cols[bit.bit_length() - 1] ^= low
                diff ^= bit
            if gap:
                gaps |= low
        self._gapbits = gaps
        return gaps


class AdversarialSmqTeacher:
    """A membership oracle that commits to no target until forced.

    Answers are positive only for the all-ones assignment.  The still
    consistent candidate targets are the two-model functions `family_member(x)`
    for the assignments x not yet queried; each distinct query below the top
    rules out exactly one of them, so pinning down the closure of the
    all-zeros assignment costs an exponential number of queries.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        self.queries = 0
        self._ruled_out: set[int] = set()

    @property
    def initial_candidates(self) -> int:
        return (1 << self.n) - 1

    @property
    def remaining_candidates(self) -> int:
        return self.initial_candidates - len(self._ruled_out)

    def smq(self, x: Assignment) -> bool:
        _check_length(x, self.n)
        self.queries += 1
        if x.mask == (1 << self.n) - 1:
            return True
        self._ruled_out.add(x.mask)
        return False

    def is_ruled_out(self, x: Assignment) -> bool:
        return x.mask in self._ruled_out


def family_member(x: Assignment) -> HornFormula:
    """The definite Horn formula whose only models are `x` and the top.

    Variables set in x are forced unconditionally; any variable outside x
    pulls in everything.  Undefined for the all-ones assignment, whose
    formula would need just one model.
    """
    n = x.n
    full = (1 << n) - 1
    if x.mask == full:
        raise ValueError("no two-model formula exists for the all-ones assignment")
    pairs = [(0, 1 << v) for v in _bit_list(x.mask)]
    pairs += [(1 << w, full) for w in _bit_list(full & ~x.mask)]
    return HornFormula._of(n, pairs)
