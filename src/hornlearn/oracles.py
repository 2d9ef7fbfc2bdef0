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
the hypothesis).  Only that negative side walks the target's implications,
in list order and reusing derivations from earlier queries: a derivation
that reached its goal is skipped while its pairs remain, and the fixpoint
of one that did not is kept while no pair that entered since the last
complete scan fires on it (incremental forward chaining, as in Dowling &
Gallier 1984, carried across queries).  Every closure the
teacher reads goes through the target's canonical basis instead (see
:class:`Teacher`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from .basis import gd_basis
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

# the "minimal" strategy enumerates candidate clauses; keep it to small arities
MINIMAL_STRATEGY_MAX_ARITY = 12


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

    `strategy` picks among valid counterexamples: "first" scans implications
    in list order, "random" draws uniformly from the candidates (a seed is
    required), "minimal" returns a bitwise-minimal counterexample and is
    available only for arities up to MINIMAL_STRATEGY_MAX_ARITY.

    Every answer that is a closure read - membership (x is a model iff its
    closure is x), closure, entailment, the hypothesis side of an
    equivalence answer and the "minimal" clause search - closes through
    `_basis`, the target's GD basis, built once here.  Closures depend only
    on the represented function, and the basis is the smallest formula for
    it, with closed consequents, so it chains faster than the target; the
    answers are the same.  The teacher holds that basis (at most m pairs)
    and its one bounded closure memo; the target's own memo stays empty.
    The build is a fixed cost per teacher: about 0.1-0.15 ms on a tiny
    target (n below 10), about 10 ms at n=100, m=400.

    Equivalence answers reuse derivations across queries, one slot per
    target implication `a -> c`:
    - `_proofs[j]`, when the hypothesis entailed it, is the set of
      hypothesis pairs that derived `c`; the slot is skipped while they all
      remain, at the cost of one subset test.
    - `_stuck[j]`, when it did not, is `(w, used)`: the fixpoint `w`
      chaining reached from `a` and the pairs `used` that built it.
    A stuck slot follows one rule.  Its gap is read off `w`, with no
    chaining, if the last scan ran to the end, every pair of `used` is
    still in the hypothesis, and no pair that has entered since that scan
    fires on `w`; otherwise it is derived from `a` again.  A complete scan
    visits every slot and leaves each stuck `w` closed under that scan's
    hypothesis, whose pair set it keeps in `_last`.  While `used` remains,
    `w` lies below the new closure of `a`; the pairs of `_last` do not fire
    on `w`, so if no entered pair does either, `w` is that closure.  A scan
    that "first" abandons at its first gap leaves `_last` None, since the
    slots behind the gap were not read.  Nothing is assumed of the
    hypothesis sequence, so every answer is that of a scan from scratch.
    The state is one slot per target implication, each pair set at most
    `arity` pairs (every stored pair added a bit to the derivation), plus
    one hypothesis pair set.

    Counters and proofs mutate, so confine an instance to one logical
    thread; the target itself is never modified.
    """

    def __init__(
        self, target: HornFormula, strategy: str = "first", seed: int | None = None
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}, pick one of {STRATEGIES}")
        if strategy == "random" and seed is None:
            raise ValueError("the random strategy needs an explicit seed")
        if strategy == "minimal" and target.arity > MINIMAL_STRATEGY_MAX_ARITY:
            raise ValueError(
                f"minimal strategy supports arity <= {MINIMAL_STRATEGY_MAX_ARITY}"
            )
        self.target = target
        self.strategy = strategy
        self.stats = QueryStats()
        self._rng = random.Random(seed) if seed is not None else None
        self._proofs: list[frozenset | None] = [None] * len(target)
        self._stuck: list[tuple[int, frozenset] | None] = [None] * len(target)
        self._last: set[tuple[int, int]] | None = None
        self._basis = gd_basis(target)

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
        return Assignment(self._basis.close(y.mask), self.target.arity)

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
        if self.strategy == "minimal":
            return self._minimal_clause(hypothesis)
        found = self._counterexample(hypothesis)
        if found is None:
            return None
        a, _, gap = found
        if self.strategy == "random":
            head = self._rng.choice(_bit_list(gap))
        else:
            head = _low_bit(gap)
        return EntailmentClause._of(a, head)

    def _counterexample(self, hyp: HornFormula) -> tuple[int, int, int] | None:
        """One `(a, w, gap)`, negative side first, picked by the strategy.

        The negative side comes first: a target implication `a -> c` that the
        hypothesis does not entail gives `w = hyp.close(a)`, which satisfies
        the hypothesis and falsifies the target.  The positive side walks the
        hypothesis and closes through the basis, whose closures are the
        target's.  "first" stops at the first gap, "random" draws one gap of
        the side, "minimal" takes the gap with the bitwise-minimal `w`: every
        counterexample contains the closure of some violated implication's
        antecedent, so the bitwise-minimal ones are minimal elements of these
        closures themselves.
        """
        n = self.target.arity
        sides = (self._negative_gaps(hyp), _gaps(hyp, self._basis))
        for side in sides:
            if self.strategy == "first":
                found = next(side, None)
                if found is not None:
                    return found
            elif gaps := list(side):
                if self.strategy == "random":
                    return self._rng.choice(gaps)
                return min(gaps, key=lambda t: (t[1].bit_count(), _lex_key(t[1], n)))
        return None

    def _negative_gaps(self, hyp: HornFormula) -> Iterator[tuple[int, int, int]]:
        """`core._gaps(self.target, hyp)`, skipping each target implication
        whose proof still holds, reading a stuck gap off `w` where the last
        complete scan vouches for it (see :class:`Teacher`), and deriving
        the rest from `a`.  `_last` is None until the scan runs to its end."""
        pairs, have = hyp._masks, set(hyp._masks)
        last, self._last = self._last, None
        entered = None if last is None else have - last
        proofs, stuck = self._proofs, self._stuck
        for j, (a, c) in enumerate(self.target._masks):
            if proofs[j] is not None and proofs[j] <= have:
                continue
            if entered is not None and stuck[j] is not None:
                w, used = stuck[j]
                if used <= have:
                    for x, y in entered:
                        if x & w == x and y & ~w:
                            break
                    else:
                        yield a, w, c & ~w
                        continue
            w, used = _derive(a, pairs, c)
            gap = c & ~w
            if gap:
                proofs[j], stuck[j] = None, (w, frozenset(used))
                yield a, w, gap
            else:
                proofs[j], stuck[j] = frozenset(used), None
        self._last = have

    def _minimal_clause(self, hyp: HornFormula) -> EntailmentClause | None:
        # ascending antecedents (by size, then position), smallest head wins
        n = self.target.arity
        for size in range(n + 1):
            for combo in itertools.combinations(range(n), size):
                mask = sum(1 << v for v in combo)
                gap = self._basis.close(mask) ^ hyp.close(mask)
                if gap:
                    return EntailmentClause._of(mask, _low_bit(gap))
        return None


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
