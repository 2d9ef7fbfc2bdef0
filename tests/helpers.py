"""Shared builders and brute-force oracles for the test suite.

The brute-force pieces deliberately avoid the library's forward-chaining
code: satisfaction is evaluated straight from the implication definition,
closures come from meets of enumerated models, so they can serve as
independent ground truth.  `FreshScanTeacher` is a reference of another
kind: a teacher whose equivalence answers chain from scratch on every
query, for the slot records that `Teacher` carries across queries, and
`reference_masks` is the random generator written with `Random.randint`
and `Random.sample`, for the bit draws of `random_formula`, and
`reference_gd_basis` is the canonical basis built with a full transpose of
every row, a fixpoint on one column per variable and a pairwise
containment test for redundancy, for the unit classes and the column-based
redundancy test of `gd_basis`.  `ScriptedTeacher` is a teacher with no
target at all, for the tests of what a learner or a simulation does when
the answers break their protocol.
"""

from __future__ import annotations

import random

import pytest

from hornlearn import (
    Assignment,
    GenConfig,
    HornFormula,
    Implication,
    QueryStats,
    Teacher,
    gd_basis,
)
from hornlearn.core import _bit_list, _gaps, _mask_of

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def vs(letters: str) -> frozenset[int]:
    """Variable set from letters: vs("ac") == {0, 2}."""
    return frozenset(LETTERS.index(ch) for ch in letters)


def imp(antecedent: str, consequent: str) -> Implication:
    return Implication(vs(antecedent), vs(consequent))


def formula(arity: int, *imps: tuple[str, str]) -> HornFormula:
    return HornFormula(arity, [imp(a, c) for a, c in imps])


def asg(bits: str) -> Assignment:
    return Assignment.from_string(bits)


def reference_masks(config: GenConfig) -> tuple[tuple[int, int], ...]:
    """The mask pairs of `random_formula(config)`, drawn by `randint` sizes
    and `sample(range(arity), size)` picks from one `Random(config.seed)`."""
    rng = random.Random(config.seed)
    alo, ahi = config.antecedent_sizes
    clo, chi = config.consequent_sizes
    variables = range(config.arity)
    pairs = []
    for _ in range(config.count):
        ant = rng.sample(variables, rng.randint(alo, ahi))
        con = rng.sample(variables, rng.randint(clo, chi))
        pairs.append((_mask_of(ant), _mask_of(con)))
    return tuple(pairs)


def lex_key(mask: int, n: int) -> int:
    key = 0
    for i in range(n):
        key = (key << 1) | ((mask >> i) & 1)
    return key


def pending_list_derive(
    mask: int, pairs: list[tuple[int, int]], goal: int
) -> tuple[int, list[tuple[int, int]]]:
    """`core._derive` with a pending list: each pass drops the pairs whose
    antecedent already holds from the later passes.  The reference for the
    firing order of `_derive`'s plain passes."""
    used = []
    pending = list(pairs)
    fired = True
    while fired and pending and goal & mask != goal:
        fired = False
        rest = []
        for a, c in pending:
            if a & mask == a:
                if c | mask != mask:
                    mask |= c
                    used.append((a, c))
                    fired = True
                    if goal & mask == goal:
                        break
            else:
                rest.append((a, c))
        pending = rest
    return mask, used


def imp_masks(f: HornFormula) -> list[tuple[int, int]]:
    return [
        (
            sum(1 << v for v in i.antecedent),
            sum(1 << v for v in i.consequent),
        )
        for i in f.implications
    ]


def brute_model_masks(f: HornFormula) -> list[int]:
    """Satisfying assignments by direct per-mask evaluation, ascending masks."""
    pairs = imp_masks(f)
    out = []
    for mask in range(1 << f.arity):
        if all(not (a & mask == a and c & mask != c) for a, c in pairs):
            out.append(mask)
    return out


def model_table(f: HornFormula) -> int:
    """Big-int model indicator: bit z is set iff assignment z satisfies f.

    Walks the supersets of each antecedent and clears the violating ones,
    which is much faster than a full scan for formulas with few implications.
    """
    n = f.arity
    table = (1 << (1 << n)) - 1
    for a, c in imp_masks(f):
        free = ((1 << n) - 1) & ~a
        s = free
        while True:
            x = a | s
            if c & x != c:
                table &= ~(1 << x)
            if s == 0:
                break
            s = (s - 1) & free
    return table


def brute_equivalent(f: HornFormula, g: HornFormula) -> bool:
    assert f.arity == g.arity
    return model_table(f) == model_table(g)


def brute_closure_mask(mask: int, f: HornFormula) -> int:
    """Closure as the meet of all models above `mask` (no forward chaining)."""
    out = (1 << f.arity) - 1
    for m in brute_model_masks(f):
        if m & mask == mask:
            out &= m
    return out


def superset_meets(model_masks: list[int], n: int) -> list[int]:
    """For every z, the meet of all given masks above z (-1 when none)."""
    size = 1 << n
    meets = [-1] * size
    for m in model_masks:
        meets[m] = m
    for i in range(n):
        bit = 1 << i
        for z in range(size):
            if not z & bit:
                src = meets[z | bit]
                if src != -1:
                    cur = meets[z]
                    meets[z] = src if cur == -1 else cur & src
    return meets


def augment(f: HornFormula, rng: random.Random, extra: int = 3) -> HornFormula:
    """An equivalent formula: adds implications entailed by f, then shuffles.

    Each added implication draws a random antecedent and a nonempty subset
    of its closure as consequent, so the represented function is unchanged.
    """
    from hornlearn import closure

    n = f.arity
    imps = list(f.implications)
    for _ in range(extra):
        ant = frozenset(rng.sample(range(n), rng.randint(0, min(3, n))))
        closed = sorted(closure(ant, f))
        if not closed:
            continue
        size = rng.randint(1, len(closed))
        imps.append(Implication(ant, frozenset(rng.sample(closed, size))))
    rng.shuffle(imps)
    return HornFormula(n, imps, f.names)


def record_formula(target, strategy):
    """The formula whose implications a teacher's slot records follow: the
    target itself under "first", its canonical basis otherwise."""
    return target if strategy == "first" else gd_basis(target)


def fresh_gap(target, hyp, strategy, rng):
    """The `(a, w, gap)` a teacher picks for `hyp`, from a scan from scratch
    of `_gaps(record_formula(target, strategy), hyp)`, then of
    `_gaps(hyp, target)`: on the first side with a gap, "first" takes the
    first, "random" `rng.choice` of the list, "minimal" the one with the
    bitwise-minimal `w`; None if there is none."""
    n = target.arity
    negative = record_formula(target, strategy)
    for side in (list(_gaps(negative, hyp)), list(_gaps(hyp, target))):
        if side:
            if strategy == "first":
                return side[0]
            if strategy == "random":
                return rng.choice(side)
            return min(side, key=lambda t: (t[1].bit_count(), lex_key(t[1], n)))
    return None


class FreshScanTeacher(Teacher):
    """`Teacher` with no slot records: each equivalence answer is
    `fresh_gap`, which draws from the generator exactly as often.  The
    reference for the records."""

    def _counterexample(self, hyp):
        return fresh_gap(self.target, hyp, self.strategy, self._rng)


class ScriptedTeacher:
    """A teacher-shaped double with canned answers: each query kind it is
    given (`seq`, `cq`, `smq`, `eeq`, `emq`) answers with its own function
    of the query, and its `stats` count as a teacher's do.  More than `cap`
    queries in all fail the test, so a run that never gives up fails
    instead of hanging."""

    def __init__(self, arity=3, cap=20, **answers):
        self.arity, self.stats = arity, QueryStats()
        self._cap, self._answers = cap, answers

    def _ask(self, kind, query):
        setattr(self.stats, kind, getattr(self.stats, kind) + 1)
        if sum(self.stats.as_dict().values()) > self._cap:
            pytest.fail(f"more than {self._cap} queries: the run never gave up")
        return self._answers[kind](query)

    def seq(self, hypothesis):
        return self._ask("seq", hypothesis)

    def cq(self, y):
        return self._ask("cq", y)

    def smq(self, x):
        return self._ask("smq", x)

    def eeq(self, hypothesis):
        return self._ask("eeq", hypothesis)

    def emq(self, clause):
        return self._ask("emq", clause)


def in_turn(*answers):
    """An answer function that returns `answers` one per call, then None
    (YES to an equivalence query)."""
    rest = iter(answers)
    return lambda query: next(rest, None)


def transpose(vectors: list[int], width: int) -> list[int]:
    """The bit matrix whose rows are `vectors` (`width` bits each), read by
    column: bit i of `out[j]` is bit j of `vectors[i]`."""
    if not vectors:
        return [0] * width
    digits = "".join([format(v, f"0{width}b") for v in reversed(vectors)])
    return [int(digits[i::width], 2) for i in range(width - 1, -1, -1)]


def _rows_by(keys: list[int]) -> dict[int, list[int]]:
    rows: dict[int, list[int]] = {}
    for r, k in enumerate(keys):
        rows.setdefault(k, []).append(r)
    return rows


def _saturate_rows(bits, col, groups) -> list[int]:
    """Every row chained to its fixpoint under `groups` `(rows, consequent,
    allowed)`, one column per variable, until a pass fires no group."""
    walk = [([bits[r] for r in rows], _bit_list(c), ok) for rows, c, ok in groups]
    fired = [0] * len(walk)
    changed = True
    while changed:
        changed = False
        for g, (ants, cons, allowed) in enumerate(walk):
            hit = 0
            for a in ants:
                t = allowed
                for v in a:
                    t &= col[v]
                hit |= t
            new = hit ^ fired[g]
            if new:
                fired[g] = hit
                for u in cons:
                    col[u] |= new
                changed = True
    return transpose(col, len(bits))


def drop_dominated(formula: HornFormula) -> HornFormula:
    """`remove_redundant` of a right- and left-saturated formula: the last
    copy of each antecedent that differs from its class and is minimal
    among its class's antecedents, by a pairwise containment test."""
    pairs = formula._masks
    last = {a: i for i, (a, _) in enumerate(pairs)}
    ants = list(last)
    keep = []
    for c, rows in _rows_by([pairs[i][1] for i in last.values()]).items():
        minimal: list[int] = []
        for a in sorted((ants[r] for r in rows), key=int.bit_count):
            for b in minimal:
                if b & a == b:
                    break
            else:
                minimal.append(a)
        keep += (last[a] for a in minimal if a != c)
    out = [pairs[i] for i in sorted(keep)]
    return HornFormula._of(formula.arity, out, formula.names)


def reference_gd_basis(formula: HornFormula) -> HornFormula:
    """The canonical basis: closures and then quasi-closures of every
    antecedent on one column per variable, then `drop_dominated`."""
    pairs = formula._masks
    bits = [_bit_list(a) for a, _ in pairs]
    col = transpose([a for a, _ in pairs], formula.arity)
    full = (1 << len(pairs)) - 1
    by_cons = _rows_by([c for _, c in pairs]).items()
    closed = _saturate_rows(bits, col[:], [(rs, c, full) for c, rs in by_cons])
    own = _rows_by(closed).items()
    groups = [(rs, c, full & ~sum(1 << r for r in rs)) for c, rs in own]
    quasi = _saturate_rows(bits, col, groups)
    saturated = HornFormula._of(formula.arity, zip(quasi, closed), formula.names)
    return drop_dominated(saturated)
