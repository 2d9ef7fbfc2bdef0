"""Shared builders and brute-force oracles for the test suite.

The brute-force pieces deliberately avoid the library's forward-chaining
code: satisfaction is evaluated straight from the implication definition,
closures come from meets of enumerated models, so they can serve as
independent ground truth.  `FreshScanTeacher` is a reference of another
kind: a teacher whose equivalence answers chain from scratch on every
query, for the slot records that `Teacher` carries across queries, and
`reference_masks` is the random generator written with `Random.randint`
and `Random.sample`, for the bit draws of `random_formula`.
"""

from __future__ import annotations

import random

from hornlearn import Assignment, GenConfig, HornFormula, Implication, Teacher
from hornlearn.core import _gaps, _mask_of

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


def fresh_gap(target, hyp, strategy, rng):
    """The `(a, w, gap)` a teacher picks for `hyp`, from a scan from scratch
    of `_gaps(target, hyp)`, then of `_gaps(hyp, target)`: on the first side
    with a gap, "first" takes the first, "random" `rng.choice` of the list,
    "minimal" the one with the bitwise-minimal `w`; None if there is none."""
    n = target.arity
    for side in (list(_gaps(target, hyp)), list(_gaps(hyp, target))):
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
