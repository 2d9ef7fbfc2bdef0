"""Saturation predicates and the canonical (Guigues-Duquenne) basis.

An implication of a formula H is right-saturated when its consequent equals
the closure of its antecedent, left-saturated when its antecedent equals its
own quasi-closure, and saturated when both hold (always with respect to H
itself).  A definite Horn function has at most one fully saturated basis,
which also has the minimum number of implications; the pipeline here
computes it as right-saturate, then left-saturate, then drop redundant
implications.

No stage chains one antecedent at a time.  Both saturations close every
antecedent at once in one row-parallel fixpoint (`_saturate`), with the
implications grouped by consequent.  On saturated input, redundancy is a
containment test between antecedents of one class (`_drop_dominated`).
`gd_basis` skips left saturation's precondition check, since right
saturation has just established it.
"""

from __future__ import annotations

from collections.abc import Sequence

from .core import HornFormula, _bit_list, _derive, _quasi

__all__ = [
    "gd_basis",
    "is_left_saturated",
    "is_right_saturated",
    "is_saturated",
    "left_saturate",
    "remove_redundant",
    "right_saturate",
]


def _transpose(vectors: Sequence[int], width: int) -> list[int]:
    """The bit matrix whose rows are `vectors` (`width` bits each), read by
    column: bit i of `out[j]` is bit j of `vectors[i]`.

    Eight vectors at a time: the binary digits of a vector, read as bytes
    ('0' is 0x30, '1' is 0x31), hold its bits as their low bits, one byte
    per bit; eight vectors, each shifted to its own bit of those bytes, make
    one block, and the blocks are read back per column, one byte each.
    """
    if not vectors:
        return [0] * width
    ones = int.from_bytes(b"\x01" * width, "little")
    spec = f"0{width}b"
    blocks = []
    for k in range(0, len(vectors), 8):
        block = 0
        for shift, v in enumerate(vectors[k : k + 8]):
            block |= (int.from_bytes(format(v, spec).encode(), "big") & ones) << shift
        blocks.append(block.to_bytes(width, "little"))
    return [int.from_bytes(bytes(t), "little") for t in zip(*blocks)]


def _saturate(
    rows: Sequence[int],
    arity: int,
    groups: Sequence[tuple[Sequence[int], int, int]],
) -> list[int]:
    """Chain every row mask at once to its fixpoint under `groups`.

    A group `(antecedents, consequent, allowed)` holds implications with one
    consequent and fires only in the rows set in `allowed`.  The state is
    one int per variable, the column `col[v]`, whose bit r is set when row r
    holds v: an antecedent fires in the AND of its columns, and firing ORs
    those rows into the consequent's columns.  Columns only grow, so a group
    passes on only the rows it has not fired in before.
    """
    col = _transpose(rows, arity)
    walk = [([_bit_list(a) for a in ants], _bit_list(c), ok) for ants, c, ok in groups]
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
            new = hit & ~fired[g]
            if new:
                fired[g] |= new
                for u in cons:
                    col[u] |= new
                changed = True
    return _transpose(col, len(rows))


def _groups(pairs: Sequence[tuple[int, int]]) -> list[tuple[list[int], int, int]]:
    """The pairs grouped by consequent, first-seen order: each group's
    antecedents, its consequent and the mask of its rows (list indices)."""
    rows: dict[int, list[int]] = {}
    for i, (_, c) in enumerate(pairs):
        rows.setdefault(c, []).append(i)
    return [
        ([pairs[i][0] for i in idx], c, sum(1 << i for i in idx))
        for c, idx in rows.items()
    ]


def right_saturate(formula: HornFormula) -> HornFormula:
    """Replace every consequent by the closure of its antecedent.

    One `_saturate` fixpoint closes every antecedent at once.  Row r is the
    mask that starts as antecedent r; column v is the set of rows that hold
    variable v.  Every implication may fire in every row, so row r ends as
    the closure of antecedent r.
    """
    pairs = formula._masks
    ants = [a for a, _ in pairs]
    full = (1 << len(pairs)) - 1
    groups = [(g, c, full) for g, c, _ in _groups(pairs)]
    closed = _saturate(ants, formula.arity, groups)
    return HornFormula._of(formula.arity, zip(ants, closed), formula.names)


def is_right_saturated(formula: HornFormula) -> bool:
    return all(c == formula.close(a) for a, c in formula._masks)


def is_left_saturated(formula: HornFormula) -> bool:
    return all(_quasi(a, formula) == a for a, _ in formula._masks)


def is_saturated(formula: HornFormula) -> bool:
    return is_right_saturated(formula) and is_left_saturated(formula)


def left_saturate(formula: HornFormula) -> HornFormula:
    """Replace every antecedent by its quasi-closure in the input: the
    antecedent chained over the input's implications of other classes.

    Requires a right-saturated input, so each implication's consequent is its
    class.  One map suffices, since a rewrite only grows an antecedent inside
    its class and so never changes another implication's quasi-closure.
    A rewrite keeps the represented function and the closure of the
    antecedent ((quasi-closure)* equals the old closure), so consequents stay
    the classes and the formula stays right-saturated.
    """
    if not is_right_saturated(formula):
        raise ValueError("left_saturate requires a right-saturated formula")
    return _left_saturate(formula)


def _left_saturate(formula: HornFormula) -> HornFormula:
    """`left_saturate` of a right-saturated formula, without the check.

    One `_saturate` fixpoint, rows and columns as in `right_saturate`: row r
    starts as antecedent r and ends as its quasi-closure.  Grouped by
    consequent, the groups are the classes, and each is barred from its own
    rows.  Grouping by class matters: consequents are whole classes, so one
    group per implication would spread and write a large consequent once
    per implication rather than once per class.
    """
    pairs = formula._masks
    full = (1 << len(pairs)) - 1
    groups = [(g, c, full & ~own) for g, c, own in _groups(pairs)]
    quasi = _saturate([a for a, _ in pairs], formula.arity, groups)
    out = zip(quasi, (c for _, c in pairs))
    return HornFormula._of(formula.arity, out, formula.names)


def remove_redundant(formula: HornFormula) -> HornFormula:
    """Drop, in list order, every implication entailed by the remaining ones:
    those kept so far and those not yet visited."""
    kept, later = [], list(formula._masks)
    while later:
        a, c = later.pop(0)
        if c & _derive(a, kept + later, c)[0] != c:
            kept.append((a, c))
    return HornFormula._of(formula.arity, kept, formula.names)


def _drop_dominated(formula: HornFormula) -> HornFormula:
    """`remove_redundant` of a right- and left-saturated formula.

    Lemma: there, `a -> c` is entailed by the other implications iff `a == c`
    or another implication of class `c` has an antecedent inside `a`.
    Proof: `a` is closed under every other-class implication (left
    saturation), so chaining `a` over the others fires only same-class
    implications with antecedents inside `a`; one of them gives `c`.
    Dropping an entailed implication keeps both saturations, so the list-
    order sweep keeps exactly the last copy of each antecedent that differs
    from its class and is minimal among its class's antecedents.
    """
    pairs = formula._masks
    last = {a: i for i, (a, _) in enumerate(pairs)}
    classes: dict[int, list[int]] = {}
    for a, i in last.items():
        classes.setdefault(pairs[i][1], []).append(a)
    keep = []
    for c, ants in classes.items():
        minimal: list[int] = []
        for a in sorted(ants, key=int.bit_count):
            if all(b & a != b for b in minimal):
                minimal.append(a)
        keep += (last[a] for a in minimal if a != c)
    out = [pairs[i] for i in sorted(keep)]
    return HornFormula._of(formula.arity, out, formula.names)


def gd_basis(formula: HornFormula) -> HornFormula:
    """The unique saturated, minimum-size implication basis of the formula.

    Equivalent inputs yield the same implication set, whatever their
    ordering or redundancy.  Right saturation makes every consequent the
    class of its antecedent, so left saturation runs without re-checking
    that, and redundancy is the containment test of `_drop_dominated`.
    """
    return _drop_dominated(_left_saturate(right_saturate(formula)))
