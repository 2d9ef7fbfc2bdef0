"""Saturation predicates and the canonical (Guigues-Duquenne) basis.

An implication of a formula H is right-saturated when its consequent equals
the closure of its antecedent, left-saturated when its antecedent equals its
own quasi-closure, and saturated when both hold (always with respect to H
itself).  A definite Horn function has at most one fully saturated basis,
which also has the minimum number of implications; the pipeline here
computes it as right-saturate, then left-saturate, then drop redundant
implications.

No stage chains one antecedent at a time.  Both saturations close every
antecedent at once in one row-parallel fixpoint (`_saturate`) over bit
columns built once from the antecedents' bit lists (`_columns`) and read
back as rows only at the end; `gd_basis` shares one build between the two.
On saturated input, redundancy is a containment test between antecedents
of one class (`_drop_dominated`).
"""

from __future__ import annotations

from collections.abc import Sequence

from .core import HornFormula, _bit_list, _derive, _quasi

_Bits = Sequence[Sequence[int]]

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

    The binary digits of the vectors, last vector first, make one string;
    every `width`-th digit of it, read as a binary number, is one column.
    """
    if not vectors:
        return [0] * width
    digits = "".join([format(v, f"0{width}b") for v in reversed(vectors)])
    return [int(digits[i::width], 2) for i in range(width - 1, -1, -1)]


def _columns(rows: Sequence[int], arity: int) -> tuple[list[list[int]], list[int]]:
    """Each row's bit list, and the rows read by column straight from those
    lists: bit r of `col[v]` is bit v of `rows[r]`."""
    bits = [_bit_list(a) for a in rows]
    col = [0] * arity
    for r, row in enumerate(bits):
        for v in row:
            col[v] |= 1 << r
    return bits, col


def _rows_by(keys: Sequence[int]) -> dict[int, list[int]]:
    """The row indices of each key, first-seen order."""
    rows: dict[int, list[int]] = {}
    for r, k in enumerate(keys):
        rows.setdefault(k, []).append(r)
    return rows


def _saturate(
    bits: _Bits, col: list[int], groups: Sequence[tuple[Sequence[int], int, int]]
) -> list[int]:
    """Chain every row at once to its fixpoint under `groups`, in place in
    the columns `col` of the rows `bits`; returns the rows.  A group
    `(rows, consequent, allowed)` holds the implications with antecedents
    `bits[r]` for r in `rows`, and fires only in the rows set in `allowed`:
    an antecedent holds in the AND of its columns, and firing ORs those rows
    into the consequent's columns.  Columns only grow, so a group's hit only
    grows, and it passes on only what it gained since it last fired (XOR).
    """
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
                    if not t:
                        break
                hit |= t
            new = hit ^ fired[g]
            if new:
                fired[g] = hit
                for u in cons:
                    col[u] |= new
                changed = True
    return _transpose(col, len(bits))


def _closures(bits: _Bits, col: list[int], cons: Sequence[int]) -> list[int]:
    """Right saturation: grouped by consequent, every implication fires in
    every row, so row r ends as the closure of antecedent r."""
    full = (1 << len(bits)) - 1
    return _saturate(bits, col, [(rs, c, full) for c, rs in _rows_by(cons).items()])


def _quasi_closures(bits: _Bits, col: list[int], classes: Sequence[int]) -> list[int]:
    """Left saturation: grouped by class, each barred from its own rows, so
    row r ends as the quasi-closure of antecedent r."""
    full = (1 << len(bits)) - 1
    own = _rows_by(classes).items()
    groups = [(rs, c, full & ~sum(1 << r for r in rs)) for c, rs in own]
    return _saturate(bits, col, groups)


def right_saturate(formula: HornFormula) -> HornFormula:
    """Replace every consequent by the closure of its antecedent."""
    ants, cons = [a for a, _ in formula._masks], [c for _, c in formula._masks]
    closed = _closures(*_columns(ants, formula.arity), cons)
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
    """`left_saturate` of a right-saturated formula, without the check."""
    ants, classes = [a for a, _ in formula._masks], [c for _, c in formula._masks]
    quasi = _quasi_closures(*_columns(ants, formula.arity), classes)
    return HornFormula._of(formula.arity, zip(quasi, classes), formula.names)


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


def gd_basis(formula: HornFormula) -> HornFormula:
    """The unique saturated, minimum-size implication basis of the formula.

    Equivalent inputs yield the same implication set, whatever their
    ordering or redundancy.  Both saturations start from the antecedents,
    so they share one column build (right saturation works on a copy).
    Right saturation makes every consequent the class of its antecedent, so
    left saturation runs without re-checking that, and redundancy is the
    containment test of `_drop_dominated`.
    """
    bits, col = _columns([a for a, _ in formula._masks], formula.arity)
    closed = _closures(bits, col[:], [c for _, c in formula._masks])
    quasi = _quasi_closures(bits, col, closed)
    out = HornFormula._of(formula.arity, zip(quasi, closed), formula.names)
    return _drop_dominated(out)
