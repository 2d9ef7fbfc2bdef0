"""Saturation predicates and the canonical (Guigues-Duquenne) basis.

An implication of a formula H is right-saturated when its consequent equals
the closure of its antecedent, left-saturated when its antecedent equals its
own quasi-closure, and saturated when both hold (always with respect to H
itself).  A definite Horn function has at most one fully saturated basis,
which also has the minimum number of implications; the pipeline here
computes it as right-saturate, then left-saturate, then drop redundant
implications.
"""

from __future__ import annotations

from .core import HornFormula, _chain, _quasi


def right_saturate(formula: HornFormula) -> HornFormula:
    """Replace every consequent by the closure of its antecedent."""
    pairs = [(a, formula.close(a)) for a, _ in formula._masks]
    return HornFormula._of(formula.arity, pairs, formula.names)


def is_right_saturated(formula: HornFormula) -> bool:
    return all(c == formula.close(a) for a, c in formula._masks)


def is_left_saturated(formula: HornFormula) -> bool:
    return all(_quasi(a, formula) == a for a, _ in formula._masks)


def is_saturated(formula: HornFormula) -> bool:
    return is_right_saturated(formula) and is_left_saturated(formula)


def left_saturate(formula: HornFormula) -> HornFormula:
    """Replace every antecedent by its quasi-closure, iterating to a fixpoint.

    Requires a right-saturated input.  Each pass recomputes the antecedent
    closures (the implication classes) and rewrites antecedents one at a
    time, chaining over the already-updated implication list.  A rewrite
    preserves the represented function, so the closures taken at the start
    of a pass stay valid throughout it.  Consequents are re-closed on
    rewrite, which keeps the formula right-saturated.
    """
    if not is_right_saturated(formula):
        raise ValueError("left_saturate requires a right-saturated formula")
    pairs = list(formula._masks)
    while True:
        cls = [_chain(a, pairs) for a, _ in pairs]
        changed = False
        for i in range(len(pairs)):
            a = pairs[i][0]
            rest = [pairs[j] for j in range(len(pairs)) if cls[j] != cls[i]]
            bullet = _chain(a, rest)
            if bullet != a:
                # (quasi-closure)* equals the old closure
                pairs[i] = (bullet, cls[i])
                changed = True
        if not changed:
            break
    return HornFormula._of(formula.arity, pairs, formula.names)


def remove_redundant(formula: HornFormula) -> HornFormula:
    """Drop, in list order, every implication entailed by the remaining ones."""
    pairs = list(formula._masks)
    i = 0
    while i < len(pairs):
        a, c = pairs[i]
        rest = pairs[:i] + pairs[i + 1 :]
        if c & _chain(a, rest) == c:
            del pairs[i]
        else:
            i += 1
    return HornFormula._of(formula.arity, pairs, formula.names)


def gd_basis(formula: HornFormula) -> HornFormula:
    """The unique saturated, minimum-size implication basis of the formula.

    Equivalent inputs yield the same implication set, whatever their
    ordering or redundancy.
    """
    return remove_redundant(left_saturate(right_saturate(formula)))
