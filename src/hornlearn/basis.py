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

from .core import HornFormula, _chain, _derive, _quasi


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
    pairs = formula._masks
    out = [(_chain(a, [p for p in pairs if p[1] != c]), c) for a, c in pairs]
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


def gd_basis(formula: HornFormula) -> HornFormula:
    """The unique saturated, minimum-size implication basis of the formula.

    Equivalent inputs yield the same implication set, whatever their
    ordering or redundancy.
    """
    return remove_redundant(left_saturate(right_saturate(formula)))
