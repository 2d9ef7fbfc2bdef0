"""Saturation predicates and the canonical (Guigues-Duquenne) basis.

An implication of a formula H is right-saturated when its consequent equals
the closure of its antecedent, left-saturated when its antecedent equals its
own quasi-closure, and saturated when both hold (always with respect to H
itself).  A definite Horn function has at most one fully saturated basis,
which also has the minimum number of implications; the pipeline here
computes it as right-saturate, then left-saturate, then drop redundant
implications.

The stages reuse their own work.  Right saturation chains over the list it
is rewriting, whose earlier consequents are already closures.  Left
saturation builds the list of other-class implications once per class, not
once per implication.  `gd_basis` skips left saturation's precondition
check, since right saturation has just established it.
"""

from __future__ import annotations

from .core import HornFormula, _chain, _derive, _quasi


def right_saturate(formula: HornFormula) -> HornFormula:
    """Replace every consequent by the closure of its antecedent.

    Each antecedent is chained over the list being rewritten.  A rewritten
    consequent is the closure of its antecedent, so it is entailed and the
    list stays equivalent to the input: chaining over it gives the input's
    closures, and each earlier entry fires its whole class at once.
    """
    out = list(formula._masks)
    for i, (a, _) in enumerate(out):
        out[i] = (a, _chain(a, out))
    return HornFormula._of(formula.arity, out, formula.names)


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

    The implications of one class share their other-class list, which is
    built once per class; only one such list is alive at a time.
    """
    pairs = formula._masks
    classes: dict[int, list[int]] = {}
    for i, (_, c) in enumerate(pairs):
        classes.setdefault(c, []).append(i)
    out = list(pairs)
    for c, members in classes.items():
        others = [p for p in pairs if p[1] != c]
        for i in members:
            out[i] = (_chain(pairs[i][0], others), c)
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
    ordering or redundancy.  Right saturation makes every consequent the
    class of its antecedent, so left saturation runs without re-checking
    that.
    """
    return remove_redundant(_left_saturate(right_saturate(formula)))
