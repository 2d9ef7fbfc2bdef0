"""Saturation predicates and the canonical (Guigues-Duquenne) basis.

An implication of a formula H is right-saturated when its consequent equals
the closure of its antecedent, left-saturated when its antecedent equals its
own quasi-closure, and saturated when both hold (always with respect to H
itself).  A definite Horn function has at most one fully saturated basis,
which also has the minimum number of implications.  `gd_basis` computes it
by right, then left saturation, then reads redundancy off the quasi-closure
columns.  The predicates are fixed-point tests: `f` is left-saturated when
`left_saturate(right_saturate(f))` keeps its antecedents, saturated when
it gives `f` back.

No stage chains one antecedent at a time.  Both saturations close every
antecedent at once in one row-parallel fixpoint (`_saturate`) over bit
columns built once from the antecedents' bit lists (`_columns`); the
fixpoint ends after the first pass in which no column grew, and rows are
read back only where they are needed (`_rows`).  `gd_basis` shares one
build between the two.  Right saturation (`_closures`) keeps one column per
unit class, the variables that derive each other through one-variable
antecedents (`_unit_classes`).  On saturated input, `gd_basis` reads
redundancy off the quasi-closure columns, one AND per antecedent bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .core import HornFormula, _bit_list, _derive

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


def _rows(col: Sequence[int], count: int, which: Iterable[int]) -> list[int]:
    """Rows `which` of the bit matrix whose `count` rows are read by column
    in `col`: bit v of row r is bit r of `col[v]`.

    The binary digits of the columns, last column first, make one string;
    every `count`-th digit of it, read as a binary number, is one row (and
    with no columns, every row is 0).
    """
    digits = "".join([format(v, f"0{count}b") for v in reversed(col)]) or "0" * count
    return [int(digits[count - 1 - r :: count], 2) for r in which]


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


def _saturate(col: list[int], groups: Sequence[tuple[_Bits, int, int]]) -> None:
    """Chain every row at once to its fixpoint under `groups`, in place in
    the columns `col`.  A group `(antecedents, consequent, allowed)` holds
    the implications with those antecedent bit lists and fires only in the
    rows set in `allowed`: an antecedent holds in the AND of its columns,
    and firing ORs those rows into the consequent's columns.  Columns only
    grow, so a group's hit only grows, and it passes on only what it gained
    since it last fired (XOR).  The first pass in which no column grew ends
    the fixpoint.
    """
    walk = [(ants, _bit_list(c), ok) for ants, c, ok in groups]
    fired = [0] * len(walk)
    before = None
    while col != before:
        before = col[:]
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


def _unit_classes(succ: Sequence[int]) -> list[int]:
    """The lowest member of each vertex's strongly connected component in
    the graph with an edge v -> u for each bit u of `succ[v]`: Tarjan's
    algorithm (1972) without recursion.  A work frame holds a vertex and its
    successors not yet visited; a vertex whose component is done gets index
    n, which lowers no other.  Only a vertex with an edge in from another
    starts a search."""
    n = len(succ)
    index, low, rep = [-1] * n, [0] * n, list(range(n))
    stack: list[int] = []
    count = into = 0
    for v, s in enumerate(succ):
        into |= s & ~(1 << v)
    for root in range(n):
        if index[root] >= 0 or not into >> root & 1:
            continue
        work = [[root, succ[root]]]
        while work:
            frame = work[-1]
            v, rest = frame
            if index[v] < 0:
                index[v] = low[v] = count
                count += 1
                stack.append(v)
            if rest:
                frame[1] = rest & (rest - 1)
                u = (rest & -rest).bit_length() - 1
                if index[u] < 0:
                    work.append([u, succ[u]])
                elif index[u] < low[v]:
                    low[v] = index[u]
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                members = stack[stack.index(v) :]
                del stack[-len(members) :]
                lowest = min(members)
                for w in members:
                    rep[w], index[w] = lowest, n
    return rep


def _closures(
    pairs: Sequence[tuple[int, int]], bits: _Bits, col: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Right saturation of the mask pairs `pairs`, whose antecedents have
    the bit lists `bits` and the columns `col` (left as they are): row r
    ends as the closure of antecedent r.  Returns the closures as rows and
    as columns.

    The members of a unit class (a strongly connected component of the
    graph with an edge v -> u for each pair `{v} -> c` with u in c) derive
    each other, so every closure holds all of a class or none.  The fixpoint
    keeps one column per class, at its lowest member: pairs that hold
    another member are rewritten onto the lowest ones, and each member's
    column is copied from its class's at the end.  Groups are the distinct
    antecedents of each consequent less what the antecedent holds.  A row
    that holds every variable is read back as the all-ones mask.
    """
    count, arity = len(bits), len(col)
    every = (1 << count) - 1
    succ = [0] * arity
    for b, (_, c) in zip(bits, pairs):
        if len(b) == 1:
            succ[b[0]] |= c
    rep = _unit_classes(succ)
    up = [1 << r for r in rep]
    moved = sum(1 << v for v in range(arity) if rep[v] != v)
    out = [0] * arity
    for v, r in enumerate(rep):
        out[r] |= col[v]
    onto: dict[int, dict[int, Sequence[int] | None]] = {}
    for b, (a, c) in zip(bits, pairs):
        if (a | c) & moved:
            a = k = 0
            for v in b:
                a |= up[v]
            for u in _bit_list(c):
                k |= up[u]
            b, c = None, k
        onto.setdefault(c & ~a, {}).setdefault(a, b)
    groups = [
        ([_bit_list(a) if b is None else b for a, b in ants.items()], c, every)
        for c, ants in onto.items()
        if c
    ]
    _saturate(out, groups)
    held = every
    for v in range(arity):
        out[v] = out[rep[v]]
        held &= out[v]
    rows = [(1 << arity) - 1] * count
    todo = [r for r in range(count) if not held >> r & 1]
    for r, row in zip(todo, _rows(out, count, todo)):
        rows[r] = row
    return rows, out


def _quasi_columns(bits: _Bits, col: list[int], classes: dict[int, list[int]]) -> None:
    """Left saturation, in place: `classes` maps each class to its rows, and
    its group is barred from them, so `col` ends as the columns of the
    quasi-closures."""
    every = (1 << len(bits)) - 1
    own = [(rs, c, every & ~sum(1 << r for r in rs)) for c, rs in classes.items()]
    _saturate(col, [([bits[r] for r in rs], c, ok) for rs, c, ok in own])


def right_saturate(formula: HornFormula) -> HornFormula:
    """Replace every consequent by the closure of its antecedent."""
    ants = [a for a, _ in formula._masks]
    closed = _closures(formula._masks, *_columns(ants, formula.arity))[0]
    return HornFormula._of(formula.arity, zip(ants, closed), formula.names)


def is_right_saturated(formula: HornFormula) -> bool:
    """Each consequent is its antecedent's closure: holds it and is closed."""
    return all(not a & ~c and formula.close(c) == c for a, c in formula._masks)


def is_left_saturated(formula: HornFormula) -> bool:
    """Each antecedent is its own quasi-closure, which is the same over the
    formula and over its right saturation."""
    ants = [a for a, _ in left_saturate(right_saturate(formula))._masks]
    return ants == [a for a, _ in formula._masks]


def is_saturated(formula: HornFormula) -> bool:
    return left_saturate(right_saturate(formula)) == formula


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
    ants, classes = [a for a, _ in formula._masks], [c for _, c in formula._masks]
    bits, col = _columns(ants, formula.arity)
    _quasi_columns(bits, col, _rows_by(classes))
    quasi = _rows(col, len(ants), range(len(ants)))
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


def gd_basis(formula: HornFormula) -> HornFormula:
    """The unique saturated, minimum-size implication basis of the formula.

    Equivalent inputs yield the same implication set, whatever their
    ordering or redundancy.  Both saturations start from the antecedents'
    columns, left saturation in place after right saturation, which makes
    every consequent the class of its antecedent.

    Redundancy is read off the quasi-closure columns.  On saturated input,
    `a -> c` is entailed by the others iff its quasi-closure q is c or holds
    another quasi-closure of class c: chaining q fires only same-class
    implications, as q is closed under the other classes.  For the same
    reason, q_r lies inside q_s iff the original antecedent a_r does.  So
    row r gets the mask of its class's rows s with a_r inside q_s.  Equal
    masks mean equal quasi-closures, of which the last row stays, as in the
    list-order sweep of `remove_redundant`; a row in r's mask with another
    mask of its own lies strictly above q_r and goes, as does a row whose q
    is its class.  Only the kept rows are read back, in index order.
    """
    bits, col = _columns([a for a, _ in formula._masks], formula.arity)
    closed, closed_col = _closures(formula._masks, bits, col)
    classes = _rows_by(closed)
    _quasi_columns(bits, col, classes)
    short = 0  # the rows whose quasi-closure is not their whole class
    for q, c in zip(col, closed_col):
        short |= c & ~q
    keep = []
    for rows in classes.values():
        if len(rows) == 1:
            keep += rows
            continue
        own = sum(1 << r for r in rows)
        equal: dict[int, int] = {}
        for r in rows:
            t = own
            for v in bits[r]:
                t &= col[v]
            equal[t] = equal.get(t, 0) | 1 << r
        above = 0
        for t, same in equal.items():
            above |= t & ~same
        keep += [same.bit_length() - 1 for same in equal.values() if not same & above]
    keep = [r for r in sorted(keep) if short >> r & 1]
    quasi = _rows(col, len(bits), keep)
    out = [(q, closed[r]) for q, r in zip(quasi, keep)]
    return HornFormula._of(formula.arity, out, formula.names)
