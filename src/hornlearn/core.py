"""Core types and semantics for definite Horn formulas.

Variables are integer indices ``0 .. n-1``.  A truth assignment over n
variables is an n-bit vector, and a variable set is the same vector read as
the set of variables it maps to 1: the subset order on variable sets is the
bitwise order on assignments.  Everything is stored in that form, as int bit
masks with variable i at bit i.  Frozensets of indices appear only at the
API edge, as read-only views built from the masks on each read
(``Implication.antecedent`` and ``.consequent``,
``EntailmentClause.antecedent``).

An implication ``antecedent -> consequent`` (consequent nonempty, antecedent
possibly empty) abbreviates the conjunction of definite Horn clauses with one
consequent variable each.  A :class:`HornFormula` is an ordered tuple of
(antecedent, consequent) mask pairs over a fixed arity; the empty tuple is
the constant-true function.  Inside the package, formulas and clauses are
built from masks with ``HornFormula._of`` and ``EntailmentClause._of``.

Forward chaining uses the naive fixpoint (repeat passes until no implication
fires).  A model of a formula is a fixed point of its closure: ``satisfies``
asks ``close``.
"""

from __future__ import annotations

import string
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from itertools import chain, starmap
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ArityError",
    "Assignment",
    "EntailmentClause",
    "HornFormula",
    "Implication",
    "closure",
    "entails",
    "equivalent",
    "is_intersection_closed",
    "models",
    "quasi_closure",
    "satisfies",
    "separating_assignment",
    "subformula_same_class",
]

MODELS_MAX_ARITY = 20

# a formula's closure memo is cleared when it reaches this many entries
CLOSURE_MEMO_LIMIT = 1 << 16


class ArityError(ValueError):
    """An index or vector length does not fit the ambient arity."""


def _mask_of(variables: Iterable[int]) -> int:
    mask = 0
    try:
        for v in variables:
            mask |= 1 << v
    except ValueError:  # a negative shift count
        raise ArityError(f"negative variable index {v}") from None
    return mask


def _check_fits(mask: int, arity: int) -> None:
    if mask >> arity:
        if mask < 0:
            raise ArityError(f"negative mask {mask:#x} for arity {arity}")
        raise ArityError(
            f"variable index {mask.bit_length() - 1} out of range for arity {arity}"
        )


def _check_length(x: Assignment, n: int) -> None:
    if x.n != n:
        raise ArityError(f"assignment length {x.n} vs arity {n}")


def _bit_list(mask: int) -> list[int]:
    """The indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _chain(mask: int, pairs: Sequence[tuple[int, int]]) -> int:
    """Forward-chaining fixpoint of `mask` over (antecedent, consequent) masks."""
    return _derive(mask, pairs, -1)[0]  # -1 covers every bit: never reached


def _derive(
    mask: int, pairs: Sequence[tuple[int, int]], goal: int
) -> tuple[int, list[tuple[int, int]]]:
    """Chain `mask` over `pairs` until `goal` is covered or nothing fires.

    Returns the reached mask and `used`, the pairs that added bits, in
    firing order: chaining `mask` over `used` alone reaches the same mask.
    When `goal` is not covered the result is the full forward-chaining
    fixpoint, as `_chain` gives.
    """
    used = []
    fired = True
    while fired and goal & mask != goal:
        fired = False
        for a, c in pairs:
            if a & mask == a and c | mask != mask:
                mask |= c
                used.append((a, c))
                fired = True
                if goal & mask == goal:
                    break
    return mask, used


def _is_model(mask: int, pairs: Sequence[tuple[int, int]]) -> bool:
    """True iff `mask` satisfies all of `pairs`, read with no closure memo."""
    for a, c in pairs:
        if a & mask == a and c & mask != c:
            return False
    return True


def _lex_key(mask: int, arity: int) -> int:
    # variable 0 is the most significant position in the lexicographic order
    return int(format(mask, f"0{arity}b")[::-1], 2)


def _line(
    a: Iterable[int], c: Iterable[int], names: Sequence[str] | None = None
) -> str:
    """The implication `a -> c`, each side given as ascending variable
    indices, written in variable names, or as the indices when `names` is
    None; `-> c` when `a` is empty."""
    name = str if names is None else names.__getitem__
    ant, con = (" ".join(map(name, vs)) for vs in (a, c))
    return f"{ant} -> {con}".strip()


def default_names(arity: int) -> tuple[str, ...]:
    """Printable variable tokens used when a formula carries no name table."""
    if arity <= 26:
        return tuple(string.ascii_lowercase[:arity])
    return tuple(f"x{i}" for i in range(arity))


@dataclass(frozen=True, slots=True)
class Assignment:
    """An n-bit truth assignment, ordered bitwise with 0 <= 1.

    `mask` holds variable i at bit position i.  The string form writes
    variable 0 leftmost, so ``str(Assignment.from_string("10110"))`` round
    trips.  Comparisons implement the partial (not total) bitwise order;
    ``>=`` and ``>`` are Python's reflections of ``<=`` and ``<``.
    """

    mask: int
    n: int

    def __post_init__(self) -> None:
        mask, n = self.mask, self.n
        if n < 0:
            raise ArityError(f"negative arity {n}")
        _check_fits(mask, n)

    @classmethod
    def from_vars(cls, variables: Iterable[int], n: int) -> "Assignment":
        return cls(_mask_of(variables), n)

    @classmethod
    def from_string(cls, bits: str) -> "Assignment":
        if set(bits) - {"0", "1"}:
            raise ValueError(f"not a bit string: {bits!r}")
        return cls(_mask_of(i for i, ch in enumerate(bits) if ch == "1"), len(bits))

    @classmethod
    def zero(cls, n: int) -> "Assignment":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "Assignment":
        return cls((1 << n) - 1, n)

    def __and__(self, other: "Assignment") -> "Assignment":
        if not isinstance(other, Assignment):
            return NotImplemented
        _check_length(other, self.n)
        return Assignment(self.mask & other.mask, self.n)

    def __or__(self, other: "Assignment") -> "Assignment":
        if not isinstance(other, Assignment):
            return NotImplemented
        _check_length(other, self.n)
        return Assignment(self.mask | other.mask, self.n)

    def __le__(self, other: "Assignment") -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        _check_length(other, self.n)
        return self.mask & other.mask == self.mask

    def __lt__(self, other: "Assignment") -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self <= other and self.mask != other.mask

    def bits(self) -> tuple[int, ...]:
        return tuple((self.mask >> i) & 1 for i in range(self.n))

    def ones(self) -> frozenset[int]:
        return frozenset(_bit_list(self.mask))

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        return "".join("1" if self.mask >> i & 1 else "0" for i in range(self.n))

    def __repr__(self) -> str:
        return f"Assignment({str(self)!r})"


@dataclass(frozen=True, init=False, slots=True)
class Implication:
    """`antecedent -> consequent` over variable index sets; consequent nonempty.

    Stored as two bit masks, `_a` and `_c`; `antecedent` and `consequent`
    are frozenset views built on each read (equal, not identical, from one
    read to the next).  Implications compare and hash by their masks, that
    is, by their two sets.  Build a changed implication with the
    constructor: `dataclasses.replace` raises TypeError, since the fields
    are the masks, which the constructor does not take.
    """

    _a: int
    _c: int

    def __init__(self, antecedent: Iterable[int], consequent: Iterable[int]) -> None:
        a, c = _mask_of(antecedent), _mask_of(consequent)
        if not c:
            raise ValueError("implication consequent must be nonempty")
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_c", c)

    @classmethod
    def _of(cls, a: int, c: int) -> "Implication":
        """The implication with antecedent mask `a` and consequent mask `c`,
        built without a copy or a check."""
        implication = cls.__new__(cls)
        object.__setattr__(implication, "_a", a)
        object.__setattr__(implication, "_c", c)
        return implication

    @property
    def antecedent(self) -> frozenset[int]:
        return frozenset(_bit_list(self._a))

    @property
    def consequent(self) -> frozenset[int]:
        return frozenset(_bit_list(self._c))

    def __str__(self) -> str:
        return _line(_bit_list(self._a), _bit_list(self._c))

    __repr__ = __str__


@dataclass(frozen=True, init=False, slots=True)
class EntailmentClause:
    """A definite clause `antecedent -> head` with a single head variable;
    the antecedent is stored as a bit mask and read as a frozenset view.
    Build a changed clause with the constructor: `dataclasses.replace`
    raises TypeError, since the mask field is not a constructor argument."""

    _mask: int
    head: int

    def __init__(self, antecedent: Iterable[int], head: int) -> None:
        mask = _mask_of(antecedent)
        if head < 0:
            raise ArityError(f"negative variable index {head}")
        _set_clause_mask(self, mask)
        _set_clause_head(self, head)

    @classmethod
    def _of(cls, mask: int, head: int) -> "EntailmentClause":
        """The clause with antecedent mask `mask`, built without a copy."""
        if head < 0:
            raise ArityError(f"negative variable index {head}")
        clause = cls.__new__(cls)
        _set_clause_mask(clause, mask)
        _set_clause_head(clause, head)
        return clause

    @property
    def antecedent(self) -> frozenset[int]:
        return frozenset(_bit_list(self._mask))

    def __str__(self) -> str:
        return _line(_bit_list(self._mask), [self.head])

    __repr__ = __str__


# The clause's slot setters, which its constructors call directly.  Every
# entailment query builds a clause, and a bound slot setter costs less per
# call than object.__setattr__, which first checks the type and looks up the
# name.
_set_clause_mask = EntailmentClause._mask.__set__
_set_clause_head = EntailmentClause.head.__set__


# `slots=True` rebuilds a class, and the frozen `__setattr__` and
# `__delattr__` that dataclasses generate call `super()` with the class it
# replaced, which raises TypeError for any name but a field.  A frozen class
# body may not define these two, so they are installed here.
def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


for _cls in (Assignment, Implication, EntailmentClause):
    _cls.__setattr__ = _refuse_set
    _cls.__delattr__ = _refuse_delete
del _cls


@dataclass(frozen=True, init=False)
class HornFormula:
    """An ordered conjunction of implications over `arity` variables.

    Stored as `_masks`, (antecedent, consequent) bit-mask pairs, and read
    through `implications`, a view built on first use (or kept from the
    constructor's Implication values) whose implications share the pairs'
    masks; each one builds its frozensets on each read.  The name table is
    presentation only: it is excluded from equality and hashing, so formulas
    compare by arity and implication list.  Pickles and copies carry the
    masks and names only, not the cached view or the closure memo.
    """

    arity: int
    _masks: tuple[tuple[int, int], ...]
    names: tuple[str, ...] | None = field(default=None, compare=False)

    def __init__(
        self,
        arity: int,
        implications: Iterable[Implication],
        names: Sequence[str] | None = None,
    ) -> None:
        implications = tuple(implications)
        try:
            pairs = [(i._a, i._c) for i in implications]
        except AttributeError:
            foreign = next(i for i in implications if not isinstance(i, Implication))
            raise TypeError(
                f"expected Implication, got {type(foreign).__name__}"
            ) from None
        self._set(arity, pairs, names)
        object.__setattr__(self, "implications", implications)

    @classmethod
    def _of(
        cls,
        arity: int,
        masks: Iterable[tuple[int, int]],
        names: Sequence[str] | None = None,
    ) -> "HornFormula":
        """The formula with the given (antecedent, consequent) mask pairs."""
        formula = cls.__new__(cls)
        formula._set(arity, masks, names)
        return formula

    def _set(self, arity, masks, names) -> None:
        if arity < 0:
            raise ArityError(f"negative arity {arity}")
        masks = tuple(masks)
        used = 0
        for a, c in masks:
            used |= a | c
        if used >> arity:  # name the first mask that does not fit
            for mask in chain.from_iterable(masks):
                _check_fits(mask, arity)
        if names is not None:
            names = tuple(names)
            if len(names) != arity:
                raise ValueError(f"{len(names)} names for arity {arity}")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "names", names)

    def __reduce__(self):
        return HornFormula._of, (self.arity, self._masks, self.names)

    @cached_property
    def implications(self) -> tuple[Implication, ...]:
        return tuple(starmap(Implication._of, self._masks))

    @cached_property
    def _closure_cache(self) -> dict[int, int]:
        return {}

    def close(self, mask: int) -> int:
        """Forward-chaining closure of a bit mask, memoized per formula."""
        cache = self._closure_cache
        out = cache.get(mask)
        if out is None:
            if len(cache) >= CLOSURE_MEMO_LIMIT:
                cache.clear()
            out = cache[mask] = _chain(mask, self._masks)
        return out

    def __len__(self) -> int:
        return len(self._masks)

    def __str__(self) -> str:
        names = self.names or default_names(self.arity)
        lines = (_line(_bit_list(a), _bit_list(c), names) for a, c in self._masks)
        return "{" + ", ".join(lines) + "}"

    def __repr__(self) -> str:
        return f"HornFormula({self.arity}, {str(self)})"


def _check_same_arity(f: HornFormula, g: HornFormula) -> None:
    if f.arity != g.arity:
        raise ArityError(f"mixed arities {f.arity} and {g.arity}")


def closure(start: Iterable[int], formula: HornFormula) -> frozenset[int]:
    """The least superset of `start` stable under the formula's implications."""
    mask = Assignment.from_vars(start, formula.arity).mask
    return frozenset(_bit_list(formula.close(mask)))


def subformula_same_class(start: Iterable[int], formula: HornFormula) -> HornFormula:
    """Implications whose antecedent has the same closure as `start`, in order."""
    target = formula.close(Assignment.from_vars(start, formula.arity).mask)
    keep = [p for p in formula._masks if formula.close(p[0]) == target]
    return HornFormula._of(formula.arity, keep, formula.names)


def _quasi(mask: int, formula: HornFormula) -> int:
    cls = formula.close(mask)
    return _chain(mask, [p for p in formula._masks if formula.close(p[0]) != cls])


def quasi_closure(start: Iterable[int], formula: HornFormula) -> frozenset[int]:
    """Closure of `start` with the implications of its own class removed."""
    mask = Assignment.from_vars(start, formula.arity).mask
    return frozenset(_bit_list(_quasi(mask, formula)))


def satisfies(x: Assignment, formula: HornFormula) -> bool:
    """True iff `x` is a model: a fixed point of `formula.close`, so the
    answer is read through the formula's bounded closure memo."""
    _check_length(x, formula.arity)
    return formula.close(x.mask) == x.mask


def entails(formula: HornFormula, clause: EntailmentClause) -> bool:
    """True iff the clause head lies in the closure of its antecedent."""
    mask, head = clause._mask, clause.head
    _check_fits(mask | 1 << head, formula.arity)
    return bool(formula.close(mask) >> head & 1)


def _gaps(f: HornFormula, g: HornFormula) -> Iterator[tuple[int, int, int]]:
    """`(a, w, c & ~w)` with `w = g.close(a)`, lazily and in list order, for
    each implication `a -> c` of `f` that `g` does not entail.

    Each such `w` satisfies `g` and falsifies `f`; `f` and `g` are
    equivalent iff neither `_gaps(f, g)` nor `_gaps(g, f)` yields anything.
    """
    for a, c in f._masks:
        w = g.close(a)
        gap = c & ~w
        if gap:
            yield a, w, gap


def equivalent(f: HornFormula, g: HornFormula) -> bool:
    """Semantic equivalence, decided by mutual entailment of implications."""
    return separating_assignment(f, g) is None


def separating_assignment(f: HornFormula, g: HornFormula) -> Assignment | None:
    """An assignment satisfying exactly one of `f`, `g`; None if equivalent.

    The first witness of `_gaps(f, g)`, else of `_gaps(g, f)`.
    """
    _check_same_arity(f, g)
    for _, w, _ in chain(_gaps(f, g), _gaps(g, f)):
        return Assignment(w, f.arity)
    return None


def models(formula: HornFormula) -> list[Assignment]:
    """All satisfying assignments, in lexicographic order (variable 0 first).

    Refuses arities above MODELS_MAX_ARITY since the scan enumerates
    2**arity vectors.
    """
    n = formula.arity
    if n > MODELS_MAX_ARITY:
        raise ValueError(f"arity {n} above brute-force limit {MODELS_MAX_ARITY}")
    found = [m for m in range(1 << n) if _is_model(m, formula._masks)]
    found.sort(key=lambda m: _lex_key(m, n))
    return [Assignment(m, n) for m in found]


def is_intersection_closed(assignments: Sequence[Assignment]) -> bool:
    """True iff the set is closed under bitwise meet.

    Small inputs use the direct pairwise scan; large sets over a small
    hypercube use a superset-meet sweep: with g(z) = meet of all members
    above z, the family is meet-closed iff every nonempty g(z) is a member.
    """
    if not assignments:
        return True
    n = assignments[0].n
    present = set()
    for x in assignments:
        _check_length(x, n)
        present.add(x.mask)
    k = len(present)
    if n > 22 or k * k <= n << n:
        items = sorted(present)
        for i, x in enumerate(items):
            for y in items[i + 1 :]:
                if x & y not in present:
                    return False
        return True
    size = 1 << n
    meet = [-1] * size  # -1 marks "no member above z yet"
    for m in present:
        meet[m] = m
    for i in range(n):
        bit = 1 << i
        for z in range(size):
            if not z & bit:
                src = meet[z | bit]
                if src != -1:
                    cur = meet[z]
                    meet[z] = src if cur == -1 else cur & src
    return all(g == -1 or g in present for g in meet)
