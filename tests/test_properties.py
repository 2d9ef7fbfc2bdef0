"""Property tests against the brute-force oracles in ``helpers``.

Hypothesis draws small formulas (arity at most 6, so 2**n stays tiny) and
every property is checked against ground truth that never runs the
library's forward chaining.  The settings are derandomized: a failure
reproduces on every run, and the suite costs a few seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hornlearn import (
    ArityError,
    Assignment,
    ClosureFromEntailment,
    EntailmentClause,
    HornFormula,
    Implication,
    StandardFromClosure,
    Teacher,
    afp,
    clh,
    closure,
    entails,
    format_formula,
    gd_basis,
    left_saturate,
    models,
    parse_formula,
    quasi_closure,
    remove_redundant,
    right_saturate,
    satisfies,
)

from hornlearn.basis import (
    _closures,
    _columns,
    _drop_dominated,
    _left_saturate,
    _quasi_closures,
    _saturate,
    _transpose,
)
from hornlearn.core import _chain, _derive, _lex_key, _quasi

from helpers import (
    brute_closure_mask,
    brute_equivalent,
    brute_model_masks,
    lex_key,
    pending_list_derive,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

MAX_ARITY = 6


def _subset(n: int, min_size: int = 0):
    if not n:
        return st.just(frozenset())
    return st.frozensets(st.integers(0, n - 1), min_size=min_size)


@st.composite
def implications(draw, n: int):
    return Implication(draw(_subset(n)), draw(_subset(n, min_size=1)))


@st.composite
def formulas(draw, max_arity: int = MAX_ARITY, max_size: int = 8):
    n = draw(st.integers(0, max_arity))
    imps = draw(st.lists(implications(n), max_size=max_size)) if n else []
    return HornFormula(n, imps)


@st.composite
def formula_and_start(draw):
    f = draw(formulas(max_arity=MAX_ARITY))
    return f, draw(_subset(f.arity))


@st.composite
def noisy_formulas(draw):
    """Formulas of arity 0-8 with duplicate pairs and `a -> a` tautologies
    mixed in, in a drawn order."""
    f = draw(formulas(max_arity=8))
    imps = list(f.implications)
    if imps:
        imps += draw(st.lists(st.sampled_from(imps), max_size=3))
    if f.arity:
        tautologies = draw(st.lists(_subset(f.arity, min_size=1), max_size=2))
        imps += [Implication(a, a) for a in tautologies]
    return HornFormula(f.arity, draw(st.permutations(imps)))


@st.composite
def chaining_pairs(draw):
    """An arity of 0-5 and mask pairs over it, with antecedents of at most
    two variables so that chains form, duplicates mixed in, in a drawn
    order."""
    n = draw(st.integers(0, 5))
    if not n:
        return 0, []
    var = st.integers(0, n - 1)
    pair = st.tuples(
        st.frozensets(var, max_size=2).map(_mask),
        st.frozensets(var, min_size=1, max_size=2).map(_mask),
    )
    pairs = draw(st.lists(pair, max_size=12))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return n, draw(st.permutations(pairs))


# Arities on either side of the byte (8) and 64-bit word edges of the
# bit-matrix transpose behind the batch saturation.
EDGE_ARITIES = (0, 1, 7, 8, 9, 63, 64, 65, 66)


@st.composite
def edge_formulas(draw):
    """Formulas of an edge arity over a few drawn variables, so that chains
    form, with empty antecedents, duplicate pairs and `a -> a` tautologies,
    in a drawn order; up to about 75 implications, past the 64-row edge."""
    n = draw(st.sampled_from(EDGE_ARITIES))
    if not n:
        return HornFormula(0, [])
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True))
    var = st.sampled_from(pool)
    imps = draw(
        st.lists(
            st.builds(
                Implication,
                st.frozensets(var, max_size=3),
                st.frozensets(var, min_size=1, max_size=2),
            ),
            max_size=70,
        )
    )
    if imps:
        imps += draw(st.lists(st.sampled_from(imps), max_size=3))
    tautologies = draw(st.lists(st.frozensets(var, min_size=1), max_size=2))
    imps += [Implication(a, a) for a in tautologies]
    return HornFormula(n, draw(st.permutations(imps)))


def _mask(variables) -> int:
    return sum(1 << v for v in variables)


def _set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _brute_closure(start, f: HornFormula) -> frozenset[int]:
    return _set(brute_closure_mask(_mask(start), f))


def _brute_quasi_closure(start, f: HornFormula) -> frozenset[int]:
    target = _brute_closure(start, f)
    rest = [i for i in f.implications if _brute_closure(i.antecedent, f) != target]
    return _brute_closure(start, HornFormula(f.arity, rest))


def _pseudo_closed_basis(f: HornFormula) -> frozenset[Implication]:
    """The Guigues-Duquenne basis from its definition: P -> closure(P) for
    every pseudo-closed P (not closed, and containing the closure of every
    pseudo-closed proper subset), found by enumerating all variable sets in
    order of size."""
    n = f.arity
    closed = [brute_closure_mask(mask, f) for mask in range(1 << n)]
    pseudo: list[int] = []
    for mask in sorted(range(1 << n), key=int.bit_count):
        if closed[mask] == mask:
            continue
        if all(
            closed[q] & mask == closed[q]
            for q in pseudo
            if q & mask == q and q != mask
        ):
            pseudo.append(mask)
    return frozenset(Implication(_set(p), _set(closed[p])) for p in pseudo)


class TestClosure:
    @PROPERTY
    @given(formula_and_start())
    def test_closure_is_the_meet_of_the_models_above(self, case):
        f, start = case
        assert closure(start, f) == _brute_closure(start, f)

    @PROPERTY
    @given(formula_and_start())
    def test_quasi_closure_drops_the_class_of_the_start(self, case):
        f, start = case
        assert quasi_closure(start, f) == _brute_quasi_closure(start, f)


class TestMembership:
    @PROPERTY
    @given(noisy_formulas())
    @example(HornFormula(0, []))
    @example(HornFormula(8, []))
    @example(
        HornFormula(
            3,
            [Implication(frozenset(), frozenset({1}))] * 2
            + [Implication(frozenset({0, 2}), frozenset({0, 2}))],
        )
    )
    def test_satisfies_and_models_are_the_brute_force_models(self, f):
        n = f.arity
        brute = brute_model_masks(f)
        for _ in range(2):  # the second pass is answered from the closure memo
            got = [m for m in range(1 << n) if satisfies(Assignment(m, n), f)]
            assert got == brute
            assert len(f._closure_cache) == 1 << n
        assert sorted(x.mask for x in models(f)) == brute


class TestDerive:
    @PROPERTY
    @given(formula_and_start(), st.data())
    def test_used_pairs_rederive_the_goal_and_a_miss_is_the_closure(self, case, data):
        f, start = case
        a = _mask(start)
        closed = brute_closure_mask(a, f)
        goal = _mask(data.draw(_subset(f.arity)))
        if data.draw(st.booleans()):
            goal &= closed  # a goal the chaining can reach
        w, used = _derive(a, f._masks, goal)
        assert set(used) <= set(f._masks)
        if goal & w == goal:
            assert a & w == a and w & closed == w
            alone = brute_closure_mask(a, HornFormula._of(f.arity, used))
            assert goal & alone == goal
        else:
            assert w == closed

    @PROPERTY
    @given(chaining_pairs())
    @example((3, []))
    @example((3, [(0b10, 0b100), (0b1, 0b10), (0b10, 0b100), (0b1, 0b10)]))
    def test_fires_the_pairs_of_the_pending_list_loop_in_its_order(self, case):
        # the teacher's proof slots and the traces read `used` in firing
        # order; every start against every goal, reachable or not, and -1
        n, pairs = case
        for a in range(1 << n):
            for goal in (-1, *range(1 << n)):
                assert _derive(a, pairs, goal) == pending_list_derive(a, pairs, goal)


def test_lex_key_reverses_the_bits_of_every_mask():
    for n in range(13):
        for mask in range(1 << n):
            assert _lex_key(mask, n) == lex_key(mask, n)


class TestGdBasis:
    @PROPERTY
    @given(formulas())
    def test_saturation_stages_meet_their_definitions(self, f):
        right = right_saturate(f)
        for i in right.implications:
            assert i.consequent == _brute_closure(i.antecedent, f)
        left = left_saturate(right)
        for i, j in zip(left.implications, right.implications, strict=True):
            assert i.antecedent == _brute_quasi_closure(j.antecedent, right)
            assert i.antecedent == _brute_quasi_closure(i.antecedent, left)
            assert i.consequent == _brute_closure(i.antecedent, f)

    @PROPERTY
    @given(formulas(), st.randoms(use_true_random=False))
    def test_canonical_under_shuffles_duplicates_and_tautologies(self, f, rng):
        expected = frozenset(gd_basis(f).implications)
        imps = list(f.implications)
        imps += imps[:2]  # duplicates
        imps += [  # tautologies: the consequent lies inside the antecedent
            Implication(i.antecedent | i.consequent, i.consequent) for i in imps[:2]
        ]
        rng.shuffle(imps)
        noisy = HornFormula(f.arity, imps)
        assert frozenset(gd_basis(noisy).implications) == expected

    @PROPERTY
    @given(formulas())
    def test_equals_the_pseudo_closed_basis(self, f):
        basis = gd_basis(f)
        assert frozenset(basis.implications) == _pseudo_closed_basis(f)
        assert len(set(basis.implications)) == len(basis)
        assert brute_equivalent(basis, f)

    @PROPERTY
    @given(formulas())
    def test_no_implication_is_redundant(self, f):
        basis = gd_basis(f)
        assert remove_redundant(basis) == basis
        for i in range(len(basis)):
            rest = basis.implications[:i] + basis.implications[i + 1 :]
            assert not brute_equivalent(HornFormula(f.arity, rest), basis)


class TestGdBasisStages:
    @PROPERTY
    @given(noisy_formulas())
    def test_gd_basis_is_the_public_stages_in_order(self, f):
        staged = remove_redundant(left_saturate(right_saturate(f)))
        assert gd_basis(f)._masks == staged._masks


BATCH_EXAMPLES = [
    HornFormula(0, []),
    HornFormula(65, []),
    # 65 rows on 65 variables: a cycle through every variable
    HornFormula(65, [Implication({i}, {(i + 1) % 65}) for i in range(65)]),
    HornFormula(
        9,
        [Implication(set(), {8})] * 2
        + [Implication({8}, {0, 7}), Implication({0, 7}, {0, 7})],
    ),
]


def _with_examples(test):
    for f in BATCH_EXAMPLES:
        test = example(f)(test)
    return test


# Groups of several antecedents under one consequent, whose hits grow across
# passes.  First: the `-> 1` group is listed after the `-> 4` group it feeds,
# so `-> 4` fires in rows 0, 1 and 4 (a duplicate pair) on the first pass and
# in rows 2 and 3 only on the second.  Second: an empty antecedent fires its
# group in every row at once, and the duplicated `0 -> 2` feeds the `-> 1`
# group listed before it, which fires in rows 3 and 4 on the second pass.
GROUPED_EXAMPLES = [
    HornFormula(
        5,
        [
            Implication({0}, {4}),
            Implication({1}, {4}),
            Implication({2}, {1}),
            Implication({2, 3}, {1}),
            Implication({0}, {4}),
        ],
    ),
    HornFormula(
        4,
        [Implication({1}, {3}), Implication(set(), {3}), Implication({2}, {1})]
        + [Implication({0}, {2})] * 2,
    ),
]


def _with_grouped_examples(test):
    for f in BATCH_EXAMPLES + GROUPED_EXAMPLES:
        test = example(f)(test)
    return test


class TestBatchSaturation:
    """`_saturate` closes every row at once; each row must be what chaining
    its antecedent alone gives.  The first two tests give each implication
    its own group, so they check the fixpoint apart from the stages'
    grouping; the grouped tests run the stages' own groups (`_closures`,
    `_quasi_closures`), several antecedents to a group."""

    @PROPERTY
    @given(st.one_of(noisy_formulas(), edge_formulas()))
    @_with_examples
    def test_rows_are_the_closures(self, f):
        pairs = f._masks
        ants = [a for a, _ in pairs]
        full = (1 << len(pairs)) - 1
        closures = [_chain(a, pairs) for a in ants]
        groups = [([r], c, full) for r, (_, c) in enumerate(pairs)]
        assert _saturate(*_columns(ants, f.arity), groups) == closures
        assert right_saturate(f)._masks == tuple(zip(ants, closures))

    @PROPERTY
    @given(st.one_of(noisy_formulas(), edge_formulas()))
    @_with_examples
    def test_rows_are_the_quasi_closures_of_right_saturated_input(self, f):
        right = right_saturate(f)
        ants = [a for a, _ in right._masks]
        classes = [c for _, c in right._masks]
        full = (1 << len(ants)) - 1
        own = {c: sum(1 << i for i, d in enumerate(classes) if d == c) for c in classes}
        quasi = [_quasi(a, right) for a in ants]
        groups = [([r], c, full & ~own[c]) for r, c in enumerate(classes)]
        assert _saturate(*_columns(ants, f.arity), groups) == quasi
        assert _left_saturate(right)._masks == tuple(zip(quasi, classes))

    @PROPERTY
    @given(st.one_of(noisy_formulas(), edge_formulas()))
    @_with_grouped_examples
    def test_grouped_rows_are_the_closures(self, f):
        pairs = f._masks
        ants, cons = [a for a, _ in pairs], [c for _, c in pairs]
        bits, col = _columns(ants, f.arity)
        closures = [_chain(a, pairs) for a in ants]
        assert _closures(bits, col, cons) == closures
        # the fixpoint runs in place: the columns end as the closures'
        assert col == _transpose(closures, f.arity)

    @PROPERTY
    @given(st.one_of(noisy_formulas(), edge_formulas()))
    @_with_grouped_examples
    def test_grouped_rows_are_the_quasi_closures(self, f):
        right = right_saturate(f)
        ants, classes = [a for a, _ in right._masks], [c for _, c in right._masks]
        quasi = _quasi_closures(*_columns(ants, f.arity), classes)
        assert quasi == [_quasi(a, right) for a in ants]
        # both stages on one column build, as gd_basis runs them
        bits, col = _columns([a for a, _ in f._masks], f.arity)
        closed = _closures(bits, col[:], [c for _, c in f._masks])
        assert closed == classes
        assert _quasi_closures(bits, col, closed) == quasi

    @PROPERTY
    @given(st.one_of(noisy_formulas(), edge_formulas()))
    @_with_examples
    def test_drop_dominated_is_remove_redundant_on_saturated_input(self, f):
        rng = random.Random(len(f) * 100 + f.arity)
        pairs = list(f._masks)
        pairs += rng.choices(pairs, k=min(len(pairs), 3))  # more duplicates
        rng.shuffle(pairs)
        saturated = _left_saturate(right_saturate(HornFormula._of(f.arity, pairs)))
        assert _drop_dominated(saturated)._masks == remove_redundant(saturated)._masks

    def test_transpose_is_the_bit_matrix_transpose(self):
        rng = random.Random(11)
        for width in EDGE_ARITIES:
            for count in (0, 1, 7, 8, 9, 64, 65):
                vectors = [rng.getrandbits(width) for _ in range(count)]
                cols = _transpose(vectors, width)
                assert cols == [
                    sum((v >> j & 1) << i for i, v in enumerate(vectors))
                    for j in range(width)
                ]
                assert _transpose(cols, count) == vectors

    def test_columns_are_the_bit_matrix_transpose(self):
        rng = random.Random(12)
        for width in EDGE_ARITIES:
            for count in (0, 1, 7, 8, 9, 64, 65):
                vectors = [rng.getrandbits(width) for _ in range(count)]
                bits, cols = _columns(vectors, width)
                assert bits == [[j for j in range(width) if v >> j & 1] for v in vectors]
                assert cols == [
                    sum((v >> j & 1) << i for i, v in enumerate(vectors))
                    for j in range(width)
                ]
                assert cols == _transpose(vectors, width)


def _teacher(f: HornFormula, strategy: str, seed: int) -> Teacher:
    return Teacher(f, strategy=strategy, seed=seed if strategy == "random" else None)


class TestLearners:
    @PROPERTY
    @given(
        formulas(),
        st.sampled_from(["first", "random", "minimal"]),
        st.integers(0, 2**16),
    )
    def test_clh_outputs_the_gd_basis(self, f, strategy, seed):
        expected = frozenset(gd_basis(f).implications)
        for teacher in (
            _teacher(f, strategy, seed),
            ClosureFromEntailment(_teacher(f, strategy, seed)),
        ):
            assert frozenset(clh(teacher).output.implications) == expected

    @PROPERTY
    @given(
        formulas(),
        st.sampled_from(["first", "random", "minimal"]),
        st.integers(0, 2**16),
    )
    def test_afp_output_is_equivalent(self, f, strategy, seed):
        for teacher in (
            _teacher(f, strategy, seed),
            StandardFromClosure(_teacher(f, strategy, seed)),
        ):
            assert brute_equivalent(afp(teacher).output, f)


class TestRepresentation:
    @PROPERTY
    @given(formulas(max_arity=30))
    def test_format_parse_round_trip(self, f):
        assert parse_formula(format_formula(f)) == f

    @PROPERTY
    @given(formulas(max_arity=30))
    def test_rebuilt_from_implications(self, f):
        # gd_basis builds its output from masks, so its view is derived
        for g in (f, gd_basis(f)):
            rebuilt = HornFormula(g.arity, g.implications)
            assert rebuilt == g
            assert hash(rebuilt) == hash(g)

    @PROPERTY
    @given(formula_and_start())
    def test_pickle_round_trip(self, case):
        f, start = case
        closure(start, f)  # fills the closure memo, which stays behind
        basis = gd_basis(f)
        point = Assignment(f.close(_mask(start)), f.arity)
        clause = EntailmentClause(start, max(f.arity - 1, 0))
        values = [f, basis, *basis.implications, point, clause]
        # slotted and frozen, like Implication
        for value, name in ((point, "mask"), (clause, "head")):
            assert not hasattr(value, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0)
        for value in values:
            for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert clone == value
                assert hash(clone) == hash(value)
                assert str(clone) == str(value)
        clone = pickle.loads(pickle.dumps(f))
        assert closure(start, clone) == closure(start, f)


class TestEdgeShapes:
    def test_arity_zero(self):
        f = HornFormula(0, [])
        assert models(f) == [Assignment(0, 0)]
        assert closure(frozenset(), f) == frozenset()
        assert gd_basis(f) == f
        report = clh(Teacher(f))
        assert report.output == f
        assert report.stats.seq == 1
        assert afp(Teacher(f)).output == f

    @pytest.mark.parametrize("n", [1, 4])
    def test_empty_formula(self, n):
        f = HornFormula(n, [])
        assert len(models(f)) == 1 << n
        assert closure(frozenset(), f) == frozenset()
        assert gd_basis(f) == f
        assert clh(Teacher(f)).output == f
        assert afp(Teacher(f)).output == f

    def test_negative_index_raises_arity_error(self):
        f = HornFormula(3, [Implication(frozenset({0}), frozenset({1}))])
        with pytest.raises(ArityError):
            HornFormula(3, [Implication(frozenset({-1}), frozenset({0}))])
        with pytest.raises(ArityError):
            HornFormula(3, [Implication(frozenset({0}), frozenset({-2}))])
        with pytest.raises(ArityError):
            closure({-1}, f)
        with pytest.raises(ArityError):
            quasi_closure({-1}, f)
        with pytest.raises(ArityError):
            Assignment.from_vars({-1}, 3)
        with pytest.raises(ArityError):
            EntailmentClause(frozenset({0}), -1)
        with pytest.raises(ArityError):
            entails(f, EntailmentClause(frozenset({-1}), 0))
