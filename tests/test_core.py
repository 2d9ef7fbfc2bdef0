import copy
import dataclasses
import operator
import pickle
import random
import tracemalloc

import pytest

from hornlearn import (
    ArityError,
    Assignment,
    EntailmentClause,
    HornFormula,
    Implication,
    closure,
    entails,
    equivalent,
    family_member,
    is_intersection_closed,
    models,
    quasi_closure,
    satisfies,
    separating_assignment,
    subformula_same_class,
)

from helpers import (
    asg,
    augment,
    brute_closure_mask,
    brute_equivalent,
    brute_model_masks,
    formula,
    imp,
    model_table,
    vs,
)
from hornlearn import core
from hornlearn.generate import GenConfig, random_formula


class TestAssignment:
    def test_string_round_trip(self):
        for bits in ("", "0", "1", "10110", "0001"):
            assert str(Assignment.from_string(bits)) == bits
            assert repr(Assignment.from_string(bits)) == f"Assignment({bits!r})"

    def test_vars_round_trip(self):
        x = asg("10110")
        assert Assignment.from_vars(x.ones(), x.n) == x
        assert Assignment.from_vars({0, 2}, 4).ones() == frozenset({0, 2})

    def test_partial_order(self):
        assert asg("010") <= asg("011")
        assert asg("010") < asg("011")
        assert not asg("010") <= asg("001")
        assert not asg("001") <= asg("010")  # incomparable, not a total order
        assert asg("011") >= asg("010")

    def test_reflected_order_matches_the_masks(self):
        points = [Assignment(mask, 3) for mask in range(8)]
        for x in points:
            for y in points:
                assert (x >= y) == (x.mask & y.mask == y.mask)
                assert (x > y) == (x.mask & y.mask == y.mask != x.mask)

    @pytest.mark.parametrize(
        "compare",
        [
            operator.le,
            operator.lt,
            operator.and_,
            operator.or_,
            operator.ge,
            operator.gt,
            lambda x, other: other <= x,
        ],
        ids=["le", "lt", "and", "or", "ge", "gt", "reflected-le"],
    )
    def test_foreign_operand_is_a_type_error(self, compare):
        with pytest.raises(TypeError):
            compare(asg("01"), 5)
        # an Assignment of another length still gets the length wording
        with pytest.raises(ArityError, match=r"assignment length \d+ vs arity \d+"):
            compare(asg("01"), asg("011"))

    def test_meet(self):
        x, y = asg("0110"), asg("1010")
        assert x & y == asg("0010")
        assert x & y <= x and x & y <= y
        assert x | y == asg("1110")
        assert x <= x | y and y <= x | y

    def test_arity_checks(self):
        with pytest.raises(ArityError):
            asg("01") & asg("011")
        with pytest.raises(ArityError):
            asg("01") <= asg("011")
        with pytest.raises(ArityError, match="^variable index 2 out of range for arity 2$"):
            Assignment(4, 2)
        with pytest.raises(ArityError, match="^negative mask -0x1 for arity 2$"):
            Assignment(-1, 2)
        with pytest.raises(ArityError):
            Assignment.from_vars({3}, 2)
        with pytest.raises(ArityError, match="negative arity"):
            Assignment(0, -1)
        with pytest.raises(ValueError, match="not a bit string"):
            Assignment.from_string("1x0")

    def test_constructor_checks_every_way_in(self):
        # keyword calls and dataclasses.replace run the same checks
        assert Assignment(mask=5, n=3) == Assignment(5, 3)
        with pytest.raises(ArityError, match="^variable index 3 out of range for arity 3$"):
            dataclasses.replace(Assignment(1, 3), mask=8)
        with pytest.raises(TypeError):
            Assignment(1.0, 1)
        with pytest.raises(ArityError, match="^negative arity -1$"):
            Assignment(0, -1)

    def test_extremes(self):
        assert Assignment.zero(3) == asg("000")
        assert Assignment.full(3) == asg("111")
        assert Assignment.full(3).count == 3


LENGTH_CHECKED = {
    "and": operator.and_,
    "or": operator.or_,
    "le": operator.le,
    "lt": operator.lt,
    "ge": operator.ge,
    "gt": operator.gt,
    "is_intersection_closed": lambda x, y: is_intersection_closed([x, y]),
}


@pytest.mark.parametrize("swap", [False, True], ids=["long-short", "short-long"])
@pytest.mark.parametrize("name", LENGTH_CHECKED)
def test_length_mismatch_has_one_wording(name, swap):
    x, y = Assignment.from_string("10"), Assignment.from_string("1")
    if swap:
        x, y = y, x
    with pytest.raises(ArityError, match=r"assignment length \d+ vs arity \d+"):
        LENGTH_CHECKED[name](x, y)


@pytest.mark.parametrize(
    "fn", [closure, quasi_closure, subformula_same_class], ids=lambda fn: fn.__name__
)
def test_start_index_out_of_range_has_the_formula_wording(fn, bullet_example):
    wording = r"variable index \d+ out of range for arity \d+"
    with pytest.raises(ArityError, match=wording):
        fn({7}, bullet_example)


class TestFormulaConstruction:
    def test_implication_is_slotted_frozen_and_picklable(self):
        i = imp("ac", "bd")
        for clone in (pickle.loads(pickle.dumps(i)), copy.deepcopy(i)):
            assert clone == i and hash(clone) == hash(i)
        with pytest.raises(dataclasses.FrozenInstanceError):
            i.antecedent = frozenset()
        assert not hasattr(i, "__dict__")

    def test_replace_is_refused_on_mask_fields(self):
        # unlike Assignment's, these fields are private masks, which the
        # constructors do not take: a changed value comes from the constructor
        with pytest.raises(TypeError, match="unexpected keyword argument '_a'"):
            dataclasses.replace(Implication([0], [1]))
        with pytest.raises(TypeError, match="unexpected keyword argument '_mask'"):
            dataclasses.replace(EntailmentClause([0], 1))

    def test_consequent_must_be_nonempty(self):
        with pytest.raises(ValueError, match="^implication consequent must be nonempty$"):
            Implication(frozenset({0}), frozenset())

    @pytest.mark.parametrize("antecedent, consequent", [([-1], [0]), ([0], [-1])])
    def test_implication_refuses_a_negative_index(self, antecedent, consequent):
        # a mask has no bit for a negative index, so the value refuses it
        with pytest.raises(ArityError, match="^negative variable index -1$"):
            Implication(antecedent, consequent)

    def test_implication_view_is_two_masks(self):
        # 488 B per implication while the view held two frozensets
        masks = random_formula(GenConfig(100, 400, (1, 4), (1, 2), seed=1))._masks
        f = HornFormula._of(100, masks)
        tracemalloc.start()
        try:
            view = f.implications
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(view) == 400
        assert size / len(view) < 128

    def test_empty_antecedent_is_fine(self):
        assert imp("", "a").antecedent == frozenset()

    def test_indices_checked_against_arity(self):
        with pytest.raises(ArityError):
            HornFormula(2, [imp("c", "a")])
        with pytest.raises(ArityError, match="negative arity"):
            HornFormula(-1, [])
        with pytest.raises(ValueError, match="3 names for arity 2"):
            HornFormula(2, [], names=("x", "y", "z"))

    @pytest.mark.parametrize(
        "element, name", [((1, 2), "tuple"), (EntailmentClause([0], 1), "EntailmentClause")]
    )
    def test_foreign_implication_is_a_type_error(self, element, name):
        with pytest.raises(TypeError, match=f"^expected Implication, got {name}$"):
            HornFormula(3, [imp("a", "b"), element])

    def test_empty_formula_is_constant_true(self):
        f = HornFormula(3, [])
        assert len(models(f)) == 8

    def test_names_do_not_affect_equality(self):
        f = HornFormula(2, [imp("a", "b")])
        g = HornFormula(2, [imp("a", "b")], names=("x", "y"))
        assert f == g
        assert repr(f) == "HornFormula(2, {a -> b})"
        assert repr(g) == "HornFormula(2, {x -> y})"

    @pytest.mark.parametrize(
        "value, text",
        [
            (Implication(frozenset(), frozenset({1})), "-> 1"),
            (Implication(frozenset({0, 2, 4}), frozenset({1, 3})), "0 2 4 -> 1 3"),
            # both sets iterate in descending order: [33, 10, 2], [8, 1]
            (Implication(frozenset([33, 10, 2]), frozenset([8, 1])), "2 10 33 -> 1 8"),
            # masks past a machine word, taken as they are
            (Implication._of(0, 1 << 70 | 1 << 64), "-> 64 70"),
            (EntailmentClause([], 1), "-> 1"),
            (EntailmentClause({0, 2, 4}, 3), "0 2 4 -> 3"),
            (EntailmentClause(frozenset([33, 10, 2]), 10), "2 10 33 -> 10"),
        ],
    )
    def test_str_and_repr_write_ascending_variable_indices(self, value, text):
        assert str(value) == text
        assert repr(value) == text
        assert value.antecedent == {int(v) for v in text.split("->")[0].split()}


FROZEN_VALUES = {
    "Assignment": (Assignment(3, 4), "mask", "count"),
    "Implication": (Implication([0], [1]), "_a", "antecedent"),
    "EntailmentClause": (EntailmentClause([0], 1), "head", "antecedent"),
}


@pytest.mark.parametrize("kind", ["field", "property", "unknown"])
@pytest.mark.parametrize("cls", FROZEN_VALUES)
def test_frozen_values_refuse_every_assignment_and_deletion(cls, kind):
    value, field, prop = FROZEN_VALUES[cls]
    name = {"field": field, "property": prop, "unknown": "other"}[kind]
    with pytest.raises(
        dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"
    ):
        setattr(value, name, 1)
    with pytest.raises(
        dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"
    ):
        delattr(value, name)


class TestClosure:
    def test_six_antecedent_classes(self, gd_example):
        expected = [vs("de"), vs("bcd"), vs("bcd"), vs("bcd"), vs("abcde"), vs("abcde")]
        got = [closure(i.antecedent, gd_example) for i in gd_example.implications]
        assert got == expected

    def test_single_variable_start(self, gd_example):
        assert closure(vs("e"), gd_example) == vs("de")

    def test_pair_reaching_everything(self, gd_example):
        assert closure(vs("ad"), gd_example) == vs("abcde")

    def test_top_is_closed(self, gd_example):
        assert closure(vs("abcde"), gd_example) == vs("abcde")

    def test_bullet_example(self, bullet_example):
        assert closure(vs("ac"), bullet_example) == vs("abcd")

    def test_empty_antecedent_fires_unconditionally(self):
        f = formula(2, ("", "a"))
        assert closure(frozenset(), f) == vs("a")

    def test_index_out_of_range(self, bullet_example):
        with pytest.raises(ArityError):
            closure({7}, bullet_example)

    def test_order_independence(self, gd_example):
        rng = random.Random(0)
        imps = list(gd_example.implications)
        for _ in range(5):
            rng.shuffle(imps)
            shuffled = HornFormula(5, imps)
            for start in (vs("e"), vs("ce"), vs("ad"), frozenset()):
                assert closure(start, shuffled) == closure(start, gd_example)


class TestClosureMemo:
    def test_pickle_and_copies_leave_the_memo_behind(self):
        f = HornFormula._of(4, [(0b0001, 0b0010), (0b0110, 0b1000)], "pqrs")
        fresh = pickle.dumps(f)
        f.close(0b0101)
        assert f.implications == (imp("a", "b"), imp("bc", "d"))
        assert pickle.dumps(f) == fresh
        for clone in (copy.copy(f), copy.deepcopy(f), pickle.loads(fresh)):
            assert "_closure_cache" not in vars(clone)
            assert clone == f and clone.names == f.names
            assert clone.close(0b0101) == f.close(0b0101)

    @pytest.mark.parametrize(
        "pair, mask", [((-1, 0b010), "-0x1"), ((0b001, -8), "-0x8")]
    )
    def test_unpickling_a_negative_mask_names_it(self, pair, mask):
        class Crafted:
            def __reduce__(self):
                return HornFormula._of, (3, ((0b001, 0b010), pair), None)

        data = pickle.dumps(Crafted())
        with pytest.raises(ArityError, match=f"^negative mask {mask} for arity 3$"):
            pickle.loads(data)

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(core, "CLOSURE_MEMO_LIMIT", 8)
        f = random_formula(GenConfig(6, 10, seed=3))
        for mask in [*range(1 << 6)] * 2:
            assert f.close(mask) == core._chain(mask, f._masks)
            assert len(f._closure_cache) <= 8


class TestClosureLaws:
    """Extensivity, monotonicity, idempotence, representation independence."""

    def _random_case(self, rng):
        n = rng.randint(2, 10)
        m = rng.randint(0, 8)
        imps = []
        for _ in range(m):
            ant = frozenset(rng.sample(range(n), rng.randint(0, min(3, n))))
            con = frozenset(rng.sample(range(n), rng.randint(1, min(3, n))))
            imps.append(Implication(ant, con))
        f = HornFormula(n, imps)
        alpha = frozenset(rng.sample(range(n), rng.randint(0, n)))
        return f, alpha

    def test_laws_on_random_cases(self):
        rng = random.Random(42)
        for _ in range(300):
            f, alpha = self._random_case(rng)
            closed = closure(alpha, f)
            assert alpha <= closed
            assert closure(closed, f) == closed
            beta = closed | frozenset(rng.sample(range(f.arity), 1))
            assert closure(alpha, f) <= closure(beta, f)

    def test_representation_independence(self):
        rng = random.Random(43)
        for _ in range(100):
            f, alpha = self._random_case(rng)
            g = augment(f, rng)
            assert closure(alpha, f) == closure(alpha, g)

    def test_meet_of_models_characterization(self):
        # exhaustive over the hypercube at small arity
        rng = random.Random(44)
        for _ in range(30):
            f, _ = self._random_case(rng)
            if f.arity > 6:
                continue
            for mask in range(1 << f.arity):
                chained = closure(Assignment(mask, f.arity).ones(), f)
                meet = brute_closure_mask(mask, f)
                assert Assignment.from_vars(chained, f.arity).mask == meet


class TestSubformulaSameClass:
    def test_bullet_class_of_ac(self, bullet_example):
        sub = subformula_same_class(vs("ac"), bullet_example)
        assert sub.implications == (imp("a", "b"), imp("a", "c"))

    def test_gd_class_of_e(self, gd_example):
        sub = subformula_same_class(vs("e"), gd_example)
        assert sub.implications == (imp("e", "d"),)

    def test_no_antecedent_in_class(self):
        f = formula(3, ("a", "b"))
        assert subformula_same_class(vs("c"), f).implications == ()


class TestQuasiClosure:
    def test_bullet_example(self, bullet_example):
        assert quasi_closure(vs("ac"), bullet_example) == vs("acd")

    def test_closed_set_is_fixed(self, bullet_example):
        assert quasi_closure(vs("abcd"), bullet_example) == vs("abcd")

    def test_single_variable(self, bullet_example):
        # the class of {a} removes both a-implications, leaving c -> d inert
        assert quasi_closure(vs("a"), bullet_example) == vs("a")

    def test_sandwich_property(self):
        rng = random.Random(45)
        for _ in range(200):
            n = rng.randint(2, 8)
            m = rng.randint(0, 6)
            imps = [
                Implication(
                    frozenset(rng.sample(range(n), rng.randint(0, 2))),
                    frozenset(rng.sample(range(n), rng.randint(1, 2))),
                )
                for _ in range(m)
            ]
            f = HornFormula(n, imps)
            alpha = frozenset(rng.sample(range(n), rng.randint(0, n)))
            bullet = quasi_closure(alpha, f)
            assert alpha <= bullet <= closure(alpha, f)


class TestSatisfies:
    def test_top_satisfies(self, gd_example):
        assert satisfies(Assignment.full(5), gd_example)

    def test_violating_first_implication(self, gd_example):
        assert not satisfies(Assignment.from_vars(vs("e"), 5), gd_example)

    def test_bottom_satisfies_without_empty_antecedents(self, gd_example):
        assert satisfies(Assignment.zero(5), gd_example)

    def test_fixpoint_characterization(self, gd_example):
        for mask in range(1 << 5):
            x = Assignment(mask, 5)
            closed = closure(x.ones(), gd_example)
            assert satisfies(x, gd_example) == (closed == x.ones())

    def test_length_mismatch(self, gd_example):
        with pytest.raises(ArityError):
            satisfies(asg("111"), gd_example)


class TestEntails:
    def test_clause_from_same_class(self, gd_example):
        assert entails(gd_example, EntailmentClause(vs("bd"), 2))  # bd -> c

    def test_unreachable_head(self, gd_example):
        assert not entails(gd_example, EntailmentClause(vs("e"), 0))  # e -> a

    def test_head_inside_antecedent(self, gd_example):
        assert entails(gd_example, EntailmentClause(vs("ab"), 0))

    def test_head_out_of_range(self, gd_example):
        with pytest.raises(ArityError):
            entails(gd_example, EntailmentClause(vs("a"), 9))

    def test_negative_head_is_rejected(self):
        with pytest.raises(ArityError, match="^negative variable index -1$"):
            EntailmentClause([], -1)
        with pytest.raises(ArityError, match="^negative variable index -1$"):
            EntailmentClause._of(0, -1)


class TestEquivalent:
    def test_reflexive(self, gd_example):
        assert equivalent(gd_example, gd_example)

    def test_merged_consequents(self):
        f = formula(3, ("a", "b"), ("b", "c"))
        g = formula(3, ("a", "bc"), ("b", "c"))
        assert equivalent(f, g)
        assert brute_equivalent(f, g)

    def test_direction_matters(self):
        f = formula(2, ("a", "b"))
        g = formula(2, ("b", "a"))
        assert not equivalent(f, g)
        assert not brute_equivalent(f, g)
        witness = separating_assignment(f, g)
        assert satisfies(witness, f) != satisfies(witness, g)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            equivalent(formula(2, ("a", "b")), formula(3, ("a", "b")))

    def test_against_brute_force(self):
        rng = random.Random(46)
        for _ in range(150):
            n = rng.randint(2, 7)
            f = HornFormula(
                n,
                [
                    Implication(
                        frozenset(rng.sample(range(n), rng.randint(0, 2))),
                        frozenset(rng.sample(range(n), rng.randint(1, 2))),
                    )
                    for _ in range(rng.randint(0, 5))
                ],
            )
            g = augment(f, rng) if rng.random() < 0.5 else HornFormula(
                n,
                [
                    Implication(
                        frozenset(rng.sample(range(n), rng.randint(0, 2))),
                        frozenset(rng.sample(range(n), rng.randint(1, 2))),
                    )
                    for _ in range(rng.randint(0, 5))
                ],
            )
            assert equivalent(f, g) == brute_equivalent(f, g)


class TestModels:
    def test_empty_formula(self):
        assert [str(m) for m in models(HornFormula(2, []))] == ["00", "01", "10", "11"]

    def test_two_model_family_member(self):
        f = family_member(asg("10"))
        assert [str(m) for m in models(f)] == ["10", "11"]

    def test_single_implication(self):
        f = formula(2, ("a", "b"))
        assert [str(m) for m in models(f)] == ["00", "01", "11"]

    def test_lexicographic_order(self, gd_example):
        out = models(gd_example)
        keys = [m.bits() for m in out]
        assert keys == sorted(keys)

    def test_limit_refused(self):
        with pytest.raises(ValueError):
            models(HornFormula(21, []))

    def test_agrees_with_direct_scan(self, gd_example):
        got = {m.mask for m in models(gd_example)}
        assert got == set(brute_model_masks(gd_example))


class TestIntersectionClosed:
    def test_missing_meet(self):
        assert not is_intersection_closed([asg("01"), asg("10")])

    def test_full_hypercube(self):
        n = 3
        assert is_intersection_closed([Assignment(m, n) for m in range(1 << n)])

    def test_models_of_definite_horn(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(2, 9)
            f = HornFormula(
                n,
                [
                    Implication(
                        frozenset(rng.sample(range(n), rng.randint(0, 2))),
                        frozenset(rng.sample(range(n), rng.randint(1, 2))),
                    )
                    for _ in range(rng.randint(0, 8))
                ],
            )
            ms = models(f)
            assert is_intersection_closed(ms)
            assert Assignment.full(n) in ms

    def test_mixed_lengths(self):
        with pytest.raises(ArityError):
            is_intersection_closed([asg("01"), asg("011")])

    def test_both_code_paths_agree(self):
        # small sets go through the pairwise scan, dense ones through the
        # lattice sweep; compare them on the same families
        rng = random.Random(48)
        for _ in range(60):
            n = rng.randint(2, 6)
            size = rng.randint(0, 1 << n)
            masks = rng.sample(range(1 << n), size)
            sample = [Assignment(m, n) for m in masks]
            reference = all(
                (a.mask & b.mask) in set(masks) for a in sample for b in sample
            )
            assert is_intersection_closed(sample) == reference

    def test_empty_and_singleton(self):
        assert is_intersection_closed([])
        assert is_intersection_closed([asg("0110")])


def test_model_table_matches_direct_scan():
    # the fast big-int oracle and the plain scan must agree before either
    # is trusted anywhere else
    rng = random.Random(49)
    for _ in range(60):
        n = rng.randint(1, 6)
        f = HornFormula(
            n,
            [
                Implication(
                    frozenset(rng.sample(range(n), rng.randint(0, n))),
                    frozenset(rng.sample(range(n), rng.randint(1, n))),
                )
                for _ in range(rng.randint(0, 5))
            ],
        )
        table = model_table(f)
        assert [m for m in range(1 << n) if table >> m & 1] == brute_model_masks(f)
