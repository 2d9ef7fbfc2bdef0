import itertools
import random
import zlib

import pytest

from hornlearn import (
    HornFormula,
    Implication,
    closure,
    equivalent,
    gd_basis,
    is_left_saturated,
    is_right_saturated,
    is_saturated,
    left_saturate,
    quasi_closure,
    remove_redundant,
    right_saturate,
)

from hornlearn.generate import GenConfig, random_formula

from helpers import augment, brute_equivalent, formula, imp, vs


def random_definite(rng, n_max=10, m_max=8):
    n = rng.randint(2, n_max)
    m = rng.randint(0, m_max)
    imps = [
        Implication(
            frozenset(rng.sample(range(n), rng.randint(0, min(3, n)))),
            frozenset(rng.sample(range(n), rng.randint(1, min(3, n)))),
        )
        for _ in range(m)
    ]
    return HornFormula(n, imps)


class TestRightSaturate:
    def test_bullet_example_keeps_duplicates(self, bullet_example):
        out = right_saturate(bullet_example)
        assert out.implications == (
            imp("a", "abcd"),
            imp("a", "abcd"),
            imp("c", "cd"),
        )

    def test_first_gd_implication(self, gd_example):
        out = right_saturate(gd_example)
        assert out.implications[0] == imp("e", "de")

    def test_fixed_point(self, bullet_example):
        once = right_saturate(bullet_example)
        assert right_saturate(once) == once
        assert is_right_saturated(once)

    def test_preserves_semantics(self):
        rng = random.Random(50)
        for _ in range(80):
            f = random_definite(rng)
            assert equivalent(right_saturate(f), f)


class TestLeftSaturate:
    def test_requires_right_saturated_input(self, bullet_example):
        with pytest.raises(ValueError):
            left_saturate(bullet_example)

    def test_bullet_antecedents_unchanged(self, bullet_example):
        rs = right_saturate(bullet_example)
        out = left_saturate(rs)
        assert [i.antecedent for i in out.implications] == [vs("a"), vs("a"), vs("c")]

    def test_single_implication_unchanged(self):
        rs = right_saturate(formula(3, ("a", "b")))
        assert left_saturate(rs) == rs

    def test_antecedent_can_grow(self, gd_example):
        # the last implication's antecedent {c,e} absorbs what the other
        # classes force: e gives d, then cd gives b, landing on {b,c,d,e}
        out = left_saturate(right_saturate(gd_example))
        assert out.implications[5].antecedent == vs("bcde")
        assert quasi_closure(vs("ce"), gd_example) == vs("bcde")

    def test_two_model_formula_grows_an_antecedent(self):
        f = formula(2, ("", "a"), ("b", "ab"))  # models are 10 and 11
        out = left_saturate(right_saturate(f))
        assert out.implications[1].antecedent == vs("ab")

    def test_small_search_finds_growth_and_stays_left_saturated(self):
        grew = 0
        pool = []
        for n in (2, 3):
            for ant_mask in range(1 << n):
                ant = frozenset(v for v in range(n) if ant_mask >> v & 1)
                free = [v for v in range(n) if v not in ant]
                for k in range(1, len(free) + 1):
                    for con in itertools.combinations(free, k):
                        pool.append((n, Implication(ant, frozenset(con))))
        by_arity = {2: [], 3: []}
        for n, i in pool:
            by_arity[n].append(i)
        for n, imps in by_arity.items():
            for pair in itertools.combinations(range(len(imps)), 2):
                f = HornFormula(n, [imps[i] for i in pair])
                out = left_saturate(right_saturate(f))
                assert is_left_saturated(out)
                assert equivalent(out, f)
                if any(
                    a.antecedent != b.antecedent
                    for a, b in zip(right_saturate(f).implications, out.implications)
                ):
                    grew += 1
        assert grew > 0

    def test_keeps_right_saturation(self):
        rng = random.Random(51)
        for _ in range(60):
            f = right_saturate(random_definite(rng))
            out = left_saturate(f)
            assert is_right_saturated(out)
            assert is_left_saturated(out)
            assert equivalent(out, f)


class TestRemoveRedundant:
    def test_duplicate(self):
        f = formula(2, ("a", "b"), ("a", "b"))
        assert remove_redundant(f).implications == (imp("a", "b"),)

    def test_transitive_consequence(self):
        f = formula(3, ("a", "b"), ("b", "c"), ("a", "c"))
        assert remove_redundant(f).implications == (imp("a", "b"), imp("b", "c"))

    def test_irredundant_untouched(self, gd_example):
        assert remove_redundant(gd_example) == gd_example

    def test_tautology_dropped(self):
        f = formula(2, ("ab", "a"))
        assert remove_redundant(f).implications == ()

    def test_result_is_equivalent_and_irredundant(self):
        rng = random.Random(52)
        for _ in range(60):
            f = random_definite(rng)
            out = remove_redundant(f)
            assert equivalent(out, f)
            assert remove_redundant(out) == out


class TestGdBasis:
    def test_bullet_example(self, bullet_example):
        out = gd_basis(bullet_example)
        assert out.implications == (imp("a", "abcd"), imp("c", "cd"))

    def test_gd_example(self, gd_example):
        out = gd_basis(gd_example)
        assert frozenset(out.implications) == frozenset(
            [
                imp("e", "de"),
                imp("bc", "bcd"),
                imp("bd", "bcd"),
                imp("cd", "bcd"),
                imp("ad", "abcde"),
                imp("bcde", "abcde"),
            ]
        )

    def test_idempotent(self, gd_example):
        basis = gd_basis(gd_example)
        assert gd_basis(basis) == basis

    def test_permutation_invariant(self, gd_example):
        rng = random.Random(53)
        reference = frozenset(gd_basis(gd_example).implications)
        imps = list(gd_example.implications)
        for _ in range(6):
            rng.shuffle(imps)
            out = gd_basis(HornFormula(5, imps))
            assert frozenset(out.implications) == reference

    def test_equivalent_and_saturated(self):
        rng = random.Random(54)
        for _ in range(80):
            f = random_definite(rng)
            basis = gd_basis(f)
            assert equivalent(basis, f)
            assert is_saturated(basis)
            if f.arity <= 10:
                assert brute_equivalent(basis, f)

    def test_unique_across_equivalent_inputs(self):
        rng = random.Random(55)
        for _ in range(60):
            f = random_definite(rng)
            g = augment(f, rng, extra=rng.randint(1, 4))
            assert frozenset(gd_basis(f).implications) == frozenset(
                gd_basis(g).implications
            )

    def test_closures_unchanged_by_canonicalization(self, gd_example):
        basis = gd_basis(gd_example)
        for mask in range(1 << 5):
            start = frozenset(v for v in range(5) if mask >> v & 1)
            assert closure(start, basis) == closure(start, gd_example)


class TestIsSaturated:
    def test_saturated_formula(self):
        assert is_saturated(formula(4, ("a", "abcd"), ("c", "cd")))

    def test_unsaturated_formula(self, bullet_example):
        assert not is_saturated(bullet_example)
        assert not is_right_saturated(bullet_example)

    def test_empty_formula(self):
        assert is_saturated(HornFormula(3, []))

    def test_saturated_implies_irredundant(self):
        rng = random.Random(56)
        for _ in range(60):
            basis = gd_basis(random_definite(rng))
            assert is_saturated(basis)
            assert remove_redundant(basis) == basis


@pytest.mark.parametrize(
    "n, m, seed, size, crc",
    [
        (100, 400, 1, 93, 0x4A48A0EE),
        (200, 800, 1, 206, 0xF2E51121),
        (200, 800, 2, 236, 0x707444B9),
        (194, 1477, 1, 179, 0x074AF8FB),
        (143, 986, 1, 135, 0x5B80D91A),
    ],
    ids=[
        "100-400-seed1",
        "200-800-seed1",
        "200-800-seed2",
        "194-1477-seed1",
        "143-986-seed1",
    ],
)
def test_gd_basis_order_at_bench_scale(n, m, seed, size, crc):
    """The ordered output on the benchmark's formula shapes, pinned by the
    CRC-32 of the repr of its mask pairs.  At m = 6n-8n most variables fall
    in one unit class (they derive each other through one-variable
    antecedents), which `gd_basis` saturates as one column."""
    basis = gd_basis(random_formula(GenConfig(n, m, (1, 4), (1, 2), seed=seed)))
    assert len(basis) == size
    assert zlib.crc32(repr(basis._masks).encode()) == crc
