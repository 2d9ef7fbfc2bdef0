import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornlearn import GenConfig, equivalent, gd_basis, random_formula
from hornlearn.generate import example_corpus
from hornlearn.oracles import family_member

from helpers import brute_equivalent, reference_masks, vs

# Each configuration drawn to the same masks as the reference generator:
# default sizes over small arities; whole-range sizes, whose larger picks
# take `sample`'s pool branch with more than five picks; the bench shapes,
# whose picks take its set branch.
REFERENCE_GRID = (
    [GenConfig(n, m) for n in range(30) for m in (0, 1, 5, 40) if n or not m]
    + [GenConfig(n, 30, (0, n), (1, n), seed=n) for n in range(1, 80, 3)]
    + [
        GenConfig(100, 400, (1, 4), (1, 2), seed=1),
        GenConfig(250, 2000, (1, 4), (1, 2), seed=1),
    ]
)


@st.composite
def configs(draw):
    """Valid configurations up to arity 120, whose picks reach both of
    `sample`'s branches, with and without more than five picks."""
    n = draw(st.integers(1, 120))
    alo = draw(st.integers(0, n))
    clo = draw(st.integers(1, n))
    return GenConfig(
        n,
        draw(st.integers(0, 12)),
        (alo, draw(st.integers(alo, n))),
        (clo, draw(st.integers(clo, n))),
        seed=draw(st.integers(0, 2**64)),
    )


class TestRandomFormula:
    def test_deterministic_per_seed(self):
        cfg = GenConfig(6, 5, seed=123)
        assert random_formula(cfg) == random_formula(cfg)

    def test_different_seeds_differ(self):
        a = random_formula(GenConfig(8, 6, seed=1))
        b = random_formula(GenConfig(8, 6, seed=2))
        assert a != b

    def test_pinned_at_bench_scale(self):
        """The mask pairs drawn for the benchmark's target shape, pinned by
        the CRC-32 of their repr: generation must keep the seeded stream."""
        f = random_formula(GenConfig(100, 400, (1, 4), (1, 2), seed=1))
        assert zlib.crc32(repr(f._masks).encode()) == 4162308711

    def test_pinned_in_the_pool_branch(self):
        """Arity 20 with default sizes: every pick takes `sample`'s pool."""
        f = random_formula(GenConfig(20, 200, seed=7))
        assert zlib.crc32(repr(f._masks).encode()) == 2416549288

    def test_pinned_with_more_than_five_picks(self):
        """Arity 60, picks of 4 to 16: the set branch up to five picks and
        the pool branch, with its larger size threshold, above."""
        f = random_formula(GenConfig(60, 100, (4, 12), (6, 16), seed=11))
        assert zlib.crc32(repr(f._masks).encode()) == 2187145067

    @pytest.mark.parametrize(
        "config", REFERENCE_GRID, ids=lambda c: f"n{c.arity}-m{c.count}-seed{c.seed}"
    )
    def test_matches_the_reference_generator(self, config):
        assert random_formula(config)._masks == reference_masks(config)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(configs())
    def test_matches_the_reference_on_any_configuration(self, config):
        assert random_formula(config)._masks == reference_masks(config)

    def test_zero_count(self):
        assert random_formula(GenConfig(4, 0)).implications == ()

    def test_respects_size_ranges(self):
        cfg = GenConfig(
            10, 40, antecedent_sizes=(1, 2), consequent_sizes=(2, 3), seed=9
        )
        f = random_formula(cfg)
        assert len(f) == 40
        for imp in f.implications:
            assert 1 <= len(imp.antecedent) <= 2
            assert 2 <= len(imp.consequent) <= 3

    def test_canonicalization_round_trip(self):
        f = random_formula(GenConfig(5, 6, seed=42))
        basis = gd_basis(f)
        assert equivalent(basis, f)
        assert brute_equivalent(basis, f)

    def test_infeasible_ranges(self):
        with pytest.raises(ValueError):
            GenConfig(3, 2, antecedent_sizes=(2, 5))
        with pytest.raises(ValueError):
            GenConfig(3, 2, consequent_sizes=(0, 1))
        with pytest.raises(ValueError):
            GenConfig(3, 2, consequent_sizes=(2, 1))
        with pytest.raises(ValueError):
            GenConfig(3, -1)
        with pytest.raises(ValueError, match="negative arity"):
            GenConfig(-1, 0)
        with pytest.raises(ValueError, match="impossible with arity 0"):
            GenConfig(0, 1)


class TestExampleCorpus:
    def test_gd_example_shape(self):
        f = example_corpus()["gd-example"]
        assert f.arity == 5
        assert len(f) == 6
        assert f.names == tuple("abcde")

    def test_bullet_example_closure(self):
        from hornlearn import closure, quasi_closure

        f = example_corpus()["bullet-example"]
        assert closure(vs("ac"), f) == vs("abcd")
        assert quasi_closure(vs("ac"), f) == vs("acd")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            example_corpus()["mystery-example"]

    def test_family_constructor_reexported(self):
        from hornlearn import Assignment

        f = family_member(Assignment.from_string("01"))
        assert len(f) == 2

    def test_checked_in_corpus_files_match(self):
        from pathlib import Path

        from hornlearn import parse_formula

        root = Path(__file__).resolve().parent.parent / "corpus"
        assert {p.stem for p in root.glob("*.horn")} == set(example_corpus())
        for name, f in example_corpus().items():
            on_disk = parse_formula((root / f"{name}.horn").read_text())
            assert on_disk == f
            assert on_disk.names == f.names
        gd, bullet = example_corpus()["gd-example"], example_corpus()["bullet-example"]
        assert gd._masks == ((16, 8), (6, 8), (10, 4), (12, 2), (9, 22), (20, 3))
        assert gd.names == tuple("abcde")
        assert bullet._masks == ((1, 2), (1, 4), (4, 8))
        assert bullet.names == tuple("abcd")
