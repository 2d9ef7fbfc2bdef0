import dataclasses
import hashlib
import importlib
import random
import re
import runpy
import sys
from pathlib import Path

import pytest

from hornlearn import (
    GenConfig,
    HornFormula,
    Implication,
    clh,
    format_formula,
    parse_formula,
    random_formula,
)
from hornlearn.cli import ALGORITHMS, main
from hornlearn.formats import FormulaParseError

ROOT = Path(__file__).parent.parent
CORPUS = ROOT / "corpus"
GD_FILE = str(CORPUS / "gd-example.horn")
BULLET_FILE = str(CORPUS / "bullet-example.horn")
GD_TEXT = Path(GD_FILE).read_text()

BULLET_TEXT = """\
vars: a b c d
a -> b
a -> c
c -> d
"""


class TestFormat:
    def test_parse_simple(self):
        f = parse_formula("vars: a b\na -> b\n")
        assert f.arity == 2
        assert f.implications == (Implication({0}, {1}),)
        assert f.names == ("a", "b")

    def test_parse_gd_example(self, gd_example):
        assert parse_formula(GD_TEXT) == gd_example
        assert len(parse_formula(GD_TEXT)) == 6

    def test_empty_antecedent(self):
        f = parse_formula("vars: a\n-> a\n")
        assert f.implications == (Implication(frozenset(), {0}),)

    def test_comments_and_blank_lines(self):
        text = "\n# lead\nvars: a b  # trailing\n\na -> b  # note\n"
        assert parse_formula(text).implications == (Implication({0}, {1}),)

    def test_unknown_token_reports_line(self):
        with pytest.raises(FormulaParseError, match="line 3: unknown token 'z'"):
            parse_formula("vars: a b\na -> b\nz -> a\n")

    def test_missing_header(self):
        with pytest.raises(FormulaParseError, match="header"):
            parse_formula("a -> b\n")
        with pytest.raises(FormulaParseError, match="header"):
            parse_formula("# nothing here\n")

    def test_empty_consequent(self):
        with pytest.raises(FormulaParseError, match="line 2: empty consequent"):
            parse_formula("vars: a b\na ->\n")

    def test_missing_arrow(self):
        with pytest.raises(FormulaParseError, match="line 2: missing"):
            parse_formula("vars: a b\na b\n")

    @pytest.mark.parametrize(
        "line, spaced",
        [("a->b", "a -> b"), ("a ->b", "a -> b"), ("a-> b", "a -> b"),
         ("->b a", "-> b a"), ("b a->a  # c->d", "b a -> a")],
    )
    def test_arrow_without_spaces(self, line, spaced):
        got = parse_formula(f"vars: a b\n{line}\n")
        assert got == parse_formula(f"vars: a b\n{spaced}\n")

    @pytest.mark.parametrize("line", ["a -> b -> a", "a->b->a", "a -> -> b"])
    def test_second_arrow(self, line):
        with pytest.raises(FormulaParseError, match="^line 2: more than one '->'$"):
            parse_formula(f"vars: a b\n{line}\n")

    def test_duplicate_header_token(self):
        with pytest.raises(FormulaParseError, match="duplicate"):
            parse_formula("vars: a a\n")

    def test_invalid_header_token(self):
        with pytest.raises(FormulaParseError, match="line 1: invalid token 'b-c'"):
            parse_formula("vars: a b-c\n")

    def test_arrow_in_the_header_is_not_split(self):
        with pytest.raises(FormulaParseError, match="line 1: invalid token 'a->b'"):
            parse_formula("vars: a->b\n")

    def test_serialize_shape(self, bullet_example):
        assert format_formula(bullet_example) == BULLET_TEXT

    def test_round_trip_random(self):
        rng = random.Random(90)
        for _ in range(60):
            n = rng.randint(1, 9)
            f = HornFormula(
                n,
                [
                    Implication(
                        frozenset(rng.sample(range(n), rng.randint(0, n - 1 or 1))),
                        frozenset(rng.sample(range(n), rng.randint(1, n))),
                    )
                    for _ in range(rng.randint(0, 6))
                ],
            )
            assert parse_formula(format_formula(f)) == f

    def test_round_trip_keeps_names(self):
        f = HornFormula(3, [Implication({2}, {0, 1})], names=("x_1", "Y", "9z"))
        back = parse_formula(format_formula(f))
        assert back == f
        assert back.names == f.names

    def test_no_variables_has_no_trailing_space(self):
        assert format_formula(parse_formula("vars:\n")) == "vars:\n"

    @pytest.mark.parametrize(
        "names, bad",
        [
            (("a b", "c"), "invalid token 'a b'"),
            (("", "y"), "invalid token ''"),
            (("->", "c"), "invalid token '->'"),
            (("x#", "y"), "invalid token 'x#'"),
            (("a", "a"), "duplicate token 'a'"),
        ],
    )
    def test_serialize_rejects_unreadable_names(self, names, bad):
        f = HornFormula(2, [Implication({0}, {1})], names=names)
        with pytest.raises(ValueError, match=re.escape(bad)):
            format_formula(f)


class TestCommands:
    def test_closure(self, capsys):
        assert main(["closure", BULLET_FILE, "a", "c"]) == 0
        assert capsys.readouterr().out.strip() == "a b c d"

    def test_closure_empty_start(self, capsys):
        assert main(["closure", BULLET_FILE]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_closure_unknown_token(self, capsys):
        assert main(["closure", BULLET_FILE, "q"]) == 2

    def test_equiv_same(self, capsys):
        assert main(["equiv", GD_FILE, GD_FILE]) == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_equiv_different(self, tmp_path, capsys):
        p1 = tmp_path / "one.horn"
        p2 = tmp_path / "two.horn"
        p1.write_text("vars: a b\na -> b\n")
        p2.write_text("vars: a b\nb -> a\n")
        assert main(["equiv", str(p1), str(p2)]) == 1
        assert "not equivalent" in capsys.readouterr().out

    def test_equiv_mixed_arities_is_a_usage_error(self, tmp_path, capsys):
        p1 = tmp_path / "one.horn"
        p2 = tmp_path / "two.horn"
        p1.write_text("vars: a b\na -> b\n")
        p2.write_text("vars: a b c\na -> b\n")
        assert main(["equiv", str(p1), str(p2)]) == 2
        assert "2 variables vs 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "second, code",
        [("vars: b a\na -> b\n", 0), ("vars: b a\nb -> a\n", 1)],
        ids=["same-by-name", "swapped-by-name"],
    )
    def test_equiv_matches_variables_by_token(self, tmp_path, capsys, second, code):
        # the header order differs, so the two files number a and b the
        # other way round; only the tokens say which variable is which
        p1 = tmp_path / "one.horn"
        p2 = tmp_path / "two.horn"
        p1.write_text("vars: a b\na -> b\n")
        p2.write_text(second)
        assert main(["equiv", str(p1), str(p2)]) == code
        out = capsys.readouterr().out
        if code:
            # the witness a=1, b=0, in the first file's order and tokens
            assert out == "not equivalent: 10 ({a})\n"
        else:
            assert out == "equivalent\n"

    def test_equiv_on_different_tokens_is_a_usage_error(self, tmp_path, capsys):
        p1 = tmp_path / "one.horn"
        p2 = tmp_path / "two.horn"
        p1.write_text("vars: a b\n")
        p2.write_text("vars: b y\n")
        assert main(["equiv", str(p1), str(p2)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tokens a only in {p1}, y only in {p2}\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.horn"
        bad.write_text("vars: a b\na -> z\n")
        assert main(["gd", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["gd", "/nonexistent/x.horn"]) == 2

    def test_internal_arity_error_is_not_a_usage_error(self, monkeypatch):
        from hornlearn import ArityError, cli

        def broken(formula):
            raise ArityError("variable index 9 out of range for arity 4")

        monkeypatch.setattr(cli, "gd_basis", broken)
        with pytest.raises(ArityError):
            main(["gd", BULLET_FILE])

    def test_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["learn", "--algo", "nope", "--target", "x"])
        assert info.value.code == 2

    def test_learn_output_is_canonical(self, capsys):
        from hornlearn import gd_basis

        assert main(["learn", "--algo", "clh", "--target", GD_FILE]) == 0
        out = capsys.readouterr().out
        formula_text = "\n".join(out.strip().splitlines()[:-1]) + "\n"
        assert parse_formula(formula_text) == gd_basis(parse_formula(GD_TEXT))

    def test_learn_random_strategy(self, capsys):
        rc = main(
            ["learn", "--algo", "clh", "--target", GD_FILE,
             "--strategy", "random", "--seed", "11"]
        )
        assert rc == 0

    @pytest.mark.parametrize(
        "command",
        [["gd", "{}"], ["closure", "{}", "a", "d"], ["equiv", "{}", "{}"]]
        + [["learn", "--trace", "--algo", a, "--target", "{}"] for a in ALGORITHMS],
        ids=["gd", "closure", "equiv", *ALGORITHMS],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, command, capsys):
        # some Windows editors start a UTF-8 file with a byte-order mark
        plain = Path(GD_FILE)
        marked = tmp_path / "gd-example.horn"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        runs = []
        for path in (plain, marked):
            runs.append((main([a.format(path) for a in command]), capsys.readouterr()))
        assert runs[0][0] == 0
        assert runs[1] == runs[0]


def _inequivalent_learner(teacher):
    """A runner that learns, then reports the empty formula instead."""
    report = clh(teacher)
    return dataclasses.replace(report, output=HornFormula(teacher.arity, []))


class TestSelfCheck:
    def test_learn_fails_on_inequivalent_output(self, monkeypatch, capsys):
        from hornlearn import cli

        monkeypatch.setitem(cli.LEARNERS, "clh", _inequivalent_learner)
        assert main(["learn", "--algo", "clh", "--target", GD_FILE]) == 1
        err = capsys.readouterr().err
        assert err == "error: learned formula failed the equivalence self-check\n"

    def test_bench_fails_without_writing_csv(self, tmp_path, monkeypatch, capsys):
        from hornlearn import cli

        monkeypatch.setitem(cli.LEARNERS, "clh", _inequivalent_learner)
        out = tmp_path / "runs.csv"
        assert main(
            ["bench", "--algos", "clh", "--n-range", "3:4", "--m-range", "1:3",
             "--trials", "2", "--seed", "1", "--out", str(out)]
        ) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(
            r"error: clh failed the self-check on seed \d+\n", captured.err
        )
        assert captured.out == ""
        assert not out.exists()


class TestBench:
    def test_csv_schema_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = [
            "bench", "--algos", "clh", "afp", "--n-range", "3:6",
            "--m-range", "1:4", "--trials", "3", "--seed", "7",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        rows1 = out1.read_text().splitlines()
        rows2 = out2.read_text().splitlines()
        assert rows1[0] == "algo,n,m,seed,seq,cq,smq,emq,eeq,wall_time"
        assert len(rows1) == 1 + 2 * 3
        strip_time = lambda rows: [r.rsplit(",", 1)[0] for r in rows]
        assert strip_time(rows1) == strip_time(rows2)
        algos = [r.split(",")[0] for r in rows1[1:]]
        assert algos == ["clh"] * 3 + ["afp"] * 3

    def test_counters_match_algorithm_kind(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(
            ["bench", "--algos", "clh-entail", "--n-range", "3:4",
             "--m-range", "1:3", "--trials", "2", "--seed", "1",
             "--out", str(out)]
        ) == 0
        for row in out.read_text().splitlines()[1:]:
            parts = row.split(",")
            seq, cq, smq, emq, eeq = map(int, parts[4:9])
            assert seq == 0 and cq == 0 and smq == 0
            assert emq > 0 or eeq > 0


    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n-range", "10:4", "LO 10 is above HI 4"),
            ("--m-range", "5:2", "LO 5 is above HI 2"),
            ("--n-range", "x", "expected LO:HI, got 'x'"),
            ("--trials", "-2", "must be at least 1, got -2"),
            ("--trials", "0", "must be at least 1, got 0"),
            ("--trials", "x", "expected an integer, got 'x'"),
        ],
    )
    def test_rejects_bad_ranges_and_trials(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "bad.csv"
        args = {"--n-range": "3:4", "--m-range": "1:3", "--trials": "2"}
        args[flag] = value
        argv = ["bench", "--algos", "clh", "--out", str(out)]
        for name, text in args.items():
            argv += [name, text]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_single_value_range(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(
            ["bench", "--algos", "clh", "--n-range", "4", "--m-range", "2:2",
             "--trials", "1", "--out", str(out)]
        ) == 0
        assert out.read_text().splitlines()[1].split(",")[1] == "4"

    @pytest.mark.parametrize("flag", ["--n-range", "--m-range"])
    def test_rejects_negative_bounds(self, tmp_path, capsys, flag):
        out = tmp_path / "bad.csv"
        args = {"--n-range": "3:4", "--m-range": "1:3"}
        args[flag] = "-2:-1"
        argv = ["bench", "--algos", "clh", "--trials", "1", "--out", str(out)]
        argv += [f"{name}={text}" for name, text in args.items()]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"argument {flag}: LO -2 is negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_range, m_range", [("0:0", "1:1"), ("0:3", "0:2")])
    def test_rejects_arity_zero_with_implications(self, tmp_path, capsys, n_range, m_range):
        out = tmp_path / "bad.csv"
        argv = ["bench", "--algos", "clh", "--n-range", n_range, "--m-range", m_range,
                "--trials", "1", "--out", str(out)]
        assert main(argv) == 2
        m_hi = m_range.split(":")[1]
        err = capsys.readouterr().err
        assert f"argument --n-range: LO 0 admits no implication, but --m-range reaches {m_hi}" in err
        assert not out.exists()

    def test_arity_zero_without_implications(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(
            ["bench", "--algos", "clh", "--n-range", "0:0", "--m-range", "0:0",
             "--trials", "1", "--out", str(out)]
        ) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2 and rows[1].split(",")[1:3] == ["0", "0"]

    @pytest.mark.parametrize("seed", range(1, 7))
    @pytest.mark.parametrize("n_range", ["10:14", "13"])
    def test_minimal_clh_entail_at_any_arity(self, tmp_path, seed, n_range):
        # under "minimal", eeq names the counterexample seq does, so each
        # clh-entail run asks one EEQ per SEQ of the clh run on its target
        out = tmp_path / "minimal.csv"
        argv = ["bench", "--algos", "clh", "clh-entail", "--n-range", n_range,
                "--m-range", "2:4", "--trials", "2", "--seed", str(seed), "--strategy", "minimal",
                "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 * 2
        for plain, simulated in zip(rows[:2], rows[2:]):
            assert (plain[0], simulated[0]) == ("clh", "clh-entail")
            assert plain[1:4] == simulated[1:4]  # n, m, seed
            assert simulated[8] == plain[4]  # eeq == seq

    def test_learns_under_minimal_at_n_13_to_16(self, tmp_path):
        out = tmp_path / "minimal.csv"
        assert main(
            ["bench", "--algos", "clh", "afp", "afp-closure", "--n-range", "13:16",
             "--m-range", "4:8", "--trials", "2", "--seed", "5", "--strategy", "minimal",
             "--out", str(out)]
        ) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 2

    def test_learns_under_minimal_at_n_4_to_12(self, tmp_path):
        out = tmp_path / "minimal.csv"
        assert main(
            ["bench", "--algos", "clh", "afp", "--n-range", "4:12", "--m-range", "2:4",
             "--trials", "3", "--seed", "5", "--strategy", "minimal", "--out", str(out)]
        ) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 3


class TestLowerBound:
    @pytest.mark.parametrize("n", [2, 4])
    def test_full_output_pinned(self, n, capsys):
        initial = 2**n - 1
        steps = "".join(
            f"queries={i} remaining={initial - i}\n" for i in range(1, initial)
        )
        assert main(["lowerbound", "--n", str(n)]) == 0
        out, err = capsys.readouterr()
        assert out == (
            f"candidates: {initial}\n"
            + steps
            + "determined the closure of the all-zeros assignment "
            f"after {initial - 1} queries\n"
        )
        assert err == ""

    def test_arity_validation(self, capsys):
        assert main(["lowerbound", "--n", "40"]) == 2

    @pytest.mark.parametrize("n, code", [("2", 0), ("1", 2)])
    def test_module_entry_point_exit_code(self, n, code, monkeypatch, capsys):
        # a fresh import, else runpy warns that the module is already loaded
        monkeypatch.delitem(sys.modules, "hornlearn.cli")
        monkeypatch.setattr(sys, "argv", ["hornlearn.cli", "lowerbound", "--n", n])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("hornlearn.cli", run_name="__main__")
        assert exit_info.value.code == code


# Pinned outputs of whole CLI runs.  Query counts are the paper's complexity
# measure, so for a fixed seed and strategy they must not move unless a
# change is about them; a change that moves them by design edits these
# tables.  A `learn` pin names the algorithm, the target and the extra
# arguments, as given on the command line.

# name -> path of a formula file that a pinned run reads
@pytest.fixture(scope="module")
def formula_files(tmp_path_factory):
    made = tmp_path_factory.mktemp("formulas")
    # an n=40 target on which, under random, the teacher keeps hundreds of
    # gap records across queries with no chaining (775 in clh, 710 in afp,
    # summed over the queries, on the 38 implications of the basis); under
    # first it derives 221 and 391 records in all, where a scan would visit
    # every one of the target's 160 slots
    (made / "n40.horn").write_text(
        format_formula(random_formula(GenConfig(40, 160, (1, 4), (1, 2), seed=1)))
    )
    (made / "none.horn").write_text("vars:\n")  # no variables
    files = {name: str(CORPUS / f"{name}.horn") for name in ("gd-example", "bullet-example")}
    return files | {name: str(made / f"{name}.horn") for name in ("n40", "none")}


def _pin_id(algo, target, extra):
    return "-".join([algo, target, *extra[1::2]])


# the last line of `learn`, fixed for each algorithm, target and strategy
COUNT_PINS = [
    ("clh", "gd-example", [], "seq=7 cq=17 smq=0 emq=0 eeq=0"),
    ("afp", "gd-example", [], "seq=9 cq=0 smq=11 emq=0 eeq=0"),
    ("clh-entail", "gd-example", [], "seq=0 cq=0 smq=0 emq=34 eeq=7"),
    ("afp-closure", "gd-example", [], "seq=9 cq=11 smq=0 emq=0 eeq=0"),
    ("clh", "gd-example", ["--strategy", "minimal"], "seq=7 cq=17 smq=0 emq=0 eeq=0"),
    ("afp", "gd-example", ["--strategy", "minimal"], "seq=9 cq=0 smq=11 emq=0 eeq=0"),
    ("clh-entail", "gd-example", ["--strategy", "minimal"], "seq=0 cq=0 smq=0 emq=34 eeq=7"),
    ("afp-closure", "gd-example", ["--strategy", "minimal"], "seq=9 cq=11 smq=0 emq=0 eeq=0"),
    ("clh", "gd-example", ["--strategy", "random", "--seed", "3"], "seq=9 cq=20 smq=0 emq=0 eeq=0"),
    ("afp", "gd-example", ["--strategy", "random", "--seed", "3"], "seq=9 cq=0 smq=11 emq=0 eeq=0"),
    ("clh-entail", "gd-example", ["--strategy", "random", "--seed", "3"], "seq=0 cq=0 smq=0 emq=34 eeq=9"),
    ("afp-closure", "gd-example", ["--strategy", "random", "--seed", "3"], "seq=9 cq=11 smq=0 emq=0 eeq=0"),
    ("clh", "n40", ["--strategy", "random", "--seed", "3"], "seq=42 cq=757 smq=0 emq=0 eeq=0"),
    ("afp", "n40", ["--strategy", "random", "--seed", "3"], "seq=53 cq=0 smq=713 emq=0 eeq=0"),
    ("clh-entail", "n40", ["--strategy", "random", "--seed", "3"], "seq=0 cq=0 smq=0 emq=1985 eeq=42"),
    ("afp-closure", "n40", ["--strategy", "random", "--seed", "3"], "seq=53 cq=713 smq=0 emq=0 eeq=0"),
    # under every strategy clh-entail asks one eeq per seq of clh: 42 each
    # under random above, 39 each under minimal here
    ("clh", "n40", ["--strategy", "minimal"], "seq=39 cq=733 smq=0 emq=0 eeq=0"),
    ("clh-entail", "n40", ["--strategy", "minimal"], "seq=0 cq=0 smq=0 emq=1985 eeq=39"),
    # minimal picks the same counterexample whichever formula equivalent to
    # the target its records follow
    ("afp", "n40", ["--strategy", "minimal"], "seq=51 cq=0 smq=695 emq=0 eeq=0"),
    ("afp-closure", "n40", ["--strategy", "minimal"], "seq=51 cq=695 smq=0 emq=0 eeq=0"),
]

# whole traces, not only counts: the sha256 of stdout, then of stderr, of
# `learn --trace`
TRACE_PINS = [
    ("clh", "gd-example", [],
     "db8d7ed2d893116b1490650f4190a9f64eda46170ba52848669901238619d9e7",
     "17a0b58913571c16543646e504b984322371262cf7df0ec67343c1383b374520"),
    ("afp", "gd-example", [],
     "d6039aaf864a4a456ba95d525596cdf22c31c5a05c6534f2fcae47a7d7234bc9",
     "51d6b35a6519ffac9694b9b5b764e5bbb1b430391586c2f4e3bfbc268e047535"),
    ("clh-entail", "gd-example", [],
     "6eabf256f18888cc68fd58f589dac8ba8ca72aad5cb609d530855c1c9b1d736d",
     "17a0b58913571c16543646e504b984322371262cf7df0ec67343c1383b374520"),
    ("afp-closure", "gd-example", [],
     "e7d4a2537fefe8a6b6a81b40b0bf43e28cda65a2278a509af58f1ca853f51d6c",
     "51d6b35a6519ffac9694b9b5b764e5bbb1b430391586c2f4e3bfbc268e047535"),
    ("clh", "n40", ["--strategy", "random", "--seed", "3"],
     "531f64d7c2e0826a62519c60e8ab6e98c8116a060643d0e010ad9cb608c6b8ae",
     "7b9d02fef8a0c1379023c0182b121de1ae7885060a8a9d5f506bd9e90d30909e"),
    ("afp", "n40", ["--strategy", "random", "--seed", "3"],
     "2c14170cab7111af04b48003568892e2916b6003ee615a8fb90218c5a72c6cee",
     "d1f6253eddc192ec3a2d13a4d479e22354da349a43d8da59781fb9a1b0215b27"),
    ("clh-entail", "n40", ["--strategy", "random", "--seed", "3"],
     "90fad56b8bfd0bb1b2b2d4a7cb391515c724bbcb7d5ac744330cb80d7ee5b13b",
     "7b9d02fef8a0c1379023c0182b121de1ae7885060a8a9d5f506bd9e90d30909e"),
    ("afp-closure", "n40", ["--strategy", "random", "--seed", "3"],
     "4c8d3fcd506a27d492ff8bae1dbc72505f648592b1f9f5c8e99510a029a9d7e9",
     "d1f6253eddc192ec3a2d13a4d479e22354da349a43d8da59781fb9a1b0215b27"),
    ("clh", "n40", ["--strategy", "first"],
     "192d416757ab2032faf10b59b111a3901ae8263fd6c9d710add452044c810539",
     "594146295869d14b20c04def338f2236a0fc108a473dab84c6fc4a4e61f6f838"),
    ("afp", "n40", ["--strategy", "first"],
     "950bad5a072dfeb8c88bde0ef6673197d53dbaaa43b290b90f83f24b3d49f5db",
     "b2ee3f1e4c65f61a0d250346a58d5aa963b287c5b53373a89fc6d870557bb6bf"),
    ("clh", "gd-example", ["--strategy", "minimal"],
     "07505c9ef3d3a569c9081bac910c026d28b2f67c1e1ea33271bedf7027ecc144",
     "26950c7d8e791ea16ce546f1d972b94ef6607658423e862ad06ffc71648ffbe7"),
    ("afp", "gd-example", ["--strategy", "minimal"],
     "ee794a0f114a4e4c598e19276b45c7b894cc3e1ab395a498fadae5843f2f3182",
     "8ff5166ffb0fae8fa0e3412242cfb6e65f21f14920d8f1f08f7da1aef69e8bae"),
    ("clh-entail", "gd-example", ["--strategy", "minimal"],
     "20883ee07255c123785c9dfcf8efe8f6bbd1d040afac30ba6ebe2159c1a0dc87",
     "26950c7d8e791ea16ce546f1d972b94ef6607658423e862ad06ffc71648ffbe7"),
    ("afp-closure", "gd-example", ["--strategy", "minimal"],
     "7c96f3a8cfee5d1331dcdd8854dcdaf2716d1928170a113ab2a2c2fcaaed67ab",
     "8ff5166ffb0fae8fa0e3412242cfb6e65f21f14920d8f1f08f7da1aef69e8bae"),
]

# the printed canonical basis, in its order, line by line
GD_PINS = [
    ("gd-example", [
        "vars: a b c d e", "e -> d e", "b c -> b c d", "b d -> b c d", "c d -> b c d",
        "a d -> a b c d e", "b c d e -> a b c d e",
    ]),
    ("bullet-example", ["vars: a b c d", "a -> a b c d", "c -> c d"]),
    ("none", ["vars:"]),
]

# the whole stdout of `lowerbound --n 6`: 63 candidates, 62 queries, and
# a progress line after every third query and after the last
LOWERBOUND_6 = (
    "candidates: 63\n"
    + "".join(f"queries={i} remaining={63 - i}\n" for i in [*range(3, 61, 3), 62])
    + "determined the closure of the all-zeros assignment after 62 queries\n"
)

# the simulated protocols' query counts: the sha256 of every CSV row, `\r`
# removed, without its wall_time column
SIMULATED_CSV_ARGS = [
    "--algos", "clh-entail", "afp-closure", "--n-range", "4:10", "--m-range", "2:8",
    "--trials", "5", "--seed", "7", "--strategy", "random",
]
SIMULATED_CSV_SHA256 = "634c9579ff8fb76a51186c1c14bc3d796278de9b8cef38d5fb527047561fb051"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutputs:
    @pytest.mark.parametrize(
        "algo, target, extra, counts",
        COUNT_PINS,
        ids=[_pin_id(*pin[:3]) for pin in COUNT_PINS],
    )
    def test_learn_query_counts(self, formula_files, algo, target, extra, counts, capsys):
        argv = ["learn", "--algo", algo, "--target", formula_files[target], *extra]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == counts

    @pytest.mark.parametrize(
        "algo, target, extra, out_sha, err_sha",
        TRACE_PINS,
        ids=[_pin_id(*pin[:3]) for pin in TRACE_PINS],
    )
    def test_learn_trace(self, formula_files, algo, target, extra, out_sha, err_sha, capsys):
        argv = ["learn", "--trace", "--algo", algo, "--target", formula_files[target], *extra]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert (_sha256(out), _sha256(err)) == (out_sha, err_sha)

    @pytest.mark.parametrize("name, lines", GD_PINS, ids=[pin[0] for pin in GD_PINS])
    def test_gd_output(self, formula_files, name, lines, capsys):
        assert main(["gd", formula_files[name]]) == 0
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)

    def test_lowerbound_query_count(self, capsys):
        assert main(["lowerbound", "--n", "6"]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (LOWERBOUND_6, "")

    def test_simulated_bench_csv(self, tmp_path, capsys):
        out = tmp_path / "simulated.csv"
        assert main(["bench", *SIMULATED_CSV_ARGS, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()  # also splits the writer's \r\n
        text = "".join(",".join(row.split(",")[:9]) + "\n" for row in rows)
        assert _sha256(text) == SIMULATED_CSV_SHA256


def test_console_script_is_the_cli_main():
    # the installed `hornlearn` command calls this; 3.10 has no tomllib, so
    # the entry is read as text from the [project.scripts] table
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.partition("\n[project.scripts]\n")[2].partition("\n[")[0]
    entry = re.fullmatch(r'hornlearn = "(\S+)"', scripts.strip()).group(1)
    assert entry == "hornlearn.cli:main"
    module, _, name = entry.partition(":")
    assert getattr(importlib.import_module(module), name) is main
