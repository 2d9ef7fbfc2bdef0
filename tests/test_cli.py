import dataclasses
import random
import re
from pathlib import Path

import pytest

from hornlearn import HornFormula, Implication, clh, format_formula, parse_formula
from hornlearn.cli import ALGORITHMS, main
from hornlearn.formats import FormulaParseError

GD_TEXT = """\
# worked six-implication example
vars: a b c d e
e -> d
b c -> d
b d -> c
c d -> b
a d -> b c e
c e -> a b
"""

BULLET_TEXT = """\
vars: a b c d
a -> b
a -> c
c -> d
"""


@pytest.fixture
def gd_file(tmp_path):
    path = tmp_path / "gd.horn"
    path.write_text(GD_TEXT)
    return str(path)


@pytest.fixture
def bullet_file(tmp_path):
    path = tmp_path / "bullet.horn"
    path.write_text(BULLET_TEXT)
    return str(path)


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

    def test_duplicate_header_token(self):
        with pytest.raises(FormulaParseError, match="duplicate"):
            parse_formula("vars: a a\n")

    def test_invalid_header_token(self):
        with pytest.raises(FormulaParseError, match="line 1: invalid token 'b-c'"):
            parse_formula("vars: a b-c\n")

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
    def test_gd(self, bullet_file, capsys):
        assert main(["gd", bullet_file]) == 0
        out = capsys.readouterr().out
        assert out == "vars: a b c d\na -> a b c d\nc -> c d\n"

    def test_closure(self, bullet_file, capsys):
        assert main(["closure", bullet_file, "a", "c"]) == 0
        assert capsys.readouterr().out.strip() == "a b c d"

    def test_closure_empty_start(self, bullet_file, capsys):
        assert main(["closure", bullet_file]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_closure_unknown_token(self, bullet_file, capsys):
        assert main(["closure", bullet_file, "q"]) == 2

    def test_equiv_same(self, gd_file, capsys):
        assert main(["equiv", gd_file, gd_file]) == 0
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

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.horn"
        bad.write_text("vars: a b\na -> z\n")
        assert main(["gd", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["gd", "/nonexistent/x.horn"]) == 2

    def test_internal_arity_error_is_not_a_usage_error(self, bullet_file, monkeypatch):
        from hornlearn import ArityError, cli

        def broken(formula):
            raise ArityError("variable index 9 out of range for arity 4")

        monkeypatch.setattr(cli, "gd_basis", broken)
        with pytest.raises(ArityError):
            main(["gd", bullet_file])

    def test_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["learn", "--algo", "nope", "--target", "x"])
        assert info.value.code == 2

    @pytest.mark.parametrize("algo", ["clh", "afp", "clh-entail", "afp-closure"])
    def test_learn_all_algorithms(self, gd_file, algo, capsys):
        assert main(["learn", "--algo", algo, "--target", gd_file]) == 0
        out = capsys.readouterr().out
        stats_line = out.strip().splitlines()[-1]
        assert re.fullmatch(
            r"seq=\d+ cq=\d+ smq=\d+ emq=\d+ eeq=\d+", stats_line
        )

    def test_learn_clh_query_ceiling(self, gd_file, capsys):
        assert main(["learn", "--algo", "clh", "--target", gd_file]) == 0
        out = capsys.readouterr().out
        seq = int(re.search(r"seq=(\d+)", out).group(1))
        assert seq <= 5 * 6 + 6 + 1

    def test_learn_output_is_canonical(self, gd_file, capsys):
        from hornlearn import gd_basis

        assert main(["learn", "--algo", "clh", "--target", gd_file]) == 0
        out = capsys.readouterr().out
        formula_text = "\n".join(out.strip().splitlines()[:-1]) + "\n"
        assert parse_formula(formula_text) == gd_basis(parse_formula(GD_TEXT))

    def test_learn_trace_goes_to_stderr(self, gd_file, capsys):
        assert main(["learn", "--algo", "clh", "--target", gd_file, "--trace"]) == 0
        err = capsys.readouterr().err
        assert "append" in err

    def test_learn_random_strategy(self, gd_file, capsys):
        rc = main(
            ["learn", "--algo", "clh", "--target", gd_file,
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
        plain = Path(__file__).parent.parent / "corpus" / "gd-example.horn"
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
    def test_learn_fails_on_inequivalent_output(self, gd_file, monkeypatch, capsys):
        from hornlearn import cli

        monkeypatch.setitem(cli.LEARNERS, "clh", _inequivalent_learner)
        assert main(["learn", "--algo", "clh", "--target", gd_file]) == 1
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
    def test_rejects_minimal_above_its_arity(
        self, tmp_path, capsys, monkeypatch, seed, n_range
    ):
        # clh-entail asks the minimal eeq, which enumerates antecedents: it
        # is rejected for every seed, whether or not a drawn n exceeds the
        # limit, and before any target is generated
        def no_generation(config):
            raise AssertionError("a target was generated")

        monkeypatch.setattr("hornlearn.cli.random_formula", no_generation)
        out = tmp_path / "bad.csv"
        argv = ["bench", "--algos", "clh", "clh-entail", "--n-range", n_range,
                "--m-range", "2:4", "--trials", "2", "--seed", str(seed), "--strategy", "minimal",
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "argument --n-range: HI " in err
        assert "oracles.MINIMAL_STRATEGY_MAX_ARITY (12)" in err
        assert not out.exists()

    def test_minimal_above_its_arity_without_eeq(self, tmp_path):
        out = tmp_path / "minimal.csv"
        assert main(
            ["bench", "--algos", "clh", "afp", "afp-closure", "--n-range", "13:16",
             "--m-range", "4:8", "--trials", "2", "--seed", "5", "--strategy", "minimal",
             "--out", str(out)]
        ) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 2

    def test_minimal_up_to_its_arity(self, tmp_path):
        out = tmp_path / "minimal.csv"
        assert main(
            ["bench", "--algos", "clh", "afp", "--n-range", "4:12", "--m-range", "2:4",
             "--trials", "3", "--seed", "5", "--strategy", "minimal", "--out", str(out)]
        ) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 3


class TestLowerBound:
    def test_reports_and_exit(self, capsys):
        assert main(["lowerbound", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "candidates: 15" in out
        assert "after 14 queries" in out
        assert "invariant held" in out

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
            "invariant held: remaining >= candidates - queries at every step\n"
        )
        assert err == ""

    def test_arity_validation(self, capsys):
        assert main(["lowerbound", "--n", "40"]) == 2
