"""Command line front end.

Subcommands::

    gd FILE                      print the canonical basis of a formula file
    closure FILE [TOK ...]       closure of a variable set (tokens from the file header)
    equiv FILE1 FILE2            semantic equivalence test, tokens matched by name
    learn --algo A --target FILE run a learner against a simulated teacher
    bench ...                    query-count benchmark over random targets, CSV out
    lowerbound --n K             membership-only closure determination demo

Exit codes: 0 success / equivalent, 1 semantic negative (inequivalent
formulas, failed self-check), 2 usage or parse errors.
An :class:`ArityError` is never a usage error, since the parser, the token
lookup and the arity and token checks of ``equiv`` reject such input first:
it marks an internal fault and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time

from .basis import gd_basis
from .core import (
    ArityError,
    HornFormula,
    Implication,
    closure,
    equivalent,
    separating_assignment,
)
from .formats import format_formula, parse_formula
from .generate import GenConfig, random_formula
from .learners import afp, clh
from .oracles import STRATEGIES, QueryStats, Teacher
from .reductions import ClosureFromEntailment, StandardFromClosure, lower_bound_demo

# algorithm name -> learner run against a plain Teacher
LEARNERS = {
    "clh": clh,
    "afp": afp,
    "clh-entail": lambda t: clh(ClosureFromEntailment(t)),
    "afp-closure": lambda t: afp(StandardFromClosure(t)),
}
ALGORITHMS = tuple(LEARNERS)


def _load(path: str) -> HornFormula:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_formula(handle.read())


def _token_term(formula: HornFormula, variables) -> str:
    names = formula.names or ()
    return " ".join(names[i] for i in sorted(variables))


def cmd_gd(args) -> int:
    print(format_formula(gd_basis(_load(args.file))), end="")
    return 0


def cmd_closure(args) -> int:
    formula = _load(args.file)
    index = {tok: i for i, tok in enumerate(formula.names or ())}
    start = set()
    for tok in args.tokens:
        if tok not in index:
            print(f"error: unknown token {tok!r}", file=sys.stderr)
            return 2
        start.add(index[tok])
    print(_token_term(formula, closure(start, formula)))
    return 0


def _in_order(formula: HornFormula, names: tuple[str, ...]) -> HornFormula:
    """The formula over the same tokens, numbered in the order of `names`."""
    position = {tok: i for i, tok in enumerate(names)}
    index = [position[tok] for tok in formula.names]
    imps = [
        Implication({index[v] for v in i.antecedent}, {index[v] for v in i.consequent})
        for i in formula.implications
    ]
    return HornFormula(formula.arity, imps, names)


def cmd_equiv(args) -> int:
    f = _load(args.file1)
    g = _load(args.file2)
    if f.arity != g.arity:
        print(f"error: {f.arity} variables vs {g.arity}", file=sys.stderr)
        return 2
    if set(f.names) != set(g.names):
        only = [sorted(set(h.names) - set(o.names)) for h, o in ((f, g), (g, f))]
        print(
            f"error: tokens {' '.join(only[0])} only in {args.file1}, "
            f"{' '.join(only[1])} only in {args.file2}",
            file=sys.stderr,
        )
        return 2
    witness = separating_assignment(f, _in_order(g, f.names))
    if witness is None:
        print("equivalent")
        return 0
    term = _token_term(f, witness.ones())
    print(f"not equivalent: {witness} ({{{term}}})")
    return 1


def cmd_learn(args) -> int:
    target = _load(args.target)
    teacher = Teacher(target, strategy=args.strategy, seed=args.seed)
    report = LEARNERS[args.algo](teacher)
    if args.trace:
        for event in report.trace:
            where = "" if event.index is None else f"[{event.index}]"
            print(
                f"{event.kind}{where} x={event.counterexample} "
                f"|hyp|={len(event.hypothesis)}",
                file=sys.stderr,
            )
    output = HornFormula._of(target.arity, report.output._masks, target.names)
    print(format_formula(output), end="")
    print(" ".join(f"{k}={v}" for k, v in report.stats.as_dict().items()))
    if not equivalent(report.output, target):
        print("error: learned formula failed the equivalence self-check", file=sys.stderr)
        return 1
    return 0


def _int_range(text: str) -> tuple[int, int]:
    """LO:HI, or a lone LO meaning LO:LO, with 0 <= LO <= HI."""
    lo, _, hi = text.partition(":")
    try:
        bounds = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    if bounds[0] > bounds[1]:
        raise argparse.ArgumentTypeError(f"LO {bounds[0]} is above HI {bounds[1]}")
    if bounds[0] < 0:
        raise argparse.ArgumentTypeError(f"LO {bounds[0]} is negative")
    return bounds


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def cmd_bench(args) -> int:
    n_lo, n_hi = args.n_range
    m_lo, m_hi = args.m_range
    if n_lo == 0 < m_hi:  # an implication needs a variable for its consequent
        print(
            f"error: argument --n-range: LO 0 admits no implication, "
            f"but --m-range reaches {m_hi}",
            file=sys.stderr,
        )
        return 2
    rng = random.Random(args.seed)
    trials = []
    for _ in range(args.trials):
        n = rng.randint(n_lo, n_hi)
        m = rng.randint(m_lo, m_hi)
        formula_seed = rng.randrange(2**32)
        target = random_formula(GenConfig(n, m, seed=formula_seed))
        trials.append((n, formula_seed, target, len(gd_basis(target))))
    rows = []
    for algo in args.algos:
        for n, formula_seed, target, basis_size in trials:
            teacher = Teacher(target, strategy=args.strategy, seed=args.seed)
            started = time.perf_counter()
            report = LEARNERS[algo](teacher)
            elapsed = time.perf_counter() - started
            if not equivalent(report.output, target):
                print(
                    f"error: {algo} failed the self-check on seed {formula_seed}",
                    file=sys.stderr,
                )
                return 1
            counts = report.stats.as_dict().values()
            rows.append([algo, n, basis_size, formula_seed, *counts, f"{elapsed:.6f}"])
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["algo", "n", "m", "seed", *QueryStats().as_dict(), "wall_time"]
        )
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_lowerbound(args) -> int:
    report = lower_bound_demo(args.n)
    print(f"candidates: {report.initial_candidates}")
    stride = max(1, report.queries // 16)
    for i, remaining in enumerate(report.remaining, start=1):
        if i % stride == 0 or i == report.queries:
            print(f"queries={i} remaining={remaining}")
    print(
        "determined the closure of the all-zeros assignment "
        f"after {report.queries} queries"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornlearn",
        description="definite Horn formulas: canonical bases and query learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gd", help="print the canonical basis of a formula file")
    p.add_argument("file")
    p.set_defaults(func=cmd_gd)

    p = sub.add_parser("closure", help="closure of a variable set")
    p.add_argument("file")
    p.add_argument("tokens", nargs="*", metavar="TOK")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("equiv", help="semantic equivalence of two formula files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("learn", help="run a learner against a simulated teacher")
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    p.add_argument("--target", required=True, metavar="FILE")
    p.add_argument("--strategy", choices=STRATEGIES, default="first")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", action="store_true", help="log refinements to stderr")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("bench", help="query-count benchmark, CSV output")
    p.add_argument("--algos", nargs="+", choices=ALGORITHMS, required=True)
    p.add_argument("--n-range", type=_int_range, required=True, metavar="LO:HI")
    p.add_argument("--m-range", type=_int_range, required=True, metavar="LO:HI")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategy", choices=STRATEGIES, default="first")
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("lowerbound", help="membership-only closure demo")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_lowerbound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ArityError:
        raise
    except (OSError, ValueError) as exc:  # a FormulaParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
