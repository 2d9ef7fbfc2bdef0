"""Seeded random targets and the named corpus of worked examples."""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil, log

from .core import HornFormula
from .formats import parse_formula

__all__ = ["GenConfig", "random_formula", "example_corpus"]


@dataclass(frozen=True)
class GenConfig:
    """Shape of a random definite Horn formula.

    Antecedent and consequent variable sets are drawn uniformly with sizes
    in the given inclusive ranges; they may overlap, and nothing prevents
    duplicate or redundant implications, which make good stress inputs for
    basis computation and learners.
    """

    arity: int
    count: int
    antecedent_sizes: tuple[int, int] | None = None
    consequent_sizes: tuple[int, int] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError(f"negative arity {self.arity}")
        if self.count < 0:
            raise ValueError(f"negative implication count {self.count}")
        if self.antecedent_sizes is None:
            object.__setattr__(self, "antecedent_sizes", (0, min(3, self.arity)))
        if self.consequent_sizes is None:
            object.__setattr__(
                self, "consequent_sizes", (1, max(1, min(3, self.arity)))
            )
        alo, ahi = self.antecedent_sizes
        clo, chi = self.consequent_sizes
        if not 0 <= alo <= ahi <= self.arity:
            raise ValueError(f"infeasible antecedent size range {alo}..{ahi}")
        if not 1 <= clo <= chi:
            raise ValueError(f"infeasible consequent size range {clo}..{chi}")
        if self.count and chi > self.arity:
            raise ValueError(
                f"consequent size {chi} impossible with arity {self.arity}"
            )


def _below(bits, n: int) -> int:
    """A draw below n > 0 by `Random`'s rejection rule: redraw
    ``bits(n.bit_length())`` until the result is below n."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _sample_mask(bits, n: int, k: int) -> int:
    """The mask of the k indices that ``Random.sample(range(n), k)`` picks,
    drawn from the same bits by the same branch: a shrinking pool when an
    n-length list is smaller than a k-length set, else redraws until the
    index is below n and not yet picked."""
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    mask = 0
    if n <= setsize:
        pool = list(range(n))
        for left in range(n, n - k, -1):
            j = _below(bits, left)
            mask |= 1 << pool[j]
            pool[j] = pool[left - 1]
    else:
        width = n.bit_length()
        for _ in range(k):
            j = bits(width)
            while j >= n or mask >> j & 1:
                j = bits(width)
            mask |= 1 << j
    return mask


def random_formula(config: GenConfig) -> HornFormula:
    """Deterministic-per-seed random formula matching the configuration.

    For each implication in turn, the antecedent and then the consequent
    take a size from ``randint`` over their range and pick that many
    variables as ``sample(range(arity), size)`` does, all from one
    ``random.Random(config.seed)``.  The draws read that generator's
    ``getrandbits`` directly, so the formula is the one those calls give.
    """
    bits = random.Random(config.seed).getrandbits
    n = config.arity
    alo, ahi = config.antecedent_sizes
    clo, chi = config.consequent_sizes
    awidth, cwidth = ahi - alo + 1, chi - clo + 1
    pairs = []
    for _ in range(config.count):
        ant = _sample_mask(bits, n, alo + _below(bits, awidth))
        con = _sample_mask(bits, n, clo + _below(bits, cwidth))
        pairs.append((ant, con))
    return HornFormula._of(n, pairs)


# the text of corpus/<name>.horn, without its comments
_EXAMPLES = {
    "gd-example": """\
vars: a b c d e
e -> d
b c -> d
b d -> c
c d -> b
a d -> b c e
c e -> a b
""",
    "bullet-example": """\
vars: a b c d
a -> b
a -> c
c -> d
""",
}


def example_corpus() -> dict[str, HornFormula]:
    """Named worked examples, parsed from the same text as `corpus/*.horn`.

    * ``gd-example``: the classic six-implication formula over a..e whose
      antecedent closures split into the three classes ed / bcd / abcde.
    * ``bullet-example``: the four-variable formula {a->b, a->c, c->d},
      where the closure of {a,c} is {a,b,c,d} but its quasi-closure is only
      {a,c,d}.

    Unknown names raise KeyError.
    """
    return {name: parse_formula(text) for name, text in _EXAMPLES.items()}
