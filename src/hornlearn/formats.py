"""Plain-text formula files.

Grammar::

    vars: <tok> <tok> ...          header, required first
    <tok>* -> <tok>+               one implication per nonblank line
    # comment to end of line

Tokens are nonempty runs of letters, digits and underscores and must all be
declared in the header; an empty antecedent is written ``-> tok ...``.  The
serializer emits the header, then implications in list order with single
spaces, and parse(serialize(f)) == f, name table included, for every valid
formula; it raises ValueError on a name table that the header rule rejects.
"""

from __future__ import annotations

import re

from .core import HornFormula, _bit_list, _line, _mask_of, default_names

__all__ = ["FormulaParseError", "format_formula", "parse_formula"]

_TOKEN = re.compile(r"[A-Za-z0-9_]+\Z")
_ARROW = "->"


class FormulaParseError(ValueError):
    """A formula file violated the grammar; carries the offending line."""

    def __init__(self, line_no: int, message: str) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _header_index(names) -> dict[str, int]:
    """Position of each name of a `vars:` header; raises ValueError on a
    name that is not a token or that repeats."""
    index: dict[str, int] = {}
    for tok in names:
        if not _TOKEN.match(tok):
            raise ValueError(f"invalid token {tok!r}")
        if tok in index:
            raise ValueError(f"duplicate token {tok!r}")
        index[tok] = len(index)
    return index


def parse_formula(text: str) -> HornFormula:
    names: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    pairs = []
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if names is None:
            if not line.startswith("vars:"):
                raise FormulaParseError(line_no, "expected a 'vars:' header line")
            names = tuple(line[len("vars:") :].split())
            try:
                index = _header_index(names)
            except ValueError as exc:
                raise FormulaParseError(line_no, str(exc)) from None
            continue
        tokens = line.split()
        if _ARROW not in tokens:
            raise FormulaParseError(line_no, "missing '->'")
        split = tokens.index(_ARROW)
        antecedent = tokens[:split]
        consequent = tokens[split + 1 :]
        if not consequent:
            raise FormulaParseError(line_no, "empty consequent")
        for tok in antecedent + consequent:
            if tok not in index:
                raise FormulaParseError(line_no, f"unknown token {tok!r}")
        a, c = (_mask_of(index[t] for t in side) for side in (antecedent, consequent))
        pairs.append((a, c))
    if names is None:
        raise FormulaParseError(line_no + 1, "missing 'vars:' header")
    return HornFormula._of(len(names), pairs, names)


def format_formula(formula: HornFormula) -> str:
    names = formula.names or default_names(formula.arity)
    _header_index(names)
    lines = ["vars: " + " ".join(names)]
    lines += [_line(_bit_list(a), _bit_list(c), names) for a, c in formula._masks]
    return "\n".join(lines) + "\n"
