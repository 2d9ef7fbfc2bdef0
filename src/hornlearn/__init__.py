"""Definite Horn formulas: closure operators, canonical bases, and exact
learning from queries.

The package splits into small layers: :mod:`hornlearn.core` holds the
formula types and semantic operations, :mod:`hornlearn.basis` the saturation
pipeline for the canonical (Guigues-Duquenne) basis, :mod:`hornlearn.oracles`
the query-answering teachers, :mod:`hornlearn.learners` the exact learning
algorithms, :mod:`hornlearn.reductions` the protocol-simulation adapters,
:mod:`hornlearn.generate` random targets and worked examples, and
:mod:`hornlearn.formats` / :mod:`hornlearn.cli` the text format and command
line front end.
"""

from .basis import (
    gd_basis,
    is_left_saturated,
    is_right_saturated,
    is_saturated,
    left_saturate,
    remove_redundant,
    right_saturate,
)
from .core import (
    ArityError,
    Assignment,
    EntailmentClause,
    HornFormula,
    Implication,
    closure,
    entails,
    equivalent,
    is_intersection_closed,
    models,
    quasi_closure,
    satisfies,
    separating_assignment,
    subformula_same_class,
)
from .formats import FormulaParseError, format_formula, parse_formula
from .generate import GenConfig, example_corpus, random_formula
from .learners import LearnerReport, ProtocolError, TraceEvent, afp, clh
from .oracles import (
    AdversarialSmqTeacher,
    EeqAnswer,
    QueryStats,
    SeqAnswer,
    Teacher,
    family_member,
)
from .reductions import (
    AdapterStats,
    ClosureFromEntailment,
    ClosureFromStandard,
    EntailmentFromClosure,
    LowerBoundReport,
    StandardFromClosure,
    cq_from_emq,
    cq_from_smq_seq,
    emq_from_cq,
    eeq_from_seq_cq,
    lower_bound_demo,
    seq_from_eeq_emq,
    smq_from_cq,
    smq_from_emq,
)

__all__ = [
    "AdapterStats",
    "AdversarialSmqTeacher",
    "ArityError",
    "Assignment",
    "ClosureFromEntailment",
    "ClosureFromStandard",
    "EeqAnswer",
    "EntailmentClause",
    "EntailmentFromClosure",
    "FormulaParseError",
    "GenConfig",
    "HornFormula",
    "Implication",
    "LearnerReport",
    "LowerBoundReport",
    "ProtocolError",
    "QueryStats",
    "SeqAnswer",
    "StandardFromClosure",
    "Teacher",
    "TraceEvent",
    "afp",
    "clh",
    "closure",
    "cq_from_emq",
    "cq_from_smq_seq",
    "emq_from_cq",
    "eeq_from_seq_cq",
    "entails",
    "equivalent",
    "example_corpus",
    "family_member",
    "format_formula",
    "gd_basis",
    "is_intersection_closed",
    "is_left_saturated",
    "is_right_saturated",
    "is_saturated",
    "left_saturate",
    "lower_bound_demo",
    "models",
    "parse_formula",
    "quasi_closure",
    "random_formula",
    "remove_redundant",
    "right_saturate",
    "satisfies",
    "separating_assignment",
    "seq_from_eeq_emq",
    "smq_from_cq",
    "smq_from_emq",
    "subformula_same_class",
]

__version__ = "0.1.0"
