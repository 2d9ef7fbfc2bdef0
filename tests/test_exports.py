"""Each public name and each CLI algorithm is listed in one place.

Every module's ``__all__`` is the one list of its public names, and the
package's ``__all__`` is their union; ``cli.LEARNERS`` is the one table of
algorithms, and the argparse choices derive from it.
"""

import argparse

import pytest

import hornlearn
from hornlearn import basis, cli, core, formats, generate, learners, oracles, reductions

MODULES = (basis, core, formats, generate, learners, oracles, reductions)

# the package surface, pinned: changing it is a deliberate API change
PUBLIC = {
    "AdapterStats",
    "AdversarialSmqTeacher",
    "ArityError",
    "Assignment",
    "ClosureFromEntailment",
    "ClosureFromStandard",
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
}


def test_package_exports_the_pinned_names():
    assert len(PUBLIC) == 50
    assert sorted(hornlearn.__all__) == sorted(PUBLIC)


def test_package_list_is_the_union_of_the_module_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed)), "a name is listed by two modules"
    assert sorted(hornlearn.__all__) == sorted(listed)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_lists_name_what_the_module_defines(module):
    for name in module.__all__:
        assert getattr(module, name).__module__ == module.__name__, name


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from hornlearn import *", namespace)
    for name in hornlearn.__all__:
        assert namespace[name] is getattr(hornlearn, name)


def _choices(parser, command, option):
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = commands.choices[command]._actions
    return next(a.choices for a in actions if option in a.option_strings)


def test_cli_algorithms_are_the_learner_table_and_the_argparse_choices():
    parser = cli.build_parser()
    assert cli.ALGORITHMS == tuple(cli.LEARNERS)
    assert tuple(_choices(parser, "learn", "--algo")) == cli.ALGORITHMS
    assert tuple(_choices(parser, "bench", "--algos")) == cli.ALGORITHMS
