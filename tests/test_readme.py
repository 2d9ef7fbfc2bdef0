"""The README's library example runs and prints what its comment says, and
its CLI synopsis names every option of every subcommand."""

import argparse
import re
from pathlib import Path

import pytest

from hornlearn.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comment(capsys):
    section = README.read_text().split("## Library in five lines\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    comment = re.search(r"^print\(.*\)\s+# (.*)$", code, re.MULTILINE).group(1)
    assert comment == "{a -> a b c d, c -> c d}"
    assert capsys.readouterr().out == comment + "\n"


SUBCOMMANDS = next(
    action.choices
    for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_cli_synopsis_names_every_option(command):
    options = {
        option
        for action in SUBCOMMANDS[command]._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    section = README.read_text().split("## CLI\n", 1)[1]
    synopsis = re.match(r"\s*```bash\n(.*?)```", section, re.DOTALL).group(1)
    # an entry runs from its command to the next command or the end
    entry = re.search(
        rf"^hornlearn {command} .*?(?=^hornlearn |\Z)",
        synopsis,
        re.DOTALL | re.MULTILINE,
    )
    named = set(re.findall(r"--[\w-]+", entry.group(0)))
    assert options - named == set()
