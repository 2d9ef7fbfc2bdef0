"""The README's library example runs and prints what its comment says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comment(capsys):
    section = README.read_text().split("## Library in five lines\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    comment = re.search(r"^print\(.*\)\s+# (.*)$", code, re.MULTILINE).group(1)
    assert comment == "{a -> a b c d, c -> c d}"
    assert capsys.readouterr().out == comment + "\n"
