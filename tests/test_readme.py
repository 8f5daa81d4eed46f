"""The README's library example runs and prints what its comments say."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    # Each print's comment is the start of its output line, up to a "...".
    expected = [line.split("# ", 1)[1].split("...")[0]
                for line in code.splitlines() if line.startswith("print(") and "# " in line]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected) == 4
    for line, prefix in zip(printed, expected):
        assert line.startswith(prefix), (line, prefix)
