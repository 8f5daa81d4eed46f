"""Byte-identical golden reports, one per CLI command and format.

Each case runs one command through click's ``CliRunner`` and compares the
exit code and every byte of the report with the file of the same name under
``tests/goldens/``. The cases are each command at its defaults (``coeffs``
once per family) and each example of the README. A refactoring that keeps
these files identical has kept every report identical to the bit.

The digits of ``verify`` and ``construct`` come from dense linear algebra, so
they depend on the numpy/BLAS build. ``tests/goldens/MANIFEST.json`` records
the build the files were made with, and a failure names both builds.

Regenerate the files with ``PYTHONPATH=src python tests/test_goldens.py``,
and only in a commit that changes no file under ``src/``: a commit that
changes the program and its goldens together shows nothing. ``regenerate``
refuses to write while ``git status`` lists a change under ``src/``, and
prints the first differing line of each golden it changes.
"""

import itertools
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from phasematch.cli import main

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN_DIR = ROOT / "tests" / "goldens"
MANIFEST = GOLDEN_DIR / "MANIFEST.json"

#: (golden stem, CLI arguments without --format).
CASES = (
    ("table1", ["table1"]),
    ("table2", ["table2"]),
    ("pyramid", ["pyramid"]),
    ("sweep", ["sweep"]),
    ("coeffs-present", ["coeffs", "--family", "present"]),
    ("coeffs-grover", ["coeffs", "--family", "grover"]),
    ("coeffs-long", ["coeffs", "--family", "long"]),
    ("coeffs-hoyer", ["coeffs", "--family", "hoyer"]),
    ("verify", ["verify"]),
    ("construct", ["construct"]),
    ("readme-sweep",
     ["sweep", "--theta", "0:0.05:0.01", "--phi", "0", "--u", "0.1", "--kmax", "100"]),
    ("readme-coeffs-hoyer", ["coeffs", "--family", "hoyer", "--a", "0.25", "--phi", "3.14159"]),
    ("readme-construct", ["construct", "--dim", "8", "--seed", "3"]),
)
FORMATS = ("json", "csv")
GOLDENS = [(f"{stem}.{fmt}", [*args, "--format", fmt]) for stem, args in CASES for fmt in FORMATS]


def _build():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _run(args):
    result = CliRunner().invoke(main, args)
    return result.exit_code, result.stdout_bytes


def _first_difference(expected: bytes, actual: bytes) -> str:
    """The first line, numbered from 1, where ``actual`` departs from ``expected``."""
    lines = itertools.zip_longest(
        expected.splitlines(keepends=True), actual.splitlines(keepends=True))
    for number, (want, got) in enumerate(lines, 1):
        if want != got:
            return f"line {number}: expected {want!r}, got {got!r}"
    return "no line differs"


def test_first_difference_names_the_line():
    assert _first_difference(b"a\nb\nc\n", b"a\nx\nc\n") == "line 2: expected b'b\\n', got b'x\\n'"
    assert _first_difference(b"a\n", b"a\nb\n") == "line 2: expected None, got b'b\\n'"
    assert _first_difference(b"a\n", b"a") == "line 1: expected b'a\\n', got b'a'"


@pytest.mark.parametrize("name,args", GOLDENS, ids=[name for name, _ in GOLDENS])
def test_golden(name, args):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    exit_code, output = _run(args)
    builds = f"goldens made with {manifest['build']}, running {_build()}"
    assert exit_code == manifest["exit_codes"][name], f"{name}: exit code {exit_code}; {builds}"
    golden = (GOLDEN_DIR / name).read_bytes()
    if output != golden:
        pytest.fail(f"{name}: output differs at {_first_difference(golden, output)}; {builds}")


def _src_changes():
    """The ``git status --porcelain`` lines of ``src/``; SystemExit when git cannot tell."""
    try:
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        raise SystemExit(f"cannot tell whether src/ has changes ({err}); no golden written")
    return status.stdout.splitlines()


def regenerate():
    changed = _src_changes()
    if changed:
        raise SystemExit("goldens are regenerated only in a commit that changes no file under "
                         f"src/; commit or stash these first: {', '.join(line[3:] for line in changed)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    exit_codes = {}
    for name, args in GOLDENS:
        exit_codes[name], output = _run(args)
        path = GOLDEN_DIR / name
        before = path.read_bytes() if path.exists() else b""
        if output != before:
            print(f"{name}: {_first_difference(before, output)}")
        path.write_bytes(output)
    manifest = {"build": _build(), "exit_codes": exit_codes}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _fake_git(monkeypatch, stdout="", error=None):
    def run(args, **kwargs):
        assert args[:2] == ["git", "status"] and args[-2:] == ["--", "src"]
        if error is not None:
            raise error
        return subprocess.CompletedProcess(args, 0, stdout=stdout)
    monkeypatch.setattr(subprocess, "run", run)


@pytest.fixture
def scratch_goldens(tmp_path, monkeypatch):
    """GOLDEN_DIR and MANIFEST under ``tmp_path``, with each command's output stubbed."""
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(module, "MANIFEST", tmp_path / "MANIFEST.json")
    monkeypatch.setattr(module, "_run", lambda args: (0, b"stub\n"))
    return tmp_path


def test_regenerate_refuses_while_src_has_changes(scratch_goldens, monkeypatch):
    _fake_git(monkeypatch, stdout=" M src/phasematch/cli.py\n?? src/phasematch/new.py\n")
    with pytest.raises(SystemExit, match="first: src/phasematch/cli.py, src/phasematch/new.py$"):
        regenerate()
    assert list(scratch_goldens.iterdir()) == []


@pytest.mark.parametrize("error", [FileNotFoundError("git"), subprocess.CalledProcessError(128, "git")],
                         ids=["no-git", "not-a-repository"])
def test_regenerate_refuses_when_git_cannot_tell(scratch_goldens, monkeypatch, error):
    _fake_git(monkeypatch, error=error)
    with pytest.raises(SystemExit, match="cannot tell whether src/ has changes"):
        regenerate()
    assert list(scratch_goldens.iterdir()) == []


def test_regenerate_writes_every_golden_when_src_is_clean(scratch_goldens, monkeypatch):
    _fake_git(monkeypatch)
    regenerate()
    assert sorted(path.name for path in scratch_goldens.iterdir()) == sorted(
        [name for name, _ in GOLDENS] + ["MANIFEST.json"])


def test_regenerate_prints_the_first_difference_of_each_changed_golden(scratch_goldens, monkeypatch,
                                                                       capsys):
    _fake_git(monkeypatch)
    (changed, _), *unchanged = GOLDENS
    (scratch_goldens / changed).write_bytes(b"stub\nold\n")
    for name, _ in unchanged:
        (scratch_goldens / name).write_bytes(b"stub\n")
    regenerate()
    assert capsys.readouterr().out == f"{changed}: line 2: expected b'old\\n', got None\n"
    assert (scratch_goldens / changed).read_bytes() == b"stub\n"


if __name__ == "__main__":
    regenerate()
