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
changes the program and its goldens together shows nothing.
"""

import json
import pathlib

import numpy as np
import pytest
from click.testing import CliRunner

from phasematch.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
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


@pytest.mark.parametrize("name,args", GOLDENS, ids=[name for name, _ in GOLDENS])
def test_golden(name, args):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    exit_code, output = _run(args)
    builds = f"goldens made with {manifest['build']}, running {_build()}"
    assert exit_code == manifest["exit_codes"][name], f"{name}: exit code {exit_code}; {builds}"
    assert output == (GOLDEN_DIR / name).read_bytes(), f"{name}: output differs; {builds}"


def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    exit_codes = {}
    for name, args in GOLDENS:
        exit_codes[name], output = _run(args)
        (GOLDEN_DIR / name).write_bytes(output)
    manifest = {"build": _build(), "exit_codes": exit_codes}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
