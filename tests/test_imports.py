"""Tests of what the package loads: each command imports only the modules it
runs, and the package's exports resolve on first use."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import realhurwitz

SRC = os.path.dirname(os.path.dirname(realhurwitz.__file__))

# prints the modules that importing the package, and then running one
# command, added to a fresh interpreter
PROBE = """
import contextlib, io, sys
before = set(sys.modules)
import realhurwitz
argv = sys.argv[1:]
if argv:
    from realhurwitz.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _loaded(*argv: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


TABLE = ["table", "--max-degree", "2", "--max-m", "3", "--format", "csv"]
NONSEP = ["nonsep", "--max-n", "3", "--max-m", "3", "--connected", "--format", "csv"]
SPECTRUM = ["spectrum", "--nplus", "2", "--nminus", "1", "--format", "json"]
VERIFY_ORACLE = ["verify", "--suite", "oracle", "--max-size", "2"]
ORACLE = ["oracle", "--nplus", "1", "--nminus", "1"]
BLOCK = ["block", "--nplus", "1", "--nminus", "1", "--format", "csv"]
VERIFY_GENUS0 = ["verify", "--suite", "genus0", "--max-m", "2", "--max-degree", "2"]
VERIFY, GENUS0 = "realhurwitz.verify", "realhurwitz.genus0"
OPERATORS, DUMP = "realhurwitz.operators", "realhurwitz.dump"


@pytest.mark.parametrize("argv, runs, left_out", [
    (TABLE, "realhurwitz.evolution",
     {"realhurwitz.oracle", "realhurwitz.spectral", "realhurwitz.nonsep", VERIFY, GENUS0,
      DUMP, "json", "numpy", "csv", "fractions"}),
    (NONSEP, "realhurwitz.nonsep",
     {"realhurwitz.spectral", "realhurwitz.oracle", "realhurwitz.evolution", VERIFY, GENUS0,
      DUMP, "csv", "fractions"}),
    (ORACLE, "realhurwitz.oracle", {OPERATORS, "realhurwitz.evolution", DUMP}),
    (SPECTRUM, "realhurwitz.spectral", {"realhurwitz.nonsep", "realhurwitz.oracle"}),
    (VERIFY_ORACLE, "realhurwitz.oracle",
     {GENUS0, "realhurwitz.spectral", "realhurwitz.nonsep", "realhurwitz.poly", DUMP,
      "fractions", "decimal"}),
    (VERIFY_GENUS0, GENUS0, set()),
], ids=["table", "nonsep", "oracle", "spectrum", "verify-oracle", "verify-genus0"])
def test_a_command_imports_only_the_modules_it_runs(argv, runs, left_out):
    loaded = _loaded(*argv)
    assert runs in loaded
    assert loaded & left_out == set()


@pytest.mark.parametrize("argv, budget", [
    (TABLE, 1147), (NONSEP, 1400), (VERIFY_ORACLE, 1235), (SPECTRUM, 1812),
    (ORACLE, 1030), (BLOCK, 819), (["verify", "--suite", "nonsep"], 1721),
    (["verify", "--suite", "paper"], 1530), (VERIFY_GENUS0, 1430),
], ids=["table", "nonsep", "verify-oracle", "spectrum", "oracle", "block", "verify-nonsep",
        "verify-paper", "verify-genus0"])
def test_a_command_compiles_at_most_its_budget_of_lines(argv, budget):
    # a cold run compiles every submodule it loads, so their source lines
    # bound what its start-up spends on compiling
    package = Path(SRC) / "realhurwitz"
    modules = sorted(m.split(".", 1)[1] for m in _loaded(*argv) if m.startswith("realhurwitz."))
    lines = sum((package / f"{m}.py").read_text().count("\n") for m in modules)
    assert lines <= budget, (lines, modules)


def test_the_parser_loads_no_operators():
    # the harness's setup probe: import the command line and build its parser
    proc = subprocess.run([sys.executable, "-c", "import sys; import realhurwitz.cli as c; "
                           "c.build_parser(); print(' '.join(sys.modules))"],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "realhurwitz.cli" in loaded
    assert OPERATORS not in loaded and DUMP not in loaded


def test_only_block_and_spectrum_load_the_dump_module():
    assert {DUMP, OPERATORS} <= _loaded(*BLOCK)
    assert DUMP in _loaded(*SPECTRUM)


def test_importing_the_package_loads_no_submodule():
    loaded = _loaded()
    assert "realhurwitz" in loaded
    assert {m for m in loaded if m.startswith("realhurwitz.")} == set()


def test_every_export_is_the_object_its_submodule_defines():
    table = realhurwitz._EXPORTS
    assert realhurwitz.__all__ == [name for names in table.values() for name in names]
    for module, names in table.items():
        owner = import_module(f"realhurwitz.{module}")
        for name in names:
            assert getattr(realhurwitz, name) is getattr(owner, name), name
    assert realhurwitz.__version__ == "0.1.0"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        realhurwitz.no_such_name
    assert not hasattr(realhurwitz, "no_such_name")
    from realhurwitz import evolution
    assert evolution is import_module("realhurwitz.evolution")


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from realhurwitz import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(realhurwitz.__all__)
