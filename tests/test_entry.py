"""Tests of the process entry: `python -m realhurwitz` and the installed
script run one function, which freezes the heap as the command ends, while
cli.main in process leaves the collector as it is."""

import ast
import gc
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import realhurwitz
from realhurwitz import poly
from realhurwitz.cli import main

SRC = Path(realhurwitz.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# runs the package as `python -m realhurwitz` does, with an exit handler
# that reports on stderr, after the command, whether the heap was frozen;
# a first argument --break makes the table's series raise, an internal error
ENTRY = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0, file=sys.stderr))
if sys.argv[1] == "--break":
    del sys.argv[1]
    from realhurwitz import poly
    def broken(*args, **kwargs):
        raise ArithmeticError("injected")
    poly.series = broken
runpy.run_module("realhurwitz", run_name="__main__", alter_sys=True)
"""

TABLE = ["table", "--max-degree", "2", "--max-m", "3", "--format", "csv"]
USAGE = ["table", "--max-degree", "-1"]
BROKEN = ["table", "--connected"]


def _in_process(capsys, monkeypatch, argv, broken):
    if broken:
        def fail(*args, **kwargs):
            raise ArithmeticError("injected")
        monkeypatch.setattr(poly, "series", fail)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, broken, code", [
    (TABLE, False, 0), (USAGE, False, 2), (BROKEN, True, 3),
], ids=["success", "usage", "internal-error"])
def test_the_entry_freezes_the_heap_on_every_exit(capsys, monkeypatch, argv, broken, code):
    proc = subprocess.run([sys.executable, "-c", ENTRY, *(["--break"] if broken else []), *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True, timeout=120)
    *err, probe = proc.stderr.splitlines(keepends=True)
    assert probe == "frozen: True\n"
    assert (proc.returncode, proc.stdout, "".join(err)) == \
        _in_process(capsys, monkeypatch, argv, broken)
    assert proc.returncode == code


@pytest.mark.parametrize("argv, broken", [(TABLE, False), (USAGE, False), (BROKEN, True)],
                         ids=["success", "usage", "internal-error"])
def test_main_in_process_leaves_the_collector_as_it_is(capsys, monkeypatch, argv, broken):
    before = gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()
    _in_process(capsys, monkeypatch, argv, broken)
    assert (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == before


def test_the_script_and_the_module_run_one_entry():
    # read with re, not tomllib, which Python 3.10 lacks
    scripts = re.search(r'^\[project\.scripts\]\nrealhurwitz = "([\w.]+):(\w+)"$',
                        (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    module, name = scripts.groups()
    assert module == "realhurwitz.__main__"
    entry = getattr(import_module(module), name)
    assert entry.__module__ == module
    # the module's main guard exits with the status of that same function
    tree = ast.parse((SRC / "__main__.py").read_text())
    guard, = [node for node in tree.body if isinstance(node, ast.If)]
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in guard.body] == [f"sys.exit({name}())"]


def test_only_the_entry_calls_into_the_collector():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert ("gc" in names) == (path.name == "__main__.py"), path.name
