"""Tests of the process entry: `python -m realhurwitz` and the installed
script run one function, which pins numpy's BLAS to one thread unless the
environment names a count and freezes the heap as the command ends, while
cli.main in process leaves the collector and the environment as they are."""

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
# that reports on stderr, after the command, whether the heap was frozen and
# the BLAS thread count in the environment; a first argument --break makes
# the table's series raise, an internal error
ENTRY = """
import atexit, gc, os, runpy, sys
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0,
                              "threads:", os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr))
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
# a certified float block: the spectral fallback imports numpy
FLOAT = ["spectrum", "--nplus", "4", "--nminus", "2", "--format", "csv"]


def _environment(threads=None) -> dict:
    """This process's environment with the package on the path and
    OPENBLAS_NUM_THREADS set to threads, or removed if threads is None."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)


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
                          env=_environment(), capture_output=True, text=True, timeout=120)
    *err, probe = proc.stderr.splitlines(keepends=True)
    assert probe == "frozen: True threads: 1\n"
    assert (proc.returncode, proc.stdout, "".join(err)) == \
        _in_process(capsys, monkeypatch, argv, broken)
    assert proc.returncode == code


@pytest.mark.parametrize("argv, broken", [(TABLE, False), (USAGE, False), (BROKEN, True)],
                         ids=["success", "usage", "internal-error"])
def test_main_in_process_leaves_the_collector_as_it_is(capsys, monkeypatch, argv, broken):
    before = gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()
    _in_process(capsys, monkeypatch, argv, broken)
    assert (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == before


@pytest.mark.parametrize("threads, seen", [(None, "1"), ("3", "3")],
                         ids=["unset", "user-count"])
def test_the_entry_pins_blas_to_one_thread_unless_the_environment_names_a_count(threads, seen):
    proc = subprocess.run([sys.executable, "-c", ENTRY, *FLOAT], env=_environment(threads),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, f"frozen: True threads: {seen}\n")


@pytest.mark.parametrize("argv", [TABLE, FLOAT, USAGE], ids=["table", "float-spectrum", "usage"])
def test_main_in_process_leaves_the_environment_as_it_is(capsys, monkeypatch, argv):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    _in_process(capsys, monkeypatch, argv, False)
    assert dict(os.environ) == before


@pytest.mark.skipif(os.cpu_count() == 1, reason="one CPU: BLAS starts no second thread to differ")
def test_a_float_spectrum_prints_the_same_bytes_whatever_the_blas_thread_default():
    # block (5, 4), dimension 170, has degenerate eigenspaces: a BLAS pool of
    # one thread per core would print other orthonormal bases of them
    argv = [sys.executable, "-m", "realhurwitz", "spectrum", "--nplus", "5", "--nminus", "4",
            "--format", "csv"]
    unset, pinned = (subprocess.run(argv, env=_environment(threads), capture_output=True,
                                    timeout=300, check=True).stdout for threads in (None, "1"))
    assert unset == pinned


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


def _names(path: Path) -> set:
    """Every module or name a source file imports and every attribute it reads."""
    tree = ast.parse(path.read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_only_the_entry_calls_into_the_collector():
    for path in sorted(SRC.glob("*.py")):
        assert ("gc" in _names(path)) == (path.name == "__main__.py"), path.name


def test_only_the_entry_writes_the_environment():
    # no other module names os.environ, os.putenv or os.unsetenv at all
    for path in sorted(SRC.glob("*.py")):
        touches = not _names(path).isdisjoint({"environ", "putenv", "unsetenv"})
        assert touches == (path.name == "__main__.py"), path.name
