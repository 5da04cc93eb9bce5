"""Guard on the one way to stdout: no module of the package writes there
except through cli._write, which finishes a short write and lets a closed
pipe end the command with 141.

A print must name its file=, and not as sys.stdout; no call of
sys.stdout.write or of any .buffer.write may appear outside cli._write.
"""

import ast
from pathlib import Path

import realhurwitz

SRC = Path(realhurwitz.__file__).parent


def _is_stdout(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "stdout"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def stdout_writes(src: Path) -> list[str]:
    """module:line of each call under src that writes to stdout outside
    cli._write: a print without file= or with file=sys.stdout, a
    sys.stdout.write, or a .buffer.write."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for fn in tree.body
                   if path.stem == "cli" and isinstance(fn, ast.FunctionDef) and fn.name == "_write"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                files = [k.value for k in node.keywords if k.arg == "file"]
                bad = not files or _is_stdout(files[0])
            else:
                bad = isinstance(func, ast.Attribute) and func.attr == "write" and (
                    _is_stdout(func.value)
                    or isinstance(func.value, ast.Attribute) and func.value.attr == "buffer")
            if bad:
                found.append((path.stem, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_only_the_cli_writer_writes_to_stdout():
    assert stdout_writes(SRC) == []


def test_guard_flags_each_way_round_the_writer(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import sys\n"
        "def _write(text):\n"
        "    sys.stdout.write(text)\n"
        "    sys.stdout.buffer.write(text.encode())\n"
        "def f(out):\n"
        "    print('x')\n"
        "    print('x', file=sys.stderr)\n"
        "    print('x', file=sys.stdout)\n"
        "    sys.stdout.write('x')\n"
        "    sys.stdout.buffer.write(b'x')\n"
        "    out.write('x')\n")
    (tmp_path / "dump.py").write_text(
        "def g(out):\n"
        "    out.buffer.write(b'x')\n"
        "    return [print(n) for n in range(2)]\n")
    assert stdout_writes(tmp_path) == ["cli:6", "cli:8", "cli:9", "cli:10", "dump:2", "dump:3"]
