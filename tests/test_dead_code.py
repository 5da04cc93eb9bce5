"""Guard against library code that nothing calls.

Every top-level function, class and constant of the package must be read
somewhere in the package outside its own definition, as a name or an
attribute, unless the package's __init__ exports it. A mention in a
docstring or an import line is not a use.
"""

import ast
import re
from pathlib import Path

import realhurwitz

SRC = Path(realhurwitz.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _top_level_names(tree: ast.Module) -> dict[str, ast.AST]:
    """Each top-level def, class or assigned name, with the node defining it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node
    return out


def _references(tree: ast.AST, skip: set[int]) -> set[str]:
    """Names read as a Name or as an Attribute, outside the nodes in skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _exports(tree: ast.Module) -> set[str]:
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unused_names(src: Path) -> list[str]:
    """module.name of every top-level definition under src that no other
    part of src reads and __init__ does not export."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    exported = _exports(trees["__init__"])
    unused = []
    for module, tree in trees.items():
        for name, definition in _top_level_names(tree).items():
            if name in exported or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(name in _references(other, {id(definition)} if other is tree else set())
                       for other in trees.values()):
                unused.append(f"{module}.{name}")
    return unused


def test_every_top_level_name_is_used_or_exported():
    assert unused_names(SRC) == []


def test_guard_flags_a_name_only_a_docstring_mentions(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    (tmp_path / "a.py").write_text(
        '"""g is named here only."""\n'
        "def f():\n    return h()\n\n"
        "def g():\n    return g()\n\n"
        "def h():\n    return 1\n\n"
        "UNREAD = 3\n")
    assert unused_names(tmp_path) == ["a.g", "a.UNREAD"]


def test_readme_lists_exactly_the_exports():
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {node.module: [alias.name for alias in node.names] for node in init.body
                if isinstance(node, ast.ImportFrom)}
    section = README.read_text().split("The package exports these names and no others")[1]
    listed = {}
    for item in section.split("\n\n")[1].split("- from ")[1:]:
        module, *names = re.findall(r"`(\w+)`", item)
        listed[module] = names
    assert listed == exported
