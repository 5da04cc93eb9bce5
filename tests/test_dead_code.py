"""Guard against library code that nothing calls.

Every top-level function, class and constant of the package must be read
somewhere in the package outside its own definition, as a name or an
attribute, unless the package's __init__ exports it: its export table
_EXPORTS maps each submodule to the names it exports. Every method and
property of a class, exported or not, must be read as an attribute of that
name, in the package outside its own definition or in the benchmark's
tracer (perfbench/tracer.py, the only reader of LabelledSeries.coeffs); a
bare name, such as a local variable, does not count, and dunder methods are
exempt. A mention in a docstring or an import line is not a use. The guard
matches names, not classes, so two classes' methods of one name still cover
each other: PolyVector.coeff and LabelledSeries.coeff pass as long as
either is read.
"""

import ast
import re
from pathlib import Path

import realhurwitz

SRC = Path(realhurwitz.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TRACER = ROOT / "perfbench" / "tracer.py"


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


def _methods(tree: ast.Module) -> dict[str, ast.AST]:
    """Class.name of each def (a property too) in the body of a top-level
    class, with its node; dunder methods are left out."""
    return {f"{node.name}.{item.name}": item for node in tree.body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))}


def _references(tree: ast.AST, skip: set[int], names: bool = True) -> set[str]:
    """Names read as an Attribute, and as a Name unless names is false,
    outside the nodes in skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if names and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _export_table(tree: ast.Module) -> dict[str, list[str]]:
    """The literal value of the __init__ assignment `_EXPORTS = {module:
    (name, ...)}`, with each tuple of names as a list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
            return {module: list(names)
                    for module, names in ast.literal_eval(node.value).items()}
    raise AssertionError("__init__ has no _EXPORTS table")


def unused_names(src: Path, readers: tuple[Path, ...] = ()) -> list[str]:
    """module.name of every top-level definition under src that no other
    part of src reads and __init__ does not export, then module.Class.name
    of every method or property that no other part of src, and none of the
    files in readers, reads as an attribute."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    exported = {name for names in _export_table(trees["__init__"]).values()
                for name in names}
    outside = [ast.parse(path.read_text()) for path in readers]

    def read_elsewhere(name: str, tree: ast.Module, definition: ast.AST,
                       names: bool = True) -> bool:
        others = trees.values() if names else [*trees.values(), *outside]
        return any(name in _references(other, {id(definition)} if other is tree else set(), names)
                   for other in others)

    unused = []
    for module, tree in trees.items():
        for name, definition in _top_level_names(tree).items():
            if name in exported or (name.startswith("__") and name.endswith("__")):
                continue
            if not read_elsewhere(name, tree, definition):
                unused.append(f"{module}.{name}")
    for module, tree in trees.items():
        for qualified, definition in _methods(tree).items():
            if not read_elsewhere(definition.name, tree, definition, names=False):
                unused.append(f"{module}.{qualified}")
    return unused


def _write_init(package: Path, exports: dict) -> None:
    """An __init__ in the package's form: an export table, read once."""
    (package / "__init__.py").write_text(
        f"_EXPORTS = {exports!r}\n"
        "__all__ = [name for names in _EXPORTS.values() for name in names]\n")


def test_every_top_level_name_is_used_or_exported():
    assert unused_names(SRC, (TRACER,)) == []


def test_guard_flags_a_name_only_a_docstring_mentions(tmp_path):
    _write_init(tmp_path, {"a": ("f",)})
    (tmp_path / "a.py").write_text(
        '"""g is named here only."""\n'
        "def f():\n    return h()\n\n"
        "def g():\n    return g()\n\n"
        "def h():\n    return 1\n\n"
        "UNREAD = 3\n")
    assert unused_names(tmp_path) == ["a.g", "a.UNREAD"]


def test_guard_flags_a_method_that_nothing_reads(tmp_path):
    # the class is exported, which does not cover its methods; a method
    # that only calls itself, or that only a docstring names, is unused
    _write_init(tmp_path, {"a": ("V",)})
    (tmp_path / "a.py").write_text(
        '"""V.mul is named here only."""\n'
        "class V:\n"
        "    def __add__(self, other):\n        return self.scale(1)\n\n"
        "    def scale(self, c):\n        return self\n\n"
        "    def mul(self, other):\n        return self.mul(other)\n\n"
        "    @property\n    def size(self):\n        return 0\n")
    assert unused_names(tmp_path) == ["a.V.mul", "a.V.size"]


def test_guard_flags_a_method_that_only_a_local_variable_names(tmp_path):
    # a bare name of the method's spelling is a variable, not a read of it;
    # a file passed as a reader counts only through an attribute
    _write_init(tmp_path, {"a": ("V", "f")})
    (tmp_path / "a.py").write_text(
        "class V:\n"
        "    def coeffs(self):\n        return []\n\n"
        "    def size(self):\n        return 0\n\n"
        "def f():\n    coeffs = [1]\n    return coeffs\n")
    (tmp_path / "bench").mkdir()
    reader = tmp_path / "bench" / "reader.py"
    reader.write_text("def g(v):\n    size = 0\n    return v.size(), size\n")
    assert unused_names(tmp_path) == ["a.V.coeffs", "a.V.size"]
    assert unused_names(tmp_path, (reader,)) == ["a.V.coeffs"]


def test_readme_lists_exactly_the_exports():
    exported = _export_table(ast.parse((SRC / "__init__.py").read_text()))
    section = README.read_text().split("The package exports these names and no others")[1]
    listed = {}
    for item in section.split("\n\n")[1].split("- from ")[1:]:
        module, *names = re.findall(r"`(\w+)`", item)
        listed[module] = names
    assert listed == exported
