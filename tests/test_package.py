"""Package code is there for the package: no top-level function or class is
reached only from tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parrondo"

# top-level names that nothing outside the tests names, each with its reason
ALLOWED = {}


def _aliases(tree):
    """{alias: module} for `from . import x` and `from parrondo import x`, and
    {alias: (module, name)} for `from .x import name`."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = (node.level, node.module) in ((1, None), (0, "parrondo"))
        for alias in node.names:
            if package:
                modules[alias.asname or alias.name] = alias.name
            elif node.level == 1:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return modules, names


def _references(tree, module, modules, names):
    """(module, name) of every package name this code reads: a bare name, or
    `x.name` where x is a package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield names.get(node.id, (module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                yield modules[node.value.id], node.attr


def _package(directory=PACKAGE):
    """Every top-level def of the package, and the (module, name) pairs the
    package names outside the def they name."""
    defs, used = set(), set()
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem
        aliases = _aliases(tree)
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = (module, stmt.name)
                defs.add(own)
            used.update(ref for ref in _references(stmt, module, *aliases) if ref != own)
    return defs, used


def _entry_points():
    """(module, name) of each [project.scripts] entry in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'"parrondo\.(\w+):(\w+)"', scripts))


def _readme_sketch():
    """(module, name) of each package name the README's library sketch reads."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library sketch", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    tree = ast.parse(block)
    return set(_references(tree, None, *_aliases(tree)))


def test_the_readme_sketch_and_the_entry_point_name_package_code():
    defs, _ = _package()
    assert _entry_points() == {("cli", "main")} <= defs
    assert ("grover", "stopping_index_variance") in _readme_sketch() & defs


def test_every_top_level_def_is_named_outside_the_tests():
    defs, used = _package()
    unnamed = defs - used - _entry_points() - _readme_sketch()
    assert sorted(f"{m}.{n}" for m, n in unnamed) == sorted(ALLOWED)


def test_the_guard_flags_a_def_only_its_own_body_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b\n\ndef lonely(n):\n    return lonely(n - 1)\n\nb.used()\n"
    )
    (tmp_path / "b.py").write_text("def used():\n    pass\n")
    defs, used = _package(tmp_path)
    assert defs - used == {("a", "lonely")}
