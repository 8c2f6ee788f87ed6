"""Importing one module of the package loads only the package modules its imports reach.

For each module in ``src/mspace``, a fresh interpreter imports that module
alone and lists the ``mspace`` entries of ``sys.modules``. They must be the
package itself plus the modules reached from the module's import statements,
followed from module to module. The expected set is read from the syntax
trees, not written by hand. An import inside a function body runs only when
the function is called, so it is not followed. The package root imports
nothing, so one module does not bring in the rest. No timing is asserted.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mspace"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def dotted(stem: str) -> str:
    return "mspace" if stem == "__init__" else f"mspace.{stem}"


def run_on_import(tree: ast.AST):
    """Every node of a module that runs when the module is imported: all but function bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def package_imports(stem: str) -> set[str]:
    """The modules of the package that module ``stem``'s import statements name, as stems."""
    names = set()
    for node in run_on_import(ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "mspace" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return {name.removeprefix("mspace.") for name in names if name.startswith("mspace.")} & set(MODULES)


def reached(stem: str) -> set[str]:
    """``mspace``, which importing any of its modules loads first, and every module reached from
    ``stem`` through import statements, ``stem`` included."""
    seen, todo = set(), [stem]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.add(current)
            todo.extend(package_imports(current))
    return {"mspace"} | {dotted(name) for name in seen}


@pytest.mark.parametrize("stem", MODULES)
def test_importing_a_module_loads_only_what_its_imports_reach(stem):
    code = f"import sys, {dotted(stem)}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'mspace'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == reached(stem)


def test_the_package_root_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []
