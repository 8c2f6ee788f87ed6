"""Every name the package exports, and every private top-level function, has a caller
inside the package.

A name is called when the syntax tree of some module in ``src/mspace`` loads
it outside the name's own top-level ``def`` or ``class``; a mention in a
docstring or a comment does not count. API that only tests call is deleted
instead, and tests build what they need in ``conftest.py``; a private helper
whose last caller goes is deleted with it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mspace"

# exported names kept without a caller in the package, each with its reason
ALLOWED = {
    # perfbench/tracer.py METHODS wraps Channel.__post_init__ and Channel.apply by name
    "Channel": "the benchmark tracer patches its methods",
}


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def private_functions() -> list[str]:
    """Every top-level ``def`` in ``src/mspace`` whose name starts with an underscore."""
    return sorted(
        top.name
        for path in PACKAGE.glob("*.py")
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(top, ast.FunctionDef) and top.name.startswith("_")
    )


def loaded_names() -> set[tuple[str, str | None]]:
    """(name, top-level def or class it is loaded in, None at module level) over the package."""
    loads = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loads.add((node.id, owner))
    return loads


LOADS = loaded_names()


@pytest.mark.parametrize("name", exported_names() + private_functions())
def test_exported_name_has_a_caller_in_the_package(name):
    callers = {owner for loaded, owner in LOADS if loaded == name and owner != name}
    if name in ALLOWED:
        assert not callers, f"{name} has callers now; take it off the allowlist"
    else:
        assert callers, f"nothing in src/mspace calls {name}"


def test_allowlist_names_only_exports():
    assert set(ALLOWED) <= set(exported_names())
