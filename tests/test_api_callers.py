"""Every public top-level name in the package, and every private top-level function, has a
caller inside the package.

The package root exports nothing, so the public names are read from the
modules themselves: every top-level ``def`` or ``class`` in ``src/mspace``
whose name does not start with an underscore. A name is called when the
syntax tree of some module in ``src/mspace`` loads it outside the name's own
top-level ``def`` or ``class``; a mention in a docstring or a comment does
not count. A ``cmd_*`` handler is called by ``cli.main``, which looks it up
by its subcommand's name, so it counts as called when that subcommand is in
``cli.COMMANDS``. API that only tests call is deleted instead, and tests
build what they need in ``conftest.py``; a private helper whose last caller
goes is deleted with it.
"""

import ast
from pathlib import Path

import pytest

from mspace import cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mspace"

# public names kept without a caller in the package, each with its reason
ALLOWED = {
    # perfbench/tracer.py METHODS wraps Channel.__post_init__ and Channel.apply by name
    "Channel": "the benchmark tracer patches its methods",
}


def top_level(path: Path) -> list[ast.FunctionDef | ast.ClassDef]:
    """The top-level ``def`` and ``class`` statements of one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [top for top in tree.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))]


def public_names() -> list[str]:
    """Every top-level ``def`` or ``class`` in ``src/mspace`` whose name has no leading underscore."""
    return sorted(
        top.name for path in PACKAGE.glob("*.py") for top in top_level(path) if not top.name.startswith("_")
    )


def private_functions() -> list[str]:
    """Every top-level ``def`` in ``src/mspace`` whose name starts with an underscore."""
    return sorted(
        top.name
        for path in PACKAGE.glob("*.py")
        for top in top_level(path)
        if isinstance(top, ast.FunctionDef) and top.name.startswith("_")
    )


def loaded_names() -> set[tuple[str, str | None]]:
    """(name, top-level def or class it is loaded in, None at module level) over the package."""
    loads = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loads.add((node.id, owner))
    return loads


LOADS = loaded_names()


@pytest.mark.parametrize("name", public_names() + private_functions())
def test_exported_name_has_a_caller_in_the_package(name):
    callers = {owner for loaded, owner in LOADS if loaded == name and owner != name}
    if name in ALLOWED:
        assert not callers, f"{name} has callers now; take it off the allowlist"
    elif name.startswith("cmd_"):
        assert name.removeprefix("cmd_") in cli.COMMANDS, f"no subcommand in cli.COMMANDS runs {name}"
    else:
        assert callers, f"nothing in src/mspace calls {name}"


def test_allowlist_names_only_exports():
    assert set(ALLOWED) <= set(public_names())


def test_each_subcommand_has_one_handler_and_each_handler_a_subcommand():
    handlers = {top.name for top in top_level(PACKAGE / "cli.py") if top.name.startswith("cmd_")}
    assert handlers == {f"cmd_{name}" for name in cli.COMMANDS}
