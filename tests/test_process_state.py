"""Only the command-line module touches process state.

The library is built from pure functions; ``cli.py`` owns what belongs to
the process. No other module in ``src/mspace`` imports ``gc`` or reads the
environment through ``os.environ`` or ``os.getenv``. The check reads each
module's syntax tree, so a mention in a docstring or a comment does not
count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mspace"
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def process_state_uses(source: str) -> list[str]:
    """Each import of ``gc`` and each read of the environment in ``source``, as ``line: what``."""
    tree = ast.parse(source)
    os_names, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "gc":
                    uses.append(f"{node.lineno}: import gc")
                elif alias.name == "os":
                    os_names.add(alias.asname or "os")
        elif isinstance(node, ast.ImportFrom) and node.module in ("gc", "os"):
            names = [alias.name for alias in node.names]
            if node.module == "gc" or ENVIRONMENT & set(names):
                uses.append(f"{node.lineno}: from {node.module} import {', '.join(names)}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ):
            uses.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return uses


@pytest.mark.parametrize("name", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "cli.py"))
def test_only_the_cli_touches_process_state(name):
    assert process_state_uses((PACKAGE / name).read_text(encoding="utf-8")) == []


def test_the_cli_is_where_process_state_is_touched():
    uses = process_state_uses((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert any(use.endswith(": import gc") for use in uses)
    assert any(use.endswith(": os.environ") for use in uses)


@pytest.mark.parametrize(
    "source",
    [
        "import gc",
        "import gc as collector",
        "from gc import disable",
        "import os\nos.environ['X']",
        "import os as o\no.getenv('X')",
        "from os import environ",
        "from os import path, getenv",
    ],
)
def test_each_form_is_found(source):
    assert len(process_state_uses(source)) == 1


def test_other_uses_of_os_are_not_process_state():
    assert process_state_uses("import os\nos.fstat(0)\nos.path.join('a')\n# os.environ\n'import gc'") == []
