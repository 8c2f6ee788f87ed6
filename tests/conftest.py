"""Make the checkout's ``src`` importable in the CLI subprocesses some tests start.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on the path of the test
process only; child processes see ``PYTHONPATH``, so ``src`` goes there too.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
