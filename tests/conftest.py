"""Shared test helpers, and the checkout's ``src`` for the CLI subprocesses some tests start.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on the path of the test
process only; child processes see ``PYTHONPATH``, so ``src`` goes there too.
"""

import os
from pathlib import Path

import numpy as np

from mspace.linalg import DensityMatrix

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def density_of(psi):
    """``|psi><psi|`` as a checked ``DensityMatrix``."""
    v = psi.vector
    return DensityMatrix(psi.dims, np.outer(v, v.conj()))
