"""Machine-speed probes: fixed work that never touches mspace.

On a shared virtual machine the host's speed drifts by up to 2x, in phases
lasting seconds to minutes, and every time the benchmark takes drifts with
it: process start-up, Python, LAPACK and memory-bound numpy alike. The
probes run beside the program, and a time divided by the probes' median and
multiplied by their nominal time is stated at one nominal machine speed. A
change to mspace moves the scaled time; a change of host speed moves the
probes too and cancels. The raw times are printed and recorded beside the
scaled ones.

``kernel`` mixes the three kinds of work the jobs do: a pure-Python loop,
small Hermitian eigensolves and a memory-bound Kronecker product. ``spawn``
starts an interpreter that imports part of the standard library, the kind of
work ``setup_s`` measures.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# median probe times on a 2-vCPU Intel Xeon virtual machine, Python 3.11, one BLAS thread
KERNEL_NOMINAL_S = 0.025
SPAWN_NOMINAL_S = 0.11

_RNG = np.random.default_rng(20100426)
_Z = _RNG.standard_normal((24, 8, 8)) + 1j * _RNG.standard_normal((24, 8, 8))
_HERMITIAN = _Z + _Z.conj().transpose(0, 2, 1)
_SQUARE = _RNG.standard_normal((32, 32)) + 1j * _RNG.standard_normal((32, 32))
SPAWN_CODE = "import argparse, dataclasses, decimal, email.message, fractions, http.client, json, statistics"


def kernel() -> float:
    """Seconds for the fixed in-process work."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for h in _HERMITIAN:
        np.linalg.eigh(h)
    for _ in range(2):
        np.kron(_SQUARE, _SQUARE).sum()
    return time.perf_counter() - start


def spawn(env: dict[str, str]) -> float:
    """Seconds for a fresh interpreter to import the fixed standard-library modules."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_CODE], env=env, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start
