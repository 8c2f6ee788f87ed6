"""Shared test helpers and reference oracles, and the checkout's ``src`` for the CLI
subprocesses some tests start.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on the path of the test
process only; child processes see ``PYTHONPATH``, so ``src`` goes there too.
"""

import math
import os
import types
from pathlib import Path

import numpy as np

from mspace.entanglement import measurement_space_entanglement, pure_entanglement
from mspace.linalg import PAULI_Y, DensityMatrix, ValidationError, bell_phi_plus, haar_blocks, haar_vectors
from mspace.linalg import _require, frozen
from mspace.locc import MAX_KRAUS, ZERO_BRANCH_TOL, PartyMove, fourier_step
from mspace.measurement import (
    LocalMeasurementSet,
    MeasurementSet,
    map_to_measurement_space,
    random_measurement_set,
)
from mspace.report import _emit_json, _tsv_cell

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def pairs(a):
    """A complex array as nested ``[re, im]`` pairs, the JSON form of ``mspace.files``."""
    return np.stack([np.real(a), np.imag(a)], axis=-1).tolist()


def complex_pairs_reference(rows, nested):
    """``files.pairs_to_vector`` (or, when ``nested``, one matrix of ``pairs_to_matrices``) as each
    was written before the one-pass conversion: one ``complex(re, im)`` per unpacked pair, and
    ``complex-pairs`` on any failure. It reads a JSON ``true`` or ``false`` as 1 or 0, which the
    converters refuse: they take a part only if its exact type is ``float`` or ``int``."""
    what = "matrix entries" if nested else "amplitudes"
    try:
        if nested:
            return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
        return np.array([complex(re, im) for re, im in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("complex-pairs", f"{what} must be [re, im] pairs") from exc


def random_local_set(dim_a, dim_b, n_a, n_b, seed):
    """A random complete set for each party, Alice's drawn first from one generator."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return LocalMeasurementSet(
        random_measurement_set(dim_a, n_a, rng), random_measurement_set(dim_b, n_b, rng)
    )


def depolarizing_kraus(p):
    """Kraus operators of the qubit depolarizing channel; p = 1 sends every state to 1/2."""
    paulis = [math.sqrt(p / 4.0) * s for s in (PAULI_X, PAULI_Y, PAULI_Z)]
    return np.array([math.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2, dtype=complex), *paulis])


def divisor_infimum(n):
    """Smallest divisor of n at or above sqrt(n), by scalar trial division down from isqrt(n):
    the reference for the stacked ``divisor_infima`` on counts too large for a sieve."""
    return next(n // d for d in range(math.isqrt(n), 0, -1) if n % d == 0)


def density_of(psi):
    """``|psi><psi|`` as a checked ``DensityMatrix``."""
    v = psi.vector
    return DensityMatrix(psi.dims, np.outer(v, v.conj()))


def entropy_reference(psi):
    """Entropy of entanglement (bits) of ``psi``, first subsystem against the rest, from the
    singular values of its amplitude matrix and ``math.log2``: a route independent of the
    kernel's reduced-state spectrum and ``np.log2``."""
    s = np.linalg.svd(psi.vector.reshape(psi.dims[0], -1), compute_uv=False)
    return -sum(p * math.log2(p) for p in (s * s).tolist() if p > 0.0)


def wootters_eof(psi):
    """Entanglement of formation (bits) of a two-qubit pure state by Wootters' closed form: the
    binary entropy of ``(1 + s) / 2`` with ``s = sqrt(1 - C^2)`` and the concurrence
    ``C = 2 |a00 a11 - a01 a10|``. The smaller weight is written ``C^2 / (2 (1 + s))``, which
    avoids the cancellation in ``(1 - s) / 2``."""
    a = psi.reshaped()
    c = min(2.0 * abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]), 1.0)
    s = math.sqrt(1.0 - c * c)
    return -sum(p * math.log2(p) for p in ((1.0 + s) / 2.0, c * c / (2.0 * (1.0 + s))) if p > 0.0)


def probabilities_reference(psi, mset):
    """Outcome probabilities ``||M_m psi||^2`` of a set on the whole space, by one einsum."""
    amps = np.einsum("mij,j->mi", mset.stack, psi.vector)
    return np.einsum("mi,mi->m", amps, amps.conj()).real


def noisy_pair_reference(eta):
    """The detector-efficiency pair built one efficiency at a time, as ``noisy_pair`` once did."""
    m0 = np.diag([math.sqrt(eta), math.sqrt(1.0 - eta)]).astype(complex)
    m1 = np.diag([math.sqrt(1.0 - eta), math.sqrt(eta)]).astype(complex)
    return MeasurementSet(2, ("0", "1"), [m0, m1])


def sweep_rows_reference(eta_start, eta_end, steps):
    """The ``sweep`` rows composed one efficiency at a time: the map of the Bell state under a
    pair of noisy sets, then its concurrence and entropy."""
    psi = bell_phi_plus()
    before = pure_entanglement(psi, "entropy")
    rows = []
    for eta in np.linspace(eta_start, eta_end, steps):
        pair = noisy_pair_reference(float(eta))
        image = map_to_measurement_space(psi, LocalMeasurementSet(pair, pair))
        rows.append(
            {
                "eta": float(eta),
                "entropy_original": before,
                "concurrence_mspace": measurement_space_entanglement(image, "concurrence"),
                "entropy_mspace": measurement_space_entanglement(image, "entropy"),
            }
        )
    return rows


def protocol_draws_reference(d_a, d_b, n, rngs):
    """The Gaussian draws behind ``random_protocols``, one ``standard_normal`` call per draw and
    trial: the state, Alice's block, Bob's unitaries and the verify sets."""
    draws = (
        np.empty((len(rngs), 2, d_a * d_b)),
        np.empty((len(rngs), 2, n * d_a, n * d_a)),
        np.empty((len(rngs), n, 2, d_b, d_b)),
        np.empty((len(rngs), n, 2, 2 * d_b, 2 * d_b)),
    )
    for t, rng in enumerate(rngs):
        for g in draws:
            rng.standard_normal(out=g[t])
    return draws


def konrad_trials_reference(rngs, two_sided):
    """``random_konrad_trials`` with one ``haar_blocks`` call per trial and side."""
    g_state = np.empty((len(rngs), 2, 4))
    kraus = np.zeros((2, len(rngs), MAX_KRAUS, 2, 2), dtype=complex)
    kraus[1, :, 0] = np.eye(2)
    for t, rng in enumerate(rngs):
        rng.standard_normal(out=g_state[t])
        for side in range(2 if two_sided else 1):
            k = int(rng.integers(1, MAX_KRAUS + 1))
            kraus[side, t, :k] = haar_blocks(rng.standard_normal((2, 2 * k, 2 * k)), 2)
    return haar_vectors(g_state).reshape(-1, 2, 2), kraus[0], kraus[1]


def measure_party_reference(t, party, rows=None, eigen_blocks=None):
    """``locc._measure_party`` as two-operand einsums: blocks, coefficients, probabilities as
    their squared norms, the unitaries ``U_jm``, the reset vectors ``U_jm omega_mj`` they give
    (as ``[..., j, a, m]``, first ``rows`` rows) and the post-reset states.

    ``eigen_blocks``, when given, are eigendecomposed in place of the einsum blocks, so that a
    move and its reference share one eigenbasis even where a degenerate block leaves it free.
    """
    d = t.shape[-4]
    blocks = frozen(np.einsum("...imxy,...jmxy->...mij", t, t.conj()))
    fs = fourier_step(blocks if eigen_blocks is None else eigen_blocks)
    omega = fs.vectors
    coef = np.einsum("...mij,...imxy->...jmxy", omega.conj(), t)
    probs = np.einsum("...jmxy,...jmxy->...j", coef, coef.conj()).real
    _require(
        probs > 0.0,
        "locc-branch",
        lambda i: f"outcome {i[-1]} for party {party} has zero probability",
    )
    swaps = np.tile(np.arange(d), (d, 1))
    swaps[:, 0], swaps[range(d), range(d)] = np.arange(d), 0
    unitaries = np.moveaxis(omega.conj().swapaxes(-1, -2)[..., swaps, :], -3, -4)
    skipped = np.einsum("...mii->...m", blocks).real < ZERO_BRANCH_TOL
    unitaries = np.where(skipped[..., None, :, None, None], np.eye(d), unitaries)
    reset = np.einsum("...jmai,...mij->...jam", unitaries, omega)[..., :rows, :]
    states = np.einsum("...jam,...jmxy->...jamxy", reset, coef)
    states /= np.sqrt(probs)[..., None, None, None, None]
    return states, PartyMove(blocks, fs, probs, frozen(reset), skipped)


def rows_of(columns):
    """A report table, given as columns, as one dict per row."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def mode_rows(table):
    """The rows of a ``ModeSystem`` table, each a namespace of its fields as Python scalars."""
    return [types.SimpleNamespace(**row) for row in rows_of({k: v.tolist() for k, v in vars(table).items()})]


def emit_reference(report, fmt):
    """A report printed one value at a time, as ``mspace.report.emit`` printed it before it
    formatted its table by column: the table's rows are rebuilt as dicts and walked in
    emission order."""
    columns = report.get("results", {})
    rows = rows_of(columns)
    if fmt == "json":
        return _emit_json({**report, "results": rows})
    lines = [f"# {key}={_tsv_cell(value)}" for key, value in report.items() if key != "results"]
    if rows:
        lines.append("\t".join(columns))
        lines += ["\t".join(_tsv_cell(row[key]) for key in columns) for row in rows]
    return "\n".join(lines)
