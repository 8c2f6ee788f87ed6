"""Entanglement measures on bipartite pure states and measurement-space images.

All entropic quantities use base-2 logarithms, so a maximally entangled qubit
pair scores exactly 1. The entanglement of formation of a pure state is its
entropy of entanglement, so ``eof`` and ``entropy`` take one route on every
shape: the entropy of the reduced state's spectrum. Concurrence follows the
standard two-qubit closed forms: ``2|a00 a11 - a01 a10|`` for pure states
and the descending-lambda eigenvalue formula for mixed states.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .linalg import PAULI_Y, DensityMatrix, PureState, ValidationError, _require, reduced_spectrum, tensor
from .measurement import MeasurementSpaceState

_YY = tensor(PAULI_Y, PAULI_Y)


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each distribution on the last axis of ``p``, with 0 log 0 := 0."""
    # 0.0 - sum, so that a product state scores +0.0 rather than -0.0
    return 0.0 - np.sum(p * np.log2(p, out=np.zeros_like(p), where=p > 0.0), axis=-1)


def concurrence_pure(amplitudes: np.ndarray) -> float | np.ndarray:
    """Concurrence 2 |a00 a11 - a01 a10| of a ``(2, 2)`` amplitude matrix, or of each in a stack."""
    a = np.asarray(amplitudes, dtype=complex)
    if a.shape[-2:] != (2, 2):
        raise ValidationError("concurrence-dims", f"need 2x2 amplitudes, got shape {a.shape}")
    r, i = a.real, a.imag
    r00, r01, r10, r11 = r[..., 0, 0], r[..., 0, 1], r[..., 1, 0], r[..., 1, 1]
    i00, i01, i10, i11 = i[..., 0, 0], i[..., 0, 1], i[..., 1, 0], i[..., 1, 1]
    # real products and hypot round as numpy's scalar complex product and abs() do
    re = (r00 * r11 - i00 * i11) - (r01 * r10 - i01 * i10)
    im = (r00 * i11 + i00 * r11) - (r01 * i10 + i01 * r10)
    c = 2.0 * np.hypot(re, im)
    return float(c) if c.ndim == 0 else c


def concurrence_mixed(rho: DensityMatrix) -> float | np.ndarray:
    """Concurrence of a two-qubit density matrix, or of each matrix in a stack.

    C = max(0, l1 - l2 - l3 - l4) with the l_i the descending square roots of
    the eigenvalues of rho (Y x Y) rho* (Y x Y). Those eigenvalues equal the
    squared singular values of sqrt(rho) (Y x Y) sqrt(rho)*, and the SVD is
    numerically stabler than the eigenvalues of the non-Hermitian product.
    sqrt(rho) comes from the eigenpairs that ``rho``'s positivity check found.
    A stack gives one value per matrix, bit for bit that of its own call.
    """
    if rho.dims != (2, 2):
        raise ValidationError("concurrence-dims", f"need a 2x2 density matrix, got {rho.dims}")
    w, v = rho.eigh
    s = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)  # sqrt(rho)
    lam = np.linalg.svd(s @ _YY @ s.conj(), compute_uv=False)
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return float(c) if c.ndim == 0 else c


MEASURES = ("entropy", "concurrence", "eof")


def _require_measure(measure: str) -> None:
    """Fail as ``measure-name`` for a measure outside MEASURES; the kernel and the report both ask."""
    if measure not in MEASURES:
        raise ValidationError("measure-name", f"unknown measure {measure!r}; use {MEASURES}")


@dataclasses.dataclass(frozen=True)
class EntanglementReport:
    """One measure's value, or a stack of values, across an ``(na, nb)`` cut, checked to lie in
    the measure's range within a tolerance and then clipped to that range exactly; in a stack,
    the message names the first bad row. An unknown measure fails as the kernel fails."""

    measure: str
    value: float | np.ndarray
    split: tuple[int, int]

    def __post_init__(self):
        _require_measure(self.measure)
        if self.measure == "concurrence":
            top, cap, what = 1.0, 1.0 + 1e-12, "concurrence {!r} outside [0, 1]"
        else:
            top = math.log2(min(self.split))
            cap = top + 1e-9
            what = f"{self.measure} value {{!r}} outside [0, {cap!r}]"
        value = np.asarray(self.value)
        _require(
            (-1e-12 <= value) & (value <= cap),
            "report-range",
            lambda i: (f"row {i[0]}: " if value.size > 1 else "") + what.format(float(value[i])),
        )
        value = value.clip(0.0, top)
        object.__setattr__(self, "value", float(value) if value.ndim == 0 else value)


def pure_entanglements(amplitudes: np.ndarray, measure: str) -> np.ndarray:
    """One entanglement measure of each ``(d_a, d_b)`` amplitude matrix in an ``(s, d_a, d_b)``
    stack, first side against the second, checked by one ``EntanglementReport``.

    ``entropy`` is the entropy of the squared Schmidt coefficients, the
    :func:`reduced_spectrum` of each matrix. ``concurrence`` needs 2x2
    matrices. ``eof`` is the same entropy on every shape, 2x2 included: the
    entanglement of formation of a pure state is its entropy of
    entanglement. Each row is the bits of a stack of one.
    """
    _require_measure(measure)
    a = np.asarray(amplitudes, dtype=complex)
    values = concurrence_pure(a) if measure == "concurrence" else _entropy_bits(reduced_spectrum(a))
    return EntanglementReport(measure, values, a.shape[-2:]).value


def pure_entanglement(psi: PureState, measure: str) -> float:
    """One entanglement measure of ``psi``, first subsystem against the rest: the one-state
    case of :func:`pure_entanglements`.

    ``concurrence`` needs a 2x2 state; ``entropy`` and ``eof`` need at least
    two subsystems.
    """
    # an unknown measure is left for the kernel to name
    if measure in MEASURES and psi.dims != (2, 2):
        if measure == "concurrence":
            raise ValidationError("concurrence-dims", f"need a 2x2 pure state, got dims {psi.dims}")
        if len(psi.dims) < 2:
            raise ValidationError("schmidt-split", f"need at least two subsystems, got dims {psi.dims}")
    return float(pure_entanglements(psi.vector.reshape(1, psi.dims[0], -1), measure)[0])


def measurement_space_entanglement(ms: MeasurementSpaceState, measure: str = "entropy") -> float:
    """Apply an entanglement measure to a measurement-space state, scored straight from its
    amplitudes as an outcome-grid matrix.

    Needs the bipartite outcome structure attached to ``ms``; without one
    there is no canonical bipartition. Concurrence requires a 2x2 outcome grid.
    """
    if ms.structure is None:
        raise ValidationError("mspace-factorization", "no bipartite outcome structure attached")
    if measure == "concurrence" and ms.structure != (2, 2):
        # checked here as well, so that the message names the outcome grid
        raise ValidationError(
            "concurrence-dims", f"concurrence needs a 2x2 outcome grid, got {ms.structure}"
        )
    return float(pure_entanglements(ms.amplitudes.reshape(1, *ms.structure), measure)[0])
