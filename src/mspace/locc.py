"""Local construction that realizes the measurement-space map's outcome
distribution (not the image itself), plus the concurrence factorization
check for quantum channels.

The construction dilates a bipartite state with one measurement ancilla per
party, has each party measure in the Fourier transform of the eigenbasis of
its conditional system blocks, and finishes with conditional unitaries that
park the measured systems in |0>. Every Fourier outcome occurs with
probability 1/d for a d-dimensional party, so averaging the branches over
those outcomes yields the deterministic output of the whole procedure; the
diagonal of that averaged ancilla state reproduces the squared
measurement-space amplitudes exactly. Individual branches are pure states
whose agreement with the measurement-space image is reported as a fidelity,
not asserted. A run checks its pair once: the dilated state and the image
come from the same local product tensor, and the run's largest arrays must
fit the byte cap before that tensor is built.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable

import numpy as np

from .entanglement import concurrence_mixed, concurrence_pure
from .linalg import (
    DEFAULT_TOL,
    NORM_TOL,
    DensityMatrix,
    PureState,
    ValidationError,
    _require,
    _require_fits,
    _row_norms,
    _vector_norm,
    eig_hermitian,
    fourier_matrix,
    frozen,
    haar_blocks,
    haar_vectors,
    operator_stack,
)
from .measurement import (
    LocalMeasurementSet,
    MeasurementSpaceState,
    _checked_image,
    _gram,
    _identity_deviation,
    _require_pair_fits,
    local_product,
)

ZERO_BRANCH_TOL = 1e-12
DEGENERACY_TOL = 1e-9
KONRAD_TOL = 1e-8
MAX_KRAUS = 4
# one random trial's amplitudes, padded Kraus stacks and stacked local products, as complex128
KONRAD_TRIAL_BYTES = 16 * (4 + 2 * MAX_KRAUS * 4 + 3 * (2 * MAX_KRAUS) ** 2)


# ---------------------------------------------------------------------------
# dilation


def _dilation(t: np.ndarray) -> PureState:
    """The dilated state of a checked ``(n_a, n_b, d_a, d_b)`` local product ``t``: one ancilla
    per party, entangled with the local outcomes.

    The state lives on (sys_A, sys_B, anc_A, anc_B), in that order, and its
    ``[:, :, a, b]`` slice is ``A_a Psi B_b^T``.
    """
    vec = t.transpose(2, 3, 0, 1).reshape(-1)
    norm = _vector_norm(vec)
    # the squared norm is the trace of the ancilla output; within NORM_TOL
    # the vector is left alone, so that complete sets keep every bit
    if abs(norm * norm - 1.0) > NORM_TOL:
        vec = vec / norm
    return PureState(t.shape[2:] + t.shape[:2], vec)


# ---------------------------------------------------------------------------
# Fourier measurement step


@dataclasses.dataclass(frozen=True)
class FourierStep:
    """Fourier-rotated eigenbases of a ``(..., n, d, d)`` stack of conditional blocks.

    The leading ``...`` axes are a batch; each batch entry is one move of
    the party. ``vectors[..., m, :, j]`` is the direction the party projects
    onto for outcome ``j`` when its ancilla reads ``m``.
    ``outcome_totals[..., j]`` is the total probability of outcome ``j``
    across ancilla labels, which the construction predicts to be ``1/d``.
    ``max_deviation`` and ``degenerate`` hold one value per batch entry; a
    deviation is reported, never raised.
    """

    vectors: np.ndarray
    eigenvalues: np.ndarray
    outcome_totals: np.ndarray
    max_deviation: np.ndarray
    degenerate: np.ndarray


def fourier_step(blocks: np.ndarray) -> FourierStep:
    """Eigendecompose each block of a ``(..., n, d, d)`` stack and Fourier-transform its eigenbasis.

    Measures how far each Fourier outcome's total probability is from
    ``1/dim``. The deviation is recorded as a diagnostic rather than
    raised, since it would falsify the uniformity prediction, not the
    computation.
    """
    blocks = np.asarray(blocks, dtype=complex)
    dim = blocks.shape[-1]
    eigvals, eigvecs = eig_hermitian(blocks)
    vectors = eigvecs @ fourier_matrix(dim).T
    # totals[j] = sum_m <omega_mj| block_m |omega_mj>
    totals = np.einsum("...mij,...mij->...j", vectors.conj(), blocks @ vectors).real
    max_dev = np.maximum.reduce(np.abs(totals - 1.0 / dim), axis=-1)
    return FourierStep(
        vectors=frozen(vectors),
        eigenvalues=frozen(eigvals),
        outcome_totals=totals,
        max_deviation=max_dev,
        # the eigenvalues descend, so each gap is one minus the next
        degenerate=np.logical_or.reduce(eigvals[..., :-1] - eigvals[..., 1:] < DEGENERACY_TOL, axis=(-2, -1)),
    )


# ---------------------------------------------------------------------------
# the construction itself


@dataclasses.dataclass(frozen=True)
class PartyMove:
    """One party's measure-and-reset move, for all of its outcomes ``j`` at once.

    ``blocks[..., m]`` is the unnormalized state of the party's system next
    to its ancilla label ``m``, the other party traced out.
    ``probabilities[..., j]`` is the chance of outcome ``j`` and
    ``skipped[..., m]`` marks the sectors of zero weight, which keep the
    identity. ``resets[..., j, a, m]`` is row ``a`` of ``U_jm omega_mj``, the
    reset for outcome ``j`` in sector ``m`` applied to its Fourier vector, for
    the rows the move forms: ``omega_mj`` itself in a skipped sector. The
    reset ``U_jm`` is ``Omega_m^dag`` with rows 0 and ``j`` swapped, so
    ``fourier.vectors`` and ``skipped`` define it; no unitary is stored.
    Bob's arrays carry a leading axis over Alice's outcomes ``j_a``.
    """

    blocks: np.ndarray
    fourier: FourierStep
    probabilities: np.ndarray
    resets: np.ndarray
    skipped: np.ndarray


@dataclasses.dataclass(frozen=True)
class LoccTrace:
    """Full record of one run of the construction.

    Branch ``k = j_a * d_b + j_b`` is Alice's outcome ``j_a`` followed by
    Bob's ``j_b``. ``branch_ancillas[k]`` is the branch's pure (anc_A, anc_B)
    state once both systems sit in |0>; ``fidelities[k]`` compares it with
    the measurement-space image and ``branch_diagonal_deviations[k]`` is the
    largest gap between its squared amplitudes and the image's, both
    informational. ``ancilla`` is the deterministic output of the whole
    procedure, i.e. the ancilla state averaged over both parties' Fourier
    outcomes, whose diagonal matches the squared measurement-space
    amplitudes by construction: the read-only ``(n_a n_b, n_a n_b)`` matrix
    ``X^T W X^*`` of the branch rows ``X`` under nonnegative weights ``W``,
    so positive by its form, and not checked as a ``DensityMatrix``.
    """

    dilated: PureState
    alice: PartyMove
    bob: PartyMove
    mspace: MeasurementSpaceState
    ancilla: np.ndarray
    ancilla_diagonal: np.ndarray
    diagonal_deviation: float
    branch_ancillas: np.ndarray
    fidelities: np.ndarray
    branch_diagonal_deviations: np.ndarray


@functools.cache
def _swaps(d: int) -> np.ndarray:
    """``swaps[j]`` is ``range(d)`` with 0 and ``j`` swapped, read-only and built once per ``d``."""
    swaps = np.tile(np.arange(d), (d, 1))
    swaps[:, 0], swaps[range(d), range(d)] = np.arange(d), 0
    return frozen(swaps)


def _measure_party(t: np.ndarray, party: str, rows: int | None = None) -> tuple[np.ndarray, PartyMove]:
    """One party's move for all of its outcomes at once.

    ``t`` is a ``(..., sys, anc, other sys, other anc)`` stack of states in
    party layout. Returns the normalized post-reset states, stacked as
    ``[..., j]`` in the same layout, and the record of the move. The states
    hold only the first ``rows`` rows of the party's system, all by default;
    each entry is one product, so a row is the same bits either way. The reset
    for outcome ``j`` in sector ``m`` is ``Omega_m^dag`` with rows 0 and
    ``j`` swapped: the columns of the unitary ``Omega_m`` are the Fourier
    vectors, so it sends ``omega_j`` to ``e0``. Sectors of zero weight keep
    the identity. The move records the reset vectors it applies, not the
    unitaries. Each contraction is one matrix product over the sectors.
    """
    d, n = t.shape[-4:-2]
    # tm, coef and the states may each be as large as the run's largest array; freeing tm after
    # coef and coef after the states keeps Bob's move at three, his input included
    # tm is [..., m, i, (other sys, other anc)], contiguous so that no product copies it again
    tm = np.ascontiguousarray(t.swapaxes(-4, -3).reshape(*t.shape[:-4], n, d, -1))
    blocks = frozen(tm @ tm.conj().swapaxes(-1, -2))
    fs = fourier_step(blocks)
    omega = fs.vectors  # [..., m, i, j]: column j is omega_j in sector m
    omega_dag = omega.conj().swapaxes(-1, -2)
    coef = omega_dag @ tm  # [..., m, j, (other sys, other anc)]
    del tm
    # sum_m <omega_mj| block_m |omega_mj>, outcome j's squared coefficient norm; a NaN fails too
    probs = fs.outcome_totals
    _require(probs > 0.0, "locc-branch", lambda i: f"outcome {i[-1]} for party {party} has zero probability")
    swaps = _swaps(d)
    skipped = blocks.trace(axis1=-2, axis2=-1).real < ZERO_BRANCH_TOL
    # U_jm omega_j, close to e0, as [..., j, a, m]: entry (swaps[j, a], j) of Omega_m^dag Omega_m,
    # or omega_j itself where the sector keeps the identity
    reset = (omega_dag @ omega)[..., np.arange(n), swaps[:, :rows, None], np.arange(d)[:, None, None]]
    reset = frozen(np.where(skipped[..., None, None, :], omega[..., :rows, :].swapaxes(-1, -3), reset))
    states = (reset / np.sqrt(probs)[..., None, None])[..., None] * coef.swapaxes(-3, -2)[..., None, :, :]
    del coef
    move = PartyMove(blocks, fs, probs, reset, skipped)
    return states.reshape(*states.shape[:-1], *t.shape[-2:]), move


def run_locc_construction(
    psi: PureState, measurements: LocalMeasurementSet, completeness_tol: float = DEFAULT_TOL
) -> LoccTrace:
    """Run the two-party construction and audit its bookkeeping.

    Alice projects onto her Fourier-rotated eigenvectors and resets her
    system; Bob then makes the same move once, stacked over Alice's
    outcomes. That one pass covers every outcome branch. The branches are
    accumulated into the procedure's deterministic ancilla output, whose
    diagonal is checked against the squared measurement-space amplitudes:
    the construction reproduces the image's outcome distribution there. No
    branch is the image; each branch's fidelity to it is reported.
    Both sets must be complete within ``completeness_tol``, as for the map.
    Its largest array must fit the byte cap before anything is built,
    otherwise the run fails as ``locc-size``: Alice's states and Bob's
    coefficients (``d_a n_a n_b d_a d_b`` entries), Bob's blocks (``d_a n_b
    d_b^2``) or the ancilla output (``(n_a n_b)^2``).
    """
    _require_pair_fits(psi.dims, *measurements.stacks)
    (d_a, d_b), (n_a, n_b) = psi.dims, measurements.structure
    _require_fits(
        16 * max(d_a * n_a * n_b * d_a * d_b, d_a * n_b * d_b**2, (n_a * n_b) ** 2),
        "locc-size",
        f"a LOCC run of {n_a * n_b} outcomes on dims ({d_a}, {d_b})",
    )
    t, amps = _checked_image(psi.dims, psi.reshaped(), *measurements.stacks, completeness_tol)
    dilated = _dilation(t)
    image = MeasurementSpaceState(amps, measurements.structure)
    # party layouts: Alice's (sys_A, anc_A, sys_B, anc_B), Bob's (sys_B, anc_B, sys_A, anc_A)
    after_alice, alice = _measure_party(dilated.reshaped().transpose(0, 2, 1, 3), "A")
    # the run reads only Bob's row |0>; Alice's rows all feed his blocks
    after_bob, bob = _measure_party(after_alice.transpose(0, 3, 4, 1, 2), "B", rows=1)
    # row j_a * d_b + j_b: the branch's (anc_A, anc_B) part next to |0>|0>
    flat = after_bob[:, :, 0, :, 0, :].swapaxes(-1, -2).reshape(d_a * d_b, n_a * n_b)
    weight = np.abs(flat) ** 2
    leak = 1.0 - np.add.reduce(weight, axis=1)
    _require(
        leak <= 1e-9,
        "locc-reset",
        lambda i: f"systems hold weight {float(leak[i])!r} outside |0>|0> after the resets",
    )
    weights = (alice.probabilities[:, None] * bob.probabilities).reshape(-1)
    ancilla_acc = (flat.T * weights) @ flat.conj()
    target = image.probabilities()
    diag = ancilla_acc.diagonal().real.copy()
    return LoccTrace(
        dilated=dilated,
        alice=alice,
        bob=bob,
        mspace=image,
        ancilla=frozen(ancilla_acc),
        ancilla_diagonal=diag,
        diagonal_deviation=float(np.maximum.reduce(np.abs(diag - target))),
        branch_ancillas=frozen(flat),
        fidelities=np.abs(flat @ image.amplitudes) ** 2,
        branch_diagonal_deviations=np.maximum.reduce(np.abs(weight - target), axis=1),
    )


# ---------------------------------------------------------------------------
# channels and concurrence factorization


@dataclasses.dataclass(frozen=True)
class Channel:
    """Trace-preserving quantum channel, its Kraus operators stacked in one
    read-only ``(k, d, d)`` array."""

    kraus: np.ndarray

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise ValidationError("channel-empty", "a channel needs >= 1 Kraus operator")
        d = len(self.kraus[0])
        kraus = operator_stack(
            self.kraus, (d, d), "channel-shape", lambda k: f"Kraus operators must all be {d}x{d}"
        )
        object.__setattr__(self, "kraus", kraus)
        dev = float(_identity_deviation(_gram(kraus)))
        # written so that a NaN deviation fails too
        if not dev <= DEFAULT_TOL:
            raise ValidationError("channel-trace-preserving", f"sum K^dag K deviates from 1 by {dev!r}")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return np.einsum("kij,jl,kml->im", self.kraus, rho, self.kraus.conj())


def channel_output(psi: np.ndarray, kraus_a: np.ndarray, kraus_b: np.ndarray) -> DensityMatrix:
    """(L_A x L_B)|psi><psi| for amplitudes ``psi`` and Kraus stacks ``kraus_a``, ``kraus_b``.

    ``psi`` is a ``(d_a, d_b)`` amplitude matrix and the Kraus stacks are
    ``(k, d, d)``; leading axes of the three broadcast, as in
    ``local_product``, to a ``(..., d_a d_b, d_a d_b)`` stack. With
    ``T = local_product(psi, K_A, K_B)`` the output is
    ``sum_ab vec(T_ab) vec(T_ab)^dag``, since ``vec(T_ab)`` is the vector
    ``(K_a (x) K_b)|psi>``.
    """
    t = local_product(psi, kraus_a, kraus_b)
    d_a, d_b = t.shape[-2:]
    t = t.reshape(*t.shape[:-4], -1, d_a * d_b)
    return DensityMatrix((d_a, d_b), t.swapaxes(-1, -2) @ t.conj())


def konrad_check(psi: np.ndarray, kraus_a: np.ndarray, kraus_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of C((L_A x L_B) psi) <= C((L_A x 1) phi+) C((1 x L_B) phi+) C(psi), per trial.

    ``psi`` is a ``(t, 2, 2)`` amplitude stack and ``kraus_a``, ``kraus_b``
    are ``(t, k, 2, 2)`` Kraus stacks, each zero-padded to its own ``k``.
    Every state must have unit norm and every channel must preserve the
    trace; the first row that fails is named. Returns ``(lhs, bound)``. With
    L_B the identity the bound is met with equality, which is the one-sided
    check.
    """
    if psi.shape[-2:] != (2, 2):
        raise ValidationError("konrad-state", f"need two-qubit amplitudes, got shape {psi.shape}")
    if kraus_a.shape[-2:] != (2, 2) or kraus_b.shape[-2:] != (2, 2):
        raise ValidationError("konrad-channel", "both channels must act on qubits")
    dev = abs(_row_norms(psi.reshape(len(psi), 4)) - 1.0)
    _require(
        dev <= NORM_TOL, "konrad-state", lambda i: f"row {i[0]}: norm deviates from 1 by {float(dev[i])!r}"
    )
    dev = _identity_deviation(np.stack([_gram(kraus_a), _gram(kraus_b)], axis=-3))
    _require(
        dev <= DEFAULT_TOL,
        "konrad-channel",
        lambda i: f"row {i[0]}: side {'AB'[i[1]]}: sum K^dag K deviates from 1 by {float(dev[i])!r}",
    )
    # the identity channel on each side, padded like that side's stack
    eye_a, eye_b = np.zeros(kraus_a.shape, kraus_a.dtype), np.zeros(kraus_b.shape, kraus_b.dtype)
    eye_a[..., 0, :, :] = eye_b[..., 0, :, :] = np.eye(2)
    bell = np.broadcast_to(np.eye(2) / np.sqrt(2.0), psi.shape)
    # one stack of rows (L_A x L_B) psi, (L_A x 1) phi+ and (1 x L_B) phi+
    c = concurrence_mixed(
        channel_output(
            np.stack([psi, bell, bell]),
            np.stack([kraus_a, kraus_a, eye_a]),
            np.stack([kraus_b, eye_b, kraus_b]),
        )
    )
    return c[0], c[1] * c[2] * concurrence_pure(psi)


def random_konrad_trials(
    rngs: Iterable[np.random.Generator], two_sided: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One random trial per generator, as ``(psi, kraus_a, kraus_b)`` for :func:`konrad_check`.

    ``rngs`` may be a list or a one-pass iterator, such as a chunk of
    :func:`~mspace.linalg.seeded_chunks`. Each generator draws a Haar
    state's normals, then per side (Bob's only when ``two_sided``, else he
    keeps the identity) a Kraus count in ``[1, MAX_KRAUS]`` and the normals
    of its ``haar_blocks``, zero-padded.
    The draws of one side and Kraus count go through one stacked
    ``haar_blocks``, which gives each trial the bits of its own call.
    """
    g_state = []
    draws: dict[tuple[int, int], list] = {}  # (side, k) -> [(trial, normals)]
    for t, rng in enumerate(rngs):
        g_state.append(rng.standard_normal((2, 4)))
        for side in range(2 if two_sided else 1):
            k = int(rng.integers(1, MAX_KRAUS + 1))
            draws.setdefault((side, k), []).append((t, rng.standard_normal((2, 2 * k, 2 * k))))
    kraus = np.zeros((2, len(g_state), MAX_KRAUS, 2, 2), dtype=complex)
    kraus[1, :, 0] = np.eye(2)
    for (side, k), group in draws.items():
        trials, g = zip(*group)
        kraus[side, list(trials), :k] = haar_blocks(np.stack(g), 2)
    return haar_vectors(np.array(g_state).reshape(-1, 2, 4)).reshape(-1, 2, 2), kraus[0], kraus[1]
