"""Local construction that realizes the measurement-space map, plus
concurrence factorization checks for quantum channels.

The construction dilates a bipartite state with one measurement ancilla per
party, has each party measure in the Fourier transform of the eigenbasis of
its conditional system blocks, and finishes with conditional unitaries that
park the measured systems in |0>. Every Fourier outcome occurs with
probability 1/d for a d-dimensional party, so averaging the branches over
those outcomes yields the deterministic output of the whole procedure; the
diagonal of that averaged ancilla state reproduces the squared
measurement-space amplitudes exactly. Individual branches are pure states
whose agreement with the measurement-space image is reported as a fidelity,
not asserted.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .entanglement import concurrence_mixed, concurrence_pure
from .linalg import (
    DEFAULT_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    PureState,
    ValidationError,
    _as_rng,
    bell_phi_plus,
    eig_hermitian,
    fourier_matrix,
    haar_unitary,
    tensor,
)
from .measurement import (
    LocalMeasurementSet,
    MeasurementSpaceState,
    local_product,
    map_to_measurement_space,
)

ZERO_BRANCH_TOL = 1e-12
DEGENERACY_TOL = 1e-9


# ---------------------------------------------------------------------------
# dilation and conditional blocks


def _dilation_tensor(psi: PureState, measurements: LocalMeasurementSet) -> np.ndarray:
    """phi[:, :, a, b] = A_a Psi B_b^T, on axes (sys_A, sys_B, anc_A, anc_B)."""
    t = local_product(psi.reshaped(), measurements.alice.stack, measurements.bob.stack)
    return t.transpose(2, 3, 0, 1)


def build_dilation(psi: PureState, measurements: LocalMeasurementSet) -> PureState:
    """Attach one ancilla per party and entangle it with the local outcomes.

    The result lives on (sys_A, sys_B, anc_A, anc_B), in that order, and the
    completeness of both sets makes it normalized.
    """
    if len(psi.dims) != 2:
        raise ValidationError("dilation-state", f"need a bipartite state, got dims {psi.dims}")
    if psi.dims != (measurements.alice.dim, measurements.bob.dim):
        raise ValidationError(
            "dilation-dims",
            f"state dims {psi.dims} do not match measurement dims "
            f"({measurements.alice.dim}, {measurements.bob.dim})",
        )
    measurements.alice.assert_complete(DEFAULT_TOL)
    measurements.bob.assert_complete(DEFAULT_TOL)
    phi = _dilation_tensor(psi, measurements)
    n_a, n_b = measurements.structure
    return PureState((psi.dims[0], psi.dims[1], n_a, n_b), phi.reshape(-1))


_PARTY_AXES = {"A": (0, 2), "B": (1, 3)}


def _to_party_layout(phi: np.ndarray, party: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """View the tensor as (sys, anc, rest...) for the given party."""
    sys_axis, anc_axis = _PARTY_AXES[party]
    rest = tuple(ax for ax in range(4) if ax not in (sys_axis, anc_axis))
    perm = (sys_axis, anc_axis, *rest)
    return np.transpose(phi, perm), perm


def _blocks_from_tensor(phi: np.ndarray, party: str) -> tuple[np.ndarray, ...]:
    t, _ = _to_party_layout(phi, party)
    return tuple(
        np.einsum("ixy,jxy->ij", t[:, m], t[:, m].conj()) for m in range(t.shape[1])
    )


def conditional_blocks(state: PureState, party: str) -> tuple[np.ndarray, ...]:
    """Unnormalized system blocks conditioned on the party's ancilla label.

    Block ``m`` is the partial state of the party's system appearing next to
    ancilla basis vector ``m`` after tracing everything else out. The block
    traces sum to 1 and each block is positive semidefinite.
    """
    if party not in _PARTY_AXES:
        raise ValidationError("party", f"party must be 'A' or 'B', got {party!r}")
    if len(state.dims) != 4:
        raise ValidationError(
            "dilation-shape", f"need a (sys_A, sys_B, anc_A, anc_B) state, got dims {state.dims}"
        )
    return _blocks_from_tensor(state.reshaped(), party)


# ---------------------------------------------------------------------------
# Fourier measurement step


@dataclasses.dataclass(frozen=True)
class FourierStep:
    """Fourier-rotated eigenbases of a family of conditional blocks.

    ``vectors[m]`` has the rotated basis as columns: column ``j`` is the
    direction the party projects onto for outcome ``j`` when the ancilla
    reads ``m``. ``outcome_totals[j]`` is the total probability of outcome
    ``j`` across ancilla labels, which the construction predicts to be
    ``1/dim`` for every ``j``; ``max_deviation`` measures how far the
    prediction is off (reported, never raised).
    """

    vectors: tuple[np.ndarray, ...]
    eigenvalues: tuple[np.ndarray, ...]
    eigenbases: tuple[np.ndarray, ...]
    outcome_totals: np.ndarray
    max_deviation: float
    uniform: bool
    degenerate: bool

    @property
    def dim(self) -> int:
        return self.vectors[0].shape[0]

    def projector(self, m: int, j: int) -> np.ndarray:
        w = self.vectors[m][:, j]
        return np.outer(w, w.conj())


def fourier_step(blocks: tuple[np.ndarray, ...] | list[np.ndarray], tol: float = DEFAULT_TOL) -> FourierStep:
    """Eigendecompose each block and Fourier-transform its eigenbasis.

    Verifies that every Fourier outcome carries total probability ``1/dim``.
    A deviation beyond ``tol`` is recorded as a diagnostic rather than raised,
    since it would falsify the uniformity prediction, not the computation.
    """
    blocks = tuple(np.asarray(b, dtype=complex) for b in blocks)
    dim = blocks[0].shape[0]
    fmat = fourier_matrix(dim)
    vectors, eigvals, eigvecs = [], [], []
    degenerate = False
    for blk in blocks:
        w, v = eig_hermitian(blk, tol=1e-8)
        if dim > 1 and float(np.min(np.abs(np.diff(w)))) < DEGENERACY_TOL:
            degenerate = True
        eigvals.append(w)
        eigvecs.append(v)
        vectors.append(v @ fmat.T)
    totals = np.zeros(dim)
    for blk, omega in zip(blocks, vectors):
        for j in range(dim):
            w = omega[:, j]
            totals[j] += float(np.real(np.vdot(w, blk @ w)))
    max_dev = float(np.max(np.abs(totals - 1.0 / dim)))
    return FourierStep(
        vectors=tuple(vectors),
        eigenvalues=tuple(eigvals),
        eigenbases=tuple(eigvecs),
        outcome_totals=totals,
        max_deviation=max_dev,
        uniform=max_dev <= tol,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# the construction itself


def _unitary_sending_to_e0(vec: np.ndarray) -> np.ndarray:
    """A unitary U with U vec = e0 exactly (up to rounding)."""
    d = vec.size
    drop = int(np.argmax(np.abs(vec)))
    cols = [vec] + [np.eye(d, dtype=complex)[:, i] for i in range(d) if i != drop]
    q, r = np.linalg.qr(np.column_stack(cols))
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return q.conj().T


@dataclasses.dataclass(frozen=True)
class PartyStep:
    """Record of one party's measure-and-reset move."""

    party: str
    blocks: tuple[np.ndarray, ...]
    fourier: FourierStep
    outcome: int
    probability: float
    conditional_unitaries: tuple[np.ndarray, ...]
    skipped_branches: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class LoccTrace:
    """Full record of one run of the construction.

    ``final_state`` and ``branch_ancilla`` belong to the requested outcome
    branch; ``ancilla_dm`` is the deterministic output of the whole
    procedure, i.e. the ancilla state averaged over both parties' Fourier
    outcomes, whose diagonal matches the squared measurement-space
    amplitudes by construction. ``fidelity`` compares the branch's pure
    ancilla candidate with the measurement-space image and is informational.
    """

    dilated: PureState
    alice: PartyStep
    bob: PartyStep
    final_state: PureState
    mspace: MeasurementSpaceState
    branch_ancilla: np.ndarray
    fidelity: float
    ancilla_dm: DensityMatrix
    ancilla_diagonal: np.ndarray
    diagonal_deviation: float
    branch_diagonal_deviation: float
    degenerate: bool


def _project_party(phi: np.ndarray, party: str, vectors: tuple[np.ndarray, ...], j: int) -> np.ndarray:
    """Project the party's system onto its outcome-j vector in each ancilla sector."""
    t, perm = _to_party_layout(phi, party)
    out = np.zeros_like(t)
    for m in range(t.shape[1]):
        w = vectors[m][:, j]
        coef = np.einsum("i,ixy->xy", w.conj(), t[:, m])
        out[:, m] = np.einsum("i,xy->ixy", w, coef)
    return np.transpose(out, np.argsort(perm))


def _apply_conditional(phi: np.ndarray, party: str, unitaries: tuple[np.ndarray, ...]) -> np.ndarray:
    t, perm = _to_party_layout(phi, party)
    t = t.copy()
    for m in range(t.shape[1]):
        t[:, m] = np.einsum("ij,jxy->ixy", unitaries[m], t[:, m])
    return np.transpose(t, np.argsort(perm))


def _party_move(
    phi: np.ndarray, party: str, j: int, tol: float
) -> tuple[np.ndarray, PartyStep]:
    """One party's full move: block analysis, projection on outcome j,
    normalization, and the conditional reset to |0>. Returns the new tensor
    and the step record."""
    blocks = _blocks_from_tensor(phi, party)
    fs = fourier_step(blocks, tol)
    projected = _project_party(phi, party, fs.vectors, j)
    prob = float(np.real(np.vdot(projected, projected)))
    if prob <= 0.0:
        raise ValidationError("locc-branch", f"outcome {j} for party {party} has zero probability")
    projected /= math.sqrt(prob)
    unitaries = []
    skipped = []
    for m, blk in enumerate(blocks):
        if float(np.real(np.trace(blk))) < ZERO_BRANCH_TOL:
            unitaries.append(np.eye(fs.dim, dtype=complex))
            skipped.append(m)
        else:
            unitaries.append(_unitary_sending_to_e0(fs.vectors[m][:, j]))
    reset = _apply_conditional(projected, party, tuple(unitaries))
    step = PartyStep(
        party=party,
        blocks=blocks,
        fourier=fs,
        outcome=int(j),
        probability=prob,
        conditional_unitaries=tuple(unitaries),
        skipped_branches=tuple(skipped),
    )
    return reset, step


def run_locc_construction(
    psi: PureState,
    measurements: LocalMeasurementSet,
    outcome_a: int = 0,
    outcome_b: int = 0,
    tol: float = DEFAULT_TOL,
) -> LoccTrace:
    """Run the two-party construction and audit its bookkeeping.

    Alice projects onto her Fourier-rotated eigenvectors (outcome
    ``outcome_a``) and resets her system; Bob repeats the move on the
    post-Alice state with ``outcome_b``. Alongside the requested branch, all
    outcome branches are accumulated into the procedure's deterministic
    ancilla output so its diagonal can be checked against the squared
    measurement-space amplitudes.
    """
    dilated = build_dilation(psi, measurements)
    d_a, d_b, n_a, n_b = dilated.dims
    if not 0 <= outcome_a < d_a or not 0 <= outcome_b < d_b:
        raise ValidationError(
            "locc-outcome",
            f"outcome choice ({outcome_a}, {outcome_b}) out of range ({d_a}, {d_b})",
        )
    image = map_to_measurement_space(psi, measurements)

    phi0 = dilated.reshaped()
    requested: tuple[np.ndarray, PartyStep, PartyStep] | None = None
    ancilla_acc = np.zeros((n_a * n_b, n_a * n_b), dtype=complex)
    for j_a in range(d_a):
        phi_a, step_a = _party_move(phi0, "A", j_a, tol)
        for j_b in range(d_b):
            phi_b, step_b = _party_move(phi_a, "B", j_b, tol)
            weight = step_a.probability * step_b.probability
            anc = phi_b[0, 0, :, :].reshape(-1)
            ancilla_acc += weight * np.outer(anc, anc.conj())
            if j_a == outcome_a and j_b == outcome_b:
                requested = (phi_b, step_a, step_b)
    assert requested is not None
    phi_final, alice_step, bob_step = requested

    final_state = PureState((d_a, d_b, n_a, n_b), phi_final.reshape(-1))
    branch_anc = phi_final[0, 0, :, :].reshape(-1)
    leak = 1.0 - float(np.real(np.vdot(branch_anc, branch_anc)))
    if leak > 1e-9:
        raise ValidationError(
            "locc-reset", f"systems hold weight {leak!r} outside |0>|0> after the resets"
        )
    fidelity = float(abs(np.vdot(image.amplitudes.astype(complex), branch_anc)) ** 2)

    ancilla_dm = DensityMatrix((n_a, n_b), ancilla_acc)
    diag = np.real(np.diag(ancilla_acc)).copy()
    target = image.probabilities()
    diagonal_deviation = float(np.max(np.abs(diag - target)))
    branch_dev = float(np.max(np.abs(np.abs(branch_anc) ** 2 - target)))

    return LoccTrace(
        dilated=dilated,
        alice=alice_step,
        bob=bob_step,
        final_state=final_state,
        mspace=image,
        branch_ancilla=branch_anc,
        fidelity=fidelity,
        ancilla_dm=ancilla_dm,
        ancilla_diagonal=diag,
        diagonal_deviation=diagonal_deviation,
        branch_diagonal_deviation=branch_dev,
        degenerate=alice_step.fourier.degenerate or bob_step.fourier.degenerate,
    )


# ---------------------------------------------------------------------------
# channels and concurrence factorization


@dataclasses.dataclass(frozen=True)
class Channel:
    """Trace-preserving quantum channel in Kraus form."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        object.__setattr__(self, "kraus", ops)
        if not ops:
            raise ValidationError("channel-empty", "a channel needs >= 1 Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ValidationError("channel-shape", f"Kraus operators must all be {d}x{d}")
        acc = sum(k.conj().T @ k for k in ops)
        dev = float(np.max(np.abs(acc - np.eye(d))))
        if dev > DEFAULT_TOL:
            raise ValidationError(
                "channel-trace-preserving", f"sum K^dag K deviates from 1 by {dev!r}"
            )

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out


def identity_channel(dim: int = 2) -> Channel:
    return Channel((np.eye(dim, dtype=complex),))


def depolarizing_channel(p: float) -> Channel:
    """Qubit depolarizing channel; p = 1 sends everything to 1/2."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError("channel-parameter", f"p must lie in [0, 1], got {p!r}")
    eye = np.eye(2, dtype=complex)
    return Channel(
        (
            math.sqrt(1.0 - 3.0 * p / 4.0) * eye,
            math.sqrt(p / 4.0) * PAULI_X,
            math.sqrt(p / 4.0) * PAULI_Y,
            math.sqrt(p / 4.0) * PAULI_Z,
        )
    )


def random_channel(dim: int, n_kraus: int, seed: int | np.random.Generator) -> Channel:
    """Random trace-preserving channel from a Haar block column."""
    rng = _as_rng(seed)
    u = haar_unitary(n_kraus * dim, rng)
    return Channel(tuple(u[i * dim : (i + 1) * dim, :dim] for i in range(n_kraus)))


def _one_sided(channel: Channel, rho: np.ndarray, side: str) -> np.ndarray:
    eye = np.eye(2, dtype=complex)
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for k in channel.kraus:
        big = tensor(k, eye) if side == "left" else tensor(eye, k)
        out += big @ rho @ big.conj().T
    return out


@dataclasses.dataclass(frozen=True)
class FactorizationReport:
    lhs: float
    rhs: float
    residual: float


def konrad_single_sided_check(psi: PureState, channel: Channel) -> FactorizationReport:
    """Check C((L x 1) psi) = C((L x 1) phi+) * C(psi) for a qubit channel.

    Both sides are computed independently; the report carries their values
    and the absolute residual.
    """
    if psi.dims != (2, 2):
        raise ValidationError("konrad-state", f"need a two-qubit state, got dims {psi.dims}")
    if channel.dim != 2:
        raise ValidationError("konrad-channel", f"need a qubit channel, got dim {channel.dim}")
    rho = psi.density().matrix
    bell = bell_phi_plus().density().matrix
    lhs = concurrence_mixed(DensityMatrix((2, 2), _one_sided(channel, rho, "left")))
    factor = concurrence_mixed(DensityMatrix((2, 2), _one_sided(channel, bell, "left")))
    rhs = factor * concurrence_pure(psi)
    return FactorizationReport(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))


@dataclasses.dataclass(frozen=True)
class TwoSidedReport:
    lhs: float
    bound: float
    slack: float
    holds: bool


def konrad_two_sided_check(
    psi: PureState, channel_a: Channel, channel_b: Channel, tol: float = 1e-8
) -> TwoSidedReport:
    """Check C((L_A x L_B) psi) <= C((L_A x 1) phi+) C((1 x L_B) phi+) C(psi)."""
    if psi.dims != (2, 2):
        raise ValidationError("konrad-state", f"need a two-qubit state, got dims {psi.dims}")
    if channel_a.dim != 2 or channel_b.dim != 2:
        raise ValidationError("konrad-channel", "both channels must act on qubits")
    rho = psi.density().matrix
    bell = bell_phi_plus().density().matrix
    lhs = concurrence_mixed(
        DensityMatrix((2, 2), _one_sided(channel_b, _one_sided(channel_a, rho, "left"), "right"))
    )
    bound = (
        concurrence_mixed(DensityMatrix((2, 2), _one_sided(channel_a, bell, "left")))
        * concurrence_mixed(DensityMatrix((2, 2), _one_sided(channel_b, bell, "right")))
        * concurrence_pure(psi)
    )
    return TwoSidedReport(lhs=lhs, bound=bound, slack=bound - lhs, holds=lhs <= bound + tol)
