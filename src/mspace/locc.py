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
    frozen,
    haar_unitary,
    operator_stack,
)
from .measurement import (
    LocalMeasurementSet,
    MeasurementSpaceState,
    _gram,
    _identity_deviation,
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


# each party's view of the (sys_A, sys_B, anc_A, anc_B) tensor: (sys, anc, other sys, other anc)
_PARTY_LAYOUT = {"A": (0, 2, 1, 3), "B": (1, 3, 0, 2)}


def _party_blocks(t: np.ndarray) -> np.ndarray:
    """Blocks of a tensor in party layout: block m = sum_xy t[:, m, x, y] t[:, m, x, y]^dag."""
    return frozen(np.einsum("imxy,jmxy->mij", t, t.conj()))


def conditional_blocks(state: PureState, party: str) -> np.ndarray:
    """Unnormalized system blocks conditioned on the party's ancilla label.

    The blocks come as one ``(n, d, d)`` array. Block ``m`` is the partial
    state of the party's system appearing next to ancilla basis vector ``m``
    after tracing everything else out. The block traces sum to 1 and each
    block is positive semidefinite.
    """
    if party not in _PARTY_LAYOUT:
        raise ValidationError("party", f"party must be 'A' or 'B', got {party!r}")
    if len(state.dims) != 4:
        raise ValidationError(
            "dilation-shape", f"need a (sys_A, sys_B, anc_A, anc_B) state, got dims {state.dims}"
        )
    return _party_blocks(state.reshaped().transpose(_PARTY_LAYOUT[party]))


# ---------------------------------------------------------------------------
# Fourier measurement step


@dataclasses.dataclass(frozen=True)
class FourierStep:
    """Fourier-rotated eigenbases of a stack of conditional blocks.

    The arrays are indexed by block first. ``vectors[m]`` has the rotated
    basis as columns: column ``j`` is the direction the party projects onto
    for outcome ``j`` when the ancilla reads ``m``. ``outcome_totals[j]`` is
    the total probability of outcome ``j`` across ancilla labels, which the
    construction predicts to be ``1/dim`` for every ``j``; ``max_deviation``
    measures how far the prediction is off (reported, never raised).
    """

    vectors: np.ndarray
    eigenvalues: np.ndarray
    eigenbases: np.ndarray
    outcome_totals: np.ndarray
    max_deviation: float
    uniform: bool
    degenerate: bool


def fourier_step(blocks: np.ndarray, tol: float = DEFAULT_TOL) -> FourierStep:
    """Eigendecompose each block of an ``(n, d, d)`` stack and Fourier-transform its eigenbasis.

    Verifies that every Fourier outcome carries total probability ``1/dim``.
    A deviation beyond ``tol`` is recorded as a diagnostic rather than raised,
    since it would falsify the uniformity prediction, not the computation.
    """
    blocks = np.asarray(blocks, dtype=complex)
    dim = blocks.shape[-1]
    eigvals, eigvecs = eig_hermitian(blocks, tol=1e-8)
    vectors = eigvecs @ fourier_matrix(dim).T
    # totals[j] = sum_m <omega_mj| block_m |omega_mj>
    totals = np.einsum("mij,mij->j", vectors.conj(), blocks @ vectors).real
    max_dev = float(np.max(np.abs(totals - 1.0 / dim)))
    return FourierStep(
        vectors=frozen(vectors),
        eigenvalues=frozen(eigvals),
        eigenbases=frozen(eigvecs),
        outcome_totals=totals,
        max_deviation=max_dev,
        uniform=max_dev <= tol,
        degenerate=dim > 1 and float(np.min(np.abs(np.diff(eigvals, axis=-1)))) < DEGENERACY_TOL,
    )


# ---------------------------------------------------------------------------
# the construction itself


@dataclasses.dataclass(frozen=True)
class PartyStep:
    """Record of one party's measure-and-reset move."""

    party: str
    blocks: np.ndarray
    fourier: FourierStep
    outcome: int
    probability: float
    conditional_unitaries: np.ndarray
    skipped_branches: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class BranchRow:
    """Audit values of one (j_a, j_b) outcome branch."""

    outcome_a: int
    outcome_b: int
    bob_uniformity_deviation: float
    degenerate: bool
    branch_diagonal_deviation: float
    fidelity: float


@dataclasses.dataclass(frozen=True)
class LoccTrace:
    """Full record of one run of the construction.

    ``branches`` has one row per outcome branch (j_a, j_b), in grid order.
    ``alice``, ``bob``, ``final_state``, ``branch_ancilla``, ``fidelity`` and
    ``branch_diagonal_deviation`` belong to the requested branch;
    ``ancilla_dm`` is the deterministic output of the whole procedure, i.e.
    the ancilla state averaged over both parties' Fourier outcomes, whose
    diagonal matches the squared measurement-space amplitudes by
    construction. ``fidelity`` compares the branch's pure ancilla candidate
    with the measurement-space image and is informational.
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
    branches: tuple[BranchRow, ...]


def _measure_party(
    t: np.ndarray, party: str, tol: float
) -> tuple[np.ndarray, tuple[PartyStep, ...]]:
    """One party's move for all of its outcomes at once.

    ``t`` is the state in party layout. Returns the normalized post-reset
    states, stacked as ``[j]`` in the same layout, and the step record of
    each outcome ``j``. The reset for outcome ``j`` in sector ``m`` is
    ``Omega_m^dag`` with rows 0 and ``j`` swapped: the columns of the unitary
    ``Omega_m`` are the Fourier vectors, so it sends ``omega_j`` to ``e0``.
    Sectors of zero weight keep the identity.
    """
    d = t.shape[0]
    blocks = _party_blocks(t)
    fs = fourier_step(blocks, tol)
    omega = fs.vectors  # [m, i, j]: column j is omega_j in sector m
    coef = np.einsum("mij,imxy->jmxy", omega.conj(), t)
    probs = np.einsum("jmxy,jmxy->j", coef, coef.conj()).real
    zero = np.flatnonzero(probs <= 0.0)
    if zero.size:
        raise ValidationError(
            "locc-branch", f"outcome {zero[0]} for party {party} has zero probability"
        )
    swaps = np.tile(np.arange(d), (d, 1))
    swaps[:, 0], swaps[range(d), range(d)] = np.arange(d), 0
    unitaries = omega.conj().transpose(0, 2, 1)[:, swaps].transpose(1, 0, 2, 3)  # [j, m]
    skipped = tuple(np.flatnonzero(np.einsum("mii->m", blocks).real < ZERO_BRANCH_TOL).tolist())
    unitaries[:, list(skipped)] = np.eye(d)
    frozen(unitaries)
    reset = np.einsum("jmai,mij->jma", unitaries, omega)  # U_jm omega_j, close to e0
    states = np.einsum("jma,jmxy->jamxy", reset, coef) / np.sqrt(probs)[:, None, None, None, None]
    steps = tuple(
        PartyStep(party, blocks, fs, j, float(probs[j]), unitaries[j], skipped)
        for j in range(d)
    )
    return states, steps


def run_locc_construction(
    psi: PureState,
    measurements: LocalMeasurementSet,
    outcome_a: int = 0,
    outcome_b: int = 0,
    tol: float = DEFAULT_TOL,
) -> LoccTrace:
    """Run the two-party construction and audit its bookkeeping.

    Alice projects onto her Fourier-rotated eigenvectors and resets her
    system; Bob repeats the move on each post-Alice state. One pass covers
    every outcome branch: all of them are tabulated in ``branches`` and
    accumulated into the procedure's deterministic ancilla output, whose
    diagonal is checked against the squared measurement-space amplitudes.
    The requested branch (``outcome_a``, ``outcome_b``) is also reported in
    full.
    """
    dilated = build_dilation(psi, measurements)
    d_a, d_b, n_a, n_b = dilated.dims
    if not 0 <= outcome_a < d_a or not 0 <= outcome_b < d_b:
        raise ValidationError(
            "locc-outcome",
            f"outcome choice ({outcome_a}, {outcome_b}) out of range ({d_a}, {d_b})",
        )
    image = map_to_measurement_space(psi, measurements)

    phi = dilated.reshaped().transpose(_PARTY_LAYOUT["A"])
    after_alice, alice_steps = _measure_party(phi, "A", tol)
    # Alice's layout turns into Bob's by swapping its two axis pairs
    bob_states, bob_steps = zip(
        *(_measure_party(s.transpose(2, 3, 0, 1), "B", tol) for s in after_alice)
    )
    # row j_a * d_b + j_b: the branch's (anc_A, anc_B) part next to |0>|0>
    flat = np.stack([s[:, 0, :, 0, :].transpose(0, 2, 1) for s in bob_states])
    flat = flat.reshape(d_a * d_b, n_a * n_b)
    for leak in 1.0 - np.sum(np.abs(flat) ** 2, axis=1):
        if leak > 1e-9:
            raise ValidationError(
                "locc-reset", f"systems hold weight {float(leak)!r} outside |0>|0> after the resets"
            )
    weights = np.array(
        [a.probability * b.probability for a, steps in zip(alice_steps, bob_steps) for b in steps]
    )
    ancilla_acc = np.einsum("k,ki,kj->ij", weights, flat, flat.conj())
    target = image.probabilities()
    fidelities = np.abs(flat @ image.amplitudes) ** 2
    branch_devs = np.max(np.abs(np.abs(flat) ** 2 - target), axis=1)
    branches = tuple(
        BranchRow(
            outcome_a=j_a,
            outcome_b=j_b,
            bob_uniformity_deviation=bob_steps[j_a][0].fourier.max_deviation,
            degenerate=alice_steps[0].fourier.degenerate or bob_steps[j_a][0].fourier.degenerate,
            branch_diagonal_deviation=float(branch_devs[k]),
            fidelity=float(fidelities[k]),
        )
        for k, (j_a, j_b) in enumerate(np.ndindex(d_a, d_b))
    )
    k = outcome_a * d_b + outcome_b
    # Bob's layout (sys_B, anc_B, sys_A, anc_A) back to (sys_A, sys_B, anc_A, anc_B)
    final = bob_states[outcome_a][outcome_b].transpose(2, 0, 3, 1)
    diag = np.real(np.diag(ancilla_acc)).copy()
    return LoccTrace(
        dilated=dilated,
        alice=alice_steps[outcome_a],
        bob=bob_steps[outcome_a][outcome_b],
        final_state=PureState((d_a, d_b, n_a, n_b), final.reshape(-1)),
        mspace=image,
        branch_ancilla=flat[k],
        fidelity=branches[k].fidelity,
        ancilla_dm=DensityMatrix((n_a, n_b), ancilla_acc),
        ancilla_diagonal=diag,
        diagonal_deviation=float(np.max(np.abs(diag - target))),
        branch_diagonal_deviation=branches[k].branch_diagonal_deviation,
        degenerate=branches[k].degenerate,
        branches=branches,
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
            raise ValidationError(
                "channel-trace-preserving", f"sum K^dag K deviates from 1 by {dev!r}"
            )

    @property
    def dim(self) -> int:
        return self.kraus.shape[-1]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return np.einsum("kij,jl,kml->im", self.kraus, rho, self.kraus.conj())


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
    return Channel(u[:, :dim].reshape(n_kraus, dim, dim))


# the one-operator Kraus stack of the qubit identity channel, for the untouched side
_QUBIT_IDENTITY = identity_channel().kraus


def channel_output(psi: PureState, kraus_a: np.ndarray, kraus_b: np.ndarray) -> DensityMatrix:
    """(L_A x L_B)|psi><psi| for Kraus stacks ``kraus_a`` and ``kraus_b``.

    With ``T = local_product(Psi, K_A, K_B)`` the output is
    ``sum_ab vec(T_ab) vec(T_ab)^dag``, since ``vec(T_ab)`` is the vector
    ``(K_a (x) K_b)|psi>``.
    """
    t = local_product(psi.reshaped(), kraus_a, kraus_b).reshape(-1, psi.dim)
    return DensityMatrix(psi.dims, t.T @ t.conj())


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
    lhs = concurrence_mixed(channel_output(psi, channel.kraus, _QUBIT_IDENTITY))
    factor = concurrence_mixed(channel_output(bell_phi_plus(), channel.kraus, _QUBIT_IDENTITY))
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
    bell = bell_phi_plus()
    lhs = concurrence_mixed(channel_output(psi, channel_a.kraus, channel_b.kraus))
    bound = (
        concurrence_mixed(channel_output(bell, channel_a.kraus, _QUBIT_IDENTITY))
        * concurrence_mixed(channel_output(bell, _QUBIT_IDENTITY, channel_b.kraus))
        * concurrence_pure(psi)
    )
    return TwoSidedReport(lhs=lhs, bound=bound, slack=bound - lhs, holds=lhs <= bound + tol)
