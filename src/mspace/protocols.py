"""Measure-and-correct communication protocols and their success accounting.

A protocol holds a shared bipartite resource state, Alice's measurement set,
one unitary of Bob per Alice outcome, and per-outcome success/failure
verification operators on Bob's side. Success can be scored two ways: by
direct expectation values on the original state, or by first mapping the
state into measurement space and scoring with rank-1 projectors there. The
two routes agree identically, which is what makes measurement-space
amplitudes operationally meaningful.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    PureState,
    ValidationError,
    _as_rng,
    haar_state,
    haar_unitary,
    is_unitary,
    tensor,
)
from .measurement import (
    MeasurementSet,
    _local_probabilities,
    map_to_measurement_space,
    random_measurement_set,
)


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """One measure-communicate-correct-verify protocol instance.

    ``verify_pairs[k]`` holds ``(M_yk, M_nk)`` with
    ``M_yk^dag M_yk + M_nk^dag M_nk = 1`` so that success and failure exhaust
    Bob's outcomes for every Alice result ``k``.
    """

    state: PureState
    alice: MeasurementSet
    bob_unitaries: tuple[np.ndarray, ...]
    verify_pairs: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if len(self.state.dims) != 2:
            raise ValidationError(
                "protocol-state", f"need a bipartite state, got dims {self.state.dims}"
            )
        d_a, d_b = self.state.dims
        if self.alice.dim != d_a:
            raise ValidationError(
                "protocol-alice-dim",
                f"Alice set acts on dim {self.alice.dim}, state side is {d_a}",
            )
        self.alice.assert_complete(DEFAULT_TOL)
        n = len(self.alice)
        bob = tuple(np.asarray(u, dtype=complex) for u in self.bob_unitaries)
        pairs = tuple(
            (np.asarray(y, dtype=complex), np.asarray(f, dtype=complex))
            for y, f in self.verify_pairs
        )
        object.__setattr__(self, "bob_unitaries", bob)
        object.__setattr__(self, "verify_pairs", pairs)
        if len(bob) != n or len(pairs) != n:
            raise ValidationError(
                "protocol-arity",
                f"need one unitary and one verify pair per Alice outcome ({n})",
            )
        eye = np.eye(d_b)
        for k, u in enumerate(bob):
            if u.shape != (d_b, d_b) or not is_unitary(u, DEFAULT_TOL):
                raise ValidationError(
                    "protocol-unitary", f"Bob operator {k} is not a {d_b}x{d_b} unitary"
                )
        for k, (m_y, m_n) in enumerate(pairs):
            if m_y.shape != (d_b, d_b) or m_n.shape != (d_b, d_b):
                raise ValidationError(
                    "protocol-verify-shape", f"verify pair {k} must be {d_b}x{d_b}"
                )
            dev = float(
                np.max(np.abs(m_y.conj().T @ m_y + m_n.conj().T @ m_n - eye))
            )
            if not dev <= DEFAULT_TOL:
                raise ValidationError(
                    "protocol-verify-completeness",
                    f"verify pair {k} deviates from completeness by {dev!r}",
                )

    @property
    def n_outcomes(self) -> int:
        return len(self.alice)

    def effective_success_ops(self) -> tuple[np.ndarray, ...]:
        """Bob's unitary folded into each success operator: M_yk U_k."""
        return tuple(m_y @ u for (m_y, _), u in zip(self.verify_pairs, self.bob_unitaries))

    def effective_failure_ops(self) -> tuple[np.ndarray, ...]:
        return tuple(m_n @ u for (_, m_n), u in zip(self.verify_pairs, self.bob_unitaries))


@dataclasses.dataclass(frozen=True)
class OutcomeTable:
    """Joint distribution over (Alice outcome, success/failure)."""

    labels: tuple[str, ...]
    p_success: np.ndarray
    p_failure: np.ndarray

    def __post_init__(self):
        ps = np.asarray(self.p_success, dtype=float)
        pf = np.asarray(self.p_failure, dtype=float)
        object.__setattr__(self, "p_success", ps)
        object.__setattr__(self, "p_failure", pf)
        if ps.shape != pf.shape or ps.size != len(self.labels):
            raise ValidationError("outcome-shape", "per-outcome arrays are inconsistent")
        total = float(ps.sum() + pf.sum())
        if abs(total - 1.0) > DEFAULT_TOL:
            raise ValidationError("outcome-total", f"probabilities sum to {total!r}, expected 1")


def outcome_table(spec: ProtocolSpec) -> OutcomeTable:
    """p_{k,y} = ||M_k Psi (M_yk U_k)^T||_F^2, likewise n.

    Bob's side is the stack of all effective success operators followed by
    all failure operators; outcome ``k`` reads its own pair off the kernel's
    ``(k, k)`` and ``(k, n + k)`` entries.
    """
    k = np.arange(spec.n_outcomes)
    bob = np.stack(spec.effective_success_ops() + spec.effective_failure_ops())
    probs = _local_probabilities(spec.state.reshaped(), spec.alice.stack, bob)
    return OutcomeTable(spec.alice.labels, probs[k, k], probs[k, spec.n_outcomes + k])


def success_probability_original(spec: ProtocolSpec) -> float:
    """Overall success rate on the original state: sum_k p_{k,y}."""
    return float(outcome_table(spec).p_success.sum())


def success_probability_mspace(spec: ProtocolSpec) -> float:
    """Success rate recomputed entirely inside measurement space.

    Builds the joint set {M_k (x) M_yk U_k, M_k (x) M_nk U_k}, maps the state
    to its measurement-space image, and accumulates
    ``sum_k p(success | k) p(k)`` from rank-1 projections on that image.
    """
    ops = []
    for label, m_k, s_k, f_k in zip(
        spec.alice.labels,
        spec.alice.matrices,
        spec.effective_success_ops(),
        spec.effective_failure_ops(),
    ):
        ops.append((f"({label},y)", tensor(m_k, s_k)))
        ops.append((f"({label},n)", tensor(m_k, f_k)))
    joint = MeasurementSet(spec.state.dim, tuple(ops))
    image = map_to_measurement_space(spec.state, joint)
    probs = image.probabilities()
    total = 0.0
    for k in range(spec.n_outcomes):
        p_y, p_n = probs[2 * k], probs[2 * k + 1]
        p_k = p_y + p_n
        if p_k > 0.0:
            total += (p_y / p_k) * p_k
    return float(total)


def random_protocol(
    d_a: int, d_b: int, n_outcomes: int, seed: int | np.random.Generator
) -> ProtocolSpec:
    """Random protocol: Haar state, random complete sets, Haar unitaries."""
    rng = _as_rng(seed)
    state = haar_state((d_a, d_b), rng)
    alice = random_measurement_set(d_a, n_outcomes, rng)
    bob_unitaries = tuple(haar_unitary(d_b, rng) for _ in range(n_outcomes))
    verify = []
    for _ in range(n_outcomes):
        pair = random_measurement_set(d_b, 2, rng)
        verify.append((pair.matrices[0], pair.matrices[1]))
    return ProtocolSpec(state, alice, bob_unitaries, tuple(verify))
