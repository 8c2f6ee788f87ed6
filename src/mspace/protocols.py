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
    operator_stack,
    tensor,
)
from .measurement import (
    MeasurementSet,
    _gram,
    _identity_deviation,
    _local_probabilities,
    map_to_measurement_space,
    random_measurement_set,
)


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """One measure-communicate-correct-verify protocol instance.

    ``bob_unitaries`` is a read-only ``(n, d_b, d_b)`` stack, one unitary per
    Alice outcome. ``verify_pairs`` is a read-only ``(n, 2, d_b, d_b)``
    stack: ``verify_pairs[k]`` holds ``(M_yk, M_nk)`` with
    ``M_yk^dag M_yk + M_nk^dag M_nk = 1`` so that success and failure exhaust
    Bob's outcomes for every Alice result ``k``.
    """

    state: PureState
    alice: MeasurementSet
    bob_unitaries: np.ndarray
    verify_pairs: np.ndarray

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
        if len(self.bob_unitaries) != n or len(self.verify_pairs) != n:
            raise ValidationError(
                "protocol-arity",
                f"need one unitary and one verify pair per Alice outcome ({n})",
            )

        def not_unitary(k: int) -> str:
            return f"Bob operator {k} is not a {d_b}x{d_b} unitary"

        bob = operator_stack(self.bob_unitaries, (d_b, d_b), "protocol-unitary", not_unitary)
        object.__setattr__(self, "bob_unitaries", bob)
        # written so that a NaN deviation fails too
        bad = np.flatnonzero(~(_identity_deviation(_gram(bob[:, None])) <= DEFAULT_TOL))
        if bad.size:
            raise ValidationError("protocol-unitary", not_unitary(bad[0]))
        pairs = operator_stack(
            self.verify_pairs,
            (2, d_b, d_b),
            "protocol-verify-shape",
            lambda k: f"verify pair {k} must be {d_b}x{d_b}",
        )
        object.__setattr__(self, "verify_pairs", pairs)
        dev = _identity_deviation(_gram(pairs))
        bad = np.flatnonzero(~(dev <= DEFAULT_TOL))
        if bad.size:
            raise ValidationError(
                "protocol-verify-completeness",
                f"verify pair {bad[0]} deviates from completeness by {float(dev[bad[0]])!r}",
            )

    @property
    def n_outcomes(self) -> int:
        return len(self.alice)

    def effective_ops(self) -> np.ndarray:
        """Bob's unitary folded into each verify pair: ``[k] = (M_yk U_k, M_nk U_k)``."""
        return self.verify_pairs @ self.bob_unitaries[:, None]


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
        # written so that a NaN total fails too
        if not abs(total - 1.0) <= DEFAULT_TOL:
            raise ValidationError("outcome-total", f"probabilities sum to {total!r}, expected 1")


def outcome_table(spec: ProtocolSpec) -> OutcomeTable:
    """p_{k,y} = ||M_k Psi (M_yk U_k)^T||_F^2, likewise n.

    Bob's side is the stack of all effective success operators followed by
    all failure operators; outcome ``k`` reads its own pair off the kernel's
    ``(k, k)`` and ``(k, n + k)`` entries.
    """
    k = np.arange(spec.n_outcomes)
    bob = np.concatenate(spec.effective_ops().swapaxes(0, 1))
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
    for label, m_k, (s_k, f_k) in zip(spec.alice.labels, spec.alice.matrices, spec.effective_ops()):
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
    bob_unitaries = [haar_unitary(d_b, rng) for _ in range(n_outcomes)]
    verify = [random_measurement_set(d_b, 2, rng).stack for _ in range(n_outcomes)]
    return ProtocolSpec(state, alice, bob_unitaries, verify)
