"""Protocol success accounting on both sides of the measurement-space map."""

import numpy as np
import pytest

from mspace.linalg import PureState, ValidationError, bell_phi_plus, tensor
from mspace.measurement import noisy_pair, z_projectors
from mspace.protocols import (
    ProtocolBatch,
    ProtocolSpec,
    outcome_table,
    random_protocol,
    random_protocols,
    success_probability_mspace,
    success_probability_original,
)

I2 = np.eye(2, dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def correlated_verify():
    """Bob succeeds when his projector matches Alice's outcome label."""
    return ((P0, P1), (P1, P0))


def bell_z_protocol():
    return ProtocolSpec(bell_phi_plus(), z_projectors(2), (I2, I2), correlated_verify())


def noisy_alice_protocol(eta=0.9):
    return ProtocolSpec(bell_phi_plus(), noisy_pair(eta), (I2, I2), correlated_verify())


def always_succeed_protocol():
    zero = np.zeros((2, 2), dtype=complex)
    return ProtocolSpec(bell_phi_plus(), z_projectors(2), (I2, I2), ((I2, zero), (I2, zero)))


def joint_expectation_oracle(psi, m_alice, m_bob):
    op = tensor(m_alice.conj().T @ m_alice, m_bob.conj().T @ m_bob)
    return float(np.real(np.vdot(psi.vector, op @ psi.vector)))


class TestOutcomeTable:
    def test_perfect_correlated(self):
        table = outcome_table(bell_z_protocol())
        np.testing.assert_allclose(table.p_success, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(table.p_failure, [0.0, 0.0], atol=1e-12)

    def test_noisy_alice(self):
        spec = noisy_alice_protocol(0.9)
        table = outcome_table(spec)
        expected_y = [
            joint_expectation_oracle(spec.state, m, v)
            for m, (v, _) in zip(spec.alice.matrices, spec.verify_pairs)
        ]
        np.testing.assert_allclose(table.p_success, expected_y, atol=1e-12)
        np.testing.assert_allclose(table.p_success, [0.45, 0.45], atol=1e-12)
        np.testing.assert_allclose(table.p_failure, [0.05, 0.05], atol=1e-12)

    def test_always_succeed(self):
        table = outcome_table(always_succeed_protocol())
        np.testing.assert_allclose(table.p_failure, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(table.p_success, [0.5, 0.5], atol=1e-12)

    def test_bob_unitary_is_folded_in(self):
        # a bit flip on Bob swaps which verify projector fires
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        spec = ProtocolSpec(bell_phi_plus(), z_projectors(2), (flip, flip), correlated_verify())
        table = outcome_table(spec)
        np.testing.assert_allclose(table.p_success, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(table.p_failure, [0.5, 0.5], atol=1e-12)


class TestSuccessProbability:
    def test_always_succeed_is_one(self):
        assert abs(success_probability_original(always_succeed_protocol()) - 1.0) < 1e-12
        assert abs(success_probability_mspace(always_succeed_protocol()) - 1.0) < 1e-12

    def test_perfect_correlated_is_one(self):
        assert abs(success_probability_original(bell_z_protocol()) - 1.0) < 1e-12

    def test_noisy_alice_point_nine(self):
        spec = noisy_alice_protocol(0.9)
        p_orig = success_probability_original(spec)
        p_ms = success_probability_mspace(spec)
        assert abs(p_orig - 0.90) < 1e-12
        assert abs(p_ms - 0.90) < 1e-12

    def test_equivalence_on_random_protocols(self):
        for t in range(30):
            rng = np.random.default_rng((202, t))
            d_a = int(rng.integers(2, 5))
            d_b = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            spec = random_protocol(d_a, d_b, n, rng)
            delta = abs(success_probability_original(spec) - success_probability_mspace(spec))
            assert delta < 1e-10


class TestProtocolValidation:
    def test_incomplete_alice_rejected(self):
        from mspace.measurement import MeasurementSet

        lonely = MeasurementSet(2, (("0", P0),))
        with pytest.raises(ValidationError, match="completeness"):
            ProtocolSpec(bell_phi_plus(), lonely, (I2,), ((I2, np.zeros((2, 2))),))

    def test_non_unitary_bob_rejected(self):
        bad = np.diag([1.0, 0.5]).astype(complex)
        with pytest.raises(ValidationError, match="unitary"):
            ProtocolSpec(bell_phi_plus(), z_projectors(2), (bad, I2), correlated_verify())

    def test_verify_pair_must_exhaust_outcomes(self):
        with pytest.raises(ValidationError, match="verify"):
            ProtocolSpec(bell_phi_plus(), z_projectors(2), (I2, I2), ((P0, P0), (P1, P0)))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="arity"):
            ProtocolSpec(bell_phi_plus(), z_projectors(2), (I2,), correlated_verify())

    def test_state_must_be_bipartite(self):
        flat = PureState((4,), np.array([1.0, 0, 0, 0]))
        with pytest.raises(ValidationError, match="protocol-state"):
            ProtocolSpec(flat, z_projectors(2), (I2, I2), correlated_verify())

    def test_random_protocol_satisfies_invariants(self):
        spec = random_protocol(3, 4, 3, 99)
        assert spec.state.dims == (3, 4)
        assert spec.alice.completeness_deviation() < 1e-12
        eye = np.eye(4)
        for u in spec.bob_unitaries:
            np.testing.assert_allclose(u.conj().T @ u, eye, atol=1e-12)
        for m_y, m_n in spec.verify_pairs:
            np.testing.assert_allclose(
                m_y.conj().T @ m_y + m_n.conj().T @ m_n, eye, atol=1e-12
            )
        table = outcome_table(spec)
        assert abs(table.p_success.sum() + table.p_failure.sum() - 1.0) < 1e-10


class TestProtocolStacks:
    def test_operators_are_read_only_stacks(self):
        spec = random_protocol(2, 3, 4, 5)
        assert spec.bob_unitaries.shape == (4, 3, 3)
        assert spec.verify_pairs.shape == (4, 2, 3, 3)
        assert not spec.bob_unitaries.flags.writeable
        assert not spec.verify_pairs.flags.writeable

    def test_effective_ops_fold_in_the_unitary(self):
        spec = random_protocol(2, 3, 4, 6)
        eff = spec.effective_ops()
        for k, ((m_y, m_n), u) in enumerate(zip(spec.verify_pairs, spec.bob_unitaries)):
            np.testing.assert_allclose(eff[k], [m_y @ u, m_n @ u], atol=1e-14)

    def test_ragged_bob_unitaries_name_the_operator(self):
        with pytest.raises(ValidationError, match="protocol-unitary: Bob operator 1 "):
            ProtocolSpec(bell_phi_plus(), z_projectors(2), (I2, np.eye(3)), correlated_verify())

    def test_ragged_verify_pair_names_the_pair(self):
        verify = ((P0, P1), (P1, np.eye(3)))
        with pytest.raises(ValidationError, match="protocol-verify-shape: verify pair 1 "):
            ProtocolSpec(bell_phi_plus(), z_projectors(2), (I2, I2), verify)

    def test_first_failing_unitary_is_named(self):
        bad = np.diag([1.0, 0.5]).astype(complex)
        with pytest.raises(ValidationError, match="Bob operator 1 "):
            ProtocolSpec(bell_phi_plus(), z_projectors(2), (I2, bad), correlated_verify())

    def test_first_incomplete_verify_pair_is_named(self):
        with pytest.raises(ValidationError, match="protocol-verify-completeness: verify pair 1 "):
            ProtocolSpec(bell_phi_plus(), z_projectors(2), (I2, I2), ((P0, P1), (P1, P1)))

    def test_nan_outcome_total_rejected(self):
        from mspace.protocols import OutcomeTable

        with pytest.raises(ValidationError, match="outcome-total"):
            OutcomeTable(("0",), [np.nan], [0.5])


class TestProtocolBatch:
    TRIALS = range(10, 16)

    def arrays(self):
        rngs = [np.random.default_rng((5, t)) for t in self.TRIALS]
        batch = random_protocols(2, 3, 3, rngs, self.TRIALS)
        return [a.copy() for a in (batch.psi, batch.alice, batch.bob_unitaries, batch.verify_pairs)]

    def test_non_unitary_bob_operator_names_its_trial(self):
        psi, alice, bob, verify = self.arrays()
        bob[3, 1] *= 0.5
        with pytest.raises(ValidationError, match="protocol-unitary: trial 13: Bob operator 1 "):
            ProtocolBatch(psi, alice, bob, verify, self.TRIALS)

    def test_incomplete_verify_pair_names_its_trial(self):
        psi, alice, bob, verify = self.arrays()
        verify[4, 2, 0] *= 0.5
        with pytest.raises(
            ValidationError, match="protocol-verify-completeness: trial 14: verify pair 2 "
        ):
            ProtocolBatch(psi, alice, bob, verify, self.TRIALS)

    def test_inconsistent_shapes_rejected(self):
        psi, alice, bob, verify = self.arrays()
        with pytest.raises(ValidationError, match="protocol-batch-shape"):
            ProtocolBatch(psi[:, :, :2], alice, bob, verify, self.TRIALS)
        with pytest.raises(ValidationError, match="protocol-batch-shape"):
            ProtocolBatch(psi, alice, bob, verify, range(3))

    def test_batch_of_one_names_no_trial(self):
        spec = random_protocol(2, 3, 3, 8)
        bob = spec.bob_unitaries.copy()
        bob[2] *= 0.5
        with pytest.raises(ValidationError, match=r"^protocol-unitary: Bob operator 2 "):
            ProtocolSpec(spec.state, spec.alice, bob, spec.verify_pairs)
