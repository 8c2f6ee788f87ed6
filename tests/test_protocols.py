"""Protocol success accounting on both sides of the measurement-space map."""

import numpy as np
import pytest
from conftest import protocol_draws_reference

from mspace.linalg import (
    PureState,
    ValidationError,
    bell_phi_plus,
    haar_blocks,
    haar_unitaries,
    haar_vectors,
    tensor,
)
from mspace.measurement import MeasurementSet, map_to_measurement_space, noisy_pair, z_projectors
from mspace.protocols import (
    OutcomeTable,
    ProtocolSpec,
    outcome_tables,
    random_protocol_batches,
    random_protocols,
    single_protocol,
    success_rates_mspace,
    success_rates_original,
)

I2 = np.eye(2, dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def correlated_verify():
    """Bob succeeds when his projector matches Alice's outcome label."""
    return ((P0, P1), (P1, P0))


def bell_z_protocol():
    return single_protocol(bell_phi_plus(), z_projectors(2), (I2, I2), correlated_verify())


def noisy_alice_protocol(eta=0.9):
    return single_protocol(bell_phi_plus(), noisy_pair(eta), (I2, I2), correlated_verify())


def always_succeed_protocol():
    zero = np.zeros((2, 2), dtype=complex)
    return single_protocol(bell_phi_plus(), z_projectors(2), (I2, I2), ((I2, zero), (I2, zero)))


def random_protocol(d_a, d_b, n, seed):
    """One random protocol from a seed or a generator, a stack of one."""
    return random_protocols(d_a, d_b, n, [np.random.default_rng(seed)])


def rebuilt(spec):
    """The stack of one ``spec`` rebuilt from its parts through ``single_protocol``."""
    d_a, d_b = spec.psi.shape[1:]
    alice = MeasurementSet(d_a, tuple(map(str, range(len(spec.alice[0])))), spec.alice[0])
    state = PureState((d_a, d_b), spec.psi[0].reshape(-1))
    return single_protocol(state, alice, spec.bob_unitaries[0], spec.verify_pairs[0])


def joint_expectation_oracle(psi, m_alice, m_bob):
    op = tensor(m_alice.conj().T @ m_alice, m_bob.conj().T @ m_bob)
    return float(np.real(np.vdot(psi.vector, op @ psi.vector)))


class TestOutcomeTable:
    def test_perfect_correlated(self):
        table = outcome_tables(bell_z_protocol())
        np.testing.assert_allclose(table.p_success, [[0.5, 0.5]], atol=1e-12)
        np.testing.assert_allclose(table.p_failure, [[0.0, 0.0]], atol=1e-12)

    def test_noisy_alice(self):
        spec = noisy_alice_protocol(0.9)
        table = outcome_tables(spec)
        expected_y = [
            joint_expectation_oracle(bell_phi_plus(), m, v)
            for m, (v, _) in zip(noisy_pair(0.9).stack, spec.verify_pairs[0])
        ]
        np.testing.assert_allclose(table.p_success, [expected_y], atol=1e-12)
        np.testing.assert_allclose(table.p_success, [[0.45, 0.45]], atol=1e-12)
        np.testing.assert_allclose(table.p_failure, [[0.05, 0.05]], atol=1e-12)

    def test_always_succeed(self):
        table = outcome_tables(always_succeed_protocol())
        np.testing.assert_allclose(table.p_failure, [[0.0, 0.0]], atol=1e-14)
        np.testing.assert_allclose(table.p_success, [[0.5, 0.5]], atol=1e-12)

    def test_bob_unitary_is_folded_in(self):
        # a bit flip on Bob swaps which verify projector fires
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        spec = single_protocol(bell_phi_plus(), z_projectors(2), (flip, flip), correlated_verify())
        table = outcome_tables(spec)
        np.testing.assert_allclose(table.p_success, [[0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(table.p_failure, [[0.5, 0.5]], atol=1e-12)


class TestSuccessProbability:
    def test_always_succeed_is_one(self):
        assert abs(success_rates_original(always_succeed_protocol())[0] - 1.0) < 1e-12
        assert abs(success_rates_mspace(always_succeed_protocol())[0] - 1.0) < 1e-12

    def test_perfect_correlated_is_one(self):
        assert abs(success_rates_original(bell_z_protocol())[0] - 1.0) < 1e-12

    def test_noisy_alice_point_nine(self):
        spec = noisy_alice_protocol(0.9)
        p_orig = success_rates_original(spec)[0]
        p_ms = success_rates_mspace(spec)[0]
        assert abs(p_orig - 0.90) < 1e-12
        assert abs(p_ms - 0.90) < 1e-12

    def test_equivalence_on_random_protocols(self):
        for t in range(30):
            rng = np.random.default_rng((202, t))
            d_a = int(rng.integers(2, 5))
            d_b = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            spec = random_protocol(d_a, d_b, n, rng)
            delta = abs(success_rates_original(spec)[0] - success_rates_mspace(spec)[0])
            assert delta < 1e-10

    @pytest.mark.parametrize("d_a, d_b, n", [(1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 3, 4), (5, 5, 3)])
    def test_mspace_route_scores_the_map_image(self, d_a, d_b, n):
        # each trial's joint set, mapped as a whole-space set, gives the same bits
        spec = random_protocols(d_a, d_b, n, [np.random.default_rng((33, t)) for t in range(40)])
        dim, eff = d_a * d_b, spec.effective_ops
        for k, rate in enumerate(success_rates_mspace(spec)):
            ops = tensor(spec.alice[k][:, None], eff[k]).reshape(2 * n, dim, dim)
            joint = MeasurementSet(dim, tuple(map(str, range(2 * n))), ops)
            state = PureState((d_a, d_b), spec.psi[k].reshape(-1))
            probs = map_to_measurement_space(state, joint).probabilities().reshape(n, 2)
            total = 0.0
            for p_y, p_n in probs:
                p_k = p_y + p_n
                total += p_y / p_k * p_k if p_k > 0.0 else 0.0
            assert rate == total

    def test_joint_set_off_completeness_fails_the_map_check(self):
        # Alice's set and each verify pair miss completeness by 0.75e-10, inside the spec's 1e-10,
        # but their Kronecker products, the joint set the image route maps, miss by twice that
        spec = next(random_protocol_batches(2, 2, 2, 5, 3))
        scale = np.sqrt(1 + 0.75e-10)
        loose = ProtocolSpec(spec.psi, spec.alice * scale, spec.bob_unitaries, spec.verify_pairs * scale, spec.trials)
        with pytest.raises(ValidationError) as exc:
            success_rates_mspace(loose)
        expected = "completeness: trial 0: completeness deviation 1.5000023445566057e-10 exceeds tolerance 1e-10"
        assert str(exc.value) == expected


class TestProtocolValidation:
    def test_incomplete_alice_rejected(self):
        lonely = MeasurementSet(2, ("0",), [P0])
        with pytest.raises(ValidationError, match="completeness"):
            single_protocol(bell_phi_plus(), lonely, (I2,), ((I2, np.zeros((2, 2))),))

    def test_non_unitary_bob_rejected(self):
        bad = np.diag([1.0, 0.5]).astype(complex)
        with pytest.raises(ValidationError, match="unitary"):
            single_protocol(bell_phi_plus(), z_projectors(2), (bad, I2), correlated_verify())

    def test_verify_pair_must_exhaust_outcomes(self):
        with pytest.raises(ValidationError, match="verify"):
            single_protocol(bell_phi_plus(), z_projectors(2), (I2, I2), ((P0, P0), (P1, P0)))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="arity"):
            single_protocol(bell_phi_plus(), z_projectors(2), (I2,), correlated_verify())

    def test_state_must_be_bipartite(self):
        flat = PureState((4,), np.array([1.0, 0, 0, 0]))
        with pytest.raises(ValidationError, match="protocol-state"):
            single_protocol(flat, z_projectors(2), (I2, I2), correlated_verify())

    def test_random_protocol_satisfies_invariants(self):
        spec = rebuilt(random_protocol(3, 4, 3, 99))
        assert spec.psi.shape == (1, 3, 4)
        gram = sum(a.conj().T @ a for a in spec.alice[0])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        eye = np.eye(4)
        for u in spec.bob_unitaries[0]:
            np.testing.assert_allclose(u.conj().T @ u, eye, atol=1e-12)
        for m_y, m_n in spec.verify_pairs[0]:
            np.testing.assert_allclose(
                m_y.conj().T @ m_y + m_n.conj().T @ m_n, eye, atol=1e-12
            )
        table = outcome_tables(spec)
        assert abs(table.p_success.sum() + table.p_failure.sum() - 1.0) < 1e-10


class TestProtocolStacks:
    def test_operators_are_read_only_stacks(self):
        spec = rebuilt(random_protocol(2, 3, 4, 5))
        assert spec.bob_unitaries.shape == (1, 4, 3, 3)
        assert spec.verify_pairs.shape == (1, 4, 2, 3, 3)
        assert not spec.bob_unitaries.flags.writeable
        assert not spec.verify_pairs.flags.writeable

    def test_effective_ops_fold_in_the_unitary(self):
        spec = random_protocol(2, 3, 4, 6)
        eff = spec.effective_ops[0]
        for k, ((m_y, m_n), u) in enumerate(zip(spec.verify_pairs[0], spec.bob_unitaries[0])):
            np.testing.assert_allclose(eff[k], [m_y @ u, m_n @ u], atol=1e-14)

    def test_ragged_bob_unitaries_name_the_operator(self):
        with pytest.raises(ValidationError, match="protocol-unitary: Bob operator 1 "):
            single_protocol(bell_phi_plus(), z_projectors(2), (I2, np.eye(3)), correlated_verify())

    def test_ragged_verify_pair_names_the_pair(self):
        verify = ((P0, P1), (P1, np.eye(3)))
        with pytest.raises(ValidationError, match="protocol-verify-shape: verify pair 1 "):
            single_protocol(bell_phi_plus(), z_projectors(2), (I2, I2), verify)

    def test_first_failing_unitary_is_named(self):
        bad = np.diag([1.0, 0.5]).astype(complex)
        with pytest.raises(ValidationError, match="Bob operator 1 "):
            single_protocol(bell_phi_plus(), z_projectors(2), (I2, bad), correlated_verify())

    def test_first_incomplete_verify_pair_is_named(self):
        with pytest.raises(ValidationError, match="protocol-verify-completeness: verify pair 1 "):
            single_protocol(bell_phi_plus(), z_projectors(2), (I2, I2), ((P0, P1), (P1, P1)))

    def test_nan_outcome_total_rejected(self):
        with pytest.raises(ValidationError, match="outcome-total"):
            OutcomeTable(np.array([[np.nan]]), np.array([[0.5]]), None)

    def test_outcome_total_names_the_failing_trial(self):
        p_success = np.array([[0.25, 0.25], [0.25, 0.25], [0.5, 0.0]])
        p_failure = np.array([[0.25, 0.25], [0.25, 0.0], [0.25, 0.25]])
        with pytest.raises(ValidationError, match=r"^outcome-total: trial 8: probabilities sum to 0\.75,"):
            OutcomeTable(p_success, p_failure, range(7, 10))


class TestProtocolBatch:
    TRIALS = range(10, 16)

    def arrays(self):
        rngs = [np.random.default_rng((5, t)) for t in self.TRIALS]
        batch = random_protocols(2, 3, 3, rngs, self.TRIALS)
        return [a.copy() for a in (batch.psi, batch.alice, batch.bob_unitaries, batch.verify_pairs)]

    def test_one_draw_per_trial_is_the_four_draws_in_order(self):
        def rngs():
            return [np.random.default_rng((5, t)) for t in self.TRIALS]

        batch = random_protocols(2, 3, 3, rngs(), self.TRIALS)
        g_state, g_alice, g_bob, g_verify = protocol_draws_reference(2, 3, 3, rngs())
        expected = (
            haar_vectors(g_state).reshape(-1, 2, 3),
            haar_blocks(g_alice, 2),
            haar_unitaries(g_bob),
            haar_blocks(g_verify, 3),
        )
        got = (batch.psi, batch.alice, batch.bob_unitaries, batch.verify_pairs)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]

    def test_non_unitary_bob_operator_names_its_trial(self):
        psi, alice, bob, verify = self.arrays()
        bob[3, 1] *= 0.5
        with pytest.raises(ValidationError, match="protocol-unitary: trial 13: Bob operator 1 "):
            ProtocolSpec(psi, alice, bob, verify, self.TRIALS)

    def test_incomplete_verify_pair_names_its_trial(self):
        psi, alice, bob, verify = self.arrays()
        verify[4, 2, 0] *= 0.5
        with pytest.raises(
            ValidationError, match="protocol-verify-completeness: trial 14: verify pair 2 "
        ):
            ProtocolSpec(psi, alice, bob, verify, self.TRIALS)

    def test_inconsistent_shapes_rejected(self):
        psi, alice, bob, verify = self.arrays()
        with pytest.raises(ValidationError, match="protocol-batch-shape"):
            ProtocolSpec(psi[:, :, :2], alice, bob, verify, self.TRIALS)
        with pytest.raises(ValidationError, match="protocol-batch-shape"):
            ProtocolSpec(psi, alice, bob, verify, range(3))

    def test_batch_of_one_names_no_trial(self):
        spec = random_protocol(2, 3, 3, 8)
        bob = spec.bob_unitaries.copy()
        bob[0, 2] *= 0.5
        with pytest.raises(ValidationError, match=r"^protocol-unitary: Bob operator 2 "):
            ProtocolSpec(spec.psi, spec.alice, bob, spec.verify_pairs)
