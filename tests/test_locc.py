"""The local construction behind the map, and channel concurrence factorization."""

import tracemalloc

import numpy as np
import pytest
from conftest import density_of, depolarizing_kraus, random_local_set

from mspace.entanglement import concurrence_mixed, concurrence_pure
from mspace.linalg import (
    DensityMatrix,
    PureState,
    ValidationError,
    bell_phi_plus,
    haar_blocks,
    haar_state,
)
from mspace import locc, measurement
from mspace.cli import main
from mspace.locc import (
    Channel,
    KONRAD_TOL,
    fourier_step,
    konrad_check,
    run_locc_construction,
)
from mspace.measurement import (
    LocalMeasurementSet,
    MeasurementSet,
    map_to_measurement_space,
    noisy_pair,
    random_measurement_set,
    z_projectors,
)

I2 = np.eye(2, dtype=complex)


def trivial_local_set(dim_a=2, dim_b=2):
    one_a = MeasurementSet(dim_a, ("all",), [np.eye(dim_a, dtype=complex)])
    one_b = MeasurementSet(dim_b, ("all",), [np.eye(dim_b, dtype=complex)])
    return LocalMeasurementSet(one_a, one_b)


def z_local_set():
    return LocalMeasurementSet(z_projectors(2), z_projectors(2))


def noisy_local_set(eta=0.9):
    return LocalMeasurementSet(noisy_pair(eta), noisy_pair(eta))


def alice_blocks(psi, local):
    """Alice's conditional blocks of the dilated state, as the construction computes them."""
    return run_locc_construction(psi, local).alice.blocks


class TestBuildDilation:
    def test_trivial_sets_append_ancillas(self):
        psi = haar_state((2, 2), 4)
        dilated = run_locc_construction(psi, trivial_local_set()).dilated
        assert dilated.dims == (2, 2, 1, 1)
        np.testing.assert_allclose(dilated.vector, psi.vector, atol=1e-14)

    def test_z_projectors_on_bell(self):
        dilated = run_locc_construction(bell_phi_plus(), z_local_set()).dilated
        assert dilated.dims == (2, 2, 2, 2)
        tensor_view = dilated.reshaped()
        expected = np.zeros((2, 2, 2, 2), dtype=complex)
        expected[0, 0, 0, 0] = 1 / np.sqrt(2)
        expected[1, 1, 1, 1] = 1 / np.sqrt(2)
        np.testing.assert_allclose(tensor_view, expected, atol=1e-14)

    def test_norm_on_random_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            d_a, d_b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            psi = haar_state((d_a, d_b), rng)
            local = random_local_set(d_a, d_b, int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng)
            dilated = run_locc_construction(psi, local).dilated
            assert abs(np.linalg.norm(dilated.vector) - 1.0) < 1e-10

    def test_incomplete_set_rejected(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        bad = LocalMeasurementSet(MeasurementSet(2, ("0",), [p0]), z_projectors(2))
        with pytest.raises(ValidationError, match="completeness"):
            run_locc_construction(bell_phi_plus(), bad)

    def test_compensated_pair_rejected_by_the_map_and_the_construction(self):
        # Alice's Gram matrix is (1 + delta) 1 and Bob's 1 / (1 + delta) 1: their
        # Kronecker product is 1, but neither party's set is complete
        delta, tol = 1e-6, 1e-10
        z = z_projectors(2).stack
        pair = LocalMeasurementSet(
            MeasurementSet(2, ("0", "1"), z * np.sqrt(1 + delta)),
            MeasurementSet(2, ("0", "1"), z / np.sqrt(1 + delta)),
        )
        grams = [np.sum(s.stack.conj().swapaxes(1, 2) @ s.stack, axis=0) for s in (pair.alice, pair.bob)]
        gram = np.kron(*grams)
        assert np.max(np.abs(gram - np.eye(4))) <= tol
        for run in (map_to_measurement_space, run_locc_construction):
            with pytest.raises(ValidationError, match="completeness"):
                run(haar_state((2, 2), 3), pair, tol)


class TestConditionalBlocks:
    def test_z_projectors_on_bell(self):
        blocks = alice_blocks(bell_phi_plus(), z_local_set())
        np.testing.assert_allclose(blocks[0], np.diag([0.5, 0.0]), atol=1e-14)
        np.testing.assert_allclose(blocks[1], np.diag([0.0, 0.5]), atol=1e-14)

    def test_trivial_set_gives_reduced_state(self):
        psi = haar_state((2, 3), 6)
        (block,) = alice_blocks(psi, trivial_local_set(2, 3))
        m = psi.vector.reshape(2, 3)
        expected = m @ m.conj().T
        np.testing.assert_allclose(block, expected, atol=1e-12)

    def test_traces_sum_to_one_and_psd(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            psi = haar_state((2, 2), rng)
            local = random_local_set(2, 2, int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
            trace = run_locc_construction(psi, local)
            # Alice's blocks, then Bob's on each of Alice's outcomes
            for blocks in (trace.alice.blocks, *trace.bob.blocks):
                total = sum(float(np.real(np.trace(b))) for b in blocks)
                assert abs(total - 1.0) < 1e-10
                for b in blocks:
                    assert float(np.min(np.linalg.eigvalsh(b))) > -1e-12


class TestFourierStep:
    def test_uniform_totals_for_qubit_blocks(self):
        step = fourier_step(alice_blocks(bell_phi_plus(), noisy_local_set()))
        np.testing.assert_allclose(step.outcome_totals, [0.5, 0.5], atol=1e-12)
        assert step.max_deviation < 1e-10

    def test_maximally_mixed_block(self):
        # <w| block |w> = trace / n for every unit vector when block = 1/n
        step = fourier_step([np.eye(3, dtype=complex) / 3.0])
        for j in range(3):
            w = step.vectors[0][:, j]
            assert abs(np.real(np.vdot(w, (np.eye(3) / 3.0) @ w)) - 1 / 3) < 1e-12
        np.testing.assert_allclose(step.outcome_totals, [1 / 3] * 3, atol=1e-12)

    def test_random_inputs_stay_uniform(self):
        rng = np.random.default_rng(29)
        worst = 0.0
        for _ in range(100):
            psi = haar_state((2, 2), rng)
            local = random_local_set(2, 2, int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
            step = fourier_step(alice_blocks(psi, local))
            worst = max(worst, step.max_deviation)
        assert worst < 1e-10

    def test_projectors_are_rank_one(self):
        step = fourier_step(alice_blocks(bell_phi_plus(), noisy_local_set()))
        w = step.vectors[0][:, 1]
        proj = np.outer(w, w.conj())
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
        assert abs(np.trace(proj) - 1.0) < 1e-12

    def test_degeneracy_flag(self):
        step = fourier_step([np.eye(2, dtype=complex) / 2.0])
        assert step.degenerate
        step = fourier_step(alice_blocks(bell_phi_plus(), noisy_local_set(0.9)))
        assert not step.degenerate


class TestRunLoccConstruction:
    def test_z_projectors_on_bell(self):
        trace = run_locc_construction(bell_phi_plus(), z_local_set())
        np.testing.assert_allclose(trace.ancilla_diagonal, [0.5, 0.0, 0.0, 0.5], atol=1e-12)
        assert trace.diagonal_deviation < 1e-12
        assert trace.branch_diagonal_deviations[0] < 1e-9
        assert abs(trace.fidelities[0] - 1.0) < 1e-10

    def test_trivial_sets_single_outcome(self):
        psi = haar_state((2, 2), 13)
        trace = run_locc_construction(psi, trivial_local_set())
        np.testing.assert_allclose(trace.ancilla_diagonal, [1.0], atol=1e-12)
        assert abs(trace.fidelities[0] - 1.0) < 1e-10

    def test_noisy_pairs_channel_diagonal(self):
        trace = run_locc_construction(bell_phi_plus(), noisy_local_set(0.9))
        np.testing.assert_allclose(
            trace.ancilla_diagonal, [0.41, 0.09, 0.09, 0.41], atol=1e-9
        )
        assert trace.diagonal_deviation < 1e-9
        # the individual branch is not the image; its mismatch is reported
        assert trace.branch_diagonal_deviations[0] > 1e-3
        assert 0.0 <= trace.fidelities[0] <= 1.0

    def test_diagonal_matches_image_on_every_branch(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            psi = haar_state((2, 2), rng)
            local = random_local_set(2, 2, int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
            # one run covers all four branches
            trace = run_locc_construction(psi, local)
            assert trace.diagonal_deviation < 1e-9

    def test_outcome_probabilities_are_uniform(self):
        rng = np.random.default_rng(41)
        psi = haar_state((2, 3), rng)
        local = random_local_set(2, 3, 3, 2, rng)
        trace = run_locc_construction(psi, local)
        assert abs(trace.alice.probabilities[1] - 1 / 2) < 1e-10
        assert abs(trace.bob.probabilities[1, 2] - 1 / 3) < 1e-10
        assert trace.alice.fourier.max_deviation <= 1e-10
        assert trace.bob.fourier.max_deviation[1] <= 1e-10

    def test_alice_outcomes_exhaust_probability(self):
        rng = np.random.default_rng(47)
        psi = haar_state((3, 2), rng)
        local = random_local_set(3, 2, 2, 3, rng)
        total = sum(run_locc_construction(psi, local).alice.probabilities)
        assert abs(total - 1.0) < 1e-10

    def test_zero_probability_sector_skipped(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        psi = PureState((2, 2), np.kron(np.array([1.0, 0.0]), plus))
        trace = run_locc_construction(psi, z_local_set())
        assert np.flatnonzero(trace.alice.skipped).tolist() == [1]
        np.testing.assert_allclose(trace.ancilla_diagonal, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        # outcome 0, sector 1: the reset keeps the identity, so it leaves the Fourier vector as it is
        assert np.array_equal(trace.alice.resets[0, :, 1], trace.alice.fourier.vectors[1, :, 0])

    def test_intermediate_states_normalized(self):
        trace = run_locc_construction(bell_phi_plus(), noisy_local_set(0.8))
        assert abs(np.linalg.norm(trace.dilated.vector) - 1.0) < 1e-9
        # every branch, (1, 1) among them, leaves a unit ancilla state
        for ancilla in trace.branch_ancillas:
            assert abs(np.linalg.norm(ancilla) - 1.0) < 1e-9

    def test_mixed_output_entanglement_monotone(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            psi = haar_state((2, 2), rng)
            local = random_local_set(2, 2, 2, 2, rng)
            trace = run_locc_construction(psi, local)
            assert concurrence_mixed(DensityMatrix((2, 2), trace.ancilla)) <= concurrence_pure(psi.reshaped()) + 1e-9

    def test_outcome_out_of_range(self, capsys):
        # a branch is picked from the run's arrays, so the range is checked where it is picked
        argv = ["locc", "--state", "bell", "--alice", "z-projectors", "--bob", "z-projectors"]
        assert main([*argv, "--outcome", "2,0"]) == 2
        assert "error: locc-outcome: " in capsys.readouterr().err


def _sized_pair(dims, n_a, n_b):
    """A Haar state on ``dims`` and random sets of ``n_a``, ``n_b`` outcomes; ``None`` is z-projectors."""
    sets = (
        z_projectors(d) if n is None else random_measurement_set(d, n, seed)
        for d, n, seed in zip(dims, (n_a, n_b), (1, 2))
    )
    return haar_state(dims, 3), LocalMeasurementSet(*sets)


class TestSizeRule:
    # each term of the two size checks of a local pair, at the largest shape of its kind that a
    # 1 MiB cap admits, where that term counts the most, and at the next shape, which it refuses
    @pytest.mark.parametrize("run, admitted, refused, entries, invariant", [
        # the pair's product tensor, n_a n_b d_a d_b entries
        (map_to_measurement_space, ((32, 32), 8, 8), ((32, 32), 9, 8), 8**2 * 32**2, "measurement-size"),
        # Alice's states and Bob's coefficients, d_a n_a n_b d_a d_b
        (run_locc_construction, ((9, 9), 9, 9), ((10, 10), 10, 10), 9**5, "locc-size"),
        # Bob's blocks, d_a n_b d_b^2
        (run_locc_construction, ((2, 32), None, None), ((2, 33), None, None), 2 * 32**3, "locc-size"),
        # the ancilla output, (n_a n_b)^2
        (run_locc_construction, ((2, 2), 16, 16), ((2, 2), 17, 16), 16**4, "locc-size"),
    ], ids=["pair-tensor", "locc-states", "bob-blocks", "ancilla"])  # fmt: skip
    def test_peak_stays_within_a_few_of_the_counted_array(
        self, monkeypatch, run, admitted, refused, entries, invariant
    ):
        monkeypatch.setattr("mspace.linalg.TRIAL_BYTES_CAP", 1 << 20)
        with pytest.raises(ValidationError, match=invariant):
            run(*_sized_pair(*refused))
        counted = []
        real = measurement._require_fits

        def recorded(size, *args):
            counted.append(size)
            return real(size, *args)

        monkeypatch.setattr(measurement, "_require_fits", recorded)
        monkeypatch.setattr(locc, "_require_fits", recorded)
        psi, pair = _sized_pair(*admitted)
        tracemalloc.start()
        try:
            run(psi, pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the counted array is built, and nothing uncounted outgrows it
        assert max(counted) == 16 * entries <= peak <= 8 * max(counted)


class TestChannels:
    def test_trace_preserving_enforced(self):
        with pytest.raises(ValidationError, match="trace-preserving"):
            Channel((np.diag([1.0, 0.5]).astype(complex),))

    def test_depolarizing_sends_to_maximally_mixed(self):
        ch = Channel(depolarizing_kraus(1.0))
        rho = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(ch.apply(rho), np.eye(2) / 2, atol=1e-12)

    def test_random_channel_is_trace_preserving(self):
        kraus = haar_blocks(np.random.default_rng(11).standard_normal((2, 6, 6)), 2)
        acc = sum(k.conj().T @ k for k in kraus)
        np.testing.assert_allclose(acc, np.eye(2), atol=1e-12)


# the identity channel's Kraus stack
IDENTITY = np.eye(2, dtype=complex)[None]


def random_kraus(rng):
    """A random qubit channel's Kraus stack of 1 to 4 operators, drawn as ``random_konrad_trials`` draws one side."""
    k = int(rng.integers(1, 5))
    return haar_blocks(rng.standard_normal((2, 2 * k, 2 * k)), 2)


def konrad(psi, kraus_a, kraus_b):
    """``konrad_check`` on one trial: ``(lhs, bound)``, with ``bound`` the
    one-sided right-hand side when ``kraus_b`` is ``IDENTITY``."""
    lhs, bound = konrad_check(psi.reshaped()[None], kraus_a[None], kraus_b[None])
    return float(lhs[0]), float(bound[0])


class TestKonradChecks:
    def test_identity_channel_reduces_to_concurrence(self):
        psi = haar_state((2, 2), 51)
        lhs, rhs = konrad(psi, IDENTITY, IDENTITY)
        assert abs(lhs - concurrence_pure(psi.reshaped())) < 1e-9
        assert abs(lhs - rhs) < 1e-9

    def test_fully_depolarizing_kills_both_sides(self):
        psi = haar_state((2, 2), 53)
        lhs, rhs = konrad(psi, depolarizing_kraus(1.0), IDENTITY)
        assert lhs < 1e-9 and rhs < 1e-9

    def test_random_pairs_satisfy_equality(self):
        worst = 0.0
        for t in range(50):
            rng = np.random.default_rng((61, t))
            psi = haar_state((2, 2), rng)
            lhs, rhs = konrad(psi, random_kraus(rng), IDENTITY)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-8

    def test_two_sided_identity_is_tight(self):
        psi = haar_state((2, 2), 67)
        lhs, bound = konrad(psi, IDENTITY, IDENTITY)
        assert lhs <= bound + KONRAD_TOL and abs(bound - lhs) < 1e-9

    def test_two_sided_depolarizing_left(self):
        psi = haar_state((2, 2), 71)
        lhs, bound = konrad(psi, depolarizing_kraus(1.0), IDENTITY)
        assert lhs <= bound + KONRAD_TOL and lhs < 1e-9

    def test_two_sided_random_inequality(self):
        for t in range(50):
            rng = np.random.default_rng((73, t))
            psi = haar_state((2, 2), rng)
            lhs, bound = konrad(psi, random_kraus(rng), random_kraus(rng))
            assert lhs <= bound + KONRAD_TOL

    def test_dimension_guards(self):
        with pytest.raises(ValidationError, match="konrad-state"):
            konrad_check(haar_state((3, 2), 1).reshaped()[None], IDENTITY[None], IDENTITY[None])
        with pytest.raises(ValidationError, match="konrad-channel"):
            konrad(haar_state((2, 2), 1), np.eye(3, dtype=complex)[None], IDENTITY)

    def test_channel_that_is_not_trace_preserving_names_its_row_and_side(self):
        # sum K^dag K = diag(1.5, 0.5), yet the Bell state's output has trace 1
        bad = np.diag([np.sqrt(1.5), np.sqrt(0.5)]).astype(complex)[None]
        with pytest.raises(ValidationError, match=r"^konrad-channel: row 0: side A: "):
            konrad(bell_phi_plus(), bad, IDENTITY)
        psi = np.stack([bell_phi_plus().reshaped()] * 2)
        with pytest.raises(ValidationError, match=r"^konrad-channel: row 1: side B: "):
            konrad_check(psi, np.stack([IDENTITY] * 2), np.stack([IDENTITY, bad]))
        with pytest.raises(ValidationError, match=r"^konrad-channel: row 0: side A: "):
            konrad(bell_phi_plus(), IDENTITY * np.nan, IDENTITY)

    @pytest.mark.parametrize("scale", [1.1, np.nan])
    def test_state_off_unit_norm_names_its_row(self, scale):
        psi = np.stack([bell_phi_plus().reshaped(), scale * bell_phi_plus().reshaped()])
        with pytest.raises(ValidationError, match=r"^konrad-state: row 1: "):
            konrad_check(psi, np.stack([IDENTITY] * 2), np.stack([IDENTITY] * 2))

    def test_stacked_trials_match_one_call_per_trial(self):
        # Kraus stacks of different lengths, zero-padded to 4 in the stack
        psi, kraus_a, kraus_b, single = [], [], [], []
        for t in range(30):
            rng = np.random.default_rng((79, t))
            state = haar_state((2, 2), rng)
            ch_a, ch_b = random_kraus(rng), random_kraus(rng)
            single.append(konrad(state, ch_a, ch_b))
            psi.append(state.reshaped())
            kraus_a.append(np.concatenate([ch_a, np.zeros((4 - len(ch_a), 2, 2))]))
            kraus_b.append(np.concatenate([ch_b, np.zeros((4 - len(ch_b), 2, 2))]))
        lhs, bound = konrad_check(np.array(psi), np.array(kraus_a), np.array(kraus_b))
        np.testing.assert_allclose(np.column_stack([lhs, bound]), single, rtol=0, atol=1e-13)


class TestChannelStacks:
    def test_nan_kraus_operator_rejected(self):
        with pytest.raises(ValidationError, match="channel-trace-preserving"):
            Channel((np.full((2, 2), np.nan),))

    def test_kraus_is_a_read_only_stack(self):
        ch = Channel(depolarizing_kraus(0.3))
        assert ch.kraus.shape == (4, 2, 2)
        assert not ch.kraus.flags.writeable

    def test_ragged_kraus_operators_rejected(self):
        with pytest.raises(ValidationError, match="channel-shape"):
            Channel((I2, np.eye(3)))
        with pytest.raises(ValidationError, match="channel-empty"):
            Channel(())

    def test_apply_matches_kraus_sum(self):
        ch = Channel(haar_blocks(np.random.default_rng(19).standard_normal((2, 12, 12)), 3))
        psi = haar_state((3,), 20)
        rho = density_of(psi).matrix
        expected = sum(k @ rho @ k.conj().T for k in ch.kraus)
        np.testing.assert_allclose(ch.apply(rho), expected, atol=1e-14)

    def test_blocks_and_resets_are_arrays(self):
        trace = run_locc_construction(bell_phi_plus(), noisy_local_set(0.8))
        assert trace.alice.blocks.shape == (2, 2, 2)
        # [j, a, m]: every row of Alice's system
        assert trace.alice.resets.shape == (2, 2, 2)
        assert trace.alice.fourier.vectors.shape == (2, 2, 2)
        assert trace.alice.fourier.eigenvalues.shape == (2, 2)
        assert not trace.alice.resets.flags.writeable
        # Bob's move is stacked over Alice's outcomes, and forms only his row |0>
        assert trace.bob.blocks.shape == (2, 2, 2, 2)
        assert trace.bob.resets.shape == (2, 2, 1, 2)
        assert trace.bob.probabilities.shape == (2, 2)
        assert trace.bob.fourier.max_deviation.shape == (2,)
        assert not trace.bob.resets.flags.writeable
