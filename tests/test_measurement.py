"""Measurement sets and the measurement-space map."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from conftest import probabilities_reference, random_local_set

from mspace.entanglement import measurement_space_entanglement
from mspace.linalg import DEFAULT_TOL, PureState, ValidationError, bell_phi_plus, haar_state, haar_unitaries
from mspace.measurement import (
    LocalMeasurementSet,
    MeasurementSet,
    MeasurementSpaceState,
    _local_image,
    map_to_measurement_space,
    noisy_pair,
    random_measurement_set,
    z_projectors,
)


def expectation_oracle(psi_vec, op):
    """<psi| op^dag op |psi> with explicit index sums."""
    d = psi_vec.size
    gram = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            gram[i, j] = sum(op[k, i].conjugate() * op[k, j] for k in range(d))
    total = 0.0 + 0.0j
    for i in range(d):
        for j in range(d):
            total += psi_vec[i].conjugate() * gram[i, j] * psi_vec[j]
    return float(total.real)


PLUS = PureState((2,), np.array([1.0, 1.0]) / np.sqrt(2))
ZERO = PureState((2,), np.array([1.0, 0.0]))


def probabilities(psi, mset):
    """The whole-space map's outcome probabilities, checked against the einsum reference."""
    probs = map_to_measurement_space(psi, mset).probabilities()
    np.testing.assert_allclose(probs, probabilities_reference(psi, mset), rtol=0, atol=1e-12)
    return probs


class TestOutcomeProbabilities:
    def test_projective_on_basis_state(self):
        np.testing.assert_allclose(probabilities(ZERO, z_projectors(2)), [1.0, 0.0], atol=1e-14)

    def test_plus_state_half_half(self):
        np.testing.assert_allclose(probabilities(PLUS, z_projectors(2)), [0.5, 0.5], atol=1e-12)

    def test_noisy_pair_vs_expectation_oracle(self):
        pair = noisy_pair(0.9)
        probs = probabilities(ZERO, pair)
        expected = [expectation_oracle(ZERO.vector, op) for op in pair.stack]
        np.testing.assert_allclose(probs, expected, atol=1e-12)
        np.testing.assert_allclose(probs, [0.9, 0.1], atol=1e-12)

    def test_dimension_mismatch(self):
        # checked before completeness, so an incomplete set of the wrong dimension fails here too
        lonely = MeasurementSet(2, ("0",), [np.diag([1.0, 0.0]).astype(complex)])
        message = r"^dimension-match: state dimension 4 != measurement dimension 2$"
        for mset in (z_projectors(2), lonely):
            with pytest.raises(ValidationError, match=message):
                map_to_measurement_space(bell_phi_plus(), mset)

    def test_incomplete_set_rejected(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        lonely = MeasurementSet(2, ("0",), [p0])
        with pytest.raises(ValidationError, match=r"^completeness: completeness deviation 1\.0 exceeds"):
            map_to_measurement_space(ZERO, lonely)


class TestMapToMeasurementSpace:
    def test_plus_with_projectors(self):
        zproj = z_projectors(2)
        image = map_to_measurement_space(PLUS, zproj)
        np.testing.assert_allclose(image.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
        assert zproj.labels == ("0", "1")
        assert image.structure is None

    def test_trivial_set_single_outcome(self):
        trivial = MeasurementSet(2, ("all",), [np.eye(2, dtype=complex)])
        image = map_to_measurement_space(PLUS, trivial)
        np.testing.assert_allclose(image.amplitudes, [1.0], atol=1e-14)

    def test_bell_with_local_noisy_pairs(self):
        local = LocalMeasurementSet(noisy_pair(0.9), noisy_pair(0.9))
        image = map_to_measurement_space(bell_phi_plus(), local)
        assert image.structure == (2, 2)
        assert local.labels == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
        expected = [
            expectation_oracle(bell_phi_plus().vector, np.kron(ma, mb))
            for ma in noisy_pair(0.9).stack
            for mb in noisy_pair(0.9).stack
        ]
        np.testing.assert_allclose(image.amplitudes, np.sqrt(expected), atol=1e-12)
        np.testing.assert_allclose(
            image.amplitudes, np.sqrt([0.41, 0.09, 0.09, 0.41]), atol=1e-12
        )

    def test_zero_probability_outcomes_kept(self):
        image = map_to_measurement_space(ZERO, z_projectors(2))
        assert image.amplitudes.size == 2
        assert image.amplitudes[1] == 0.0

    def test_global_phase_insensitive(self):
        base = map_to_measurement_space(PLUS, z_projectors(2)).amplitudes
        rotated = PureState((2,), 1j * PLUS.vector)
        assert np.array_equal(map_to_measurement_space(rotated, z_projectors(2)).amplitudes, base)
        generic = PureState((2,), np.exp(0.7j) * PLUS.vector)
        np.testing.assert_allclose(
            map_to_measurement_space(generic, z_projectors(2)).amplitudes, base, atol=1e-12
        )

    def test_rank1_projective_gives_component_magnitudes(self):
        rng = np.random.default_rng(31)
        u = haar_unitaries(rng.standard_normal((2, 3, 3)))
        ops = [np.outer(u[:, i], u[:, i].conj()) for i in range(3)]
        basis_set = MeasurementSet(3, ("0", "1", "2"), ops)
        psi = haar_state((3,), rng)
        image = map_to_measurement_space(psi, basis_set)
        expected = [abs(np.vdot(u[:, i], psi.vector)) for i in range(3)]
        np.testing.assert_allclose(image.amplitudes, expected, atol=1e-12)

    def test_nonlinearity_witness(self):
        # the map never produces negative coordinates, so it cannot be linear
        zero_img = map_to_measurement_space(ZERO, z_projectors(2)).amplitudes
        one_img = map_to_measurement_space(
            PureState((2,), np.array([0.0, 1.0])), z_projectors(2)
        ).amplitudes
        minus = PureState((2,), np.array([1.0, -1.0]) / np.sqrt(2))
        minus_img = map_to_measurement_space(minus, z_projectors(2)).amplitudes
        linear_combination = (zero_img - one_img) / np.sqrt(2)
        assert not np.allclose(minus_img, linear_combination, atol=1e-6)

    def test_normalization_over_random_pairs(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            outcomes = int(rng.integers(1, 9))
            mset = random_measurement_set(dim, outcomes, rng)
            psi = haar_state((dim,), rng)
            image = map_to_measurement_space(psi, mset)
            assert abs(np.sum(image.amplitudes**2) - 1.0) <= 1e-10


class TestValidateCompleteness:
    def test_projectors_pass(self):
        assert z_projectors(2).completeness_deviation() < 1e-15

    def test_noisy_pair_passes(self):
        assert noisy_pair(0.9).completeness_deviation() < 1e-12

    def test_missing_outcome_fails(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        incomplete = MeasurementSet(2, ("0",), [p0])
        assert abs(incomplete.completeness_deviation() - 1.0) < 1e-15
        with pytest.raises(ValidationError, match="completeness"):
            incomplete.assert_complete()


class TestSetConstruction:
    def test_duplicate_labels_rejected(self):
        eye = np.eye(2, dtype=complex) / np.sqrt(2)
        with pytest.raises(ValidationError, match="labels"):
            MeasurementSet(2, ("a", "a"), [eye, eye])

    @pytest.mark.parametrize("label", ["tab\there", "line\nbreak", "carriage\rreturn", "\t"])
    def test_label_that_would_split_a_tsv_row_rejected(self, label):
        eye = np.eye(2, dtype=complex) / np.sqrt(2)
        message = f"measurement-labels: label {label!r} holds a tab or a line break"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            MeasurementSet(2, ("a", label), [eye, eye])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            MeasurementSet(2, ("a",), [np.eye(3, dtype=complex)])

    def test_ragged_operator_names_the_invariant(self):
        with pytest.raises(ValidationError, match="measurement-shape: operator 'a' is ragged"):
            MeasurementSet(2, ("a",), [[[1, 0], [0]]])

    def test_label_count_must_match_the_operators(self):
        eye = np.eye(2, dtype=complex) / np.sqrt(2)
        with pytest.raises(ValidationError, match="measurement-shape: 1 labels for 2 operators"):
            MeasurementSet(2, ("a",), [eye, eye])

    def test_equal_labels_do_not_make_equal_sets(self):
        zproj, noisy = z_projectors(2), noisy_pair(0.9)
        assert zproj.labels == noisy.labels
        assert zproj != noisy

    def test_random_set_is_complete(self):
        for seed in range(5):
            mset = random_measurement_set(3, 4, seed)
            assert mset.completeness_deviation() < 1e-13

    def test_random_local_set(self):
        local = random_local_set(2, 3, 2, 4, 9)
        assert local.structure == (2, 4)
        assert local.alice.dim == 2 and local.bob.dim == 3
        joint = local.joint()
        assert joint.dim == 6 and len(joint) == 8
        assert joint.completeness_deviation() < 1e-12

    def test_mspace_state_validation(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            MeasurementSpaceState(np.array([1.2, -0.1]))
        with pytest.raises(ValidationError, match="normalization"):
            MeasurementSpaceState(np.array([1.0, 1.0]))
        with pytest.raises(ValidationError, match="structure"):
            MeasurementSpaceState(np.array([1.0, 0.0]), structure=(2, 2))
        with pytest.raises(ValidationError, match="structure"):
            MeasurementSpaceState(np.array([1.0, 0.0]), structure=(-1, -2))
        with pytest.raises(ValidationError, match="mspace-shape"):
            MeasurementSpaceState(np.full((2, 2), 0.5))

    def test_as_pure_state_requires_factorization(self):
        flat = MeasurementSpaceState(np.full(4, 0.5))
        with pytest.raises(ValidationError, match="factorization"):
            measurement_space_entanglement(flat)
        # uniform amplitudes on a 2x2 grid are a product state
        assert measurement_space_entanglement(dataclasses.replace(flat, structure=(2, 2))) < 1e-12
        # a structure that does not factor the outcome count is refused when attached
        with pytest.raises(ValidationError, match="structure"):
            dataclasses.replace(flat, structure=(3, 2))


def test_pair_map_at_32x32_stays_under_one_mib():
    # the joint set's Gram matrix alone would hold 1024^2 complex entries, 16 MiB
    rng = np.random.default_rng(3)
    psi, local = haar_state((32, 32), rng), random_local_set(32, 32, 2, 2, rng)
    tracemalloc.start()
    try:
        image = map_to_measurement_space(psi, local)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert image.structure == (2, 2) and peak < 1 << 20


def test_nan_amplitude_fails_normalization():
    with pytest.raises(ValidationError, match="mspace-normalization"):
        MeasurementSpaceState([np.nan, 0.5])


class TestLocalImageChecks:
    TRIALS = range(10, 13)

    def stack(self):
        """Three trials of |+> under the z projectors, with Bob's set the 1x1 identity."""
        t = np.zeros((3, 2, 1, 2, 1), dtype=complex)
        t[:, 0, 0, 0, 0] = t[:, 1, 0, 1, 0] = np.sqrt(0.5)
        return t

    def test_valid_stack_maps_to_unit_images(self):
        image = _local_image(self.stack(), DEFAULT_TOL, self.TRIALS)
        np.testing.assert_array_equal(image, np.full((3, 2), np.sqrt(0.5)))

    def test_nan_row_fails_the_floor_before_the_sum(self):
        t = self.stack()
        t[0] *= np.sqrt(2.0)  # trial 10 fails only the sum check
        t[1, 0, 0, 0, 0] = np.nan
        with pytest.raises(ValidationError, match=r"^probability-floor: trial 11: outcome probability nan"):
            _local_image(t, DEFAULT_TOL, self.TRIALS)

    def test_scaled_row_fails_the_sum(self):
        t = self.stack()
        t[2] *= np.sqrt(2.0)
        with pytest.raises(ValidationError, match=r"^probability-normalization: trial 12: probabilities sum to 2\."):
            _local_image(t, DEFAULT_TOL, self.TRIALS)

    def test_zero_row_under_a_loose_tolerance_fails_the_image_norm(self):
        # tol * dim = 1 lets an all-zero distribution past the sum check; its image is 0 / 0
        t = self.stack()
        t[0] = 0.0
        with np.errstate(invalid="ignore"), pytest.raises(
            ValidationError, match=r"^mspace-normalization: trial 10: squared amplitudes sum to nan"
        ):
            _local_image(t, 0.5, self.TRIALS)
