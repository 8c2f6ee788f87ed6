"""Entanglement measures and their behavior under the measurement-space map."""

import dataclasses

import numpy as np
import pytest
from conftest import density_of, entropy_reference, random_local_set, wootters_eof

from mspace.entanglement import (
    EntanglementReport,
    concurrence_mixed,
    concurrence_pure,
    measurement_space_entanglement,
    pure_entanglement,
    pure_entanglements,
)
from mspace.linalg import (
    DensityMatrix,
    PAULI_Y,
    PureState,
    ValidationError,
    bell_phi_plus,
    haar_state,
    haar_unitaries,
    tensor,
)
from mspace.measurement import (
    LocalMeasurementSet,
    local_images,
    map_to_measurement_space,
    noisy_pair,
    z_projectors,
)

CORRELATED = PureState((2, 2), np.sqrt([0.41, 0.09, 0.09, 0.41]).astype(complex))


def wootters_oracle(rho_mat):
    """Reference eigenvalue recipe for the mixed-state concurrence."""
    yy = tensor(PAULI_Y, PAULI_Y)
    rt = rho_mat @ yy @ rho_mat.conj() @ yy
    lam = np.sort(np.sqrt(np.abs(np.real(np.linalg.eigvals(rt)))))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


class TestEntropy:
    def test_bell(self):
        assert abs(pure_entanglement(bell_phi_plus(), "entropy") - 1.0) < 1e-12

    def test_product(self):
        rng = np.random.default_rng(1)
        u, v = haar_state((2,), rng).vector, haar_state((2,), rng).vector
        psi = PureState((2, 2), np.kron(u, v))
        assert pure_entanglement(psi, "entropy") < 1e-10

    def test_correlated_example(self):
        value = pure_entanglement(CORRELATED, "entropy")
        assert abs(value - entropy_reference(CORRELATED)) < 1e-10
        assert abs(value - 0.517) < 5e-4

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            psi = haar_state((3, 4), rng)
            e = pure_entanglement(psi, "entropy")
            assert -1e-12 <= e <= np.log2(3) + 1e-9


class TestConcurrencePure:
    def test_bell(self):
        assert abs(concurrence_pure(bell_phi_plus().reshaped()) - 1.0) < 1e-12

    def test_partially_entangled(self):
        p = 0.25
        psi = PureState((2, 2), np.array([np.sqrt(p), 0, 0, np.sqrt(1 - p)]))
        c = concurrence_pure(psi.reshaped())
        assert abs(c - 2 * np.sqrt(p * (1 - p))) < 1e-12
        assert abs(c - 0.8660254037844386) < 1e-12
        # monotone relation: Wootters' eof(concurrence) is the entropy
        assert abs(wootters_eof(psi) - entropy_reference(psi)) < 1e-10

    def test_measurement_space_image_of_bell(self):
        assert abs(concurrence_pure(CORRELATED.reshaped()) - 0.64) < 1e-12

    def test_wrong_dims(self):
        with pytest.raises(ValidationError, match="concurrence-dims"):
            concurrence_pure(np.array([1.0, 0, 0, 0]))

    def test_stack_equals_single_calls_bit_for_bit(self):
        rng = np.random.default_rng(8)
        states = np.array([haar_state((2, 2), rng).reshaped() for _ in range(60)]).reshape(3, 20, 2, 2)
        singles = [[concurrence_pure(a) for a in row] for row in states]
        assert isinstance(singles[0][0], float)
        np.testing.assert_array_equal(concurrence_pure(states), singles)


class TestConcurrenceMixed:
    def test_pure_bell_density(self):
        assert abs(concurrence_mixed(density_of(bell_phi_plus())) - 1.0) < 1e-10

    def test_maximally_mixed(self):
        assert concurrence_mixed(DensityMatrix((2, 2), np.eye(4) / 4)) == 0.0

    def test_wrong_dims(self):
        # a valid density matrix, but of one ququart rather than two qubits
        with pytest.raises(ValidationError, match=r"^concurrence-dims: need a 2x2 density matrix, got \(4,\)$"):
            concurrence_mixed(DensityMatrix((4,), np.eye(4) / 4))

    def test_werner_closed_form_and_oracle(self):
        w = 0.8
        rho_mat = w * density_of(bell_phi_plus()).matrix + (1 - w) * np.eye(4) / 4
        rho = DensityMatrix((2, 2), rho_mat)
        c = concurrence_mixed(rho)
        assert abs(c - max(0.0, (3 * w - 1) / 2)) < 1e-12
        assert abs(c - 0.7) < 1e-12
        assert abs(c - wootters_oracle(rho_mat)) < 1e-7

    def test_agrees_with_pure_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            psi = haar_state((2, 2), rng)
            assert abs(concurrence_mixed(density_of(psi)) - concurrence_pure(psi.reshaped())) < 1e-9

    def test_stack_equals_single_calls_bit_for_bit(self):
        # near-rank-deficient channel outputs among mixtures of every rank
        rng = np.random.default_rng(9)
        mats = []
        for rank in (1, 2, 3, 4) * 10:
            v = haar_state((rank * 4,), rng).vector.reshape(4, rank)
            mats.append(v @ v.conj().T)
        mats = np.array(mats).reshape(2, 20, 4, 4)
        singles = [[concurrence_mixed(DensityMatrix((2, 2), m)) for m in row] for row in mats]
        assert isinstance(singles[0][0], float)
        np.testing.assert_array_equal(concurrence_mixed(DensityMatrix((2, 2), mats)), singles)

    def test_reuses_the_positivity_check_eigenpairs_bit_for_bit(self):
        rng = np.random.default_rng(10)
        mats = []
        for rank in (1, 2, 3, 4) * 6:
            v = haar_state((rank * 4,), rng).vector.reshape(4, rank)
            mats.append(v @ v.conj().T)
        mats = np.array(mats)
        # the formula with an eigensolve of its own
        w, v = np.linalg.eigh(mats)
        root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
        lam = np.linalg.svd(root @ tensor(PAULI_Y, PAULI_Y) @ root.conj(), compute_uv=False)
        want = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
        assert concurrence_mixed(DensityMatrix((2, 2), mats)).tobytes() == want.tobytes()

    def test_matches_eigenvalue_oracle_on_random_mixtures(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.uniform(0, 1)
            rho_mat = w * density_of(haar_state((2, 2), rng)).matrix + (1 - w) * np.eye(4) / 4
            c = concurrence_mixed(DensityMatrix((2, 2), rho_mat))
            assert abs(c - wootters_oracle(rho_mat)) < 1e-7


def eof_of(*states):
    """The kernel's EoF of each state, as one stack."""
    return pure_entanglements(np.stack([psi.reshaped() for psi in states]), "eof")


class TestEof:
    def test_endpoints(self):
        assert eof_of(PureState((2, 2), np.array([1.0, 0.0, 0.0, 0.0])))[0] == 0.0
        assert eof_of(bell_phi_plus())[0] == 1.0

    def test_intermediate_value(self):
        # concurrence 0.64: h((1 + sqrt(1 - 0.64^2)) / 2) = h(0.8841874...)
        value = eof_of(CORRELATED)[0]
        assert abs(value - wootters_eof(CORRELATED)) < 1e-12
        assert abs(value - 0.517) < 5e-4

    def test_matches_entropy_for_random_pure(self):
        rng = np.random.default_rng(5)
        states = [haar_state((2, 2), rng) for _ in range(100)]
        for psi, value in zip(states, eof_of(*states).tolist()):
            assert abs(value - entropy_reference(psi)) < 1e-9
            assert abs(value - wootters_eof(psi)) < 1e-9

    def test_out_of_range(self, monkeypatch):
        monkeypatch.setattr("mspace.entanglement._entropy_bits", lambda p: np.full(len(p), 1.5))
        with pytest.raises(ValidationError, match="report-range"):
            eof_of(bell_phi_plus())

    @pytest.mark.parametrize("value", [1.5, float("nan")])
    def test_array_names_the_first_bad_value(self, monkeypatch, value):
        planted = np.array([0.2, 0.64, 1.0, value, 2.0])
        monkeypatch.setattr("mspace.entanglement._entropy_bits", lambda p: planted)
        message = rf"^report-range: row 3: eof value {value!r} outside \[0, 1.000000001\]$"
        with pytest.raises(ValidationError, match=message):
            eof_of(*[bell_phi_plus()] * 5)

    def test_array_rows_equal_scalar_calls(self):
        # Schmidt weights p, 1 - p from a product state (p = 0) to a maximally entangled one (p = 1/2)
        states = [PureState((2, 2), np.sqrt([p, 0.0, 0.0, 1.0 - p])) for p in np.linspace(0.0, 0.5, 101)]
        values = eof_of(*states)
        assert [v.hex() for v in values.tolist()] == [pure_entanglement(psi, "eof").hex() for psi in states]


class TestLocalUnitaryInvariance:
    def test_entropy_and_concurrence(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            psi = haar_state((2, 2), rng)
            u = tensor(*haar_unitaries(rng.standard_normal((2, 2, 2, 2))))
            rotated = PureState((2, 2), u @ psi.vector)
            assert abs(pure_entanglement(rotated, "entropy") - pure_entanglement(psi, "entropy")) < 1e-9
            assert abs(concurrence_pure(rotated.reshaped()) - concurrence_pure(psi.reshaped())) < 1e-9


class TestOperationalEntanglement:
    def test_bell_with_perfect_projectors(self):
        local = LocalMeasurementSet(z_projectors(2), z_projectors(2))
        image = map_to_measurement_space(bell_phi_plus(), local)
        assert abs(measurement_space_entanglement(image, "entropy") - 1.0) < 1e-12
        assert image.structure == (2, 2)

    def test_separable_state_scores_zero(self):
        rng = np.random.default_rng(7)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        psi = PureState((2, 2), np.kron(np.array([1.0, 0.0]), plus))
        for _ in range(10):
            local = random_local_set(2, 2, int(rng.integers(2, 5)), int(rng.integers(2, 5)), rng)
            image = map_to_measurement_space(psi, local)
            assert measurement_space_entanglement(image, "entropy") < 1e-10

    def test_noisy_pairs_concurrence_closed_form(self):
        for eta in (0.5, 0.7, 0.9, 1.0):
            local = LocalMeasurementSet(noisy_pair(eta), noisy_pair(eta))
            image = map_to_measurement_space(bell_phi_plus(), local)
            value = measurement_space_entanglement(image, "concurrence")
            assert abs(value - (2 * eta - 1) ** 2) < 1e-9

    def test_monotonicity_sample(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            psi = haar_state((2, 2), rng)
            local = random_local_set(2, 2, int(rng.integers(2, 5)), int(rng.integers(2, 5)), rng)
            image = map_to_measurement_space(psi, local)
            entropy_m = measurement_space_entanglement(image, "entropy")
            assert entropy_m <= pure_entanglement(psi, "entropy") + 1e-9
            pair = random_local_set(2, 2, 2, 2, rng)
            image = map_to_measurement_space(psi, pair)
            conc_m = measurement_space_entanglement(image, "concurrence")
            assert conc_m <= concurrence_pure(psi.reshaped()) + 1e-9

    @pytest.mark.parametrize("state", ["haar-1", "haar-2", "haar-3", "schmidt-0.8-0.6"])
    def test_qubit_bases_never_raise_entanglement(self, state):
        # the class with a proof: rank-1 projective local measurements on a 2x2 state. With Alice's
        # basis the columns of U and Bob's of V, the image is |m| for m = U^dagger psi conj(V), so its
        # concurrence is 2 ||m00||m11| - |m01||m10||, at most 2 |det m| = 2 |det psi|
        if state.startswith("haar"):
            psi = haar_state((2, 2), int(state[-1]))
        else:
            psi = PureState((2, 2), np.array([0.8, 0.0, 0.0, 0.6], dtype=complex))
        theta, phi = np.meshgrid(np.linspace(0.0, np.pi / 2, 5), [0.0, 2.0, 4.0])
        c, s, e = np.cos(theta).ravel(), np.sin(theta).ravel(), np.exp(1j * phi).ravel()
        # 15 unitaries, each with its basis as columns
        bases = np.stack([np.stack([c, -s / e], -1), np.stack([s * e, c], -1)], -2)
        columns = bases.swapaxes(1, 2)
        projectors = columns[..., :, None] * columns.conj()[..., None, :]
        alice = np.repeat(projectors, len(bases), axis=0)
        bob = np.tile(projectors, (len(bases), 1, 1, 1))
        images = local_images(psi, alice, bob).reshape(-1, 2, 2)
        m = np.abs(columns.conj()[:, None] @ psi.reshaped() @ bases.conj()[None]).reshape(-1, 2, 2)
        assert np.abs(images - m).max() < 1e-12
        closed_form = 2.0 * np.abs(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
        concurrence = pure_entanglements(images, "concurrence")
        assert np.abs(concurrence - closed_form).max() < 1e-12
        assert concurrence.max() <= pure_entanglement(psi, "concurrence") + 1e-12
        assert pure_entanglements(images, "entropy").max() <= pure_entanglement(psi, "entropy") + 1e-12

    def test_concurrence_needs_two_by_two_grid(self):
        local = random_local_set(2, 2, 3, 2, 9)
        image = map_to_measurement_space(bell_phi_plus(), local)
        with pytest.raises(ValidationError, match="concurrence-dims"):
            measurement_space_entanglement(image, "concurrence")

    def test_explicit_factorization_for_flat_images(self):
        mset = random_local_set(2, 2, 2, 2, 10).joint()
        image = map_to_measurement_space(bell_phi_plus(), mset)
        assert image.structure is None
        with pytest.raises(ValidationError, match="factorization"):
            measurement_space_entanglement(image, "entropy")
        # the factorization is given by attaching the outcome structure
        value = measurement_space_entanglement(dataclasses.replace(image, structure=(2, 2)), "entropy")
        assert value >= 0.0

    def test_report_range_validation(self):
        with pytest.raises(ValidationError):
            EntanglementReport("entropy", 3.0, (2, 2))
        with pytest.raises(ValidationError):
            EntanglementReport("concurrence", 1.5, (2, 2))

    @pytest.mark.parametrize("measure, split, value, exact", [
        ("concurrence", (2, 2), 1.0 + 5e-13, 1.0),
        ("concurrence", (2, 2), -5e-13, 0.0),
        ("entropy", (3, 4), np.log2(3) + 5e-10, np.log2(3)),
        ("eof", (2, 5), -5e-13, 0.0),
        ("entropy", (1, 4), 3e-16, 0.0),
    ])  # fmt: skip
    def test_report_clips_values_within_tolerance_to_the_exact_range(self, measure, split, value, exact):
        report = EntanglementReport(measure, value, split)
        assert type(report.value) is float and report.value.hex() == exact.hex()
        stacked = EntanglementReport(measure, np.array([0.0, value, 0.0]), split).value
        assert stacked.tolist() == [0.0, exact, 0.0] and not np.signbit(stacked).any()

    def test_report_names_an_unknown_measure_as_the_kernel_does(self):
        message = r"^measure-name: unknown measure 'negativity'; use \('entropy', 'concurrence', 'eof'\)$"
        with pytest.raises(ValidationError, match=message):
            EntanglementReport("negativity", 5.0, (2, 2))
        with pytest.raises(ValidationError, match=message):
            pure_entanglements(np.eye(2)[None] / np.sqrt(2), "negativity")

    @pytest.mark.parametrize("measure", ["entropy", "concurrence", "eof"])
    def test_image_is_scored_without_building_a_state(self, monkeypatch, measure):
        local = LocalMeasurementSet(noisy_pair(0.8), noisy_pair(0.7))
        image = map_to_measurement_space(bell_phi_plus(), local)
        expected = pure_entanglements(image.amplitudes.reshape(1, 2, 2), measure)[0]

        def refuse(self):
            raise AssertionError("a PureState was built")

        monkeypatch.setattr(PureState, "__post_init__", refuse)
        assert measurement_space_entanglement(image, measure) == expected


class TestPureEntanglement:
    def test_eof_off_two_by_two_is_the_entropy(self):
        rng = np.random.default_rng(11)
        for dims in ((3, 3), (2, 3), (1, 4), (2, 2, 2)):
            psi = haar_state(dims, rng)
            assert pure_entanglement(psi, "eof") == pure_entanglement(psi, "entropy")

    def test_two_by_two_eof_is_the_entropy(self):
        psi = haar_state((2, 2), 12)
        assert pure_entanglement(psi, "eof").hex() == pure_entanglement(psi, "entropy").hex()

    def test_concurrence_stays_two_by_two(self):
        with pytest.raises(ValidationError, match="concurrence-dims"):
            pure_entanglement(haar_state((3, 3), 13), "concurrence")

    def test_unknown_measure(self):
        with pytest.raises(ValidationError, match="measure-name"):
            pure_entanglement(bell_phi_plus(), "negativity")

    def test_out_of_range_value_is_rejected(self, monkeypatch):
        # the kernel's entropy step, over the squared Schmidt coefficients of every row at once
        monkeypatch.setattr("mspace.entanglement._entropy_bits", lambda p: np.full(len(p), 1.5))
        with pytest.raises(ValidationError, match="report-range"):
            pure_entanglement(bell_phi_plus(), "entropy")

    def test_single_subsystem_messages(self):
        psi = haar_state((4,), 3)
        split = r"^schmidt-split: need at least two subsystems, got dims \(4,\)$"
        for measure in ("entropy", "eof"):
            with pytest.raises(ValidationError, match=split):
                pure_entanglement(psi, measure)
        dims = r"^concurrence-dims: need a 2x2 pure state, got dims \(4,\)$"
        with pytest.raises(ValidationError, match=dims):
            pure_entanglement(psi, "concurrence")


class TestPureEntanglements:
    STACK = np.stack([haar_state((2, 2), seed).reshaped() for seed in range(4)])

    @pytest.mark.parametrize("value", [1.5, -0.5, float("nan")])
    def test_planted_row_is_named(self, monkeypatch, value):
        real = concurrence_pure

        def planted(a):
            c = real(a)
            c[2] = value
            return c

        monkeypatch.setattr("mspace.entanglement.concurrence_pure", planted)
        message = rf"^report-range: row 2: concurrence {value!r} outside \[0, 1\]$"
        with pytest.raises(ValidationError, match=message):
            pure_entanglements(self.STACK, "concurrence")

    def test_planted_entropy_row_is_named(self, monkeypatch):
        monkeypatch.setattr("mspace.entanglement._entropy_bits", lambda p: np.array([0.5, 0.25, 1.0, 2.0]))
        with pytest.raises(ValidationError, match=r"^report-range: row 3: entropy value 2.0 outside \[0, "):
            pure_entanglements(self.STACK, "entropy")

    def test_one_state_message_names_no_row(self, monkeypatch):
        monkeypatch.setattr("mspace.entanglement._entropy_bits", lambda p: np.full(len(p), 1.5))
        with pytest.raises(ValidationError, match=r"^report-range: entropy value 1.5 outside \[0, "):
            pure_entanglements(self.STACK[:1], "entropy")

    def test_concurrence_needs_two_by_two_matrices(self):
        with pytest.raises(ValidationError, match="^concurrence-dims: need 2x2 amplitudes, got shape"):
            pure_entanglements(np.ones((3, 2, 3)) / np.sqrt(6), "concurrence")

    def test_unknown_measure(self):
        with pytest.raises(ValidationError, match="measure-name"):
            pure_entanglements(self.STACK, "negativity")
