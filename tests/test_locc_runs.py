"""One run of the local construction covers every outcome branch, and each party's move
matches its two-operand einsum reference."""

import numpy as np
import pytest
from conftest import measure_party_reference, random_local_set
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mspace.locc as locc
from mspace.linalg import PureState, bell_phi_plus, haar_state
from mspace.measurement import (
    LocalMeasurementSet,
    MeasurementSet,
    map_to_measurement_space,
    random_measurement_set,
    z_projectors,
)


@pytest.mark.parametrize(
    "d_a, d_b, n_a, n_b", [(1, 1, 1, 1), (2, 3, 3, 2), (3, 2, 2, 4), (4, 4, 4, 4)]
)
def test_fourier_step_runs_once_per_party_move(monkeypatch, d_a, d_b, n_a, n_b):
    calls = []
    original = locc.fourier_step

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(locc, "fourier_step", counted)
    rng = np.random.default_rng((d_a, d_b, n_a, n_b))
    psi = haar_state((d_a, d_b), rng)
    trace = locc.run_locc_construction(psi, random_local_set(d_a, d_b, n_a, n_b, rng))
    # Alice once, Bob once over all Alice outcomes
    assert len(calls) == 2
    assert trace.bob.probabilities.shape == (d_a, d_b)
    assert trace.branch_ancillas.shape == (d_a * d_b, n_a * n_b)
    assert trace.fidelities.shape == trace.branch_diagonal_deviations.shape == (d_a * d_b,)


def test_branch_rows_are_alice_then_bob_outcomes():
    rng = np.random.default_rng(3)
    psi = haar_state((3, 2), rng)
    local = random_local_set(3, 2, 2, 3, rng)
    trace = locc.run_locc_construction(psi, local)
    again = locc.run_locc_construction(psi, local)
    np.testing.assert_array_equal(trace.branch_ancillas, again.branch_ancillas)
    np.testing.assert_array_equal(trace.fidelities, again.fidelities)
    phi = trace.dilated.reshaped()  # (sys_A, sys_B, anc_A, anc_B)
    omega_a, omega_b = trace.alice.fourier.vectors, trace.bob.fourier.vectors
    target = trace.mspace.probabilities()
    for j_a in range(3):
        for j_b in range(2):
            k = j_a * 2 + j_b
            # project each sector onto Alice's omega_{j_a}, then Bob's omega_{j_b} after j_a
            amp = np.einsum(
                "mi,nk,ikmn->mn", omega_a[:, :, j_a].conj(), omega_b[j_a, :, :, j_b].conj(), phi
            )
            amp /= np.sqrt(trace.alice.probabilities[j_a] * trace.bob.probabilities[j_a, j_b])
            ancilla = trace.branch_ancillas[k]
            np.testing.assert_allclose(ancilla, amp.reshape(-1), rtol=0, atol=1e-12)
            assert trace.fidelities[k] == pytest.approx(
                abs(ancilla @ trace.mspace.amplitudes) ** 2, rel=0, abs=1e-14
            )
            assert trace.branch_diagonal_deviations[k] == np.max(np.abs(np.abs(ancilla) ** 2 - target))


def test_batched_bob_move_equals_one_move_per_alice_outcome():
    for case in range(100):
        rng = np.random.default_rng((83, case))
        d_a, d_b, n_a, n_b = (int(x) for x in rng.integers(1, 6, size=4))
        psi = haar_state((d_a, d_b), rng)
        dilated = locc.run_locc_construction(psi, random_local_set(d_a, d_b, n_a, n_b, rng)).dilated
        after_alice, _ = locc._measure_party(dilated.reshaped().transpose(0, 2, 1, 3), "A")
        bob_layout = after_alice.transpose(0, 3, 4, 1, 2)
        states, move = locc._measure_party(bob_layout, "B")
        # the run forms only Bob's reset row |0>, the same bits as that row of the full move
        row0, _ = locc._measure_party(bob_layout, "B", rows=1)
        assert np.array_equal(row0, states[:, :, :1])
        for j_a in range(d_a):
            one_states, one = locc._measure_party(bob_layout[j_a], "B")
            assert np.array_equal(states[j_a], one_states)
            for name in ("blocks", "probabilities", "resets", "skipped"):
                assert np.array_equal(getattr(move, name)[j_a], getattr(one, name)), name
            for name in ("vectors", "eigenvalues", "outcome_totals", "max_deviation", "degenerate"):
                assert np.array_equal(getattr(move.fourier, name)[j_a], getattr(one.fourier, name)), name


def test_run_checks_its_pair_once(monkeypatch):
    calls = []
    original = locc._checked_image

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # both names: the map reaches the check through its own module
    monkeypatch.setattr("mspace.measurement._checked_image", counted)
    monkeypatch.setattr(locc, "_checked_image", counted)
    rng = np.random.default_rng(5)
    locc.run_locc_construction(haar_state((3, 2), rng), random_local_set(3, 2, 2, 3, rng))
    assert len(calls) == 1


def _loosened(mset, delta):
    """``mset`` with every operator scaled so that its Gram matrix is ``(1 + delta) 1``."""
    return MeasurementSet(mset.dim, mset.labels, mset.stack * np.sqrt(1 + delta))


@pytest.mark.parametrize("delta, tol", [(0.0, 1e-10), (1e-6, 1e-5)])
def test_run_image_and_dilation_are_the_map_and_dilation_bits(delta, tol):
    for case in range(60):
        rng = np.random.default_rng((89, case))
        d_a, d_b, n_a, n_b = (int(x) for x in rng.integers(1, 6, size=4))
        psi = haar_state((d_a, d_b), rng)
        exact = random_local_set(d_a, d_b, n_a, n_b, rng)
        local = LocalMeasurementSet(_loosened(exact.alice, delta), _loosened(exact.bob, delta))
        trace = locc.run_locc_construction(psi, local, tol)
        image = map_to_measurement_space(psi, local, tol)
        assert np.array_equal(trace.mspace.amplitudes, image.amplitudes)
        assert trace.mspace.amplitudes.shape == image.amplitudes.shape == (len(local.labels),)
        assert trace.mspace.structure == image.structure == (n_a, n_b)
        # the run's dilated state is the dilation of the pair's one checked tensor
        dilated = locc._dilation(locc._checked_image(psi.dims, psi.reshaped(), *local.stacks, tol)[0])
        assert trace.dilated.dims == dilated.dims
        assert np.array_equal(trace.dilated.vector, dilated.vector)


def _party_set(kind, d, n, rng):
    if kind == "z-projectors":
        return z_projectors(d)
    if kind == "one-outcome":
        return MeasurementSet(d, ("0",), [np.eye(d)])
    return random_measurement_set(d, n, rng)


@st.composite
def party_move_case(draw):
    """A pair and its local sets: dims and outcome counts 1-5, ``bell``, ``product0`` or a
    Haar state, each party's set z-projectors, the one-outcome identity or a random one."""
    state = draw(st.sampled_from(["bell", "product0", "random"]))
    dims = (2, 2) if state == "bell" else (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    kinds = [draw(st.sampled_from(["z-projectors", "one-outcome", "random"])) for _ in dims]
    counts = [draw(st.integers(1, 5)) for _ in dims]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = {"bell": bell_phi_plus, "product0": lambda: PureState.basis(dims, 0)}.get(
        state, lambda: haar_state(dims, rng)
    )()
    return psi, LocalMeasurementSet(*(_party_set(k, d, n, rng) for k, d, n in zip(kinds, dims, counts)))


def _same_move(t, party, rows):
    """The party's move on ``t`` against the reference, to 1e-12; returns the move's states.

    The reference eigendecomposes the move's own blocks: a degenerate block leaves its
    eigenbasis free, so two routes to its bits may pick different bases."""
    states, move = locc._measure_party(t, party, rows)
    ref_states, ref = measure_party_reference(t, party, rows, move.blocks)
    np.testing.assert_allclose(move.blocks, ref.blocks, rtol=0, atol=1e-12)
    assert states.shape == ref_states.shape
    np.testing.assert_allclose(states, ref_states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(move.probabilities, ref.probabilities, rtol=0, atol=1e-12)
    np.testing.assert_allclose(move.resets, ref.resets, rtol=0, atol=1e-12)
    assert np.array_equal(move.skipped, ref.skipped)
    return states


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(party_move_case(), st.sampled_from([None, 1]))
@example((PureState.basis((3, 2), 0), LocalMeasurementSet(z_projectors(3), z_projectors(2))), None)
@example((PureState.basis((4, 3), 0), LocalMeasurementSet(z_projectors(4), z_projectors(3))), 1)
@example((bell_phi_plus(), LocalMeasurementSet(*[MeasurementSet(2, ("0",), [np.eye(2)])] * 2)), None)
@example((bell_phi_plus(), LocalMeasurementSet(MeasurementSet(2, ("0",), [np.eye(2)]), z_projectors(2))), 1)
def test_party_moves_match_the_einsum_reference(case, rows):
    psi, local = case
    dilated = locc.run_locc_construction(psi, local).dilated
    after_alice = _same_move(dilated.reshaped().transpose(0, 2, 1, 3), "A", None)
    _same_move(dilated.reshaped().transpose(0, 2, 1, 3), "A", rows)
    _same_move(after_alice.transpose(0, 3, 4, 1, 2), "B", rows)
