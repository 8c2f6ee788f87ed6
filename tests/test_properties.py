"""Properties of the local map, its local construction, the channel checks,
protocol scoring and the JSON file reader on generated inputs.

Inputs span dimensions 1-6 and outcome counts 1-6 per party (1-4 for the
construction and for protocols), with rank-deficient and zero operators and
states chosen to give outcomes of probability zero. Channels act on qubits
with 1-4 Kraus operators, rank-deficient ones among them, on entangled and
product states. Reports are nested dicts and lists of the scalar types the
CLI emits, and report tables, given as columns, of those types and of numpy
scalars, with zero rows, one row or a few. Files are JSON documents of
nulls, booleans, int64 integers, floats (non-finite ones among them) and
strings, nested in arrays and objects. The ``[re, im]`` pair converters get
vectors and matrices of number pairs, and the same with ragged rows, pairs of
0-3 entries, and entries that are not numbers: null, booleans, strings,
objects, lists and integers past a double; matrices also in batches of 1-3.
The profile is derandomized, so every run tests the same examples.
"""

import json
import struct

import numpy as np
import pytest
from conftest import (
    complex_pairs_reference,
    density_of,
    emit_reference,
    entropy_reference,
    konrad_trials_reference,
    noisy_pair_reference,
    probabilities_reference,
    rows_of,
    sweep_rows_reference,
    wootters_eof,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mspace.cli import build_parser, cmd_sweep
from mspace.entanglement import (
    MEASURES,
    measurement_space_entanglement,
    pure_entanglement,
    pure_entanglements,
)
from mspace.files import _read_json, pairs_to_matrices, pairs_to_vector
from mspace.linalg import (
    CHUNK_BYTES,
    PureState,
    ValidationError,
    bell_phi_plus,
    haar_blocks,
    haar_state,
    haar_unitaries,
    seeded_chunks,
    tensor,
)
from mspace.locc import (
    KONRAD_TOL,
    MAX_KRAUS,
    Channel,
    channel_output,
    konrad_check,
    random_konrad_trials,
    run_locc_construction,
)
from mspace.measurement import (
    LocalMeasurementSet,
    MeasurementSet,
    _gram,
    _identity_deviation,
    _pair_deviations,
    map_to_measurement_space,
    noisy_operators,
    noisy_pair,
    random_measurement_set,
    z_projectors,
)
from mspace.protocols import (
    ProtocolSpec,
    outcome_tables,
    single_protocol,
    success_rates_mspace,
    success_rates_original,
)
from mspace.report import _emit_json, emit

PROFILE = settings(derandomize=True, deadline=None, max_examples=100, database=None)


def haar(n, rng):
    """A Haar n x n unitary from ``rng``."""
    return haar_unitaries(rng.standard_normal((2, n, n)))


def complete_set(d, ranks, rng):
    """A complete set whose operator m has rank at most ranks[m].

    The rows of a Haar isometry X of shape (sum(ranks), d) are cut into
    blocks X_m of ranks[m] rows, and M_m = Y_m X_m for a random isometry Y_m
    of shape (d, ranks[m]). Then sum_m M_m^dag M_m = X^dag X = 1. A rank of
    0 gives the zero operator.
    """
    total = sum(ranks)
    x = haar(total, rng)[:, :d]
    ops, row = [], 0
    for m, r in enumerate(ranks):
        y = haar(d, rng)[:, :r]
        ops.append(y @ x[row : row + r])
        row += r
    return MeasurementSet(d, tuple(map(str, range(len(ranks)))), ops)


def complete_ranks(draw, d, n):
    ranks = draw(st.lists(st.integers(0, d), min_size=n, max_size=n))
    # the ranks must add up to at least d for the set to be complete
    ranks[-1] = max(ranks[-1], d - sum(ranks[:-1]))
    return ranks


@st.composite
def party(draw, top):
    d = draw(st.integers(1, top))
    n = draw(st.integers(1, top))
    return d, complete_ranks(draw, d, n)


@st.composite
def local_case(draw, top=6):
    (d_a, ranks_a), (d_b, ranks_b) = draw(party(top)), draw(party(top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    local = LocalMeasurementSet(complete_set(d_a, ranks_a, rng), complete_set(d_b, ranks_b, rng))
    psi = haar_state((d_a, d_b), rng)
    if draw(st.booleans()):
        # a product state from the kernel of Alice's first operator, when it has
        # one, so every outcome (0, b) has probability zero
        _, s, vh = np.linalg.svd(local.alice.stack[0])
        if s[-1] < 1e-12:
            bob_part = haar_state((d_b,), rng).vector
            psi = PureState((d_a, d_b), np.kron(vh[-1].conj(), bob_part))
    return psi, local


@PROFILE
@given(local_case())
def test_kernel_matches_explicit_joint_set(case):
    psi, local = case
    image = map_to_measurement_space(psi, local)
    joint = local.joint()
    whole = PureState((psi.dim,), psi.vector)
    reference = probabilities_reference(whole, joint)
    assert local.labels == joint.labels
    assert image.structure == local.structure
    np.testing.assert_allclose(image.probabilities(), reference, rtol=0, atol=1e-12)
    # the joint set maps on the whole space as the one-party case of a pair
    flat = map_to_measurement_space(whole, joint)
    assert flat.structure is None
    np.testing.assert_allclose(flat.probabilities(), reference, rtol=0, atol=1e-12)


def _assert_pair_deviations(ga, gb, rtol):
    """The factored deviations of a pair against each Gram matrix's and their Kronecker product's,
    max |G - 1| taken literally: ``_identity_deviation`` shares the pass under test."""

    def literal(g):
        return np.abs(g - np.eye(g.shape[-1])).max(axis=(-2, -1))

    dev_a, dev_b, joint = _pair_deviations(ga, gb)
    assert np.array_equal(dev_a, literal(ga)) and np.array_equal(dev_b, literal(gb))
    assert np.array_equal(_identity_deviation(ga), dev_a)
    reference = literal(tensor(ga, gb))
    assert joint.shape == reference.shape
    assert np.all(np.abs(joint - reference) <= rtol * reference)


@PROFILE
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-2]),
    st.sampled_from([None, 3]),
    st.integers(0, 2**32 - 1),
)
def test_factored_pair_deviation_matches_the_kronecker_product(d_a, d_b, delta, stacked, seed):
    """Near-identity Gram matrices: those of random complete sets whose operators are moved by
    ``delta``, one pair or a stack of three."""
    rng = np.random.default_rng(seed)

    def gram(d):
        ops = random_measurement_set(d, int(rng.integers(1, 4)), rng).stack
        return _gram(ops + delta * (rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape)))

    if stacked is None:
        _assert_pair_deviations(gram(d_a), gram(d_b), 1e-15)
    else:
        _assert_pair_deviations(*(np.stack([gram(d) for _ in range(stacked)]) for d in (d_a, d_b)), 1e-15)


@PROFILE
@given(
    st.lists(st.floats(0, 1), min_size=1, max_size=4),
    st.integers(1, 5),
    st.lists(st.floats(0.5, 1.5), min_size=5, max_size=5),
)
def test_factored_pair_deviation_is_exact_on_diagonal_grams(etas, d, scales):
    """Diagonal Gram matrices: noisy pairs, one per efficiency, against z-projectors with each
    projector scaled, so the Gram matrix holds ``scales`` on its diagonal."""
    noisy = _gram(noisy_operators(etas))
    z = _gram(z_projectors(d).stack * np.sqrt(scales[:d])[:, None, None])
    for ga, gb in ((noisy, z), (z, noisy), (noisy, noisy[::-1]), (z, z)):
        _assert_pair_deviations(ga, gb, 0.0)


@PROFILE
@given(local_case())
def test_image_has_unit_norm(case):
    psi, local = case
    image = map_to_measurement_space(psi, local)
    assert abs(float(np.linalg.norm(image.amplitudes)) - 1.0) <= 1e-12


@PROFILE
@given(local_case())
def test_local_sets_do_not_raise_entropy(case):
    psi, local = case
    image = map_to_measurement_space(psi, local)
    after = measurement_space_entanglement(image, "entropy")
    assert after <= pure_entanglement(psi, "entropy") + 1e-9


@PROFILE
@given(local_case(top=4))
def test_local_sets_do_not_raise_eof(case):
    psi, local = case
    image = map_to_measurement_space(psi, local)
    assert measurement_space_entanglement(image, "eof") <= pure_entanglement(psi, "eof") + 1e-9


@PROFILE
@given(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_two_qubit_eof_routes_agree(p, seed):
    # Schmidt coefficients sqrt(p), sqrt(1 - p) under random local unitaries,
    # product and maximally entangled states included
    rng = np.random.default_rng(seed)
    u = np.kron(haar(2, rng), haar(2, rng))
    psi = PureState((2, 2), u @ np.array([np.sqrt(p), 0.0, 0.0, np.sqrt(1.0 - p)]))
    assert abs(pure_entanglement(psi, "eof") - wootters_eof(psi)) <= 1e-12


@st.composite
def amplitude_stack(draw):
    """A measure and a stack of 1-6 states it applies to: ``d_a x d_b`` from 1x2 to 5x7 for
    entropy and eof, 2x2 for concurrence, with product states among them."""
    measure = draw(st.sampled_from(MEASURES))
    dims = (2, 2) if measure == "concurrence" else (draw(st.integers(1, 5)), draw(st.integers(2, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = []
    for product in draw(st.lists(st.booleans(), min_size=1, max_size=6)):
        if product:
            a, b = haar_state(dims[:1], rng).vector, haar_state(dims[1:], rng).vector
            states.append(PureState(dims, np.kron(a, b)))
        else:
            states.append(haar_state(dims, rng))
    return measure, states


@PROFILE
@given(amplitude_stack())
@example(("eof", [bell_phi_plus(), PureState((2, 2), np.array([1.0, 0.0, 0.0, 0.0]))]))
def test_stacked_kernel_rows_equal_one_state_calls(case):
    measure, states = case
    values = pure_entanglements(np.stack([psi.reshaped() for psi in states]), measure)
    assert values.shape == (len(states),)
    for psi, value in zip(states, values.tolist()):
        assert value.hex() == pure_entanglement(psi, measure).hex()
        if measure != "concurrence":
            assert abs(value - entropy_reference(psi)) <= 1e-12


@PROFILE
@given(local_case())
def test_dilation_matches_per_pair_loop(case):
    psi, local = case
    (d_a, d_b), (n_a, n_b) = psi.dims, local.structure
    expected = np.zeros((d_a, d_b, n_a, n_b), dtype=complex)
    for a, op_a in enumerate(local.alice.stack):
        for b, op_b in enumerate(local.bob.stack):
            expected[:, :, a, b] = op_a @ psi.reshaped() @ op_b.T
    dilated = run_locc_construction(psi, local).dilated
    assert dilated.dims == (d_a, d_b, n_a, n_b)
    np.testing.assert_allclose(dilated.reshaped(), expected, rtol=0, atol=1e-12)


@PROFILE
@given(local_case(top=4))
def test_fourier_outcomes_are_uniform(case):
    psi, local = case
    d_a = psi.dims[0]
    trace = run_locc_construction(psi, local)
    np.testing.assert_allclose(trace.alice.fourier.outcome_totals, 1 / d_a, rtol=0, atol=1e-12)
    # Bob's deviation on each Alice outcome j_a
    for dev in trace.bob.fourier.max_deviation:
        assert dev <= 1e-12


@PROFILE
@given(local_case(top=4))
def test_ancilla_diagonal_is_the_image(case):
    psi, local = case
    trace = run_locc_construction(psi, local)
    expected = map_to_measurement_space(psi, local).probabilities()
    np.testing.assert_allclose(trace.ancilla_diagonal, expected, rtol=0, atol=1e-12)


@PROFILE
@given(local_case(top=4))
def test_ancilla_output_is_a_density_matrix_by_its_form(case):
    # the run holds it as X^T W X^* with W >= 0 and checks none of this itself
    psi, local = case
    ancilla = run_locc_construction(psi, local).ancilla
    assert not ancilla.flags.writeable
    assert np.abs(ancilla - ancilla.conj().T).max() <= 1e-10
    assert abs(np.trace(ancilla) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(ancilla).min() >= -1e-10


@PROFILE
@given(local_case(top=4))
def test_alice_branch_probabilities_sum_to_one(case):
    psi, local = case
    total = sum(run_locc_construction(psi, local).alice.probabilities)
    assert abs(total - 1.0) <= 1e-12


@PROFILE
@given(local_case(top=4))
def test_every_branch_is_uniform_and_unit(case):
    psi, local = case
    d_a, d_b = psi.dims
    trace = run_locc_construction(psi, local)
    np.testing.assert_allclose(trace.alice.probabilities, 1 / d_a, rtol=0, atol=1e-12)
    # Bob's outcomes on every Alice outcome j_a
    np.testing.assert_allclose(trace.bob.probabilities, 1 / d_b, rtol=0, atol=1e-12)
    assert trace.bob.fourier.max_deviation.shape == (d_a,)
    assert np.all(trace.bob.fourier.max_deviation <= 1e-12)
    norms = np.linalg.norm(trace.branch_ancillas, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)


def _qubit_state(draw_product, rng):
    if draw_product:
        return PureState((2, 2), np.kron(haar_state((2,), rng).vector, haar_state((2,), rng).vector))
    return haar_state((2, 2), rng)


@st.composite
def qubit_channel(draw, rng):
    """A qubit channel with 1-4 Kraus operators, rank-deficient ones among them."""
    n = draw(st.integers(1, 4))
    ranks = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    ranks[-1] = max(ranks[-1], 2 - sum(ranks[:-1]))
    return Channel(complete_set(2, ranks, rng).stack)


@st.composite
def channel_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = _qubit_state(draw(st.booleans()), rng)
    return psi, draw(qubit_channel(rng)), draw(qubit_channel(rng))


def _identity_padded(kraus):
    """The identity channel as a Kraus stack as long as ``kraus``."""
    eye = np.zeros_like(kraus)
    eye[0] = np.eye(2)
    return eye


def _konrad(psi, kraus_a, kraus_b):
    lhs, bound = konrad_check(psi.reshaped()[None], kraus_a[None], kraus_b[None])
    return lhs[0], bound[0]


@PROFILE
@given(channel_case())
def test_single_sided_factorization_holds(case):
    psi, channel, _ = case
    lhs, rhs = _konrad(psi, channel.kraus, np.eye(2)[None])
    assert abs(lhs - rhs) < 1e-8


@PROFILE
@given(channel_case())
def test_two_sided_bound_holds(case):
    psi, channel_a, channel_b = case
    lhs, bound = _konrad(psi, channel_a.kraus, channel_b.kraus)
    assert lhs <= bound + KONRAD_TOL


@PROFILE
@given(channel_case())
def test_channel_output_matches_kron_sum(case):
    psi, channel_a, channel_b = case
    rho = density_of(psi).matrix
    eye = np.eye(2)

    def kron_sum(kraus_a, kraus_b):
        return sum(
            np.kron(a, b) @ rho @ np.kron(a, b).conj().T for a in kraus_a for b in kraus_b
        )

    cases = (
        (channel_a.kraus, [eye]),
        ([eye], channel_b.kraus),
        (channel_a.kraus, channel_b.kraus),
    )
    for kraus_a, kraus_b in cases:
        kraus = (np.asarray(kraus_a, dtype=complex), np.asarray(kraus_b, dtype=complex))
        out = channel_output(psi.reshaped(), *kraus)
        np.testing.assert_allclose(out.matrix, kron_sum(kraus_a, kraus_b), rtol=0, atol=1e-12)
    # the three at once, as one stack over a leading axis
    stacked = channel_output(
        np.stack([psi.reshaped()] * 3),
        np.stack([channel_a.kraus, _identity_padded(channel_a.kraus), channel_a.kraus]),
        np.stack([_identity_padded(channel_b.kraus), channel_b.kraus, channel_b.kraus]),
    )
    for out, (kraus_a, kraus_b) in zip(stacked.matrix, cases):
        np.testing.assert_allclose(out, kron_sum(kraus_a, kraus_b), rtol=0, atol=1e-12)


@PROFILE
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5), st.integers(1, 3))
def test_haar_blocks_of_a_stack_equal_single_calls(seed, d, n, count):
    g = np.random.default_rng(seed).standard_normal((count, 2, 2, n * d, n * d))
    stacked = haar_blocks(g, d)
    assert stacked.shape == (count, 2, n, d, d)
    for idx in np.ndindex(count, 2):
        ops = haar_blocks(g[idx], d)
        assert np.array_equal(stacked[idx], ops)
        gram = sum(m.conj().T @ m for m in ops)
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-12


@PROFILE
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans())
def test_konrad_trials_equal_per_trial_draws(seed, count, two_sided):
    psi, kraus_a, kraus_b = random_konrad_trials(
        [np.random.default_rng((seed, t)) for t in range(count)], two_sided
    )
    assert kraus_a.shape == kraus_b.shape == (count, MAX_KRAUS, 2, 2)
    for t in range(count):
        # the reference: a Haar state, then per side a Kraus count and a Haar block column
        rng = np.random.default_rng((seed, t))
        assert np.array_equal(psi[t], haar_state((2, 2), rng).reshaped())
        sides = [np.eye(2)[None], np.eye(2)[None]]
        for side in range(2 if two_sided else 1):
            k = int(rng.integers(1, MAX_KRAUS + 1))
            sides[side] = haar_unitaries(rng.standard_normal((2, 2 * k, 2 * k)))[:, :2].reshape(k, 2, 2)
        for got, ops in zip((kraus_a[t], kraus_b[t]), sides):
            assert np.array_equal(got[: len(ops)], ops) and not np.any(got[len(ops) :])



ETA = st.floats(0.0, 1.0, allow_subnormal=False)


@PROFILE
@given(ETA, ETA, st.integers(1, 40))
@example(0.5, 1.0, 1)  # one step
@example(1.0, 0.5, 6)  # a reversed range
@example(0.0, 1.0, 11)
def test_stacked_sweep_rows_equal_the_per_eta_composition(eta_start, eta_end, steps):
    argv = ["sweep", "--eta-start", repr(eta_start), "--eta-end", repr(eta_end), "--steps", str(steps)]
    report, code = cmd_sweep(build_parser().parse_args(argv))
    expected = sweep_rows_reference(eta_start, eta_end, steps)
    rows = rows_of(report["results"])
    assert code == 0 and len(rows) == steps
    for got, want in zip(rows, expected):
        assert got.keys() == want.keys()
        # bit for bit: equal floats of equal sign
        assert all(float(got[k]).hex() == float(want[k]).hex() for k in want), (got, want)


@PROFILE
@given(ETA)
def test_noisy_pair_is_the_one_eta_build(eta):
    assert noisy_pair(eta).stack.tobytes() == noisy_pair_reference(eta).stack.tobytes()


SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    # the boundaries where the seed gains a 32-bit entropy word
    st.sampled_from([2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1]),
    st.integers(0, 2**256),
)


@PROFILE
@given(SEEDS, st.integers(1, 40), st.integers(1, 9))
@example(10**39 + 7, 12, 5)
def test_seeded_chunks_draw_what_default_rng_draws(seed, trials, per_chunk):
    # chunks of per_chunk trials, so that most runs cross a chunk boundary
    seen = []
    for chunk, rngs in seeded_chunks(seed, trials, CHUNK_BYTES // per_chunk):
        assert len(chunk) <= per_chunk
        for t, rng in zip(chunk, rngs, strict=True):
            want = np.random.default_rng((seed, t))
            assert rng.bit_generator.state == want.bit_generator.state
            assert rng.standard_normal() == want.standard_normal()
            assert rng.integers(1, MAX_KRAUS + 1) == want.integers(1, MAX_KRAUS + 1)
            seen.append(t)
    assert seen == list(range(trials))


@PROFILE
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 9), st.booleans())
def test_stacked_konrad_draws_equal_one_qr_per_trial(seed, trials, per_chunk, two_sided):
    # chunks of per_chunk trials, so that most runs cross a chunk boundary
    chunks = list(seeded_chunks(seed, trials, CHUNK_BYTES // per_chunk))
    whole = [np.random.default_rng((seed, t)) for t in range(trials)]
    expected = konrad_trials_reference(whole, two_sided)
    got = [random_konrad_trials(rngs, two_sided) for _, rngs in chunks]
    for part, want in zip(zip(*got), expected):
        assert np.array_equal(np.concatenate(part), want)
    counts = {int(np.count_nonzero(np.any(ops, axis=(-2, -1)))) for ops in expected[1]}
    if trials >= 12:
        assert len(counts) > 1  # mixed Kraus counts within one run

def protocol_spec(draw, d_a, ranks_a, d_b):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alice = complete_set(d_a, ranks_a, rng)
    unitaries = [haar(d_b, rng) for _ in ranks_a]
    # each verify pair is a complete two-operator set whose ranks add up to d_b
    verify = [complete_set(d_b, [r, d_b - r], rng).stack for r in draw(
        st.lists(st.integers(0, d_b), min_size=len(ranks_a), max_size=len(ranks_a))
    )]
    return single_protocol(haar_state((d_a, d_b), rng), alice, unitaries, verify)


@st.composite
def protocol_case(draw):
    (d_a, ranks_a), d_b = draw(party(4)), draw(st.integers(1, 4))
    return protocol_spec(draw, d_a, ranks_a, d_b)


@st.composite
def protocol_batch_case(draw):
    """Up to five protocols of one shape, each with its own rank pattern."""
    d_a, d_b, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    count = draw(st.integers(1, 5))
    return [protocol_spec(draw, d_a, complete_ranks(draw, d_a, n), d_b) for _ in range(count)]


@PROFILE
@given(protocol_case())
def test_success_rates_agree(spec):
    delta = success_rates_original(spec)[0] - success_rates_mspace(spec)[0]
    assert abs(delta) < 1e-10


@PROFILE
@given(protocol_batch_case())
def test_batched_scores_equal_per_spec_scores(specs):
    stack = ProtocolSpec(
        np.concatenate([s.psi for s in specs]),
        np.concatenate([s.alice for s in specs]),
        np.concatenate([s.bob_unitaries for s in specs]),
        np.concatenate([s.verify_pairs for s in specs]),
        range(len(specs)),
    )
    for rates in (success_rates_original, success_rates_mspace):
        np.testing.assert_allclose(rates(stack), [rates(s)[0] for s in specs], rtol=0, atol=1e-15)
    # the batched table against ||(A_k (x) M_yk U_k) psi||^2, one protocol and outcome at a time
    table = outcome_tables(stack)
    tables = np.stack([table.p_success, table.p_failure], axis=-1)
    for t, spec in enumerate(specs):
        for k, (a, pair, u) in enumerate(zip(spec.alice[0], spec.verify_pairs[0], spec.bob_unitaries[0])):
            for y, m in enumerate(pair):
                p = np.linalg.norm(np.kron(a, m @ u) @ spec.psi[0].reshape(-1)) ** 2
                assert abs(tables[t, k, y] - p) < 1e-12


def _perturbed(mset, eps, rng):
    """``mset`` with each operator multiplied by ``1 + eps H`` for one random
    Hermitian ``H`` whose entries are at most 1 in modulus."""
    d = mset.dim
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (z + z.conj().T) / 2.0
    h /= max(float(np.max(np.abs(h))), 1.0)
    skew = np.eye(d) + eps * h
    return MeasurementSet(d, mset.labels, [op @ skew for op in mset.stack])


@PROFILE
@given(local_case(top=4), st.floats(1e-9, 1e-4), st.floats(0.0, 1.0))
def test_construction_follows_the_map_under_a_loosened_tolerance(case, tol, share):
    psi, local = case
    rng = np.random.default_rng(int(share * 2**32))
    # each party's Gram deviation stays below about tol / 8, the product's below tol / 3
    eps = share * tol / 16.0
    loose = LocalMeasurementSet(_perturbed(local.alice, eps, rng), _perturbed(local.bob, eps, rng))
    gram = np.kron(*(np.einsum("mji,mjk->ik", s.stack.conj(), s.stack) for s in (loose.alice, loose.bob)))
    assert float(np.max(np.abs(gram - np.eye(psi.dim)))) <= tol
    trace = run_locc_construction(psi, loose, tol)
    expected = map_to_measurement_space(psi, loose, tol).probabilities()
    np.testing.assert_allclose(trace.ancilla_diagonal, expected, rtol=0, atol=1e-9)
    norms = np.linalg.norm(trace.branch_ancillas, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)


float_free_reports = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@PROFILE
@given(float_free_reports)
def test_float_free_reports_emit_as_json_dumps(report):
    assert _emit_json(report) == json.dumps(report, indent=2)


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
)


@PROFILE
@given(st.lists(finite_floats, min_size=1, max_size=6))
def test_finite_floats_read_back_bit_for_bit(values):
    loaded = json.loads(_emit_json({"values": values}))["values"]
    assert all(type(x) is float for x in loaded)
    assert [struct.pack("<d", x) for x in loaded] == [struct.pack("<d", float(v)) for v in values]


@PROFILE
@given(st.booleans(), st.integers(-(2**63), 2**63 - 1))
def test_numpy_bools_and_ints_emit_as_bool_and_int(flag, count):
    loaded = json.loads(_emit_json({"flag": np.bool_(flag), "count": np.int64(count)}))
    assert type(loaded["flag"]) is bool and loaded["flag"] == flag
    assert type(loaded["count"]) is int and loaded["count"] == count


@PROFILE
@given(st.sampled_from([float, np.float64, np.float32]), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_floats_are_rejected(kind, value):
    with pytest.raises(ValidationError) as info:
        _emit_json({"results": [{"value": kind(value)}]})
    assert info.value.invariant == "report-nonfinite"


# key text a row template and a JSON string must carry through: % and braces for the
# template, quotes and backslashes for the escaping, non-ASCII for the \u escapes
TABLE_KEYS = st.text(st.sampled_from('ab%{}"\\ \u00e9\u20ac\U0001f600'), max_size=4)
COLUMN_VALUES = [
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.text(max_size=4),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(),
    st.one_of(
        st.floats(width=32).map(np.float32),
        st.floats().map(np.float64),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.booleans().map(np.bool_),
    ),
    st.one_of(st.booleans(), st.integers(), st.floats(), st.none(), st.text(max_size=2)),
]


@st.composite
def report_tables(draw):
    """A report table as columns: one list (or a numpy array) of one kind per key."""
    keys = draw(st.lists(TABLE_KEYS, min_size=1, max_size=5, unique=True))
    count = draw(st.sampled_from([0, 1, 1, 2, 5]))
    columns = {}
    for key in keys:
        values = draw(st.lists(draw(st.sampled_from(COLUMN_VALUES)), min_size=count, max_size=count))
        plain = all(type(v) in (bool, float) for v in values) or all(type(v) is int for v in values)
        if plain and values and abs(max(values, key=abs)) < 2**63 and draw(st.booleans()):
            values = np.array(values)
        columns[key] = values
    return columns


HEAD_SCALARS = st.one_of(st.integers(), st.floats(), st.text(max_size=3))


@PROFILE
@given(report_tables(), HEAD_SCALARS, st.sampled_from(["json", "tsv"]))
def test_report_table_prints_as_the_per_value_walk(columns, head, fmt):
    report = {"command": "table", "head": head, "results": columns}
    try:
        expected = emit_reference(report, fmt)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            emit(report, fmt)
        assert info.value.invariant == "report-nonfinite" and str(info.value) == str(exc)
    else:
        assert emit(report, fmt) == expected


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("head, named", [(0.5, "nan"), (-np.inf, "-inf")])
def test_first_non_finite_value_named_in_emission_order(fmt, head, named):
    # column by column the inf comes first; row by row, after the scalars, the NaN does
    report = {"command": "table", "head": head, "results": {"a": [0.5, np.inf], "b": [np.nan, 1.0]}}
    message = f"^report-nonfinite: the report holds the non-finite value {named}$"
    with pytest.raises(ValidationError, match=message):
        emit(report, fmt)


# ---------------------------------------------------------------------------
# the JSON file reader

JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**63), 2**63 - 1) | st.floats() | st.text(max_size=8)
)
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


@PROFILE
@given(JSON_DOCUMENTS)
def test_file_reads_as_json_reads_it(tmp_path_factory, doc):
    # orjson reads most of these and json the rest (NaN, Infinity, lone surrogates); repr tells
    # floats apart by their bits, NaN included, and ints from floats and bools
    text = json.dumps(doc)
    path = tmp_path_factory.getbasetemp() / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert repr(_read_json(path)) == repr(json.loads(text))


# ---------------------------------------------------------------------------
# the [re, im] pair converters

NUMBERS = st.floats() | st.integers(-(2**63), 2**64)
PAIRS = st.tuples(NUMBERS, NUMBERS).map(list)
NON_NUMBERS = (
    st.none()
    | st.booleans()
    | st.text(max_size=4)
    | st.integers(2**1024, 2**1030)  # past a double
    | st.lists(NUMBERS, max_size=2)
    | st.dictionaries(st.text(max_size=2), NUMBERS, max_size=2)
)
# pairs of 0-3 entries of any kind, or something that is no pair at all
ODD_PAIRS = st.lists(NUMBERS | NON_NUMBERS, max_size=3) | NON_NUMBERS


def regular_pairs(nested):
    """A vector of number pairs, or a matrix of equally long rows of them."""
    if not nested:
        return st.lists(PAIRS, max_size=6)
    return st.integers(0, 4).flatmap(lambda width: st.lists(st.lists(PAIRS, min_size=width, max_size=width), max_size=4))


def odd_pairs(nested):
    """Vectors and matrices with ragged rows, odd pairs and non-numbers among the regular pairs."""
    pair = PAIRS | ODD_PAIRS
    if not nested:
        return st.lists(pair, max_size=4) | NON_NUMBERS
    return st.lists(st.lists(pair, max_size=3) | NON_NUMBERS, max_size=3) | NON_NUMBERS


def _conversion(convert, rows, *args):
    try:
        out = convert(rows, *args)
    except ValidationError as exc:
        return str(exc)
    return [(a.shape, a.tobytes()) for a in out] if isinstance(out, list) else (out.shape, out.tobytes())


def _nested(depth):
    deep = []
    for _ in range(depth):
        deep = [deep]
    return deep


@settings(PROFILE, max_examples=400)
@given(
    st.booleans().flatmap(
        lambda nested: st.tuples(st.lists(regular_pairs(nested) | odd_pairs(nested), min_size=1, max_size=3), st.just(nested))
    )
)
@example(([[]], True))
@example(([[[], []]], True))
@example(([{"": 1.0}], True))
@example(([[[True, False]]], False))
@example(([[[[1.0, 0.0], [0.0, False]]], [[[1.0, 0.0]]]], True))
def test_pairs_convert_as_the_per_entry_expression_did(case):
    # the same array bits, or the same invariant and message; a boolean part, which the old
    # expression read as 1 or 0, now fails as complex-pairs too
    _assert_converts_as_the_reference(*case)


@pytest.mark.parametrize("nested", [False, True])
def test_pairs_nested_5000_deep_fail_as_the_per_entry_expression_did(nested):
    # outside hypothesis, whose report of an example recurses through it
    _assert_converts_as_the_reference([_nested(5000)], nested)


def _assert_converts_as_the_reference(arrays, nested):
    """Each of ``arrays`` converts alone as the reference does, and a matrix batch of them as the
    references of all: the first failure's message, or every array."""
    expected = []
    for rows in arrays:
        outcome = _conversion(complex_pairs_reference, rows, nested)
        if not isinstance(outcome, str):
            pairs = [pair for row in rows for pair in row] if nested else rows
            if any(type(part) is bool for pair in pairs for part in pair):
                outcome = _conversion(complex_pairs_reference, None, nested)
        expected.append(outcome)
    assert [_conversion(_one, rows, nested) for rows in arrays] == expected
    if nested:
        failures = [outcome for outcome in expected if isinstance(outcome, str)]
        assert _conversion(pairs_to_matrices, arrays) == (failures[0] if failures else expected)


def _one(rows, nested):
    return pairs_to_matrices([rows])[0] if nested else pairs_to_vector(rows)
