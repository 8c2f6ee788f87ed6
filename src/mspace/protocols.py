"""Measure-and-correct communication protocols and their success accounting.

A protocol holds a shared bipartite resource state, Alice's measurement set,
one unitary of Bob per Alice outcome, and per-outcome success/failure
verification operators on Bob's side. Success can be scored two ways: by
direct expectation values on the original state, or by first mapping the
state into measurement space and scoring with rank-1 projectors there. The
two routes agree identically, which is what makes measurement-space
amplitudes operationally meaningful. Protocols of one shape are stacked on a
trial axis; a single protocol is a stack of one.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    NORM_TOL,
    PureState,
    ValidationError,
    _check_dims,
    _require,
    _require_fits,
    _require_unit,
    _row_norms,
    haar_blocks,
    haar_unitaries,
    haar_vectors,
    operator_stack,
    seeded_chunks,
    tensor,
)
from .measurement import (
    MeasurementSet,
    _checked_image,
    _gram,
    _identity_deviation,
    _local_probabilities,
    _require_complete,
    local_product,
)


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """Measure-communicate-correct-verify protocols of one shape, stacked on a leading trial axis.

    ``psi`` is ``(t, d_a, d_b)``, ``alice`` ``(t, n, d_a, d_a)``,
    ``bob_unitaries`` ``(t, n, d_b, d_b)``, one unitary per Alice outcome,
    and ``verify_pairs`` ``(t, n, 2, d_b, d_b)``: ``verify_pairs[t, k]``
    holds ``(M_yk, M_nk)``, Bob's success and failure operators for Alice
    outcome ``k``. Construction checks, for every trial, the state norm, the
    completeness of Alice's set, the unitarity of Bob's operators and the
    completeness of every verify pair. ``trials`` names the trials in error
    messages; without it (a protocol from :func:`single_protocol`) they go
    unnamed.
    """

    psi: np.ndarray
    alice: np.ndarray
    bob_unitaries: np.ndarray
    verify_pairs: np.ndarray
    trials: Sequence[int] | None = None

    def __post_init__(self):
        trials = self.trials
        count, n, d_a = self.alice.shape[:3]
        d_b = self.psi.shape[-1]
        arrays = (self.psi, self.alice, self.bob_unitaries, self.verify_pairs)
        found = tuple(np.shape(a) for a in arrays)
        expected = ((count, d_a, d_b), (count, n, d_a, d_a), (count, n, d_b, d_b), (count, n, 2, d_b, d_b))
        if found != expected or (trials is not None and len(trials) != count):
            raise ValidationError(
                "protocol-batch-shape",
                f"arrays of shapes {found}, expected {expected} with one name per trial",
            )
        norms = _row_norms(self.psi.reshape(len(self.psi), -1))
        _require_unit(norms, NORM_TOL, "state-normalization", "norm is", trials)
        _require_complete(_identity_deviation(_gram(self.alice)), DEFAULT_TOL, trials)
        dev = _identity_deviation(_gram(self.bob_unitaries[:, :, None]))
        _require(
            dev <= DEFAULT_TOL,
            "protocol-unitary",
            lambda i: f"Bob operator {i[1]} is not a {d_b}x{d_b} unitary",
            trials,
        )
        dev = _identity_deviation(_gram(self.verify_pairs))
        _require(
            dev <= DEFAULT_TOL,
            "protocol-verify-completeness",
            lambda i: f"verify pair {i[1]} deviates from completeness by {float(dev[i])!r}",
            trials,
        )

    @functools.cached_property
    def effective_ops(self) -> np.ndarray:
        """Bob's unitary folded into each verify pair: ``[t, k] = (M_yk U_k, M_nk U_k)``, formed
        once per spec for both success routes."""
        return self.verify_pairs @ self.bob_unitaries[:, :, None]


def single_protocol(
    state: PureState, alice: MeasurementSet, bob_unitaries: Sequence, verify_pairs: Sequence
) -> ProtocolSpec:
    """One protocol, as a stack of one whose trial goes unnamed.

    ``bob_unitaries`` holds one ``d_b x d_b`` unitary per Alice outcome and
    ``verify_pairs`` one ``(M_yk, M_nk)`` pair per Alice outcome. The first
    operator of the wrong shape is named.
    """
    if len(state.dims) != 2:
        raise ValidationError("protocol-state", f"need a bipartite state, got dims {state.dims}")
    d_a, d_b = state.dims
    if alice.dim != d_a:
        raise ValidationError(
            "protocol-alice-dim", f"Alice set acts on dim {alice.dim}, state side is {d_a}"
        )
    n = len(alice)
    if len(bob_unitaries) != n or len(verify_pairs) != n:
        raise ValidationError(
            "protocol-arity", f"need one unitary and one verify pair per Alice outcome ({n})"
        )
    bob = operator_stack(
        bob_unitaries,
        (d_b, d_b),
        "protocol-unitary",
        lambda k: f"Bob operator {k} is not a {d_b}x{d_b} unitary",
    )
    pairs = operator_stack(
        verify_pairs,
        (2, d_b, d_b),
        "protocol-verify-shape",
        lambda k: f"verify pair {k} must be {d_b}x{d_b}",
    )
    return ProtocolSpec(state.reshaped()[None], alice.stack[None], bob[None], pairs[None])


@dataclasses.dataclass(frozen=True)
class OutcomeTable:
    """Joint distribution over (Alice outcome, success/failure), per trial.

    ``p_success`` and ``p_failure`` are ``(t, n)``: ``p_success[t, k]`` is
    the probability that trial ``t`` gives Alice outcome ``k`` and Bob's
    success. Every trial's table must sum to 1; ``trials`` names the trial
    that does not.
    """

    p_success: np.ndarray
    p_failure: np.ndarray
    trials: Sequence[int] | None

    def __post_init__(self):
        total = np.add.reduce(self.p_success, axis=1) + np.add.reduce(self.p_failure, axis=1)
        _require_unit(total, DEFAULT_TOL, "outcome-total", "probabilities sum to", self.trials)


def outcome_tables(spec: ProtocolSpec) -> OutcomeTable:
    """p_success[t, k] = ||A_k Psi (M_yk U_k)^T||_F^2, likewise p_failure with M_nk.

    Each trial's ``(A_k, (M_yk U_k, M_nk U_k))`` is one pair of local stacks
    for :func:`~mspace.measurement.local_product`, so only the products
    outcome ``k`` reads are formed.
    """
    t = local_product(spec.psi[:, None], spec.alice[:, :, None], spec.effective_ops)
    probs = _local_probabilities(t, spec.trials)[:, :, 0]
    return OutcomeTable(probs[..., 0], probs[..., 1], spec.trials)


def success_rates_original(spec: ProtocolSpec) -> np.ndarray:
    """Success rate of every trial on the original state: sum_k p_{k,y}."""
    return np.add.reduce(outcome_tables(spec).p_success, axis=-1)


def success_rates_mspace(spec: ProtocolSpec) -> np.ndarray:
    """Success rate of every trial, recomputed entirely inside measurement space.

    Builds each trial's joint set {M_k (x) M_yk U_k, M_k (x) M_nk U_k} as a
    stack of Kronecker products, checks and maps it as
    :func:`~mspace.measurement.map_to_measurement_space` does a set on the
    whole space, and accumulates ``sum_k p(success | k) p(k)`` from rank-1
    projections on that image. Unlike :func:`outcome_tables`, which it is
    checked against, it applies the Kronecker operators to the state vector.
    """
    count, n, d_a, _ = spec.alice.shape
    d_b = spec.bob_unitaries.shape[-1]
    dim = d_a * d_b
    # M_k (x) M_yk U_k and M_k (x) M_nk U_k for each trial and outcome k
    joint = tensor(spec.alice[:, :, None], spec.effective_ops).reshape(count, 2 * n, dim, dim)
    # the one-party case of a local pair: the set is Alice's, Bob's the single 1x1 identity
    pair = ((dim, 1), spec.psi.reshape(count, dim, 1), joint, np.ones((1, 1, 1)))
    image = (_checked_image(*pair, DEFAULT_TOL, spec.trials)[1] ** 2).reshape(count, n, 2)
    p_y, p_n = image[..., 0], image[..., 1]
    p_k = p_y + p_n
    terms = np.divide(p_y, p_k, out=np.zeros(p_k.shape), where=p_k > 0.0) * p_k
    # a running total in outcome order
    return terms.cumsum(axis=-1)[:, -1]


def _trial_bytes(d_a: int, d_b: int, n_outcomes: int) -> int:
    """Bytes of one random trial's joint stack, Haar draws and operators, as complex128.

    Rejects a shape with no valid protocol, or one over
    :data:`~mspace.linalg.TRIAL_BYTES_CAP`, before anything is allocated.
    """
    _check_dims((d_a, d_b))
    if n_outcomes < 1:
        raise ValidationError("measurement-outcomes", "need at least one outcome")
    dim, n = d_a * d_b, n_outcomes
    size = 16 * (2 * n * dim * dim + (n * d_a) ** 2 + 5 * n * d_b * d_b + dim)
    return _require_fits(size, "protocol-size", f"one {d_a}x{d_b} trial with {n} outcomes")


def random_protocols(
    d_a: int,
    d_b: int,
    n_outcomes: int,
    rngs: Iterable[np.random.Generator],
    trials: Sequence[int] | None = None,
) -> ProtocolSpec:
    """One random protocol per generator: Haar state, random complete sets, Haar unitaries.

    ``rngs`` may be a list or a one-pass iterator, such as a chunk of
    :func:`~mspace.linalg.seeded_chunks`. Each generator draws, in order,
    the state's real and imaginary parts, the Gaussian block behind Alice's
    set, the n Bob unitaries and the n verify sets, as one call that gives
    the trial's row of one buffer. Only the draws loop over trials; the QR
    decompositions run once over the stack.
    """
    _trial_bytes(d_a, d_b, n_outcomes)
    n = n_outcomes
    shapes = ((2, d_a * d_b), (2, n * d_a, n * d_a), (n, 2, d_b, d_b), (n, 2, 2 * d_b, 2 * d_b))
    sizes = [math.prod(shape) for shape in shapes]
    buffer = np.array([rng.standard_normal(sum(sizes)) for rng in rngs]).reshape(-1, sum(sizes))
    count = len(buffer)
    bounds = itertools.pairwise(itertools.accumulate(sizes, initial=0))
    parts = (buffer[:, start:stop].reshape(count, *shape) for (start, stop), shape in zip(bounds, shapes))
    g_state, g_alice, g_bob, g_verify = parts
    psi = haar_vectors(g_state).reshape(count, d_a, d_b)
    alice, verify = haar_blocks(g_alice, d_a), haar_blocks(g_verify, d_b)
    return ProtocolSpec(psi, alice, haar_unitaries(g_bob), verify, trials)


def random_protocol_batches(
    d_a: int, d_b: int, n_outcomes: int, seed: int, trials: int
) -> Iterator[ProtocolSpec]:
    """Random protocols for trials ``0..trials-1``, chunked by :func:`~mspace.linalg.seeded_chunks`."""
    for chunk, rngs in seeded_chunks(seed, trials, _trial_bytes(d_a, d_b, n_outcomes)):
        yield random_protocols(d_a, d_b, n_outcomes, rngs, chunk)

