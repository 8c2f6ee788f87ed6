"""One run of the local construction covers every outcome branch."""

import numpy as np
import pytest

import mspace.locc as locc
from mspace.linalg import haar_state
from mspace.measurement import random_local_set


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
    trace = locc.run_locc_construction(psi, random_local_set(d_a, d_b, n_a, n_b, rng), d_a - 1, 0)
    # Alice once, then Bob once for each Alice outcome
    assert len(calls) == 1 + d_a
    assert [(r.outcome_a, r.outcome_b) for r in trace.branches] == [
        (a, b) for a in range(d_a) for b in range(d_b)
    ]


def test_requested_branch_is_its_table_row():
    rng = np.random.default_rng(3)
    psi = haar_state((3, 2), rng)
    local = random_local_set(3, 2, 2, 3, rng)
    full = locc.run_locc_construction(psi, local)
    for j_a in range(3):
        for j_b in range(2):
            trace = locc.run_locc_construction(psi, local, j_a, j_b)
            row = trace.branches[j_a * 2 + j_b]
            assert trace.branches == full.branches
            assert (trace.alice.outcome, trace.bob.outcome) == (j_a, j_b)
            assert trace.fidelity == row.fidelity
            assert trace.branch_diagonal_deviation == row.branch_diagonal_deviation
            assert trace.degenerate == row.degenerate
            assert trace.bob.fourier.max_deviation == row.bob_uniformity_deviation
            final = trace.final_state.reshaped()
            np.testing.assert_array_equal(final[0, 0].reshape(-1), trace.branch_ancilla)
