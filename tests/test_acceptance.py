"""Acceptance suite: one test per acceptance criterion, at the stated sizes
and tolerances. Each test prints a single pass/fail line (run with -s to see
them on success)."""

import json
import math
import subprocess
import sys

import numpy as np
from conftest import mode_rows, random_local_set

from mspace.entanglement import (
    concurrence_pure,
    measurement_space_entanglement,
    pure_entanglement,
)
from mspace.linalg import PureState, bell_phi_plus, haar_state
from mspace.locc import KONRAD_TOL, konrad_check, random_konrad_trials, run_locc_construction
from mspace.measurement import (
    LocalMeasurementSet,
    map_to_measurement_space,
    noisy_pair,
    random_measurement_set,
)
from mspace.modes import composition_count, divisor_infima, useful_entanglement_bounds
from mspace.protocols import (
    random_protocols,
    single_protocol,
    success_rates_mspace,
    success_rates_original,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {criterion} failed: {detail}"


def _rng(master, trial):
    return np.random.default_rng((master, trial))


def test_criterion_1_protocol_success_equivalence():
    worst = 0.0
    for t in range(200):
        rng = _rng(101, t)
        d_a = int(rng.integers(2, 5))
        d_b = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        spec = random_protocols(d_a, d_b, n, [rng])
        delta = abs(success_rates_original(spec)[0] - success_rates_mspace(spec)[0])
        worst = max(worst, delta)
    eye = np.eye(2, dtype=complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    closed = single_protocol(
        bell_phi_plus(), noisy_pair(0.9), (eye, eye), ((p0, p1), (p1, p0))
    )
    p_orig = success_rates_original(closed)[0]
    p_ms = success_rates_mspace(closed)[0]
    ok = worst < 1e-10 and abs(p_orig - 0.90) < 1e-12 and abs(p_ms - 0.90) < 1e-12
    _report(1, ok, f"200 trials max |delta| = {worst:.3e}; closed form {p_orig:.12f} / {p_ms:.12f}")


def test_criterion_2_monotonicity_under_local_measurements():
    worst_entropy = -np.inf
    worst_concurrence = -np.inf
    for t in range(500):
        rng = _rng(102, t)
        psi = haar_state((2, 2), rng)
        local = random_local_set(2, 2, int(rng.integers(2, 5)), int(rng.integers(2, 5)), rng)
        image = map_to_measurement_space(psi, local)
        worst_entropy = max(
            worst_entropy,
            measurement_space_entanglement(image, "entropy") - pure_entanglement(psi, "entropy"),
        )
        pair_set = random_local_set(2, 2, 2, 2, rng)
        pair_image = map_to_measurement_space(psi, pair_set)
        worst_concurrence = max(
            worst_concurrence,
            measurement_space_entanglement(pair_image, "concurrence") - concurrence_pure(psi.reshaped()),
        )
    worst_qutrit = -np.inf
    for t in range(100):
        rng = _rng(1022, t)
        psi = haar_state((3, 3), rng)
        local = random_local_set(3, 3, int(rng.integers(2, 5)), int(rng.integers(2, 5)), rng)
        image = map_to_measurement_space(psi, local)
        worst_qutrit = max(
            worst_qutrit,
            measurement_space_entanglement(image, "entropy") - pure_entanglement(psi, "entropy"),
        )
    ok = worst_entropy <= 1e-9 and worst_concurrence <= 1e-9 and worst_qutrit <= 1e-9
    _report(
        2,
        ok,
        "500 qubit trials: worst excess entropy "
        f"{worst_entropy:.3e}, concurrence {worst_concurrence:.3e}; "
        f"100 qutrit trials: {worst_qutrit:.3e}",
    )


def test_criterion_3_uniform_fourier_outcome_probabilities():
    worst = 0.0
    for t in range(100):
        rng = _rng(103, t)
        d_a = int(rng.integers(2, 4))
        d_b = int(rng.integers(2, 4))
        psi = haar_state((d_a, d_b), rng)
        local = random_local_set(d_a, d_b, int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        trace = run_locc_construction(psi, local)
        # Alice's move, and Bob's on every one of Alice's outcomes
        worst = max(worst, trace.alice.fourier.max_deviation, *trace.bob.fourier.max_deviation)
    ok = worst < 1e-10
    _report(3, ok, f"100 trials, max |p_j - 1/n| = {worst:.3e} over both parties")


def test_criterion_4_construction_bookkeeping():
    worst_diag = 0.0
    fidelities = []
    cases = [
        (bell_phi_plus(), LocalMeasurementSet(noisy_pair(0.9), noisy_pair(0.9))),
    ]
    for t in range(20):
        rng = _rng(104, t)
        psi = haar_state((2, 2), rng)
        local = random_local_set(2, 2, int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        cases.append((psi, local))
    for psi, local in cases:
        # one run gives every branch (j_a, j_b), at row j_a * d_b + j_b
        trace = run_locc_construction(psi, local)
        worst_diag = max(worst_diag, trace.diagonal_deviation)
        fidelities.extend(trace.fidelities.tolist())
    ok = worst_diag < 1e-9
    _report(
        4,
        ok,
        f"{len(fidelities)} branches, max diagonal deviation {worst_diag:.3e}; "
        f"branch fidelity to the image (informational): min {min(fidelities):.4f}, "
        f"mean {np.mean(fidelities):.4f}",
    )


def test_criterion_5_concurrence_factorization():
    # one stack per run of 200 trials; Bob's identity channel makes the check one-sided
    lhs, rhs = konrad_check(*random_konrad_trials([_rng(105, t) for t in range(200)], False))
    worst_residual = float(np.max(np.abs(lhs - rhs)))
    lhs, bound = konrad_check(*random_konrad_trials([_rng(1052, t) for t in range(200)], True))
    violations = int(np.count_nonzero(~(lhs <= bound + KONRAD_TOL)))
    ok = worst_residual < 1e-8 and violations == 0
    _report(
        5,
        ok,
        f"200 equality trials max residual {worst_residual:.3e}; "
        f"200 inequality trials, {violations} violations",
    )


def test_criterion_6_detector_efficiency_curve():
    worst = 0.0
    values = []
    for eta in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        local = LocalMeasurementSet(noisy_pair(eta), noisy_pair(eta))
        image = map_to_measurement_space(bell_phi_plus(), local)
        c = measurement_space_entanglement(image, "concurrence")
        values.append(c)
        worst = max(worst, abs(c - (2 * eta - 1) ** 2))
    anchors = abs(values[-1] - 1.0) < 1e-9 and abs(values[0]) < 1e-9
    ok = worst < 1e-9 and anchors
    _report(6, ok, f"eta grid 0.5..1.0, max |C - (2 eta - 1)^2| = {worst:.3e}")


def test_criterion_7_separable_states_score_zero():
    worst = 0.0
    for t in range(100):
        rng = _rng(107, t)
        u = haar_state((2,), rng).vector
        v = haar_state((2,), rng).vector
        psi = PureState((2, 2), np.kron(u, v))
        local = random_local_set(2, 2, int(rng.integers(2, 5)), int(rng.integers(2, 5)), rng)
        image = map_to_measurement_space(psi, local)
        worst = max(worst, measurement_space_entanglement(image, "entropy"))
    ok = worst < 1e-10
    _report(7, ok, f"100 product states, max measurement-space entropy {worst:.3e}")


def _brute_force_composition_count(n, m):
    if m == 1:
        return 1
    return sum(_brute_force_composition_count(n - first, m - 1) for first in range(n + 1))


def _divisor_infimum_sieve(limit):
    """Full divisor enumeration for every N <= limit, as a sieve.

    Enumerates every divisor pair (d, N/d) with d <= sqrt(N); the largest
    such d gives p = N / d.
    """
    largest_small = np.ones(limit + 1, dtype=np.int64)
    for d in range(2, math.isqrt(limit) + 1):
        multiples = np.arange(d * d, limit + 1, d)
        largest_small[multiples] = d  # ascending d keeps the largest
    counts = np.arange(limit + 1, dtype=np.int64)
    counts[0] = 1
    return counts // largest_small


def test_criterion_8_mode_bound_table():
    table_ok = True
    for n in range(1, 7):
        for m in range(2, 4):
            if composition_count(n, m) != _brute_force_composition_count(n, m):
                table_ok = False
    prime_cases = all(s.bound_bits == 0.0 for s in mode_rows(useful_entanglement_bounds([(1, 2), (2, 2)])))
    limit = 10**6
    oracle = _divisor_infimum_sieve(limit)
    # spot-verify the sieve itself against literal pair enumeration
    for n in range(1, 2001):
        best = min(max(k, n // k) for k in range(1, n + 1) if n % k == 0)
        assert oracle[n] == best
    mismatches = int(np.count_nonzero(np.array(divisor_infima(range(1, limit + 1))) != oracle[1:]))
    ok = table_ok and prime_cases and mismatches == 0
    _report(
        8,
        ok,
        f"composition table 1<=n<=6, 2<=m<=3 exact; prime cases zero; "
        f"divisor infimum vs enumeration for N<=1e6: {mismatches} mismatches",
    )


def test_criterion_9_normalization_and_validation(tmp_path):
    worst = 0.0
    for t in range(1000):
        rng = _rng(109, t)
        dim = int(rng.integers(2, 9))
        outcomes = int(rng.integers(1, 9))
        mset = random_measurement_set(dim, outcomes, rng)
        psi = haar_state((dim,), rng)
        image = map_to_measurement_space(psi, mset)
        worst = max(worst, abs(float(np.sum(image.probabilities())) - 1.0))
    bad = tmp_path / "incomplete.json"
    bad.write_text(
        json.dumps(
            {
                "dim": 2,
                "operators": [
                    {"label": "0", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
                ],
            }
        ),
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "mspace.cli", "map", "--state", "bell", "--measurements", str(bad)],
        capture_output=True,
        text=True,
    )
    cli_ok = proc.returncode == 2 and "completeness" in proc.stderr
    ok = worst < 1e-10 and cli_ok
    _report(
        9,
        ok,
        f"1000 random pairs, max |sum p - 1| = {worst:.3e}; "
        f"malformed input exit {proc.returncode} naming the invariant",
    )
