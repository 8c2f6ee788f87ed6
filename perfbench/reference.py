"""Independent output checks, one per job class.

Every expected value is computed here from the arrays the generator made,
with plain numpy and the standard library; no mspace code runs. A check
returns None when the job's output is right and a one-line reason when it
is not.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from jobs import Job

PROB_TOL = 1e-10
ENTROPY_TOL = 1e-9
DIAGONAL_TOL = 1e-9
THEOREM1_TOL = 1e-10
KONRAD_TOL = 1e-8
EXACT_TOL = 1e-15


def probabilities(psi: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """p[a, b] = ||A_a psi B_b^T||_F^2 for psi given as a (d_a, d_b) matrix."""
    t = np.einsum("aij,jk,blk->abil", alice, psi, bob)
    return np.sum(np.abs(t) ** 2, axis=(2, 3))


def entropy_bits(mat: np.ndarray) -> float:
    s2 = np.linalg.svd(mat, compute_uv=False) ** 2
    s2 = s2[s2 > 0.0]
    return float(max(-np.sum(s2 * np.log2(s2)), 0.0))


def measure_value(mat: np.ndarray, measure: str) -> float:
    if measure == "entropy":
        return entropy_bits(mat)
    c = float(2.0 * abs(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]))
    if measure == "concurrence":
        return c
    x = (1.0 + math.sqrt(max(1.0 - c * c, 0.0))) / 2.0
    return float(-sum(q * math.log2(q) for q in (x, 1.0 - x) if q > 0.0))


@functools.lru_cache(maxsize=None)
def divisor_infimum(n: int, m: int) -> int:
    """Smallest divisor >= sqrt(C) of C = binom(n+m-1, m-1), from its prime powers.

    Legendre's formula gives the exponent of each prime in the binomial, so
    the count itself is never factored by trial division.
    """
    top, k = n + m - 1, m - 1
    sieve = bytearray([1]) * (top + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(top) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, top + 1, i)))
    divisors = [1]
    for q in (i for i in range(2, top + 1) if sieve[i]):
        e, power = 0, q
        while power <= top:
            e += top // power - k // power - (top - k) // power
            power *= q
        divisors = [d * q**j for d in divisors for j in range(e + 1)]
    count = math.comb(top, k)
    return min(d for d in divisors if d * d >= count)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol


def _check_map(job: Job, report: dict) -> str | None:
    d = job.data
    ref = probabilities(d["psi"], d["alice"], d["bob"])
    n_a, n_b = ref.shape
    rows = report["results"]
    if report["structure"] != [n_a, n_b] or len(rows) != n_a * n_b:
        return f"structure {report['structure']} with {len(rows)} rows, expected {n_a}x{n_b}"
    labels = [f"({a},{b})" for a in range(n_a) for b in range(n_b)]
    if [r["label"] for r in rows] != labels:
        return "outcome labels are not the row-major (alice, bob) grid"
    worst = max(abs(r["probability"] - p) for r, p in zip(rows, ref.reshape(-1)))
    if worst > PROB_TOL:
        return f"probabilities off the einsum reference by {worst:.3e}"
    return None


def _check_entanglement(job: Job, report: dict) -> str | None:
    d = job.data
    row = report["results"][0]
    measure = d["measure"]
    original = measure_value(d["psi"], measure)
    image = np.sqrt(probabilities(d["psi"], d["alice"], d["bob"]))
    image /= np.linalg.norm(image)
    after = measure_value(image, measure)
    if not _close(row["original"], original, ENTROPY_TOL):
        return f"original {measure} {row['original']!r}, reference {original!r}"
    if not _close(row["measurement_space"], after, ENTROPY_TOL):
        return f"measurement-space {measure} {row['measurement_space']!r}, reference {after!r}"
    if row["monotone"] is not True:
        return "image reported as more entangled than the state"
    return None


def _check_locc(job: Job, report: dict) -> str | None:
    rows = report["results"]
    if job.kind == "locc-all":
        d_a, d_b = job.data["psi"].shape
        expected = [(a, b) for a in range(d_a) for b in range(d_b)]
        entropy = entropy_bits(job.data["psi"])
        if not _close(report["entropy_before"], entropy, ENTROPY_TOL):
            return f"entropy_before {report['entropy_before']!r}, reference {entropy!r}"
    else:
        expected = [tuple(job.data["outcome"])]
    if [(r["outcome_a"], r["outcome_b"]) for r in rows] != expected:
        return f"{len(rows)} branch rows, expected {len(expected)} in grid order"
    worst = max(r["ancilla_diagonal_deviation"] for r in rows)
    if worst > DIAGONAL_TOL:
        return f"ancilla diagonal deviation {worst:.3e} > {DIAGONAL_TOL}"
    if report["passed"] is not True:
        return "audit did not pass"
    return None


def _check_theorem1(job: Job, report: dict) -> str | None:
    rows = report["results"]
    if len(rows) != job.data["trials"]:
        return f"{len(rows)} trial rows, expected {job.data['trials']}"
    deltas = [abs(r["p_original"] - r["p_mspace"]) for r in rows]
    if any(not _close(r["delta"], dl, EXACT_TOL) for r, dl in zip(rows, deltas)):
        return "a row's delta is not |p_original - p_mspace|"
    if not _close(report["max_delta"], max(deltas), EXACT_TOL) or max(deltas) >= THEOREM1_TOL:
        return f"max_delta {report['max_delta']!r}, rows give {max(deltas)!r}"
    if report["passed"] is not True:
        return "theorem1 did not pass"
    return None


def _check_konrad(job: Job, report: dict) -> str | None:
    rows = report["results"]
    if len(rows) != job.data["trials"]:
        return f"{len(rows)} trial rows, expected {job.data['trials']}"
    if report["parameters"]["two_sided"]:
        holds = [r["lhs"] <= r["bound"] + KONRAD_TOL for r in rows]
        if [r["holds"] for r in rows] != holds or report["violations"] != holds.count(False):
            return "holds/violations disagree with lhs and bound"
        if any(not _close(r["slack"], r["bound"] - r["lhs"], EXACT_TOL) for r in rows):
            return "a row's slack is not bound - lhs"
    else:
        residuals = [abs(r["lhs"] - r["rhs"]) for r in rows]
        if not _close(report["max_residual"], max(residuals), EXACT_TOL) or max(residuals) >= KONRAD_TOL:
            return f"max_residual {report['max_residual']!r}, rows give {max(residuals)!r}"
    if report["passed"] is not True:
        return "konrad did not pass"
    return None


def _check_modes(job: Job, report: dict) -> str | None:
    if "grid" in job.data:
        n_max, m_max = job.data["grid"]
        grid = [(n, m) for n in range(1, n_max + 1) for m in range(2, m_max + 1)]
    else:
        grid = [tuple(job.data["pair"])]
    rows = report["results"]
    if [(r["n"], r["m"]) for r in rows] != grid:
        return f"{len(rows)} rows, expected the {len(grid)}-pair grid"
    for r in rows:
        count = math.comb(r["n"] + r["m"] - 1, r["m"] - 1)
        p = divisor_infimum(r["n"], r["m"])
        if r["count"] != count or r["p"] != p or r["prime"] != (p == count):
            return f"row ({r['n']}, {r['m']}): count {r['count']} p {r['p']}, expected {count} {p}"
    return None


def _check_sweep(job: Job, report: dict) -> str | None:
    rows = report["results"]
    params = report["parameters"]
    etas = np.linspace(params["eta_start"], params["eta_end"], job.data["steps"])
    if len(rows) != len(etas):
        return f"{len(rows)} rows, expected {len(etas)}"
    for r, eta in zip(rows, etas):
        if not _close(r["eta"], eta, EXACT_TOL):
            return f"eta {r['eta']!r}, expected {eta!r}"
        if not _close(r["concurrence_mspace"], (2.0 * eta - 1.0) ** 2, ENTROPY_TOL):
            return f"concurrence {r['concurrence_mspace']!r} at eta {eta!r} is not (2 eta - 1)^2"
    return None


CHECKS = {
    "map": _check_map,
    "entanglement": _check_entanglement,
    "locc-all": _check_locc,
    "locc-one": _check_locc,
    "theorem1": _check_theorem1,
    "konrad": _check_konrad,
    "modes": _check_modes,
    "sweep": _check_sweep,
}


def check(job: Job, code: int, out: str, err: str) -> str | None:
    if job.kind == "invalid":
        if code != 2:
            return f"exit {code}, expected 2"
        if job.data["invariant"] not in err:
            return f"stderr does not name {job.data['invariant']!r}: {err.strip()[:120]!r}"
        return None
    if code != 0:
        last = err.strip().splitlines()[-1:] or [""]
        return f"exit {code}: {last[0][:160]!r}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"stdout is not valid JSON: {exc}"
    try:
        return CHECKS[job.kind](job, report)
    except (KeyError, IndexError, TypeError) as exc:
        return f"report is missing a field: {exc!r}"
