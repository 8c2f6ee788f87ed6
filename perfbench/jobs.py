"""Seeded inputs and job lists for the mspace benchmark.

Every input is made here, from the workload seed, with this file's own
random generators; nothing is computed by mspace. States and measurement
sets are written as JSON in the schema of ``mspace.files``. Each job keeps
the arrays it was built from, so the reference checks never read the
program's files back.

A workload is a fixed pass of job classes (command and shape). Every pass
draws fresh random content for the same classes, so the seed changes the
numbers but not the amount of work, and the run is a whole number of passes.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

INPUT_TOL = 1e-12


@dataclasses.dataclass
class Job:
    id: str
    kind: str
    argv: list[str]
    shape: str
    data: dict = dataclasses.field(default_factory=dict)
    pass_no: int = 0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    moves: tuple[str, ...]
    pass_seconds: float  # time of one pass at the baseline commit, with a 25 ms speed probe per job
    build: Callable[["Inputs", int], list[Job]]


def random_set(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d, d) operators stacked into a Haar-random isometry, so sum_m M_m^dag M_m = 1.

    The isometry is the Q of a complex Gaussian (n d, d) matrix, with the
    column phases fixed so the triangular factor has a positive diagonal.
    """
    z = rng.standard_normal((n * d, d)) + 1j * rng.standard_normal((n * d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return (q * (diag / np.abs(diag))).reshape(n, d, d)


def _pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


class Inputs:
    """Writes one run's input files under ``workdir`` and checks them."""

    def __init__(self, workdir: Path, rng: np.random.Generator):
        self.workdir = workdir
        self.rng = rng
        self._count = 0

    def seed(self) -> int:
        return int(self.rng.integers(0, 2**31))

    def eta(self, lo: float = 0.5, hi: float = 1.0) -> str:
        return f"{self.rng.uniform(lo, hi):.6f}"

    def write(self, text: str) -> str:
        self._count += 1
        path = self.workdir / f"in{self._count:05d}.json"
        path.write_text(text, encoding="utf-8")
        return path.as_posix()

    def state(self, d_a: int, d_b: int) -> tuple[str, np.ndarray]:
        z = self.rng.standard_normal(d_a * d_b) + 1j * self.rng.standard_normal(d_a * d_b)
        psi = (z / np.linalg.norm(z)).reshape(d_a, d_b)
        deviation = abs(np.linalg.norm(psi) - 1.0)
        if deviation > INPUT_TOL:
            raise RuntimeError(f"generated state norm is off by {deviation}")
        obj = {"dims": [d_a, d_b], "amplitudes": _pairs(psi.reshape(-1))}
        return self.write(json.dumps(obj)), psi

    def mset(self, d: int, n: int, ops: np.ndarray | None = None, check: bool = True) -> tuple[str, np.ndarray]:
        ops = random_set(d, n, self.rng) if ops is None else ops
        if check:
            gram = np.einsum("mji,mjk->ik", ops.conj(), ops)
            deviation = float(np.max(np.abs(gram - np.eye(d))))
            if deviation > INPUT_TOL:
                raise RuntimeError(f"generated set is incomplete by {deviation}")
        obj = {
            "dim": d,
            "operators": [{"label": str(m), "matrix": _pairs(op)} for m, op in enumerate(ops)],
        }
        return self.write(json.dumps(obj)), ops


def noisy_ops(eta: float) -> np.ndarray:
    a, b = np.sqrt(eta), np.sqrt(1.0 - eta)
    return np.array([np.diag([a, b]), np.diag([b, a])], dtype=complex)


BELL = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex) / np.sqrt(2.0)
Z_PROJECTORS = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)


def _shape(d_a: int, d_b: int, n_a: int, n_b: int) -> str:
    return f"{d_a}x{d_b}/{n_a}x{n_b}"


def _local_job(inp: Inputs, jid: str, kind: str, d_a: int, d_b: int, n_a: int, n_b: int) -> Job:
    """A map, entanglement or locc audit job on a fresh state and fresh file sets."""
    s, psi = inp.state(d_a, d_b)
    a, alice = inp.mset(d_a, n_a)
    b, bob = inp.mset(d_b, n_b)
    argv = [kind, "--state", s, "--alice", a, "--bob", b]
    if kind == "entanglement":
        argv += ["--measure", "entropy"]
    if kind == "locc":
        argv += ["--all-outcomes"]
        kind = "locc-all"
    data = {"psi": psi, "alice": alice, "bob": bob, "measure": "entropy"}
    return Job(jid, kind, argv, _shape(d_a, d_b, n_a, n_b), data)


# (d_a, d_b, n_a, n_b) for one pass of each local-set workload
MAP_LARGE_SHAPES = (
    (16, 16, 16, 16),
    (14, 14, 14, 14), (14, 14, 13, 15),
    (12, 12, 12, 12), (12, 12, 11, 13),
    (10, 12, 10, 12), (12, 10, 13, 10),
    (10, 10, 9, 11), (10, 10, 10, 10),
    (8, 8, 8, 8), (8, 8, 7, 9),
    (6, 16, 6, 16), (16, 6, 16, 6),
    (6, 6, 6, 6), (6, 8, 7, 8),
)  # fmt: skip

LOCC_AUDIT_SHAPES = (
    (5, 5, 5, 5),
    (5, 4, 4, 3), (4, 5, 2, 5),
    (4, 4, 4, 4), (4, 4, 3, 5),
    (4, 3, 4, 2), (3, 4, 5, 3),
    (3, 3, 3, 3), (3, 3, 2, 4), (3, 2, 3, 5),
    (2, 3, 2, 2), (2, 2, 2, 2), (2, 2, 5, 3),
)  # fmt: skip


def map_large_pass(inp: Inputs, p: int) -> list[Job]:
    # map and entanglement alternate along the pass
    kinds = ("map", "entanglement")
    return [
        _local_job(inp, f"p{p}.j{i:02d}", kinds[i % 2], *shape)
        for i, shape in enumerate(MAP_LARGE_SHAPES)
    ]


def locc_audit_pass(inp: Inputs, p: int) -> list[Job]:
    return [
        _local_job(inp, f"p{p}.j{i:02d}", "locc", *shape)
        for i, shape in enumerate(LOCC_AUDIT_SHAPES)
    ]


def checks_small_pass(inp: Inputs, p: int) -> list[Job]:
    jobs: list[Job] = []

    def add(kind: str, argv: list[str], shape: str, **data) -> None:
        jobs.append(Job(f"p{p}.j{len(jobs):02d}", kind, argv, shape, data))

    for dims, outcomes, trials in (("2,2", 2, 40), ("3,3", 3, 60), ("2,2", 3, 40), ("3,3", 2, 40)):
        argv = ["theorem1", "--random", "--seed", str(inp.seed()), "--trials", str(trials),
                "--dims", dims, "--outcomes", str(outcomes)]  # fmt: skip
        add("theorem1", argv, f"{dims}/{outcomes}/t{trials}", trials=trials)
    add("konrad", ["konrad", "--seed", str(inp.seed()), "--trials", "40"], "one-sided/t40", trials=40)
    add("konrad", ["konrad", "--seed", str(inp.seed()), "--trials", "40", "--two-sided"],
        "two-sided/t40", trials=40)  # fmt: skip
    for d, n_a, n_b in ((2, 2, 3), (3, 3, 2), (3, 2, 4)):
        j_a, j_b = (int(x) for x in inp.rng.integers(0, d, size=2))
        argv = ["locc", "--state", f"random:{inp.seed()}", "--dims", f"{d},{d}",
                "--alice", f"random:{n_a}:{inp.seed()}", "--bob", f"random:{n_b}:{inp.seed()}",
                "--outcome", f"{j_a},{j_b}"]  # fmt: skip
        add("locc-one", argv, _shape(d, d, n_a, n_b), outcome=(j_a, j_b))
    for steps in (6, 11):
        argv = ["sweep", "--eta-start", inp.eta(0.5, 0.7), "--eta-end", inp.eta(0.8, 1.0),
                "--steps", str(steps)]  # fmt: skip
        add("sweep", argv, f"steps{steps}", steps=steps)
    add("modes", ["modes", "--n-max", "60", "--m-max", "8"], "60x8", grid=(60, 8))
    add("modes", ["modes", "--n-max", "24", "--m-max", "6"], "24x6", grid=(24, 6))
    n, m = int(inp.rng.integers(1, 61)), int(inp.rng.integers(2, 9))
    add("modes", ["modes", "--n", str(n), "--m", str(m)], "single", pair=(n, m))
    eta_a, eta_b = inp.eta(), inp.eta()
    sets = ["--alice", f"noisy:{eta_a}", "--bob", f"noisy:{eta_b}"]
    noisy = {"psi": BELL, "alice": noisy_ops(float(eta_a)), "bob": noisy_ops(float(eta_b))}
    add("map", ["map", "--state", "bell", *sets], "bell/noisy", **noisy)
    for measure in ("entropy", "concurrence", "eof"):
        argv = ["entanglement", "--state", "bell", *sets, "--measure", measure]
        add("entanglement", argv, f"bell/noisy/{measure}", measure=measure, **noisy)
    eta = inp.eta()
    add("map", ["map", "--state", "bell", "--alice", f"noisy:{eta}", "--bob", "z-projectors"],
        "bell/noisy+z", psi=BELL, alice=noisy_ops(float(eta)), bob=Z_PROJECTORS)  # fmt: skip

    # invalid inputs: each must exit 2 and name the violated invariant
    qutrit, _ = inp.mset(3, 2)
    add("invalid", ["map", "--state", "bell", "--alice", qutrit, "--bob", f"noisy:{inp.eta()}"],
        "dimension-match", invariant="dimension-match")  # fmt: skip
    incomplete, _ = inp.mset(2, 1, ops=Z_PROJECTORS[:1], check=False)
    add("invalid", ["map", "--state", "bell", "--alice", incomplete, "--bob", f"noisy:{inp.eta()}"],
        "completeness", invariant="completeness")  # fmt: skip
    malformed = inp.write('{"dims": [2, 2], "amplitudes": [[0.7071, 0.0], ')
    add("invalid", ["entanglement", "--state", malformed, *sets], "file-json", invariant="file-json")
    add("invalid", ["locc", "--state", "bell", *sets, "--outcome", str(int(inp.rng.integers(0, 2)))],
        "flag-format", invariant="flag-format")  # fmt: skip
    return jobs


def smoke_pass(inp: Inputs, p: int) -> list[Job]:
    """Every job class once, at small sizes, including a 4x4 audit."""
    jobs = [
        _local_job(inp, f"p{p}.m0", "map", 3, 3, 3, 2),
        _local_job(inp, f"p{p}.m1", "entanglement", 2, 3, 2, 3),
        _local_job(inp, f"p{p}.m2", "locc", 4, 4, 4, 4),
        _local_job(inp, f"p{p}.m3", "locc", 2, 3, 3, 2),
    ]
    return jobs + checks_small_pass(inp, p)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "map-large",
            "map and entropy on Haar 6-16 dim states, sets from files; joint() dominates. Moves "
            "measurement.joint/check, linalg.tensor, files -> jobs_per_s, job_ms_tail, peak_rss_mb",
            (
                "measurement.joint.self_ms", "measurement.check.self_ms", "measurement.joint_mb",
                "linalg.tensor.self_ms", "files.self_ms", "files.input_kb", "linalg.schmidt.self_ms",
                "jobs_per_s", "job_ms_tail", "peak_rss_mb",
            ),
            2.6,
            map_large_pass,
        ),
        Workload(
            "locc-audit",
            "locc --all-outcomes, 2x2-5x5, 2-5 outcomes; re-runs the construction per branch. Moves "
            "locc.run, locc.fourier_step, linalg.eig_hermitian -> jobs_per_s, job_ms_tail",
            (
                "locc.run.calls", "locc.run.self_ms", "locc.fourier_step.calls",
                "locc.fourier_step.self_ms", "locc.runs_per_job", "locc.fourier_steps_per_branch",
                "locc.dilation.self_ms", "linalg.eig_hermitian.self_ms", "jobs_per_s", "job_ms_tail",
            ),
            2.9,
            locc_audit_pass,
        ),
        Workload(
            "checks-small",
            "many cheap theorem1/konrad/locc-one/sweep/modes/bell jobs, some invalid; per-call "
            "overhead. Moves cli, measurement.check, linalg.check/tensor, protocols -> job_ms_p50",
            (
                "cli.self_ms", "cli.output_kb", "measurement.check.self_ms", "linalg.check.self_ms",
                "linalg.tensor.self_ms", "linalg.haar.self_ms", "protocols.self_ms",
                "entanglement.concurrence_mixed.self_ms", "locc.konrad.self_ms",
                "locc.channel_check.self_ms", "modes.divisor_infimum.self_ms", "job_ms_p50",
            ),
            0.85,
            checks_small_pass,
        ),
        Workload("smoke", "every job class once at small sizes, with its checks", (), 0.0, smoke_pass),
    )  # fmt: skip
}


def passes_for(workload: Workload, seconds: float) -> int:
    """A whole number of passes that fills about ``seconds`` at the baseline.

    The job list is fixed for a given ``--seconds``, so a faster program
    finishes the same list sooner, as a closed loop over fixed work does.
    """
    if workload.pass_seconds <= 0:
        return 1
    return max(1, round(seconds / workload.pass_seconds))


def build_jobs(workload: Workload, seed: int, seconds: float, workdir: Path) -> tuple[list[Job], int]:
    inp = Inputs(workdir, np.random.default_rng((seed, zlib.crc32(workload.name.encode()))))
    passes = passes_for(workload, seconds)
    jobs = []
    for p in range(passes):
        for job in workload.build(inp, p):
            job.pass_no = p
            jobs.append(job)
    return jobs, passes
