"""Benchmark of the mspace command-line tool.

One client drives ``mspace.cli.main(argv)`` in-process with stdout
captured, in a closed loop: each job starts when the previous one has
returned. Each invocation of this script runs one workload in a fresh
process, with BLAS and OpenMP pinned to one thread.

    python3 perfbench/run.py --workload map-large --seed 1 --seconds 25 --trace 0

A workload is a whole number of passes over the same job classes (command
and shape), each pass with fresh inputs. On a shared 2-vCPU virtual machine
the speed swung by up to 2x in phases lasting seconds to minutes, so every
untimed gap between jobs runs a fixed machine-speed probe (``calibrate.py``).
Each job's time is stated at the probe's nominal speed, using the probes just
before and after it, and each job class is timed at its median over the
passes run; ``setup_s`` is scaled the same way by a spawn probe. The figures
read straight off every job are printed and recorded beside them.

With ``--trace 0`` it prints the end-to-end metrics. With ``--trace 1`` it
wraps every mspace layer in spans on the even passes, runs the odd passes
untraced to measure the tracing overhead, and prints the per-layer metrics. Every
job's output is checked against this directory's own reference code. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
A fuller record (provenance, one SHA-256 per job's stdout, per-job times)
goes to ``perfbench/out/``. ``--workload smoke`` runs every job class once.
"""

from __future__ import annotations

import os

# pinned before numpy loads: on two cores, threaded BLAS made job times spread widely
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = Path(BENCH.name) / "out"  # relative to ROOT, so report paths do not depend on the checkout
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import reference  # noqa: E402
from jobs import WORKLOADS, Job, build_jobs  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402

# end-to-end metrics: (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_ms_p50", "ms", "lower"),
    ("job_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
SETUP_RUNS = 11
CRASHED = -1  # exit code recorded for a job whose command raised out of cli.main
TAIL_BEYOND = 10
# stop starting jobs past this multiple of --seconds, so a slow phase of the machine or a
# much slower program still ends in time; every job class has run once by then
DEADLINE_FACTOR = 1.1


@dataclasses.dataclass
class Result:
    seconds: float
    code: int
    out: str
    err: str


def run_job(cli, job: Job) -> Result:
    """Run one job through ``cli.main``; the time covers argv to report written."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this job, and the run goes on
            code = CRASHED
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return Result(seconds, code, out.getvalue(), err.getvalue())


def measure_setup() -> dict:
    """Time from starting an interpreter to ``import mspace.cli`` done, over fresh processes.

    Spawn probes run before, between and after the imports. The value is the
    median over imports of its time over the mean of the probes on either
    side, at the probe's nominal time.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import time, mspace.cli; print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)  # writes bytecode once
    calibrate.spawn(env)
    samples, probes = [], [calibrate.spawn(env)]
    for _ in range(SETUP_RUNS):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=60)
        samples.append((int(done.stdout) - start) / 1e9)
        probes.append(calibrate.spawn(env))
    return {
        "setup_s": statistics.median(scaled(samples, probes, calibrate.SPAWN_NOMINAL_S)),
        "raw_median_s": statistics.median(samples),
        "samples_s": samples,
        "probes_s": probes,
    }


def scaled(samples: list[float], probes: list[float], nominal: float) -> list[float]:
    """Each sample at the nominal machine speed.

    ``probes[i]`` ran just before sample i and ``probes[i + 1]`` just after it.
    """
    return [t * nominal / ((before + after) / 2) for t, before, after in zip(samples, probes, probes[1:])]


def time_metrics(times: list[float]) -> dict[str, float]:
    """Rate, median and tail of a job list's times.

    The tail is the highest percentile with at least TAIL_BEYOND jobs beyond it.
    """
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return {
        "jobs_per_s": len(ordered) / sum(ordered),
        "job_ms_p50": statistics.median(ordered) * 1e3,
        "job_ms_tail": ordered[k] * 1e3,
        "tail_percentile": 100.0 * (k + 1) / len(ordered),
        "tail_jobs_beyond": len(ordered) - k - 1,
    }


def blas_threads() -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    sources = hashlib.sha256()
    for path in sorted((SRC / "mspace").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": sources.hexdigest(),
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def class_rate(pairs) -> float:
    """Jobs per second of one pass over (job, seconds) pairs, each class timed at its fastest."""
    fastest: dict[tuple[str, str], float] = {}
    for job, seconds in pairs:
        key = (job.kind, job.shape)
        fastest[key] = min(seconds, fastest.get(key, seconds))
    return len(fastest) / sum(fastest.values())


def layer_report(tracer: Tracer, traced: list[tuple[Job, Result]], untraced: list[tuple[Job, Result]]):
    """Per-layer metrics over the traced jobs, plus the tracing overhead."""
    for job, res in traced:
        tracer.counters["cli.output_bytes"] += len(res.out.encode("utf-8"))
    locc_rows = {
        job.id: len(json.loads(res.out)["results"])
        for job, res in traced
        if job.kind.startswith("locc") and res.code == 0
    }
    values = layer_metrics(tracer, locc_rows)
    traced_rate = class_rate((job, res.seconds) for job, res in traced)
    untraced_rate = class_rate((job, res.seconds) for job, res in untraced)
    values["trace.traced_jobs_per_s"] = traced_rate
    values["trace.untraced_jobs_per_s"] = untraced_rate
    values["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    steps = tracer.calls_by_job("locc.fourier_step")
    by_shape: dict[str, list[int]] = {}
    for job, _ in traced:
        if job.id in locc_rows:
            acc = by_shape.setdefault(f"{job.kind}:{job.shape}", [0, 0])
            acc[0] += steps[job.id]
            acc[1] += locc_rows[job.id]
    return values, {k: s / r for k, (s, r) in sorted(by_shape.items())}


def run(args, workdir: Path) -> int:
    workload = WORKLOADS[args.workload]
    jobs, passes = build_jobs(workload, args.seed, args.seconds, workdir)
    first_pass = [job for job in jobs if job.pass_no == 0]
    setup = measure_setup() if not args.trace else None

    sys.path.insert(0, str(SRC))
    from mspace import cli

    warmed: set[str] = set()
    for job in jobs:  # untimed: one job of each kind, so lazy imports are done
        if job.kind not in warmed:
            warmed.add(job.kind)
            run_job(cli, job)

    # the harness's own objects stay out of the collections the program triggers
    gc.collect()
    gc.freeze()
    tracer = Tracer() if args.trace else None
    results: list[Result] = []
    deadline = time.monotonic() + max(DEADLINE_FACTOR * args.seconds, 10.0)
    probes = [] if tracer else [calibrate.kernel()]  # a machine-speed probe before and after every untraced job
    try:
        for job in jobs:
            if len(results) >= len(first_pass) and time.monotonic() > deadline:
                break
            if tracer:
                # even passes run traced, odd passes untraced for the overhead
                tracer.set_installed(job.pass_no % 2 == 0)
                tracer.job = job.id
            results.append(run_job(cli, job))
            if not tracer:
                probes.append(calibrate.kernel())
    finally:
        if tracer:
            tracer.set_installed(False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # replay the first pass untraced: its stdout must be byte-identical
    replay = [run_job(cli, job) for job in first_pass]

    ran = list(zip(jobs, results))
    digests = {job.id: sha256(res.out) for job, res in ran}
    failures = {}
    for job, res in ran:
        reason = reference.check(job, res.code, res.out, res.err)
        if reason:
            failures[job.id] = reason
    for job, res in zip(first_pass, replay):
        if job.id in digests and sha256(res.out) != digests[job.id]:
            failures.setdefault(job.id, "stdout differs when the job is run again")

    print(f"mspace benchmark: workload={workload.name} seed={args.seed} trace={args.trace} "
          f"passes={passes} jobs={len(results)} ({len(first_pass)} per pass, closed loop, 1 client)")  # fmt: skip
    detail: dict = {
        "passes": passes,
        "jobs_per_pass": len(first_pass),
        "jobs_run": len(results),
        "jobs_listed": len(jobs),
        "predicted_to_move": list(workload.moves),
        "failures": failures,
    }
    if tracer:
        traced = [(job, res) for job, res in ran if job.pass_no % 2 == 0]
        untraced = [(job, res) for job, res in ran if job.pass_no % 2 == 1] + list(zip(first_pass, replay))
        values, steps_by_shape = layer_report(tracer, traced, untraced)
        detail["fourier_steps_per_branch_by_shape"] = steps_by_shape
        detail["traced_jobs"] = len(traced)
        detail["span_count"] = len(tracer.spans)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<42} {values[name]:>14.4f} {unit}")
        for shape, ratio in steps_by_shape.items():
            print(f"  locc.fourier_steps_per_branch[{shape}] = {ratio:g}")
        print(f"  base: totals over the {len(traced)} jobs of the even passes, which ran traced; "
              f"overhead against the odd passes and a replay of pass 0, untraced")  # fmt: skip
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.json")
    else:
        # each job at the nominal machine speed; every listed job at its class's median over the
        # passes run, so a run cut short keeps the same job mix
        times = scaled([res.seconds for res in results], probes, calibrate.KERNEL_NOMINAL_S)
        by_class: dict[tuple[str, str], list[float]] = {}
        for job, seconds in zip(jobs, times):
            by_class.setdefault((job.kind, job.shape), []).append(seconds)
        typical = {key: statistics.median(values) for key, values in by_class.items()}
        nominal = time_metrics([typical[(job.kind, job.shape)] for job in jobs])
        observed = time_metrics([res.seconds for res in results])
        summary = {
            "setup_s": setup["setup_s"],
            **{name: nominal[name] for name in ("jobs_per_s", "job_ms_p50", "job_ms_tail")},
            "peak_rss_mb": peak_rss_mb,
            "failed_frac": len(failures) / len(results),
        }
        detail.update(summary=summary, at_nominal_speed=nominal, as_observed=observed, setup=setup, probes_s=probes)
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit, _ in END_TO_END}
        for name, unit, _ in END_TO_END:
            print(f"  {name:<12} {summary[name]:>12.4f} {unit}")
        print(f"  {'failed_frac':<12} {summary['failed_frac']:>12.4f} fraction ({len(failures)} of {len(results)} jobs)")
        print(f"  each of the {len(jobs)} listed jobs timed at its class's median of {ran[-1][0].pass_no + 1} passes run; "
              f"job_ms_tail is p{nominal['tail_percentile']:.1f}, {nominal['tail_jobs_beyond']} jobs beyond; setup_s is the "
              f"median of {SETUP_RUNS} fresh imports; all at the probes' nominal speed "
              f"({calibrate.KERNEL_NOMINAL_S * 1e3:g} ms kernel, {calibrate.SPAWN_NOMINAL_S * 1e3:g} ms spawn)")  # fmt: skip
        print("  as observed: " + ", ".join(f"{k} {observed[k]:.4f}" for k in ("jobs_per_s", "job_ms_p50", "job_ms_tail"))
              + f", setup_s {setup['raw_median_s']:.4f}; probe medians: kernel {statistics.median(probes) * 1e3:.2f} ms, "
              f"spawn {statistics.median(setup['probes_s']) * 1e3:.2f} ms")  # fmt: skip
    for job_id, reason in failures.items():
        print(f"  FAILED {job_id}: {reason}")

    prov = provenance(args)
    # pass 0 always runs in full, so two runs of one seed compare on it even if one was cut short
    prov["stdout_sha256_pass0"] = sha256("".join(digests[job.id] for job in first_pass))
    record = {
        "provenance": prov,
        "detail": detail,
        "metrics": metrics,
        "jobs": [
            {"id": job.id, "kind": job.kind, "shape": job.shape, "ms": res.seconds * 1e3,
             "exit": res.code, "stdout_sha256": digests[job.id], "failure": failures.get(job.id)}
            for job, res in ran
        ],
    }  # fmt: skip
    result_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("provenance " + json.dumps(prov, separators=(",", ":")) + f" record={result_path.as_posix()}")
    final = {"correct": not failures, "attempted": len(results), "failed": len(failures), "metrics": metrics}
    print(json.dumps(final, separators=(",", ":")))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mspace" / "cli.py").is_file():
        print(f"error: no mspace sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workdir = OUT / f"inputs-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
