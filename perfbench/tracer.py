"""Spans around mspace's layers, installed from outside the package.

The tracer wraps the public functions of each module, the bindings of those
functions in every module that imported them, a few private boundaries
(``files._read_json``) and the methods that carry the dataclass invariant
checks. Spans hold name, start, end, parent and job id; they stay in memory
and are written once when the run ends. A span's self time is its duration
minus the time of its child spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

MODULES = ("cli", "files", "measurement", "entanglement", "protocols", "locc", "modes", "linalg")

PRIVATE = {"files": ("_read_json",)}

METHODS = {
    "linalg": ("PureState.__post_init__", "DensityMatrix.__post_init__"),
    "measurement": (
        "MeasurementSet.__post_init__", "MeasurementSet.assert_complete",
        "LocalMeasurementSet.joint", "MeasurementSpaceState.__post_init__",
    ),
    "entanglement": ("EntanglementReport.__post_init__",),
    "protocols": ("ProtocolSpec.__post_init__", "OutcomeTable.__post_init__"),
    "locc": ("Channel.__post_init__", "Channel.apply"),
    "modes": ("ModeSystem.__post_init__",),
}  # fmt: skip

# metric group -> span names it sums
GROUPS = {
    "measurement.map": ("measurement.map_to_measurement_space",),
    "measurement.outcome_probabilities": ("measurement.outcome_probabilities",),
    "measurement.joint": ("measurement.LocalMeasurementSet.joint",),
    "measurement.check": ("measurement.MeasurementSet.__post_init__", "measurement.MeasurementSet.assert_complete"),
    "entanglement.concurrence_mixed": ("entanglement.concurrence_mixed",),
    "linalg.eig_hermitian": ("linalg.eig_hermitian",),
    "linalg.tensor": ("linalg.tensor", "linalg.tensor_all"),
    "linalg.haar": ("linalg.haar_unitary", "linalg.haar_state"),
    "linalg.schmidt": ("linalg.schmidt",),
    "linalg.check": ("linalg.PureState.__post_init__", "linalg.DensityMatrix.__post_init__"),
    "protocols.spec_check": ("protocols.ProtocolSpec.__post_init__",),
    "protocols.outcome_table": ("protocols.outcome_table",),
    "protocols.success_mspace": ("protocols.success_probability_mspace",),
    "locc.run": ("locc.run_locc_construction",),
    "locc.dilation": ("locc.build_dilation",),
    "locc.fourier_step": ("locc.fourier_step",),
    "locc.konrad": ("locc.konrad_single_sided_check", "locc.konrad_two_sided_check"),
    "locc.channel_check": ("locc.Channel.__post_init__",),
    "modes.divisor_infimum": ("modes.divisor_infimum",),
}  # fmt: skip

JOB_SPAN = "cli.main"


def _read_json_hook(tracer: "Tracer", args: tuple) -> None:
    try:
        tracer.counters["files.input_bytes"] += os.path.getsize(args[0])
    except (OSError, TypeError):
        pass


def _joint_hook(tracer: "Tracer", args: tuple) -> None:
    # bytes the joint set allocates: n_a n_b operators of (d_a d_b)^2 complex128
    local = args[0]
    dim = local.alice.dim * local.bob.dim
    tracer.counters["measurement.joint_bytes"] += len(local.alice) * len(local.bob) * dim * dim * 16


HOOKS = {"files._read_json": _read_json_hook, "measurement.LocalMeasurementSet.joint": _joint_hook}


class Tracer:
    """Installs span wrappers on the ``mspace`` modules and removes them again."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, job, error)
        self.counters: collections.Counter = collections.Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        module = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(tracer, args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except ValueError as exc:
                # count an exception once per module it leaves
                seen = exc.__dict__.setdefault("_traced_modules", set())
                error = module not in seen
                seen.add(module)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.job, error)

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"mspace.{short}")
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(short, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
            for qualname in METHODS.get(short, ()):
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(f"{short}.{qualname}", cls.__dict__[meth]))
        # rebind every name that refers to a wrapped function, wherever it was imported
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "mspace" or mod_name.startswith("mspace."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def set_installed(self, on: bool) -> None:
        if on and not self._patches:
            self.install()
        elif not on:
            self.uninstall()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, total seconds, errors."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job, error in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for sid, (name, start, end, parent, job, error) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[sid]
            entry["total_s"] += end - start
            entry["errors"] += error
        return out

    def calls_by_job(self, name: str) -> collections.Counter:
        return collections.Counter(span[4] for span in self.spans if span[0] == name)

    def write(self, path: Path) -> None:
        """One JSON file: span names once, then one row per span with times in ns from the first."""
        names = sorted({span[0] for span in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round((s - t0) * 1e9), round((e - t0) * 1e9), p, j, int(err)]
            for n, s, e, p, j, err in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job", "error"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))  # fmt: skip


# per-layer metrics: (name, unit, better)
PER_LAYER = [
    ("cli.self_ms", "ms", "lower"),
    ("cli.output_kb", "KB", "lower"),
    ("files.calls", "count", "lower"),
    ("files.self_ms", "ms", "lower"),
    ("files.input_kb", "KB", "lower"),
    ("measurement.self_ms", "ms", "lower"),
    ("measurement.map.calls", "count", "lower"),
    ("measurement.map.self_ms", "ms", "lower"),
    ("measurement.outcome_probabilities.self_ms", "ms", "lower"),
    ("measurement.joint.self_ms", "ms", "lower"),
    ("measurement.check.calls", "count", "lower"),
    ("measurement.check.self_ms", "ms", "lower"),
    ("measurement.joint_mb", "MB-computed", "lower"),
    ("entanglement.self_ms", "ms", "lower"),
    ("entanglement.concurrence_mixed.calls", "count", "lower"),
    ("entanglement.concurrence_mixed.self_ms", "ms", "lower"),
    ("linalg.self_ms", "ms", "lower"),
    ("linalg.eig_hermitian.calls", "count", "lower"),
    ("linalg.eig_hermitian.self_ms", "ms", "lower"),
    ("linalg.tensor.calls", "count", "lower"),
    ("linalg.tensor.self_ms", "ms", "lower"),
    ("linalg.haar.self_ms", "ms", "lower"),
    ("linalg.schmidt.self_ms", "ms", "lower"),
    ("linalg.check.calls", "count", "lower"),
    ("linalg.check.self_ms", "ms", "lower"),
    ("protocols.self_ms", "ms", "lower"),
    ("protocols.spec_check.self_ms", "ms", "lower"),
    ("protocols.outcome_table.self_ms", "ms", "lower"),
    ("protocols.success_mspace.self_ms", "ms", "lower"),
    ("locc.self_ms", "ms", "lower"),
    ("locc.run.calls", "count", "lower"),
    ("locc.run.self_ms", "ms", "lower"),
    ("locc.dilation.self_ms", "ms", "lower"),
    ("locc.fourier_step.calls", "count", "lower"),
    ("locc.fourier_step.self_ms", "ms", "lower"),
    ("locc.runs_per_job", "runs/job", "lower"),
    ("locc.fourier_steps_per_branch", "steps/branch", "lower"),
    ("locc.konrad.self_ms", "ms", "lower"),
    ("locc.channel_check.self_ms", "ms", "lower"),
    ("modes.self_ms", "ms", "lower"),
    ("modes.divisor_infimum.calls", "count", "lower"),
    ("modes.divisor_infimum.self_ms", "ms", "lower"),
    *((f"{m}.self_share", "fraction", "lower") for m in MODULES),
    *((f"{m}.errors", "count", "lower") for m in MODULES),
    ("trace.traced_jobs_per_s", "1/s", "higher"),
    ("trace.untraced_jobs_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]


def layer_metrics(tracer: Tracer, locc_jobs: dict[str, int]) -> dict[str, float]:
    """Per-layer totals over the traced job list.

    ``locc_jobs`` maps each locc job id to the branch rows it reported.
    """
    summary = tracer.summary()
    values: dict[str, float] = {}
    job_s = summary.get(JOB_SPAN, {}).get("total_s", 0.0)
    for m in MODULES:
        entries = [e for name, e in summary.items() if name.split(".", 1)[0] == m]
        self_s = sum(e["self_s"] for e in entries)
        values[f"{m}.self_ms"] = self_s * 1e3
        values[f"{m}.calls"] = sum(e["calls"] for e in entries)
        values[f"{m}.self_share"] = self_s / job_s if job_s else 0.0
        values[f"{m}.errors"] = sum(e["errors"] for e in entries)
    for group, names in GROUPS.items():
        entries = [summary[n] for n in names if n in summary]
        values[f"{group}.calls"] = sum(e["calls"] for e in entries)
        values[f"{group}.self_ms"] = sum(e["self_s"] for e in entries) * 1e3
    values["cli.output_kb"] = tracer.counters["cli.output_bytes"] / 1024
    values["files.input_kb"] = tracer.counters["files.input_bytes"] / 1024
    values["measurement.joint_mb"] = tracer.counters["measurement.joint_bytes"] / 2**20
    steps = tracer.calls_by_job("locc.fourier_step")
    rows = sum(locc_jobs.values())
    values["locc.runs_per_job"] = values["locc.run.calls"] / len(locc_jobs) if locc_jobs else 0.0
    values["locc.fourier_steps_per_branch"] = sum(steps[j] for j in locc_jobs) / rows if rows else 0.0
    return values
