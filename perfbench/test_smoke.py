"""Smoke test of the benchmark harness: every job class once, with its checks.

    python3 -m pytest -q perfbench

It runs the ``smoke`` workload untraced and traced, and checks that the
metric lists in BENCHMARK.json match the ones the harness prints.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from jobs import WORKLOADS  # noqa: E402
from run import END_TO_END, OUT  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

SEED = 7


def _run(trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke", "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )  # fmt: skip
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / OUT / f"result-smoke-seed{SEED}-trace{trace}.json").read_text())
    return last, record


def test_smoke_runs_every_job_class_and_checks_it():
    plain, plain_record = _run(0)
    traced, traced_record = _run(1)
    for last in (plain, traced):
        assert last["correct"] is True and last["failed"] == 0
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
    kinds = {job["kind"] for job in plain_record["jobs"]}
    assert kinds == {"map", "entanglement", "locc-all", "locc-one", "theorem1", "konrad", "modes", "sweep", "invalid"}
    assert set(plain["metrics"]) == {name for name, _, _ in END_TO_END}
    assert set(traced["metrics"]) == {name for name, _, _ in PER_LAYER}
    # tracing must not change what the program prints
    digests = [{j["id"]: j["stdout_sha256"] for j in r["jobs"]} for r in (plain_record, traced_record)]
    assert digests[0] == digests[1]
    # run_locc_construction calls fourier_step d_a + d_a*d_b times, once per branch row
    assert traced_record["detail"]["fourier_steps_per_branch_by_shape"]["locc-all:4x4/4x4"] == 20
    assert traced["metrics"]["cli.errors"]["value"] == 4


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"][0]["name"] == "setup_s"
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items() if name != "smoke"
    }
