"""Command-line interface: formats, exit codes, determinism."""

import argparse
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import same_corpus
from conftest import depolarizing_kraus, mode_rows, pairs
from hypothesis import given, settings
from hypothesis import strategies as st

from mspace import cli, files, modes
from mspace.cli import MAX_ROWS, main
from mspace.entanglement import pure_entanglement
from mspace.files import ORJSON_MAX_BRACKETS, _read_json, load_measurement_set, load_state
from mspace.linalg import PureState, ValidationError, bell_phi_plus
from mspace.locc import run_locc_construction
from mspace.measurement import (
    LocalMeasurementSet,
    MeasurementSet,
    map_to_measurement_space,
    noisy_pair,
    z_projectors,
)
from mspace.report import _emit_json, _tsv_cell

P0 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
P1 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
# (1/sqrt 6) [[1, 1, 0], [1, 0, 1], [0, 1, -1]]: rank 2, spectrum (1/2, 1/2, 0); under Z projectors
# on both sides its image has rank 3 and spectrum (2/3, 1/6, 1/6)
DATA = Path(__file__).parent / "data"
RANK2_QUTRITS = str(DATA / "rank2_qutrits.json")


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own exits
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def state_to_obj(psi):
    return {"dims": list(psi.dims), "amplitudes": pairs(psi.vector)}


def measurement_set_to_obj(mset):
    ops = [{"label": label, "matrix": pairs(op)} for label, op in zip(mset.labels, mset.stack)]
    return {"dim": mset.dim, "operators": ops}


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def z_set_obj(label0, label1):
    """A qubit's Z projectors under two labels, as the JSON object of a set file."""
    return {"dim": 2, "operators": [{"label": label0, "matrix": P0}, {"label": label1, "matrix": P1}]}


@pytest.fixture
def plus_state_file(tmp_path):
    psi = PureState((2,), np.array([1.0, 1.0]) / np.sqrt(2))
    return write_json(tmp_path / "plus.json", state_to_obj(psi))


@pytest.fixture
def zproj_file(tmp_path):
    return write_json(tmp_path / "z.json", measurement_set_to_obj(z_projectors(2)))


@pytest.fixture
def loose_set_file(tmp_path):
    """A qubit set that misses completeness by ~1e-6: rejected by default,
    accepted when the environment loosens the tolerance."""
    eps = 1e-6
    m0 = np.diag([np.sqrt(1 - eps), 1.0]).astype(complex)
    ops = {
        "dim": 2,
        "operators": [
            {"label": "0", "matrix": pairs(m0 @ np.diag([1.0, 0.0]))},
            {"label": "1", "matrix": pairs(np.diag([0.0, 1.0]).astype(complex))},
        ],
    }
    return write_json(tmp_path / "loose.json", ops)


class TestMap:
    def test_plus_with_projector_file(self, capsys, plus_state_file, zproj_file):
        code, out, _ = run_cli(
            capsys, "map", "--state", plus_state_file, "--measurements", zproj_file
        )
        assert code == 0
        report = json.loads(out)
        amps = [row["amplitude"] for row in report["results"]]
        np.testing.assert_allclose(amps, [0.7071067811865476] * 2, atol=1e-12)

    def test_zero_state_with_noisy_pair(self, capsys, tmp_path):
        zero = write_json(
            tmp_path / "zero.json", state_to_obj(PureState((2,), np.array([1.0, 0.0])))
        )
        code, out, _ = run_cli(capsys, "map", "--state", zero, "--measurements", "noisy:0.9")
        assert code == 0
        amps = [row["amplitude"] for row in json.loads(out)["results"]]
        np.testing.assert_allclose(amps, [np.sqrt(0.9), np.sqrt(0.1)], atol=1e-10)

    def test_local_sets_attach_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "--state", "bell", "--alice", "noisy:0.9", "--bob", "noisy:0.9"
        )
        assert code == 0
        report = json.loads(out)
        assert report["structure"] == [2, 2]
        probs = [row["probability"] for row in report["results"]]
        np.testing.assert_allclose(probs, [0.41, 0.09, 0.09, 0.41], atol=1e-12)

    def test_incomplete_set_exits_two_naming_invariant(self, capsys, tmp_path):
        bad = write_json(
            tmp_path / "bad.json", {"dim": 2, "operators": [{"label": "0", "matrix": P0}]}
        )
        code, _, err = run_cli(capsys, "map", "--state", "bell", "--measurements", bad)
        assert code == 2
        assert "completeness" in err

    def test_unnormalizable_state_exits_two(self, capsys, tmp_path, zproj_file):
        bad = write_json(
            tmp_path / "bad_state.json",
            {"dims": [2], "amplitudes": [[2.0, 0.0], [0.0, 0.0]]},
        )
        code, _, err = run_cli(capsys, "map", "--state", bad, "--measurements", zproj_file)
        assert code == 2
        assert "state-normalization" in err

    def test_slightly_off_norm_repaired_with_warning(self, capsys, tmp_path, zproj_file):
        vec = np.array([1.0, 1.0]) / np.sqrt(2) * (1 + 5e-5)
        off = write_json(
            tmp_path / "off.json",
            {"dims": [2], "amplitudes": [[float(x), 0.0] for x in vec]},
        )
        code, out, err = run_cli(capsys, "map", "--state", off, "--measurements", zproj_file)
        assert code == 0
        assert "renormalized" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "--measurements", "z-projectors"],
            ["entanglement", "--alice", "z-projectors", "--bob", "z-projectors"],
            ["locc", "--alice", "z-projectors", "--bob", "z-projectors"],
        ],
    )
    def test_nan_amplitude_rejected_at_load(self, capsys, tmp_path, argv):
        nan_state = write_json(
            tmp_path / "nan.json",
            {"dims": [2, 2], "amplitudes": [[float("nan"), 0.0]] + [[0.5, 0.0]] * 3},
        )
        code, out, err = run_cli(capsys, argv[0], "--state", nan_state, *argv[1:])
        assert code == 2 and "state-normalization" in err and out == ""
        assert "RuntimeWarning" not in err

    def test_missing_measurements_flag(self, capsys):
        code, _, err = run_cli(capsys, "map", "--state", "bell")
        assert code == 2 and "flag-format" in err

    @pytest.mark.parametrize("command", ["map", "entanglement", "locc"])
    def test_swapped_local_dims_exit_two(self, capsys, tmp_path, command):
        # a (3, 2) state with a qubit set for Alice and a qutrit set for Bob has
        # the right total dimension but no meaningful outcome grid
        state = write_json(
            tmp_path / "s32.json", state_to_obj(PureState((3, 2), np.full(6, 1 / np.sqrt(6))))
        )
        alice = write_json(tmp_path / "a.json", measurement_set_to_obj(z_projectors(2)))
        bob = write_json(tmp_path / "b.json", measurement_set_to_obj(z_projectors(3)))
        code, out, err = run_cli(
            capsys, command, "--state", state, "--alice", alice, "--bob", bob
        )
        assert code == 2 and "dimension-match" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("map", "--state", "product0", "--dims", "0", "--measurements", "z-projectors"),
        ("entanglement", "--state", "product0", "--dims=2,0"),
        ("entanglement", "--state", "product0", "--dims=-1,2"),
        # the Bell state and a file's state have dims of their own
        ("locc", "--state", "bell", "--dims", "5,5", "--alice", "z-projectors", "--bob", "z-projectors"),
        ("map", "--state", "bell", "--dims", "3,3", "--alice", "z-projectors", "--bob", "z-projectors"),
        ("map", "--state", "PLUS_FILE", "--dims", "4", "--measurements", "z-projectors"),
        ("entanglement", "--state", "PLUS_FILE", "--dims", "1,2"),
    ])  # fmt: skip
    def test_product0_bad_dims_exit_two(self, capsys, plus_state_file, argv):
        argv = [plus_state_file if a == "PLUS_FILE" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and "error: state-dims: " in err and out == ""

    @pytest.mark.parametrize("state, dims", [("bell", "2,2"), ("PLUS_FILE", "2")])
    def test_dims_equal_to_the_state_accepted(self, capsys, plus_state_file, state, dims):
        state = plus_state_file if state == "PLUS_FILE" else state
        argv = ("map", "--state", state, "--dims", dims, "--measurements", "z-projectors")
        assert run_cli(capsys, *argv)[:2] == run_cli(capsys, *argv[:3], *argv[5:])[:2]

    def test_label_that_would_split_a_tsv_row_exits_two(self, capsys, tmp_path):
        mset = write_json(tmp_path / "set.json", z_set_obj("tab\there", "1"))
        argv = ("map", "--state", "bell", "--alice", mset, "--bob", "z-projectors", "--format", "tsv")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: measurement-labels: label 'tab\\there' holds a tab or a line break\n"

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_label_with_a_lone_surrogate_exits_two(self, capsys, tmp_path, fmt):
        # json.dumps escapes the surrogate, json reads it back, and it has no UTF-8 to print
        mset = write_json(tmp_path / "set.json", z_set_obj("\ud800", "1"))
        argv = ("map", "--state", "bell", "--alice", mset, "--bob", "z-projectors", "--format", fmt)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: measurement-labels: label '\\ud800' holds a lone surrogate\n"

    @settings(derandomize=True, deadline=None, max_examples=80, database=None)
    @given(labels=st.lists(st.text(st.characters() | st.sampled_from("\t\n\r"), max_size=4), min_size=2, max_size=2))
    def test_generated_labels_keep_tsv_rows_whole(self, tmp_path_factory, labels):
        # each example writes its own file; a function-scoped tmp_path would be shared by all of them
        path = write_json(tmp_path_factory.mktemp("labels") / "set.json", z_set_obj(*labels))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["map", "--state", "bell", "--alice", path, "--bob", path, "--format", "tsv"])
        if labels[0] == labels[1] or any(c in "".join(labels) for c in "\t\n\r"):
            assert (code, out.getvalue()) == (2, "")
            assert err.getvalue().startswith("error: measurement-labels: ")
            return
        assert code == 0 and err.getvalue() == ""
        header, *rows = [line for line in out.getvalue().split("\n")[:-1] if not line.startswith("#")]
        fields = header.split("\t")
        assert len(rows) == 4 and all(len(row.split("\t")) == len(fields) for row in rows)
        cells = [row.split("\t")[fields.index("label")] for row in rows]
        assert cells == [f"({a},{b})" for a in labels for b in labels]


class TestEntanglement:
    def test_bell_entropy(self, capsys):
        code, out, _ = run_cli(capsys, "entanglement", "--state", "bell", "--measure", "entropy")
        assert code == 0
        row = json.loads(out)["results"][0]
        assert abs(row["original"] - 1.0) < 1e-12
        assert "measurement_space" not in row

    @pytest.mark.parametrize("measure", ["entropy", "eof"])
    def test_bell_scores_exactly_one(self, capsys, measure):
        code, out, _ = run_cli(capsys, "entanglement", "--state", "bell", "--measure", measure)
        assert code == 0
        assert '"original": 1.0000000000000000e+00' in [line.strip() for line in out.splitlines()]

    def test_bell_noisy_concurrence_side_by_side(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "entanglement",
            "--state",
            "bell",
            "--alice",
            "noisy:0.9",
            "--bob",
            "noisy:0.9",
            "--measure",
            "concurrence",
        )
        assert code == 0
        row = json.loads(out)["results"][0]
        assert abs(row["original"] - 1.0) < 1e-12
        assert abs(row["measurement_space"] - 0.64) < 1e-9
        assert row["monotone"] is True

    def test_product_state_scores_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "entanglement",
            "--state",
            "product0",
            "--alice",
            "random:3:11",
            "--bob",
            "random:2:12",
        )
        assert code == 0
        row = json.loads(out)["results"][0]
        assert row["measurement_space"] < 1e-10

    QUTRITS = ("--state", "random:1", "--dims", "3,3", "--alice", "random:3:1", "--bob", "random:3:2")

    def test_eof_beyond_two_by_two_is_the_entropy(self, capsys):
        code, out, _ = run_cli(capsys, "entanglement", *self.QUTRITS, "--measure", "eof")
        assert code == 0
        eof = json.loads(out)["results"][0]
        assert eof["monotone"] is True
        code, out, _ = run_cli(capsys, "entanglement", *self.QUTRITS, "--measure", "entropy")
        entropy = json.loads(out)["results"][0]
        assert eof["original"] == entropy["original"]
        assert eof["measurement_space"] == entropy["measurement_space"]

    def test_concurrence_stays_two_by_two(self, capsys):
        code, out, err = run_cli(capsys, "entanglement", *self.QUTRITS, "--measure", "concurrence")
        assert code == 2 and "concurrence-dims" in err and out == ""

    def test_one_subsystem_has_no_cut(self, capsys, plus_state_file):
        for state in (("random:3", "--dims", "4"), (plus_state_file,)):
            code, out, err = run_cli(capsys, "entanglement", "--state", *state)
            assert code == 2 and "error: schmidt-split: " in err and out == ""

    @pytest.mark.parametrize("argv", [
        ("entanglement", "--state", "bell", "--split", "2,2"),
        ("entanglement", "--state", "bell", "--split", "1,4"),
        ("map", "--state", "bell", "--alice", "noisy:0.8", "--bob", "noisy:0.7"),
    ])  # fmt: skip
    def test_the_cached_bell_state_answers_as_a_fresh_one(self, capsys, monkeypatch, argv):
        assert load_state("bell") is bell_phi_plus()
        cached = [run_cli(capsys, *argv) for _ in range(2)]
        # built and checked on every call, as before the cache
        monkeypatch.setattr(files, "bell_phi_plus", bell_phi_plus.__wrapped__)
        assert load_state("bell") is not bell_phi_plus()
        assert np.array_equal(load_state("bell").vector, bell_phi_plus().vector)
        assert cached == [run_cli(capsys, *argv)] * 2 and cached[0][0] == 0


class TestMonotonicityCounterexample:
    """Local measurements can raise the image's entanglement above the state's. The package has a
    proof only for 2x2 states under rank-1 projective sets. Two exact inputs go from 1 bit to
    log2(3) - 1/3 = 1.2516 bits, and both commands that check the relation say so: the 3x3 state
    under Z projectors on both sides, and the Bell state under trine POVMs, sqrt(2/3)|e_a><e_a|
    with e_a at 0, 120 and 240 degrees for Alice and at 90, 210 and 330 degrees for Bob."""

    INPUTS = {
        "qutrits": ("--state", RANK2_QUTRITS, "--alice", "z-projectors", "--bob", "z-projectors"),
        "trines": ("--state", "bell", "--alice", str(DATA / "trine.json"), "--bob", str(DATA / "trine_90.json")),
    }

    @pytest.mark.parametrize("measure", ["entropy", "eof"])
    def test_entanglement_reports_it_not_monotone(self, capsys, measure):
        for argv in self.INPUTS.values():
            code, out, err = run_cli(capsys, "entanglement", *argv, "--measure", measure)
            (row,) = json.loads(out)["results"]
            assert (code, err, row["monotone"]) == (1, "", False)
            assert abs(row["original"] - 1.0) < 1e-12
            assert abs(row["measurement_space"] - (np.log2(3) - 1 / 3)) < 1e-12

    def test_locc_reports_it_not_monotone(self, capsys):
        for argv in self.INPUTS.values():
            code, out, err = run_cli(capsys, "locc", *argv, "--format", "tsv")
            assert (code, err) == (1, "")
            assert "\n# monotonicity=false\n# passed=false\n" in out

    def test_trine_image_is_exact(self, capsys):
        # |<e_a|f_b>|^2 is 3/4 off the diagonal and 0 on it, so p_ab = (1 - delta_ab) / 6: the
        # image is (J - I) / sqrt(6), with squared Schmidt coefficients (2/3, 1/6, 1/6)
        code, out, err = run_cli(capsys, "map", *self.INPUTS["trines"])
        rows = json.loads(out)["results"]
        assert (code, err) == (0, "")
        probs = np.array([row["probability"] for row in rows]).reshape(3, 3)
        np.testing.assert_allclose(probs, (1 - np.eye(3)) / 6, rtol=0, atol=1e-12)
        amps = np.array([row["amplitude"] for row in rows]).reshape(3, 3)
        schmidt = np.linalg.svd(amps, compute_uv=False) ** 2
        np.testing.assert_allclose(schmidt, [2 / 3, 1 / 6, 1 / 6], rtol=0, atol=1e-12)


class TestTheorem1:
    def test_random_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "theorem1",
            "--random",
            "--trials",
            "20",
            "--seed",
            "7",
            "--dims",
            "2,3",
            "--outcomes",
            "3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_delta"] < 1e-10
        assert len(report["results"]) == 20

    def test_protocol_file_noisy_alice(self, capsys, tmp_path):
        eye = np.eye(2, dtype=complex)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        protocol = {
            "state": state_to_obj(bell_phi_plus()),
            "alice": measurement_set_to_obj(noisy_pair(0.9)),
            "bob_unitaries": [pairs(eye), pairs(eye)],
            "verify": {
                "0": {"success": pairs(p0), "failure": pairs(p1)},
                "1": {"success": pairs(p1), "failure": pairs(p0)},
            },
        }
        path = write_json(tmp_path / "protocol.json", protocol)
        code, out, _ = run_cli(capsys, "theorem1", "--protocol", path)
        assert code == 0
        row = json.loads(out)["results"][0]
        assert abs(row["p_original"] - 0.9) < 1e-12
        assert abs(row["p_mspace"] - 0.9) < 1e-12

    def test_protocol_file_reports_its_own_outcome_count(self, capsys, tmp_path):
        eye = np.eye(2, dtype=complex)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        # a three-outcome qubit set: the projector on |0> and two halves of the one on |1>
        alice = MeasurementSet(2, ("0", "1", "2"), [p0, p1 / np.sqrt(2), p1 / np.sqrt(2)])
        protocol = {
            "state": "bell",
            "alice": measurement_set_to_obj(alice),
            "bob_unitaries": [pairs(eye)] * 3,
            "verify": {
                "0": {"success": pairs(p0), "failure": pairs(p1)},
                "1": {"success": pairs(p1), "failure": pairs(p0)},
                "2": {"success": pairs(p1), "failure": pairs(p0)},
            },
        }
        path = write_json(tmp_path / "protocol.json", protocol)
        code, out, _ = run_cli(capsys, "theorem1", "--protocol", path)
        assert code == 0
        report = json.loads(out)
        assert report["parameters"]["outcomes"] == 3 and report["parameters"]["trials"] == 1
        assert abs(report["results"][0]["p_original"] - 1.0) < 1e-12

    def test_nan_verify_operator_rejected(self, capsys, tmp_path):
        eye = np.eye(2, dtype=complex)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        bad = p0.copy()
        bad[0, 0] = np.nan
        protocol = {
            "state": "bell",
            "alice": measurement_set_to_obj(z_projectors(2)),
            "bob_unitaries": [pairs(eye), pairs(eye)],
            "verify": {
                "0": {"success": pairs(bad), "failure": pairs(p1)},
                "1": {"success": pairs(p1), "failure": pairs(p0)},
            },
        }
        path = write_json(tmp_path / "protocol.json", protocol)
        code, out, err = run_cli(capsys, "theorem1", "--protocol", path)
        assert code == 2 and "protocol-verify-completeness" in err and out == ""

    def test_malformed_protocol_exits_two(self, capsys, tmp_path):
        path = write_json(tmp_path / "broken.json", {"state": "bell"})
        code, _, err = run_cli(capsys, "theorem1", "--protocol", path)
        assert code == 2 and "protocol-schema" in err

    def test_zero_trials_rejected(self, capsys):
        code, out, err = run_cli(capsys, "theorem1", "--random", "--trials", "0", "--seed", "7")
        assert code == 2 and "flag-format" in err and out == ""

    @pytest.mark.parametrize(
        "flags, invariant",
        [
            (["--dims", "2,-1"], "state-dims"),
            (["--dims", "1000000,1000000", "--outcomes", "1000"], "protocol-size"),
            (["--dims", "1,1", "--outcomes", "100000"], "protocol-size"),
        ],
    )
    def test_shapes_rejected_before_drawing(self, capsys, flags, invariant):
        code, out, err = run_cli(capsys, "theorem1", "--random", "--seed", "7", *flags)
        assert code == 2 and f"error: {invariant}: " in err and out == ""


def random_rows(capsys, trials, dims="3,2", outcomes="3", seed="11"):
    argv = ["theorem1", "--random", "--seed", seed, "--trials", str(trials), "--dims", dims, "--outcomes", outcomes]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)["results"], out


class TestTheorem1Batches:
    def test_rows_equal_protocols_scored_one_by_one(self, capsys):
        from mspace.protocols import random_protocols, success_rates_mspace, success_rates_original

        rows, _ = random_rows(capsys, 12)
        for t, row in enumerate(rows):
            # trial t alone, as a stack of one
            spec = random_protocols(3, 2, 3, [np.random.default_rng((11, t))])
            assert row["trial"] == str(t)
            assert abs(row["p_original"] - success_rates_original(spec)[0]) <= 1e-15
            assert abs(row["p_mspace"] - success_rates_mspace(spec)[0]) <= 1e-15

    def test_rows_do_not_depend_on_the_trial_count(self, capsys):
        short, _ = random_rows(capsys, 7)
        long, _ = random_rows(capsys, 60)
        assert json.dumps(short) == json.dumps(long[:7])

    def test_chunked_run_matches_one_chunk(self, capsys, monkeypatch):
        from mspace import linalg, protocols

        _, whole = random_rows(capsys, 10)
        # three trials per chunk: 0-2, 3-5, 6-8, 9
        monkeypatch.setattr(linalg, "CHUNK_BYTES", 3 * protocols._trial_bytes(3, 2, 3))
        seen = []
        batches = protocols.random_protocol_batches

        def recording(*args):
            for batch in batches(*args):
                seen.append(list(batch.trials))
                yield batch

        monkeypatch.setattr("mspace.cli.random_protocol_batches", recording)
        _, chunked = random_rows(capsys, 10)
        assert seen == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        assert chunked == whole

    def test_effective_ops_formed_once_per_spec(self, capsys, monkeypatch):
        from mspace import linalg, protocols

        formed = []
        # the cached property's own function, so that an uncached one fails here
        cached = protocols.ProtocolSpec.__dict__["effective_ops"]
        fold = cached.func

        def counted(spec):
            formed.append(spec)
            return fold(spec)

        monkeypatch.setattr(cached, "func", counted)
        # three trials per chunk: four specs, each scored by both routes
        monkeypatch.setattr(linalg, "CHUNK_BYTES", 3 * protocols._trial_bytes(3, 2, 3))
        random_rows(capsys, 10)
        assert len(formed) == len({id(spec) for spec in formed}) == 4

    def test_planted_failure_names_its_trial(self, capsys, monkeypatch):
        from mspace import protocols

        haar = protocols.haar_unitaries

        def planted(g):
            u = haar(g)
            if g.ndim == 5 and g.shape[-1] == 2:  # Bob's (trial, outcome, re/im, 2, 2) draws
                u[4, 1] *= 0.5
            return u

        monkeypatch.setattr(protocols, "haar_unitaries", planted)
        code, out, err = run_cli(
            capsys, "theorem1", "--random", "--seed", "3", "--trials", "6", "--dims", "2,2"
        )
        assert code == 2 and out == ""
        assert "error: protocol-unitary: trial 4: Bob operator 1 is not a 2x2 unitary" in err


class TestLocc:
    def test_bell_z_projectors(self, capsys):
        code, out, _ = run_cli(
            capsys, "locc", "--state", "bell", "--alice", "z-projectors", "--bob", "z-projectors"
        )
        assert code == 0
        report = json.loads(out)
        row = report["results"][0]
        assert abs(row["fidelity"] - 1.0) < 1e-10
        assert report["monotonicity"] is True
        assert report["passed"] is True

    def test_noisy_all_outcomes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "locc",
            "--state",
            "bell",
            "--alice",
            "noisy:0.9",
            "--bob",
            "noisy:0.9",
            "--all-outcomes",
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]) == 4
        for row in report["results"]:
            assert row["ancilla_diagonal_deviation"] < 1e-9
        assert abs(report["concurrence_ancilla"] - 0.64) < 1e-9
        assert report["entropy_after"] <= report["entropy_before"] + 1e-9


    def test_all_outcomes_rows_match_single_branch_runs(self, capsys):
        argv = ["locc", "--state", "random:5", "--dims", "3,2",
                "--alice", "random:4:8", "--bob", "random:3:9"]  # fmt: skip
        code, out, _ = run_cli(capsys, *argv, "--all-outcomes")
        assert code == 0
        rows = json.loads(out)["results"]
        assert [(r["outcome_a"], r["outcome_b"]) for r in rows] == [
            (a, b) for a in range(3) for b in range(2)
        ]
        for row in rows:
            outcome = f"{row['outcome_a']},{row['outcome_b']}"
            code, out, _ = run_cli(capsys, *argv, "--outcome", outcome)
            assert code == 0
            assert json.loads(out)["results"] == [row]

    def test_verdict_is_the_runs_whatever_outcome_is_printed(self, capsys, monkeypatch):
        # Bob's uniformity deviations are about 2.8e-16 after Alice's outcome 0 and 6.1e-16
        # after her outcome 1, on either side of the tolerance
        monkeypatch.setenv("MSPACE_DEFAULT_TOL", "3e-16")
        argv = ("locc", "--state", "random:28", "--dims", "2,2", "--alice", "random:1:128", "--bob", "random:1:228")
        code, out, _ = run_cli(capsys, *argv, "--all-outcomes")
        passed = json.loads(out)["passed"]
        for outcome in ("0,0", "0,1", "1,0", "1,1"):
            got, out, _ = run_cli(capsys, *argv, "--outcome", outcome)
            assert (got, json.loads(out)["passed"]) == (code, passed)

    def test_outcome_out_of_range_rejected_before_the_construction(self, capsys, monkeypatch):
        monkeypatch.setattr("mspace.cli.run_locc_construction", _no_work)
        code, out, err = run_cli(
            capsys, "locc", "--state", "random:1", "--dims", "5,5",
            "--alice", "random:5:1", "--bob", "random:5:2", "--outcome", "9,9",
        )  # fmt: skip
        assert code == 2 and "error: locc-outcome: " in err and out == ""

    @pytest.mark.parametrize("command", [["entanglement"], ["locc", "--all-outcomes"]])
    def test_no_outcome_names_are_built_outside_map(self, capsys, monkeypatch, command):
        # only map prints the joint outcome names; the image carries amplitudes and grid alone
        argv = (*command, "--state", "random:4", "--dims", "3,2",
                "--alice", "random:3:1", "--bob", "random:2:2")  # fmt: skip
        expected = run_cli(capsys, *argv)

        def unnamed(self):
            raise AssertionError("joint outcome names built")

        monkeypatch.setattr(LocalMeasurementSet, "labels", property(unnamed))
        assert expected[0] == 0 and run_cli(capsys, *argv) == expected


class TestKonrad:
    def test_single_sided(self, capsys):
        code, out, _ = run_cli(capsys, "konrad", "--trials", "25", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_residual"] < 1e-8

    def test_two_sided(self, capsys):
        code, out, _ = run_cli(capsys, "konrad", "--trials", "25", "--seed", "3", "--two-sided")
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == 0

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_rejected(self, capsys, trials):
        code, out, err = run_cli(capsys, "konrad", "--trials", trials, "--seed", "3")
        assert code == 2 and "flag-format" in err and out == ""

    @pytest.mark.parametrize("two_sided", [[], ["--two-sided"]])
    def test_concurrence_calls_do_not_grow_with_the_trials(self, capsys, monkeypatch, two_sided):
        from mspace import locc

        calls = []
        real = locc.concurrence_mixed

        def counted(rho):
            calls.append(rho)
            return real(rho)

        monkeypatch.setattr(locc, "concurrence_mixed", counted)
        counts = []
        for trials in ("40", "7"):
            calls.clear()
            code, _, _ = run_cli(capsys, "konrad", "--trials", trials, "--seed", "3", *two_sided)
            assert code == 0
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_no_generator_is_built_per_trial(self, capsys, monkeypatch):
        built = []
        real = np.random.default_rng

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(np.random, "default_rng", counted)
        for argv in (["konrad", "--two-sided"], ["theorem1", "--random"]):
            code, _, _ = run_cli(capsys, *argv, "--trials", "40", "--seed", "3")
            assert code == 0
        assert built == []

    def test_one_eigensolve_per_chunk(self, capsys, monkeypatch):
        from mspace import linalg
        from mspace.locc import KONRAD_TRIAL_BYTES

        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        # 16 trials per chunk: 16, 16, 8
        monkeypatch.setattr(linalg, "CHUNK_BYTES", 16 * KONRAD_TRIAL_BYTES)
        code, _, _ = run_cli(capsys, "konrad", "--trials", "40", "--seed", "3", "--two-sided")
        assert code == 0
        assert calls == {"eigh": 3, "eigvalsh": 0}

    @pytest.mark.parametrize("two_sided", [[], ["--two-sided"]])
    def test_chunked_run_matches_one_chunk(self, capsys, monkeypatch, two_sided):
        from mspace import linalg
        from mspace.locc import KONRAD_TRIAL_BYTES

        argv = ["konrad", "--trials", "11", "--seed", "4", *two_sided]
        _, whole, _ = run_cli(capsys, *argv)
        # three trials per chunk: 0-2, 3-5, 6-8, 9-10
        monkeypatch.setattr(linalg, "CHUNK_BYTES", 3 * KONRAD_TRIAL_BYTES)
        seen = []

        def recording(*args):
            for chunk, rngs in linalg.seeded_chunks(*args):
                seen.append(list(chunk))
                yield chunk, rngs

        monkeypatch.setattr("mspace.cli.seeded_chunks", recording)
        _, chunked, _ = run_cli(capsys, *argv)
        assert seen == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10]]
        assert chunked == whole
        # and a trial's row does not depend on --trials
        _, first, _ = run_cli(capsys, "konrad", "--trials", "4", "--seed", "4", *two_sided)
        assert json.loads(first)["results"] == json.loads(whole)["results"][:4]

    @pytest.mark.parametrize("two_sided", [[], ["--two-sided"]])
    def test_no_state_or_channel_objects_are_built(self, capsys, monkeypatch, two_sided):
        from mspace.linalg import PureState
        from mspace.locc import Channel

        built = []
        for cls in (PureState, Channel):

            def counted(self, real=cls.__post_init__):
                built.append(type(self).__name__)
                real(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        code, _, _ = run_cli(capsys, "konrad", "--trials", "40", "--seed", "3", *two_sided)
        assert code == 0 and built == []
        # the counters do see both types; a basis state is built on every call, unlike the cached Bell state
        PureState.basis((2, 2), 0), Channel(depolarizing_kraus(0.5))
        assert built == ["PureState", "Channel"]


class TestModes:
    def test_single_pair(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--n", "1", "--m", "2")
        assert code == 0
        row = json.loads(out)["results"][0]
        assert row["count"] == 2 and row["prime"] is True and row["bound_bits"] == 0.0

    def test_grid_matches_library(self, capsys):
        from mspace.modes import useful_entanglement_bounds

        code, out, _ = run_cli(capsys, "modes", "--n-max", "6", "--m-max", "3")
        assert code == 0
        rows = json.loads(out)["results"]
        assert len(rows) == 12
        for row in rows:
            (system,) = mode_rows(useful_entanglement_bounds([(row["n"], row["m"])]))
            assert row["count"] == system.count and row["p"] == system.p
            assert abs(row["bound_bits"] - system.bound_bits) < 1e-12

    def test_count_over_cap_rejected_before_the_search(self, capsys):
        code, out, err = run_cli(capsys, "modes", "--n", "200", "--m", "20")
        assert code == 2 and "error: mode-count: " in err and out == ""

    @pytest.mark.parametrize("argv, invariant", [
        (("--n", "0", "--m", "2"), "mode-particles"),
        (("--n", "3", "--m", "1"), "mode-modes"),
    ])  # fmt: skip
    def test_invalid_pair_names_its_invariant(self, capsys, argv, invariant):
        code, out, err = run_cli(capsys, "modes", *argv)
        assert code == 2 and f"error: {invariant}: " in err and out == ""

    @pytest.mark.parametrize("argv", [("--n-max", "3", "--m-max", "1"), ("--n-max", "0", "--m-max", "3")])
    def test_empty_grid_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, "modes", *argv)
        assert code == 2 and "error: flag-format: " in err and out == ""

    def test_over_cap_grid_names_its_first_pair_in_grid_order(self, capsys):
        code, out, err = run_cli(capsys, "modes", "--n-max", "200", "--m-max", "12")
        assert code == 2 and out == ""
        assert err == (
            "error: mode-count: 55 particles in 12 modes give 1074082795968 outcomes, "
            "over the cap of 1000000000000\n"
        )

    def test_one_divisor_search_per_command(self, capsys, monkeypatch):
        calls = []
        real = modes.divisor_infima

        def counted(counts):
            calls.append(len(counts))
            return real(counts)

        monkeypatch.setattr(modes, "divisor_infima", counted)
        for argv in (("--n-max", "60", "--m-max", "8"), ("--n-max", "24", "--m-max", "6"), ("--n", "9", "--m", "5")):
            assert run_cli(capsys, "modes", *argv)[0] == 0
        assert calls == [420, 120, 1]

    def test_one_table_check_per_command(self, capsys, monkeypatch):
        calls = []
        real = modes.ModeSystem.__post_init__

        def counted(table):
            calls.append(np.size(table.n))
            return real(table)

        monkeypatch.setattr(modes.ModeSystem, "__post_init__", counted)
        for argv in (("--n-max", "60", "--m-max", "8"), ("--n-max", "24", "--m-max", "6"), ("--n", "9", "--m", "5")):
            assert run_cli(capsys, "modes", *argv)[0] == 0
        assert calls == [420, 120, 1]

    @pytest.mark.parametrize("argv", [
        ("--n", "1000000", "--m", "1000000"),  # the count alone takes tens of seconds to form
        ("--n", "7" * 4000, "--m", "3"),  # a count of 8000 digits, too long to print
    ])  # fmt: skip
    def test_count_far_over_the_cap_rejected_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "modes", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: mode-count: ") and err.endswith(
            " modes give more than the cap of 1000000000000 outcomes\n"
        )

    def test_prime_rows_flag_loose_weak_bound(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--n", "2", "--m", "2")
        row = json.loads(out)["results"][0]
        assert row["prime"] is True and row["weak_bound_loose"] is True


class TestSweep:
    def test_efficiency_curve(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--eta-start", "0.5", "--eta-end", "1.0", "--steps", "6"
        )
        assert code == 0
        rows = json.loads(out)["results"]
        assert len(rows) == 6
        for row in rows:
            expected = (2 * row["eta"] - 1) ** 2
            assert abs(row["concurrence_mspace"] - expected) < 1e-9
        assert abs(rows[0]["concurrence_mspace"]) < 1e-9
        assert abs(rows[-1]["concurrence_mspace"] - 1.0) < 1e-9

    def test_rejects_other_states(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--state", "product0")
        assert code == 2 and "sweep-state" in err

    @pytest.mark.parametrize("argv, first_bad", [
        (("--eta-start", "1.2"), "1.2"),
        (("--eta-end", "-0.1"), "-0.1"),
        (("--eta-end", "nan"), "nan"),
        (("--eta-start", "0.9", "--eta-end", "1.3", "--steps", "5"), "1.1"),
    ])  # fmt: skip
    def test_efficiency_outside_the_unit_interval_names_the_first_bad_eta(self, capsys, argv, first_bad):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 2 and out == ""
        assert err == f"error: noisy-eta: eta must lie in [0, 1], got {first_bad}\n"

    @pytest.mark.parametrize("argv, message", [
        (("--eta-start", "inf"), "--eta-start must lie in [0, 1], got inf"),
        (("--eta-start=-inf", "--steps", "1"), "--eta-start must lie in [0, 1], got -inf"),
        (("--eta-end", "inf", "--eta-start", "nan"), "--eta-end must lie in [0, 1], got inf"),
        (("--eta-start=1e308", "--eta-end=-1e308"),
         "--eta-start 1e+308 and --eta-end -1e+308 are too far apart for float steps"),
    ])  # fmt: skip
    def test_non_finite_steps_name_the_flags_given_without_a_warning(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 2 and out == "" and caught == []
        assert err == f"error: noisy-eta: {message}\n"

    def test_all_steps_are_mapped_in_one_call(self, capsys, monkeypatch):
        calls = []
        real = cli.local_images

        def counted(psi, alice, bob):
            calls.append(len(alice))
            return real(psi, alice, bob)

        monkeypatch.setattr(cli, "local_images", counted)
        monkeypatch.setattr(cli, "map_to_measurement_space", _no_work)
        monkeypatch.setattr(cli, "measurement_space_entanglement", _no_work)
        for steps in ("1", "6", "50"):
            code, _, _ = run_cli(capsys, "sweep", "--steps", steps)
            assert code == 0
        assert calls == [1, 6, 50]


    def test_each_measure_is_scored_in_one_call(self, capsys, monkeypatch):
        calls = []
        real = cli.pure_entanglements

        def counted(amplitudes, measure):
            calls.append((len(amplitudes), measure))
            return real(amplitudes, measure)

        monkeypatch.setattr(cli, "pure_entanglements", counted)
        for steps in ("1", "11"):
            code, _, _ = run_cli(capsys, "sweep", "--steps", steps)
            assert code == 0
        assert calls == [(1, "concurrence"), (1, "entropy"), (11, "concurrence"), (11, "entropy")]

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_planted_row_exits_two_naming_it(self, capsys, monkeypatch, fmt):
        from mspace import entanglement

        real = entanglement.concurrence_pure

        def planted(a):
            c = real(a)
            c[3] = 1.5
            return c

        monkeypatch.setattr(entanglement, "concurrence_pure", planted)
        code, out, err = run_cli(capsys, "sweep", "--steps", "6", "--format", fmt)
        assert code == 2 and out == ""
        assert err == "error: report-range: row 3: concurrence 1.5 outside [0, 1]\n"

def _no_work(*args, **kwargs):
    raise AssertionError("work started before the row count was checked")


class TestRowCap:
    # the function each command calls first for its rows, which must not run
    @pytest.mark.parametrize("argv, first_step", [
        (("sweep", "--steps", str(10**12)), "bell_phi_plus"),
        (("sweep", "--steps", str(MAX_ROWS + 1)), "bell_phi_plus"),
        (("konrad", "--seed", "1", "--trials", str(MAX_ROWS + 1)), "random_konrad_trials"),
        (("theorem1", "--random", "--seed", "1", "--trials", str(MAX_ROWS + 1)), "random_protocol_batches"),
        (("modes", "--n-max", str(MAX_ROWS + 1), "--m-max", "2"), "useful_entanglement_bounds"),
        (("modes", "--n-max", str(MAX_ROWS // 7 + 1), "--m-max", "8"), "useful_entanglement_bounds"),
    ])  # fmt: skip
    def test_too_many_rows_rejected_before_any_work(self, capsys, monkeypatch, argv, first_step):
        monkeypatch.setattr(f"mspace.cli.{first_step}", _no_work)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and "error: flag-format: " in err and out == ""

    def test_row_count_too_long_to_print_names_the_invariant(self, capsys):
        # each flag has the most digits an int converts, so their product has too many to print
        nines = "9" * 4300
        code, out, err = run_cli(capsys, "modes", "--n-max", nines, "--m-max", nines)
        assert (code, out) == (2, "")
        rows = "the --n-max/--m-max grid asks for at least 10^4300 report rows"
        assert err == f"error: flag-format: {rows}, over the cap 100000\n"

    def test_map_over_the_cap_through_a_local_pair_rejected_before_the_map(self, capsys, monkeypatch):
        # 400 x 400 outcomes: both sets fit the byte cap, the 160,000 rows do not fit the row cap
        monkeypatch.setattr("mspace.cli.map_to_measurement_space", _no_work)
        argv = ("map", "--state", "bell", "--alice", "random:400:1", "--bob", "random:400:2")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: flag-format: --alice/--bob asks for 160000 report rows, over the cap 100000\n"

    @pytest.mark.parametrize("cap, code", [(3, 2), (4, 0)])
    def test_map_over_the_cap_through_one_set_rejected(self, capsys, monkeypatch, cap, code):
        monkeypatch.setattr("mspace.cli.MAX_ROWS", cap)
        got, out, err = run_cli(capsys, "map", "--state", "bell", "--measurements", "random:4:1")
        over = "error: flag-format: --measurements asks for 4 report rows, over the cap 3\n"
        assert got == code and (out == "") == (code == 2) and err == (over if code == 2 else "")

    # the call that would allocate the built-in, which must not run
    @pytest.mark.parametrize("argv, first_step, invariant", [
        (("locc", "--state", "random:1", "--dims", "100000,100000", "--alice", "z-projectors",
          "--bob", "z-projectors"), "haar_state", "state-size"),
        (("map", "--state", "product0", "--dims", "100000,100000", "--measurements", "z-projectors"),
         "PureState.basis", "state-size"),
        (("locc", "--state", "random:1", "--dims", "3000,1", "--alice", "z-projectors", "--bob", "z-projectors"),
         "z_projectors", "measurement-size"),
        (("map", "--state", "product0", "--dims", "2000", "--measurements", "z-projectors"),
         "z_projectors", "measurement-size"),
        (("map", "--state", "bell", "--alice", "random:100000:1", "--bob", "z-projectors"),
         "random_measurement_set", "measurement-size"),
    ])  # fmt: skip
    def test_builtin_over_the_byte_cap_rejected_before_allocating(
        self, capsys, monkeypatch, argv, first_step, invariant
    ):
        monkeypatch.setattr(f"mspace.files.{first_step}", _no_work)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and f"error: {invariant}: " in err and "over the cap" in err and out == ""

    @pytest.mark.parametrize("command", [["map"], ["entanglement"], ["locc", "--all-outcomes"]])
    def test_local_pair_over_the_byte_cap_rejected_before_building(self, capsys, monkeypatch, command):
        # at a 1 MiB cap each set on dim 20 fits (128 KB), but the pair's product
        # tensor, 400 x 400 entries (2.56 MB), does not
        monkeypatch.setattr("mspace.linalg.TRIAL_BYTES_CAP", 1 << 20)
        for name in ("local_product", "tensor", "_gram"):
            monkeypatch.setattr(f"mspace.measurement.{name}", _no_work)
        argv = ("--state", "product0", "--dims", "20,20", "--alice", "z-projectors", "--bob", "z-projectors")
        code, out, err = run_cli(capsys, *command, *argv)
        assert code == 2 and "error: measurement-size: " in err and "over the cap" in err and out == ""

    def test_locc_run_over_the_byte_cap_rejected_before_the_pair_check(self, capsys, monkeypatch):
        # at a 1 MiB cap each pair's product tensor fits, and so does its map, but the run's largest
        # array does not: Alice's states of 10 x 100 x 100 entries (1.6 MB), the ancilla output of
        # 272 x 272 (1.18 MB), Bob's blocks of 2 x 33 x 33 x 33 (1.15 MB)
        monkeypatch.setattr("mspace.linalg.TRIAL_BYTES_CAP", 1 << 20)
        lines = [
            ("--state", "random:1", "--dims", "10,10", "--alice", "random:10:1", "--bob", "random:10:2"),
            ("--state", "bell", "--alice", "random:17:1", "--bob", "random:16:2"),
            ("--state", "product0", "--dims", "2,33", "--alice", "z-projectors", "--bob", "z-projectors"),
        ]
        for argv in lines:
            assert run_cli(capsys, "map", *argv)[0] == 0
        for name in ("locc._checked_image", "measurement.local_product", "locc.fourier_step"):
            monkeypatch.setattr(f"mspace.{name}", _no_work)
        for argv in lines:
            code, out, err = run_cli(capsys, "locc", *argv)
            assert code == 2 and "error: locc-size: " in err and "over the cap" in err and out == ""

    @pytest.mark.parametrize("argv", [
        # Bob's blocks, 2 x 12 x 12 x 12 entries (55 KB), are the run's largest array
        ("locc", "--state", "product0", "--dims", "2,12", "--alice", "z-projectors", "--bob", "z-projectors"),
        # the pair's product tensor holds 3600 entries (58 KB); no array of 3600^2 is built
        ("map", "--state", "product0", "--dims", "60,60", "--alice", "random:1:1", "--bob", "random:1:2"),
    ])  # fmt: skip
    def test_local_pair_whose_arrays_fit_the_byte_cap_runs(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("mspace.linalg.TRIAL_BYTES_CAP", 1 << 16)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and json.loads(out)["command"] == argv[0]

    def test_largest_grid_in_use_is_under_the_cap(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--n-max", "60", "--m-max", "8")
        assert code == 0 and len(json.loads(out)["results"]) == 420 <= MAX_ROWS


class TestReportContract:
    def test_identical_seed_identical_bytes(self, capsys):
        argv = ["konrad", "--trials", "10", "--seed", "5"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_json_floats_have_full_precision(self, capsys):
        _, out, _ = run_cli(
            capsys, "map", "--state", "bell", "--alice", "noisy:0.9", "--bob", "noisy:0.9"
        )
        floats = re.findall(r"-?\d\.\d+e[+-]\d{2}", out)
        assert floats, "expected scientific-notation floats in json output"
        assert all(len(f.split(".")[1].split("e")[0]) == 16 for f in floats)
        # and they parse back to the exact doubles
        probs = [row["probability"] for row in json.loads(out)["results"]]
        assert probs[0] == 0.41000000000000003 or abs(probs[0] - 0.41) < 1e-15

    def test_tsv_output(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "3", "--format", "tsv")
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert lines[0].split("\t") == [
            "eta",
            "entropy_original",
            "concurrence_mspace",
            "entropy_mspace",
        ]
        assert len(lines) == 4

    def test_tsv_monotone_flag_is_lowercase(self, capsys):
        code, out, _ = run_cli(capsys, "entanglement", "--state", "bell", "--alice", "noisy:0.9",
                               "--bob", "noisy:0.9", "--format", "tsv")  # fmt: skip
        header, row = (line.split("\t") for line in out.splitlines() if not line.startswith("#"))
        assert code == 0 and dict(zip(header, row))["monotone"] == "true"

    @pytest.mark.parametrize("argv, line", [
        (("konrad", "--seed", "1", "--trials", "3"), "# violations=null"),
        (("konrad", "--seed", "1", "--trials", "3", "--two-sided"), "# max_residual=null"),
        (("map", "--state", "bell", "--measurements", "random:3:5"), "# structure=null"),
    ])  # fmt: skip
    def test_tsv_none_is_null(self, capsys, argv, line):
        code, out, _ = run_cli(capsys, *argv, "--format", "tsv")
        assert code == 0 and line in out.splitlines()

    @pytest.mark.parametrize("value", [np.float32(0.1), np.int64(-7), np.bool_(True), np.str_("a\tb")])
    def test_numpy_scalars_print_as_their_python_values(self, value):
        assert _tsv_cell(value) == _tsv_cell(value.item())
        assert _emit_json(value) == _emit_json(value.item())

    @pytest.mark.parametrize("emit", [_emit_json, _tsv_cell])
    @pytest.mark.parametrize(
        "value", [1 + 2j, np.complex128(1 + 2j), np.array(0.5)], ids=["complex", "complex128", "0-d array"]
    )
    def test_other_types_are_a_programming_error(self, emit, value):
        with pytest.raises(TypeError, match="^cannot serialize"):
            emit(value)

    def test_env_tolerance_override(self, capsys, loose_set_file, monkeypatch):
        path = loose_set_file
        code, _, err = run_cli(capsys, "map", "--state", "product0", "--dims", "2",
                               "--measurements", path)
        assert code == 2 and "completeness" in err
        monkeypatch.setenv("MSPACE_DEFAULT_TOL", "1e-4")
        code, out, _ = run_cli(capsys, "map", "--state", "product0", "--dims", "2",
                               "--measurements", path)
        assert code == 0

    @pytest.mark.parametrize("command", [["map"], ["entanglement"], ["locc", "--all-outcomes"]])
    def test_env_tolerance_governs_map_entanglement_and_locc(
        self, capsys, loose_set_file, monkeypatch, command
    ):
        argv = [*command, "--state", "bell", "--alice", loose_set_file, "--bob", "z-projectors"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and "error: completeness: " in err and out == ""
        monkeypatch.setenv("MSPACE_DEFAULT_TOL", "1e-4")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["parameters"]["tolerance"] == 1e-4
        if command[0] == "locc":
            assert report["passed"] is True and len(report["results"]) == 4

    @pytest.mark.parametrize("command", [["map"], ["entanglement"], ["locc", "--all-outcomes"]])
    def test_map_entanglement_and_locc_accept_the_same_pairs(self, capsys, monkeypatch, command):
        # each noisy set misses completeness by about 1e-16, while the Kronecker
        # product of the two Gram matrices may not; all three commands check both
        monkeypatch.setenv("MSPACE_DEFAULT_TOL", "1e-16")
        argv = (*command, "--state", "bell", "--alice", "noisy:0.8", "--bob", "noisy:0.7")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and "error: completeness: " in err and out == ""

    def test_library_reads_no_environment(self, zproj_file, monkeypatch):
        # only the command line reads MSPACE_DEFAULT_TOL; the library takes the tolerance
        monkeypatch.setenv("MSPACE_DEFAULT_TOL", "garbage")
        zproj = load_measurement_set(zproj_file)
        local = LocalMeasurementSet(zproj, zproj)
        image = map_to_measurement_space(bell_phi_plus(), local)
        trace = run_locc_construction(bell_phi_plus(), local)
        np.testing.assert_allclose(trace.ancilla_diagonal, image.probabilities(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1e-10", "1e-3"])
    def test_env_tolerance_must_be_finite_and_in_range(self, capsys, monkeypatch, value):
        # with an unbounded tolerance a lone |0><0| would pass as a complete set
        monkeypatch.setenv("MSPACE_DEFAULT_TOL", value)
        code, out, err = run_cli(
            capsys, "map", "--state", "bell", "--alice", "z-projectors", "--bob", "z-projectors"
        )
        assert code == 2 and "tolerance-env" in err and out == ""

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_nonfinite_report_exits_two_printing_nothing(self, capsys, monkeypatch, fmt):
        # success rates carry no range check, so only the emitter stands in the way
        monkeypatch.setattr("mspace.cli.success_rates_mspace", lambda spec: np.full(3, np.nan))
        code, out, err = run_cli(
            capsys, "theorem1", "--random", "--seed", "1", "--trials", "3", "--format", fmt
        )
        assert code == 2 and "report-nonfinite" in err
        assert out == ""

    @pytest.mark.parametrize("value", [1.5, float("nan")])
    def test_out_of_range_value_exits_two_printing_nothing(self, capsys, monkeypatch, value):
        # the kernel's concurrence step, planted on every row of the stack
        monkeypatch.setattr("mspace.entanglement.concurrence_pure", lambda a: np.full(len(a), value))
        code, out, err = run_cli(capsys, "entanglement", "--state", "bell", "--measure", "concurrence")
        assert code == 2 and "report-range" in err
        assert out == ""

    @pytest.mark.parametrize("value", [1.5, float("nan")])
    def test_sweep_original_entropy_is_range_checked(self, capsys, monkeypatch, value):
        from mspace import entanglement

        real = entanglement._entropy_bits

        def planted(p):
            # plant the value on the rows with the Bell spectrum only: the original
            # state's; the images below are not Bell
            return np.where(np.isclose(p, 0.5).all(axis=-1), value, real(p))

        monkeypatch.setattr(entanglement, "_entropy_bits", planted)
        code, out, err = run_cli(
            capsys, "sweep", "--eta-start", "0.5", "--eta-end", "0.6", "--steps", "2"
        )
        assert code == 2 and "error: report-range: " in err
        assert out == ""

    @pytest.mark.parametrize("argv, key, rows", [
        (("entanglement", "--state", "bell", "--alice", "noisy:0", "--bob", "noisy:0",
          "--measure", "concurrence"), "measurement_space", [0]),
        (("sweep", "--eta-start", "0", "--eta-end", "1", "--steps", "1001"), "concurrence_mspace", [0, 1000]),
    ])  # fmt: skip
    def test_printed_concurrence_lies_in_the_exact_range(self, capsys, argv, key, rows):
        # the image's concurrence rounds to 1 + 2^-52 at these rows; the report prints 1
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        results = json.loads(out)["results"]
        assert all(0.0 <= row[key] <= 1.0 for row in results)
        assert [results[k][key] for k in rows] == [1.0] * len(rows)

    @pytest.mark.parametrize("value", [1.5, float("nan")])
    def test_locc_ancilla_concurrence_is_range_checked(self, capsys, monkeypatch, value):
        monkeypatch.setattr("mspace.cli.concurrence_mixed", lambda rho: value)
        code, out, err = run_cli(
            capsys, "locc", "--state", "bell", "--alice", "noisy:0.9", "--bob", "noisy:0.9"
        )
        assert code == 2 and "error: report-range: " in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("modes", "--n", "1", "--m", "2", "--n-max", "2", "--m-max", "2"),
        ("modes", "--n", "1", "--n-max", "2", "--m-max", "2"),
        ("locc", "--state", "bell", "--alice", "z-projectors", "--bob", "z-projectors",
         "--outcome", "9,9", "--all-outcomes"),
        ("locc", "--state", "bell", "--alice", "z-projectors", "--bob", "z-projectors",
         "--outcome", "0,0", "--all-outcomes"),
        ("map", "--state", "bell", "--measurements", "z-projectors",
         "--alice", "z-projectors", "--bob", "z-projectors"),
        ("theorem1", "--protocol", "missing.json", "--random", "--seed", "3", "--trials", "50"),
        ("entanglement", "--state", "bell", "--alice", "z-projectors"),
        ("entanglement", "--state", "bell", "--bob", "z-projectors"),
        # rejected before the file is read, so a missing file is not named
        ("theorem1", "--protocol", "missing.json", "--seed", "3"),
        ("theorem1", "--protocol", "missing.json", "--dims", "3,3"),
        ("theorem1", "--protocol", "missing.json", "--outcomes", "2"),
        ("theorem1", "--protocol", "missing.json", "--trials", "1"),
        # an empty value is a given flag, not an absent one
        ("theorem1", "--random", "--seed", "1", "--dims", ""),
        ("entanglement", "--state", "bell", "--split", ""),
        ("locc", "--state", "bell", "--alice", "z-projectors", "--bob", "z-projectors",
         "--outcome", "", "--all-outcomes"),
        ("theorem1", "--protocol", "", "--random", "--seed", "1"),
        ("map", "--state", "bell", "--measurements", "", "--alice", "z-projectors", "--bob", "z-projectors"),
        ("map", "--state", "bell", "--dims", "", "--alice", "z-projectors", "--bob", "z-projectors"),
    ])  # fmt: skip
    def test_conflicting_flag_sets_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and "error: flag-format: " in err and out == ""

    @pytest.mark.parametrize("argv, invariant", [
        (("konrad", "--seed", "-1"), "flag-format"),
        (("theorem1", "--random", "--seed", "-1"), "flag-format"),
        (("map", "--state", "random:-3", "--alice", "z-projectors", "--bob", "z-projectors"), "state-name"),
        (("map", "--state", "bell", "--alice", "random:2:-1", "--bob", "z-projectors"), "measurement-name"),
    ])  # fmt: skip
    def test_negative_seed_names_its_invariant(self, capsys, argv, invariant):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and f"error: {invariant}: " in err and "must be >= 0" in err and out == ""

    @pytest.mark.parametrize("kind, fields, invariant", [
        ("state", {"dims": 4}, "state-schema"),
        ("state", {"dims": ["a"]}, "state-schema"),
        ("measurement", {"operators": 5}, "measurement-schema"),
        ("measurement", {"dim": "x"}, "measurement-schema"),
        ("protocol", {"bob_unitaries": 5}, "protocol-schema"),
        ("protocol", {"verify": [1]}, "protocol-schema"),
        ("protocol", {"verify": {"0": 5, "1": 5}}, "protocol-verify"),
        # JSON true is a bool, not the integer 1
        ("state", {"dims": [True, 2], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, "state-schema"),
        ("measurement", {"dim": True, "operators": [{"label": "0", "matrix": [[[1.0, 0.0]]]}]},
         "measurement-schema"),
    ])  # fmt: skip
    def test_wrongly_typed_field_is_named(self, capsys, tmp_path, kind, fields, invariant):
        eye = pairs(np.eye(2))
        valid = {
            "state": state_to_obj(bell_phi_plus()),
            "measurement": measurement_set_to_obj(z_projectors(2)),
            "protocol": {
                "state": "bell",
                "alice": measurement_set_to_obj(z_projectors(2)),
                "bob_unitaries": [eye, eye],
                "verify": {label: {"success": eye, "failure": P0} for label in ("0", "1")},
            },
        }[kind]
        path = write_json(tmp_path / f"{kind}.json", {**valid, **fields})
        argv = {
            "state": ("map", "--state", path, "--alice", "z-projectors", "--bob", "z-projectors"),
            "measurement": ("map", "--state", "bell", "--alice", path, "--bob", "z-projectors"),
            "protocol": ("theorem1", "--protocol", path),
        }[kind]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and f"error: {invariant}: " in err and out == ""

    @pytest.mark.parametrize("content", [
        b'\xff\xfe{"dims": [2], "amplitudes": []}',  # not UTF-8
        b"[" * 10**5,  # nested deeper than the decoder recurses
    ], ids=["not-utf8", "too-deep"])  # fmt: skip
    @pytest.mark.parametrize("flag", ["--state", "--alice", "--protocol"])
    def test_undecodable_json_is_named(self, capsys, tmp_path, content, flag):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        argv = {
            "--state": ("map", "--state", str(path), "--alice", "z-projectors", "--bob", "z-projectors"),
            "--alice": ("map", "--state", "bell", "--alice", str(path), "--bob", "z-projectors"),
            "--protocol": ("theorem1", "--protocol", str(path)),
        }[flag]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and "error: file-json: " in err and out == ""

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mspace.cli", "modes", "--n", "1", "--m", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"][0]["count"] == 2

    def test_closed_stdout_exits_quietly_with_the_command_code(self):
        # the reader stops after 100 bytes, as `| head -c 100` does, of a report far larger than a pipe holds
        proc = subprocess.Popen(
            [sys.executable, "-m", "mspace.cli", "sweep", "--steps", "20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate()
        assert (proc.returncode, err) == (0, b"")


def _file_argv(kind, path):
    """A command that loads ``path`` as a file of ``kind``."""
    return {
        "state": ("map", "--state", path, "--alice", "z-projectors", "--bob", "z-projectors"),
        "set": ("map", "--state", "bell", "--alice", path, "--bob", "z-projectors"),
        "protocol": ("theorem1", "--protocol", path),
    }[kind]


def _entry_obj(kind, entry):
    """A qubit file of ``kind`` that is valid but for ``entry``: in both amplitudes of a state,
    in the corner of a set's first operator, or in the corner of a protocol's first Bob unitary."""
    corner = [[[entry, 0], [0, 0]], [[0, 0], [0, 0]]]
    eye = pairs(np.eye(2))
    return {
        "state": {"dims": [2], "amplitudes": [[entry, 0], [entry, 0]]},
        "set": {"dim": 2, "operators": [{"label": "0", "matrix": corner}, {"label": "1", "matrix": P1}]},
        "protocol": {
            "state": "bell",
            "alice": measurement_set_to_obj(z_projectors(2)),
            "bob_unitaries": [[corner[0], eye[1]], eye],
            "verify": {label: {"success": eye, "failure": P0} for label in ("0", "1")},
        },
    }[kind]


def _valid_obj(kind, pair):
    """A qubit file of ``kind`` whose first pair is ``pair``, valid where ``pair`` is 1: the first
    amplitude of a |00> state, the corner of a set's first Z projector, or the corner of a
    protocol's first Bob unitary, the identity."""
    corner = [[pair, [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    eye = pairs(np.eye(2))
    return {
        "state": {"dims": [2, 2], "amplitudes": [pair, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
        "set": {"dim": 2, "operators": [{"label": "0", "matrix": corner}, {"label": "1", "matrix": P1}]},
        "protocol": {
            "state": "bell",
            "alice": z_set_obj("0", "1"),
            "bob_unitaries": [[corner[0], eye[1]], eye],
            "verify": {label: {"success": P0, "failure": P1} for label in ("0", "1")},
        },
    }[kind]


class TestFileEntries:
    """Entries of state, set and protocol files whose values break an invariant."""

    @pytest.mark.parametrize("kind", ["state", "set", "protocol"])
    def test_boolean_entry_is_named(self, capsys, tmp_path, kind):
        # read as 1 and 0, [true, false] would make each file valid: a product state, Z projectors,
        # a Bob unitary equal to the identity
        path = write_json(tmp_path / "bool.json", _valid_obj(kind, [True, False]))
        code, out, err = run_cli(capsys, *_file_argv(kind, path))
        assert (code, out) == (2, "")
        assert err.startswith("error: complex-pairs: ") and err.count("\n") == 1
        # and with [1.0, 0.0] in its place, each runs, also beside a true that is not an amplitude
        for extra in ({}, {"note": True}):
            path = write_json(tmp_path / "number.json", {**_valid_obj(kind, [1.0, 0.0]), **extra})
            assert run_cli(capsys, *_file_argv(kind, path))[0] == 0

    @pytest.mark.parametrize("broken, invariant", [
        ({"label": "1"}, "measurement-schema: each operator needs 'label' and 'matrix'"),
        ({"label": "DEEP", "matrix": P1}, "measurement-labels: a label is nested too deep to print"),
    ], ids=["schema", "label"])  # fmt: skip
    @pytest.mark.parametrize("matrix_first", [True, False])
    def test_set_entries_fail_in_file_order(self, capsys, tmp_path, broken, invariant, matrix_first):
        # the matrices are converted together, yet the first of two broken entries is the one named
        bad = {"label": "0", "matrix": [[["x", 0.0]]]}
        operators = [bad, broken] if matrix_first else [broken, bad]
        path = tmp_path / "set.json"
        text = json.dumps({"dim": 2, "operators": operators})
        path.write_text(text.replace('"DEEP"', "[" * 5000 + "]" * 5000), encoding="utf-8")
        code, out, err = run_cli(capsys, *_file_argv("set", str(path)))
        first = "complex-pairs: matrix entries must be [re, im] pairs" if matrix_first else invariant
        assert (code, out, err) == (2, "", f"error: {first}\n")

    @pytest.mark.parametrize("matrix_first", [True, False])
    def test_protocol_verify_pairs_fail_in_file_order(self, capsys, tmp_path, matrix_first):
        # the verify matrices are converted together, yet a broken matrix of Alice's first label
        # is named before her second label's missing pair, and her first label's missing pair
        # before a broken matrix of the second
        obj = _valid_obj("protocol", [1.0, 0.0])
        obj["verify"] = {"0" if matrix_first else "1": {"success": [[["x", 0.0]]], "failure": P1}}
        path = write_json(tmp_path / "protocol.json", obj)
        code, out, err = run_cli(capsys, *_file_argv("protocol", path))
        first = "complex-pairs: matrix entries must be [re, im] pairs" if matrix_first else (
            "protocol-verify: no verify pair for Alice label '0'"
        )
        assert (code, out, err) == (2, "", f"error: {first}\n")

    @pytest.mark.parametrize("kind", ["state", "set", "protocol"])
    def test_huge_integer_entry_is_named(self, capsys, tmp_path, kind):
        # a 400-digit integer loads as an int too large for a float
        path = write_json(tmp_path / "huge.json", _entry_obj(kind, 10**400))
        code, out, err = run_cli(capsys, *_file_argv(kind, path))
        assert code == 2 and out == ""
        assert err.startswith("error: complex-pairs: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind, entry, invariant", [
        ("set", 1e300, "completeness"),
        ("set", float("inf"), "completeness"),
        ("state", 1e300, "state-normalization"),
        ("state", float("-inf"), "state-normalization"),
        ("protocol", 1e300, "protocol-unitary"),
        ("protocol", float("inf"), "protocol-unitary"),
    ])  # fmt: skip
    def test_huge_or_non_finite_entry_prints_only_its_error(self, capsys, tmp_path, kind, entry, invariant):
        path = write_json(tmp_path / "entry.json", _entry_obj(kind, entry))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *_file_argv(kind, path))
        assert code == 2 and out == "" and caught == []
        assert err.startswith(f"error: {invariant}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind, obj", [
        ("state", _entry_obj("state", "DIGITS")),
        ("set", z_set_obj("DIGITS", "1")),
    ])  # fmt: skip
    def test_over_long_integer_is_named_as_file_json(self, capsys, tmp_path, kind, obj):
        # 5000 digits: past the 4300 Python converts from a string, so no JSON decoder reads it
        path = tmp_path / "long.json"
        path.write_text(json.dumps(obj).replace('"DIGITS"', "1" * 5000), encoding="utf-8")
        code, out, err = run_cli(capsys, *_file_argv(kind, str(path)))
        assert code == 2 and out == ""
        assert err.startswith("error: file-json: ") and err.count("\n") == 1

    def test_zero_dim_fails_as_state_dims(self, capsys, tmp_path):
        path = write_json(tmp_path / "zero.json", {"dims": [0, 4], "amplitudes": []})
        code, out, err = run_cli(capsys, *_file_argv("state", path))
        assert code == 2 and out == ""
        assert err == "error: state-dims: subsystem dimensions must be >= 1, got (0, 4)\n"

    @pytest.mark.parametrize("entry", [2**64, -(2**63) - 1, 10**300], ids=["2^64", "-2^63-1", "10^300"])
    @pytest.mark.parametrize("kind", ["state", "set", "protocol"])
    def test_entry_past_int64_gives_the_json_result(self, capsys, tmp_path, monkeypatch, kind, entry):
        # orjson reads an integer outside [-2^63, 2^64) as a float, json as an int: the same bits
        path = write_json(tmp_path / "big.json", _entry_obj(kind, entry))
        ours = run_cli(capsys, *_file_argv(kind, path))
        monkeypatch.setattr("mspace.files.ORJSON_MAX_BRACKETS", -1)  # every file read by json
        assert ours == run_cli(capsys, *_file_argv(kind, path))

    @pytest.mark.parametrize("value", [2**64, -(2**63) - 1], ids=["2^64", "-2^63-1"])
    @pytest.mark.parametrize("kind, invariant", [
        ("state", "state-schema: state files need 'dims' as a list of integers"),
        ("set", "measurement-schema: measurement files need 'dim' as an integer and 'operators' as a list"),
    ], ids=["state", "set"])  # fmt: skip
    def test_dims_past_int64_fail_the_schema(self, capsys, tmp_path, kind, invariant, value):
        # read as floats, where json read integers the shape checks then refused
        if kind == "state":
            obj = {"dims": [value], "amplitudes": [[1.0, 0.0]]}
        else:
            obj = {**z_set_obj("0", "1"), "dim": value}
        code, out, err = run_cli(capsys, *_file_argv(kind, write_json(tmp_path / "dims.json", obj)))
        assert (code, out, err) == (2, "", f"error: {invariant}\n")

    def test_label_past_int64_prints_as_its_float(self, capsys, tmp_path):
        path = write_json(tmp_path / "label.json", z_set_obj(2**64, "1"))
        code, out, err = run_cli(capsys, *_file_argv("set", path), "--format", "tsv")
        assert code == 0 and err == ""
        assert "\n(1.8446744073709552e+19,0)\t0.5\t" in out

    @pytest.mark.parametrize("kind, obj", [
        ("set", z_set_obj(2**64, "1")),
        ("set", z_set_obj(-(2**63) - 1, "1")),
        ("set", {**z_set_obj("0", "1"), "dim": 2**64}),
        ("state", {"dims": [2**64, 1], "amplitudes": [[1.0, 0.0]]}),
        ("state", _entry_obj("state", 2**64)),
        ("state", _entry_obj("state", 10**400)),
        ("state", _entry_obj("state", "DIGITS")),
    ], ids=["label-2^64", "label-2^63-1", "dim-2^64", "dims-2^64", "amplitude-2^64", "10^400", "5000-digits"])  # fmt: skip
    def test_a_pad_that_switches_the_parser_reads_the_same(self, capsys, tmp_path, kind, obj):
        # a string of more than ORJSON_MAX_BRACKETS brackets sends the file to json, which must read
        # integers as orjson does; both texts go to one path, which the reports may name
        path = tmp_path / "file.json"
        runs = []
        for pad in ({}, {"note": "[" * (ORJSON_MAX_BRACKETS + 1)}):
            path.write_text(json.dumps({**obj, **pad}).replace('"DIGITS"', "1" * 5000), encoding="utf-8")
            try:
                read = _read_json(path)
                read.pop("note", None)
                read = repr(read)
            except ValidationError as exc:
                read = str(exc)
            runs.append((read, run_cli(capsys, *_file_argv(kind, str(path)))))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kind, obj, invariant", [
        ("set", z_set_obj("DEEP", "1"), "measurement-labels: a label is nested too deep to print"),
        ("state", {"dims": [2], "amplitudes": "DEEP"}, "complex-pairs: amplitudes must be [re, im] pairs"),
    ], ids=["label", "amplitudes"])  # fmt: skip
    def test_nesting_past_the_recursion_limit_is_named(self, capsys, tmp_path, kind, obj, invariant):
        # 5000 levels: past what json or str() recurses through, within what orjson reads
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(obj).replace('"DEEP"', "[" * 5000 + "]" * 5000), encoding="utf-8")
        code, out, err = run_cli(capsys, *_file_argv(kind, str(path)))
        assert (code, out, err) == (2, "", f"error: {invariant}\n")

    def test_nesting_past_the_orjson_stack_is_read_by_json(self, tmp_path):
        # 200000 levels of objects overflow an 8 MiB stack in orjson, which kills its process;
        # the CLI runs in a process of its own, so that a crash fails only this test
        path = tmp_path / "deep.json"
        path.write_text('{"a":' * 200_000 + "1" + "}" * 200_000, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "mspace.cli", *_file_argv("state", str(path))], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error: file-json: {path} is not valid JSON: maximum recursion depth")


class TestMainPausesGC:
    """``main`` runs each command's handler and emission with the cyclic GC paused, and leaves
    ``gc.isenabled()`` as it found it on every exit: a report, a failed check, invalid input and
    a handler that raises."""

    # a command that loads a file of each kind, and the invariant a file entry of 0.5 breaks
    ARGV = {
        "state": ("entanglement", "--state"),
        "set": ("map", "--state", "bell", "--bob", "z-projectors", "--alice"),
        "protocol": ("theorem1", "--protocol"),
    }
    INVARIANTS = {"state": "state-normalization", "set": "completeness", "protocol": "completeness"}
    Z_PAIR = ("--alice", "z-projectors", "--bob", "z-projectors")

    def _file(self, tmp_path, kind, outcome):
        path = tmp_path / f"{kind}.json"
        if outcome == "file-json":
            path.write_text("{", encoding="utf-8")
            return str(path)
        if outcome == "complex-pairs":
            return write_json(path, _valid_obj(kind, ["x", 0.0]))
        obj = _valid_obj(kind, [1.0 if outcome == "ok" else 0.5, 0.0])
        if kind == "protocol" and outcome != "ok":
            obj["alice"] = _valid_obj("set", [0.5, 0.0])
        return write_json(path, obj)

    def _run(self, capsys, monkeypatch, enabled, argv):
        """``main(argv)`` started with the GC ``enabled`` or not: its exit code and stderr, the GC
        state at each ``emit`` and ``_read_json`` it reached, and the GC state it left."""
        emits, reads, real_emit = [], [], cli.emit

        def emit(*args):
            emits.append(gc.isenabled())
            return real_emit(*args)

        def read_json(source):
            reads.append(gc.isenabled())
            return _read_json(source)

        monkeypatch.setattr(cli, "emit", emit)
        monkeypatch.setattr(files, "_read_json", read_json)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code, _, err = run_cli(capsys, *argv)
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        return code, err, emits, reads, after

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome", ["ok", "file-json", "complex-pairs", "invariant"])
    @pytest.mark.parametrize("kind", ["state", "set", "protocol"])
    def test_file_commands_run_paused(self, capsys, monkeypatch, tmp_path, kind, outcome, enabled):
        argv = (*self.ARGV[kind], self._file(tmp_path, kind, outcome))
        code, err, emits, reads, after = self._run(capsys, monkeypatch, enabled, argv)
        if outcome == "ok":
            assert (code, err, emits) == (0, "", [False])
        else:
            invariant = self.INVARIANTS[kind] if outcome == "invariant" else outcome
            assert (code, emits) == (2, [])
            assert err.startswith(f"error: {invariant}: ")
        assert (reads, after) == ([False], enabled)

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_failed_check_runs_paused(self, capsys, monkeypatch, enabled):
        argv = ("entanglement", "--state", RANK2_QUTRITS, *self.Z_PAIR)
        assert self._run(capsys, monkeypatch, enabled, argv) == (1, "", [False], [False], enabled)

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_command_without_files_runs_paused(self, capsys, monkeypatch, enabled):
        argv = ("modes", "--n", "3", "--m", "2")
        assert self._run(capsys, monkeypatch, enabled, argv) == (0, "", [False], [], enabled)

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_raising_handler_restores_the_state(self, monkeypatch, enabled):
        def cmd_modes(args):
            assert not gc.isenabled()
            raise RuntimeError("handler failed")

        monkeypatch.setattr(cli, "cmd_modes", cmd_modes)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(RuntimeError, match="handler failed"):
                main(["modes", "--n", "3", "--m", "2"])
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert after == enabled


@contextlib.contextmanager
def _pipe_holding(data):
    """The path of a pipe that holds ``data``, which must fit the pipe's buffer, and then ends:
    a file with no size of its own."""
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)


class TestFileSize:
    """An input file over the byte cap fails as ``file-size`` before it is parsed."""

    # padded past the bytes the rest of the command needs, so that the file meets the cap first
    STATE = json.dumps(state_to_obj(bell_phi_plus())).encode() + b" " * 4096

    @pytest.mark.parametrize("over", [False, True])
    @pytest.mark.parametrize("kind", ["regular", "pipe"])
    def test_file_one_byte_over_the_cap_is_refused(self, capsys, tmp_path, monkeypatch, kind, over):
        # a regular file is measured by its size, a pipe by how far its read has got
        path = tmp_path / "bell.json"
        path.write_bytes(self.STATE)
        source = contextlib.nullcontext(str(path)) if kind == "regular" else _pipe_holding(self.STATE)
        monkeypatch.setattr("mspace.linalg.TRIAL_BYTES_CAP", len(self.STATE) - over)
        with source as name:
            code, out, err = run_cli(capsys, *_file_argv("state", name))
        if over:
            assert code == 2 and out == "" and err.startswith("error: file-size: ") and "over the cap" in err
        else:
            assert code == 0 and err == ""

    def test_endless_device_is_cut_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr("mspace.linalg.TRIAL_BYTES_CAP", 1 << 16)
        code, out, err = run_cli(capsys, *_file_argv("state", "/dev/zero"))
        assert code == 2 and out == ""
        assert err.startswith("error: file-size: reading /dev/zero needs ") and "over the cap of 65536" in err


# files the validation-branch cases read, by name; "missing.json" is never written
BRANCH_FILES = {
    "no-amplitudes.json": {"dims": [2]},
    "short.json": {"dims": [2, 2], "amplitudes": [[1.0, 0.0]]},
    "no-operators.json": {"dim": 2},
    "dim-zero.json": {"dim": 0, "operators": [{"label": "0", "matrix": [[[1.0, 0.0]]]}]},
    "no-entries.json": {"dim": 2, "operators": []},
    "list.json": [1],
    "qutrit-alice.json": {
        "state": "bell",
        "alice": {"dim": 3, "operators": [{"label": "0", "matrix": pairs(np.eye(3))}]},
        "bob_unitaries": [pairs(np.eye(2))],
        "verify": {"0": {"success": pairs(np.eye(2)), "failure": P0}},
    },
}


class TestValidationBranches:
    """One command line per validation branch: exit 2 naming its invariant, with nothing on stdout."""

    @pytest.mark.parametrize("env, argv, message", [
        ("abc", ("map", "--state", "bell", *same_corpus.Z_PAIR),
         "tolerance-env: MSPACE_DEFAULT_TOL='abc' is not a number"),
        (None, ("locc", "--state", "bell", *same_corpus.Z_PAIR, "--outcome", "1,2,3"),
         "flag-format: expected 2 integers, got '1,2,3'"),
        (None, ("map", "--state", "product0", "--dims", "2,2,2", *same_corpus.Z_PAIR),
         "dimension-match: local sets need a bipartite state"),
        (None, ("entanglement", "--state", "random:1", "--dims", "2,6", "--split", "3,3"),
         "split-shape: split (3, 3) does not factor dimension 12"),
        (None, ("theorem1",), "flag-format: need --protocol or --random"),
        (None, ("theorem1", "--random"), "flag-format: --random needs --seed"),
        (None, ("modes",), "flag-format: need --n/--m or --n-max/--m-max"),
        (None, ("entanglement", "--state", "missing.json"), "file-access: cannot read "),
        (None, ("entanglement", "--state", "no-amplitudes.json"), "state-schema: "),
        (None, ("entanglement", "--state", "short.json"), "state-length: 1 amplitudes for dims (2, 2)"),
        (None, ("entanglement", "--state", "random:x"), "state-name: bad random state spec"),
        (None, ("map", "--state", "bell", "--alice", "noisy:x", "--bob", "z-projectors"),
         "measurement-name: bad noisy spec"),
        (None, ("map", "--state", "bell", "--alice", "random:2", "--bob", "z-projectors"),
         "measurement-name: random sets are 'random:<outcomes>:<seed>'"),
        (None, ("map", "--state", "bell", "--alice", "random:x:1", "--bob", "z-projectors"),
         "measurement-name: bad random set spec"),
        (None, ("map", "--state", "bell", "--alice", "no-operators.json", "--bob", "z-projectors"),
         "measurement-schema: measurement files need 'dim' and 'operators'"),
        (None, ("map", "--state", "bell", "--measurements", "dim-zero.json"), "measurement-dim: "),
        (None, ("map", "--state", "bell", "--alice", "no-entries.json", "--bob", "z-projectors"),
         "measurement-empty: "),
        (None, ("map", "--state", "bell", "--alice", "random:0:1", "--bob", "z-projectors"),
         "measurement-outcomes: "),
        (None, ("theorem1", "--protocol", "list.json"), "protocol-schema: protocol files must be JSON objects"),
        (None, ("theorem1", "--protocol", "qutrit-alice.json"), "protocol-alice-dim: "),
        (None, ("theorem1", "--random", "--seed", "1", "--outcomes", "0"), "measurement-outcomes: "),
        # the files load before --outcome is read, so a missing file is named over a bad --outcome
        (None, ("locc", "--state", "missing.json", *same_corpus.Z_PAIR, "--outcome", "1"), "file-access: cannot read "),
    ])  # fmt: skip
    def test_branch_names_its_invariant(self, capsys, tmp_path, monkeypatch, env, argv, message):
        if env is not None:
            monkeypatch.setenv("MSPACE_DEFAULT_TOL", env)
        for name, obj in BRANCH_FILES.items():
            write_json(tmp_path / name, obj)
        argv = [str(tmp_path / word) if word.endswith(".json") else word for word in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(f"error: {message}")

    def test_split_reports_the_entanglement_across_the_new_cut(self, capsys):
        code, out, err = run_cli(capsys, "entanglement", "--state", "random:1", "--dims", "2,6", "--split", "3,4")
        assert code == 0 and err == ""
        report = json.loads(out)
        psi = PureState((3, 4), load_state("random:1", (2, 6)).vector)
        assert report["parameters"]["split"] == "3,4"
        assert report["results"] == [{"measure": "entropy", "original": pure_entanglement(psi, "entropy")}]
        # a cut of its own: not the entropy across the 2x6 one
        assert report["results"][0]["original"] != pure_entanglement(load_state("random:1", (2, 6)), "entropy")

    def test_crlf_json_error_names_the_position_of_its_lf_text(self, capsys, tmp_path):
        # orjson refuses the text, so json reads it and names the line and column of the fault
        text = b'{"dims": [2],\n "amplitudes":\n oops}'
        errors = []
        for name, content in [("lf", text), ("crlf", text.replace(b"\n", b"\r\n")), ("cr", text.replace(b"\n", b"\r"))]:
            path = tmp_path / name / "state.json"
            path.parent.mkdir()
            path.write_bytes(content)
            code, out, err = run_cli(capsys, "entanglement", "--state", str(path))
            assert (code, out) == (2, "") and err.startswith("error: file-json: ")
            errors.append(err.replace(str(path), "<path>"))
        assert errors[0] == errors[1] == errors[2] and "line 3 column 2" in errors[0]


# subcommands interleaved, each flag set followed by the same command without some of its flags
INTERLEAVED = [
    ["theorem1", "--bogus"],
    ["theorem1", "--random", "--seed", "1", "--trials", "5", "--outcomes", "3"],
    ["modes", "--n", "4", "--m", "3", "--format", "tsv"],
    ["theorem1", "--random", "--seed", "1"],
    ["konrad", "--seed", "2", "--trials", "3", "--two-sided"],
    ["modes", "--n", "4", "--m", "3"],
    ["konrad", "--seed", "2"],
]


# a valid line of each subcommand
VALID_LINES = [
    ["map", "--state", "bell", "--alice", "z-projectors", "--bob", "noisy:0.9"],
    ["entanglement", "--state", "bell", "--measure", "concurrence"],
    ["theorem1", "--random", "--seed", "1", "--trials", "2"],
    ["locc", "--state", "bell", "--alice", "z-projectors", "--bob", "z-projectors", "--all-outcomes"],
    ["konrad", "--seed", "1", "--trials", "2"],
    ["modes", "--n", "2", "--m", "2"],
    ["sweep", "--steps", "2"],
]


class TestParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_subcommand_line_is_parsed_by_its_subcommand_alone(self, capsys):
        # each line is read from its subcommand's entry in COMMANDS: no parser is built at all
        cli.build_parser.cache_clear()
        results = [run_cli(capsys, *argv) for argv in VALID_LINES]
        assert cli.build_parser.cache_info().currsize == 0
        assert [code for code, _, _ in results] == [0] * len(VALID_LINES)
        assert {argv[0] for argv in VALID_LINES} == set(cli.COMMANDS)
        assert [json.loads(out)["command"] for _, out, _ in results] == [argv[0] for argv in VALID_LINES]

    def test_valid_lines_leave_argparse_unimported(self):
        # in a fresh interpreter, since the test process has imported argparse itself
        script = (
            "import json, sys\n"
            "from mspace import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0 and 'argparse' not in sys.modules, argv\n"
            "assert cli.main(['modes', '--n=2', '--m', '2']) == 0 and 'argparse' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(VALID_LINES)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv", [[], *same_corpus.PARSER_LINES], ids=" ".join)
    def test_every_line_reads_as_the_whole_parser_reads_it(self, capsys, monkeypatch, argv):
        ours = run_cli(capsys, *argv)
        # the reference: one pass of the whole parser over every line
        monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
        assert ours == run_cli(capsys, *argv)

    def test_interleaved_calls_match_a_fresh_parser(self, capsys, monkeypatch):
        cached = [run_cli(capsys, *argv) for argv in INTERLEAVED]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run_cli(capsys, *argv) for argv in INTERLEAVED]
        assert cached == fresh
        code, out, err = cached[0]
        assert code == 2 and out == "" and "unrecognized arguments: --bogus" in err
        assert all(code == 0 for code, _, _ in cached[1:])

    def test_defaults_do_not_leak_between_calls(self, capsys):
        run_cli(capsys, *INTERLEAVED[1])
        args = cli.build_parser().parse_args(INTERLEAVED[3])
        assert (args.trials, args.outcomes) == (None, None)
        assert vars(args) == vars(cli.build_parser.__wrapped__().parse_args(INTERLEAVED[3]))
        report = json.loads(run_cli(capsys, *INTERLEAVED[3])[1])
        assert report["parameters"]["trials"] == 1 and report["parameters"]["outcomes"] == 2

    def test_handler_is_looked_up_per_call(self, capsys, monkeypatch):
        argv = ["modes", "--n", "2", "--m", "2"]
        assert json.loads(run_cli(capsys, *argv)[1])["command"] == "modes"
        calls = []

        def patched(args):
            calls.append(args.command)
            return {"command": "patched"}, 0

        monkeypatch.setattr(cli, "cmd_modes", patched)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out) == {"command": "patched"} and calls == ["modes"]


def _subcommand_parsers():
    """Each subcommand's argparse parser by name, from a fresh whole parser."""
    parser = cli.build_parser.__wrapped__()
    (action,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return action.choices


SUBCOMMAND_PARSERS = _subcommand_parsers()
STRAY_WORDS = ["-h", "--help", "extra", "--", "-1", "--bogus"]
DEFECTS = ["stray", "drop", "repeat", "prefix", "equals", "bare", "negative", "bad"]


def _values(action, good=True):
    """Values of ``action`` that its type and choices accept, or that they refuse."""
    if action.choices is not None:
        return list(action.choices) if good else ["bogus", "JSON"]
    if action.type is int:
        return ["0", "2", "17", " 7", "1_000"] if good else ["x", "1.5", "", "0x10"]
    if action.type is float:
        return ["0", "0.5", "1", "1e-300", "nan", "inf"] if good else ["x", "", "1,5"]
    return ["bell", "z-projectors", "noisy:0.9", "2,2", "", "a b"] if good else ["-x"]


@st.composite
def command_lines(draw):
    """A line of one subcommand drawn from its actions: each required option and some others once,
    each with a good value, then up to two defects of the kinds the table arm leaves to argparse."""
    name = draw(st.sampled_from(sorted(SUBCOMMAND_PARSERS)))
    actions = [action for action in SUBCOMMAND_PARSERS[name]._actions if action.dest != "help"]
    optional = draw(st.lists(st.sampled_from([action for action in actions if not action.required]), unique=True))
    chosen = draw(st.permutations([action for action in actions if action.required] + optional))

    def words(action, good=True):
        flag = draw(st.sampled_from(action.option_strings))
        return [flag] if action.nargs == 0 else [flag, draw(st.sampled_from(_values(action, good)))]

    options = [(action, words(action)) for action in chosen]
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=2)):
        if defect == "stray":
            options.insert(draw(st.integers(0, len(options))), (None, [draw(st.sampled_from(STRAY_WORDS))]))
            continue
        if not options:
            continue
        i = draw(st.integers(0, len(options) - 1))
        action, (flag, *value) = options[i]
        if defect == "drop":
            del options[i]
        elif action is None:
            continue
        elif defect == "repeat":
            options.insert(draw(st.integers(0, len(options))), (action, words(action)))
        elif defect == "prefix":
            options[i] = (action, [flag[: draw(st.integers(2, max(2, len(flag) - 1)))], *value])
        elif not value:
            continue
        elif defect == "equals":
            options[i] = (action, [f"{flag}={value[0]}"])
        elif defect == "bare":
            options[i] = (action, [flag])
        elif defect == "negative":
            options[i] = (action, [flag, draw(st.sampled_from(["-1", "-0.5", "-x"]))])
        else:
            options[i] = (action, words(action, good=False))
    return [name, *(word for _, option in options for word in option)]


def _parsed(parse, argv):
    """What ``parse(argv)`` gives: the repr of each namespace value, or the exit code; then stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # repr, so that a NaN value equals itself and -0.0 differs from 0.0
            result = {key: repr(value) for key, value in vars(parse(argv)).items()}
    except SystemExit as exc:
        result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestTableArm:
    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(argv=command_lines())
    def test_a_line_reads_as_the_whole_parser_reads_it(self, argv):
        assert _parsed(cli._parse_args, argv) == _parsed(cli.build_parser().parse_args, argv)

    def test_drawn_lines_reach_both_arms(self):
        # the property above is vacuous unless its lines reach each arm on each subcommand
        taken, left = set(), set()

        @settings(derandomize=True, deadline=None, max_examples=300, database=None)
        @given(argv=command_lines())
        def sort(argv):
            (left if cli._table_arm(argv[0], argv[1:]) is None else taken).add(argv[0])

        sort()
        assert taken == left == set(SUBCOMMAND_PARSERS)

    def test_valid_lines_run_no_argparse_parse(self, capsys, monkeypatch):
        # patched on the class, so neither the whole parser nor any subcommand's parser parses
        asked = []

        def spy(name):
            method = getattr(argparse.ArgumentParser, name)
            return lambda self, *args, **kwargs: asked.append(name) or method(self, *args, **kwargs)

        for name in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(argparse.ArgumentParser, name, spy(name))
        results = [run_cli(capsys, *argv) for argv in VALID_LINES]
        assert asked == [] and [code for code, _, _ in results] == [0] * len(VALID_LINES)
        # every subcommand has a line, and each report names its command
        assert {argv[0] for argv in VALID_LINES} == set(cli.COMMANDS)
        assert [json.loads(out)["command"] for _, out, _ in results] == [argv[0] for argv in VALID_LINES]
        # the spies do see a line that the table arm leaves to argparse
        assert run_cli(capsys, "modes", "--n=2", "--m", "2")[0] == 0 and asked
