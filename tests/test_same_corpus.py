"""The sameness corpus of ``same_corpus.py``: the same lines and files for a seed, and every
subcommand, format and input kind among them; and its comparer of two results. Only the corpus
is built; no command runs."""

import json
import subprocess
import sys
import types
from pathlib import Path

import orjson
import pytest
import same_corpus
from same_corpus import (
    BIG_INT_FILES,
    COMMANDS,
    COUNTEREXAMPLE_LINES,
    DRIFT_LINES,
    EDGE_LINES,
    FIXED_LINES,
    GRID_PAIRS,
    JSON_PATH_FILES,
    NEAR_TOLERANCES,
    PAIR_FILES,
    PARSER_LINES,
    STRAY_BOOLEAN_FILES,
    THREAD_VARS,
    WIDE_SEED_LINES,
    build,
    float_moves,
    float_report,
    grid_corpus,
    in_degenerate_row,
    per_command,
    split_env,
    tsv_cells,
)


def _build(workdir):
    workdir.mkdir()
    lines = build(17, 406, workdir)
    files = {path.name: path.read_bytes() for path in workdir.iterdir()}
    return [[arg.replace(str(workdir), "<dir>") for arg in line] for line in lines], files


def test_corpus_is_deterministic_for_a_seed(tmp_path):
    assert _build(tmp_path / "a") == _build(tmp_path / "b")


def test_corpus_reaches_every_subcommand_format_and_input_kind(tmp_path):
    lines, files = _build(tmp_path / "corpus")
    split = [split_env(line) for line in lines]
    # beyond the subcommands, the first words and the bad format of the parser-level lines
    assert {argv[0] for _, argv in split} == {*COMMANDS, "-h", "bogus", "--format"} and len(COMMANDS) == 7
    assert {argv[argv.index("--format") + 1] for _, argv in split if "--format" in argv} == {"json", "tsv", "xml"}
    tolerances = {None, "1e-12", "1e-6", "1e-4", "2e-4", "nan", "abc", *NEAR_TOLERANCES}
    assert {tol for tol, _ in split} == tolerances

    def file_flags(flag):
        return {argv[0] for _, argv in split for a, b in zip(argv, argv[1:]) if a == flag and b.startswith("<dir>/")}

    assert file_flags("--protocol") == {"theorem1"}
    assert file_flags("--state") == {"map", "entanglement", "locc"}
    assert file_flags("--alice") == file_flags("--bob") == {"map", "entanglement", "locc"}
    assert file_flags("--measurements") == {"map"}
    assert len(files) > 100


def test_corpus_ends_with_the_grid_pair_block(tmp_path):
    lines, _ = _build(tmp_path / "corpus")
    block = lines[-3 * GRID_PAIRS :]
    assert block == grid_corpus(17)
    split = [split_env(line) for line in block]
    assert [argv[0] for _, argv in split] == ["map", "entanglement", "locc"] * GRID_PAIRS
    assert {tol for tol, _ in split} == {None, *NEAR_TOLERANCES}
    dims = {"map": set(), "entanglement": set(), "locc": set()}
    for _, argv in split:
        dims[argv[0]].update(map(int, argv[argv.index("--dims") + 1].split(",")))
        outcomes = [int(argv[argv.index(side) + 1].split(":")[1]) for side in ("--alice", "--bob")]
        assert all(1 <= n <= 3 for n in outcomes)
    assert min(dims["map"] | dims["entanglement"]) == 6 and max(dims["map"] | dims["entanglement"]) == 24
    assert max(dims["locc"]) == 8


def test_wide_seed_lines_follow_the_konrad_grid(tmp_path):
    lines, _ = _build(tmp_path / "corpus")
    # after the 406 sweep lines and the konrad grid of 40 seeds, 4 trial counts and 2 sides
    start = 406 + 40 * 4 * 2
    assert lines[start : start + len(WIDE_SEED_LINES)] == WIDE_SEED_LINES
    assert per_command(WIDE_SEED_LINES).startswith("0 sweep, 8 konrad,")
    seeds = {int(argv[argv.index("--seed") + 1]) for argv in WIDE_SEED_LINES}
    assert sorted(-(-seed.bit_length() // 32) for seed in seeds) == [1, 2, 3, 5]


def test_fixed_block_comes_just_before_the_grid_pair_block(tmp_path):
    lines, _ = _build(tmp_path / "corpus")
    end = len(lines) - 3 * GRID_PAIRS
    assert lines[end - len(FIXED_LINES) : end] == FIXED_LINES
    assert FIXED_LINES == EDGE_LINES + COUNTEREXAMPLE_LINES + PARSER_LINES + DRIFT_LINES
    (tol, verdict), *pairs = [split_env(line) for line in EDGE_LINES]
    # one printed branch of a run at a tolerance near its deviations
    assert verdict[0] == "locc" and "--outcome" in verdict and tol in NEAR_TOLERANCES
    # two local pairs on 160 dimensions or more, at the default tolerance
    assert [(tol, argv[0]) for tol, argv in pairs] == [(None, "locc"), (None, "map")]
    for _, argv in pairs:
        d_a, d_b = map(int, argv[argv.index("--dims") + 1].split(","))
        assert "--alice" in argv and d_a * d_b >= 160
    # the two counterexamples, each under entanglement's entropy and eof and locc in JSON and TSV
    assert per_command(COUNTEREXAMPLE_LINES).startswith("0 sweep, 0 konrad, 0 modes, 4 entanglement, 0 map, 4 locc,")
    for argv in COUNTEREXAMPLE_LINES:
        assert all(Path(arg).is_file() for arg in argv if arg.endswith(".json"))
    assert sum("rank2_qutrits.json" in " ".join(argv) for argv in COUNTEREXAMPLE_LINES) == 4
    assert sum("trine_90.json" in " ".join(argv) for argv in COUNTEREXAMPLE_LINES) == 4
    # the drift lines are local pairs at 24x24 or larger
    for argv in DRIFT_LINES:
        assert "--alice" in argv and min(map(int, argv[argv.index("--dims") + 1].split(","))) >= 24
    # the lines whose first word names no subcommand are counted as other
    assert per_command(PARSER_LINES).endswith(", 4 other")
    assert per_command([["-h"], ["MSPACE_DEFAULT_TOL=1e-6", "map"]]) == (
        "0 sweep, 0 konrad, 0 modes, 0 entanglement, 1 map, 0 locc, 0 theorem1, 1 other"
    )


def test_file_lines_end_with_the_json_path_block_before_the_fixed_block(tmp_path):
    lines, files = _build(tmp_path / "corpus")
    end = len(lines) - 3 * GRID_PAIRS - len(FIXED_LINES)
    block = lines[end - len(JSON_PATH_FILES) : end]
    for line, (text, argv) in zip(block, JSON_PATH_FILES):
        (path,) = [arg for arg in line if arg.startswith("<dir>/")]
        assert [arg if arg != path else "FILE" for arg in line] == argv
        data = files[path.removeprefix("<dir>/")]
        assert data == text.encode()
        # so the file reader parses it with json
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(data)


def test_big_integer_files_come_plain_then_padded_before_the_json_path_block(tmp_path):
    lines, files = _build(tmp_path / "corpus")
    end = len(lines) - 3 * GRID_PAIRS - len(FIXED_LINES) - len(JSON_PATH_FILES)
    block = lines[end - len(BIG_INT_FILES) : end]
    for line, (text, argv) in zip(block, BIG_INT_FILES):
        (path,) = [arg for arg in line if arg.startswith("<dir>/")]
        assert [arg if arg != path else "FILE" for arg in line] == argv
        assert files[path.removeprefix("<dir>/")] == text.encode()
    # each text as it is, then with a pad of more opening brackets than orjson is given
    for (plain, argv), (padded, padded_argv) in zip(BIG_INT_FILES[::2], BIG_INT_FILES[1::2]):
        assert argv == padded_argv and padded.startswith(plain[:-1])
        assert plain.count("[") <= 10_000 < padded.count("[")
        assert json.loads(padded).pop("note") == "[" * 10_001


def test_pair_files_come_before_the_big_integer_block(tmp_path):
    lines, files = _build(tmp_path / "corpus")
    end = len(lines) - 3 * GRID_PAIRS - len(FIXED_LINES)
    end -= len(JSON_PATH_FILES + BIG_INT_FILES)
    block = lines[end - len(PAIR_FILES + STRAY_BOOLEAN_FILES) : end]
    for line, (text, argv) in zip(block, PAIR_FILES + STRAY_BOOLEAN_FILES, strict=True):
        (path,) = [arg for arg in line if arg.startswith("<dir>/")]
        assert [arg if arg != path else "FILE" for arg in line] == argv
        assert files[path.removeprefix("<dir>/")] == text.encode()
    # a state, a set and a protocol, each with a boolean, a 1-entry and a 3-entry pair
    assert [argv[0] for _, argv in PAIR_FILES] == ["entanglement"] * 3 + ["map"] * 3 + ["theorem1"] * 3
    assert [text.count("[true, false]") for text, _ in PAIR_FILES] == [1, 0, 0] * 3
    assert [text.count("[1.0]") + text.count("[1.0, 0.0, 0.0]") for text, _ in PAIR_FILES] == [0, 1, 1] * 3
    # then the same three, valid, beside a true key, and a set labelled false
    assert [argv[0] for _, argv in STRAY_BOOLEAN_FILES] == ["entanglement", "map", "theorem1", "map"]
    assert [(text.count('"note": true'), text.count('"label": false')) for text, _ in STRAY_BOOLEAN_FILES] == [
        (1, 0), (1, 0), (1, 0), (0, 1)
    ]  # fmt: skip


@pytest.mark.parametrize("flags, counts", [(["--threads", "1,2"], ("1", "2")), ([], (None, None))])
def test_each_tree_runs_at_its_thread_count(monkeypatch, capsys, flags, counts):
    runs = []

    def fake_run(argv, input, env, **kwargs):
        runs.append((env["PYTHONPATH"], {name: env.get(name) for name in THREAD_VARS}))
        return types.SimpleNamespace(stdout=json.dumps([[0, "", ""]] * len(json.loads(input))))

    for name in THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["same_corpus.py", "theirs", "--src", "ours", *flags])
    assert same_corpus.main() == 0
    assert runs == [(tree, dict.fromkeys(THREAD_VARS, n)) for tree, n in zip(("ours", "theirs"), counts)]
    assert capsys.readouterr().out.startswith("same_corpus seed 17" + (" threads 1,2:" if flags else ":"))


@pytest.mark.parametrize("text", ["1", "1,2,3", "0,2", "a,b"])
def test_bad_thread_pair_is_an_argument_error(monkeypatch, text):
    monkeypatch.setattr(sys, "argv", ["same_corpus.py", "theirs", "--threads", text])
    with pytest.raises(SystemExit) as exc:
        same_corpus.main()
    assert exc.value.code == 2


def test_one_moved_float_is_counted():
    ours = [0, '{\n  "eta": 5.0000000000000000e-01,\n  "rows": [{"p": 1.0, "label": "(0,1)"}]\n}\n', ""]
    theirs = [0, '{\n  "eta": 5.0000000000000000e-01,\n  "rows": [{"p": 1.0000000000000002, "label": "(0,1)"}]\n}\n', ""]
    moves = float_moves(ours, theirs)
    assert moves == [(".rows[0].p", 1.0, 1.0000000000000002)]
    report = float_report([(["map", "--state", "bell"], moves)])
    assert report.startswith("floats moved: 1 in 1 commands; largest absolute change 2.22e-16 at `map --state bell` .rows[0].p")


def test_anything_but_a_float_is_a_plain_difference():
    ours = [0, '{"label": "(0,1)", "p": 1.0}\n', ""]
    assert float_moves(ours, [0, '{"label": "(0,2)", "p": 1.0}\n', ""]) is None
    assert float_moves(ours, [0, '{"label": "(0,1)", "p": 1}\n', ""]) is None
    assert float_moves(ours, [0, '{"label":  "(0,1)", "p": 1.5}\n', ""]) is None
    assert float_moves(ours, [1, '{"label": "(0,1)", "p": 1.5}\n', ""]) is None
    assert float_moves(ours, [0, '{"label": "(0,1)", "p": 1.5}\n', "warning\n"]) is None
    assert float_moves([0, "p\t1.0\n", ""], [0, "p\t1.5\n", ""]) is None
    assert float_moves([0, "p\t1.0\nx\t2.5\n", ""], [0, "p\t1.5\nx\t2.5\n", ""]) is None
    assert float_report([]) == "floats moved: 0 in 0 commands"


def test_floats_in_degenerate_rows_are_told_apart():
    out = '{"fidelity": 1.0, "results": [{"fidelity": 0.5, "degenerate": true}, {"fidelity": 0.5, "degenerate": false}]}'
    assert in_degenerate_row(out, ".results[0].fidelity")
    assert not in_degenerate_row(out, ".results[1].fidelity")
    assert not in_degenerate_row(out, ".fidelity")
    assert not in_degenerate_row('{"results": [{"p": 0.5}]}', ".results[0].p")
    assert float_report([], "floats moved outside degenerate rows") == "floats moved outside degenerate rows: 0 in 0 commands"


TSV = "# command=locc\n# entropy_after=1\n" + "\n".join(
    ["label\tn\tfidelity\tdegenerate", "(0,1)\t3\t0.5\ttrue", "(1,1)\t4\t1\tfalse", ""]
)


def _tsv_moves(old, new):
    return float_moves([1, TSV, ""], [1, TSV.replace(old, new), ""])


def test_tsv_floats_are_compared_cell_by_cell():
    head = [(".command", "locc"), (".entropy_after", "1"), (".results[0].label", "(0,1)")]
    assert tsv_cells(TSV)[:3] == head
    assert _tsv_moves("\t0.5\t", "\t0.50000000001\t") == [(".results[0].fidelity", 0.5, 0.50000000001)]
    # "%.12g" prints a whole float as an integer
    assert _tsv_moves("\t1\tfalse", "\t0.9999999999\tfalse") == [(".results[1].fidelity", 1.0, 0.9999999999)]
    assert _tsv_moves("entropy_after=1", "entropy_after=1e-16") == [(".entropy_after", 1.0, 1e-16)]


@pytest.mark.parametrize("old, new", [
    ("(0,1)", "(0,2)"),  # a label
    ("\t3\t", "\t5\t"),  # an int cell
    ("\tdegenerate", "\tdegenerate1"),  # a column name
    ("0.5\ttrue", "0.5\ttrue\t7"),  # a ragged row
    ("entropy_after=1", "entropy_after=1.0"),  # the same float written otherwise
])  # fmt: skip
def test_tsv_cells_other_than_floats_differ_plainly(old, new):
    assert _tsv_moves(old, new) is None


def test_tsv_degenerate_column_marks_a_row():
    assert in_degenerate_row(TSV, ".results[0].fidelity")
    assert not in_degenerate_row(TSV, ".results[1].fidelity")
    assert not in_degenerate_row(TSV, ".entropy_after")
