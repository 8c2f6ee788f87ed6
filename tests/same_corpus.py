"""Run seeded commands of every subcommand in two source trees and compare them.

Usage::

    python tests/same_corpus.py OTHER_SRC [--src SRC] [--seed N] [--sweeps N] [--threads A,B]

``OTHER_SRC`` and ``SRC`` are ``src`` directories holding the ``mspace``
package; ``SRC`` defaults to this checkout's. Each tree runs the whole
corpus in one subprocess, calling ``mspace.cli.main`` in-process. With
``--threads A,B`` the ``SRC`` subprocess runs at ``A`` BLAS threads and the
``OTHER_SRC`` one at ``B`` (each of THREAD_VARS set to the count); without
it both inherit the environment. So ``python tests/same_corpus.py src
--threads 1,2`` compares this checkout with itself at 1 and 2 threads. The
script prints a summary line: how many commands there were, how many
exited 2, on how many stdout, stderr and exit code were all identical, on
how many only floats moved, and how many differ otherwise, each counted
per subcommand. A second line says how many floats moved and the largest
absolute and relative change, each with its command and key path. A
command counts as moved only if it has the same exit code, the same stderr,
and stdout that is the same outside its float values: a JSON report value
by value, a TSV report cell by cell, where a changed cell is a float if
both sides are numbers and one is not an integer. A third line reports the
same for the floats outside ``results`` rows flagged degenerate (``true``
in the JSON flag or the TSV column): a degenerate block has no unique
eigenbasis, so the branch floats of such a row rest on the last bits of the
block, and any change to how the block is formed may move them far.
The first differing commands go to stderr, and the exit status is 1 if any
command moved or differs.

The corpus holds ``--sweeps`` seeded ``sweep`` command lines (ranges inside
and across [0, 1], reversed ones, NaN and infinite ends, 1 to 200 steps,
JSON and TSV, a few invalid flags), the ``konrad`` grid: seeds 0-39, 1,
7, 40 and 1500 trials (1500 spans two chunks), one- and two-sided,
WIDE_SEED_LINES (``konrad`` and ``theorem1 --random`` lines at seeds of
one, two, three and five 32-bit words, so that a trial's seed words fill
numpy's 4-word entropy pool and overflow it), and MODES seeded ``modes``
command lines: grids up to ``--n-max 200 --m-max 12``
(many of them reach a count over the cap), single pairs up to 300 particles
in 40 modes (many over the cap), small pairs with invalid counts, and both
flag sets at once, in JSON and TSV; then HUGE_GRID_LINE, a grid of two
4300-digit counts, whose row count has too many digits to print.

After those come every ``entanglement --measure`` on ``bell``, ``product0``
and ``random:<seed>`` over fixed 1-, 2- and 3-party dims, 2x2 cuts of three
subsystems among them, in JSON; then PAIRS seeded command lines each of
``entanglement``, ``map`` and ``locc``, drawn from a generator of their own
so that the corpora above stay what they were for a seed. States are ``bell``,
``product0`` and ``random:<seed>``, with no ``--dims`` or 1-, 2- and 3-party
ones; sets are ``z-projectors``, ``noisy:<eta>`` (some outside [0, 1]) and
``random:<outcomes>:<seed>``. ``entanglement`` draws every ``--measure``,
some ``--split`` flags and local pairs, ``map`` a single set or a local
pair, and ``locc`` one branch, ``--all-outcomes`` or an ``--outcome``.
Among the exits are ``schmidt-split``, ``concurrence-dims``, ``split-shape``
and ``dimension-match``.

Last come THEOREM1 seeded ``theorem1 --random`` lines (1, 7, 60 trials, or
one more than a chunk holds for the shape, several dims and outcome counts,
invalid values and flag clashes), every protocol file in JSON and TSV and
with a clashing flag, and FILE_COMMANDS seeded file-input lines each of
``map``, ``entanglement`` and ``locc``, from a third generator of their own.
Their files are written once to a temporary directory before either tree
runs: states off unit norm by up to 1e-3 (about 1e-6 prints the
renormalization warning, 1e-3 is rejected), sets off completeness, with
labels holding non-ASCII characters, quotes, backslashes and tabs (a tab is
rejected as ``measurement-labels``), sets that are ragged, repeated or of
the wrong dim, and valid and broken protocols. The file lines end with
PAIR_FILES, a state, a set and a protocol each holding one pair that is a
boolean ``[true, false]`` (which read as ``[1, 0]`` would make the file
valid; it is refused as ``complex-pairs``), a 1-entry pair or a 3-entry one,
then STRAY_BOOLEAN_FILES, the same three files valid, with ``[1.0, 0.0]``
in that pair and an extra ``"note": true`` key, and a set whose first label
is ``false``, then BIG_INT_FILES, two states and a set holding integers
outside [-2^63, 2^64), one of them past a double, each as it is and then
padded with a string of brackets that sends it to json,
and JSON_PATH_FILES, one fixed line each on a file that orjson refuses, so
that the file reader parses it with json: NaN, Infinity and 1e400 entries, a
label holding an escaped lone surrogate, and a UTF-8 byte order mark (which
json refuses too).
Many of these lines set ``MSPACE_DEFAULT_TOL`` (to valid and invalid values)
with a leading ``MSPACE_DEFAULT_TOL=<value>``, which the worker applies to
that command alone.

Then comes a fixed block. EDGE_LINES are a ``locc`` line whose verdict
rests on a Bob move that its printed row does not show, and two local pairs
of large dimension and few outcomes, which the size checks admit by the
largest arrays their kernels build. COUNTEREXAMPLE_LINES run
``entanglement`` under ``entropy`` and ``eof`` and ``locc`` in JSON and
TSV on the two exact inputs in ``tests/data`` whose image is more entangled
than the state: the 3x3 state under Z projectors on both sides, and the
Bell state under trine POVMs. PARSER_LINES are lines that argparse
itself answers, or that test how it reads words: help, an unknown
subcommand or flag, left-over words, ``--``, abbreviated and ambiguous
flags, ``--flag=value``, a repeated flag and a bad choice. DRIFT_LINES are two
local-pair lines large enough that their floats move between 1 and 2 BLAS
threads, so that ``--threads 1,2`` has drift to show.

The last block holds GRID_PAIRS seeded local-pair lines each of ``map`` and
``entanglement`` on dims 6x6 to 24x24 and of ``locc`` on dims up to 8x8,
with 1 to 3 ``random:<outcomes>:<seed>`` outcomes per side, from a fourth
generator of their own. About a third of them set ``MSPACE_DEFAULT_TOL`` to
one of NEAR_TOLERANCES, about the completeness deviation of such a pair, so
that the pair check fails as ``completeness`` on some of them.

The file's name does not start with ``test_``, so pytest does not collect
it; ``test_same_corpus.py`` checks the corpus itself.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
ETA_ENDS = ["0", "1", "0.5", "1.2", "-0.1", "nan", "inf", "1e-300", "0.9999999999999999"]
MODES = 400
PAIRS = 300
COMMANDS = ("sweep", "konrad", "modes", "entanglement", "map", "locc", "theorem1")
MEASURES = ("entropy", "concurrence", "eof")
ENV = "MSPACE_DEFAULT_TOL"
# None leaves the variable unset; nan, abc and 2e-4 are rejected as tolerance-env
TOLERANCES = [None, "1e-12", "1e-6", "1e-4", "2e-4", "nan", "abc"]
TOLERANCE_WEIGHTS = [0.45, 0.1, 0.15, 0.15, 0.05, 0.05, 0.05]
THEOREM1 = 160
THEOREM1_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (1, 3)]
FILE_COMMANDS = 200
STATES = 54
STATE_DIMS = [[2, 2], [2, 3], [3, 2], [3, 3], [2, 2], [1, 3], [4, 4], [4], [2, 2, 2]]
# below 1e-8 a state file loads silently, up to 1e-4 with a renormalization warning, above it not
NORM_DEFECTS = [0.0, 0.0, 3e-9, 1e-6, 1e-6, 1e-3]
SET_DIMS = [1, 2, 3, 4, 6, 8, 9, 16]
# completeness defects of the set files, against the tolerances above and the default 1e-10
SET_DEFECTS = [0.0, 0.0, 1e-9, 1e-7, 5e-5, 3e-4]
LABELS = ["0", "1", "α", "ψ₀", "é", 'say "hi"', "it's", "back\\slash", "tab\there", "日本"]
GRID_PAIRS = 60
# a random pair's sets and their Kronecker product miss completeness by about 1e-16 to 1e-15
NEAR_TOLERANCES = ["3e-16", "6e-16", "1e-15", "2e-15"]
# the thread counts of the BLAS builds numpy may use
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
Z_PAIR = ["--alice", "z-projectors", "--bob", "z-projectors"]
# the verdict rests on Bob's move after Alice's outcome 1, which --outcome 0,0 does not print;
# the pairs' largest arrays are Bob's blocks (16.4 MB) and the product tensor (160 KB)
EDGE_LINES = [
    [f"{ENV}=3e-16", "locc", "--state", "random:28", "--dims", "2,2", "--alice", "random:1:128",
     "--bob", "random:1:228", "--outcome", "0,0"],
    ["locc", "--state", "product0", "--dims", "2,80", *Z_PAIR],
    ["map", "--state", "product0", "--dims", "100,100", "--alice", "random:1:1", "--bob", "random:1:2"],
]  # fmt: skip
DATA = Path(__file__).resolve().parent / "data"
# the exact inputs whose image carries more entanglement than the state, 1 bit -> log2(3) - 1/3
COUNTEREXAMPLES = [
    ["--state", str(DATA / "rank2_qutrits.json"), *Z_PAIR],
    ["--state", "bell", "--alice", str(DATA / "trine.json"), "--bob", str(DATA / "trine_90.json")],
]
COUNTEREXAMPLE_LINES = [
    line
    for pair in COUNTEREXAMPLES
    for line in (
        ["entanglement", *pair, "--measure", "entropy"],
        ["entanglement", *pair, "--measure", "eof"],
        ["locc", *pair],
        ["locc", *pair, "--format", "tsv"],
    )
]
STATE_TEXT = '{"dims": [2, 2], "amplitudes": [[%s, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]}'
SET_TEXT = (
    '{"dim": 2, "operators": [{"label": %s, "matrix": [[[%s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}, '
    '{"label": "1", "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}]}'
)
# file texts that orjson refuses, each with a line that reads it in place of FILE
JSON_PATH_FILES = [
    (STATE_TEXT % "NaN", ["map", "--state", "FILE", *Z_PAIR]),
    (SET_TEXT % ('"0"', "Infinity"), ["map", "--state", "bell", "--alice", "FILE", "--bob", "z-projectors"]),
    (STATE_TEXT % "1e400", ["entanglement", "--state", "FILE"]),
    (SET_TEXT % ('"\\ud800"', "1.0"), ["map", "--state", "bell", "--alice", "FILE", "--bob", "z-projectors"]),
    ("\ufeff" + STATE_TEXT % "0.5", ["locc", "--state", "FILE", *Z_PAIR]),
]
# a string of more opening brackets than orjson is given (ORJSON_MAX_BRACKETS = 10,000), which
# sends a file to json
PAD = ', "note": "%s"}' % ("[" * 10_001)
BIG_INT = str(2**64)
# integers outside [-2^63, 2^64), each text as it is and then padded: both parsers read them alike
BIG_INT_FILES = [
    (padded, argv)
    for text, argv in [
        ('{"dims": [%s, 1], "amplitudes": [[1.0, 0.0]]}' % BIG_INT, ["entanglement", "--state", "FILE"]),
        (SET_TEXT % (BIG_INT, "1.0"), ["map", "--state", "bell", "--alice", "FILE", "--bob", "z-projectors"]),
        (STATE_TEXT % ("1" + "0" * 400), ["map", "--state", "FILE", *Z_PAIR]),
    ]
    for padded in (text, text[:-1] + PAD)
]
Z0 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
Z1 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
Z_SET = {"dim": 2, "operators": [{"label": "0", "matrix": Z0}, {"label": "1", "matrix": Z1}]}
# a file of each kind whose first pair, PAIR, makes it valid as [1.0, 0.0]: the first amplitude of
# |00>, the corner of a Z projector, the corner of a Bob unitary that is the identity
PAIR_TEXTS = [
    ({"dims": [2, 2], "amplitudes": ["PAIR", [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}, ["entanglement", "--state", "FILE"]),
    ({**Z_SET, "operators": [{"label": "0", "matrix": [["PAIR", [0.0, 0.0]], Z0[1]]}, Z_SET["operators"][1]]},
     ["map", "--state", "bell", "--alice", "FILE", "--bob", "z-projectors"]),
    ({"state": "bell", "alice": Z_SET, "bob_unitaries": [[["PAIR", [0.0, 0.0]], Z1[1]], [Z0[0], Z1[1]]],
      "verify": {label: {"success": Z0, "failure": Z1} for label in ("0", "1")}}, ["theorem1", "--protocol", "FILE"]),
]  # fmt: skip
# each file with a boolean pair, a 1-entry pair and a 3-entry pair in turn
PAIR_FILES = [
    (json.dumps(obj).replace('"PAIR"', pair), argv)
    for obj, argv in PAIR_TEXTS
    for pair in ("[true, false]", "[1.0]", "[1.0, 0.0, 0.0]")
]
# valid files with a boolean that is no amplitude: each file above with [1.0, 0.0] and an extra
# "note": true key, then a set whose first label is false
STRAY_BOOLEAN_FILES = [
    (json.dumps({**obj, "note": True}).replace('"PAIR"', "[1.0, 0.0]"), argv) for obj, argv in PAIR_TEXTS
] + [(json.dumps({**Z_SET, "operators": [{**Z_SET["operators"][0], "label": False}, Z_SET["operators"][1]]}),
      PAIR_TEXTS[1][1])]  # fmt: skip
# lines that argparse answers itself, or whose words test how it reads them
PARSER_LINES = [
    ["-h"],
    ["-h", "map"],
    ["bogus"],
    ["--format", "json", "map"],
    ["map", "-h"],
    ["modes", "--he"],
    ["map", "--bogus"],
    ["map", "--state"],
    ["map", "--state", "bell", "extra"],
    ["map", "--state", "bell", *Z_PAIR, "-x"],
    ["map", "--", "--state", "bell"],
    ["sweep", "--format", "tsv", "extra", "--steps", "2"],
    ["konrad"],
    ["konrad", "--seed", "x"],
    ["konrad", "--seed", "-1"],
    ["konrad", "--seed", "1", "--t", "3"],
    ["theorem1", "--random", "--seed", "3", "--tri", "3"],
    ["locc", "--state", "bell", *Z_PAIR, "--all"],
    ["map", "--state=bell", *Z_PAIR],
    ["modes", "--n", "2", "--m", "2", "--format=tsv"],
    ["sweep", "--steps", "3", "--steps", "4"],
    ["entanglement", "--state", "bell", "--measure", "bogus"],
    ["map", "--state", "bell", *Z_PAIR, "--format", "xml"],
]
# each count has the most digits an int reads, so their product has too many to print
HUGE_GRID_LINE = ["modes", "--n-max", "9" * 4300, "--m-max", "9" * 4300]
# their floats move between 1 and 2 OpenBLAS threads, and stay put at one count
DRIFT_LINES = [
    ["map", "--state", "random:3", "--dims", "40,40", "--alice", "random:40:1", "--bob", "random:40:2"],
    ["entanglement", "--state", "random:3", "--dims", "24,24", "--alice", "random:24:1", "--bob", "random:24:2"],
]
FIXED_LINES = EDGE_LINES + COUNTEREXAMPLE_LINES + PARSER_LINES + DRIFT_LINES
# seeds of one, two, three and five 32-bit words: a trial's entropy is these words and its index
WIDE_SEEDS = [2**32 - 1, 2**32, 2**64 + 1, 10**39 + 7]
WIDE_SEED_LINES = [
    line
    for seed in map(str, WIDE_SEEDS)
    for line in (
        ["konrad", "--seed", seed, "--trials", "40", "--two-sided"],
        ["konrad", "--seed", seed, "--trials", "1500", "--format", "tsv"],
        ["theorem1", "--random", "--seed", seed, "--trials", "60", "--dims", "3,3", "--outcomes", "3"],
        ["theorem1", "--random", "--seed", seed, "--trials", "7", "--format", "tsv"],
    )
]


def corpus(seed: int, sweeps: int) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    commands = []
    for k in range(sweeps):
        argv = ["sweep"]
        for flag in ("--eta-start", "--eta-end"):
            draw = rng.random()
            if draw < 0.15:
                argv += [flag, str(rng.choice(ETA_ENDS))]
            elif draw < 0.9:
                argv += [flag, repr(float(rng.random()))]
            # else the flag keeps its default
        steps = [1, 2, 3, 6, 11, 50, 200, int(rng.integers(1, 200))][k % 8]
        argv += ["--steps", str(steps if rng.random() > 0.02 else 0)]
        if rng.random() < 0.02:
            argv += ["--state", "product0"]
        argv += ["--format", "tsv" if k % 3 == 0 else "json"]
        commands.append(argv)
    for konrad_seed in range(40):
        for trials in (1, 7, 40, 1500):
            for two_sided in ([], ["--two-sided"]):
                fmt = "tsv" if (konrad_seed + trials) % 2 else "json"
                argv = ["konrad", "--seed", str(konrad_seed), "--trials", str(trials), *two_sided]
                commands.append([*argv, "--format", fmt])
    commands += WIDE_SEED_LINES
    for k in range(MODES):
        kind = k % 4
        if kind < 2:
            argv = ["--n-max", str(rng.integers(1, 201)), "--m-max", str(rng.integers(2, 13))]
        elif kind == 2:
            argv = ["--n", str(rng.integers(1, 301)), "--m", str(rng.integers(2, 41))]
        else:  # zero particles and one mode are invalid
            argv = ["--n", str(rng.integers(0, 13)), "--m", str(rng.integers(1, 7))]
        if rng.random() < 0.03:
            argv += ["--n-max", "3"] if kind == 2 else ["--m-max", "0"]
        commands.append(["modes", *argv, "--format", "tsv" if k % 3 == 0 else "json"])
    return commands + [HUGE_GRID_LINE]


def _dims(rng: np.random.Generator, state: str) -> list[int]:
    """No dims (mostly, for ``bell``, whose own dims they must equal), or 1 to 3 parties."""
    draw = rng.random()
    if draw < (0.85 if state == "bell" else 0.15):
        return []
    parties = 1 if draw < 0.25 else 2 if draw < 0.8 else 3
    return [int(d) for d in rng.integers(1, 5 if parties < 3 else 4, size=parties)]


def _set(rng: np.random.Generator) -> str:
    draw = rng.random()
    if draw < 0.35:
        return "z-projectors"
    if draw < 0.6:
        eta = rng.choice(["0", "1", "0.5", "1.2", repr(float(rng.random()))], p=[0.1, 0.1, 0.1, 0.1, 0.6])
        return f"noisy:{eta}"
    return f"random:{rng.integers(1, 5)}:{rng.integers(1000)}"


def local_corpus(seed: int) -> list[list[str]]:
    """Every measure on fixed cuts in JSON, which prints every bit, then PAIRS seeded
    ``entanglement``, ``map`` and ``locc`` command lines each."""
    rng = np.random.default_rng((seed, 1))
    commands = [
        ["entanglement", "--state", state, *(["--dims", dims] if dims else []), "--measure", measure]
        for state in ("bell", "product0", f"random:{seed}")
        for dims in ("", "4", "2,2", "2,1,2", "2,2,1", "1,2,2", "2,3", "3,3", "2,2,2")
        for measure in MEASURES
    ]
    for k in range(3 * PAIRS):
        command = COMMANDS[3 + k % 3]
        state = str(rng.choice(["bell", "product0", f"random:{rng.integers(1000)}"], p=[0.25, 0.25, 0.5]))
        dims = _dims(rng, state)
        argv = [command, "--state", state] + (["--dims", ",".join(map(str, dims))] if dims else [])
        pair = rng.random() < {"entanglement": 0.5, "map": 0.7, "locc": 0.97}[command]
        if command == "map" and not pair:
            argv += ["--measurements", _set(rng)]
        elif pair:
            argv += ["--alice", _set(rng), "--bob", _set(rng)]
        if command == "entanglement":
            argv += ["--measure", str(rng.choice(MEASURES))]
            if rng.random() < 0.3:
                # mostly a factorization of the state's dimension
                dim = int(np.prod(dims)) if dims else 4
                a = int(rng.choice([q for q in range(1, dim + 1) if dim % q == 0]))
                b = dim // a if rng.random() < 0.8 else int(rng.integers(1, 5))
                argv += ["--split", f"{a},{b}"]
        if command == "locc":
            draw = rng.random()
            if draw < 0.4:
                argv += ["--all-outcomes"]
            elif draw < 0.7:
                argv += ["--outcome", f"{rng.integers(0, 3)},{rng.integers(0, 3)}"]
        argv += ["--format", "tsv" if k % 4 == 0 else "json"]
        commands.append(argv)
    return commands


def _pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _isometry(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """``(n, d, d)`` operators cut from a random ``(n d, d)`` isometry: a complete set."""
    z = rng.standard_normal((n * d, d)) + 1j * rng.standard_normal((n * d, d))
    return np.linalg.qr(z)[0].reshape(n, d, d)


def past_one_chunk(d_a: int, d_b: int, outcomes: int) -> int:
    """One ``theorem1 --random`` trial more than a chunk of the shape holds: ``linalg.CHUNK_BYTES``
    over the bytes ``protocols._trial_bytes`` counts for one trial."""
    dim, n = d_a * d_b, outcomes
    trial = 16 * (2 * n * dim * dim + (n * d_a) ** 2 + 5 * n * d_b * d_b + dim)
    return (1 << 22) // trial + 1


class Files:
    """Writes numbered JSON files under one directory, the same bytes for the same draws."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, obj) -> str:
        """``obj`` as JSON, or a ``str`` as it is; returns the path."""
        self.count += 1
        path = self.workdir / f"in{self.count:03d}.json"
        text = obj if isinstance(obj, str) else json.dumps(obj, ensure_ascii=False)
        path.write_text(text, encoding="utf-8")
        return str(path)


def _labels(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct outcome labels: digits, or drawn from LABELS."""
    if rng.random() < 0.3:
        return [str(k) for k in range(n)]
    return [LABELS[i] for i in rng.choice(len(LABELS), size=n, replace=False)]


def _set_obj(ops: np.ndarray, labels: list[str]) -> dict:
    operators = [{"label": label, "matrix": _pairs(op)} for label, op in zip(labels, ops)]
    return {"dim": ops.shape[-1], "operators": operators}


def _write_states(rng: np.random.Generator, files: Files) -> list[tuple[str, list[int]]]:
    """(path, dims) of STATES state files off unit norm by NORM_DEFECTS in turn, then broken ones."""
    states = []
    for k in range(STATES):
        dims = STATE_DIMS[k % len(STATE_DIMS)]
        v = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
        v *= (1.0 + NORM_DEFECTS[k % len(NORM_DEFECTS)] * rng.choice([-1, 1])) / np.linalg.norm(v)
        states.append((files.write({"dims": dims, "amplitudes": _pairs(v)}), dims))
    v = _pairs(np.full(4, 0.5 + 0j))
    broken = [
        {"dims": [True, 4], "amplitudes": v[:4]},  # booleans as dims
        {"dims": [2, 3], "amplitudes": v},  # too few amplitudes
        {"dims": [2, 2], "amplitudes": [[0.5], [0.5, 0], [0.5, 0], [0.5, 0]]},  # not [re, im] pairs
        {"amplitudes": v},
        '{"dims": [2, 2], "amplitudes": [[0.5, 0',  # cut short
    ]
    return states + [(files.write(obj), [2, 2]) for obj in broken]


def _write_sets(rng: np.random.Generator, files: Files) -> dict[int, list[str]]:
    """Set files per dimension: complete ones, ones off completeness by SET_DEFECTS, with plain
    and odd labels, then broken ones: a ragged matrix, a declared dim that is not the matrices',
    repeated labels, no operators."""
    sets = {}
    for dim in SET_DIMS:
        paths = []
        for defect in SET_DEFECTS:
            n = int(rng.integers(1, 5))
            ops = _isometry(rng, dim, n)
            ops[0] *= np.sqrt(1.0 - defect)
            paths.append(files.write(_set_obj(ops, _labels(rng, n))))
        ops = _isometry(rng, dim, 2)
        good = _set_obj(ops, ["a", "b"])
        ragged = _set_obj(ops, ["a", "b"])
        ragged["operators"][1]["matrix"].append([[0.0, 0.0]] * (dim + 1))
        repeated = _set_obj(ops, ["a", "a"])
        paths += [
            files.write(ragged),
            files.write({**good, "dim": dim + 1}),
            files.write(repeated),
            files.write({"dim": dim}),
        ]
        sets[dim] = paths
    return sets


def _pick_set(rng: np.random.Generator, sets: dict[int, list[str]], dim: int) -> str:
    """Mostly a complete set file on ``dim``, else one off completeness, a broken one, a
    built-in or a set on another dim."""
    draw = rng.random()
    paths = sets[dim]
    if draw < 0.6:
        return paths[int(rng.integers(SET_DEFECTS.count(0.0)))]
    if draw < 0.8:
        return paths[int(rng.integers(SET_DEFECTS.count(0.0), len(SET_DEFECTS)))]
    if draw < 0.85:
        return paths[int(rng.integers(len(SET_DEFECTS), len(paths)))]
    if draw < 0.93:
        return str(rng.choice(["z-projectors", "noisy:0.8", f"random:{rng.integers(1, 4)}:{rng.integers(100)}"]))
    return str(rng.choice(sets[int(rng.choice(list(sets)))]))


def _write_protocols(rng: np.random.Generator, files: Files) -> list[str]:
    """Valid protocol files, then broken ones: a non-unitary Bob operator, an incomplete verify
    pair, a verify pair lacking 'failure', a missing label, too few unitaries, malformed JSON."""

    def protocol(d_a: int, d_b: int, n: int, state) -> dict:
        labels = _labels(rng, n)
        verify = {}
        for label in labels:
            u = _isometry(rng, d_b, 1)[0]
            keep = np.diag(rng.integers(0, 2, size=d_b).astype(complex))
            success = u @ keep @ u.conj().T
            verify[label] = {"success": _pairs(success), "failure": _pairs(np.eye(d_b) - success)}
        return {
            "state": state,
            "alice": _set_obj(_isometry(rng, d_a, n), labels),
            "bob_unitaries": [_pairs(_isometry(rng, d_b, 1)[0]) for _ in range(n)],
            "verify": verify,
        }

    def state(d_a: int, d_b: int) -> dict:
        v = rng.standard_normal(d_a * d_b) + 1j * rng.standard_normal(d_a * d_b)
        return {"dims": [d_a, d_b], "amplitudes": _pairs(v / np.linalg.norm(v))}

    valid = [protocol(2, 2, 2, "bell"), protocol(2, 2, 3, "random:5"), protocol(2, 2, 1, "product0")]
    valid += [protocol(d_a, d_b, n, state(d_a, d_b)) for d_a, d_b, n in ((2, 3, 2), (3, 2, 4), (3, 3, 3), (1, 2, 1))]
    broken = [protocol(2, 2, 2, "bell") for _ in range(5)]
    broken[0]["bob_unitaries"][1] = _pairs(1.01 * np.eye(2))
    first = next(iter(broken[1]["verify"].values()))
    first.update({key: (0.9 * np.array(first[key])).tolist() for key in ("success", "failure")})
    del next(iter(broken[2]["verify"].values()))["failure"]
    del broken[3]["verify"][next(iter(broken[3]["verify"]))]
    broken[4]["bob_unitaries"].pop()
    paths = [files.write(obj) for obj in valid + broken]
    return paths + [files.write(json.dumps(valid[0])[:200]), files.write({"state": "bell"})]


def _theorem1_random(rng: np.random.Generator, k: int, protocols: list[str]) -> list[str]:
    """A ``theorem1 --random`` line: 1, 7, 60 or one chunk and one trial in turn, with invalid
    values and flag clashes now and then."""
    d_a, d_b = THEOREM1_DIMS[int(rng.integers(len(THEOREM1_DIMS)))]
    outcomes = [None, 1, 2, 3, 4][int(rng.integers(5))]
    trials = [1, 7, 60, past_one_chunk(d_a, d_b, outcomes or 2)][k % 4]
    argv = ["theorem1", "--random", "--seed", str(rng.integers(1000)), "--trials", str(trials)]
    if (d_a, d_b) != (2, 2) or rng.random() < 0.5:
        argv += ["--dims", f"{d_a},{d_b}"]
    if outcomes is not None:
        argv += ["--outcomes", str(outcomes)]
    draw = rng.random()
    if draw < 0.12:  # one invalid value
        flag, value = [("--trials", "0"), ("--trials", "-3"), ("--seed", "-1"), ("--dims", "2,0"),
                       ("--dims", "2"), ("--dims", "x,2"), ("--outcomes", "0"), ("--trials", "1.5")][k % 8]  # fmt: skip
        argv += [flag, value]
    elif draw < 0.2:  # a clash, or a missing flag
        clash = [["--protocol", str(rng.choice(protocols))], []][k % 2]
        argv = argv + clash if clash else [a for a in argv if a != "--random"]
    return [*argv, "--format", "tsv" if k % 3 == 0 else "json"]


def file_corpus(seed: int, workdir: Path) -> list[list[str]]:
    """``theorem1`` lines and file-input ``map``, ``entanglement`` and ``locc`` lines, drawn from
    a generator of their own; their files are written under ``workdir``. Each line may start with
    an ``MSPACE_DEFAULT_TOL=<value>`` assignment, which the worker sets for that command."""
    rng = np.random.default_rng((seed, 2))
    files = Files(workdir)
    states, sets, protocols = _write_states(rng, files), _write_sets(rng, files), _write_protocols(rng, files)
    commands = [_theorem1_random(rng, k, protocols) for k in range(THEOREM1)]
    for k, path in enumerate(protocols):
        commands += [["theorem1", "--protocol", path, "--format", fmt] for fmt in ("json", "tsv")]
        clash = [["--random"], ["--seed", "3"], ["--dims", "2,2"], ["--outcomes", "2"], ["--trials", "1"]][k % 5]
        commands.append(["theorem1", "--protocol", path, *clash])
    for k in range(3 * FILE_COMMANDS):
        command = ("map", "entanglement", "locc")[k % 3]
        path, dims = states[int(rng.integers(len(states)))] if rng.random() < 0.85 else ("bell", [2, 2])
        argv = [command, "--state", path]
        if rng.random() < 0.1:
            argv += ["--dims", ",".join(map(str, dims if rng.random() < 0.7 else dims[::-1] + [1]))]
        if command == "map" and rng.random() < 0.35:
            argv += ["--measurements", _pick_set(rng, sets, int(np.prod(dims)))]
        elif command != "entanglement" or rng.random() < 0.75:
            sides = dims if len(dims) == 2 else [int(np.prod(dims)), 1]
            argv += ["--alice", _pick_set(rng, sets, sides[0]), "--bob", _pick_set(rng, sets, sides[1])]
        if command == "entanglement":
            argv += ["--measure", str(rng.choice(MEASURES))]
        if command == "locc":
            draw = rng.random()
            if draw < 0.4:
                argv += ["--all-outcomes"]
            elif draw < 0.7:
                argv += ["--outcome", f"{rng.integers(0, 3)},{rng.integers(0, 3)}"]
        argv += ["--format", "tsv" if k % 4 < 2 else "json"]
        tol = TOLERANCES[int(rng.choice(len(TOLERANCES), p=TOLERANCE_WEIGHTS))]
        commands.append(argv if tol is None else [f"{ENV}={tol}", *argv])
    for text, argv in PAIR_FILES + STRAY_BOOLEAN_FILES + BIG_INT_FILES + JSON_PATH_FILES:
        path = files.write(text)
        commands.append([path if arg == "FILE" else arg for arg in argv])
    return commands


def grid_corpus(seed: int) -> list[list[str]]:
    """GRID_PAIRS ``map``, ``entanglement`` and ``locc`` local-pair lines each, drawn from a generator
    of their own; some set ``MSPACE_DEFAULT_TOL`` to one of NEAR_TOLERANCES."""
    rng = np.random.default_rng((seed, 3))
    commands = []
    for k in range(3 * GRID_PAIRS):
        command = ("map", "entanglement", "locc")[k % 3]
        low, high = (2, 8) if command == "locc" else (6, 24)
        d_a, d_b = (int(d) for d in rng.integers(low, high + 1, size=2))
        argv = [command, "--state", f"random:{rng.integers(1000)}", "--dims", f"{d_a},{d_b}"]
        for side in ("--alice", "--bob"):
            argv += [side, f"random:{rng.integers(1, 4)}:{rng.integers(1000)}"]
        if command == "entanglement":  # concurrence takes only 2x2
            argv += ["--measure", str(rng.choice(["entropy", "eof"]))]
        if command == "locc" and rng.random() < 0.5:
            argv += ["--all-outcomes"]
        argv += ["--format", "tsv" if k % 4 == 0 else "json"]
        near = rng.random() < 0.35
        commands.append([f"{ENV}={rng.choice(NEAR_TOLERANCES)}", *argv] if near else argv)
    return commands


def build(seed: int, sweeps: int, workdir: Path) -> list[list[str]]:
    """The whole corpus for ``seed``, its input files written under ``workdir``."""
    seeded = corpus(seed, sweeps) + local_corpus(seed) + file_corpus(seed, workdir)
    return seeded + FIXED_LINES + grid_corpus(seed)


def split_env(line: list[str]) -> tuple[str | None, list[str]]:
    """A corpus line as (its MSPACE_DEFAULT_TOL value, or None to leave it unset; argv)."""
    if line and line[0].startswith(f"{ENV}="):
        return line[0].split("=", 1)[1], line[1:]
    return None, line


def per_command(commands: list) -> str:
    """How many of ``commands`` each subcommand has, as ``"3 sweep, 0 konrad, 1 modes, ..., 2 other"``;
    ``other`` counts the lines whose first word names no subcommand."""
    names = [split_env(line)[1][0] for line in commands]
    counts = [f"{names.count(name)} {name}" for name in COMMANDS]
    return ", ".join([*counts, f"{len(names) - sum(map(names.count, COMMANDS))} other"])


def worker() -> None:
    """Run the corpus on stdin through ``mspace.cli.main``; print ``[code, stdout, stderr]`` per command."""
    from mspace import cli

    results = []
    for line in json.load(sys.stdin):
        tol, argv = split_env(line)
        if tol is None:
            os.environ.pop(ENV, None)
        else:
            os.environ[ENV] = tol
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's own exits
                code = exc.code
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


# a JSON number literal; masking them leaves the text that must not change at all
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_INTEGER = re.compile(r"-?\d+")


def tsv_cells(out: str) -> list[tuple[str, str]]:
    """A TSV report as ``(key path, text)`` pairs in print order: ``.key`` for each ``# key=value``
    line, then ``.results[i].column`` for each cell of table row ``i``."""
    lines = out.removesuffix("\n").split("\n")
    head = next((k for k, line in enumerate(lines) if not line.startswith("# ")), len(lines))
    cells = [(f".{key}", value) for key, _, value in (line[2:].partition("=") for line in lines[:head])]
    columns = lines[head].split("\t") if head < len(lines) else []
    for i, line in enumerate(lines[head + 1 :]):
        cells += [(f".results[{i}].{name}", cell) for name, cell in zip(columns, line.split("\t"))]
    return cells


def _tsv_moves(out: str, their_out: str) -> list[tuple[str, float, float]] | None:
    """``float_moves`` of two TSV reports with the same text outside their numbers, so the same
    lines and cells."""
    moves = []
    for (path, x), (their_path, y) in zip(tsv_cells(out), tsv_cells(their_out)):
        if path != their_path:
            return None
        if x == y:
            continue
        # "%.12g" prints a whole float without a point, so one side of a float cell may look like an int;
        # a float written differently with the same value is a plain difference, as in JSON
        numbers = _NUMBER.fullmatch(x) and _NUMBER.fullmatch(y)
        if not numbers or _INTEGER.fullmatch(x) and _INTEGER.fullmatch(y) or float(x) == float(y):
            return None
        moves.append((path, float(x), float(y)))
    return moves or None


def float_moves(ours: list, theirs: list) -> list[tuple[str, float, float]] | None:
    """The floats that moved between two differing ``[code, stdout, stderr]`` results, as
    ``(key path, ours, theirs)``; None if the results differ in anything else."""
    (code, out, err), (their_code, their_out, their_err) = ours, theirs
    if code != their_code or err != their_err or _NUMBER.sub("#", out) != _NUMBER.sub("#", their_out):
        return None
    if not out.startswith("{"):
        return _tsv_moves(out, their_out)
    try:
        a, b = json.loads(out), json.loads(their_out)
    except json.JSONDecodeError:
        return None
    moves = []

    def same_outside_floats(x, y, path: str) -> bool:
        if type(x) is not type(y):
            return False
        if isinstance(x, dict):
            return list(x) == list(y) and all(same_outside_floats(x[k], y[k], f"{path}.{k}") for k in x)
        if isinstance(x, list):
            pairs = enumerate(zip(x, y))
            return len(x) == len(y) and all(same_outside_floats(u, v, f"{path}[{i}]") for i, (u, v) in pairs)
        if isinstance(x, float) and x != y:
            moves.append((path, x, y))
            return True
        return x == y

    # a float written differently with the same value is a plain difference too
    return moves if same_outside_floats(a, b, "") and moves else None


def in_degenerate_row(out: str, path: str) -> bool:
    """Whether the key ``path`` of the report ``out``, JSON or TSV, lies in a ``results`` row
    flagged degenerate."""
    row = re.match(r"\.results\[(\d+)\]\.", path)
    if row is None:
        return False
    if out.startswith("{"):
        return json.loads(out)["results"][int(row[1])].get("degenerate") is True
    return dict(tsv_cells(out)).get(f"{row[0]}degenerate") == "true"


def float_report(moved: list[tuple[list[str], list]], what: str = "floats moved") -> str:
    """One line on the floats moved in ``moved``, pairs of a command and its ``float_moves``."""
    found = [
        (abs(x - y), abs(x - y) / max(abs(x), abs(y)), " ".join(line), path)
        for line, moves in moved
        for path, x, y in moves
    ]
    text = f"{what}: {len(found)} in {len(moved)} commands"
    for name, key in (("absolute", 0), ("relative", 1)) if found else ():
        worst = max(found, key=lambda f: f[key])
        text += f"; largest {name} change {worst[key]:.3g} at `{worst[2]}` {worst[3]}"
    return text


def run_tree(src: Path, commands: list, threads: int | None = None) -> list:
    """The results of ``commands`` run by the tree ``src``, at ``threads`` BLAS threads if given."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    if threads is not None:
        env.update(dict.fromkeys(THREAD_VARS, str(threads)))
    proc = subprocess.run(
        [sys.executable, __file__, "--worker"],
        input=json.dumps(commands),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def thread_pair(text: str) -> tuple[int, int]:
    """``A,B`` as two thread counts of at least 1."""
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected A,B, got {text!r}") from exc
    if min(a, b) < 1:
        raise argparse.ArgumentTypeError(f"thread counts must be >= 1, got {text!r}")
    return a, b


def main() -> int:
    if sys.argv[1:] == ["--worker"]:
        worker()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path)
    parser.add_argument("--src", type=Path, default=SRC)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--sweeps", type=int, default=406)
    parser.add_argument("--threads", type=thread_pair, default=(None, None), metavar="A,B")
    args = parser.parse_args()
    # the input files are written once, before either tree runs
    with tempfile.TemporaryDirectory() as workdir:
        commands = build(args.seed, args.sweeps, Path(workdir))
        ours = run_tree(args.src, commands, args.threads[0])
        theirs = run_tree(args.other_src, commands, args.threads[1])
    moved, steady, differ = [], [], []
    for line, a, b in zip(commands, ours, theirs):
        if a == b:
            continue
        moves = float_moves(a, b)
        if moves is None:
            differ.append(line)
            continue
        moved.append((line, moves))
        outside = [move for move in moves if not in_degenerate_row(a[1], move[0])]
        if outside:
            steady.append((line, outside))
    for line in differ[:10]:
        print("differs:", " ".join(line), file=sys.stderr)
    exit2 = sum(code == 2 for code, _, _ in ours)
    threads = "" if args.threads[0] is None else f" threads {args.threads[0]},{args.threads[1]}"
    print(
        f"same_corpus seed {args.seed}{threads}: {len(commands)} commands ({per_command(commands)}), {exit2} exit 2; "
        f"identical {len(commands) - len(moved) - len(differ)}, "
        f"floats moved {len(moved)} ({per_command([line for line, _ in moved])}), "
        f"differ {len(differ)} ({per_command(differ)})"
    )
    print(float_report(moved))
    print(float_report(steady, "floats moved outside degenerate rows"))
    return 1 if moved or differ else 0


if __name__ == "__main__":
    sys.exit(main())
