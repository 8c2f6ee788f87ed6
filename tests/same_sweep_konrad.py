"""Run seeded ``sweep``, ``konrad``, ``modes``, ``entanglement``, ``map`` and ``locc`` commands in
two source trees and compare them.

Usage::

    python tests/same_sweep_konrad.py OTHER_SRC [--src SRC] [--seed N] [--sweeps N]

``OTHER_SRC`` and ``SRC`` are ``src`` directories holding the ``mspace``
package; ``SRC`` defaults to this checkout's. Each tree runs the whole
corpus in one subprocess, calling ``mspace.cli.main`` in-process, and the
script prints one summary line: how many commands there were, how many
exited 2, and on how many stdout, stderr and exit code were all identical,
with the differing ones counted per subcommand. The first differing
commands go to stderr, and the exit status is 1 if any differ.

The corpus holds ``--sweeps`` seeded ``sweep`` command lines (ranges inside
and across [0, 1], reversed ones, NaN and infinite ends, 1 to 200 steps,
JSON and TSV, a few invalid flags), the ``konrad`` grid: seeds 0-39, 1,
7, 40 and 1500 trials (1500 spans two chunks), one- and two-sided, and
MODES seeded ``modes`` command lines: grids up to ``--n-max 200 --m-max 12``
(many of them reach a count over the cap), single pairs up to 300 particles
in 40 modes (many over the cap), small pairs with invalid counts, and both
flag sets at once, in JSON and TSV.

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
and ``dimension-match``. The file's name does not start with ``test_``, so
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
ETA_ENDS = ["0", "1", "0.5", "1.2", "-0.1", "nan", "inf", "1e-300", "0.9999999999999999"]
MODES = 400
PAIRS = 300
COMMANDS = ("sweep", "konrad", "modes", "entanglement", "map", "locc")
MEASURES = ("entropy", "concurrence", "eof")


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
    return commands


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


def per_command(commands: list) -> str:
    """How many of ``commands`` each subcommand has, as ``"3 sweep, 0 konrad, 1 modes"``."""
    return ", ".join(f"{sum(argv[0] == name for argv in commands)} {name}" for name in COMMANDS)


def worker() -> None:
    """Run the corpus on stdin through ``mspace.cli.main``; print ``[code, stdout, stderr]`` per command."""
    from mspace import cli

    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's own exits
                code = exc.code
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def run_tree(src: Path, commands: list) -> list:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker"],
        input=json.dumps(commands),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    if sys.argv[1:] == ["--worker"]:
        worker()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path)
    parser.add_argument("--src", type=Path, default=SRC)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--sweeps", type=int, default=406)
    args = parser.parse_args()
    commands = corpus(args.seed, args.sweeps) + local_corpus(args.seed)
    ours, theirs = run_tree(args.src, commands), run_tree(args.other_src, commands)
    differ = [argv for argv, a, b in zip(commands, ours, theirs) if a != b]
    for argv in differ[:10]:
        print("differs:", " ".join(argv), file=sys.stderr)
    exit2 = sum(code == 2 for code, _, _ in ours)
    print(
        f"same_sweep_konrad seed {args.seed}: {len(commands)} commands ({per_command(commands)}), "
        f"{exit2} exit 2; identical {len(commands) - len(differ)}, differ {len(differ)} ({per_command(differ)})"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
