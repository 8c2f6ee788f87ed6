"""Run seeded ``sweep``, ``konrad`` and ``modes`` commands in two source trees and compare them.

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
flag sets at once, in JSON and TSV. The file's name does not start with
``test_``, so pytest does not collect it.
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
COMMANDS = ("sweep", "konrad", "modes")


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
    commands = corpus(args.seed, args.sweeps)
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
