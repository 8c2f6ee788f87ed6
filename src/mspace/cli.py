"""Command-line front end.

Subcommands map states into measurement space, compare entanglement on both
sides of the map, replay the protocol-equivalence and construction audits on
random inputs, check the concurrence factorization relations, and print the
mode-counting bound table. Reports are JSON (all floats with full precision)
or TSV for plotting; identical command lines with identical seeds produce
byte-identical output.

Exit codes: 0 success, 1 a checked property failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import sys
from typing import Any

import numpy as np

from .entanglement import (
    MEASURES,
    EntanglementReport,
    concurrence_mixed,
    measurement_space_entanglement,
    pure_entanglement,
    pure_entanglements,
)
from .files import load_measurement_set, load_protocol, load_state
from .linalg import DEFAULT_TOL, DensityMatrix, PureState, ValidationError, _shown, bell_phi_plus, seeded_chunks
from .locc import KONRAD_TOL, KONRAD_TRIAL_BYTES, konrad_check, random_konrad_trials, run_locc_construction
from .measurement import LocalMeasurementSet, local_images, map_to_measurement_space, noisy_operators
from .modes import useful_entanglement_bounds
from .protocols import random_protocol_batches, success_rates_mspace, success_rates_original
from .report import emit

THEOREM1_TOL = 1e-10
MONOTONICITY_TOL = 1e-9
DIAGONAL_TOL = 1e-9
# most rows a report may hold; every row is built before any is printed
MAX_ROWS = 10**5
# loosest completeness tolerance the environment may set; beyond it an
# incomplete set would pass and yield a meaningless image
TOLERANCE_CAP = 1e-4


def default_tolerance() -> float:
    """Completeness tolerance for map, entanglement and locc; MSPACE_DEFAULT_TOL overrides it.

    An override must be a finite number in (0, TOLERANCE_CAP]. This is the
    one place the package reads the environment; the library takes the
    tolerance as an argument.
    """
    raw = os.environ.get("MSPACE_DEFAULT_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ValidationError("tolerance-env", f"MSPACE_DEFAULT_TOL={raw!r} is not a number") from exc
    # the chained comparison is false for NaN as well
    if not 0.0 < tol <= TOLERANCE_CAP:
        raise ValidationError("tolerance-env", f"MSPACE_DEFAULT_TOL={raw!r} is not in (0, {TOLERANCE_CAP!r}]")
    return tol


# ---------------------------------------------------------------------------
# shared argument handling


def _parse_ints(text: str, n: int | None = None) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError("flag-format", f"expected comma-separated integers, got {text!r}") from exc
    if n is not None and len(values) != n:
        raise ValidationError("flag-format", f"expected {n} integers, got {text!r}")
    return values


def _require_count(value: int, flag: str) -> None:
    """One report row per unit of ``value``, so it must lie in [1, MAX_ROWS]."""
    # zero trials or steps would check nothing and still report a pass
    if value < 1:
        raise ValidationError("flag-format", f"{flag} must be >= 1, got {_shown(value)}")
    if value > MAX_ROWS:
        raise ValidationError(
            "flag-format", f"{flag} asks for {_shown(value)} report rows, over the cap {MAX_ROWS}"
        )


def _eta_steps(start: float, end: float, steps: int) -> np.ndarray:
    """The efficiencies of a sweep, ``np.linspace(start, end, steps)``.

    numpy turns an infinite end, or ends too far apart for their difference
    to be a float, into NaN steps with a warning; both exit as ``noisy-eta``
    naming the flags given. A NaN end passes, and the noisy kernel names it.
    """
    for flag, eta in (("--eta-start", start), ("--eta-end", end)):
        if math.isinf(eta):
            raise ValidationError("noisy-eta", f"{flag} must lie in [0, 1], got {eta!r}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return np.linspace(start, end, steps)
    except FloatingPointError:
        raise ValidationError(
            "noisy-eta", f"--eta-start {start!r} and --eta-end {end!r} are too far apart for float steps"
        ) from None


def _require_seed(seed: int) -> None:
    # numpy would reject it only once drawing, with a message that names no invariant
    if seed < 0:
        raise ValidationError("flag-format", f"--seed must be >= 0, got {seed}")


def _load_local_sets(args, psi: PureState, tol: float) -> LocalMeasurementSet:
    if args.alice is None or args.bob is None:
        raise ValidationError("flag-format", "--alice and --bob go together")
    if len(psi.dims) != 2:
        raise ValidationError("dimension-match", f"local sets need a bipartite state, got dims {psi.dims}")
    alice = load_measurement_set(args.alice, dim=psi.dims[0], tol=tol)
    bob = load_measurement_set(args.bob, dim=psi.dims[1], tol=tol)
    return LocalMeasurementSet(alice, bob)


def _tolerance_and_state(args) -> tuple[float, PureState]:
    """The completeness tolerance, then ``--state`` on ``--dims``: a bad MSPACE_DEFAULT_TOL is named first."""
    tol = default_tolerance()
    return tol, load_state(args.state, None if args.dims is None else _parse_ints(args.dims))


# ---------------------------------------------------------------------------
# subcommands


def cmd_map(args) -> tuple[dict, int]:
    local = args.alice is not None or args.bob is not None
    if args.measurements is not None and local:
        raise ValidationError("flag-format", "--measurements and --alice/--bob exclude each other")
    tol, psi = _tolerance_and_state(args)
    if local:
        measurements: Any = _load_local_sets(args, psi, tol)
        _require_count(math.prod(measurements.structure), "--alice/--bob")
    elif args.measurements is not None:
        measurements = load_measurement_set(args.measurements, dim=psi.dim, tol=tol)
        _require_count(len(measurements), "--measurements")
    else:
        raise ValidationError("flag-format", "need --measurements or --alice/--bob")
    image = map_to_measurement_space(psi, measurements, completeness_tol=tol)
    columns = {
        "label": measurements.labels,
        "probability": image.probabilities(),
        "amplitude": image.amplitudes,
    }
    report = {
        "parameters": {
            "state": args.state,
            "measurements": args.measurements,
            "alice": args.alice,
            "bob": args.bob,
            "tolerance": tol,
        },
        "structure": list(image.structure) if image.structure else None,
        "results": columns,
    }
    return report, 0


def cmd_entanglement(args) -> tuple[dict, int]:
    tol, psi = _tolerance_and_state(args)
    split = None if args.split is None else _parse_ints(args.split, 2)
    if split is not None:
        if split[0] * split[1] != psi.dim:
            raise ValidationError("split-shape", f"split {split} does not factor dimension {psi.dim}")
        psi = PureState(split, psi.vector)
    original = pure_entanglement(psi, args.measure)
    columns = {"measure": [args.measure], "original": [original]}
    monotone = True
    if args.alice is not None or args.bob is not None:
        measurements = _load_local_sets(args, psi, tol)
        image = map_to_measurement_space(psi, measurements, completeness_tol=tol)
        after = measurement_space_entanglement(image, args.measure)
        monotone = after <= original + MONOTONICITY_TOL
        columns.update(measurement_space=[after], monotone=[monotone])
    report = {
        "parameters": {
            "state": args.state,
            "alice": args.alice,
            "bob": args.bob,
            "measure": args.measure,
            "split": args.split,
            "tolerance": tol,
        },
        "results": columns,
    }
    return report, 0 if monotone else 1


def cmd_theorem1(args) -> tuple[dict, int]:
    if args.protocol is not None and args.random:
        raise ValidationError("flag-format", "--protocol and --random exclude each other")
    if args.protocol is not None:
        # a protocol file fixes all of these itself
        for flag in ("seed", "dims", "outcomes", "trials"):
            if getattr(args, flag) is not None:
                raise ValidationError("flag-format", f"--protocol and --{flag} exclude each other")
        specs = [load_protocol(args.protocol)]
        outcomes = specs[0].alice.shape[1]
    else:
        if not args.random:
            raise ValidationError("flag-format", "need --protocol or --random")
        if args.seed is None:
            raise ValidationError("flag-format", "--random needs --seed")
        _require_seed(args.seed)
        trials = 1 if args.trials is None else args.trials
        _require_count(trials, "--trials")
        outcomes = 2 if args.outcomes is None else args.outcomes
        d_a, d_b = _parse_ints(args.dims, 2) if args.dims is not None else (2, 2)
        specs = random_protocol_batches(d_a, d_b, outcomes, args.seed, trials)
    names, p_original, p_mspace = [], [], []
    for spec in specs:
        names += ["file"] if spec.trials is None else map(str, spec.trials)
        p_original += success_rates_original(spec).tolist()
        p_mspace += success_rates_mspace(spec).tolist()
    deltas = [abs(p_orig - p_ms) for p_orig, p_ms in zip(p_original, p_mspace)]
    # a running maximum from 0.0, which a NaN delta leaves as it is
    worst = max(0.0, *deltas)
    passed = worst < THEOREM1_TOL
    report = {
        "parameters": {
            "protocol": args.protocol,
            "trials": len(names),
            "seed": args.seed,
            "dims": args.dims,
            "outcomes": outcomes,
        },
        "max_delta": worst,
        "tolerance": THEOREM1_TOL,
        "passed": passed,
        "results": {"trial": names, "p_original": p_original, "p_mspace": p_mspace, "delta": deltas},
    }
    return report, 0 if passed else 1


def cmd_locc(args) -> tuple[dict, int]:
    if args.outcome is not None and args.all_outcomes:
        raise ValidationError("flag-format", "--outcome and --all-outcomes exclude each other")
    tol, psi = _tolerance_and_state(args)
    measurements = _load_local_sets(args, psi, tol)
    ja, jb = _parse_ints(args.outcome, 2) if args.outcome is not None else (0, 0)
    d_a, d_b = psi.dims
    if not 0 <= ja < d_a or not 0 <= jb < d_b:
        raise ValidationError("locc-outcome", f"outcome choice ({ja}, {jb}) out of range ({d_a}, {d_b})")
    trace = run_locc_construction(psi, measurements, tol)
    uniformity_alice = float(trace.alice.fourier.max_deviation)
    degenerate = trace.alice.fourier.degenerate | trace.bob.fourier.degenerate
    # branch k is Alice's outcome k // d_b and Bob's k % d_b
    branches = np.arange(d_a * d_b) if args.all_outcomes else np.array([ja * d_b + jb])
    outcome_a, outcome_b = divmod(branches, d_b)
    columns = {
        "outcome_a": outcome_a,
        "outcome_b": outcome_b,
        "uniformity_deviation_alice": [uniformity_alice] * len(branches),
        "uniformity_deviation_bob": trace.bob.fourier.max_deviation[outcome_a].tolist(),
        "ancilla_diagonal_deviation": [trace.diagonal_deviation] * len(branches),
        "branch_diagonal_deviation": trace.branch_diagonal_deviations[branches],
        "fidelity": trace.fidelities[branches],
        "degenerate": degenerate[outcome_a],
    }
    worst_uniform = max(uniformity_alice, *trace.bob.fourier.max_deviation.tolist())
    entropy_before = pure_entanglement(psi, "entropy")
    entropy_after = measurement_space_entanglement(trace.mspace, "entropy")
    summary: dict[str, Any] = {"entropy_before": entropy_before, "entropy_after": entropy_after}
    checks = [entropy_after <= entropy_before + MONOTONICITY_TOL]
    if psi.dims == (2, 2) and trace.mspace.structure == (2, 2):
        c_before = pure_entanglement(psi, "concurrence")
        c_after = measurement_space_entanglement(trace.mspace, "concurrence")
        # the one check of the ancilla output as a density matrix: the run holds it as an array
        ancilla = DensityMatrix((2, 2), trace.ancilla)
        c_ancilla = EntanglementReport("concurrence", concurrence_mixed(ancilla), (2, 2)).value
        summary.update(concurrence_before=c_before, concurrence_after=c_after, concurrence_ancilla=c_ancilla)
        checks.append(c_after <= c_before + MONOTONICITY_TOL)
        checks.append(c_ancilla <= c_before + MONOTONICITY_TOL)
    monotone = all(checks)
    passed = monotone and worst_uniform <= tol and trace.diagonal_deviation <= DIAGONAL_TOL
    report = {
        "parameters": {
            "state": args.state,
            "alice": args.alice,
            "bob": args.bob,
            "outcome": args.outcome,
            "all_outcomes": args.all_outcomes,
            "tolerance": tol,
        },
        **summary,
        "monotonicity": monotone,
        "passed": passed,
        "results": columns,
    }
    return report, 0 if passed else 1


def cmd_konrad(args) -> tuple[dict, int]:
    _require_count(args.trials, "--trials")
    _require_seed(args.seed)
    # one check per chunk, which bounds the memory at any trial count
    chunks = [
        konrad_check(*random_konrad_trials(rngs, args.two_sided))
        for _, rngs in seeded_chunks(args.seed, args.trials, KONRAD_TRIAL_BYTES)
    ]
    lhs, bound = (np.concatenate(side) for side in zip(*chunks))
    if args.two_sided:
        holds = lhs <= bound + KONRAD_TOL
        columns = {"lhs": lhs, "bound": bound, "slack": bound - lhs, "holds": holds}
        violations, worst = int(np.count_nonzero(~holds)), None
        passed = violations == 0
    else:
        columns = {"lhs": lhs, "rhs": bound, "residual": np.abs(lhs - bound)}
        violations, worst = None, float(columns["residual"].max())
        passed = worst < KONRAD_TOL
    report = {
        "parameters": {"trials": args.trials, "seed": args.seed, "two_sided": args.two_sided},
        "max_residual": worst,
        "violations": violations,
        "tolerance": KONRAD_TOL,
        "passed": passed,
        "results": {"trial": range(args.trials), **columns},
    }
    return report, 0 if passed else 1


def cmd_modes(args) -> tuple[dict, int]:
    pair, grid_flags = (args.n, args.m), (args.n_max, args.m_max)
    if pair != (None, None) and grid_flags != (None, None):
        raise ValidationError("flag-format", "--n/--m and --n-max/--m-max exclude each other")
    if args.n is not None and args.m is not None:
        grid = [(args.n, args.m)]
    elif args.n_max is not None and args.m_max is not None:
        if args.n_max < 1 or args.m_max < 2:
            raise ValidationError("flag-format", "the grid needs --n-max >= 1 and --m-max >= 2")
        _require_count(args.n_max * (args.m_max - 1), "the --n-max/--m-max grid")
        grid = [(n, m) for n in range(1, args.n_max + 1) for m in range(2, args.m_max + 1)]
    else:
        raise ValidationError("flag-format", "need --n/--m or --n-max/--m-max")
    table = useful_entanglement_bounds(grid)
    # the report's columns are the table's fields, in field order
    columns = {**vars(table), "weak_bound_loose": table.prime & (table.count > 2)}
    return {"parameters": {"grid": len(grid)}, "results": columns}, 0


def cmd_sweep(args) -> tuple[dict, int]:
    if args.state != "bell":
        raise ValidationError("sweep-state", "the efficiency sweep is defined for --state bell")
    _require_count(args.steps, "--steps")
    psi = bell_phi_plus()
    entropy_before = pure_entanglement(psi, "entropy")
    # every step at once: one stack of noisy pairs, one checked map, one checked stack per measure
    etas = _eta_steps(args.eta_start, args.eta_end, args.steps)
    ops = noisy_operators(etas)
    images = local_images(psi, ops, ops).reshape(-1, 2, 2)
    columns = {
        "eta": etas,
        "entropy_original": [entropy_before] * args.steps,
        "concurrence_mspace": pure_entanglements(images, "concurrence"),
        "entropy_mspace": pure_entanglements(images, "entropy"),
    }
    report = {
        "parameters": {
            "eta_start": args.eta_start,
            "eta_end": args.eta_end,
            "steps": args.steps,
            "state": args.state,
        },
        "results": columns,
    }
    return report, 0


# ---------------------------------------------------------------------------
# parser


def _table_arm(sub: argparse.ArgumentParser):
    """``sub``'s table arm: the namespace ``sub.parse_args(words)`` gives, or None for a line it does not take.

    The table holds ``sub``'s store actions of one value and its switches by
    exact option string; ``_parse_args`` says which lines the arm takes. The
    namespace holds each action's default (a ``str`` default converted
    through ``type``, as argparse converts it), ``const`` for a given switch
    and each given value converted through ``type``.
    """
    actions = [action for action in sub._actions if action.dest is not argparse.SUPPRESS]
    options = {
        word: action
        for action in actions
        if isinstance(action, argparse._StoreConstAction)
        or (type(action) is argparse._StoreAction and action.nargs is None)
        for word in action.option_strings
    }
    required = [action for action in actions if action.required]

    def converted(action, text):
        # as argparse reads a value: through the action's type, if it has one
        return text if action.type is None else action.type(text)

    def parse(words) -> argparse.Namespace | None:
        given = {}
        words = iter(words)
        try:
            for word in words:
                action = options.get(word)
                if action is None or action in given:
                    return None
                if action.nargs == 0:
                    given[action] = action.const
                    continue
                text = next(words, None)
                if text is None or text.startswith("-"):
                    return None
                value = converted(action, text)
                if action.choices is not None and value not in action.choices:
                    return None
                given[action] = value
            if not all(action in given for action in required):
                return None
            args = argparse.Namespace()
            for action in actions:
                if action in given:
                    value = given[action]
                elif action.default is argparse.SUPPRESS:
                    continue
                elif isinstance(action.default, str):
                    value = converted(action, action.default)
                else:
                    value = action.default
                setattr(args, action.dest, value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            # argparse refuses a value its type cannot read
            return None
        return args

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; ``parse_args`` gives each call a fresh namespace.

    It is the reference for every command line. ``parser.subcommands`` maps
    each subcommand's name to its table arm (``_table_arm``), read here from
    that subcommand's actions. The arm reads, without argparse, a line of
    exact option strings of the subcommand, each used once and each value
    free of a leading ``-`` and passing the option's type and choices, with
    every required option present. Every other line, and all usage, help and
    error text, comes from this parser.
    """
    parser = argparse.ArgumentParser(
        prog="mspace",
        description="Measurement-space maps, operational entanglement, and mode bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="map a state to its measurement-space image")
    p.add_argument("--state", required=True)
    p.add_argument("--measurements")
    p.add_argument("--alice")
    p.add_argument("--bob")
    p.add_argument("--dims")

    p = sub.add_parser("entanglement", help="entanglement before and after the map")
    p.add_argument("--state", required=True)
    p.add_argument("--alice")
    p.add_argument("--bob")
    p.add_argument("--measure", choices=MEASURES, default="entropy")
    p.add_argument("--split")
    p.add_argument("--dims")

    p = sub.add_parser("theorem1", help="compare protocol success on both sides of the map")
    p.add_argument("--protocol")
    p.add_argument("--random", action="store_true")
    # --trials and --outcomes default to 1 and 2 with --random; --protocol takes neither
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--dims")
    p.add_argument("--outcomes", type=int)

    p = sub.add_parser("locc", help="audit the local construction that realizes the map")
    p.add_argument("--state", required=True)
    p.add_argument("--alice", required=True)
    p.add_argument("--bob", required=True)
    p.add_argument("--outcome")
    p.add_argument("--all-outcomes", action="store_true")
    p.add_argument("--dims")

    p = sub.add_parser("konrad", help="concurrence factorization checks for random channels")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--two-sided", action="store_true")

    p = sub.add_parser("modes", help="mode-counting entanglement bound table")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--m-max", type=int)

    p = sub.add_parser("sweep", help="detector-efficiency sweep on the Bell state")
    p.add_argument("--eta-start", type=float, default=0.5)
    p.add_argument("--eta-end", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--state", default="bell")

    # after every subcommand's own options, as the last one of each
    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "tsv"), default="json")
    # each subcommand's table arm by name, read from the parser just built: a fresh parser gets its own
    parser.subcommands = {name: _table_arm(p) for name, p in sub.choices.items()}
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``argv`` parsed as ``build_parser().parse_args`` parses it, from its subcommand's action table where it can be.

    The table arm takes a line whose first word names a subcommand and whose
    every later word is an exact option string of that subcommand used once,
    each value-taking option followed by a value that does not start with
    ``-`` and passes the option's type and choices, with every required option
    present; it builds the namespace without argparse. Every other line
    (abbreviations, ``--flag=value``, negative numbers, repeats, ``-h``, stray
    words, bad values) goes through the whole parser, which writes all usage,
    help and error text.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    table = parser.subcommands.get(argv[0]) if argv else None
    args = None if table is None else table(argv[1:])
    if args is None:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    # looked up per call, so a handler rebound on the module (a tracer, a test) is the one that runs
    handler = globals()[f"cmd_{args.command}"]
    # the command runs with the cyclic GC paused: its parsed files and arrays make no cycles, so
    # the collections their many objects set off would free nothing; the caller's state comes back
    enabled = gc.isenabled()
    gc.disable()
    try:
        report, code = handler(args)
        # the handler's own keys follow the command, and override it
        text = emit({"command": args.command, **report}, args.format)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout early; devnull takes what is left, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
