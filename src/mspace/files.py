"""On-disk formats and named built-ins for the command-line tools.

Everything is JSON. Complex numbers are always ``[re, im]`` pairs and
matrices are row-major lists of rows, so files round-trip bit-exactly and
parse trivially from any language. States, measurement sets and protocols
can also be referred to by built-in names so the standard examples run
without hand-written files.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
from itertools import chain
from pathlib import Path
from typing import Any, BinaryIO, Sequence

import numpy as np
import orjson

from .linalg import (
    DEFAULT_TOL,
    PureState,
    ValidationError,
    _check_dims,
    _require_fits,
    bell_phi_plus,
    haar_state,
)
from .measurement import MeasurementSet, noisy_pair, random_measurement_set, z_projectors
from .protocols import ProtocolSpec, single_protocol

STATE_NORM_ACCEPT = 1e-8
STATE_NORM_REPAIR = 1e-4
# bytes read at a time from a file whose size is not known in advance
READ_CHUNK = 1 << 20
# orjson parses nested arrays and objects by recursion with no depth limit of its own, taking up
# to about 160 bytes of C stack a level, and a text nested past the stack kills the process
# (SIGSEGV; measured at about 52000 levels of objects on an 8 MiB stack). A text with at most
# this many opening brackets nests no deeper, so within 1.6 MB of stack; json reads the rest.
ORJSON_MAX_BRACKETS = 10_000


def _quiet() -> np.errstate:
    """Where a file's entries are first squared: an entry too large to square, or not
    finite, fails the invariant it breaks (state-normalization, completeness, ...)
    without numpy's floating-point warnings."""
    return np.errstate(over="ignore", invalid="ignore")


def _complex_vector(pairs: Any, message: str) -> np.ndarray:
    """The ``[re, im]`` pairs in the list ``pairs`` as a complex array, in one C-level pass: the
    same ``(re, im)`` doubles that ``complex(re, im)`` gives. Anything else fails as
    ``complex-pairs`` with ``message``: a pair of another length, or a part whose exact type is
    not ``float`` or ``int``, such as a JSON ``true`` or ``false``, which loads as ``bool``."""
    try:
        if set(map(len, pairs)) <= {2}:
            parts = list(chain.from_iterable(pairs))
            if set(map(type, parts)) <= {float, int}:
                return np.fromiter(parts, float, len(parts)).view(complex)
    except (TypeError, OverflowError):
        pass
    raise ValidationError("complex-pairs", message)


def pairs_to_vector(pairs: Sequence[Sequence[float]]) -> np.ndarray:
    return _complex_vector(pairs, "amplitudes must be [re, im] pairs")


def pairs_to_matrices(matrices: Sequence[Sequence[Sequence[Sequence[float]]]]) -> list[np.ndarray]:
    """Each of ``matrices``, a list of equally long rows of ``[re, im]`` pairs, as a ``(rows,
    width)`` array, or ``(0,)`` for no rows; all of them are converted in one pass."""
    message = "matrix entries must be [re, im] pairs"
    try:
        shapes = [(len(rows), *set(map(len, rows))) for rows in matrices]
        pairs = list(chain.from_iterable(chain.from_iterable(matrices)))
    except TypeError as exc:
        raise ValidationError("complex-pairs", message) from exc
    # a ragged matrix has two widths or more in its shape
    if max(map(len, shapes), default=0) > 2:
        raise ValidationError("complex-pairs", message)
    out, start, arrays = _complex_vector(pairs, message), 0, []
    for shape in shapes:
        stop = start + math.prod(shape)
        arrays.append(out[start:stop].reshape(shape))
        start = stop
    return arrays


def _read_capped(fh: BinaryIO, what: str) -> bytes:
    """All of ``fh``, failing as ``file-size`` past :data:`~mspace.linalg.TRIAL_BYTES_CAP`: a
    regular file by its size before it is read, any other once its read passes the cap."""
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode):
        _require_fits(info.st_size, "file-size", what)
        return fh.read()
    chunks, total = [], 0
    while chunk := fh.read(READ_CHUNK):
        total = _require_fits(total + len(chunk), "file-size", what)
        chunks.append(chunk)
    return b"".join(chunks)


def _orjson_int(text: str) -> int | float:
    """A JSON integer as orjson reads it: outside [-2^63, 2^64) the nearest float. Past a double,
    which orjson refuses, it stays an int, which then fails where a float is read (``complex-pairs``)."""
    value = int(text)
    if -(2**63) <= value < 2**64:
        return value
    try:
        return float(value)
    except OverflowError:
        return value


def _read_json(path: str | Path) -> Any:
    """The parsed JSON file at ``path``."""
    try:
        with open(path, "rb") as fh:
            data = _read_capped(fh, f"reading {path}")
    except OSError as exc:
        raise ValidationError("file-access", f"cannot read {path}: {exc}") from exc
    return _parse_json(data, path)


def _parse_json(data: bytes, path: str | Path) -> Any:
    # orjson reads what json reads, to the same values, integers outside [-2^63, 2^64) as floats
    # included (json's by _orjson_int); json reads what orjson refuses (NaN and Infinity, numbers
    # past a double, lone surrogates) and words every error
    marks = np.frombuffer(data, np.uint8)
    if np.count_nonzero(marks == ord("[")) + np.count_nonzero(marks == ord("{")) <= ORJSON_MAX_BRACKETS:
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    try:
        text = data.decode("utf-8")
        # line ends as a text-mode read gives them, so that an error names the same position
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text, parse_int=_orjson_int)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValidationError("file-json", f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer with more digits than Python converts
        raise ValidationError("file-json", f"{path} holds a number too long to read: {exc}") from exc


def state_from_obj(obj: Any) -> PureState:
    if not isinstance(obj, dict) or "dims" not in obj or "amplitudes" not in obj:
        raise ValidationError("state-schema", "state files need 'dims' and 'amplitudes'")
    if not isinstance(obj["dims"], list) or not all(type(d) is int for d in obj["dims"]):
        raise ValidationError("state-schema", "state files need 'dims' as a list of integers")
    dims = tuple(obj["dims"])
    vec = pairs_to_vector(obj["amplitudes"])
    # as PureState checks them: a zero dim would otherwise fail as a zero norm
    _check_dims(dims)
    if vec.size != math.prod(dims):
        raise ValidationError(
            "state-length", f"{vec.size} amplitudes for dims {dims} (need {math.prod(dims)})"
        )
    with _quiet():
        norm = float(np.linalg.norm(vec))
    dev = abs(norm - 1.0)
    # written so that a NaN norm fails too
    if not dev <= STATE_NORM_REPAIR:
        raise ValidationError("state-normalization", f"norm {norm!r} is too far from 1 to repair")
    if dev > STATE_NORM_ACCEPT:
        print(f"warning: state norm {norm!r} renormalized", file=sys.stderr)
    return PureState(dims, vec / norm)


def _builtin_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """``shape`` as the dims of a built-in state, whose amplitudes must fit the byte cap."""
    # a dim below 1 is left for the state to name
    _require_fits(16 * math.prod(max(d, 0) for d in shape), "state-size", f"a state of dims {shape}")
    return shape


def load_state(source: str, dims: Sequence[int] | None = None) -> PureState:
    """Load a state from a file path or a built-in name.

    Names: ``bell``, ``product0`` and ``random:<seed>``; the latter two take
    their shape from ``dims`` (default two qubits) and are size-checked
    before they are allocated. The Bell state and a file's state have their
    own dims, which ``dims``, if given, must equal.
    """
    shape = tuple(int(d) for d in dims) if dims else (2, 2)
    if source == "product0":
        return PureState.basis(_builtin_shape(shape), 0)
    if source.startswith("random:"):
        try:
            seed = int(source.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError("state-name", f"bad random state spec {source!r}") from exc
        if seed < 0:
            raise ValidationError("state-name", f"random state seeds must be >= 0, got {source!r}")
        return haar_state(_builtin_shape(shape), seed)
    psi = bell_phi_plus() if source == "bell" else state_from_obj(_read_json(source))
    if dims and shape != psi.dims:
        raise ValidationError("state-dims", f"dims {shape} given, but {source!r} has dims {psi.dims}")
    return psi


def measurement_set_from_obj(obj: Any, tol: float = DEFAULT_TOL) -> MeasurementSet:
    if not isinstance(obj, dict) or "dim" not in obj or "operators" not in obj:
        raise ValidationError("measurement-schema", "measurement files need 'dim' and 'operators'")
    dim = obj["dim"]
    if type(dim) is not int or not isinstance(obj["operators"], list):
        raise ValidationError(
            "measurement-schema", "measurement files need 'dim' as an integer and 'operators' as a list"
        )
    labels, raw, broken = [], [], None
    for entry in obj["operators"]:
        if not isinstance(entry, dict) or "label" not in entry or "matrix" not in entry:
            broken = ValidationError("measurement-schema", "each operator needs 'label' and 'matrix'")
            break
        try:
            labels.append(str(entry["label"]))
        except RecursionError:
            broken = ValidationError("measurement-labels", "a label is nested too deep to print")
            break
        raw.append(entry["matrix"])
    # the matrices before a broken entry are converted first, as the entries come: one of them
    # that is not pairs fails before the entry does
    matrices = pairs_to_matrices(raw)
    if broken is not None:
        raise broken
    with _quiet():
        mset = MeasurementSet(dim, tuple(labels), matrices)
        mset.assert_complete(tol)
    return mset


def load_measurement_set(source: str, dim: int | None = None, tol: float = DEFAULT_TOL) -> MeasurementSet:
    """Load a measurement set from a file path or a built-in family name.

    Families: ``z-projectors`` (dimension from context), ``noisy:<eta>``
    (qubit pair) and ``random:<outcomes>:<seed>``; the first and last are
    size-checked before they are allocated. A file's set must be complete
    within ``tol``.
    """
    d = dim or 2
    if source == "z-projectors":
        _require_fits(16 * d**3, "measurement-size", f"z-projectors on dim {d}")
        return z_projectors(d)
    if source.startswith("noisy:"):
        try:
            eta = float(source.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError("measurement-name", f"bad noisy spec {source!r}") from exc
        return noisy_pair(eta)
    if source.startswith("random:"):
        parts = source.split(":")
        if len(parts) != 3:
            raise ValidationError(
                "measurement-name", f"random sets are 'random:<outcomes>:<seed>', got {source!r}"
            )
        try:
            outcomes, seed = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError("measurement-name", f"bad random set spec {source!r}") from exc
        if seed < 0:
            raise ValidationError("measurement-name", f"random set seeds must be >= 0, got {source!r}")
        # its Gaussian block; a count below 1 is left for random_measurement_set to name
        n = max(outcomes, 0) * d
        _require_fits(16 * n * n, "measurement-size", f"the set {source!r} on dim {d}")
        return random_measurement_set(d, outcomes, seed)
    return measurement_set_from_obj(_read_json(source), tol)


def load_protocol(path: str) -> ProtocolSpec:
    """Load a protocol file (state, Alice's set, Bob's unitaries, verify pairs) as a stack of one.

    Alice's set must be complete within ``DEFAULT_TOL``, as ``ProtocolSpec`` demands.
    """
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ValidationError("protocol-schema", "protocol files must be JSON objects")
    for key in ("state", "alice", "bob_unitaries", "verify"):
        if key not in obj:
            raise ValidationError("protocol-schema", f"protocol files need {key!r}")
    if not isinstance(obj["bob_unitaries"], list) or not isinstance(obj["verify"], dict):
        raise ValidationError(
            "protocol-schema", "protocol files need 'bob_unitaries' as a list and 'verify' as an object"
        )
    state_obj = obj["state"]
    if isinstance(state_obj, str):
        state = load_state(state_obj)
    else:
        state = state_from_obj(state_obj)
    alice = measurement_set_from_obj(obj["alice"])
    verify_obj, n_unitaries = obj["verify"], len(obj["bob_unitaries"])
    raw, broken = list(obj["bob_unitaries"]), None
    for label in alice.labels:
        if label not in verify_obj:
            broken = ValidationError("protocol-verify", f"no verify pair for Alice label {label!r}")
            break
        entry = verify_obj[label]
        if not isinstance(entry, dict) or "success" not in entry or "failure" not in entry:
            broken = ValidationError(
                "protocol-verify", f"verify pair {label!r} needs 'success' and 'failure'"
            )
            break
        raw += (entry["success"], entry["failure"])
    # Bob's unitaries and, as in a set file, the verify pairs before a broken entry are converted
    # together before it is named
    matrices = pairs_to_matrices(raw)
    if broken is not None:
        raise broken
    unitaries, verify = tuple(matrices[:n_unitaries]), matrices[n_unitaries:]
    with _quiet():
        return single_protocol(state, alice, unitaries, tuple(zip(verify[::2], verify[1::2])))
