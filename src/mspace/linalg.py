"""Complex linear-algebra primitives shared by the rest of the package.

Conventions used everywhere:

* Composite indices are row-major with subsystem 0 as the most significant
  factor, i.e. ``index(i0, i1) = i0 * d1 + i1``. This matches ``numpy.kron``.
* Eigenvalues are returned in descending order and each eigenvector is
  rephased so that its largest-magnitude component is real and positive,
  which makes decompositions reproducible across runs and platforms.
* Random generation only happens through explicitly passed seeds.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from typing import Callable, Iterator, Sequence

import numpy as np

DEFAULT_TOL = 1e-10
NORM_TOL = 1e-10
# how far from Hermitian a matrix handed to eig_hermitian may be
HERMITIAN_TOL = 1e-8

# bytes of trial arrays a random run holds at once; one trial may exceed it
# and then forms a chunk of its own
CHUNK_BYTES = 1 << 22
# an input whose arrays would exceed this is rejected before anything is allocated
TRIAL_BYTES_CAP = 1 << 30

# numpy's SeedSequence hash constants, and PCG64's multiplier
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


class ValidationError(ValueError):
    """A value violates one of its declared invariants.

    ``invariant`` carries a short machine-readable name so callers (notably
    the CLI) can report exactly which check failed.
    """

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant


def _shown(k: int) -> str:
    """``k`` in decimal, or a bound on it when it has more digits than an int prints."""
    try:
        return str(k)
    except ValueError:
        return f"{'at most -' if k < 0 else 'at least '}10^{sys.get_int_max_str_digits()}"


def _require_fits(size: int, invariant: str, what: str) -> int:
    """``size``, unless ``what`` needs more than :data:`TRIAL_BYTES_CAP` bytes; then fail as ``invariant``."""
    if size > TRIAL_BYTES_CAP:
        raise ValidationError(invariant, f"{what} needs {size} bytes, over the cap of {TRIAL_BYTES_CAP}")
    return size


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True for a Hermitian matrix, or a ``(..., d, d)`` stack of them, within ``tol``."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        return False
    return float(np.maximum.reduce(np.abs(a - a.conj().swapaxes(-1, -2)), axis=None)) <= tol


def _require(
    ok: np.ndarray,
    invariant: str,
    describe: Callable[[tuple[int, ...]], str],
    trials: Sequence[int] | None = None,
) -> None:
    """Fail as ``invariant`` at the first false entry of the boolean array ``ok``.

    ``describe`` turns the index of that entry into the message. With
    ``trials``, axis 0 of ``ok`` runs over those trials and the message names
    the trial. Write ``ok`` as ``x <= tol`` so that a NaN fails. A check that
    passes returns before any index is looked up. Here and on every command's
    path the package calls numpy's ufuncs and C methods (``np.logical_and.reduce``
    in place of ``ndarray.all``) directly, not their Python-level wrappers.
    """
    if np.logical_and.reduce(ok, axis=None):
        return
    idx = tuple(int(i) for i in np.argwhere(np.logical_not(ok))[0])
    where = "" if trials is None else f"trial {trials[idx[0]]}: "
    raise ValidationError(invariant, where + describe(idx))


def _require_unit(
    total: np.ndarray, tol: float, invariant: str, what: str, trials: Sequence[int] | None = None
) -> None:
    """Fail as ``invariant`` unless every entry of ``total`` is 1 within ``tol``."""
    total = np.asarray(total)
    _require(abs(total - 1.0) <= tol, invariant, lambda i: f"{what} {float(total[i])!r}, expected 1", trials)


def _vector_norm(vec: np.ndarray) -> np.floating:
    """The Euclidean norm of a complex vector by ``np.linalg.norm``'s own formula, so the same bits."""
    return np.sqrt(vec.real.dot(vec.real) + vec.imag.dot(vec.imag))


def _row_norms(z: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each rounded as ``np.linalg.norm`` of its row."""
    re, im = z.real[..., None, :], z.imag[..., None, :]
    # one dot product per row, as np.linalg.norm takes it; a summed reduction rounds differently
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it."""
    a.flags.writeable = False
    return a


def operator_stack(
    ops: Sequence, shape: tuple[int, ...], invariant: str, describe: Callable[[int], str]
) -> np.ndarray:
    """A read-only complex copy of ``ops`` as one ``(len(ops), *shape)`` array.

    The first entry ``k`` of another shape, a ragged one included, fails as
    ``invariant`` with the message ``describe(k)``. An ``(n, *shape)`` array
    passes whole, with no per-operator ``np.shape`` call.
    """
    if not (isinstance(ops, np.ndarray) and ops.shape[1:] == shape):
        for k, op in enumerate(ops):
            try:
                ok = np.shape(op) == shape
            except ValueError:  # numpy rejects ragged nesting
                ok = False
            if not ok:
                raise ValidationError(invariant, describe(k))
    return frozen(np.array(ops, dtype=complex))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product under the row-major index convention, of two matrices or of
    two stacks of them whose leading axes broadcast."""
    a, b = np.asarray(a), np.asarray(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def _check_dims(dims: tuple[int, ...]) -> None:
    """Subsystem dimensions must be given and be >= 1."""
    if not dims or any(d < 1 for d in dims):
        raise ValidationError("state-dims", f"subsystem dimensions must be >= 1, got {dims}")


@dataclasses.dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over an ordered list of subsystems.

    ``dims`` lists the subsystem dimensions; the amplitude vector has length
    ``prod(dims)`` and unit Euclidean norm within ``1e-10``.
    """

    dims: tuple[int, ...]
    vector: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        vec = np.asarray(self.vector, dtype=complex).reshape(-1)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "vector", vec)
        _check_dims(dims)
        if vec.size != math.prod(dims):
            raise ValidationError(
                "state-length",
                f"amplitude vector has length {vec.size}, expected {math.prod(dims)}",
            )
        _require_unit(_vector_norm(vec), NORM_TOL, "state-normalization", "norm is")

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def reshaped(self) -> np.ndarray:
        """Amplitudes as a tensor with one axis per subsystem."""
        return self.vector.reshape(self.dims)

    @classmethod
    def basis(cls, dims: Sequence[int], index: int) -> "PureState":
        dims = tuple(int(d) for d in dims)
        _check_dims(dims)
        vec = np.zeros(math.prod(dims), dtype=complex)
        vec[index] = 1.0
        return cls(dims, vec)


@functools.cache
def bell_phi_plus() -> PureState:
    """The two-qubit state (|00> + |11>) / sqrt(2): one read-only state per process, built and
    checked on first use."""
    psi = PureState((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
    frozen(psi.vector)
    return psi


@dataclasses.dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over subsystems.

    ``matrix`` is one ``(d, d)`` matrix or a ``(..., d, d)`` stack of them
    over ``dims``; a failed check in a stack names the first bad matrix.
    ``eigh`` holds ``np.linalg.eigh(matrix)``, the ascending eigenvalues and
    the eigenvectors the positivity check reads, for kernels that need them.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray
    eigh: tuple[np.ndarray, np.ndarray] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)
        d = math.prod(dims)
        if mat.shape[-2:] != (d, d):
            raise ValidationError("density-shape", f"matrix shape {mat.shape}, expected {(d, d)}")
        skew = np.maximum.reduce(np.abs(mat - mat.conj().swapaxes(-1, -2)), axis=(-2, -1))
        tr = mat.trace(axis1=-2, axis2=-1)
        object.__setattr__(self, "eigh", np.linalg.eigh(mat))
        lo = np.minimum.reduce(self.eigh[0], axis=-1)
        checks = (
            (skew <= DEFAULT_TOL, "density-hermitian", lambda i: "matrix is not Hermitian within 1e-10"),
            (abs(tr - 1.0) <= DEFAULT_TOL, "density-trace",
             lambda i: f"trace is {complex(tr[i])!r}, expected 1"),
            (lo >= -DEFAULT_TOL, "density-positivity",
             lambda i: f"smallest eigenvalue {float(lo[i])!r} < -1e-10"),
        )  # fmt: skip
        for ok, invariant, describe in checks:
            # in a stack, the message names the first bad matrix
            _require(ok, invariant, lambda i: (f"matrix {i}: " if i else "") + describe(i))


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or a ``(..., d, d)`` stack of them.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues descending and
    eigenvectors as orthonormal columns, each rephased so its
    largest-magnitude component is real and positive. A stack gives
    eigenvalues ``(..., d)`` and eigenvectors ``(..., d, d)``, matrix by
    matrix the same as single calls.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, HERMITIAN_TOL):
        raise ValidationError("hermitian", f"matrix is not Hermitian within {HERMITIAN_TOL!r}")
    w, v = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2.0)
    w = w[..., ::-1].copy()
    v = v[..., ::-1]
    rows = np.abs(v).argmax(axis=-2)
    # pivot[..., c] = v[..., rows[..., c], c], one gather from the columns laid end to end, d apart
    d = v.shape[-1]
    pivot = v.swapaxes(-1, -2).take(np.arange(0, rows.size * d, d).reshape(rows.shape) + rows)[..., None, :]
    # the columns have unit norm, so no pivot is zero; hypot rounds like the
    # scalar abs(), which the vectorized np.abs of a complex array does not
    return w, v * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def reduced_spectrum(amplitudes: np.ndarray) -> np.ndarray:
    """Squared Schmidt coefficients of a ``(d_a, d_b)`` amplitude matrix ``A``, or of each in a
    stack: the eigenvalues, ascending and clipped at 0, of the smaller side's reduced state,
    ``A A^†``, or ``A^† A`` when ``d_a > d_b``. A stack gives each matrix the bits of its own call.
    """
    a = np.asarray(amplitudes, dtype=complex)
    ah = a.conj().swapaxes(-1, -2)
    rho = ah @ a if a.shape[-2] > a.shape[-1] else a @ ah
    return np.maximum(np.linalg.eigvalsh(rho), 0.0)


@functools.cache
def fourier_matrix(n: int) -> np.ndarray:
    """Unitary with entries exp(2*pi*i*j*k/n) / sqrt(n), indices from 0, read-only and built
    once per ``n``."""
    if n < 1:
        raise ValidationError("fourier-size", f"n must be >= 1, got {n}")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return frozen(np.exp(2.0j * np.pi * j * k / n) / np.sqrt(n))


def haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a ``(..., 2, n, n)`` stack of standard normals.

    ``g[..., 0, :, :]`` and ``g[..., 1, :, :]`` are the real and imaginary
    parts of a complex Gaussian matrix. Each gets a QR decomposition, with
    column phases fixed so that the triangular factor has a positive
    diagonal; the result is ``(..., n, n)``. A ``(..., 2, n, k)`` stack with
    ``k <= n`` gives the first ``k`` columns of those unitaries, since
    Householder QR forms them from the first ``k`` columns of ``g`` alone.
    """
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = r.diagonal(0, -2, -1)
    return q * (d / np.abs(d))[..., None, :]


def haar_blocks(g: np.ndarray, d: int) -> np.ndarray:
    """Complete ``(..., n, d, d)`` sets from a ``(..., 2, n d, n d)`` stack of standard normals:
    each is the first block column of a Haar unitary, cut into blocks."""
    u = haar_unitaries(g[..., :d])
    return u.reshape(*u.shape[:-2], -1, d, d)


def haar_vectors(g: np.ndarray) -> np.ndarray:
    """Unit vectors from a ``(..., 2, n)`` stack of standard normals (real, imaginary parts)."""
    z = g[..., 0, :] + 1j * g[..., 1, :]
    return z / _row_norms(z)[..., None]


def haar_state(dims: Sequence[int], seed: int | np.random.Generator) -> PureState:
    """Haar-random pure state: normalized vector of iid complex Gaussians."""
    dims = tuple(int(d) for d in dims)
    _check_dims(dims)
    return PureState(dims, haar_vectors(np.random.default_rng(seed).standard_normal((2, math.prod(dims)))))


def _running_multipliers(init: int, mult: int, n: int) -> np.ndarray:
    """``init``, then ``n`` successive products with ``mult`` modulo 2**32, as a uint32 column."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _pcg64_states(seed: int, chunk: range) -> list[tuple[int, int]]:
    """PCG64's ``(state, inc)`` in ``default_rng((seed, t))`` for each trial ``t`` of ``chunk``.

    One stacked uint32 pass over the chunk runs numpy's SeedSequence hash on
    the entropy words ``seed words + [t]`` (a pool of 4 words, then
    ``generate_state(4, uint64)``); PCG64's ``srandom`` then turns each
    trial's four words into its state. The hash's running multipliers do not
    depend on the words, so the hashes of one source word into the other
    pool words run as one array step.
    """
    if seed < 0 or chunk.stop > 1 << 32:
        raise ValueError(f"need a seed >= 0 and trials below 2**32, got {seed} and {chunk}")
    words = []  # the seed's 32-bit words, least significant first
    while not words or seed:
        words.append(seed & _MASK32)
        seed >>= 32
    # one row per entropy word, then zero rows up to the pool size
    entropy = np.zeros((max(len(words) + 1, _POOL_SIZE), len(chunk)), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = chunk
    mults = _running_multipliers(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    calls = 0

    def hashmix(value: np.ndarray, n: int) -> np.ndarray:
        """The next ``n`` hashes, one per row of the result."""
        nonlocal calls
        value = (value ^ mults[calls : calls + n]) * mults[calls + 1 : calls + n + 1]
        calls += n
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return value ^ (value >> 16)

    pool = hashmix(entropy[:_POOL_SIZE], _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL_SIZE - 1))
    for word in entropy[_POOL_SIZE:]:
        pool = mix(pool, hashmix(word, _POOL_SIZE))
    mults = _running_multipliers(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    out = (np.concatenate([pool, pool]) ^ mults[:-1]) * mults[1:]
    out = (out ^ (out >> 16)).astype(np.uint64)
    # little-endian word pairs: the uint64 words v0..v3, as Python ints per trial
    v0, v1, v2, v3 = (out[1::2] << np.uint64(32) | out[0::2]).tolist()
    states = []
    for high, low, inc_high, inc_low in zip(v0, v1, v2, v3):
        inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        # srandom: from state 0 a step gives inc; add the initial state, step again
        states.append((((inc + (high << 64 | low)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def seeded_chunks(
    seed: int, trials: int, trial_bytes: int
) -> Iterator[tuple[range, Iterator[np.random.Generator]]]:
    """Trials ``0..trials-1`` of ``trial_bytes`` each, as (range, generators) chunks that fit
    :data:`CHUNK_BYTES`. Trial ``t`` draws what ``default_rng((seed, t))`` draws, so its draws
    depend neither on ``trials`` nor on the chunking.

    A chunk's generators are one generator whose state is set per trial, so
    they come as a one-pass iterator: draw all of a trial's numbers before
    taking the next trial's generator.
    """
    step = max(1, CHUNK_BYTES // trial_bytes)
    rng = np.random.Generator(np.random.PCG64(0))

    def reseeded(states: list[tuple[int, int]]) -> Iterator[np.random.Generator]:
        for state, inc in states:
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng

    for start in range(0, trials, step):
        chunk = range(start, min(start + step, trials))
        yield chunk, reseeded(_pcg64_states(seed, chunk))
