"""Generalized measurement sets and the map into measurement space.

A measurement set is an ordered list of labeled operators ``M_m`` acting on
one Hilbert space, complete in the sense ``sum_m M_m^dag M_m = 1``. The
measurement-space image of a state is the vector of square roots of the
outcome probabilities, one orthonormal axis per outcome. For a pair of local
sets the joint outcome grid is recorded so the image can be read as a
bipartite state.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    PureState,
    ValidationError,
    _as_rng,
    _require,
    _require_fits,
    _require_unit,
    _row_norms,
    haar_blocks,
    operator_stack,
    tensor,
)

PROBABILITY_FLOOR = -1e-12


@dataclasses.dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Ordered, labeled measurement operators on a single space.

    ``labels[m]`` names ``stack[m]``, the read-only ``(n, dim, dim)`` copy of
    the operators. Structural invariants (shapes, label count, unique labels
    free of tabs, line breaks and lone surrogates) are enforced at
    construction. Completeness is checked by the operations that rely on it,
    so that an incomplete set can still be built and inspected with
    :meth:`completeness_deviation`. A set equals only itself.
    """

    dim: int
    labels: tuple[str, ...]
    stack: np.ndarray = dataclasses.field(repr=False)

    def __post_init__(self):
        dim = int(self.dim)
        labels = tuple(str(label) for label in self.labels)
        ops = self.stack
        if dim < 1:
            raise ValidationError("measurement-dim", f"dimension must be >= 1, got {dim}")
        if not len(ops):
            raise ValidationError("measurement-empty", "a measurement set needs >= 1 operator")
        if len(labels) != len(ops):
            raise ValidationError("measurement-shape", f"{len(labels)} labels for {len(ops)} operators")

        def misshaped(k: int) -> str:
            try:
                found = f"has shape {np.shape(ops[k])}"
            except ValueError:  # ragged nesting has no shape
                found = "is ragged"
            return f"operator {labels[k]!r} {found}, expected {(dim, dim)}"

        stack = operator_stack(ops, (dim, dim), "measurement-shape", misshaped)
        if len(set(labels)) != len(labels):
            raise ValidationError("measurement-labels", f"labels are not unique: {list(labels)}")
        # a label is printed raw in a TSV cell, so it must not split the row
        split = next((label for label in labels if any(c in label for c in "\t\n\r")), None)
        if split is not None:
            raise ValidationError("measurement-labels", f"label {split!r} holds a tab or a line break")
        # nor hold a lone surrogate (a JSON file may escape one), which has no UTF-8 to print
        lone = next((s for s in labels if not s.isascii() and any("\ud800" <= c <= "\udfff" for c in s)), None)
        if lone is not None:
            raise ValidationError("measurement-labels", f"label {lone!r} holds a lone surrogate")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "stack", stack)

    def __len__(self) -> int:
        return len(self.labels)

    def completeness_deviation(self) -> float:
        """Max-norm of sum_m M_m^dag M_m - 1."""
        return float(_identity_deviation(_gram(self.stack)))

    def assert_complete(self, tol: float = DEFAULT_TOL) -> None:
        _require_complete(self.completeness_deviation(), tol)


def _rows(stack: np.ndarray) -> np.ndarray:
    """An ``(..., n, d, d)`` operator stack as ``(..., n d, d)`` block columns."""
    return stack.reshape(*stack.shape[:-3], -1, stack.shape[-1])


def _gram(stack: np.ndarray) -> np.ndarray:
    """sum_m M_m^dag M_m over the operator axis, one product per stacked block column."""
    rows = _rows(stack)
    return rows.conj().swapaxes(-1, -2) @ rows


def _deviation_parts(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max |G - 1| of a Gram matrix, or of each in a stack, with the diagonal and the largest
    off-diagonal ``|g_ik|`` it is taken from: the same bits as ``|G - 1|``'s maximum, since a
    maximum picks one of its entries and ``|g_ik|`` is ``|g_ik - 0|``."""
    n = g.shape[-1]
    diag = g.diagonal(0, -2, -1)
    # the diagonal is zeroed in place for the off-diagonal maximum; its |g_ii - 1| comes from diag
    gap = np.abs(g).reshape(*g.shape[:-2], n * n)
    gap[..., :: n + 1] = 0.0
    off = gap.max(axis=-1)
    return np.maximum(np.abs(diag - 1).max(axis=-1), off), diag, off


def _identity_deviation(gram: np.ndarray) -> np.ndarray:
    """max |G - 1| of a Gram matrix, or of each matrix in a stack of them."""
    return _deviation_parts(gram)[0]


def _require_complete(dev: np.ndarray, tol: float, trials=None) -> None:
    dev = np.asarray(dev)
    _require(
        dev <= tol,
        "completeness",
        lambda i: f"completeness deviation {float(dev[i])!r} exceeds tolerance {tol!r}",
        trials,
    )


@dataclasses.dataclass(frozen=True)
class LocalMeasurementSet:
    """A pair of measurement sets, one for each party of a bipartite system.

    The joint outcome set is the Cartesian product, labeled ``(m_A,m_B)`` and
    ordered row-major with Alice's outcome as the most significant index.
    """

    alice: MeasurementSet
    bob: MeasurementSet

    @property
    def structure(self) -> tuple[int, int]:
        return (len(self.alice), len(self.bob))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"({la},{lb})" for la in self.alice.labels for lb in self.bob.labels)

    @property
    def stacks(self) -> tuple[np.ndarray, np.ndarray]:
        return self.alice.stack, self.bob.stack

    def joint(self) -> MeasurementSet:
        """The explicit product set {A_a (x) B_b}, as a reference.

        It holds n_a n_b operators of size (d_a d_b)^2; the map never builds
        it, and uses :func:`local_product` instead.
        """
        dim = self.alice.dim * self.bob.dim
        ops = tensor(self.alice.stack[:, None], self.bob.stack[None, :])
        return MeasurementSet(dim, self.labels, ops.reshape(-1, dim, dim))


@dataclasses.dataclass(frozen=True)
class MeasurementSpaceState:
    """Image of a state in measurement space.

    Amplitudes are the nonnegative square roots of the outcome probabilities,
    one vector entry per outcome in the measurement set's order; the set, not
    the image, names the outcomes. ``structure`` is present when the outcomes
    form an (Alice x Bob) grid.
    """

    amplitudes: np.ndarray
    structure: tuple[int, int] | None = None

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1:
            raise ValidationError("mspace-shape", f"amplitudes of shape {amps.shape} do not form one vector")
        if (amps < 0).any():
            raise ValidationError("mspace-nonnegative", "amplitudes must be >= 0")
        _require_unit((amps**2).sum(), DEFAULT_TOL, "mspace-normalization", "squared amplitudes sum to")
        if self.structure is not None:
            na, nb = (int(x) for x in self.structure)
            object.__setattr__(self, "structure", (na, nb))
            # a grid of negative sides may still multiply out to the outcome count
            if min(na, nb) < 1 or na * nb != amps.size:
                raise ValidationError(
                    "mspace-structure",
                    f"structure {na}x{nb} does not match {amps.size} outcomes",
                )

    def probabilities(self) -> np.ndarray:
        return self.amplitudes**2


def local_product(psi: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """T[a, b] = A_a Psi B_b^T for every pair of local operators.

    ``psi`` is the state as a ``(d_a, d_b)`` amplitude matrix and ``alice``,
    ``bob`` are operator stacks of shapes ``(n_a, d_a, d_a)`` and
    ``(n_b, d_b, d_b)``. ``T[a, b]`` is the amplitude matrix of
    ``(A_a (x) B_b) psi``, so ``||T[a, b]||_F^2`` is the probability of the
    joint outcome ``(a, b)``. Two matrix products over the stacked block
    columns give all ``n_a n_b`` products at once; the result is an
    ``(n_a, n_b, d_a, d_b)`` view. Leading axes of the three inputs
    broadcast, giving ``(..., n_a, n_b, d_a, d_b)``.
    """
    n_a, d_a = alice.shape[-3:-1]
    n_b, d_b = bob.shape[-3:-1]
    t = _rows(alice) @ psi @ _rows(bob).swapaxes(-1, -2)
    return t.reshape(*t.shape[:-2], n_a, d_a, n_b, d_b).swapaxes(-3, -2)


# The probability helpers below take an optional ``trials``: the first axis
# of their arrays then runs over those trials, and a failure names the trial.


def _local_probabilities(t: np.ndarray, trials=None) -> np.ndarray:
    """p[..., a, b] = ||T[..., a, b]||_F^2 of a :func:`local_product` ``T``, checked against
    the -1e-12 floor and clamped to [0, 1]."""
    raw = (t.real**2 + t.imag**2).sum(axis=(-2, -1))
    _require(
        raw >= PROBABILITY_FLOOR,
        "probability-floor",
        lambda i: f"outcome probability {float(raw[i])!r} < -1e-12",
        trials,
    )
    return raw.clip(0.0, 1.0)


def _require_pair_fits(dims: tuple[int, ...], alice: np.ndarray, bob: np.ndarray) -> None:
    """The pair check's shapes for ``(..., n, d, d)`` stacks: the state's ``dims`` must be ``(d_a, d_b)``,
    and one pair's product tensor, its largest array at ``n d_a d_b`` entries, must fit the byte cap."""
    if dims != (alice.shape[-1], bob.shape[-1]):
        raise ValidationError(
            "dimension-match",
            f"state dims {dims} != measurement dims ({alice.shape[-1]}, {bob.shape[-1]})",
        )
    n = alice.shape[-3] * bob.shape[-3]
    what = f"a local pair of {n} outcomes on dims {dims}"
    _require_fits(16 * n * dims[0] * dims[1], "measurement-size", what)


def _pair_deviations(ga: np.ndarray, gb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_identity_deviation` of a pair's Gram matrices ``G_A``, ``G_B`` and of their
    Kronecker product, the joint set's; the last is worked out from the two factors alone.

    An entry of ``G_A (x) G_B - 1`` is ``a_ii b_jj - 1`` on the diagonal, ``a_ii b_jl`` off Bob's
    diagonal only, and ``a_ik b_jl`` off Alice's. Its largest magnitude is therefore the largest
    of ``|a_ii b_jj - 1|``, ``max_i |a_ii| off(G_B)`` and ``off(G_A) max |G_B|``, where ``off(G)``
    is the largest off-diagonal ``|g_ik|``: no ``(d_a d_b)^2`` array is built. Leading axes
    broadcast, giving one deviation of each kind per pair. Each maximum runs over a flattened last
    axis; a maximum picks one of its entries, so the order of the passes leaves every bit as it is.
    """
    (dev_a, diag_a, off_a), (dev_b, diag_b, off_b) = _deviation_parts(ga), _deviation_parts(gb)
    # the same complex products as the Kronecker product's diagonal, so the same bits
    products = diag_a[..., :, None] * diag_b[..., None, :]
    on_diagonal = np.abs(products.reshape(*products.shape[:-2], -1) - 1).max(axis=-1)
    peak_b = np.maximum(np.abs(diag_b).max(axis=-1), off_b)
    off_diagonal = np.maximum(np.abs(diag_a).max(axis=-1) * off_b, off_a * peak_b)
    return dev_a, dev_b, np.maximum(on_diagonal, off_diagonal)


def _local_image(t: np.ndarray, completeness_tol: float, trials=None) -> np.ndarray:
    """The ``(..., n_a n_b)`` image amplitudes of a :func:`local_product` ``t``.

    The :func:`_local_probabilities` of each distribution must sum to 1
    within ``max(1e-10, completeness_tol * dim)``; their square roots are
    scaled to a unit vector, which is checked.
    """
    probs = _local_probabilities(t, trials)
    probs = probs.reshape(*probs.shape[:-2], -1)
    dim = t.shape[-2] * t.shape[-1]
    # a completeness deviation of eps can push the sum off by up to dim * eps
    sum_tol = max(DEFAULT_TOL, completeness_tol * dim)
    _require_unit(probs.sum(axis=-1), sum_tol, "probability-normalization", "probabilities sum to", trials)
    amps = np.sqrt(probs)
    # when the completeness tolerance is loosened the raw probabilities may
    # miss unit sum by up to that amount; the image itself stays a unit vector
    amps /= _row_norms(amps)[..., None]
    total = (amps**2).sum(axis=-1)
    _require_unit(total, DEFAULT_TOL, "mspace-normalization", "squared amplitudes sum to", trials)
    return amps


def _checked_image(
    dims: tuple, psi: np.ndarray, alice: np.ndarray, bob: np.ndarray, completeness_tol: float, trials=None
) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`local_product` ``t`` of a state's amplitude matrix ``psi`` and a local pair's stacks,
    and its :func:`_local_image`, after the one check of a pair.

    The state's ``dims`` and the stacks pass :func:`_require_pair_fits`
    before anything is built. Each Gram matrix and their Kronecker product,
    the joint set's, must be 1 within ``completeness_tol``
    (:func:`_pair_deviations`). With ``trials``, the arrays carry a leading
    axis of trials, checked at once, and a failure names the trial.
    """
    _require_pair_fits(dims, alice, bob)
    dev_a, dev_b, joint = _pair_deviations(_gram(alice), _gram(bob))
    _require_complete(np.maximum(np.maximum(dev_a, dev_b), joint), completeness_tol, trials)
    t = local_product(psi, alice, bob)
    return t, _local_image(t, completeness_tol, trials)


def map_to_measurement_space(
    psi: PureState,
    measurements: MeasurementSet | LocalMeasurementSet,
    completeness_tol: float = DEFAULT_TOL,
) -> MeasurementSpaceState:
    """Map a pure state to the vector of square-root outcome probabilities.

    With a :class:`LocalMeasurementSet` the state must have dims
    ``(alice.dim, bob.dim)``; the outcomes are the row-major (Alice x Bob)
    grid, whose structure is attached to the result. A
    :class:`MeasurementSet` on the whole space maps as the one-party case of
    a pair: the set is Alice's, the state a ``(D, 1)`` amplitude matrix and
    Bob's set the single ``1x1`` identity; no structure is attached. Either
    way the probabilities are ``||M_m psi||^2``, each clamped to [0, 1] after
    a -1e-12 floor check, and they must sum to 1 within
    ``max(1e-10, completeness_tol * dim)``, the most a set complete within
    ``completeness_tol`` can move the sum.
    """
    if isinstance(measurements, LocalMeasurementSet):
        pair, structure = (psi.dims, psi.reshaped(), *measurements.stacks), measurements.structure
    else:
        if psi.dim != measurements.dim:
            raise ValidationError(
                "dimension-match",
                f"state dimension {psi.dim} != measurement dimension {measurements.dim}",
            )
        pair, structure = ((psi.dim, 1), psi.vector[:, None], measurements.stack, np.ones((1, 1, 1))), None
    return MeasurementSpaceState(_checked_image(*pair, completeness_tol)[1], structure)


def local_images(
    psi: PureState, alice: np.ndarray, bob: np.ndarray, completeness_tol: float = DEFAULT_TOL
) -> np.ndarray:
    """The local map of ``psi`` under each pair of a stack, as ``(s, n_a n_b)`` amplitudes.

    ``alice`` and ``bob`` are ``(s, n, d, d)`` operator stacks; row ``k`` is
    the amplitudes :func:`map_to_measurement_space` gives for the pair of
    sets ``alice[k]``, ``bob[k]``, checked the same way, and a failure names
    the pair as trial ``k``.
    """
    return _checked_image(psi.dims, psi.reshaped(), alice, bob, completeness_tol, range(len(alice)))[1]


def random_measurement_set(dim: int, n_outcomes: int, seed: int | np.random.Generator) -> MeasurementSet:
    """Random complete measurement set with ``n_outcomes`` operators.

    Its operators are the :func:`~mspace.linalg.haar_blocks` of one Gaussian
    draw, so the set is complete up to floating-point error by construction.
    """
    if n_outcomes < 1:
        raise ValidationError("measurement-outcomes", "need at least one outcome")
    n = n_outcomes * dim
    ops = haar_blocks(_as_rng(seed).standard_normal((2, n, n)), dim)
    return MeasurementSet(dim, tuple(map(str, range(n_outcomes))), ops)


def z_projectors(dim: int = 2) -> MeasurementSet:
    """Rank-1 projectors onto the computational basis."""
    eye = np.eye(max(dim, 0))
    return MeasurementSet(dim, tuple(map(str, range(dim))), eye[:, :, None] * eye[:, None, :])


def noisy_operators(etas: np.ndarray) -> np.ndarray:
    """The ``(s, 2, 2, 2)`` stack of :func:`noisy_pair` operators, one pair per efficiency.

    The first ``eta`` outside [0, 1], NaN included, fails as ``noisy-eta``.
    """
    etas = np.asarray(etas, dtype=float)
    _require(
        (0.0 <= etas) & (etas <= 1.0),
        "noisy-eta",
        lambda i: f"eta must lie in [0, 1], got {float(etas[i])!r}",
    )
    root, rest = np.sqrt(etas), np.sqrt(1.0 - etas)
    ops = np.zeros((len(etas), 2, 4), dtype=complex)  # each 2x2 operator flattened row-major
    ops[:, 0, 0] = ops[:, 1, 3] = root
    ops[:, 0, 3] = ops[:, 1, 0] = rest
    return ops.reshape(-1, 2, 2, 2)


def noisy_pair(eta: float) -> MeasurementSet:
    """Two-outcome qubit measurement with detector efficiency ``eta``.

    At eta = 1 this is the pair of computational-basis projectors; at
    eta = 1/2 both outcomes carry no information about the state.
    """
    return MeasurementSet(2, ("0", "1"), noisy_operators([eta])[0])
