"""Core linear-algebra primitives, checked against naive index-level oracles."""

import numpy as np
import pytest
from conftest import density_of

from mspace.entanglement import pure_entanglement
from mspace.linalg import (
    DensityMatrix,
    PureState,
    ValidationError,
    _require,
    bell_phi_plus,
    eig_hermitian,
    fourier_matrix,
    haar_blocks,
    haar_state,
    haar_unitaries,
    haar_vectors,
    is_hermitian,
    reduced_spectrum,
    seeded_chunks,
    tensor,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def is_unitary(u, tol=1e-12):
    """U^dag U = 1 entrywise within ``tol``."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(len(u))))) <= tol


def amplitudes(psi):
    """The amplitude matrix of ``psi``, first subsystem against the rest."""
    return psi.vector.reshape(psi.dims[0], -1)


def kron_oracle(a, b):
    """Kronecker product by direct per-index evaluation."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for ia in range(ra):
        for ib in range(rb):
            for ja in range(ca):
                for jb in range(cb):
                    out[ia * rb + ib, ja * cb + jb] = a[ia, ja] * b[ib, jb]
    return out


def ptrace_oracle(mat, dims, keep):
    """Partial trace by explicit summation over multi-indices."""
    keep = sorted(keep)
    kept_dims = [dims[i] for i in keep]
    traced = [i for i in range(len(dims)) if i not in keep]
    dk = int(np.prod(kept_dims))
    out = np.zeros((dk, dk), dtype=complex)
    full = mat.reshape(tuple(dims) * 2)
    for row in np.ndindex(*kept_dims):
        for col in np.ndindex(*kept_dims):
            total = 0.0 + 0.0j
            for tr in np.ndindex(*[dims[i] for i in traced]):
                idx_row = [0] * len(dims)
                idx_col = [0] * len(dims)
                for pos, i in enumerate(keep):
                    idx_row[i] = row[pos]
                    idx_col[i] = col[pos]
                for pos, i in enumerate(traced):
                    idx_row[i] = tr[pos]
                    idx_col[i] = tr[pos]
                total += full[tuple(idx_row) + tuple(idx_col)]
            r = int(np.ravel_multi_index(row, kept_dims)) if len(kept_dims) > 1 else row[0]
            c = int(np.ravel_multi_index(col, kept_dims)) if len(kept_dims) > 1 else col[0]
            out[r, c] = total
    return out


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_bookkeeping(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        out = tensor(p0, p1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        assert np.array_equal(out, expected)

    def test_matches_per_index_oracle_and_factorizes(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(tensor(a, b), kron_oracle(a, b), atol=1e-14)
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = tensor(a, b) @ np.kron(u, v)
        rhs = np.kron(a @ u, b @ v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        # integer entries: index bookkeeping must agree exactly
        ints = [rng.integers(-3, 4, size=(d, d)).astype(complex) for d in (2, 3, 2)]
        a, b, c = ints
        assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))
        # float entries: equal up to multiplication reordering
        mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (2, 3, 2)]
        a, b, c = mats
        np.testing.assert_allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=1e-14)


    def test_leading_axes_broadcast_to_np_kron_bits(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            m, n, p, q = (int(x) for x in rng.integers(1, 5, size=4))
            a = rng.standard_normal((3, 1, m, n)) + 1j * rng.standard_normal((3, 1, m, n))
            b = rng.standard_normal((2, p, q)) + 1j * rng.standard_normal((2, p, q))
            out = tensor(a, b)
            assert out.shape == (3, 2, m * p, n * q)
            for i in range(3):
                for j in range(2):
                    assert np.array_equal(out[i, j], np.kron(a[i, 0], b[j]))


class TestEigHermitian:
    def test_diagonal(self):
        w, v = eig_hermitian(np.diag([0.3, 0.7]).astype(complex))
        np.testing.assert_allclose(w, [0.7, 0.3], atol=1e-14)
        np.testing.assert_allclose(np.abs(v[:, 0]), [0, 1], atol=1e-14)
        np.testing.assert_allclose(np.abs(v[:, 1]), [1, 0], atol=1e-14)

    def test_pauli_x(self):
        w, v = eig_hermitian(PAULI_X)
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(v[:, 0], np.array([1, 1]) / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(v[:, 1], np.array([1, -1]) / np.sqrt(2), atol=1e-12)

    @pytest.mark.parametrize("dim", [4, 8, 32])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(dim)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (z + z.conj().T) / 2
        w, v = eig_hermitian(h)
        assert np.all(np.diff(w) <= 1e-12)
        np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-9)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)

    def test_phase_convention(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        _, v = eig_hermitian((z + z.conj().T) / 2)
        for j in range(5):
            pivot = v[np.argmax(np.abs(v[:, j])), j]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSchmidt:
    """The squared Schmidt coefficients, as the spectrum of the smaller side's reduced state."""

    def test_bell(self):
        p = reduced_spectrum(amplitudes(bell_phi_plus()))
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)

    def test_product(self):
        rng = np.random.default_rng(2)
        u = haar_state((2,), rng).vector
        v = haar_state((2,), rng).vector
        psi = PureState((2, 2), np.kron(u, v))
        p = reduced_spectrum(amplitudes(psi))
        np.testing.assert_allclose(p, [0.0, 1.0], atol=1e-10)
        assert (p >= 0.0).all()

    def test_correlated_example_vs_reduced_eigenvalues(self):
        amps = np.sqrt([0.41, 0.09, 0.09, 0.41]).astype(complex)
        psi = PureState((2, 2), amps)
        p = reduced_spectrum(amplitudes(psi))
        # independent oracle: eigenvalues of the reduced density matrix by explicit partial trace
        rho_a = ptrace_oracle(density_of(psi).matrix, (2, 2), {0})
        np.testing.assert_allclose(p, np.sort(np.linalg.eigvalsh(rho_a)), atol=1e-9)
        # frozen from the oracle: 0.5 +- 2 sqrt(0.41 * 0.09)
        np.testing.assert_allclose(p, [0.1158125457540291, 0.8841874542459709], atol=1e-12)

    def test_noncontiguous_split(self):
        rng = np.random.default_rng(13)
        psi = haar_state((2, 3, 2), rng)
        p = reduced_spectrum(amplitudes(psi))
        assert p.shape == (2,)
        assert abs(np.sum(p) - 1.0) < 1e-10
        rho_a = ptrace_oracle(density_of(psi).matrix, (2, 3, 2), {0})
        np.testing.assert_allclose(p, np.sort(np.linalg.eigvalsh(rho_a)), atol=1e-9)

    def test_stack_equals_single_calls_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for dims in ((3, 5), (5, 3)):
            stack = np.stack([amplitudes(haar_state(dims, rng)) for _ in range(7)])
            p = reduced_spectrum(stack)
            assert p.shape == (7, 3)
            for k, matrix in enumerate(stack):
                assert np.array_equal(p[k], reduced_spectrum(matrix))

    def test_invalid_split(self):
        # a single subsystem has no amplitude matrix to split; the entanglement entry says so
        with pytest.raises(ValidationError, match="schmidt-split"):
            pure_entanglement(haar_state((4,), 3), "entropy")


class TestFourierMatrix:
    def test_small_cases(self):
        np.testing.assert_allclose(fourier_matrix(1), [[1.0]], atol=1e-15)
        np.testing.assert_allclose(
            fourier_matrix(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    def test_n4_row1(self):
        f = fourier_matrix(4)
        np.testing.assert_allclose(f[1], np.array([1, 1j, -1, -1j]) / 2, atol=1e-14)
        # direct exponential evaluation
        for j in range(4):
            for k in range(4):
                assert abs(f[j, k] - np.exp(2j * np.pi * j * k / 4) / 2) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_unitary_and_orthonormal_columns(self, n):
        f = fourier_matrix(n)
        np.testing.assert_allclose(f.conj().T @ f, np.eye(n), atol=1e-12)

    def test_rejects_bad_size(self):
        with pytest.raises(ValidationError):
            fourier_matrix(0)

    def test_built_once_per_size_and_read_only(self):
        f = fourier_matrix(6)
        assert fourier_matrix(6) is f and not f.flags.writeable
        with pytest.raises(ValueError):
            f[0, 0] = 0.0
        # a failed size is raised again, not remembered
        for _ in range(2):
            with pytest.raises(ValidationError, match="^fourier-size: n must be >= 1, got -1$"):
                fourier_matrix(-1)


class TestBell:
    def test_one_read_only_state_per_process(self):
        psi = bell_phi_plus()
        assert bell_phi_plus() is psi and psi.dims == (2, 2) and not psi.vector.flags.writeable
        with pytest.raises(ValueError):
            psi.vector[0] = 0.0
        fresh = bell_phi_plus.__wrapped__()
        assert fresh is not psi and np.array_equal(fresh.vector, psi.vector)
        assert np.array_equal(psi.vector, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


class TestHaar:
    def test_deterministic(self):
        assert np.array_equal(haar_state((2, 2), 42).vector, haar_state((2, 2), 42).vector)
        a, b = (haar_unitaries(np.random.default_rng(42).standard_normal((2, 3, 3))) for _ in range(2))
        assert np.array_equal(a, b)

    def test_unitary(self):
        u = haar_unitaries(np.random.default_rng(7).standard_normal((2, 3, 3)))
        assert is_unitary(u)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 4)])
    def test_blocks_are_the_first_columns_of_the_full_unitaries(self, lead):
        # haar_blocks factors only the d columns it keeps, with the full factorization's bits
        rng = np.random.default_rng(5)
        for n in range(1, 6):
            for d in range(1, 5):
                g = rng.standard_normal((*lead, 2, n * d, n * d))
                full = haar_unitaries(g)[..., :d].reshape(*lead, n, d, d)
                assert np.array_equal(haar_blocks(g, d), full), (n, d)

    def test_first_component_mean(self):
        # Monte-Carlo oracle: E|<0|psi>|^2 = 1/d within 3 binomial sigmas
        draws, dim = 100_000, 4
        # one stack, drawn from the same normals in the order that successive haar_state calls take
        vectors = haar_vectors(np.random.default_rng(2024).standard_normal((draws, 2, dim)))
        mean = np.mean(np.abs(vectors[:, 0]) ** 2)
        sigma = np.sqrt((1 / dim) * (1 - 1 / dim) / draws)
        assert abs(mean - 1 / dim) < 3 * sigma


class TestPredicatesAndTypes:
    def test_predicates(self):
        assert is_hermitian(PAULI_X)
        assert not is_hermitian(np.array([[0, 1], [0, 0]]))
        # no array but a square one, or a stack of them, is Hermitian
        assert not is_hermitian(np.zeros((2, 3))) and not is_hermitian(np.zeros(3))
        assert is_unitary(fourier_matrix(3))

    def test_pure_state_validation(self):
        with pytest.raises(ValidationError):
            PureState((2,), np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            PureState((2, 2), np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            PureState((0,), np.array([]))

    def test_density_matrix_validation(self):
        with pytest.raises(ValidationError):
            DensityMatrix((2,), np.array([[0.5, 0.5], [0.4, 0.5]]))
        with pytest.raises(ValidationError):
            DensityMatrix((2,), np.eye(2))
        with pytest.raises(ValidationError):
            DensityMatrix((2,), np.diag([1.5, -0.5]))
        with pytest.raises(ValidationError, match=r"^density-shape: matrix shape \(2, 2\), expected \(4, 4\)$"):
            DensityMatrix((2, 2), np.eye(2) / 2)

    @pytest.mark.parametrize("bad, invariant", [
        (np.array([[0.5, 0.5], [0.4, 0.5]]), "density-hermitian"),
        (np.eye(2), "density-trace"),
        (np.diag([1.5, -0.5]), "density-positivity"),
        (np.full((2, 2), np.nan), "density-hermitian"),
    ])  # fmt: skip
    def test_density_stack_names_the_bad_matrix(self, bad, invariant):
        with pytest.raises(ValidationError) as single:
            DensityMatrix((2,), bad)
        stack = np.tile(np.eye(2) / 2, (3, 4, 1, 1))
        stack[2, 1] = bad
        with pytest.raises(ValidationError) as stacked:
            DensityMatrix((2,), stack)
        assert single.value.invariant == stacked.value.invariant == invariant
        message = str(single.value).split(": ", 1)[1]
        assert str(stacked.value) == f"{invariant}: matrix (2, 1): {message}"


class TestRequire:
    def test_passing_check_never_describes(self):
        def describe(i):
            raise AssertionError("a passing check built its message")

        for ok in (np.array(True), np.ones((3, 2), dtype=bool), np.array([]) <= 1.0):
            _require(ok, "x", describe)

    @pytest.mark.parametrize("trials, prefix", [(None, ""), (range(10, 13), "trial 11: ")])
    def test_first_failure_and_nan_are_named(self, trials, prefix):
        values = np.array([[0.0, 0.5], [np.nan, 2.0], [0.0, 0.0]])
        with pytest.raises(ValidationError) as info:
            _require(values <= 1.0, "range", lambda i: f"{i} holds {float(values[i])!r}", trials)
        assert str(info.value) == f"range: {prefix}(1, 0) holds nan"
        with pytest.raises(ValidationError, match=r"^range: \(\) holds nan$"):
            _require(np.asarray(float("nan")) <= 1.0, "range", lambda i: f"{i} holds {float('nan')!r}")


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_eig_hermitian_stack_equals_single_calls(dim):
    rng = np.random.default_rng(dim)
    z = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
    stack = (z + z.conj().swapaxes(1, 2)) / 2
    stack[1] = np.eye(dim) / dim  # a fully degenerate block among them
    w, v = eig_hermitian(stack)
    assert w.shape == (3, dim) and v.shape == (3, dim, dim)
    for h, w_k, v_k in zip(stack, w, v):
        w_single, v_single = eig_hermitian(h)
        assert np.array_equal(w_k, w_single)
        assert np.array_equal(v_k, v_single)


def test_seeded_chunks_reject_a_negative_seed_as_default_rng_does():
    with pytest.raises(ValueError):
        next(seeded_chunks(-1, 3, 1))


def test_eig_hermitian_rejects_a_non_hermitian_block_in_a_stack():
    stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValidationError, match="hermitian"):
        eig_hermitian(stack)
