"""Tensor bookkeeping primitives against element-wise oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supermaps.applications import povm_as_channel
from supermaps.linalg import (
    POS_TOL,
    _PHASE_EPS,
    _worst,
    check_povm,
    dag,
    frob,
    is_density_matrix,
    kron,
    partial_trace,
    permute_systems,
    psd_factors,
    random_density,
    random_isometry,
)

from conftest import X, Z, I2, bell_projector, ref_eigh_sorted


def kron_oracle(a, b):
    """Element-wise Kronecker definition, independent of np.kron."""
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


def permutation_matrix(dims, perm):
    """Unitary U with U|x_0,...> = |x_perm[0],...>, so permute_systems(m) = U m U†."""
    total = int(np.prod(dims))
    u = np.zeros((total, total))
    new_dims = [dims[p] for p in perm]
    for idx in np.ndindex(*dims):
        src = int(np.ravel_multi_index(idx, dims))
        dst = int(np.ravel_multi_index([idx[p] for p in perm], new_dims))
        u[dst, src] = 1.0
    return u


def partial_trace_oracle(m, dims, keep):
    """Direct index-summation partial trace."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    kept_dim = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((kept_dim, kept_dim), dtype=complex)
    t = m.reshape(*dims, *dims)
    for row in np.ndindex(*[dims[i] for i in keep]):
        for col in np.ndindex(*[dims[i] for i in keep]):
            total = 0.0
            for shared in np.ndindex(*[dims[i] for i in traced]):
                ridx, cidx = [0] * n, [0] * n
                for pos, i in enumerate(keep):
                    ridx[i], cidx[i] = row[pos], col[pos]
                for pos, i in enumerate(traced):
                    ridx[i] = cidx[i] = shared[pos]
                total += t[tuple(ridx) + tuple(cidx)]
            r = np.ravel_multi_index(row, [dims[i] for i in keep]) if keep else 0
            c = np.ravel_multi_index(col, [dims[i] for i in keep]) if keep else 0
            out[r, c] = total
    return out


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + dag(g)) / 2


class TestFrob:
    """frob gives the bits of np.linalg.norm, whatever the layout of its input."""

    @staticmethod
    def arrays(rng):
        g = rng.standard_normal((6, 5))
        c = g + 1j * rng.standard_normal((6, 5))
        t = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        return {
            "real": g,
            "complex": c,
            "real-transposed": g.T,
            "complex-transposed": c.T,
            "conjugate-transposed": dag(c),
            "sliced": c[1::2, ::-2],
            "axes-swapped": t.transpose(2, 0, 1),
            "real-part-view": c.real,
            "1-D": c[:, 2],
            "1-D-strided": g.reshape(-1)[::3],
            "integer": np.arange(-7, 5).reshape(3, 4),
            "0-D": np.array(3.0 - 4.0j),
            "empty": np.zeros((0, 3), dtype=complex),
            "empty-real": np.zeros(0),
            "tiny": 1e-170 * c,
            "huge": 1e150 * c,
        }

    @pytest.mark.parametrize("seed", range(5))
    def test_bits_equal_numpy_norm(self, seed):
        for name, x in self.arrays(np.random.default_rng(seed)).items():
            assert frob(x) == float(np.linalg.norm(x)), name
            assert type(frob(x)) is float, name


class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(kron(I2, I2), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(
            kron(np.diag([1.0, 0.0]), I2), np.diag([1.0, 1.0, 0.0, 0.0])
        )

    def test_pauli_pair_matches_elementwise_definition(self):
        np.testing.assert_allclose(kron(X, Z), kron_oracle(X, Z), atol=1e-15)

    def test_random_matches_elementwise_definition(self, rng):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        np.testing.assert_allclose(kron(a, b), kron_oracle(a, b), atol=1e-14)


class TestPartialTrace:
    def test_product_factorizes(self, rng):
        for da, db in [(2, 2), (2, 3), (3, 4)]:
            a = random_hermitian(da, rng)
            b = random_hermitian(db, rng)
            got = partial_trace(kron(a, b), [da, db], keep=[0])
            np.testing.assert_allclose(got, a * np.trace(b), atol=1e-12)

    def test_maximally_entangled_marginal(self):
        got = partial_trace(bell_projector(2), [2, 2], keep=[1])
        np.testing.assert_allclose(got, np.eye(2), atol=1e-15)

    def test_matches_index_summation_oracle(self, rng):
        m = random_hermitian(4, rng)
        for keep in ([0], [1], [0, 1], []):
            np.testing.assert_allclose(
                partial_trace(m, [2, 2], keep),
                partial_trace_oracle(m, [2, 2], keep),
                atol=1e-13,
            )

    def test_preserves_trace(self, rng):
        m = random_hermitian(12, rng)
        reduced = partial_trace(m, [2, 3, 2], keep=[1])
        assert abs(np.trace(reduced) - np.trace(m)) < 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [2, 3], keep=[0])


class TestPermuteSystems:
    def test_identity_is_noop(self, rng):
        m = random_hermitian(8, rng)
        np.testing.assert_allclose(permute_systems(m, [2, 2, 2], [0, 1, 2]), m)

    def test_swap_on_product(self, rng):
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        got = permute_systems(kron(a, b), [2, 3], [1, 0])
        np.testing.assert_allclose(got, kron(b, a), atol=1e-14)

    def test_matches_permutation_matrix_conjugation(self, rng):
        dims = [2, 3, 2]
        m = random_hermitian(12, rng)
        for perm in ([1, 2, 0], [2, 0, 1], [1, 0, 2]):
            u = permutation_matrix(dims, perm)
            np.testing.assert_allclose(
                permute_systems(m, dims, perm), u @ m @ dag(u), atol=1e-13
            )

    def test_inverse_composes_to_identity(self, rng):
        dims = [2, 2, 3]
        m = random_hermitian(12, rng)
        perm = [2, 0, 1]
        inv = [perm.index(i) for i in range(3)]
        new_dims = [dims[p] for p in perm]
        back = permute_systems(permute_systems(m, dims, perm), new_dims, inv)
        np.testing.assert_allclose(back, m, atol=1e-14)

    def test_preserves_trace(self, rng):
        m = random_hermitian(12, rng)
        out = permute_systems(m, [2, 3, 2], [2, 1, 0])
        assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_invalid_permutation_raises(self):
        with pytest.raises(ValueError):
            permute_systems(np.eye(4), [2, 2], [0, 0])


def random_psd(dim, rng):
    """G G† for a complex Gaussian G: positive semidefinite, full rank."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ dag(g)


class TestPsdFactors:
    def test_diagonal(self):
        f = psd_factors(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(f, np.diag([np.sqrt(3.0), 1.0]), atol=1e-15)

    def test_pauli_x_closed_form(self):
        # I + X = 2 |+><+|: one factor, sqrt(2) |+> = (1, 1).
        f = psd_factors(I2 + X)
        np.testing.assert_allclose(f, [[1.0], [1.0]], atol=1e-12)

    def test_reconstruction(self, rng):
        m = random_psd(6, rng)
        f = psd_factors(m)
        assert np.linalg.norm(f @ dag(f) - m) <= 1e-10 * np.linalg.norm(m)

    def test_descending_and_orthogonal(self, rng):
        m = random_psd(5, rng)
        f = psd_factors(m)
        gram = dag(f) @ f
        w = gram.diagonal().real
        assert np.all(np.diff(w) <= 1e-12)
        np.testing.assert_allclose(gram, np.diag(w), atol=1e-12 * w[0])

    def test_phase_convention_deterministic(self, rng):
        m = random_psd(4, rng)
        f1, f2 = psd_factors(m), psd_factors(m.copy())
        np.testing.assert_array_equal(f1, f2)
        v = f1 / np.linalg.norm(f1, axis=0)
        for k in range(4):
            first = v[np.abs(v[:, k]) > 1e-10, k][0]
            assert abs(first.imag) < 1e-12 and first.real > 0


def leading_zero_psd(n, split, rng):
    """Block diagonal on [0, split) ⊕ [split, n): the second block's eigenvectors start with zeros."""
    m = random_psd(n, rng)
    m[:split, split:] = 0.0
    m[split:, :split] = 0.0
    return m


def tiny_leading_psd(n, rng):
    """Couples entry 0 to the rest at 1e-12, so eigenvectors lead with entries below _PHASE_EPS.

    Scaling the off-diagonal part of row and column 0 by a factor below 1
    keeps a positive matrix positive (its Schur complement only grows).
    """
    m = random_psd(n, rng)
    m[0, 1:] *= 1e-12
    m[1:, 0] *= 1e-12
    return m


def degenerate_psd(n, rng):
    """Random eigenbasis with eigenvalues in {0, 1, 2}: degenerate eigenspaces, zeros dropped."""
    u = random_isometry(n, n, rng)
    return (u * rng.integers(0, 3, n)) @ dag(u)


class TestPsdFactorsMatchesLoop:
    """The vectorized phase fix gives bit-identical factors to the per-column loop."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_random(self, rng, n):
        for _ in range(5):
            self.assert_same(random_psd(n, rng))

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_leading_zeros(self, rng, n):
        for split in range(1, n):
            m = leading_zero_psd(n, split, rng)
            self.assert_same(m, leading=lambda v: np.any(v[0] == 0.0))

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_leading_entries_below_threshold(self, rng, n):
        m = tiny_leading_psd(n, rng)
        self.assert_same(m, leading=lambda v: np.any((v[0] != 0) & (np.abs(v[0]) <= _PHASE_EPS)))

    @pytest.mark.parametrize("n", [3, 8])
    def test_degenerate(self, rng, n):
        for _ in range(5):
            self.assert_same(degenerate_psd(n, rng))

    def test_empty(self):
        f = psd_factors(np.zeros((0, 0)))
        assert f.shape == (0, 0)

    @staticmethod
    def assert_same(m, leading=None):
        f = psd_factors(m)
        w_ref, v_ref = ref_eigh_sorted(m)
        keep = w_ref > POS_TOL * max(1.0, w_ref[0])
        if leading is not None:
            assert leading(v_ref[:, keep]), "fixture lacks the eigenvectors it is meant to cover"
        np.testing.assert_array_equal(f, v_ref[:, keep] * np.sqrt(w_ref[keep]))


class TestRandomIsometry:
    def test_one_by_one_has_unit_modulus(self):
        v = random_isometry(1, 1, seed=3)
        assert abs(abs(v[0, 0]) - 1.0) < 1e-12

    def test_columns_orthonormal(self, rng):
        v = random_isometry(6, 4, rng)
        assert np.linalg.norm(dag(v) @ v - np.eye(4)) <= 1e-10

    def test_seed_reproducibility(self):
        a = random_isometry(5, 3, seed=42)
        b = random_isometry(5, 3, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            random_isometry(2, 3, seed=0)


def test_random_density_is_state(rng):
    rho = random_density(3, rng)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


@pytest.mark.parametrize(
    "m", [np.ones((2, 3)) / 2, np.ones(2) / 2, np.array([1.0]), np.eye(2)[None] / 2, np.array(1.0)],
    ids=["2x3", "1-d", "1-d-unit", "3-d", "0-d"],
)
def test_is_density_matrix_is_false_unless_square(m):
    # Non-square input raised numpy's broadcast error, and 1-D input LinAlgError.
    assert is_density_matrix(m) is False


class TestCheckPovm:
    def test_dimension_taken_from_first_element(self):
        povm = check_povm([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
        assert [m.shape for m in povm] == [(3, 3), (3, 3)]
        with pytest.raises(ValueError, match=r"POVM element shape \(2, 2\) != \(3, 3\)"):
            check_povm([np.eye(3), np.zeros((2, 2))])

    def test_a_non_square_first_element_is_named(self):
        # Without d, the first element's rows set d, and its shape is named against (d, d).
        for check in (check_povm, povm_as_channel):
            with pytest.raises(ValueError, match=r"^POVM element shape \(2, 3\) != \(2, 2\)$"):
                check([np.ones((2, 3))])

    def test_empty_povm_rejected_naming_it(self):
        with pytest.raises(ValueError, match="^POVM is empty$"):
            check_povm([])
        with pytest.raises(ValueError, match="^joint POVM is empty$"):
            check_povm(iter(()), 4, "joint POVM")


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=5))
def test_worst_keeps_nan_and_otherwise_is_max(xs):
    if any(map(math.isnan, xs)):
        assert math.isnan(_worst(*xs))
    else:
        assert _worst(*xs) is max(xs)  # the very float max picks, so its bits
