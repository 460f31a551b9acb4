"""Supermap action, duality, and the determinism characterizations."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from supermaps.linalg import dag, kron, random_density, random_isometry
from supermaps.operations import (
    apply_operation,
    choi_to_kraus,
    compose,
    identity_operation,
    is_channel,
    kraus_to_choi,
    random_channel,
    random_operation,
    tensor,
)
from supermaps.realization import CircuitRealization, circuit_to_supermap
from supermaps.supermap import (
    DeterminismCertificate,
    EffectMap,
    NotDeterministicError,
    Supermap,
    _factor_gaps,
    _gram,
    _singular_gaps,
    action_distance,
    apply_supermap,
    determinism_certificate,
    dual_supermap,
    effect_map_of,
    identity_supermap,
    is_deterministic,
    is_deterministic_effectwise,
    is_normalization_functional,
    is_probability_preserving,
    sum_supermaps,
    tensor_supermaps,
)

from conftest import matrix_units


def random_circuit_supermap(rng, dims=(2, 2, 2, 2), dim_a=None, dim_b=None):
    """Deterministic fixture built from two random isometries."""
    h_in, h_out, k_in, k_out = dims
    if dim_b is None:
        dim_b = max(int(rng.integers(1, 3)), -(-k_in // h_in))
    if dim_a is None:
        dim_a = max(int(rng.integers(1, 4)), -(-(h_out * dim_b) // k_out))
    v = random_isometry(dim_b * h_in, k_in, rng)
    w = random_isometry(k_out * dim_a, h_out * dim_b, rng)
    circuit = CircuitRealization(v=v, w=w, dim_a=dim_a, dim_b=dim_b)
    return circuit_to_supermap(circuit, dims)


def sandwich_fixture(rng, d=2):
    """Supermap with Kraus {A ⊗ B^T} for random unitaries A, B."""
    a = random_isometry(d, d, rng)
    b = random_isometry(d, d, rng)
    return a, b, Supermap(d, d, d, d, (kron(a, b.T),))


def unitary_channel(u):
    return kraus_to_choi_from_ops((u,))


def kraus_to_choi_from_ops(ops):
    from supermaps.operations import KrausSet

    d_out, d_in = ops[0].shape
    return kraus_to_choi(KrausSet(d_in, d_out, tuple(ops)))


def feed_fixed_state_supermap(phi, k_in, h_out):
    """Deterministic supermap E -> (rho -> E(phi) Tr[rho]); not probability preserving."""
    h_in = phi.shape[0]
    w, v = np.linalg.eigh(phi.T)
    ops = []
    for k in range(w.size):
        if w[k] < 1e-12:
            continue
        for kappa in range(k_in):
            ket = np.zeros((k_in, 1), dtype=complex)
            ket[kappa, 0] = 1.0
            ops.append(np.sqrt(w[k]) * kron(np.eye(h_out), ket @ dag(v[:, [k]])))
    return Supermap(h_in, h_out, k_in, h_out, tuple(ops))


class TestApplySupermap:
    def test_identity(self, rng):
        op = random_operation(2, 2, 2, rng)
        out = apply_supermap(identity_supermap(2, 2), op)
        np.testing.assert_allclose(out.choi, op.choi, atol=1e-14)

    def test_sandwich_matches_composition(self, rng):
        a, b, s = sandwich_fixture(rng)
        e = random_channel(2, 2, 2, rng)
        got = apply_supermap(s, e)
        expected = compose(unitary_channel(a), compose(e, unitary_channel(b)))
        np.testing.assert_allclose(got.choi, expected.choi, atol=1e-12)

    def test_scaling_supermap_halves(self, rng):
        s = Supermap(2, 2, 2, 2, (np.sqrt(0.5) * np.eye(4),))
        e = random_channel(2, 2, 2, rng)
        out = apply_supermap(s, e)
        np.testing.assert_allclose(out.choi, e.choi / 2, atol=1e-14)
        assert not is_channel(out)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply_supermap(identity_supermap(2, 2), random_channel(3, 3, 1, rng))

    def test_output_is_validated_and_the_check_can_fail(self):
        # S = 2 I is not trace-non-increasing, so S(E) is not an operation: the
        # re-validation of S(E) is the only check between S and a wrong result.
        with pytest.raises(
            ValueError, match=r"^operation increases trace \(effect exceeds identity by 3\.000e\+00\)$"
        ):
            apply_supermap(Supermap(1, 1, 1, 1, [[[2.0]]]), identity_operation(1))


class TestDualSupermap:
    def test_identity(self, rng):
        o = random_density(4, rng)
        np.testing.assert_allclose(dual_supermap(identity_supermap(2, 2), o), o)

    def test_duality_identity(self, rng):
        # Tr[C S(E)] == Tr[S_*(C) E] over many random instances
        for _ in range(100):
            dims = rng.integers(2, 4, size=4)
            h_in, h_out, k_in, k_out = (int(x) for x in dims)
            n_kraus = int(rng.integers(1, 4))
            ops = tuple(
                rng.standard_normal((k_out * k_in, h_out * h_in))
                + 1j * rng.standard_normal((k_out * k_in, h_out * h_in))
                for _ in range(n_kraus)
            )
            s = Supermap(h_in, h_out, k_in, k_out, ops)
            c = rng.standard_normal((k_out * k_in,) * 2) + 1j * rng.standard_normal(
                (k_out * k_in,) * 2
            )
            e = rng.standard_normal((h_out * h_in,) * 2) + 1j * rng.standard_normal(
                (h_out * h_in,) * 2
            )
            lhs = np.trace(c @ s.act(e))
            rhs = np.trace(dual_supermap(s, c) @ e)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_scaling(self, rng):
        s = Supermap(2, 2, 2, 2, (np.sqrt(0.5) * np.eye(4),))
        o = random_density(4, rng)
        np.testing.assert_allclose(dual_supermap(s, o), o / 2, atol=1e-14)


class TestNormalizationFunctional:
    def test_recognizes_product_form(self, rng):
        rho = random_density(3, rng)
        ok, recovered = is_normalization_functional(kron(np.eye(2), rho), (2, 3))
        assert ok
        np.testing.assert_allclose(recovered, rho, atol=1e-12)

    def test_wrong_factor_order(self, rng):
        rho = random_density(2, rng)
        assert not np.allclose(rho, np.eye(2) / 2)
        ok, _ = is_normalization_functional(kron(rho, np.eye(2)), (2, 2))
        assert not ok

    def test_generic_channel_choi_is_not(self, rng):
        e = random_channel(2, 2, 2, rng)
        ok, _ = is_normalization_functional(e.choi, (2, 2))
        assert not ok

    def test_unit_trace_required(self):
        ok, _ = is_normalization_functional(kron(np.eye(2), np.eye(2)), (2, 2))
        assert not ok

    def test_shape_checked_once_by_partial_trace(self):
        with pytest.raises(ValueError, match=r"^matrix shape \(6, 6\) inconsistent with tensor factors \(2, 2\)$"):
            is_normalization_functional(np.eye(6), (2, 2))

    def test_forward_direction_on_channels(self, rng):
        # Tr[(I ⊗ rho) E] = 1 for every channel Choi E
        for _ in range(20):
            rho = random_density(2, rng)
            e = random_channel(2, 3, 2, rng)
            val = np.trace(kron(np.eye(3), rho) @ e.choi)
            assert abs(val - 1.0) <= 1e-8


class TestIsDeterministic:
    def test_identity(self):
        assert is_deterministic(identity_supermap(2, 2))

    def test_scaled_identity_is_not(self):
        s = Supermap(2, 2, 2, 2, (np.sqrt(0.5) * np.eye(4),))
        assert not is_deterministic(s)
        assert not is_deterministic_effectwise(s)

    def test_circuit_fixtures(self, rng):
        for _ in range(5):
            s = random_circuit_supermap(rng)
            assert is_deterministic(s)

    def test_agreement_with_effectwise_verifier(self, rng):
        for _ in range(5):
            s = random_circuit_supermap(rng)
            assert is_deterministic(s) == is_deterministic_effectwise(s) == True
            damaged = Supermap(s.h_in, s.h_out, s.k_in, s.k_out,
                               tuple(0.95 * k for k in s.kraus))
            assert is_deterministic(damaged) == is_deterministic_effectwise(damaged) == False

    def test_deterministic_maps_channels_to_channels(self, rng):
        s = random_circuit_supermap(rng, dims=(2, 3, 2, 2))
        for _ in range(5):
            e = random_channel(2, 3, 2, rng)
            assert is_channel(apply_supermap(s, e))

    def test_cached_verdict_cannot_go_stale(self):
        s = identity_supermap(2, 2)
        assert is_deterministic(s)
        with pytest.raises(FrozenInstanceError):
            s.kraus = (0.5 * s.kraus[0],)
        assert is_deterministic(s) and is_deterministic_effectwise(s)

    def test_the_two_tests_stay_independent(self):
        # The effect-wise test is the cross-check of the certificate: neither
        # may reach the other, directly or through the determinism gate.  The
        # effect-wise test may share _factor_gaps, action_distance's helper,
        # and _gram, which name nothing of the certificate.
        names = is_deterministic_effectwise.__code__.co_names
        certificate_names = ("determinism_certificate", "_certified", "DeterminismCertificate", "_certificate",
                             "_singular_gaps", "svd", "canonical_factors", "SIGMA_CUTOFF", "_basis",
                             "product_residual", "rebuild_residual", "w_residual_bound", "factors",
                             "circuit_w", "choi_n")
        for shared in certificate_names:
            assert shared not in names
            assert shared not in _factor_gaps.__code__.co_names
            assert shared not in _gram.__code__.co_names
        # The supermap's cached property builds the certificate, whose SVD is its cached basis;
        # the residuals, W's bound, the factors, W and choi_n read it.
        cert = DeterminismCertificate
        codes = (determinism_certificate.__code__, Supermap._certificate.func.__code__,
                 _singular_gaps.__code__, cert._basis.func.__code__,
                 cert.product_residual.fget.__code__, cert.rebuild_residual.fget.__code__,
                 cert.w_residual_bound.fget.__code__, cert.factors.func.__code__,
                 cert.circuit_w.fget.__code__, cert.choi_n.func.__code__)
        for code in codes:
            for name in ("is_deterministic_effectwise", "_factor_gaps", "_gram"):
                assert name not in code.co_names

    def test_cached_certificate_is_frozen(self):
        s = identity_supermap(2, 2)
        cert = determinism_certificate(s)
        with pytest.raises(FrozenInstanceError):
            cert.product_residual = 1.0
        with pytest.raises(ValueError):
            cert.choi_n[0, 0] = 5.0
        assert is_deterministic(s)
        assert len(effect_map_of(s).kraus) == 1


class TestEffectMap:
    def test_operators_are_read_only_copies(self):
        ops = [np.eye(2, dtype=complex)]
        em = EffectMap(tuple(ops))
        with pytest.raises(ValueError):
            em.kraus[0][...] *= 3
        ops[0][0, 0] = 5.0
        np.testing.assert_array_equal(em.on_state(np.eye(2)), np.eye(2))

    def test_identity_supermap_gives_identity_map(self):
        em = effect_map_of(identity_supermap(2, 2))
        assert len(em.kraus) == 1
        np.testing.assert_allclose(em.kraus[0], np.eye(2), atol=1e-12)

    def test_preprocessing_effect_map_is_heisenberg_dual(self, rng):
        # S : E -> E ∘ C. Check Tr_Kout[S(E)] == N(Tr_Hout[E]) on a basis.
        c = random_channel(2, 2, 2, rng)
        c_ops = choi_to_kraus(c).operators
        s = Supermap(2, 2, 2, 2, tuple(kron(np.eye(2), cj.T) for cj in c_ops))
        assert is_deterministic(s)
        em = effect_map_of(s)
        for _, _, unit in matrix_units(4):
            lhs = np.einsum("nanb->ab", s.act(unit).reshape(2, 2, 2, 2))
            rhs = em.on_effect(np.einsum("nanb->ab", unit.reshape(2, 2, 2, 2)))
            assert np.linalg.norm(lhs - rhs) <= 1e-8

    def test_postprocessing_effect_map_is_identity(self, rng):
        d = random_channel(2, 2, 2, rng)
        d_ops = choi_to_kraus(d).operators
        s = Supermap(2, 2, 2, 2, tuple(kron(dk, np.eye(2)) for dk in d_ops))
        em = effect_map_of(s)
        for _, _, unit in matrix_units(2):
            np.testing.assert_allclose(em.on_effect(unit), unit, atol=1e-9)

    def test_identity_preservation_validated(self, rng):
        s = random_circuit_supermap(rng, dims=(2, 2, 3, 2))
        em = effect_map_of(s)
        gram = sum(dag(n) @ n for n in em.kraus)
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-9)

    def test_not_deterministic_raises(self):
        s = Supermap(2, 2, 2, 2, (np.sqrt(0.5) * np.eye(4),))
        with pytest.raises(NotDeterministicError):
            effect_map_of(s)


class TestProbabilityPreserving:
    def test_identity(self):
        assert is_probability_preserving(identity_supermap(2, 2))

    def test_postprocessing_preserves(self, rng):
        d_ops = choi_to_kraus(random_channel(2, 3, 2, rng)).operators
        s = Supermap(2, 2, 2, 3, tuple(kron(dk, np.eye(2)) for dk in d_ops))
        assert is_probability_preserving(s)

    def test_fixed_state_feeder_does_not(self, rng):
        phi = random_density(2, rng)
        s = feed_fixed_state_supermap(phi, k_in=2, h_out=2)
        assert is_deterministic(s)
        assert not is_probability_preserving(s)
        # whatever the input state, the output probability is the one on phi
        op = random_operation(2, 2, 2, rng)
        rho = random_density(2, rng)
        p_out = np.trace(apply_operation(apply_supermap(s, op), rho)).real
        assert abs(p_out - np.trace(apply_operation(op, phi)).real) < 1e-9

    def test_space_mismatch_raises(self, rng):
        s = random_circuit_supermap(rng, dims=(2, 2, 3, 2))
        with pytest.raises(ValueError):
            is_probability_preserving(s)


class TestTensorSupermaps:
    def test_local_action(self, rng):
        _, _, s = sandwich_fixture(rng)
        ident = identity_supermap(2, 2)
        e = random_channel(2, 2, 2, rng)
        f = random_channel(2, 2, 2, rng)
        big = tensor_supermaps(s, ident)
        got = apply_supermap(big, tensor(e, f))
        expected = tensor(apply_supermap(s, e), f)
        np.testing.assert_allclose(got.choi, expected.choi, atol=1e-11)

    def test_identity_pair(self):
        got = tensor_supermaps(identity_supermap(2, 2), identity_supermap(2, 2))
        assert action_distance(got, identity_supermap(4, 4)) <= 1e-12

    def test_factorized_oracle(self, rng):
        _, _, s1 = sandwich_fixture(rng)
        _, _, s2 = sandwich_fixture(rng)
        e = random_channel(2, 2, 2, rng)
        f = random_channel(2, 2, 2, rng)
        got = apply_supermap(tensor_supermaps(s1, s2), tensor(e, f))
        expected = tensor(apply_supermap(s1, e), apply_supermap(s2, f))
        assert np.linalg.norm(got.choi - expected.choi) <= 1e-8

    def test_local_application_preserves_positivity(self, rng):
        s = random_circuit_supermap(rng)
        big = tensor_supermaps(s, identity_supermap(2, 2))
        e = random_channel(4, 4, 2, rng)
        out = apply_supermap(big, e)  # construction validates positivity
        assert np.min(np.linalg.eigvalsh(out.choi)) >= -1e-9


class TestSumSupermaps:
    def test_single_part(self, rng):
        s = random_circuit_supermap(rng)
        assert action_distance(sum_supermaps([s]), s) == 0.0

    def test_halves_sum_to_identity_action(self):
        half = Supermap(2, 2, 2, 2, (np.sqrt(0.5) * np.eye(4),))
        total = sum_supermaps([half, half])
        assert action_distance(total, identity_supermap(2, 2)) <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            sum_supermaps([identity_supermap(2, 2), identity_supermap(3, 3)])


class TestActionDistance:
    def test_overflowing_actions_are_not_identical(self):
        # Every gap is inf − inf = NaN: the distance is NaN, which no tol passes,
        # not the 0.0 a fold by max alone would keep.  A gap that is only
        # infinite stays infinite.
        one = lambda x: Supermap(1, 1, 1, 1, [[[x]]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(action_distance(one(1e200), one(2e200)))
            assert action_distance(one(1e100), one(3e100)) == np.inf

    def test_kraus_freedom_invisible(self, rng):
        # rotating the Kraus list by a unitary leaves the action unchanged
        s = random_circuit_supermap(rng, dim_a=2)
        u = random_isometry(len(s.kraus), len(s.kraus), rng)
        rotated = Supermap(
            s.h_in, s.h_out, s.k_in, s.k_out,
            tuple(
                sum(u[i, j] * s.kraus[i] for i in range(len(s.kraus)))
                for j in range(len(s.kraus))
            ),
        )
        assert action_distance(s, rotated) <= 1e-10
