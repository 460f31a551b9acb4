"""Choi/Kraus machinery against operator-sum oracles."""

import re

import numpy as np
import pytest

from supermaps.linalg import dag, kron, random_density
from supermaps.operations import (
    KrausSet,
    QuantumOperation,
    apply_operation,
    choi_to_kraus,
    compose,
    effect_of,
    identity_operation,
    is_channel,
    kraus_to_choi,
    random_channel,
    random_operation,
    tensor,
)

from conftest import I2, Z, bell_projector


def choi_oracle(kraus_ops, dim_in, dim_out):
    """Choi via sum_mn E(|m><n|) ⊗ |m><n|, no vectorization involved."""
    d = dim_out * dim_in
    out = np.zeros((d, d), dtype=complex)
    for m in range(dim_in):
        for n in range(dim_in):
            unit = np.zeros((dim_in, dim_in), dtype=complex)
            unit[m, n] = 1.0
            image = sum(e @ unit @ dag(e) for e in kraus_ops)
            marker = np.zeros((dim_in, dim_in), dtype=complex)
            marker[m, n] = 1.0
            out += kron(image, marker)
    return out


class TestKrausToChoi:
    def test_identity_channel(self):
        op = kraus_to_choi(KrausSet(2, 2, (I2,)))
        np.testing.assert_allclose(op.choi, bell_projector(2), atol=1e-15)

    def test_trace_and_replace(self):
        ops = (np.array([[1, 0], [0, 0]], dtype=complex),
               np.array([[0, 1], [0, 0]], dtype=complex))
        got = kraus_to_choi(KrausSet(2, 2, ops))
        expected = choi_oracle(ops, 2, 2)
        np.testing.assert_allclose(got.choi, expected, atol=1e-15)
        np.testing.assert_allclose(
            got.choi, kron(np.diag([1.0, 0.0]), np.eye(2)), atol=1e-15
        )

    def test_phase_flip_mixture(self):
        ops = (np.sqrt(0.5) * I2, np.sqrt(0.5) * Z)
        got = kraus_to_choi(KrausSet(2, 2, ops))
        np.testing.assert_allclose(got.choi, choi_oracle(ops, 2, 2), atol=1e-15)

    def test_kraus_bound_violation_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            KrausSet(2, 2, (1.2 * I2,))


class TestKrausSetFrozen:
    def test_operators_are_read_only_copies(self):
        ops = [np.eye(2, dtype=complex)]
        k = KrausSet(2, 2, tuple(ops))
        with pytest.raises(ValueError):
            k.operators[0][...] *= 3
        ops[0][0, 0] = 5.0
        assert np.trace(k.apply(np.eye(2) / 2)).real == pytest.approx(1.0)

    def test_empty_set_is_the_zero_operation(self):
        np.testing.assert_array_equal(KrausSet(2, 3, ()).apply(np.eye(2) / 2), np.zeros((3, 3)))


class TestChoiToKraus:
    def test_identity_gives_identity_kraus(self):
        k = choi_to_kraus(identity_operation(2))
        assert len(k.operators) == 1
        np.testing.assert_allclose(k.operators[0], I2, atol=1e-12)

    def test_completely_depolarizing(self):
        op = QuantumOperation(2, 2, np.eye(4) / 2)
        k = choi_to_kraus(op)
        assert len(k.operators) == 4
        for i, a in enumerate(k.operators):
            assert abs(np.vdot(a, a).real - 0.5) < 1e-12
            for b in k.operators[:i]:
                assert abs(np.vdot(b, a)) < 1e-12

    def test_roundtrip_on_random_channels(self, rng):
        for _ in range(10):
            op = random_channel(3, 2, 3, rng)
            back = kraus_to_choi(choi_to_kraus(op))
            assert np.linalg.norm(back.choi - op.choi) <= 1e-8

    def test_canonical_operators_are_orthogonal(self, rng):
        k = choi_to_kraus(random_operation(3, 3, 4, rng))
        for i, a in enumerate(k.operators):
            for b in k.operators[:i]:
                assert abs(np.vdot(b, a)) <= 1e-10

    def test_negative_choi_rejected_at_construction(self):
        with pytest.raises(ValueError, match="positive"):
            QuantumOperation(2, 2, np.diag([1.0, 1.0, 1.0, -0.5]))


class TestApplyOperation:
    def test_identity(self, rng):
        rho = random_density(2, rng)
        np.testing.assert_allclose(
            apply_operation(identity_operation(2), rho), rho, atol=1e-14
        )

    def test_effect_case(self):
        # dim_out = 1: Kraus <0| yields probabilities Tr[|0><0| rho]
        bra0 = np.array([[1.0, 0.0]], dtype=complex)
        op = kraus_to_choi(KrausSet(2, 1, (bra0,)))
        out = apply_operation(op, np.eye(2) / 2)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 0.5) < 1e-14

    def test_state_preparation_case(self, rng):
        rho_out = random_density(3, rng)
        op = QuantumOperation(1, 3, rho_out)
        np.testing.assert_allclose(
            apply_operation(op, np.array([[1.0]])), rho_out, atol=1e-14
        )

    def test_matches_operator_sum(self, rng):
        for _ in range(10):
            k = choi_to_kraus(random_operation(2, 3, 2, rng))
            op = kraus_to_choi(k)
            rho = random_density(2, rng)
            np.testing.assert_allclose(
                apply_operation(op, rho), k.apply(rho), atol=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_operation(identity_operation(2), np.eye(3))


def test_one_port_check_for_supermaps_testers_and_circuits(rng):
    from supermaps.realization import realize, run_circuit
    from supermaps.supermap import apply_supermap, identity_supermap
    from supermaps.testers import evaluate, make_tester

    op = random_channel(2, 3, 2, rng)
    s = identity_supermap(2, 2)
    tester = make_tester([kron(I2, I2 / 2)], 2, 2)
    for what, call in (
        ("supermap", lambda: apply_supermap(s, op)),
        ("tester", lambda: evaluate(tester, op)),
        ("circuit", lambda: run_circuit(realize(s), op, I2 / 2)),
    ):
        message = f"operation spaces (2, 3) do not match the {what}'s open ports (2, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestEffect:
    def test_identity_channel(self):
        np.testing.assert_allclose(effect_of(identity_operation(2)), np.eye(2))

    def test_linearity_under_scaling(self):
        half = QuantumOperation(2, 2, bell_projector(2) / 2)
        np.testing.assert_allclose(effect_of(half), np.eye(2) / 2, atol=1e-14)

    def test_matches_kraus_sum(self, rng):
        k = choi_to_kraus(random_operation(3, 2, 2, rng))
        op = kraus_to_choi(k)
        expected = sum(dag(e) @ e for e in k.operators)
        np.testing.assert_allclose(effect_of(op), expected, atol=1e-12)

    def test_probability_consistency(self, rng):
        op = random_operation(2, 3, 2, rng)
        rho = random_density(2, rng)
        p_trace = np.trace(apply_operation(op, rho))
        p_effect = np.trace(rho.T @ effect_of(op))
        assert abs(p_trace - p_effect) < 1e-12


class TestIsChannel:
    def test_identity(self):
        assert is_channel(identity_operation(2))

    def test_trace_and_replace(self):
        op = QuantumOperation(2, 2, kron(np.diag([1.0, 0.0]), np.eye(2)))
        assert is_channel(op)

    def test_scaled_is_not(self):
        assert not is_channel(QuantumOperation(2, 2, bell_projector(2) / 2))


class TestCompose:
    def test_identity_neutral(self, rng):
        e = random_channel(2, 2, 2, rng)
        for other in (compose(identity_operation(2), e), compose(e, identity_operation(2))):
            np.testing.assert_allclose(other.choi, e.choi, atol=1e-12)

    def test_matches_kraus_product_oracle(self, rng):
        for _ in range(10):
            first = random_channel(2, 2, 2, rng)
            second = random_channel(2, 2, 2, rng)
            got = compose(second, first)
            products = [
                b @ a
                for b in choi_to_kraus(second).operators
                for a in choi_to_kraus(first).operators
            ]
            expected = choi_oracle(products, 2, 2)
            assert np.linalg.norm(got.choi - expected) <= 1e-8

    def test_rectangular_chain(self, rng):
        first = random_channel(3, 2, 2, rng)
        second = random_channel(2, 4, 2, rng)
        got = compose(second, first)
        assert (got.dim_in, got.dim_out) == (3, 4)
        assert is_channel(got)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            compose(random_channel(3, 3, 1, rng), random_channel(2, 2, 1, rng))


class TestTensor:
    def test_identity_pair(self):
        got = tensor(identity_operation(2), identity_operation(2))
        np.testing.assert_allclose(got.choi, identity_operation(4).choi, atol=1e-13)

    def test_local_action(self, rng):
        e = random_channel(2, 2, 2, rng)
        rho, sigma = random_density(2, rng), random_density(2, rng)
        big = tensor(e, identity_operation(2))
        out = apply_operation(big, kron(rho, sigma))
        np.testing.assert_allclose(
            out, kron(apply_operation(e, rho), sigma), atol=1e-12
        )

    def test_factorized_application(self, rng):
        a = random_channel(2, 3, 2, rng)
        b = random_channel(3, 2, 2, rng)
        rho, sigma = random_density(2, rng), random_density(3, rng)
        out = apply_operation(tensor(a, b), kron(rho, sigma))
        expected = kron(apply_operation(a, rho), apply_operation(b, sigma))
        assert np.linalg.norm(out - expected) <= 1e-8

    def test_preserves_channel(self, rng):
        assert is_channel(tensor(random_channel(2, 2, 2, rng), random_channel(3, 2, 2, rng)))


class TestRandomChannel:
    def test_rank_one_preserves_purity(self, rng):
        ch = random_channel(2, 3, 1, rng)
        psi = np.zeros((2, 2), dtype=complex)
        psi[0, 0] = 1.0
        out = apply_operation(ch, psi)
        assert abs(np.trace(out @ out).real - 1.0) < 1e-10

    def test_output_is_channel(self, rng):
        for _ in range(5):
            assert is_channel(random_channel(3, 2, 3, rng))

    def test_seed_reproducibility(self):
        a = random_channel(2, 2, 2, seed=11)
        b = random_channel(2, 2, 2, seed=11)
        np.testing.assert_array_equal(a.choi, b.choi)

    def test_channels_have_unit_output_trace(self, rng):
        ch = random_channel(3, 3, 2, rng)
        for _ in range(5):
            rho = random_density(3, rng)
            assert abs(np.trace(apply_operation(ch, rho)) - 1.0) < 1e-10
