"""Process POVMs: normalization, evaluation, discrimination, completeness."""

import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from supermaps.linalg import kron, random_density, random_isometry
from supermaps.operations import (
    KrausSet,
    QuantumOperation,
    apply_operation,
    identity_operation,
    kraus_to_choi,
    random_channel,
    tensor,
)
from supermaps.supermap import _factor_identity, is_deterministic, sum_supermaps
from supermaps import testers
from supermaps.testers import (
    as_supermap_parts,
    discrimination_probability,
    evaluate,
    is_informationally_complete,
    make_tester,
    prepare_measure_tester,
    tester_from_circuit,
)

from conftest import X, Y, Z, I2, bell_projector, matrix_units

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def basis_povm():
    return [KET0.copy(), KET1.copy()]


def pauli_eigenbasis_povm():
    """Six half-weighted eigenprojectors of X, Y, Z: informationally complete."""
    povm = []
    for pauli in (X, Y, Z):
        w, v = np.linalg.eigh(pauli)
        for k in range(2):
            povm.append(np.outer(v[:, k], v[:, k].conj()) / 3.0)
    return povm


def qubit_sic_povm():
    """Four tetrahedral qubit effects (I + r·σ)/4: informationally complete."""
    c = np.sqrt(2.0) / 3.0
    bloch = [(0.0, 0.0, 1.0), (2 * c, 0.0, -1 / 3), (-c, np.sqrt(2 / 3), -1 / 3),
             (-c, -np.sqrt(2 / 3), -1 / 3)]
    return [(I2 + x * X + y * Y + z * Z) / 4 for x, y, z in bloch]


def depolarizing_qubit():
    return QuantumOperation(2, 2, np.eye(4) / 2)


def bit_flip_channel():
    return kraus_to_choi(KrausSet(2, 2, (X,)))


class TestMakeTester:
    def test_coin_flip(self, rng):
        sigma = random_density(2, rng)
        t = make_tester([kron(I2, sigma) / 2] * 2, 2, 2)
        np.testing.assert_allclose(t.sigma, sigma, atol=1e-12)

    def test_prepare_measure(self, rng):
        rho = random_density(2, rng)
        t = prepare_measure_tester(rho, basis_povm(), h_out=2)
        np.testing.assert_allclose(t.sigma, rho.T, atol=1e-12)

    def test_doubled_normalization_rejected(self, rng):
        sigma = random_density(2, rng)
        with pytest.raises(ValueError, match="normalize"):
            make_tester([kron(I2, sigma)] * 2, 2, 2)

    def test_negative_effect_rejected(self):
        bad = np.diag([1.0, 1.0, 1.0, -0.2])
        good = kron(I2, I2 / 2) - bad
        with pytest.raises(ValueError, match="positive"):
            make_tester([bad, good], 2, 2)


class TestTesterValidatesItself:
    def test_direct_construction_is_validated(self):
        # Accepted with a passed-in sigma before, so evaluate returned [5.0].
        with pytest.raises(ValueError, match="normalize"):
            testers.Tester(h_in=1, h_out=1, effects=(5.0 * np.eye(1),))
        with pytest.raises(ValueError, match="positive"):
            testers.Tester(h_in=1, h_out=1, effects=(2.0 * np.eye(1), -np.eye(1)))
        with pytest.raises(ValueError, match="effect shape"):
            testers.Tester(h_in=2, h_out=1, effects=(np.eye(3),))
        with pytest.raises(ValueError, match="at least one effect"):
            testers.Tester(h_in=1, h_out=1, effects=())

    def test_sigma_is_derived_not_passed(self, rng):
        sigma = random_density(2, rng)
        t = testers.Tester(h_in=2, h_out=2, effects=[kron(I2, sigma) / 2] * 2)
        np.testing.assert_allclose(t.sigma, sigma, atol=1e-12)
        assert t.tol == 1e-8
        with pytest.raises(TypeError):
            testers.Tester(h_in=2, h_out=2, effects=[kron(I2, sigma)], sigma=sigma)
        with pytest.raises(FrozenInstanceError):
            t.sigma = np.eye(2)

    def test_tolerance_is_stored_and_honoured(self, rng):
        sigma = random_density(2, rng)
        effects = [kron(I2, sigma) / 2, (1 + 1e-6) * kron(I2, sigma) / 2]
        with pytest.raises(ValueError, match="normalize"):
            testers.Tester(h_in=2, h_out=2, effects=effects)
        t = make_tester(effects, 2, 2, tol=1e-4)
        assert t.tol == 1e-4 and t.n_outcomes == 2

    def test_keeps_the_residuals_it_measured(self, rng):
        sigma = random_density(2, rng)
        # Off I ⊗ sigma by 1e-6 (the Z part) and off trace one by 5e-7.
        effects = [kron(I2 / 2 + 1e-6 * Z, sigma), (1 + 1e-6) * kron(I2, sigma) / 2]
        t = make_tester(effects, 2, 2, tol=1e-4)
        _, residual, trace_gap = _factor_identity(sum(t.effects), 2, 2)
        assert (t.residual, t.trace_gap) == (residual, trace_gap)
        assert 0 < t.residual <= 1e-4 and 0 < t.trace_gap <= 1e-4
        with pytest.raises(TypeError):
            testers.Tester(h_in=2, h_out=2, effects=effects, residual=0.0)

    @pytest.mark.parametrize("residual, trace_gap, shown", [
        (np.nan, 0.0, "residual 1.000e+300, trace gap 0.000e+00"),
        (0.0, np.nan, "residual 0.000e+00, trace gap 1.000e+300"),
        (np.inf, np.inf, "residual 1.000e+300, trace gap 1.000e+300"),
    ])
    def test_non_finite_residuals_fail_and_read_1e300(self, monkeypatch, residual, trace_gap,
                                                      shown):
        # A NaN passes neither comparison, so one beside a passing number must still fail.
        monkeypatch.setattr(testers, "_factor_identity",
                            lambda c, d_out, d_in: (np.eye(d_in) / d_in, residual, trace_gap))
        message = f"effects do not normalize to I ⊗ sigma ({shown})"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            testers.Tester(h_in=2, h_out=2, effects=[kron(I2, I2) / 2])


class TestTesterFrozen:
    def test_arrays_are_read_only_copies(self):
        effects = [kron(m, KET0) for m in basis_povm()]
        t = make_tester(effects, 2, 2)
        with pytest.raises(ValueError):
            t.effects[0][...] *= 5
        with pytest.raises(ValueError):
            t.sigma[0, 0] = 0.0
        effects[0] *= 5
        probs = evaluate(t, identity_operation(2))
        np.testing.assert_allclose(list(probs), [1.0, 0.0], atol=1e-12)


class TestEvaluate:
    def test_coin_flip_is_uniform(self, rng):
        sigma = random_density(2, rng)
        t = make_tester([kron(I2, sigma) / 2] * 2, 2, 2)
        probs = evaluate(t, random_channel(2, 2, 2, rng))
        np.testing.assert_allclose(list(probs), [0.5, 0.5], atol=1e-10)

    def test_prepare_measure_on_identity(self):
        t = prepare_measure_tester(KET0, basis_povm(), h_out=2)
        probs = evaluate(t, identity_operation(2))
        np.testing.assert_allclose(list(probs), [1.0, 0.0], atol=1e-12)

    def test_prepare_measure_on_trace_and_replace(self):
        # channel discarding the input and preparing |1>
        replace = kraus_to_choi(
            KrausSet(2, 2, (np.array([[0, 0], [1, 0]], dtype=complex),
                            np.array([[0, 0], [0, 1]], dtype=complex)))
        )
        t = prepare_measure_tester(KET0, basis_povm(), h_out=2)
        probs = evaluate(t, replace)
        np.testing.assert_allclose(list(probs), [0.0, 1.0], atol=1e-12)

    def test_channel_probabilities_sum_to_one(self, rng):
        for _ in range(10):
            rho = random_density(2, rng)
            t = prepare_measure_tester(rho, basis_povm(), h_out=2)
            probs = evaluate(t, random_channel(2, 2, 2, rng))
            assert abs(sum(probs) - 1.0) <= 1e-8
            assert all(-1e-8 <= p <= 1 + 1e-8 for p in probs)

    def test_operation_probabilities_within_unit_interval(self, rng):
        from supermaps.operations import random_operation

        rho = random_density(2, rng)
        t = prepare_measure_tester(rho, basis_povm(), h_out=2)
        probs = evaluate(t, random_operation(2, 2, 2, rng))
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_dimension_mismatch(self, rng):
        t = prepare_measure_tester(random_density(2, rng), basis_povm(), h_out=2)
        with pytest.raises(ValueError):
            evaluate(t, identity_operation(3))

    @pytest.mark.parametrize("h_in, h_out", [(1, 1), (2, 2), (2, 3), (4, 4)])
    def test_matches_trace_of_product(self, rng, h_in, h_out):
        """Tr(choi·P) as one einsum agrees with trace(choi @ P).

        The tester carries tol 1e-12, so a clamp could move a probability by
        no more than the comparison allows.
        """
        from supermaps.operations import random_operation

        d = h_out * h_in
        povm = [np.outer(col, col.conj()) for col in random_isometry(d, d, rng).T]
        circuit = tester_from_circuit(random_density(h_in * h_in, rng), povm, h_in=h_in, h_out=h_out)
        t = make_tester(circuit.effects, h_out, h_in, tol=1e-12)
        for op in (random_channel(h_in, h_out, 2, rng), random_operation(h_in, h_out, 2, rng)):
            expected = [np.trace(op.choi @ p).real for p in t.effects]
            np.testing.assert_allclose(list(evaluate(t, op)), expected, rtol=0, atol=1e-12)

    def test_clamp_boundaries_are_inclusive(self):
        """Raw values within the tester's tol of [0, 1] are clamped; values beyond it are kept.

        The one-dimensional effects [[1 + x]] and [[−x]], with x = 2⁻³¹ below
        POS_TOL, sum to exactly 1, so they make a tester at any tol, and the
        raw probabilities 1 + x and −x on the identity channel are exact.
        Near 1 the doubles are 2⁻⁵² apart, so x − 2⁻⁵² is the largest tol
        whose 1 + tol lies below 1 + x.
        """
        x = 2.0**-31
        channel = QuantumOperation(1, 1, np.eye(1))

        def probs(tol):
            t = make_tester([np.array([[1.0 + x]]), np.array([[-x]])], 1, 1, tol=tol)
            return list(evaluate(t, channel))

        assert probs(0.0) == [1.0 + x, -x]
        assert probs(x) == [1.0, 0.0]
        assert probs(x - 2.0**-52) == [1.0 + x, -x]
        assert probs(np.nextafter(x, 0.0))[1] == -x


class TestDiscrimination:
    def test_identical_channels_are_coin_flips(self, rng):
        ch = random_channel(2, 2, 2, rng)
        t = prepare_measure_tester(KET0, basis_povm(), h_out=2)
        assert discrimination_probability(t, [ch, ch], [0.5, 0.5]) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_identity_vs_bit_flip_is_perfect(self):
        t = prepare_measure_tester(KET0, basis_povm(), h_out=2)
        p = discrimination_probability(
            t, [identity_operation(2), bit_flip_channel()], [0.5, 0.5]
        )
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_identity_vs_depolarizing(self):
        t = prepare_measure_tester(KET0, basis_povm(), h_out=2)
        p = discrimination_probability(
            t, [identity_operation(2), depolarizing_qubit()], [0.5, 0.5]
        )
        assert p == pytest.approx(0.75, abs=1e-12)

    def test_count_mismatch(self):
        t = prepare_measure_tester(KET0, basis_povm(), h_out=2)
        with pytest.raises(ValueError):
            discrimination_probability(t, [identity_operation(2)], [1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "priors",
        [[1.5, -0.5], [np.nan, 1.0], [np.nan, np.nan], [np.inf, -np.inf], [1.0, -0.0 - 1e-300]],
        ids=["negative", "nan", "all-nan", "inf", "tiny-negative"],
    )
    def test_negative_or_non_finite_priors_rejected(self, priors):
        # [1.5, -0.5] sums to 1 and used to "succeed" with probability 1.5.
        t = prepare_measure_tester(KET0, basis_povm(), h_out=2)
        ident = identity_operation(2)
        with pytest.raises(ValueError, match="^priors must be finite and non-negative$"):
            discrimination_probability(t, [ident, ident], priors)


class TestInformationalCompleteness:
    def test_coin_flip_is_not(self, rng):
        sigma = random_density(2, rng)
        t = make_tester([kron(I2, sigma) / 2] * 2, 2, 2)
        assert not is_informationally_complete(t)

    def test_too_few_effects(self):
        t = prepare_measure_tester(KET0, basis_povm(), h_out=2)
        assert t.n_outcomes < 16
        assert not is_informationally_complete(t)

    def test_entangled_input_with_pauli_povm(self):
        # maximally entangled input + product Pauli-eigenbasis POVM spans all
        povm1q = pauli_eigenbasis_povm()
        joint = [kron(a, b) for a in povm1q for b in povm1q]
        t = tester_from_circuit(bell_projector(2) / 2, joint, h_in=2, h_out=2)
        assert is_informationally_complete(t)

    @pytest.mark.parametrize("h_in", [1, 2])
    def test_effect_count_at_the_square_of_the_dimension(self, monkeypatch, h_in):
        """D² spanning effects are complete; merging two leaves D² − 1, decided without an SVD."""
        d = 2 * h_in
        if h_in == 1:
            t = make_tester(qubit_sic_povm(), 2, 1)
        else:
            joint = [kron(a, b) for a in qubit_sic_povm() for b in qubit_sic_povm()]
            t = tester_from_circuit(bell_projector(2) / 2, joint, h_in=2, h_out=2)
        assert t.n_outcomes == d**2
        assert is_informationally_complete(t)
        merged = make_tester([t.effects[0] + t.effects[1], *t.effects[2:]], 2, h_in)
        assert merged.n_outcomes == d**2 - 1

        def no_svd(*args, **kwargs):
            raise AssertionError("rank computed for too few effects")

        monkeypatch.setattr(testers, "numerical_rank", no_svd)
        assert not is_informationally_complete(merged)

    def test_injectivity_on_operations(self, rng):
        # complete tester separates distinct channels
        povm1q = pauli_eigenbasis_povm()
        joint = [kron(a, b) for a in povm1q for b in povm1q]
        t = tester_from_circuit(bell_projector(2) / 2, joint, h_in=2, h_out=2)
        e1 = random_channel(2, 2, 2, rng)
        e2 = random_channel(2, 2, 2, rng)
        p1 = np.array(list(evaluate(t, e1)))
        p2 = np.array(list(evaluate(t, e2)))
        assert np.linalg.norm(p1 - p2) > 1e-6


class TestTesterFromCircuit:
    def test_empty_povm_rejected_as_empty(self, rng):
        with pytest.raises(ValueError, match="joint POVM is empty"):
            tester_from_circuit(random_density(2, rng), [], h_in=2, h_out=2)

    def test_no_ancilla_reduces_to_prepare_measure(self, rng):
        rho = random_density(2, rng)
        t = tester_from_circuit(rho, basis_povm(), h_in=2, h_out=2)
        expected = prepare_measure_tester(rho, basis_povm(), h_out=2)
        for got, want in zip(t.effects, expected.effects):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_contraction_identity_on_matrix_unit_basis(self, rng):
        # Tr[(E ⊗ I)(X) M_j] == Tr[E P_j] with E running over matrix units,
        # the left side expanded by direct index summation.
        x = random_density(4, rng)
        povm1q = pauli_eigenbasis_povm()
        joint = [kron(a, b) for a in povm1q for b in povm1q]
        t = tester_from_circuit(x, joint, h_in=2, h_out=2)
        x4 = x.reshape(2, 2, 2, 2)
        for _, _, g in matrix_units(4):
            g4 = g.reshape(2, 2, 2, 2)
            lifted = np.einsum("pawb,axby->pxwy", g4, x4).reshape(4, 4)
            for m, p in zip(joint, t.effects):
                assert abs(np.trace(lifted @ m) - np.trace(g @ p)) <= 1e-12

    def test_contraction_identity_on_channels(self, rng):
        # same identity exercised through the operation-level tensor machinery
        x = random_density(4, rng)
        joint = [kron(a, b) for a in basis_povm() for b in basis_povm()]
        t = tester_from_circuit(x, joint, h_in=2, h_out=2)
        for _ in range(10):
            e = random_channel(2, 2, 2, rng)
            out = apply_operation(tensor(e, identity_operation(2)), x)
            for m, p in zip(joint, t.effects):
                lhs = np.trace(out @ m)
                rhs = np.trace(e.choi @ p)
                assert abs(lhs - rhs) <= 1e-10

    def test_maximally_entangled_input(self, rng):
        # with input |I><I|/d the effects are M_j / d
        joint = [kron(a, b) for a in basis_povm() for b in basis_povm()]
        t = tester_from_circuit(bell_projector(2) / 2, joint, h_in=2, h_out=2)
        for m, p in zip(joint, t.effects):
            np.testing.assert_allclose(p, m / 2, atol=1e-12)

    def test_trivial_povm(self, rng):
        rho = random_density(2, rng)
        t = tester_from_circuit(rho, [np.eye(2, dtype=complex)], h_in=2, h_out=2)
        assert t.n_outcomes == 1
        np.testing.assert_allclose(t.effects[0], kron(I2, rho.T), atol=1e-12)

    def test_invalid_povm_rejected(self, rng):
        rho = random_density(2, rng)
        with pytest.raises(ValueError, match="POVM"):
            tester_from_circuit(rho, [np.eye(2) * 0.5], h_in=2, h_out=2)


class TestSupermapEncoding:
    def test_parts_sum_to_deterministic(self, rng):
        rho = random_density(2, rng)
        t = prepare_measure_tester(rho, basis_povm(), h_out=2)
        parts = as_supermap_parts(t)
        assert is_deterministic(sum_supermaps(parts))

    def test_scalar_actions_match_probabilities(self, rng):
        rho = random_density(2, rng)
        t = prepare_measure_tester(rho, pauli_eigenbasis_povm(), h_out=2)
        parts = as_supermap_parts(t)
        e = random_channel(2, 2, 2, rng)
        probs = evaluate(t, e)
        for j, part in enumerate(parts):
            scalar = part.act(e.choi)
            assert scalar.shape == (1, 1)
            assert abs(scalar[0, 0].real - probs[j]) <= 1e-10
