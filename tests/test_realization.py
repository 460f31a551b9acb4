"""Circuit factorization of supermaps and its probabilistic extension."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from supermaps.linalg import (
    dag,
    kron,
    partial_trace,
    permute_systems,
    random_density,
    random_isometry,
)
from supermaps.operations import (
    QuantumOperation,
    apply_operation,
    choi_to_kraus,
    identity_operation,
    random_channel,
    random_operation,
    tensor,
)
from supermaps.realization import (
    CircuitRealization,
    circuit_to_supermap,
    delayed_reading_check,
    realize,
    realize_probabilistic,
    run_circuit,
)
from supermaps.supermap import (
    NotDeterministicError,
    Supermap,
    action_distance,
    apply_supermap,
    identity_supermap,
    is_deterministic,
    sum_supermaps,
)

from test_supermap import random_circuit_supermap


def postprocessing_supermap(channel):
    """E -> D ∘ E for a channel D, as Kraus operators D_k ⊗ I."""
    ops = choi_to_kraus(channel).operators
    return Supermap(
        channel.dim_in,
        channel.dim_in,
        channel.dim_in,
        channel.dim_out,
        tuple(kron(d, np.eye(channel.dim_in)) for d in ops),
    )


def reference_run_circuit(c, op, rho, outcome=None):
    """The former body of run_circuit: builds I_B ⊗ E as a validated operation."""
    rho = np.asarray(rho, dtype=complex)
    state = c.v @ rho @ dag(c.v)  # on (B, H_in)
    out = apply_operation(tensor(identity_operation(c.dim_b), op), state)  # (B, H_out)
    out = permute_systems(out, [c.dim_b, c.h_out], [1, 0])  # (H_out, B)
    out = c.w @ out @ dag(c.w)  # (K_out, A)
    if outcome is not None:
        sel = kron(np.eye(c.k_out), c.projectors[outcome])
        out = sel @ out @ sel
    return partial_trace(out, [c.k_out, c.dim_a], keep=[0])


class TestRealize:
    def test_identity_supermap(self):
        c = realize(identity_supermap(2, 2))
        assert c.dim_a == c.dim_b == 1
        rebuilt = circuit_to_supermap(c, (2, 2, 2, 2))
        assert action_distance(rebuilt, identity_supermap(2, 2)) <= 1e-12

    def test_postprocessing(self, rng):
        s = postprocessing_supermap(random_channel(2, 3, 2, rng))
        c = realize(s)
        assert c.dim_b == 1  # nothing flows past the input side
        rebuilt = circuit_to_supermap(c, (2, 2, 2, 3))
        assert action_distance(rebuilt, s) <= 1e-8

    def test_random_deterministic_roundtrip(self, rng):
        for _ in range(10):
            dims = tuple(int(d) for d in rng.integers(2, 4, size=4))
            s = random_circuit_supermap(rng, dims=dims)
            c = realize(s)
            rebuilt = circuit_to_supermap(c, dims)
            assert action_distance(rebuilt, s) <= 1e-8

    def test_isometry_contracts(self, rng):
        s = random_circuit_supermap(rng)
        c = realize(s)
        assert np.linalg.norm(dag(c.v) @ c.v - np.eye(c.v.shape[1])) <= 1e-8
        assert np.linalg.norm(dag(c.w) @ c.w - np.eye(c.w.shape[1])) <= 1e-8

    def test_ancilla_bookkeeping(self, rng):
        s = random_circuit_supermap(rng, dim_a=3, dim_b=2)
        c = realize(s)
        assert c.dim_a == len(s.kraus)
        # dim_b equals the canonical Kraus count of the effect map
        from supermaps.supermap import effect_map_of

        assert c.dim_b == len(effect_map_of(s).kraus)

    def test_not_deterministic_raises(self):
        s = Supermap(2, 2, 2, 2, (np.sqrt(0.5) * np.eye(4),))
        # The determinism gate's message, with the certificate's residual.
        with pytest.raises(NotDeterministicError, match=r"^supermap is not deterministic \(residual 5\.000e-01\)$"):
            realize(s)

    def test_degenerate_one_dimensional_outputs(self, rng):
        # effect-like supermap: k_in = k_out = 1 (a one-outcome tester)
        rho = random_density(2, rng)
        effect = kron(np.eye(2), rho.T)
        w, v = np.linalg.eigh(effect)
        ops = tuple(
            np.sqrt(w[j]) * v[:, j].conj().reshape(1, 4)
            for j in range(4)
            if w[j] > 1e-12
        )
        s = Supermap(2, 2, 1, 1, ops)
        assert is_deterministic(s)
        c = realize(s)
        rebuilt = circuit_to_supermap(c, (2, 2, 1, 1))
        assert action_distance(rebuilt, s) <= 1e-8


class TestKrausFormConsistency:
    def test_contraction_form_equals_operator_sum(self, rng):
        # Tr_A[W (I⊗Z) E (I⊗Z†) W†] == sum_i S_i E S_i† for the realization
        s = random_circuit_supermap(rng, dims=(2, 2, 2, 2))
        c = realize(s)
        h_in, h_out, k_in, k_out = 2, 2, 2, 2
        z = c.v.reshape(c.dim_b, h_in, k_in).transpose(0, 2, 1).reshape(
            c.dim_b * k_in, h_in
        )
        big_w = kron(c.w, np.eye(k_in))
        big_z = kron(np.eye(h_out), z)
        for _ in range(5):
            e = random_channel(h_in, h_out, 2, rng).choi
            lifted = big_w @ big_z @ e @ dag(big_z) @ dag(big_w)
            # lifted lives on (K_out, A, K_in); trace out A
            t = lifted.reshape(k_out, c.dim_a, k_in, k_out, c.dim_a, k_in)
            contracted = np.einsum("nakmal->nkml", t).reshape(
                k_out * k_in, k_out * k_in
            )
            assert np.linalg.norm(contracted - s.act(e)) <= 1e-9


class TestCircuitToSupermap:
    def test_trivial_circuit_is_identity(self):
        c = CircuitRealization(v=np.eye(2, dtype=complex), w=np.eye(2, dtype=complex),
                               dim_a=1, dim_b=1)
        s = circuit_to_supermap(c, (2, 2, 2, 2))
        assert action_distance(s, identity_supermap(2, 2)) <= 1e-12

    def test_random_circuits_are_deterministic(self, rng):
        for _ in range(5):
            v = random_isometry(2 * 2, 2, rng)
            w = random_isometry(2 * 2, 2 * 2, rng)
            c = CircuitRealization(v=v, w=w, dim_a=2, dim_b=2)
            s = circuit_to_supermap(c, (2, 2, 2, 2))
            assert is_deterministic(s)

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError, match="isometry"):
            CircuitRealization(v=np.ones((2, 2)), w=np.eye(2), dim_a=1, dim_b=1)

    def test_dims_mismatch_raises(self, rng):
        s = random_circuit_supermap(rng)
        c = realize(s)
        with pytest.raises(ValueError):
            circuit_to_supermap(c, (3, 2, 2, 2))


class TestRealizeProbabilistic:
    def test_single_part_projector_is_identity(self, rng):
        s = random_circuit_supermap(rng)
        c = realize_probabilistic([s])
        assert len(c.projectors) == 1
        np.testing.assert_allclose(c.projectors[0], np.eye(c.dim_a), atol=1e-14)

    def test_split_identity_into_halves(self, rng):
        half = Supermap(2, 2, 2, 2, (np.sqrt(0.5) * np.eye(4),))
        c = realize_probabilistic([half, half])
        assert [int(np.trace(p).real) for p in c.projectors] == [1, 1]
        e = random_channel(2, 2, 2, rng)
        rho = random_density(2, rng)
        for j in range(2):
            out = run_circuit(c, e, rho, outcome=j)
            expected = apply_operation(e, rho) / 2
            assert np.linalg.norm(out - expected) <= 1e-10

    def test_parts_recovered_by_grouping(self, rng):
        s = random_circuit_supermap(rng, dim_a=3)
        parts = [
            Supermap(s.h_in, s.h_out, s.k_in, s.k_out, s.kraus[:1]),
            Supermap(s.h_in, s.h_out, s.k_in, s.k_out, s.kraus[1:]),
        ]
        c = realize_probabilistic(parts)
        rebuilt = circuit_to_supermap(c, (s.h_in, s.h_out, s.k_in, s.k_out))
        for part, back in zip(parts, rebuilt):
            assert action_distance(part, back) <= 1e-8

    def test_projector_completeness_and_sum(self, rng):
        s = random_circuit_supermap(rng, dim_a=3)
        parts = [
            Supermap(s.h_in, s.h_out, s.k_in, s.k_out, s.kraus[:2]),
            Supermap(s.h_in, s.h_out, s.k_in, s.k_out, s.kraus[2:]),
        ]
        c = realize_probabilistic(parts)
        np.testing.assert_allclose(sum(c.projectors), np.eye(c.dim_a), atol=1e-14)
        e = random_channel(s.h_in, s.h_out, 2, rng)
        rho = random_density(s.k_in, rng)
        total = sum(run_circuit(c, e, rho, outcome=j) for j in range(2))
        joint = run_circuit(c, e, rho)
        assert np.linalg.norm(total - joint) <= 1e-10

    def test_sum_must_be_deterministic(self):
        half = Supermap(2, 2, 2, 2, (np.sqrt(0.5) * np.eye(4),))
        with pytest.raises(NotDeterministicError):
            realize_probabilistic([half, half, half])


class TestRunCircuit:
    def test_matches_direct_action_on_channels(self, rng):
        s = random_circuit_supermap(rng, dims=(2, 3, 2, 2))
        c = realize(s)
        for _ in range(5):
            e = random_channel(2, 3, 2, rng)
            rho = random_density(2, rng)
            direct = apply_operation(apply_supermap(s, e), rho)
            assert np.linalg.norm(run_circuit(c, e, rho) - direct) <= 1e-9

    def test_channel_output_has_unit_trace(self, rng):
        s = random_circuit_supermap(rng)
        c = realize(s)
        e = random_channel(2, 2, 2, rng)
        rho = random_density(2, rng)
        assert abs(np.trace(run_circuit(c, e, rho)) - 1.0) <= 1e-10


class TestDelayedReading:
    def test_single_deterministic_part(self, rng):
        s = random_circuit_supermap(rng)
        report = delayed_reading_check([s], trials=5, seed=2)
        assert report.passed
        assert report.max_action_residual <= 1e-10

    def test_two_part_identity_split_probabilities(self, rng):
        half = Supermap(2, 2, 2, 2, (np.sqrt(0.5) * np.eye(4),))
        c = realize_probabilistic([half, half])
        e = random_channel(2, 2, 2, rng)
        rho = random_density(2, rng)
        probs = [float(np.trace(run_circuit(c, e, rho, outcome=j)).real) for j in range(2)]
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-10)

    def test_report_is_frozen(self, rng):
        report = delayed_reading_check([random_circuit_supermap(rng)], trials=1, seed=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.max_action_residual = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.tol = 1.0

    def test_random_three_part_decomposition(self, rng):
        s = random_circuit_supermap(rng, dim_a=3)
        parts = [
            Supermap(s.h_in, s.h_out, s.k_in, s.k_out, (k,)) for k in s.kraus
        ]
        report = delayed_reading_check(parts, trials=50, seed=7)
        assert report.max_action_residual <= 1e-8
        assert report.max_probability_residual <= 1e-8


class TestProjectorValidation:
    def test_non_orthogonal_projectors_rejected(self, rng):
        s = random_circuit_supermap(rng, dim_a=2)
        c = realize(s)
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="orthogonal"):
            CircuitRealization(v=c.v, w=c.w, dim_a=2, dim_b=c.dim_b,
                               projectors=(p, p))

    def test_incomplete_projectors_rejected(self, rng):
        s = random_circuit_supermap(rng, dim_a=2)
        c = realize(s)
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="sum"):
            CircuitRealization(v=c.v, w=c.w, dim_a=2, dim_b=c.dim_b,
                               projectors=(p,))

    def test_rotated_projector_basis_grouping(self, rng):
        # projectors need not be diagonal in the ancilla basis: rotate a
        # two-part split by a unitary on A and check the grouped actions
        s = random_circuit_supermap(rng, dim_a=2)
        u = random_isometry(2, 2, rng)
        rotated_kraus = tuple(
            sum(u[i, j] * s.kraus[i] for i in range(2)) for j in range(2)
        )
        rotated = Supermap(s.h_in, s.h_out, s.k_in, s.k_out, rotated_kraus)
        c = realize(rotated)
        projs = (
            u @ np.diag([1.0, 0.0]).astype(complex) @ dag(u),
            u @ np.diag([0.0, 1.0]).astype(complex) @ dag(u),
        )
        measured = CircuitRealization(v=c.v, w=c.w, dim_a=2, dim_b=c.dim_b,
                                      projectors=projs)
        parts = circuit_to_supermap(measured, (s.h_in, s.h_out, s.k_in, s.k_out))
        total = sum_supermaps(parts)
        assert action_distance(total, rotated) <= 1e-8


DIM = st.integers(1, 3)


class TestRunCircuitContraction:
    """run_circuit's one contraction against the former I_B ⊗ E construction."""

    @staticmethod
    def _measured_circuit(rng, dims, dim_a, dim_b, labels, rotate):
        h_in, h_out, k_in, k_out = dims
        v = random_isometry(dim_b * h_in, k_in, rng)
        w = random_isometry(k_out * dim_a, h_out * dim_b, rng)
        u = random_isometry(dim_a, dim_a, rng) if rotate else np.eye(dim_a)
        projectors = tuple(
            u @ np.diag([1.0 if x == g else 0.0 for x in labels]) @ dag(u)
            for g in range(max(labels) + 1)
        )
        return CircuitRealization(v=v, w=w, dim_a=dim_a, dim_b=dim_b, projectors=projectors)

    @given(
        dims=st.tuples(DIM, DIM, DIM, DIM),
        dim_a=DIM,
        dim_b=DIM,
        rank=DIM,
        rotate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_reference_on_every_outcome(self, dims, dim_a, dim_b, rank, rotate, seed, data):
        h_in, h_out, k_in, k_out = dims
        assume(dim_b * h_in >= k_in and k_out * dim_a >= h_out * dim_b)
        # Ancilla basis index i goes to projector labels[i]; skipped labels
        # give zero projectors.
        labels = data.draw(st.lists(st.integers(0, dim_a - 1), min_size=dim_a, max_size=dim_a))
        rng = np.random.default_rng(seed)
        c = self._measured_circuit(rng, dims, dim_a, dim_b, labels, rotate)
        op = random_operation(h_in, h_out, max(rank, -(-h_in // h_out)), rng)
        rho = random_density(k_in, rng)
        for outcome in (None, *range(len(c.projectors))):
            got = run_circuit(c, op, rho, outcome=outcome)
            expected = reference_run_circuit(c, op, rho, outcome=outcome)
            assert got.shape == (k_out, k_out)
            assert np.linalg.norm(got - expected) <= 1e-12

    def test_makes_no_quantum_operation(self, rng, monkeypatch):
        c = self._measured_circuit(rng, (2, 3, 2, 2), 3, 2, [0, 1, 1], True)
        op = random_channel(2, 3, 2, rng)
        rho = random_density(2, rng)
        calls = []
        original = QuantumOperation.__post_init__

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(QuantumOperation, "__post_init__", counting)
        for outcome in (None, 0, 1):
            run_circuit(c, op, rho, outcome=outcome)
        assert calls == []
        reference_run_circuit(c, op, rho)  # the former path builds two
        assert len(calls) == 2

    def test_near_cutoff_operation_is_not_rejected(self, rng, monkeypatch):
        # lambda_min = -0.9e-9 passes validation (floor -1e-9 * max(1, 0.3)),
        # but I_3 ⊗ E has lambda_min = -2.7e-9 against the floor -1e-9 * 0.9,
        # so the former path rejected a valid operation.
        u = random_isometry(4, 4, rng)
        op = QuantumOperation(2, 2, u @ np.diag([0.3, 0.2, 0.1, -0.9e-9]) @ dag(u))
        c = CircuitRealization(
            v=random_isometry(6, 2, rng), w=random_isometry(6, 6, rng), dim_a=3, dim_b=3
        )
        rho = random_density(2, rng)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            reference_run_circuit(c, op, rho)
        got = run_circuit(c, op, rho)
        monkeypatch.setattr(QuantumOperation, "__post_init__", lambda self: None)
        expected = reference_run_circuit(c, op, rho)
        assert np.linalg.norm(got - expected) <= 1e-12

    def test_port_and_outcome_checks_kept(self, rng):
        c = realize(random_circuit_supermap(rng))
        op = random_channel(2, 2, 2, rng)
        with pytest.raises(ValueError, match="input state shape"):
            run_circuit(c, op, np.eye(3))
        with pytest.raises(ValueError, match="open ports"):
            run_circuit(c, random_channel(2, 3, 2, rng), random_density(2, rng))
        with pytest.raises(ValueError, match="no measurement projectors"):
            run_circuit(c, op, random_density(2, rng), outcome=0)


class TestCircuitImmutable:
    def test_fields_cannot_be_reassigned(self, rng):
        c = realize_probabilistic([random_circuit_supermap(rng)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.v = np.eye(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.dim_b = 1

    def test_arrays_are_read_only(self, rng):
        c = realize_probabilistic([random_circuit_supermap(rng)])
        with pytest.raises(ValueError):
            c.v[0, 0] = 1.0
        with pytest.raises(ValueError):
            c.w[0, 0] = 1.0
        with pytest.raises(ValueError):
            c.projectors[0][0, 0] = 0.0

    def test_arrays_are_private_copies(self):
        v = np.eye(2, dtype=complex)
        p = np.eye(1, dtype=complex)
        c = CircuitRealization(v=v, w=np.eye(2), dim_a=1, dim_b=1, projectors=(p,))
        v[0, 0] = 5.0
        p[0, 0] = 0.0
        assert c.v[0, 0] == 1.0
        assert c.projectors[0][0, 0] == 1.0
