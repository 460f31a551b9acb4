"""Circuit factorization of supermaps and its probabilistic extension."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from supermaps import linalg
from supermaps.cli import main
from supermaps import io as sio
from supermaps.linalg import (
    dag,
    isometry_residual,
    kron,
    partial_trace,
    permute_systems,
    random_density,
    random_isometry,
)
from supermaps.operations import (
    QuantumOperation,
    _check_ports,
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
    EffectMap,
    NotDeterministicError,
    Supermap,
    action_distance,
    apply_supermap,
    effect_map_of,
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

    @pytest.mark.parametrize("outcome", [-1, 2, 5])
    def test_outcome_out_of_range_raises(self, rng, outcome):
        half = Supermap(2, 2, 2, 2, (np.sqrt(0.5) * np.eye(4),))
        c = realize_probabilistic([half, half])
        e = random_channel(2, 2, 2, rng)
        rho = random_density(2, rng)
        with pytest.raises(ValueError, match=f"outcome {outcome} out of range for 2 projectors"):
            run_circuit(c, e, rho, outcome=outcome)


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

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (1, 3, 2, 1), (3, 2, 2, 3)])
    @pytest.mark.parametrize(
        "excess, tiny_part, tol", [(5e-9, False, 1e-8), (5e-9, True, 1e-8), (3.5e-7, False, 1e-6)]
    )
    def test_parts_within_tol_give_a_residual_not_an_error(self, dims, excess, tiny_part, tol):
        # S scaled by 1 + excess increases trace by more than the POS_TOL floor
        # but less than tol: realize_probabilistic accepts it, so the check
        # must report the excess rather than reject the part's output.
        s = random_circuit_supermap(np.random.default_rng(0), dims)
        parts = [Supermap(*dims, np.sqrt(1 + excess) * s.kraus)]
        if tiny_part:
            parts.append(Supermap(*dims, 1e-6 * s.kraus[:1]))  # 1e-12 times S_0
        report = delayed_reading_check(parts, trials=3, seed=0, tol=tol)
        assert report.passed
        assert report.max_probability_residual == pytest.approx(excess, rel=1e-3)
        assert report.max_action_residual <= 1e-12


def ref_run_circuit(c, op, rho, outcome=None):
    """run_circuit as it was when delayed reading called it once per outcome."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (c.k_in, c.k_in):
        raise ValueError(f"input state shape {rho.shape} != ({c.k_in}, {c.k_in})")
    _check_ports(op, c.h_in, c.h_out, "circuit")
    if outcome is not None:
        if c.projectors is None:
            raise ValueError("circuit has no measurement projectors")
        if not 0 <= outcome < len(c.projectors):
            raise ValueError(
                f"outcome {outcome} out of range for {len(c.projectors)} projectors"
            )
    b, h_in, h_out = c.dim_b, c.h_in, c.h_out
    state = (c.v @ rho @ dag(c.v)).reshape(b, h_in, b, h_in)  # on (B, H_in)
    mid = np.einsum("namb,xayb->nxmy", op.choi4, state)  # on (H_out, B)
    mid = mid.reshape(h_out * b, h_out * b)
    out = (c.w @ mid @ dag(c.w)).reshape(c.k_out, c.dim_a, c.k_out, c.dim_a)  # (K_out, A)
    if outcome is None:
        return np.einsum("kala->kl", out)
    p = c.projectors[outcome]
    return np.einsum("ab,kblc,ca->kl", p, out, p)


def ref_delayed_reading_check(parts, trials, seed, tol=linalg.EQ_TOL):
    """delayed_reading_check as it was: the whole circuit once per outcome, and
    each part's direct action built as a validated QuantumOperation."""
    parts = list(parts)
    circuit = realize_probabilistic(parts, tol)
    rng = np.random.default_rng(seed)
    worst_action = 0.0
    worst_prob = 0.0
    h_in, h_out, k_in = circuit.h_in, circuit.h_out, circuit.k_in
    for _ in range(trials):
        rank = int(rng.integers(1, 4))
        channel = random_channel(h_in, h_out, max(rank, -(-h_in // h_out)), rng)
        rho = random_density(k_in, rng)
        total_p = 0.0
        for j, part in enumerate(parts):
            direct = apply_operation(apply_supermap(part, channel), rho)
            circ = ref_run_circuit(circuit, channel, rho, outcome=j)
            worst_action = max(worst_action, linalg.frob(direct - circ))
            total_p += float(np.trace(circ).real)
        worst_prob = max(worst_prob, abs(total_p - 1.0))
    return worst_action, worst_prob


@given(
    dims=st.tuples(*(st.integers(1, 4) for _ in range(4))),
    n_parts=st.integers(1, 3),
    trials=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_delayed_reading_matches_reference_bit_for_bit(dims, n_parts, trials, seed):
    """One circuit run per trial, read at every outcome, against one run per outcome."""
    h_in, h_out, k_in, k_out = dims
    rng = np.random.default_rng(seed)
    dim_b = max(int(rng.integers(1, 3)), -(-k_in // h_in))
    dim_a = max(n_parts, int(rng.integers(1, 4)), -(-(h_out * dim_b) // k_out))
    s = random_circuit_supermap(rng, dims, dim_a=dim_a, dim_b=dim_b)
    parts = [Supermap(*dims, ops) for ops in np.array_split(s.kraus, n_parts)]
    report = delayed_reading_check(parts, trials, seed)
    expected = ref_delayed_reading_check(parts, trials, seed)
    got = (report.max_action_residual, report.max_probability_residual)
    assert np.array(got).tobytes() == np.array(expected).tobytes()


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

    @pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
    def test_orthogonality_boundary(self, side):
        # P = |0><0| and Q = |u><u| with <0|u> = eps have ||PQ||_F = eps and
        # ||P||_F ||Q||_F = 1, so the bound is tol itself; P + Q misses the
        # identity by the same eps, so below the bound the circuit is valid.
        tol = 1e-3
        eps = side * tol
        u = np.array([eps, np.sqrt(1 - eps**2)])
        projectors = (np.diag([1.0, 0.0]), np.outer(u, u))
        build = lambda: CircuitRealization(np.eye(2), np.eye(2), 2, 1, projectors, tol)
        if side < 1:
            build()
        else:
            with pytest.raises(ValueError, match="orthogonal"):
                build()

    @pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
    def test_orthogonality_bound_scales_with_the_norms(self, side):
        # Rank-2 P and Q: ||P||_F ||Q||_F = 2, so the bound is 2 tol.  Q is
        # P's complement turned by s = sin(theta) between |0> and |2>, so
        # ||PQ||_F = s; the sum misses the identity by s / sqrt(2), which
        # fails at any s above sqrt(2) tol, so below the bound the sum is
        # what rejects the projectors.
        tol = 1e-3
        s = side * 2 * tol
        u = np.array([s, 0.0, np.sqrt(1 - s**2), 0.0])
        projectors = (np.diag([1.0, 1.0, 0.0, 0.0]), np.outer(u, u) + np.diag([0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="sum to the identity" if side < 1 else "orthogonal"):
            CircuitRealization(np.eye(2), np.eye(4), 4, 1, projectors, tol)

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


class TestOneToleranceForEveryContract:
    """realize checks determinism, the effect map and V/W all at the caller's tol."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-6, 1e-2])
    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("frac", [0.4, 0.6])
    def test_realize_succeeds_exactly_when_deterministic(self, rng, tol, sign, frac):
        # Scaling every Kraus operator by c = 1 ± frac·tol moves the
        # determinism, effect-map and V residuals to about |c² − 1| =
        # 2·frac·tol, on either side of tol; W does not depend on the scale.
        c = 1 + sign * frac * tol
        fixtures = [identity_supermap(2, 2), random_circuit_supermap(rng)]
        fixtures += [random_circuit_supermap(rng, dims=dims) for dims in ((1, 2, 2, 3), (3, 2, 2, 1))]
        for s in fixtures:
            scaled = Supermap(s.h_in, s.h_out, s.k_in, s.k_out, tuple(c * k for k in s.kraus))
            try:
                realize(scaled, tol)
                realized = True
            except ValueError:
                realized = False
            assert is_deterministic(scaled, tol) == realized == (frac < 0.5)

    def test_effect_map_keeps_tol_and_names_its_residual(self):
        s = Supermap(2, 2, 2, 2, (0.999 * np.eye(4),))
        em = effect_map_of(s, 1e-2)
        assert em.tol == 1e-2
        with pytest.raises(ValueError, match=r"not identity preserving \(residual 1\.999e-03\)$"):
            EffectMap(em.kraus)

    def test_circuit_checks_run_at_its_tol(self):
        v = 1.001 * np.eye(2)  # ||V†V − I|| / ||I|| = 1.001² − 1
        with pytest.raises(ValueError, match=r"^V is not an isometry \(residual 2\.001e-03\)$"):
            CircuitRealization(v=v, w=np.eye(2), dim_a=1, dim_b=1)
        c = CircuitRealization(v=v, w=np.eye(2), dim_a=1, dim_b=1, tol=1e-2)
        assert c.v_residual == isometry_residual(v) and c.w_residual == 0.0

    def test_nan_isometry_rejected(self):
        with pytest.raises(ValueError, match="W is not an isometry"):
            CircuitRealization(v=np.eye(2), w=np.full((2, 2), np.nan), dim_a=1, dim_b=1)

    def test_residual_fields_are_derived_and_frozen(self, rng):
        c = realize(random_circuit_supermap(rng))
        assert (c.v_residual, c.w_residual) == (isometry_residual(c.v), isometry_residual(c.w))
        with pytest.raises(TypeError):
            CircuitRealization(v=c.v, w=c.w, dim_a=c.dim_a, dim_b=c.dim_b, w_residual=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.w_residual = 0.0


@pytest.fixture
def isometry_calls(monkeypatch):
    """Records every isometry_residual call, in each package module that imported it."""
    original = linalg.isometry_residual
    calls = []

    def counted(m):
        calls.append(m.shape)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "supermaps" and getattr(module, "isometry_residual", None) is original:
            monkeypatch.setattr(module, "isometry_residual", counted)
    return calls


class TestEachContractMeasuredOnce:
    """One realization measures two residuals, V's and W's; V's is the effect map's."""

    def test_realize(self, rng, isometry_calls):
        s = random_circuit_supermap(rng)  # built from a circuit, which measures V and W
        isometry_calls.clear()
        realize(s)
        assert len(isometry_calls) == 2

    def test_realize_probabilistic(self, rng, isometry_calls):
        s = random_circuit_supermap(rng, dim_a=3)
        parts = [Supermap(s.h_in, s.h_out, s.k_in, s.k_out, (k,)) for k in s.kraus]
        isometry_calls.clear()
        realize_probabilistic(parts)
        assert len(isometry_calls) == 2

    def test_cli_realize(self, rng, tmp_path, capsys, isometry_calls):
        path = tmp_path / "map.json"
        sio.save_json(path, sio.supermap_to_json(random_circuit_supermap(rng)))
        isometry_calls.clear()
        assert main(["realize", str(path)]) == 0
        assert len(isometry_calls) == 2
