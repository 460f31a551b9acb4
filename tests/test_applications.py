"""Sandwich, programmable-device and tomography constructions."""

import numpy as np
import pytest

from supermaps.applications import (
    ProgrammableDevice,
    TomographySetup,
    informationally_complete_tester_for,
    is_faithful,
    povm_as_channel,
    programmable_channel,
    programmable_povm,
    sandwich_supermap,
    tomography_supermap,
)
from supermaps.linalg import ResidualError, hermiticity_residual, kron, random_density, random_isometry
from supermaps.operations import (
    KrausSet,
    QuantumOperation,
    apply_operation,
    compose,
    identity_operation,
    is_channel,
    kraus_to_choi,
    random_channel,
    tensor,
)
from supermaps.supermap import action_distance, apply_supermap, identity_supermap, is_deterministic
from supermaps.testers import is_informationally_complete

from conftest import X, Y, Z, I2, bell_projector

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def unitary_channel(u):
    return kraus_to_choi(KrausSet(u.shape[1], u.shape[0], (u,)))


def trace_and_replace_channel(sigma):
    """rho -> sigma Tr[rho], built from explicit Kraus operators."""
    d = sigma.shape[0]
    w, v = np.linalg.eigh(sigma)
    ops = []
    for k in range(d):
        if w[k] < 1e-14:
            continue
        for j in range(d):
            bra = np.zeros((1, d), dtype=complex)
            bra[0, j] = 1.0
            ops.append(np.sqrt(w[k]) * v[:, [k]] @ bra)
    return kraus_to_choi(KrausSet(d, d, tuple(ops)))


def pauli_eigenbasis_povm():
    povm = []
    for pauli in (X, Y, Z):
        w, v = np.linalg.eigh(pauli)
        for k in range(2):
            povm.append(np.outer(v[:, k], v[:, k].conj()) / 3.0)
    return povm


def repetition_encoder():
    """Isometry channel copying one qubit into the two-way repetition subspace."""
    v = np.zeros((8, 2), dtype=complex)
    v[0, 0] = 1.0  # |000><0|
    v[7, 1] = 1.0  # |111><1|
    return kraus_to_choi(KrausSet(2, 8, (v,)))


def majority_vote_decoder():
    """Syndrome-corrected majority decoder: coherent on each error subspace.

    One Kraus operator per correctable flip pattern e, mapping
    span{|000 xor e>, |111 xor e>} back onto the logical qubit.
    """
    ops = []
    for e in (0b000, 0b100, 0b010, 0b001):
        k = np.zeros((2, 8), dtype=complex)
        k[0, e] = 1.0  # |000> with flips e decodes to |0>
        k[1, e ^ 0b111] = 1.0  # |111> with flips e decodes to |1>
        ops.append(k)
    return kraus_to_choi(KrausSet(8, 2, tuple(ops)))


def flip_site_channel(site: int, p: float):
    """Bit flip with probability p on one known site of three qubits."""
    x_site = [I2, I2, I2]
    x_site[site] = X
    flip = kron(kron(x_site[0], x_site[1]), x_site[2])
    return kraus_to_choi(
        KrausSet(8, 8, (np.sqrt(1 - p) * np.eye(8), np.sqrt(p) * flip))
    )


class TestSandwich:
    def test_identity_pair(self):
        s = sandwich_supermap(identity_operation(2), identity_operation(2))
        assert action_distance(s, identity_supermap(2, 2)) <= 1e-12

    def test_unitary_sandwich_matches_compose(self, rng):
        u = random_isometry(2, 2, rng)
        v = random_isometry(2, 2, rng)
        s = sandwich_supermap(unitary_channel(u), unitary_channel(v))
        e = random_channel(2, 2, 2, rng)
        got = apply_supermap(s, e)
        expected = compose(unitary_channel(v), compose(e, unitary_channel(u)))
        np.testing.assert_allclose(got.choi, expected.choi, atol=1e-10)

    def test_general_channel_sandwich_matches_compose(self, rng):
        pre = random_channel(2, 3, 2, rng)
        post = random_channel(3, 2, 2, rng)
        s = sandwich_supermap(pre, post)
        e = random_channel(3, 3, 2, rng)
        got = apply_supermap(s, e)
        expected = compose(post, compose(e, pre))
        assert np.linalg.norm(got.choi - expected.choi) <= 1e-9

    def test_sandwich_is_deterministic(self, rng):
        s = sandwich_supermap(random_channel(2, 2, 2, rng), random_channel(2, 2, 2, rng))
        assert is_deterministic(s)

    def test_repetition_code_corrects_single_site_flips(self):
        enc = repetition_encoder()
        dec = majority_vote_decoder()
        s = sandwich_supermap(enc, dec)
        for site in range(3):
            for p in (0.0, 0.3, 1.0):
                noisy = flip_site_channel(site, p)
                out = apply_supermap(s, noisy)
                assert np.linalg.norm(out.choi - identity_operation(2).choi) <= 1e-8

    def test_unitary_pre_sandwich_realizes_with_trivial_memory(self, rng):
        # observed: coding/decoding circuits need no side channel past the input
        from supermaps.realization import realize

        u = random_isometry(2, 2, rng)
        s = sandwich_supermap(unitary_channel(u), random_channel(2, 2, 2, rng))
        assert realize(s).dim_b == 1

    def test_postprocessing_only_sandwich_preserves_probabilities(self, rng):
        from supermaps.supermap import is_probability_preserving

        s = sandwich_supermap(identity_operation(2), random_channel(2, 2, 2, rng))
        assert is_probability_preserving(s)

    def test_non_channel_inputs_rejected(self, rng):
        half = QuantumOperation(2, 2, bell_projector(2) / 2)
        with pytest.raises(ValueError, match="channel"):
            sandwich_supermap(half, identity_operation(2))


class TestProgrammableChannel:
    def test_identity_interaction(self, rng):
        dev = ProgrammableDevice(unitary=np.eye(4, dtype=complex), dim_sys=2, dim_prog=2)
        for _ in range(3):
            ch = programmable_channel(dev, random_density(2, rng))
            np.testing.assert_allclose(ch.choi, identity_operation(2).choi, atol=1e-10)

    def test_swap_gives_constant_channel(self, rng):
        dev = ProgrammableDevice(unitary=SWAP, dim_sys=2, dim_prog=2)
        sigma = random_density(2, rng)
        ch = programmable_channel(dev, sigma)
        oracle = trace_and_replace_channel(sigma)
        assert np.linalg.norm(ch.choi - oracle.choi) <= 1e-10
        # the constant channel's Choi operator factorizes as sigma ⊗ I
        np.testing.assert_allclose(ch.choi, kron(sigma, np.eye(2)), atol=1e-10)

    def test_cnot_with_zero_program_dephases(self):
        dev = ProgrammableDevice(unitary=CNOT, dim_sys=2, dim_prog=2)
        ch = programmable_channel(dev, KET0)
        dephasing = kraus_to_choi(KrausSet(2, 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))))
        assert np.linalg.norm(ch.choi - dephasing.choi) <= 1e-12

    def test_always_a_channel(self, rng):
        u = random_isometry(6, 6, rng)
        dev = ProgrammableDevice(unitary=u, dim_sys=2, dim_prog=3)
        for _ in range(5):
            assert is_channel(programmable_channel(dev, random_density(3, rng)))

    def test_affine_in_the_program(self, rng):
        u = random_isometry(4, 4, rng)
        dev = ProgrammableDevice(unitary=u, dim_sys=2, dim_prog=2)
        s1, s2 = random_density(2, rng), random_density(2, rng)
        lam = 0.3
        mixed = programmable_channel(dev, lam * s1 + (1 - lam) * s2)
        split = lam * programmable_channel(dev, s1).choi + (1 - lam) * programmable_channel(dev, s2).choi
        assert np.linalg.norm(mixed.choi - split) <= 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            ProgrammableDevice(unitary=np.ones((4, 4)), dim_sys=2, dim_prog=2)

    def test_validated_arrays_are_read_only_copies(self):
        u, f = SWAP.copy(), bell_projector(2) / 2
        dev = ProgrammableDevice(unitary=u, dim_sys=2, dim_prog=2)
        setup = TomographySetup(faithful_state=f, h_in=2, h_out=2)
        for m in (dev.unitary, setup.faithful_state):
            with pytest.raises(ValueError):
                m[0, 0] = 5.0
        u[0, 0] = f[0, 0] = 5.0
        assert dev.unitary[0, 0] == 1.0 and setup.faithful_state[0, 0] == 0.5


class TestProgrammablePovm:
    def test_trivial_joint_povm(self, rng):
        got = programmable_povm([np.eye(4, dtype=complex)], random_density(2, rng))
        assert len(got) == 1
        np.testing.assert_allclose(got[0], np.eye(2), atol=1e-12)

    def test_computational_basis_with_zero_program(self):
        joint = []
        for a in range(2):
            for b in range(2):
                p = np.zeros((4, 4), dtype=complex)
                p[2 * a + b, 2 * a + b] = 1.0
                joint.append(p)
        got = programmable_povm(joint, KET0)
        np.testing.assert_allclose(got[0], KET0, atol=1e-14)
        np.testing.assert_allclose(got[1], np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(got[2], np.diag([0.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(got[3], np.zeros((2, 2)), atol=1e-14)

    def test_random_joint_povm_normalizes(self, rng):
        # rank-one joint POVM from the columns of a random unitary
        u4 = random_isometry(4, 4, rng)
        joint = [u4[:, [j]] @ u4[:, [j]].conj().T for j in range(4)]
        sigma = random_density(2, rng)
        got = programmable_povm(joint, sigma)
        np.testing.assert_allclose(sum(got), np.eye(2), atol=1e-10)
        probs_direct = []
        rho = random_density(2, rng)
        for e, p in zip(joint, got):
            lhs = np.trace(e @ kron(rho, sigma))
            rhs = np.trace(p @ rho)
            assert abs(lhs - rhs) <= 1e-10


class TestTomography:
    def test_maximally_entangled_probe_rescales_choi(self, rng):
        setup = TomographySetup(faithful_state=bell_projector(2) / 2, h_in=2, h_out=2)
        s = tomography_supermap(setup)
        e = random_channel(2, 2, 2, rng)
        out = apply_supermap(s, e)
        assert np.linalg.norm(out.choi - e.choi / 2) <= 1e-12

    def test_identity_operation_returns_probe(self, rng):
        f = random_density(4, rng)
        setup = TomographySetup(faithful_state=f, h_in=2, h_out=2)
        s = tomography_supermap(setup)
        out = apply_supermap(s, identity_operation(2))
        assert np.linalg.norm(out.choi - f) <= 1e-12

    def test_action_matches_local_application_oracle(self, rng):
        f = random_density(4, rng)
        setup = TomographySetup(faithful_state=f, h_in=2, h_out=3)
        s = tomography_supermap(setup)
        for _ in range(5):
            e = random_channel(2, 3, 2, rng)
            got = apply_supermap(s, e).choi
            oracle = apply_operation(tensor(e, identity_operation(2)), f)
            assert np.linalg.norm(got - oracle) <= 1e-10

    def test_supermap_is_deterministic(self, rng):
        setup = TomographySetup(faithful_state=random_density(4, rng), h_in=2, h_out=2)
        assert is_deterministic(tomography_supermap(setup))


def realignment_rank(f, d):
    """Operator Schmidt rank via the realignment matrix (independent oracle)."""
    r = f.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    sv = np.linalg.svd(r, compute_uv=False)
    return int(np.sum(sv > 1e-8 * sv[0]))


class TestFaithfulness:
    def test_maximally_entangled_is_faithful(self):
        setup = TomographySetup(faithful_state=bell_projector(2) / 2, h_in=2, h_out=2)
        assert is_faithful(setup)

    def test_product_state_is_not(self, rng):
        rho = random_density(2, rng)
        setup = TomographySetup(faithful_state=kron(rho, rho), h_in=2, h_out=2)
        assert not is_faithful(setup)

    def test_separable_werner_like_state(self):
        # singlet fraction 0.3: separable, full rank: and still faithful
        # (computed verdict, cross-checked against the realignment oracle)
        psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        f = 0.3 * np.outer(psi, psi.conj()) + 0.7 * np.eye(4) / 4
        setup = TomographySetup(faithful_state=f, h_in=2, h_out=2)
        assert is_faithful(setup)
        assert realignment_rank(f, 2) == 4

    def test_rank_test_agrees_with_realignment_oracle(self, rng):
        for _ in range(10):
            if rng.uniform() < 0.5:
                f = random_density(4, rng)
            else:
                rho = random_density(2, rng)
                f = kron(rho, random_density(2, rng))
            setup = TomographySetup(faithful_state=f, h_in=2, h_out=2)
            assert is_faithful(setup) == (realignment_rank(f, 2) == 4)


class TestInformationallyCompleteTester:
    def test_faithful_probe_with_pauli_product_povm(self):
        setup = TomographySetup(faithful_state=bell_projector(2) / 2, h_in=2, h_out=2)
        povm1q = pauli_eigenbasis_povm()
        joint = [kron(a, b) for a in povm1q for b in povm1q]
        t = informationally_complete_tester_for(setup, joint)
        assert t.n_outcomes >= 16
        assert is_informationally_complete(t)

    def test_non_faithful_probe_rejected(self, rng):
        rho = random_density(2, rng)
        setup = TomographySetup(faithful_state=kron(rho, rho), h_in=2, h_out=2)
        with pytest.raises(ValueError, match="faithful"):
            informationally_complete_tester_for(setup, [np.eye(4, dtype=complex)])

    def test_incomplete_povm_rejected(self):
        setup = TomographySetup(faithful_state=bell_projector(2) / 2, h_in=2, h_out=2)
        basis_projectors = [np.diag([1.0 if i == j else 0.0 for i in range(4)]) for j in range(4)]
        with pytest.raises(ValueError, match="informationally complete"):
            informationally_complete_tester_for(setup, basis_projectors)

    # The POVM was not validated: NaN raised LinAlgError from the rank's SVD, and
    # a ragged or empty list numpy's stacking errors.
    @pytest.mark.parametrize("povm, message", [
        ([np.full((4, 4), np.nan)], "POVM element has non-finite entries"),
        ([np.eye(4), np.eye(2)], "POVM element shape (2, 2) != (4, 4)"),
        ([], "POVM is empty"),
    ], ids=["nan", "ragged", "empty"])
    def test_povm_is_validated(self, povm, message):
        setup = TomographySetup(faithful_state=bell_projector(2) / 2, h_in=2, h_out=2)
        with pytest.raises(ValueError) as exc:
            informationally_complete_tester_for(setup, povm)
        assert str(exc.value) == message

    def test_statistics_invert_to_the_channel(self, rng):
        # the operational content of completeness: outcome probabilities of an
        # unknown channel determine its Choi operator by linear inversion
        from supermaps.testers import evaluate

        setup = TomographySetup(faithful_state=random_density(4, rng), h_in=2, h_out=2)
        povm = []
        for _ in range(5):  # five rotated rank-one bases span all 16 operators
            u = random_isometry(4, 4, rng)
            povm.extend([(u[:, [j]] @ u[:, [j]].conj().T) / 5 for j in range(4)])
        t = informationally_complete_tester_for(setup, povm)
        unknown = random_channel(2, 2, 3, rng)
        probs = np.array(list(evaluate(t, unknown)))
        stack = np.stack([p.T.reshape(-1) for p in t.effects])
        vec_choi, *_ = np.linalg.lstsq(stack, probs, rcond=None)
        assert np.linalg.norm(vec_choi.reshape(4, 4) - unknown.choi) <= 1e-8


class TestPovmAsChannel:
    def test_trivial_povm(self, rng):
        ch = povm_as_channel([np.eye(3, dtype=complex)])
        assert (ch.dim_in, ch.dim_out) == (3, 1)
        rho = random_density(3, rng)
        np.testing.assert_allclose(apply_operation(ch, rho), [[1.0]], atol=1e-12)

    def test_computational_basis_dephases(self):
        ch = povm_as_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        dephasing = kraus_to_choi(KrausSet(2, 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))))
        np.testing.assert_allclose(ch.choi, dephasing.choi, atol=1e-12)

    def test_diagonal_reads_out_probabilities(self, rng):
        povm = pauli_eigenbasis_povm()
        ch = povm_as_channel(povm)
        assert is_channel(ch)
        rho = random_density(2, rng)
        out = apply_operation(ch, rho)
        for n, p in enumerate(povm):
            assert abs(out[n, n] - np.trace(p @ rho)) <= 1e-10
        off_diag = out - np.diag(np.diag(out))
        assert np.linalg.norm(off_diag) <= 1e-10

    def test_non_psd_element_named_even_when_the_sum_is_identity(self):
        povm = [np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])]
        with pytest.raises(ValueError, match="POVM element is not positive semidefinite"):
            povm_as_channel(povm)

    def test_rejects_wrong_sum_and_shapes(self):
        with pytest.raises(ValueError, match="does not sum to the identity"):
            povm_as_channel([np.diag([1.0, 0.0])])
        with pytest.raises(ValueError, match="element shape"):
            povm_as_channel([np.eye(2), np.zeros((3, 3))])
        with pytest.raises(ValueError, match="empty"):
            povm_as_channel([])

    def test_elements_at_the_hermiticity_edge_are_accepted(self):
        # I/4 ± iδX, iX anti-Hermitian: each element's hermiticity residual is
        # 9.0e-9, inside HERM_TOL, and the four sum to I exactly.  A Choi
        # operator made of the plain transposes would read twice that, 1.8e-8.
        delta = 9.0e-9 / (2 * np.sqrt(2))
        povm = [I2 / 4 + sign * 1j * delta * X for sign in (1, 1, -1, -1)]
        assert all(abs(hermiticity_residual(p) - 9.0e-9) <= 1e-15 for p in povm)
        ch = povm_as_channel(povm)
        assert hermiticity_residual(ch.choi) <= 1e-15
        plain = np.zeros((4, 2, 4, 2), dtype=complex)
        for n, p in enumerate(povm):
            plain[n, :, n, :] = p.T
        with pytest.raises(ValueError, match="not Hermitian"):
            QuantumOperation(2, 4, plain.reshape(8, 8))

    @pytest.mark.parametrize("excess, raises", [(5e-9, True), (5e-10, False)])
    def test_sum_above_the_identity_is_bounded_at_pos_tol(self, excess, raises):
        # check_povm accepts both sums (EQ_TOL); the operation's trace rule decides.
        povm = [(1 + excess) / 2 * I2] * 2
        if raises:
            with pytest.raises(ResidualError, match=r"operation increases trace .* 5\.000e-09\)$"):
                povm_as_channel(povm)
        else:
            assert povm_as_channel(povm).dim_out == 2

    def test_zero_element_gives_a_zero_block(self, rng):
        u = random_isometry(3, 3, rng)
        p = u[:, :2] @ u[:, :2].conj().T
        ch = povm_as_channel([p, np.zeros((3, 3)), np.eye(3) - p])
        choi4 = ch.choi4
        assert not np.any(choi4[1]) and not np.any(choi4[:, :, 1])
        np.testing.assert_allclose(choi4[0, :, 0], p.T, rtol=0, atol=1e-15)
