"""Worked supermap constructions: sandwiches, programming, tomography.

Covers coding/decoding sandwiches (insert an operation between two fixed
channels), programmable channels and measurements driven by a program state,
and the tomography supermap sending an operation E to the bipartite state
(E ⊗ I)(F) for a faithful probe state F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    EQ_TOL,
    _check_dims,
    _hermitian_part,
    check_povm,
    dag,
    is_density_matrix,
    isometry_residual,
    kraus_sum,
    kron,
    numerical_rank,
    psd_factors,
    readonly_copy,
)
from .operations import (
    KrausSet,
    QuantumOperation,
    choi_to_kraus,
    is_channel,
    kraus_to_choi,
)
from .supermap import Supermap
from .testers import Tester, make_tester


@dataclass(frozen=True, eq=False)
class ProgrammableDevice:
    """Fixed unitary interaction between a system and a program register."""

    unitary: np.ndarray
    dim_sys: int
    dim_prog: int

    def __post_init__(self):
        _check_dims(self.dim_sys, self.dim_prog)
        u = readonly_copy(self.unitary)
        d = self.dim_sys * self.dim_prog
        if u.shape != (d, d):
            raise ValueError(f"unitary must be {d}x{d}, got {u.shape}")
        if not (isometry_residual(u) <= EQ_TOL and isometry_residual(dag(u)) <= EQ_TOL):  # NaN too
            raise ValueError("interaction is not unitary within tolerance")
        object.__setattr__(self, "unitary", u)


@dataclass(frozen=True, eq=False)
class TomographySetup:
    """Bipartite probe state for characterizing operations on its first factor."""

    faithful_state: np.ndarray
    h_in: int
    h_out: int

    def __post_init__(self):
        _check_dims(self.h_in, self.h_out)
        f = readonly_copy(self.faithful_state)
        d = self.h_in * self.h_in
        if f.shape != (d, d):
            raise ValueError(f"probe state must be {d}x{d}, got {f.shape}")
        if not is_density_matrix(f):
            raise ValueError("probe is not a density matrix")
        object.__setattr__(self, "faithful_state", f)


def sandwich_supermap(pre: QuantumOperation, post: QuantumOperation) -> Supermap:
    """Supermap inserting an operation between two fixed channels.

    The action is E -> post ∘ E ∘ pre; at the Choi level the Kraus operators
    are the products D_k ⊗ C_j^T of the channels' Kraus operators.  Both
    sandwiching maps must be channels, which makes the result deterministic.
    """
    for name, ch in (("pre", pre), ("post", post)):
        if not is_channel(ch):
            raise ValueError(f"{name} map must be a channel")
    pre_t = choi_to_kraus(pre).operators.transpose(0, 2, 1)
    post_k = choi_to_kraus(post).operators
    # kron of 4-D stacks: entry (j, k) is D_j ⊗ C_k^T, D_j of post, C_k of pre.
    ops = kron(post_k[:, None], pre_t[None])
    return Supermap(
        h_in=pre.dim_out,
        h_out=post.dim_in,
        k_in=pre.dim_in,
        k_out=post.dim_out,
        kraus=ops.reshape(-1, *ops.shape[2:]),
    )


def programmable_channel(dev: ProgrammableDevice, program: np.ndarray) -> QuantumOperation:
    """Channel obtained by feeding a program state into the interaction.

    Action: rho -> Tr_prog[U (rho ⊗ sigma) U†].  The result is a channel for
    every program, and depends affinely on it.
    """
    sigma = np.asarray(program, dtype=complex)
    if sigma.shape != (dev.dim_prog, dev.dim_prog):
        raise ValueError(
            f"program shape {sigma.shape} != ({dev.dim_prog}, {dev.dim_prog})"
        )
    if not is_density_matrix(sigma):
        raise ValueError("program is not a density matrix")
    u4 = dev.unitary.reshape(dev.dim_sys, dev.dim_prog, dev.dim_sys, dev.dim_prog)
    # (I ⊗ <l|) U (I ⊗ sqrt(w_k) |s_k>), one Kraus operator per retained
    # program eigenvector k and traced-out basis state l.
    ops = np.einsum("mlnp,pk->klmn", u4, psd_factors(sigma))
    ops = ops.reshape(-1, dev.dim_sys, dev.dim_sys)
    return kraus_to_choi(KrausSet(dev.dim_sys, dev.dim_sys, ops))


def programmable_povm(joint_povm, program: np.ndarray) -> np.ndarray:
    """Effective POVM P_j = Tr_prog[E_j (I ⊗ sigma)] for a program state sigma,
    as one read-only (n, d_sys, d_sys) array."""
    sigma = np.asarray(program, dtype=complex)
    if not is_density_matrix(sigma):
        raise ValueError("program is not a density matrix")
    d_prog = sigma.shape[0]
    povm = check_povm(joint_povm, what="joint POVM")
    d = povm.shape[1]
    if d % d_prog:
        raise ValueError("joint POVM dimension is not a multiple of the program's")
    d_sys = d // d_prog
    out = np.einsum("jmpnq,qp->jmn", povm.reshape(-1, d_sys, d_prog, d_sys, d_prog), sigma)
    out.setflags(write=False)
    return out


def tomography_supermap(setup: TomographySetup) -> Supermap:
    """Deterministic supermap sending E to the bipartite state (E ⊗ I)(F).

    Kraus operators are I ⊗ F_r^T for the square-root components F_r of the
    probe (spectral decomposition, unvectorized); only the action matters, so
    any decomposition of F would do.
    """
    f = psd_factors(setup.faithful_state).T.reshape(-1, setup.h_in, setup.h_in)
    return Supermap(
        h_in=setup.h_in,
        h_out=setup.h_out,
        k_in=1,
        k_out=setup.h_out * setup.h_in,
        kraus=kron(np.eye(setup.h_out)[None], f.transpose(0, 2, 1)),
    )


def is_faithful(setup: TomographySetup, tol: float = EQ_TOL) -> bool:
    """True iff E -> (E ⊗ I)(F) has trivial kernel on operators.

    On row-major vectorized operators the tomography supermap's action matrix
    sum_r (I ⊗ F_rᵀ) ⊗ conj(I ⊗ F_rᵀ) equals I_{h_out²} ⊗ Φ up to a fixed
    reordering of factors, with the h_in² x h_in² matrix
    Φ = sum_r F_rᵀ ⊗ F_r†.  Its singular values are Φ's, each repeated
    h_out² times, so the action has full column rank iff Φ has full rank at
    the relative singular-value threshold ``tol * s_max``.

    Φ[(a, c), (b, d)] = sum_r F_r[b, a] conj(F_r[d, c]) is the entry
    F[(b, a), (d, c)] of the probe, so Φ is read, with no eigendecomposition,
    as the realignment of its Hermitian part H = (F + F†)/2.  Realigning
    keeps the Frobenius norm, so this Φ is within ||H − F_trunc||_F of the Φ
    of ``tomography_supermap``'s factors, whose F_trunc drops H's eigenvalues
    up to POS_TOL·max(1, λ_max); the probe's density-matrix check bounds
    the negative ones by as much, so the two differ by at most
    h_in·POS_TOL·max(1, λ_max) plus rounding.  F's own realignment is
    ||F − H||_F <= HERM_TOL·max(1, ||F||_F)/2 further away.  Singular values
    and the threshold move by no more, so verdicts can differ only where a
    singular value lies that close to tol·s_max.  On 30 000 probes built at
    these edges (h_in = 2, 3; ``tests/test_cheap_checks.py``) they differed
    from the factors' Φ in 65, all within 7e-10·s_max of the threshold, and
    from F's realignment in 206, all within 4e-9·s_max.
    """
    h = setup.h_in
    f = setup.faithful_state
    phi = _hermitian_part(f).reshape(h, h, h, h).transpose(1, 3, 0, 2).reshape(h * h, h * h)
    return numerical_rank(phi, tol) == h * h


def informationally_complete_tester_for(setup: TomographySetup, povm) -> Tester:
    """Compose the tomography supermap with an output POVM into one tester.

    Requires a faithful probe and an informationally complete POVM on the
    output state space; tester effects are the dual images of the POVM
    elements, in one ``kraus_sum``, and inherit informational completeness.
    """
    if not is_faithful(setup):
        raise ValueError("probe state is not faithful")
    d_out = setup.h_out * setup.h_in
    povm = check_povm(povm, d_out)
    rank = numerical_rank(povm.reshape(len(povm), -1))
    if rank != d_out**2:
        raise ValueError(
            f"POVM is not informationally complete on the output space "
            f"(rank {rank} of {d_out**2})"
        )
    s = tomography_supermap(setup)
    effects = kraus_sum(s.kraus.conj().transpose(0, 2, 1), povm)
    return make_tester(effects, setup.h_out, setup.h_in)


def povm_as_channel(povm) -> QuantumOperation:
    """Measure-and-prepare channel writing the outcome into a classical register.

    Action: rho -> sum_n Tr[P_n rho] |n><n| with one register state per
    outcome; classical registers are diagonal-supported quantum systems.
    Its Choi operator is sum_n |n><n| ⊗ herm(P_n)ᵀ, herm(P) = (P + P†)/2,
    validated as an operation: ``check_povm`` bounds sum_n P_n only at EQ_TOL.
    """
    povm = check_povm(povm)
    n_out, d = povm.shape[:2]
    choi = np.zeros((n_out, d, n_out, d), dtype=complex)
    choi[np.arange(n_out), :, np.arange(n_out)] = (povm.transpose(0, 2, 1) + povm.conj()) / 2.0
    return QuantumOperation(d, n_out, choi.reshape(n_out * d, n_out * d))
