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
    check_povm,
    dag,
    is_density_matrix,
    isometry_residual,
    kron,
    numerical_rank,
    psd_factors,
    psd_spectrum,
    readonly_copy,
)
from .operations import (
    KrausSet,
    QuantumOperation,
    choi_to_kraus,
    is_channel,
    kraus_to_choi,
)
from .supermap import Supermap, dual_supermap
from .testers import Tester, make_tester


@dataclass(frozen=True, eq=False)
class ProgrammableDevice:
    """Fixed unitary interaction between a system and a program register."""

    unitary: np.ndarray
    dim_sys: int
    dim_prog: int

    def __post_init__(self):
        u = readonly_copy(self.unitary)
        d = self.dim_sys * self.dim_prog
        if u.shape != (d, d):
            raise ValueError(f"unitary must be {d}x{d}, got {u.shape}")
        if isometry_residual(u) > EQ_TOL or isometry_residual(dag(u)) > EQ_TOL:
            raise ValueError("interaction is not unitary within tolerance")
        object.__setattr__(self, "unitary", u)


@dataclass(frozen=True, eq=False)
class TomographySetup:
    """Bipartite probe state for characterizing operations on its first factor."""

    faithful_state: np.ndarray
    h_in: int
    h_out: int

    def __post_init__(self):
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
    pre_k = choi_to_kraus(pre).operators
    post_k = choi_to_kraus(post).operators
    ops = tuple(kron(d, c.T) for d in post_k for c in pre_k)
    return Supermap(
        h_in=pre.dim_out,
        h_out=post.dim_in,
        k_in=pre.dim_in,
        k_out=post.dim_out,
        kraus=ops,
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
    w, vecs = psd_spectrum(sigma)
    u4 = dev.unitary.reshape(dev.dim_sys, dev.dim_prog, dev.dim_sys, dev.dim_prog)
    ops = []
    for k in range(w.size):
        # (I ⊗ <l|) U (I ⊗ |s_k>), one Kraus operator per retained program
        # eigenvector and traced-out basis state.
        amp = np.einsum("mlnp,p->lmn", u4, vecs[:, k])
        for l in range(dev.dim_prog):
            ops.append(np.sqrt(w[k]) * amp[l])
    return kraus_to_choi(KrausSet(dev.dim_sys, dev.dim_sys, tuple(ops)))


def programmable_povm(joint_povm, program: np.ndarray) -> list[np.ndarray]:
    """Effective POVM P_j = Tr_prog[E_j (I ⊗ sigma)] for a program state sigma."""
    sigma = np.asarray(program, dtype=complex)
    d_prog = sigma.shape[0]
    if not is_density_matrix(sigma):
        raise ValueError("program is not a density matrix")
    povm = check_povm(joint_povm, what="joint POVM")
    d = povm[0].shape[0]
    if d % d_prog:
        raise ValueError("joint POVM dimension is not a multiple of the program's")
    d_sys = d // d_prog
    out = []
    for e in povm:
        e4 = e.reshape(d_sys, d_prog, d_sys, d_prog)
        out.append(np.einsum("mpnq,qp->mn", e4, sigma))
    return out


def tomography_supermap(setup: TomographySetup) -> Supermap:
    """Deterministic supermap sending E to the bipartite state (E ⊗ I)(F).

    Kraus operators are I ⊗ F_r^T for the square-root components F_r of the
    probe (spectral decomposition, unvectorized); only the action matters, so
    any decomposition of F would do.
    """
    f = psd_factors(setup.faithful_state).T.reshape(-1, setup.h_in, setup.h_in)
    ops = tuple(kron(np.eye(setup.h_out), f_r.T) for f_r in f)
    return Supermap(
        h_in=setup.h_in,
        h_out=setup.h_out,
        k_in=1,
        k_out=setup.h_out * setup.h_in,
        kraus=ops,
    )


def is_faithful(setup: TomographySetup, tol: float = EQ_TOL) -> bool:
    """True iff E -> (E ⊗ I)(F) has trivial kernel on operators.

    On row-major vectorized operators the tomography supermap's action matrix
    sum_r (I ⊗ F_rᵀ) ⊗ conj(I ⊗ F_rᵀ) equals I_{h_out²} ⊗ Φ up to a fixed
    reordering of factors, with the h_in² x h_in² matrix
    Φ = sum_r F_rᵀ ⊗ F_r†.  Its singular values are Φ's, each repeated
    h_out² times, so the action has full column rank iff Φ has full rank at
    the relative singular-value threshold ``tol * s_max``.
    """
    f = psd_factors(setup.faithful_state).T.reshape(-1, setup.h_in, setup.h_in)
    d = setup.h_in * setup.h_in
    # phi[(a, c), (b, d)] = sum_r F_r[b, a] conj(F_r[d, c])
    phi = np.einsum("rba,rdc->acbd", f, f.conj()).reshape(d, d)
    return numerical_rank(phi, tol) == d


def informationally_complete_tester_for(setup: TomographySetup, povm) -> Tester:
    """Compose the tomography supermap with an output POVM into one tester.

    Requires a faithful probe and an informationally complete POVM on the
    output state space; tester effects are the dual images of the POVM
    elements and inherit informational completeness.
    """
    if not is_faithful(setup):
        raise ValueError("probe state is not faithful")
    d_out = setup.h_out * setup.h_in
    povm = [np.asarray(m, dtype=complex) for m in povm]
    rank = numerical_rank(np.stack([m.reshape(-1) for m in povm]))
    if rank != d_out**2:
        raise ValueError(
            f"POVM is not informationally complete on the output space "
            f"(rank {rank} of {d_out**2})"
        )
    s = tomography_supermap(setup)
    effects = [dual_supermap(s, m) for m in povm]
    return make_tester(effects, setup.h_out, setup.h_in)


def povm_as_channel(povm) -> QuantumOperation:
    """Measure-and-prepare channel writing the outcome into a classical register.

    Action: rho -> sum_n Tr[P_n rho] |n><n| with one register state per
    outcome; classical registers are diagonal-supported quantum systems.
    """
    povm = check_povm(povm)
    d = povm[0].shape[0]
    n_out = len(povm)
    ops = []
    for n, p in enumerate(povm):
        for f in psd_factors(p).T:
            e = np.zeros((n_out, d), dtype=complex)
            e[n, :] = f.conj()
            ops.append(e)
    return kraus_to_choi(KrausSet(d, n_out, tuple(ops)))
