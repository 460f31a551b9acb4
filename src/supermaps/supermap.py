"""Supermaps: completely positive maps acting on Choi operators.

A supermap takes operations from an input space pair (H_in -> H_out) to
operations on an output pair (K_in -> K_out).  It is stored in Kraus form,
acting on Choi operators as

    S(E) = sum_i S_i E S_i†,

with each S_i mapping the composite H_out ⊗ H_in space to K_out ⊗ K_in.

A supermap is deterministic when it sends channels to channels.  That holds
exactly when the dual map S_*(O) = sum_i S_i† O S_i satisfies

    S_*(I_Kout ⊗ rho) = I_Hout ⊗ N_*(rho)

for a channel N_* from states on K_in to states on H_in; equivalently, when
there is an identity-preserving CP map N with
Tr_Kout[S(E)] = N(Tr_Hout[E]) for every E.  N is the effect map of the
supermap: it transports input effects to output effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EQ_TOL,
    _check_dims,
    _kraus_operators,
    dag,
    frob,
    hermitian_spectrum,
    isometry_residual,
    kraus_sum,
    kron,
    min_eig_floor,
    partial_trace,
    psd_factors,
    readonly_copy,
    rel_residual,
)
from .operations import QuantumOperation, _check_ports

# Budget in complex entries (1 MB) for the blocks action_distance works on;
# the two determinism tests hold one row of their contraction at a time.
_CHUNK = 1 << 16


class NotDeterministicError(ValueError):
    """Raised when an operation requires a channel-preserving supermap."""


@dataclass(frozen=True, eq=False)
class DeterminismCertificate:
    """Residuals backing a determinism verdict; tolerance-independent.

    Frozen, with a read-only copy of ``choi_n``, because supermaps cache it.
    """

    product_residual: float  # worst ||S_*(I ⊗ unit) − I ⊗ candidate|| over the basis
    tp_residual: float  # ||Tr_out[choi_n] − I|| / sqrt(k_in)
    min_eig: float
    max_eig: float
    choi_n: np.ndarray  # Choi of the candidate N_* on H_in ⊗ K_in

    def __post_init__(self):
        object.__setattr__(self, "choi_n", readonly_copy(self.choi_n))

    def verdict(self, tol: float = EQ_TOL) -> bool:
        return (
            self.product_residual <= tol
            and self.tp_residual <= tol
            and min_eig_floor(self.min_eig, self.max_eig)
        )

    @property
    def residual(self) -> float:
        return max(self.product_residual, self.tp_residual)


@dataclass(frozen=True, eq=False)
class Supermap:
    """CP map on Choi operators in Kraus form.

    ``h_in``/``h_out`` are the input operation's spaces, ``k_in``/``k_out``
    the output operation's.  Each Kraus operator has shape
    (k_out*k_in, h_out*h_in).  Instances are frozen, so the cached
    determinism certificate always describes the stored Kraus operators.
    """

    h_in: int
    h_out: int
    k_in: int
    k_out: int
    kraus: tuple
    _certificate: DeterminismCertificate | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        _check_dims(self.h_in, self.h_out, self.k_in, self.k_out)
        ops = _kraus_operators(self.kraus, (self.k_out * self.k_in, self.h_out * self.h_in))
        if not ops:
            raise ValueError("supermap needs at least one Kraus operator")
        object.__setattr__(self, "kraus", ops)

    def act(self, choi: np.ndarray) -> np.ndarray:
        """Raw action sum_i S_i choi S_i† on an arbitrary matrix."""
        return kraus_sum(self.kraus, np.asarray(choi, dtype=complex))


def identity_supermap(dim_in: int, dim_out: int) -> Supermap:
    """Supermap leaving operations from dim_in to dim_out untouched."""
    d = dim_out * dim_in
    return Supermap(dim_in, dim_out, dim_in, dim_out, (np.eye(d, dtype=complex),))


def apply_supermap(s: Supermap, op: QuantumOperation) -> QuantumOperation:
    """Transform an operation; the result is validated as an operation."""
    _check_ports(op, s.h_in, s.h_out, "supermap")
    return QuantumOperation(s.k_in, s.k_out, s.act(op.choi))


def dual_supermap(s: Supermap, o: np.ndarray) -> np.ndarray:
    """Dual action sum_i S_i† O S_i, satisfying Tr[O S(E)] = Tr[S_*(O) E]."""
    o = np.asarray(o, dtype=complex)
    d = s.k_out * s.k_in
    if o.shape != (d, d):
        raise ValueError(f"operator shape {o.shape} != ({d}, {d})")
    return kraus_sum(map(dag, s.kraus), o)


def is_normalization_functional(
    c: np.ndarray, dims: tuple[int, int], tol: float = EQ_TOL
) -> tuple[bool, np.ndarray | None]:
    """Decide whether Tr[c E] = 1 for every channel Choi operator E.

    That holds exactly for c = I ⊗ rho with a unit-trace rho on the input
    factor; returns (True, rho) in that case and (False, None) otherwise.
    ``dims`` is (out dimension, in dimension) of the space c lives on.
    """
    d_out, d_in = dims
    c = np.asarray(c, dtype=complex)
    rho, residual, trace_gap = _factor_identity(c, d_out, d_in)
    if residual <= tol and trace_gap <= tol:
        return True, rho
    return False, None


def _factor_identity(c: np.ndarray, d_out: int, d_in: int) -> tuple[np.ndarray, float, float]:
    """(rho, relative residual of c against I ⊗ rho, |Tr rho − 1|) for rho = Tr_out[c] / d_out."""
    rho = partial_trace(c, [d_out, d_in], keep=[1]) / d_out
    return rho, rel_residual(c, kron(np.eye(d_out), rho)), abs(np.trace(rho) - 1.0)


def determinism_certificate(s: Supermap) -> DeterminismCertificate:
    """Comb normalization residuals of the dual map, one row of K_in at a time.

    With the Kraus operators stacked as T[(i, c), a, x] (c on K_out, a on
    K_in, x on H_out ⊗ H_in), the dual image of I_Kout ⊗ |a><b| is
    X_ab = T[:, a, :]† T[:, b, :], so one matmul per row a yields X_ab for
    every b.  Each X_ab must factor as I_Hout ⊗ cand_ab with
    cand_ab = Tr_Hout[X_ab] / h_out; the candidates assemble into the Choi
    operator of the induced map N_*, which must additionally be CP and trace
    preserving.

    Only the upper block triangle b >= a is computed: X_ba = X_ab† holds
    exactly for every Kraus set, so the lower blocks of ``choi_n`` are filled
    with the conjugates of the upper ones, and the gap of X_ba equals that of
    X_ab.  Row a holds (k_in − a)·(h_out·h_in)² entries.
    """
    if s._certificate is not None:
        return s._certificate
    h_out, h_in, k_in = s.h_out, s.h_in, s.k_in
    d = h_out * h_in
    t = np.stack(s.kraus).reshape(-1, k_in, d)
    cols = t.reshape(t.shape[0], k_in * d)
    choi_n4 = np.zeros((h_in, k_in, h_in, k_in), dtype=complex)
    # Row a is the contiguous prefix of one buffer sized for row 0; x is its
    # x[m, mu, b - a, n, nu] = <m, mu| X_ab |n, nu> view, parts its real view.
    buf = np.empty(d * k_in * d, dtype=complex)
    worst = 0.0
    for a in range(k_in):
        nb = k_in - a
        row = buf[: d * nb * d].reshape(d, nb * d)
        np.matmul(t[:, a, :].conj().T, cols[:, a * d :], out=row)
        x = row.reshape(h_out, h_in, nb, h_out, h_in)
        parts = row.view(float).reshape(*x.shape, 2)
        cand = np.einsum("mubmv->buv", x) / h_out
        np.einsum("mubmv->mubv", x)[...] -= cand.transpose(1, 0, 2)
        gap = np.sqrt(np.einsum("mubnvc,mubnvc->b", parts, parts))
        scale = np.maximum(1.0, np.sqrt(h_out) * np.linalg.norm(cand, axis=(1, 2)))
        worst = max(worst, float(np.max(gap / scale)))
        choi_n4[:, a, :, a:] = cand.transpose(1, 2, 0)
        # cand_ba = cand_ab†
        choi_n4[:, a + 1 :, :, a] = cand[1:].conj().transpose(2, 0, 1)
    choi_n = choi_n4.reshape(h_in * k_in, h_in * k_in)
    lam_min, lam_max = hermitian_spectrum(choi_n)
    marg = partial_trace(choi_n, [h_in, k_in], keep=[1])
    tp = frob(marg - np.eye(k_in)) / np.sqrt(k_in)
    cert = DeterminismCertificate(
        product_residual=worst,
        tp_residual=tp,
        min_eig=lam_min,
        max_eig=lam_max,
        choi_n=choi_n,
    )
    object.__setattr__(s, "_certificate", cert)
    return cert


def is_deterministic(s: Supermap, tol: float = EQ_TOL) -> bool:
    """True iff the supermap sends every channel to a channel."""
    return determinism_certificate(s).verdict(tol)


def is_deterministic_effectwise(s: Supermap, tol: float = EQ_TOL) -> bool:
    """Independent determinism verifier through effect factorization.

    With the Kraus operators stacked as T[(i, c), p, m, mu] (c on K_out, p on
    K_in, (m, mu) on H_out ⊗ H_in), the output effect of the input unit
    |m,mu><n,nu| is Tr_Kout S(|m,mu><n,nu|) = T[:, :, m, mu]ᵀ conj(T[:, :, n, nu]).
    The candidate map N on input effects comes from the maximally mixed
    probe, N(|mu><nu|) = sum_m Tr_Kout S(|m,mu><m,nu|) / h_out, in one
    contraction.  Then, one row m at a time, every output effect must equal
    delta_mn N(|mu><nu|), and N must be identity preserving and CP.

    Only the columns n >= m are computed:
    Tr_Kout S(|n,nu><m,mu|) = Tr_Kout S(|m,mu><n,nu|)† holds exactly for
    every Kraus set, so the lower rows carry the same gaps.  Row m holds
    k_in²·h_in·(h_out − m)·h_in entries.  Shares no code path with the
    dual-map test.
    """
    h_out, h_in, k_in = s.h_out, s.h_in, s.k_in
    t = np.stack(s.kraus).reshape(-1, k_in, h_out, h_in)
    probe = t.transpose(0, 2, 1, 3).reshape(-1, k_in * h_in)
    # n_map[p, mu, q, nu] = <p| N(|mu><nu|) |q>
    n_map = (probe.T @ probe.conj()).reshape(k_in, h_in, k_in, h_in) / h_out
    n_scale = np.maximum(1.0, np.linalg.norm(n_map, axis=(0, 2)))
    r, conj = t.shape[0], t.conj()
    # Row m is the contiguous prefix of one buffer sized for row 0; out is its
    # out[p, mu, q, n - m, nu] = <p| Tr_Kout S(|m,mu><n,nu|) |q> view, and the
    # squared gap sums its real view over p and q, then over (re, im).
    buf = np.empty(k_in * h_in * k_in * h_out * h_in, dtype=complex)
    for m in range(h_out):
        nn = h_out - m
        row = buf[: k_in * h_in * k_in * nn * h_in].reshape(k_in * h_in, -1)
        np.matmul(t[:, :, m, :].reshape(r, -1).T, conj[:, :, m:, :].reshape(r, -1), out=row)
        out = row.reshape(k_in, h_in, k_in, nn, h_in)
        out[:, :, :, 0, :] -= n_map
        parts = row.view(float).reshape(k_in, h_in, k_in, -1)
        sq = np.einsum("pmqx,pmqx->mx", parts, parts).reshape(h_in, nn, h_in, 2)
        gap = np.sqrt(sq.sum(axis=3))
        gap[:, 0, :] /= n_scale
        if np.any(gap > tol):
            return False
    # Identity preservation: N(I) = I on K_in.
    if rel_residual(np.einsum("pzqz->pq", n_map), np.eye(k_in)) > tol:
        return False
    # Complete positivity of N via its Choi operator on K_in ⊗ H_in.
    return min_eig_floor(*hermitian_spectrum(n_map.reshape(k_in * h_in, k_in * h_in)))


@dataclass(frozen=True, eq=False)
class EffectMap:
    """Identity-preserving CP map relating input and output effects.

    Stored through Kraus operators N_l from K_in to H_in, acting on effects
    as N(P) = sum_l N_l† P N_l and on states as N_*(rho) = sum_l N_l rho N_l†.
    Identity preservation (sum_l N_l† N_l = I) is validated at construction,
    within ``tol``; the operators are stored as read-only copies.
    """

    kraus: tuple
    tol: float = EQ_TOL

    def __post_init__(self):
        ops = tuple(map(readonly_copy, self.kraus))
        if not ops:
            raise ValueError("effect map needs at least one Kraus operator")
        # sum_l N_l† N_l is the Gram matrix of the N_l stacked as one column.
        residual = isometry_residual(np.vstack(ops))
        if not residual <= self.tol:
            raise ValueError(f"effect map is not identity preserving (residual {residual:.3e})")
        object.__setattr__(self, "kraus", ops)

    def on_effect(self, p: np.ndarray) -> np.ndarray:
        """Transport an input effect: N(P) = sum_l N_l† P N_l."""
        return kraus_sum(map(dag, self.kraus), p)

    def on_state(self, rho: np.ndarray) -> np.ndarray:
        """Trace-preserving dual action: N_*(rho) = sum_l N_l rho N_l†."""
        return kraus_sum(self.kraus, rho)


def _certified(s: Supermap, tol: float) -> DeterminismCertificate:
    """The determinism certificate of s; raises NotDeterministicError if it fails at tol."""
    cert = determinism_certificate(s)
    if not cert.verdict(tol):
        raise NotDeterministicError(
            f"supermap is not deterministic (residual {cert.residual:.3e})"
        )
    return cert


def effect_map_of(s: Supermap, tol: float = EQ_TOL) -> EffectMap:
    """Canonical Kraus form of the effect map of a deterministic supermap."""
    cert = _certified(s, tol)
    f = psd_factors(cert.choi_n)
    return EffectMap(tuple(f.T.reshape(-1, s.h_in, s.k_in)), tol)


def _identity_map_residual(s: Supermap, tol: float) -> float:
    """Relative residual of the effect map's Choi operator against the identity's."""
    if s.h_in != s.k_in:
        raise ValueError(
            f"probability preservation needs matching input spaces, got {s.h_in} != {s.k_in}"
        )
    cert = _certified(s, tol)
    vec_i = np.eye(s.h_in, dtype=complex).reshape(-1)
    return rel_residual(cert.choi_n, np.outer(vec_i, vec_i.conj()))


def is_probability_preserving(s: Supermap, tol: float = EQ_TOL) -> bool:
    """True iff the effect map acts as the identity (requires h_in == k_in)."""
    return _identity_map_residual(s, tol) <= tol


def tensor_supermaps(a: Supermap, b: Supermap) -> Supermap:
    """Parallel composition acting on tensor products of operations.

    Kraus operator (i, j) is S_i ⊗ T_j with its factors in canonical order
    (k_out_a, k_out_b, k_in_a, k_in_b) x (h_out_a, h_out_b, h_in_a, h_in_b).
    """
    h_in, h_out = a.h_in * b.h_in, a.h_out * b.h_out
    k_in, k_out = a.k_in * b.k_in, a.k_out * b.k_out
    ta = np.stack(a.kraus).reshape(-1, a.k_out, a.k_in, a.h_out, a.h_in)
    tb = np.stack(b.kraus).reshape(-1, b.k_out, b.k_in, b.h_out, b.h_in)
    ops = np.einsum("iabcd,jefgh->ijaebfcgdh", ta, tb).reshape(-1, k_out * k_in, h_out * h_in)
    return Supermap(h_in, h_out, k_in, k_out, tuple(ops))


def sum_supermaps(parts) -> Supermap:
    """Coarse-grain alternative supermaps by concatenating their Kraus lists."""
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one supermap")
    dims = (parts[0].h_in, parts[0].h_out, parts[0].k_in, parts[0].k_out)
    ops = []
    for p in parts:
        if (p.h_in, p.h_out, p.k_in, p.k_out) != dims:
            raise ValueError("summed supermaps must share all four space dimensions")
        ops.extend(p.kraus)
    return Supermap(*dims, tuple(ops))


def action_distance(a: Supermap, b: Supermap) -> float:
    """Extensional distance: worst Frobenius gap of actions over matrix units.

    Supermaps with different Kraus lists can be the same map, so equality is
    decided by comparing actions on a spanning basis of input Choi operators.
    The action of ``a`` on |i><j| is A_i A_j†, where column k of A_i is column
    i of the k-th Kraus operator; likewise B_i for ``b``.  With Q_i an
    orthonormal basis of the span of [A_i, B_i] (a batched QR),
    ||A_i A_j† − B_i B_j†||_F = ||α_i α_j† − β_i β_j†||_F for α_i = Q_i† A_i
    and β_i = Q_i† B_i, which is evaluated for a block of rows i against all
    columns j at a time.  Identical Kraus lists give exactly 0.
    """
    if (a.h_in, a.h_out, a.k_in, a.k_out) != (b.h_in, b.h_out, b.k_in, b.k_out):
        raise ValueError("supermaps act on different spaces")
    # cols[i] holds column i of every Kraus operator: shape (d, k_out*k_in, r)
    cols_a, cols_b = (np.stack(s.kraus).transpose(2, 1, 0) for s in (a, b))
    d, m = cols_a.shape[:2]
    r = cols_a.shape[2] + cols_b.shape[2]
    alpha, beta = [], []
    step = max(1, _CHUNK // (8 * m * r))
    for i in range(0, d, step):
        blk_a, blk_b = cols_a[i : i + step], cols_b[i : i + step]
        q = np.linalg.qr(np.concatenate([blk_a, blk_b], axis=2))[0]
        qh = q.conj().transpose(0, 2, 1)
        alpha.append(qh @ blk_a)
        beta.append(qh @ blk_b)
    alpha, beta = np.concatenate(alpha), np.concatenate(beta)
    rank = alpha.shape[1]
    # *_h[k, (j, s)] = conj(alpha_j[s, k])
    alpha_h = alpha.conj().transpose(2, 0, 1).reshape(alpha.shape[2], -1)
    beta_h = beta.conj().transpose(2, 0, 1).reshape(beta.shape[2], -1)
    step = min(d, max(1, _CHUNK // (4 * d * rank * rank)))
    buf = np.empty((step, rank, d * rank), dtype=complex)
    worst = 0.0
    for i in range(0, d, step):
        gap = buf[: min(step, d - i)]
        np.matmul(alpha[i : i + step], alpha_h, out=gap)
        gap -= beta[i : i + step] @ beta_h
        parts = gap.view(float).reshape(-1, rank, d, rank, 2)
        worst = max(worst, float(np.max(np.einsum("irjsc,irjsc->ij", parts, parts))))
    return float(np.sqrt(worst))
