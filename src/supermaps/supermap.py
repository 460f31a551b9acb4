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
supermap: it transports input effects to output effects.  Both tests below
build N's Choi operator as a Gram matrix of the Kraus entries, so N is CP by
construction, and only the factorization and N's normalization are tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    EQ_TOL,
    FACTOR_GATE,
    ResidualError,
    _cap_non_finite,
    _check_dims,
    _operator_stack,
    canonical_factors,
    frob,
    isometry_residual,
    kraus_sum,
    kron,
    partial_trace,
    psd_factors,
    readonly_copy,
    rel_residual,
)
from .operations import QuantumOperation, _check_ports

# Budget in complex entries (1 MB) for the blocks that action_distance and
# the certificate's stage 2 multiply into (_factor_gaps and the diagonal
# blocks), and for the effect-wise test's tiles.
_CHUNK = 1 << 16


class NotDeterministicError(ResidualError):
    """Raised when an operation requires a channel-preserving supermap; holds the ``residual``."""


@dataclass(frozen=True, eq=False)
class DeterminismCertificate:
    """Residuals backing a determinism verdict; tolerance-independent.

    Frozen, with read-only arrays, because supermaps cache it.
    ``product_residual`` is computed from ``kraus`` and ``choi_n`` on first
    read, and ``factors`` from ``kraus`` or ``choi_n`` on first use.
    """

    tp_residual: float  # ||Tr_Hin[choi_n] − I|| / sqrt(k_in)
    choi_n: np.ndarray  # Choi of the candidate N_* on H_in ⊗ K_in
    kraus: np.ndarray = field(repr=False)  # T[(i, c), a, (m, u)], shape (r·k_out, k_in, h_out·h_in)

    def __post_init__(self):
        object.__setattr__(self, "choi_n", readonly_copy(self.choi_n))
        if self.kraus.flags.writeable:  # a supermap's own Kraus array is read-only already
            object.__setattr__(self, "kraus", readonly_copy(self.kraus))

    def verdict(self, tol: float = EQ_TOL) -> bool:
        # A supermap failing the trace condition, NaN included, never reaches stage 2.
        return bool(self.tp_residual <= tol and self.product_residual <= tol)

    @property
    def residual(self) -> float:
        return max(self.product_residual, self.tp_residual)

    @cached_property
    def product_residual(self) -> float:
        """Worst (m, n) block ||A_m†A_n − δ_mn·C||_F / max(1, δ_mn·||C||_F), C = choi_n: stage 2."""
        t, choi_n = self.kraus, self.choi_n
        k_in, e = t.shape[1], len(choi_n)
        h_out = t.shape[2] * k_in // e
        # x[m] = A_mᵀ: x[m, (u, a), (i, c)] = T[(i, c), a, (m, u)], so x_m x_n† = conj(A_m†A_n)
        x = t.reshape(len(t), k_in, h_out, -1).transpose(2, 3, 1, 0).reshape(h_out, e, -1)
        if e <= x.shape[2] or (h_out * e) ** 2 <= _CHUNK // 4:
            # No QR where it would not shrink x_m, or where the whole Gram matrix fills
            # under a quarter buffer and the QR's fixed cost outweighs the products it saves.
            gap = _factor_gaps(x, target=choi_n.conj())
        else:
            gap = _factor_gaps(np.linalg.qr(x, mode="r"))
            step = max(1, _CHUNK // (e * e))
            buf = np.empty((min(step, h_out), e, e), dtype=complex)
            for m in range(0, h_out, step):
                blk = buf[: min(step, h_out - m)]
                np.matmul(x[m : m + step].conj(), x[m : m + step].transpose(0, 2, 1), out=blk)
                blk -= choi_n
                parts = blk.view(float).reshape(len(blk), -1)
                np.einsum("mz,mz->m", parts, parts, out=np.einsum("mm->m", gap)[m : m + step])
        np.einsum("mm->m", gap)[...] /= max(1.0, np.vdot(choi_n, choi_n).real)  # max(1, ||C||_F)²
        return float(np.sqrt(np.max(gap)))

    @cached_property
    def factors(self) -> np.ndarray:
        """N's canonical Kraus operators, vectorized, read-only.  At a product_residual
        within FACTOR_GATE, A_0†A_0 = C to rounding, so they come from the SVD of
        A_0 = T[:, :, (0, ·)], columns (u, a); else psd_factors(choi_n)."""
        if self.product_residual <= FACTOR_GATE:
            k_in, e = self.kraus.shape[1], len(self.choi_n)
            _, sv, vh = np.linalg.svd(self.kraus[:, :, : e // k_in].transpose(0, 2, 1).reshape(-1, e),
                                      full_matrices=False)
            f = canonical_factors(sv * sv, vh.conj().T)
        else:
            f = psd_factors(self.choi_n)
        f.setflags(write=False)
        return f


@dataclass(frozen=True, eq=False)
class Supermap:
    """CP map on Choi operators in Kraus form.

    ``h_in``/``h_out`` are the input operation's spaces, ``k_in``/``k_out``
    the output operation's.  ``kraus`` is stored as one read-only array of
    shape (r, k_out*k_in, h_out*h_in), r >= 1.  Instances are frozen, so the
    cached determinism certificate always describes the stored Kraus operators.
    """

    h_in: int
    h_out: int
    k_in: int
    k_out: int
    kraus: np.ndarray
    _certificate: DeterminismCertificate | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        _check_dims(self.h_in, self.h_out, self.k_in, self.k_out)
        ops = _operator_stack(self.kraus, (self.k_out * self.k_in, self.h_out * self.h_in))
        if not len(ops):
            raise ValueError("supermap needs at least one Kraus operator")
        object.__setattr__(self, "kraus", ops)

    def act(self, choi: np.ndarray) -> np.ndarray:
        """Raw action sum_i S_i choi S_i† on an arbitrary matrix."""
        return kraus_sum(self.kraus, np.asarray(choi, dtype=complex))


def identity_supermap(dim_in: int, dim_out: int) -> Supermap:
    """Supermap leaving operations from dim_in to dim_out untouched."""
    d = dim_out * dim_in
    return Supermap(dim_in, dim_out, dim_in, dim_out, np.eye(d, dtype=complex)[None])


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
    return kraus_sum(s.kraus.conj().transpose(0, 2, 1), o)


def is_normalization_functional(
    c: np.ndarray, dims: tuple[int, int], tol: float = EQ_TOL
) -> tuple[bool, np.ndarray | None]:
    """Decide whether Tr[c E] = 1 for every channel Choi operator E.

    That holds exactly for c = I ⊗ rho with a unit-trace rho on the input
    factor; returns (True, rho) in that case and (False, None) otherwise.
    ``dims`` is (out dimension, in dimension) of the space c lives on.
    """
    rho, residual, trace_gap = _factor_identity(np.asarray(c, dtype=complex), *dims)
    return (True, rho) if residual <= tol and trace_gap <= tol else (False, None)


def _factor_identity(c: np.ndarray, d_out: int, d_in: int) -> tuple[np.ndarray, float, float]:
    """(rho, relative residual of c against I ⊗ rho, |Tr rho − 1|) for rho = Tr_out[c] / d_out."""
    rho = partial_trace(c, [d_out, d_in], keep=[1]) / d_out
    return rho, rel_residual(c, kron(np.eye(d_out), rho)), abs(np.trace(rho) - 1.0)


def determinism_certificate(s: Supermap) -> DeterminismCertificate:
    """Comb normalization residuals of the dual map, in two stages.

    With the Kraus operators stacked as T[(i, c), a, (m, u)] (c on K_out, a
    on K_in, (m, u) on H_out ⊗ H_in), let A_m = T[:, :, (m, ·)] with rows
    (i, c) and columns (u, a).  The dual image of I_Kout ⊗ |a><b| has the
    entries <m, u| · |n, v> = (A_m†A_n)[(u, a), (v, b)], so S is
    deterministic exactly when A_m†A_n = δ_mn·C for the Choi operator C of a
    trace-preserving N_*.  Stage 1, here, costs r·d⁶ at (d,d,d,d): choi_n,
    the average of the A_m†A_m, is one Gram matrix, so N is CP by
    construction; ``tp_residual`` is its marginal Tr_Hin against I.  Stage 2,
    on first read of ``product_residual``, costs r·d⁶: the diagonal blocks
    A_m†A_m against C, directly, and the off-diagonal blocks through the
    triangular factors of the A_m (``_factor_gaps``).  ``verdict`` and
    ``_certified`` decide the trace condition first, so a supermap failing it
    never reaches stage 2.
    """
    if s._certificate is not None:
        return s._certificate
    h_out, h_in, k_in = s.h_out, s.h_in, s.k_in
    # g[(i, c, m), (u, a)] = T[(i, c), a, (m, u)]
    g = s.kraus.reshape(-1, k_in, h_out, h_in).transpose(0, 2, 3, 1).reshape(-1, h_in * k_in)
    choi_n = g.conj().T @ g / h_out
    # Tr_Hin[choi_n] - I, the marginal on K_in against the identity
    marginal = np.einsum("uaub->ab", choi_n.reshape(h_in, k_in, h_in, k_in))
    tp = frob(marginal - np.eye(k_in)) / np.sqrt(k_in)
    cert = DeterminismCertificate(tp, choi_n, s.kraus.reshape(-1, k_in, h_out * h_in))
    object.__setattr__(s, "_certificate", cert)
    return cert


def is_deterministic(s: Supermap, tol: float = EQ_TOL) -> bool:
    """True iff the supermap sends every channel to a channel."""
    return determinism_certificate(s).verdict(tol)


def _effectwise_tiles(h_out: int, e: int):
    """Tiles (m0, m1, n0, n1) of the effect-wise test's upper block triangle, of e x e blocks.

    A tile holds the blocks of output effects of the input units
    |m, mu><n, nu| for m in [m0, m1) and n in [n0, n1).  When the whole
    h_out x h_out block square fits in _CHUNK entries it is the only tile;
    otherwise each block row m is cut into runs of column blocks n >= m of at
    most _CHUNK entries, or of one block where a block is larger.
    """
    if (h_out * e) ** 2 <= _CHUNK:
        yield 0, h_out, 0, h_out
        return
    nn = max(1, _CHUNK // (e * e))
    for m in range(h_out):
        for n in range(m, h_out, nn):
            yield m, m + 1, n, min(n + nn, h_out)


def is_deterministic_effectwise(s: Supermap, tol: float = EQ_TOL) -> bool:
    """Independent determinism verifier through effect factorization.

    With the Kraus operators stacked as U[(i, c), m, mu, p] (c on K_out, p on
    K_in, (m, mu) on H_out ⊗ H_in), the output effect of the input unit
    |m,mu><n,nu| is Tr_Kout S(|m,mu><n,nu|) = U[:, m, mu, :]ᵀ conj(U[:, n, nu, :]).
    The candidate map N on input effects comes from the maximally mixed
    probe, N(|mu><nu|) = sum_m Tr_Kout S(|m,mu><m,nu|) / h_out, in one
    contraction.  Every output effect must equal delta_mn N(|mu><nu|), and N
    must be identity preserving.  N is CP by construction: its conjugated
    Choi operator is the Gram matrix probe† probe / h_out.

    N's identity preservation is one trace of the Gram matrix, so it is
    decided first: a supermap failing it, NaN included, is rejected after one
    Gram, before any tile.  The verdict is the AND of both conditions either
    way.  Tr_Kout S(|n,nu><m,mu|) = Tr_Kout S(|m,mu><n,nu|)† holds exactly
    for every Kraus set, so the blocks n < m carry the same gaps as the
    blocks n >= m.  Those are walked in tiles of at most _CHUNK entries
    (``_effectwise_tiles``), each one matmul and one reduction into a buffer
    the size of the largest tile, and the test stops at the first tile with
    a gap above tol.  A small supermap is a single tile holding its whole
    block square, whose lower blocks are checked too.  Tiles hold conjugated
    effects and meet conj(N), which leaves every gap as it is.  Shares no
    code path with the dual-map test.
    """
    h_out, h_in, k_in = s.h_out, s.h_in, s.k_in
    e = h_in * k_in
    u = np.ascontiguousarray(s.kraus.reshape(-1, k_in, h_out, h_in).transpose(0, 2, 3, 1))
    probe = u.reshape(-1, e)
    # n_conj[mu, p, nu, q] = conj(<p| N(|mu><nu|) |q>)
    n_conj = (probe.conj().T @ probe).reshape(h_in, k_in, h_in, k_in) / h_out
    # Identity preservation, N(I) = I on K_in; a NaN residual fails too.
    if not rel_residual(np.einsum("zpzq->pq", n_conj), np.eye(k_in)) <= tol:
        return False
    parts = n_conj.view(float)
    n_scale = np.maximum(1.0, np.sqrt(np.einsum("upvq,upvq->uv", parts, parts)))
    blocks = u.reshape(len(u), h_out * e)
    tiles = list(_effectwise_tiles(h_out, e))
    buf = np.empty(max((m1 - m0) * (n1 - n0) for m0, m1, n0, n1 in tiles) * e * e, dtype=complex)
    for m0, m1, n0, n1 in tiles:
        tile = buf[: (m1 - m0) * (n1 - n0) * e * e].reshape((m1 - m0) * e, -1)
        np.matmul(u[:, m0:m1].conj().reshape(len(u), -1).T, blocks[:, n0 * e : n1 * e], out=tile)
        # x[m, mu, p, n, nu, q] = conj(<p| Tr_Kout S(|m,mu><n,nu|) |q>)
        x = tile.reshape(m1 - m0, h_in, k_in, n1 - n0, h_in, k_in)
        if n0 == m0:  # the tile holds the diagonal blocks of its rows
            np.einsum("mupmvq->mupvq", x[:, :, :, : m1 - m0])[...] -= n_conj
        # The squared gap sums the real view over p and q, then over (re, im).
        parts = tile.view(float).reshape((m1 - m0) * h_in, k_in, -1, 2 * k_in)
        gap = np.sqrt(np.einsum("ipjq,ipjq->ij", parts, parts)).reshape(m1 - m0, h_in, -1, h_in)
        if n0 == m0:
            np.einsum("mumv->muv", gap[:, :, : m1 - m0])[...] /= n_scale
        if not np.all(gap <= tol):  # a NaN gap, from an overflowing Kraus set, fails too
            return False
    return True


@dataclass(frozen=True, eq=False)
class EffectMap:
    """Identity-preserving CP map relating input and output effects.

    Stored through Kraus operators N_l from K_in to H_in, acting on effects
    as N(P) = sum_l N_l† P N_l and on states as N_*(rho) = sum_l N_l rho N_l†.
    Identity preservation (sum_l N_l† N_l = I) is validated at construction,
    within ``tol``; ``kraus`` is one read-only array (r, h_in, k_in).
    """

    kraus: np.ndarray
    tol: float = EQ_TOL

    def __post_init__(self):
        ops = _operator_stack(self.kraus, None)
        if not len(ops):
            raise ValueError("effect map needs at least one Kraus operator")
        # sum_l N_l† N_l is the Gram matrix of the N_l stacked as one column.
        residual = isometry_residual(ops.reshape(-1, ops.shape[2]))
        if not residual <= self.tol:
            raise ResidualError(f"effect map is not identity preserving (residual {residual:.3e})", residual)
        object.__setattr__(self, "kraus", ops)

    def on_effect(self, p: np.ndarray) -> np.ndarray:
        """Transport an input effect: N(P) = sum_l N_l† P N_l."""
        return kraus_sum(self.kraus.conj().transpose(0, 2, 1), p)

    def on_state(self, rho: np.ndarray) -> np.ndarray:
        """Trace-preserving dual action: N_*(rho) = sum_l N_l rho N_l†."""
        return kraus_sum(self.kraus, rho)


def _certified(s: Supermap, tol: float) -> DeterminismCertificate:
    """The determinism certificate of s; raises NotDeterministicError if it fails at tol,
    naming ``tp_residual`` when the trace condition fails and ``residual`` otherwise."""
    cert = determinism_certificate(s)
    if cert.verdict(tol):
        return cert
    shown = _cap_non_finite(cert.residual if cert.tp_residual <= tol else cert.tp_residual)
    raise NotDeterministicError(f"supermap is not deterministic (residual {shown:.3e})", shown)


def effect_map_of(s: Supermap, tol: float = EQ_TOL) -> EffectMap:
    """Canonical Kraus form of the effect map of a deterministic supermap, copied
    from the certificate's ``factors``, which ``realize`` reads too."""
    return EffectMap(_certified(s, tol).factors.T.reshape(-1, s.h_in, s.k_in), tol)


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
    ta = a.kraus.reshape(-1, a.k_out, a.k_in, a.h_out, a.h_in)
    tb = b.kraus.reshape(-1, b.k_out, b.k_in, b.h_out, b.h_in)
    ops = np.einsum("iabcd,jefgh->ijaebfcgdh", ta, tb).reshape(-1, k_out * k_in, h_out * h_in)
    return Supermap(h_in, h_out, k_in, k_out, ops)


def sum_supermaps(parts) -> Supermap:
    """Coarse-grain alternative supermaps by concatenating their Kraus lists."""
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one supermap")
    dims = (parts[0].h_in, parts[0].h_out, parts[0].k_in, parts[0].k_out)
    if any((p.h_in, p.h_out, p.k_in, p.k_out) != dims for p in parts):
        raise ValueError("summed supermaps must share all four space dimensions")
    return Supermap(*dims, np.concatenate([p.kraus for p in parts]))


def _factor_gaps(
    r: np.ndarray, sign: np.ndarray | None = None, target: np.ndarray | None = None
) -> np.ndarray:
    """Squared ||R_i·J·R_j† − δ_ij·target||_F over a stack R of shape (n, p, q), for j >= i.

    J = diag(sign), or I; no target is 0.  With X_i = Q_i R_i for Q_i of
    orthonormal columns, ||X_i J X_j†||_F = ||R_i J R_j†||_F, so tall factors
    are measured through their triangular ones.  The gap of (j, i) is that of
    (i, j), so a block of rows i >= i0 is multiplied against the columns
    j >= i0 only, as one matmul into a buffer of at most _CHUNK entries;
    entries with j < i hold their gap inside such a block and 0 outside it.
    """
    n, p, q = r.shape
    rows = r.reshape(n * p, q)
    r_h = rows.conj().T  # r_h[k, (j, s)] = conj(R_j[s, k])
    rows = rows if sign is None else rows * sign
    step = min(n, max(1, _CHUNK // (n * p * p)))
    buf = np.empty(step * p * n * p, dtype=complex)
    gaps = np.zeros((n, n))
    for i in range(0, n, step):
        k = min(step, n - i)
        blk = buf[: k * p * (n - i) * p].reshape(k * p, -1)
        np.matmul(rows[i * p : (i + k) * p], r_h[:, i * p :], out=blk)
        if target is not None:
            np.einsum("isit->ist", blk.reshape(k, p, n - i, p)[:, :, :k])[...] -= target
        parts = blk.view(float).reshape(k, p, n - i, 2 * p)
        np.einsum("isjt,isjt->ij", parts, parts, out=gaps[i : i + k, i:])
    return gaps


def action_distance(a: Supermap, b: Supermap) -> float:
    """Extensional distance: worst Frobenius gap of actions over matrix units.

    Supermaps with different Kraus lists can be the same map, so equality is
    decided by comparing actions on a spanning basis of input Choi operators.
    The action of ``a`` on |i><j| is A_i A_j†, where column k of A_i is column
    i of the k-th Kraus operator; likewise B_i for ``b``.  With R_i the
    triangular factor of [A_i, B_i] (a batched QR) and J = diag(I, −I),
    ||A_i A_j† − B_i B_j†||_F = ||R_i J R_j†||_F (``_factor_gaps``).
    Identical Kraus arrays give exactly 0.
    """
    if (a.h_in, a.h_out, a.k_in, a.k_out) != (b.h_in, b.h_out, b.k_in, b.k_out):
        raise ValueError("supermaps act on different spaces")
    if np.array_equal(a.kraus, b.kraus):
        return 0.0
    # [A_i, B_i] is column i of every Kraus operator of a, then of b: shape (d, k_out*k_in, r)
    factors = np.linalg.qr(np.concatenate([a.kraus, b.kraus]).transpose(2, 1, 0), mode="r")
    if not np.isfinite(frob(factors)):  # actions that overflow: inf − inf, in whatever order BLAS sums
        return float("nan")
    sign = np.repeat([1.0, -1.0], [len(a.kraus), len(b.kraus)])
    return float(np.sqrt(np.max(_factor_gaps(factors, sign))))
