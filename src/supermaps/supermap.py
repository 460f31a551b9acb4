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
    _cap_non_finite,
    _check_dims,
    _kraus_operators,
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

# Budget in complex entries (1 MB) for the blocks action_distance works on
# and for the tiles of the two determinism tests.
_CHUNK = 1 << 16


class NotDeterministicError(ValueError):
    """Raised when an operation requires a channel-preserving supermap; holds the ``residual``."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class DeterminismCertificate:
    """Residuals backing a determinism verdict; tolerance-independent.

    Frozen, with a read-only copy of ``choi_n``, because supermaps cache it;
    ``factors`` is derived from it once, on first use.
    """

    product_residual: float  # worst ||S_*(I ⊗ unit) − I ⊗ candidate|| over the basis
    tp_residual: float  # ||Tr_out[choi_n] − I|| / sqrt(k_in)
    choi_n: np.ndarray  # Choi of the candidate N_* on H_in ⊗ K_in

    def __post_init__(self):
        object.__setattr__(self, "choi_n", readonly_copy(self.choi_n))

    def verdict(self, tol: float = EQ_TOL) -> bool:
        return bool(self.product_residual <= tol and self.tp_residual <= tol)

    @property
    def residual(self) -> float:
        return max(self.product_residual, self.tp_residual)

    @cached_property
    def factors(self) -> np.ndarray:
        """Read-only psd_factors(choi_n): N's canonical Kraus operators, vectorized."""
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
        ops = _kraus_operators(self.kraus, (self.k_out * self.k_in, self.h_out * self.h_in))
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


def _certificate_tiles(k_in: int, d: int):
    """Tiles (a0, a1, b0, b1) of the certificate's upper block triangle, of d x d blocks.

    A tile holds the blocks X_ab for a in [a0, a1) and b in [b0, b1).  When
    the whole k_in x k_in block square fits in _CHUNK entries it is the only
    tile; otherwise each block row a is cut into runs of column blocks b >= a
    of at most _CHUNK entries, or of one block where a block is larger.
    """
    if (k_in * d) ** 2 <= _CHUNK:
        yield 0, k_in, 0, k_in
        return
    nb = max(1, _CHUNK // (d * d))
    for a in range(k_in):
        for b in range(a, k_in, nb):
            yield a, a + 1, b, min(b + nb, k_in)


def determinism_certificate(s: Supermap) -> DeterminismCertificate:
    """Comb normalization residuals of the dual map, one tile of blocks at a time.

    With the Kraus operators stacked as T[(i, c), a, x] (c on K_out, a on
    K_in, x on H_out ⊗ H_in), the dual image of I_Kout ⊗ |a><b| is
    X_ab = T[:, a, :]† T[:, b, :], so one matmul yields every X_ab of a tile.
    Each X_ab must factor as I_Hout ⊗ cand_ab with
    cand_ab = Tr_Hout[X_ab] / h_out; the candidates assemble into the Choi
    operator of the induced map N_*, which must additionally be trace
    preserving.  It is CP by construction: choi_n is the Gram matrix of the
    vectors T[:, a, (m, u)], indexed by (u, a), over (i, c, m), over h_out.

    X_ba = X_ab† holds exactly for every Kraus set, so the gap of X_ba equals
    that of X_ab and cand_ba = cand_ab†: only the upper block triangle b >= a
    is needed, and the lower blocks of ``choi_n`` are the conjugates of the
    upper ones.  The triangle is walked in tiles of at most _CHUNK entries
    (``_certificate_tiles``), each one matmul and one reduction into a
    buffer the size of the largest tile.  A small supermap is a single tile
    holding its whole block square: there the blocks below the diagonal come
    without another call, and their gaps, being the same, count too.
    """
    if s._certificate is not None:
        return s._certificate
    h_out, h_in, k_in = s.h_out, s.h_in, s.k_in
    d = h_out * h_in
    t = s.kraus.reshape(-1, k_in, d)
    cols = t.reshape(len(t), k_in * d)
    tiles = list(_certificate_tiles(k_in, d))
    buf = np.empty(max((a1 - a0) * (b1 - b0) for a0, a1, b0, b1 in tiles) * d * d, dtype=complex)
    cand = np.zeros((k_in, k_in, h_in, h_in), dtype=complex)  # cand[a, b] = cand_ab
    gap = np.zeros((k_in, k_in))  # squared Frobenius gaps
    for a0, a1, b0, b1 in tiles:
        tile = buf[: (a1 - a0) * (b1 - b0) * d * d].reshape((a1 - a0) * d, -1)
        np.matmul(t[:, a0:a1].conj().reshape(len(t), -1).T, cols[:, b0 * d : b1 * d], out=tile)
        # x[a, m, u, b, n, v] = <m, u| X_ab |n, v>; parts is its real view.
        x = tile.reshape(a1 - a0, h_out, h_in, b1 - b0, h_out, h_in)
        c = np.einsum("amubmv->abuv", x) / h_out
        np.einsum("amubmv->amubv", x)[...] -= c.transpose(0, 2, 1, 3)[:, None]
        parts = tile.view(float).reshape(a1 - a0, d, b1 - b0, 2 * d)
        gap[a0:a1, b0:b1] = np.einsum("axby,axby->ab", parts, parts)
        cand[a0:a1, b0:b1] = c
    lower = np.tri(k_in, k=-1, dtype=bool)[:, :, None, None]
    np.copyto(cand, cand.transpose(1, 0, 3, 2).conj(), where=lower)
    parts = cand.view(float).reshape(k_in, k_in, -1)
    scale = np.maximum(1.0, np.sqrt(h_out * np.einsum("abz,abz->ab", parts, parts)))
    choi_n = cand.transpose(2, 0, 3, 1).reshape(h_in * k_in, h_in * k_in)
    # Tr_Hin[choi_n] - I, the marginal on K_in against the identity
    tp = frob(np.einsum("abuu->ab", cand) - np.eye(k_in)) / np.sqrt(k_in)
    cert = DeterminismCertificate(
        product_residual=float(np.max(np.sqrt(gap) / scale)),
        tp_residual=tp,
        choi_n=choi_n,
    )
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

    Tr_Kout S(|n,nu><m,mu|) = Tr_Kout S(|m,mu><n,nu|)† holds exactly for
    every Kraus set, so the blocks n < m carry the same gaps as the blocks
    n >= m.  Those are walked in tiles of at most _CHUNK entries
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
    # Identity preservation: N(I) = I on K_in.
    return rel_residual(np.einsum("zpzq->pq", n_conj), np.eye(k_in)) <= tol


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
        ops = _kraus_operators(self.kraus, None)
        if not len(ops):
            raise ValueError("effect map needs at least one Kraus operator")
        # sum_l N_l† N_l is the Gram matrix of the N_l stacked as one column.
        residual = isometry_residual(ops.reshape(-1, ops.shape[2]))
        if not residual <= self.tol:
            raise ValueError(f"effect map is not identity preserving (residual {residual:.3e})")
        object.__setattr__(self, "kraus", ops)

    def on_effect(self, p: np.ndarray) -> np.ndarray:
        """Transport an input effect: N(P) = sum_l N_l† P N_l."""
        return kraus_sum(self.kraus.conj().transpose(0, 2, 1), p)

    def on_state(self, rho: np.ndarray) -> np.ndarray:
        """Trace-preserving dual action: N_*(rho) = sum_l N_l rho N_l†."""
        return kraus_sum(self.kraus, rho)


def _certified(s: Supermap, tol: float) -> DeterminismCertificate:
    """The determinism certificate of s; raises NotDeterministicError if it fails at tol."""
    cert = determinism_certificate(s)
    if not cert.verdict(tol):
        shown = _cap_non_finite(cert.residual)
        raise NotDeterministicError(f"supermap is not deterministic (residual {shown:.3e})", shown)
    return cert


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
    cols_a, cols_b = (s.kraus.transpose(2, 1, 0) for s in (a, b))
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
