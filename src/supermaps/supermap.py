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
supermap: it transports input effects to output effects.  The effect-wise
test builds N's Choi operator as the mean of the Gram blocks A_m†A_m of the
Kraus entries on H_out, and measures every block A_m†A_n against it, the
off-diagonal ones through triangular factors; the certificate builds it as
Y Σ² Y† from the thin SVD of one Kraus block.  Either way N is CP by
construction, and only the factorization and N's normalization are tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    EQ_TOL,
    SIGMA_CUTOFF,
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
    readonly_copy,
    rel_residual,
)
from .operations import QuantumOperation, _check_ports

# Budget in complex entries (1 MB) for the blocks that action_distance and the
# effect-wise test multiply into (_factor_gaps), the certificate's blocks E_n,
# B_m†B_n and B_m†E_n (_singular_gaps), and the effect-wise test's runs of
# diagonal blocks; a buffer exceeds it only where a single block does.  The
# effect-wise test forms its whole block square at most at a quarter of it.
_CHUNK = 1 << 16


class NotDeterministicError(ResidualError):
    """Raised when an operation requires a channel-preserving supermap; holds the ``residual``."""


@dataclass(frozen=True, eq=False)
class DeterminismCertificate:
    """Residuals backing a determinism verdict; tolerance-independent.

    Frozen, with read-only arrays, because supermaps cache it.  Everything
    but ``tp_residual`` is read from the thin SVD of one Kraus block,
    computed on first use (``_basis``).
    """

    tp_residual: float  # ||Tr_Hin[A_0†A_0] − I|| / sqrt(k_in)
    kraus: np.ndarray = field(repr=False)  # T[i, c, a, m, u], shape (r, k_out, k_in, h_out, h_in)

    def verdict(self, tol: float = EQ_TOL) -> bool:
        # A supermap failing the trace condition, NaN included, is never factored.
        return bool(self.tp_residual <= tol and self.product_residual <= tol)

    @property
    def residual(self) -> float:
        return max(self.product_residual, self.tp_residual)

    @cached_property
    def _basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
        """(σ, Y, B, product_residual, rebuild_residual) of the kept basis; see determinism_certificate."""
        r, k_out, k_in, h_out, h_in = self.kraus.shape
        e = h_in * k_in
        # a[(i, c), (m, u, a)] = T[i, c, a, m, u]: A_m is the column block m.
        a = self.kraus.transpose(0, 1, 3, 4, 2).reshape(r * k_out, h_out * e)
        _, sv, yh = np.linalg.svd(a[:, :e], full_matrices=False)
        rank = int(np.count_nonzero(sv >= SIGMA_CUTOFF * sv[0]))
        sv, y = sv[:rank], canonical_factors(yh[:rank].conj().T)
        b, bound, rebuild = _singular_gaps(a, y, sv)
        worst = np.max(bound)
        if sv[-1] ** 2 <= worst:  # drop the smallest σ_j while their sum of σ_j² is within it,
            rank = int(np.count_nonzero(np.cumsum(sv[::-1] ** 2)[::-1] > worst))
            if rank:  # but keep every σ_j within SIGMA_CUTOFF·σ_0 of a kept one: ties stay whole
                rank = int(np.count_nonzero(sv >= sv[rank - 1] - SIGMA_CUTOFF * sv[0]))
            if rank < len(sv):
                sv, y = sv[:rank], y[:, :rank]
                b, bound, rebuild = _singular_gaps(a, y, sv)
        bound.flat[:: h_out + 1] /= max(1.0, math.sqrt(np.dot(sv * sv, sv * sv)))  # ||Σ²||_F
        return sv, y, b, float(np.max(bound)), rebuild

    @property
    def product_residual(self) -> float:
        """Worst (m, n) bound (sqrt(||B_m†B_n − δ_mn·Σ²||² + ||B_m†E_n||² + ||B_n†E_m||²) +
        ||E_m||·||E_n||) / max(1, δ_mn·||Σ²||), all Frobenius, which is at least
        ||A_m†A_n − δ_mn·C|| / max(1, δ_mn·||C||) for C = choi_n, as E_m·Y = 0."""
        return self._basis[3]

    @property
    def rebuild_residual(self) -> float:
        """max||E_m||·(2·max||A_m|| + max||E_m||), at least the action distance between the
        supermap and the one whose Kraus blocks are the B_m Y† that ``realize``'s circuit holds.
        Both norms come from the E_m and B_m†B_m that ``_singular_gaps`` forms in its one pass."""
        return self._basis[4]

    @cached_property
    def factors(self) -> np.ndarray:
        """N's canonical Kraus operators, vectorized, read-only: the columns σ_j·y_j, rows (u, a)."""
        sv, y = self._basis[:2]
        return readonly_copy(y * sv)

    @property
    def circuit_w(self) -> np.ndarray:
        """``realize``'s W, a new array: W[(c, i), (m, j)] = (A_m y_j)[(i, c)] / σ_j, so that
        W V rebuilds each A_m up to E_m."""
        r, k_out, _, h_out, _ = self.kraus.shape
        sv, _, b = self._basis[:3]
        w = (b.reshape(r, k_out, h_out, len(sv)) / sv).transpose(1, 0, 2, 3)
        return w.reshape(k_out * r, h_out * len(sv))

    @cached_property
    def choi_n(self) -> np.ndarray:
        """Choi of the candidate N_* on H_in ⊗ K_in, C = Y Σ² Y†, read-only."""
        return readonly_copy(self.factors @ self.factors.conj().T)


def _singular_gaps(a: np.ndarray, y: np.ndarray, sv: np.ndarray):
    """(B, absolute bounds, rebuild bound) of the Kraus blocks a[:, (m, ·)] = A_m in the basis Y.

    B[(i, c), (m, j)] = (A_m y_j)[(i, c)].  Entry (m, n) of the bounds is
    sqrt(||G_mn||² + ||B_m†E_n||² + ||B_n†E_m||²) + ||E_m||·||E_n||, with
    G_mn = B_m†B_n − δ_mn·Σ² and E_n = A_n − B_n Y† formed explicitly: the
    first three are the parts of A_m†A_n − δ_mn·Y Σ² Y† inside and across
    span(Y), the last bounds the part outside it.  The rebuild bound is
    max||E_m||·(2·max||A_m|| + max||E_m||), ||A_m||² = Re tr(B_m†B_m) + ||E_m||².
    The column blocks n are walked in runs that hold E_n, every B_m†B_n and
    every B_m†E_n in at most _CHUNK entries, or one block where a block is larger.
    """
    rows, cols = a.shape
    e, rho = y.shape
    h = cols // e
    b = (a.reshape(rows * h, e) @ y).reshape(rows, h * rho)
    bh, yh, sq = b.conj().T, y.conj().T, sv * sv  # bh[(m, j), (i, c)]
    gaps, cross, (e_sq, b_sq) = np.empty((h, h)), np.empty((h, h)), np.empty((2, h))
    step = max(1, _CHUNK // ((rows + h * rho) * (rho + e)))
    for n in range(0, h, step):
        k = min(step, h - n)
        b_n = b[:, n * rho : (n + k) * rho]
        outside = a[:, n * e : (n + k) * e].reshape(rows * k, e) - b_n.reshape(rows * k, rho) @ yh
        parts = outside.view(float).reshape(rows, k, 2 * e)
        e_sq[n : n + k] = np.einsum("inz,inz->n", parts, parts)
        x = (bh @ b_n).reshape(h, rho, k, rho)
        b_sq[n : n + k] = np.einsum("mjmj->m", x[n : n + k]).real  # ||B_m||², before Σ² leaves it
        np.einsum("mjmj->mj", x[n : n + k])[...] -= sq
        parts = x.view(float)
        gaps[:, n : n + k] = np.einsum("mjnz,mjnz->mn", parts, parts)
        parts = (bh @ outside.reshape(rows, k * e)).view(float).reshape(h, rho, k, 2 * e)
        cross[:, n : n + k] = np.einsum("mjnz,mjnz->mn", parts, parts)
    e_norm, eps = np.sqrt(e_sq), math.sqrt(np.max(e_sq))
    rebuild = eps * (2 * math.sqrt(np.max(b_sq + e_sq)) + eps)  # ||A_m||² = ||B_m||² + ||E_m||²
    return b, np.sqrt(gaps + cross + cross.T) + np.multiply.outer(e_norm, e_norm), rebuild


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

    def __post_init__(self):
        _check_dims(self.h_in, self.h_out, self.k_in, self.k_out)
        ops = _operator_stack(self.kraus, (self.k_out * self.k_in, self.h_out * self.h_in))
        if not len(ops):
            raise ValueError("supermap needs at least one Kraus operator")
        object.__setattr__(self, "kraus", ops)

    def act(self, choi: np.ndarray) -> np.ndarray:
        """Raw action sum_i S_i choi S_i† on an arbitrary matrix."""
        return kraus_sum(self.kraus, np.asarray(choi, dtype=complex))

    @cached_property
    def _certificate(self) -> DeterminismCertificate:
        """The determinism certificate of the stored Kraus operators; see determinism_certificate."""
        t = self.kraus.reshape(-1, self.k_out, self.k_in, self.h_out, self.h_in)
        # a0[a, (i, c, u)] = A_0[(i, c), (u, a)], so a0* a0ᵀ is Tr_Hin[A_0†A_0]
        a0 = t[:, :, :, 0].transpose(2, 0, 1, 3).reshape(self.k_in, -1)
        return DeterminismCertificate(frob(a0.conj() @ a0.T - np.eye(self.k_in)) / np.sqrt(self.k_in), t)


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
    """Comb normalization residuals of the dual map, read in the singular basis of one Kraus block.

    With the Kraus operators stacked as T[i, c, a, m, u] (c on K_out, a on
    K_in, (m, u) on H_out ⊗ H_in), let A_m = T[:, :, :, m, :] with rows
    (i, c) and columns (u, a).  The dual image of I_Kout ⊗ |a><b| has the
    entries <m, u| · |n, v> = (A_m†A_n)[(u, a), (v, b)], so S is
    deterministic exactly when A_m†A_n = δ_mn·C for the Choi operator C of a
    trace-preserving N_*; then C = A_0†A_0.  ``tp_residual``, computed first
    from A_0 alone at r·d⁴ for (d,d,d,d), is Tr_Hin[A_0†A_0] against I.  The
    rest comes from the thin SVD A_0 = U Σ Y† on first read (``_basis``): with
    B_m = A_m Y and E_m = A_m − B_m Y†, S is deterministic exactly when every
    E_m = 0 and B_m†B_n = δ_mn·Σ², so ``product_residual`` costs r·d⁵·ρ for a
    rank-ρ effect map, C = Y Σ² Y† is ``choi_n``, and N is CP by construction.
    Y keeps the σ_j of the tolerance policy's drop rule: damage adds directions
    of σ_j² within the worst bound, which as columns of W are off by O(1).
    The supermap caches the certificate (``Supermap._certificate``).
    """
    return s._certificate


def is_deterministic(s: Supermap, tol: float = EQ_TOL) -> bool:
    """True iff the supermap sends every channel to a channel."""
    return determinism_certificate(s).verdict(tol)


def is_deterministic_effectwise(s: Supermap, tol: float = EQ_TOL) -> bool:
    """Independent determinism verifier through effect factorization.

    With A_m[(i, c), (mu, p)] = <c, p| S_i |m, mu> (c on K_out, p on K_in,
    (m, mu) on H_out ⊗ H_in), the output effect of the input unit
    |m,mu><n,nu| is Tr_Kout S(|m,mu><n,nu|)[p, q] = conj(A_m†A_n)[(mu, p), (nu, q)].
    The candidate map N on input effects comes from the maximally mixed
    probe, N(|mu><nu|) = sum_m Tr_Kout S(|m,mu><m,nu|) / h_out: its
    conjugated Choi operator is C̄, the mean of the A_m†A_m, so N is CP by
    construction.  Every output effect must equal delta_mn N(|mu><nu|), and
    N must be identity preserving.  Each stage below decides only if the
    ones before it hold.  N(I) is one k_in x k_in Gram at r·d⁵ (``_gram``),
    so a supermap failing it, NaN included, meets no e x e block,
    e = h_in·k_in.  Each off-diagonal block is measured whole,
    ||A_m†A_n||_F (the band of the tolerance policy).  A block square of at
    most _CHUNK / 4 entries is one matmul, which also holds the diagonal
    blocks.  Above it, ``_factor_gaps`` measures ||x_m x_n†|| for
    x_m = A_mᵀ, narrowed by its rule, and the diagonal blocks are formed in
    runs of at most _CHUNK entries, or one block.  C̄ is their mean where one
    run holds them all, else the probe's Gram; each unit's diagonal gap is
    over max(1, ||N(|mu><nu|)||).  Shares no code path with the certificate:
    ``_factor_gaps`` is ``action_distance``'s helper.
    """
    h_out, h_in, k_in = s.h_out, s.h_in, s.k_in
    e, r = h_in * k_in, len(s.kraus) * s.k_out
    # z[(i, c), m, (mu, p)] = <c, p| S_i |m, mu>: z[:, m] is A_m.
    z = np.ascontiguousarray(s.kraus.reshape(r, k_in, h_out, h_in).transpose(0, 2, 3, 1)).reshape(r, h_out, e)
    if not rel_residual(_gram(z.reshape(-1, k_in)) / h_out, np.eye(k_in)) <= tol:  # N(I); NaN fails
        return False
    x = z.transpose(1, 2, 0)  # x[m] = A_mᵀ, a view
    square = (h_out * e) ** 2 <= _CHUNK // 4
    if square:  # one matmul over the block square, which holds the diagonal blocks too
        g = np.matmul(z.reshape(r, -1).conj().T, z.reshape(r, -1)).reshape(h_out, e, h_out, e)
        gaps = np.einsum("minj,minj->mn", g.view(float), g.view(float))
    else:
        gaps = _factor_gaps(x)
    np.fill_diagonal(gaps, 0.0)  # off the diagonal, ||A_m†A_n||², or 0 below it
    if not np.sqrt(np.max(gaps)) <= tol:
        return False
    step = min(h_out, max(1, _CHUNK // (e * e)))
    if step < h_out:  # C̄ is the probe's Gram, taken before the runs of A_m†A_m, which share one buffer
        c_bar = _gram(z.reshape(-1, e)) / h_out
        buf = np.empty((step, e, e), dtype=complex)
        runs = (x[m : m + step] for m in range(0, h_out, step))
        runs = (np.matmul(run.conj(), run.transpose(0, 2, 1), out=buf[: len(run)]) for run in runs)
    else:  # one run holds every A_m†A_m, and C̄ is their mean
        runs = [np.einsum("mimj->mij", g) if square else np.matmul(x.conj(), x.transpose(0, 2, 1))]
        c_bar = runs[0].sum(0) / h_out
    parts = c_bar.view(float).reshape(h_in, k_in, h_in, 2 * k_in)
    n_scale = np.maximum(1.0, np.sqrt(np.einsum("upvq,upvq->uv", parts, parts)))
    for blk in runs:
        blk -= c_bar
        parts = blk.view(float).reshape(-1, k_in, h_in, 2 * k_in)
        gap = np.sqrt(np.einsum("ipvq,ipvq->iv", parts, parts)).reshape(-1, h_in, h_in) / n_scale
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


def _gram(w: np.ndarray) -> np.ndarray:
    """w†w for a C-contiguous complex matrix w, read from vᵀv for its real view v, (re, im)
    interleaved: one symmetric rank-k update, with no conjugated copy of w."""
    n, v = w.shape[1], w.view(float)
    m = (v.T @ v).reshape(n, 2, n, 2)
    g = np.empty((n, n), dtype=complex)
    np.add(m[:, 0, :, 0], m[:, 1, :, 1], out=g.real)
    np.subtract(m[:, 0, :, 1], m[:, 1, :, 0], out=g.imag)
    return g


def _factor_gaps(x: np.ndarray, sign: np.ndarray | float = 1.0) -> np.ndarray:
    """Squared ||X_i·J·X_j†||_F over a stack X of shape (n, p, q), for j >= i; J = diag(sign).

    The narrowing rule: where each block is at least twice as tall as it is
    wide (2·q <= p), the X_i are first replaced by their triangular factors R_i,
    X_i = Q_i R_i from one batched QR, as ||X_i J X_j†||_F = ||R_i J R_j†||_F;
    otherwise the blocks themselves are multiplied.  The gap of (j, i) is that
    of (i, j), so a run of rows i >= i0 is multiplied against the columns
    j >= i0 only, or, where one block row exceeds _CHUNK entries, one row block
    against runs of column blocks: each run is one matmul of conj(X_i)·J by
    X_jᵀ, of the same norm, into a buffer of at most max(_CHUNK, p²) entries,
    p after narrowing.  Entries with j < i hold their gap inside such a run and
    0 outside it.  Where the rows reshape to a view, as the effect-wise
    test's strided x_m do, only the run of rows being conjugated is copied.
    """
    x = np.linalg.qr(x, mode="r") if 2 * x.shape[2] <= x.shape[1] else x
    n, p, q = x.shape
    rows = x.reshape(n * p, q)
    step = min(n, max(1, _CHUNK // (n * p * p)))  # row blocks per run
    width = max(1, _CHUNK // (step * p * p))  # column blocks per run; n or more unless step is 1
    buf = np.empty(step * p * min(n, width) * p, dtype=complex)
    gaps = np.zeros((n, n))
    for i in range(0, n, step):
        k = min(step, n - i)
        lhs = rows[i * p : (i + k) * p].conj() * sign
        for j in range(i, n, width):
            c = min(width, n - j)
            blk = buf[: k * p * c * p].reshape(k * p, c * p)
            np.matmul(lhs, rows[j * p : (j + c) * p].T, out=blk)
            parts = blk.view(float).reshape(k, p, c, 2 * p)
            np.einsum("isjt,isjt->ij", parts, parts, out=gaps[i : i + k, j : j + c])
    return gaps


def action_distance(a: Supermap, b: Supermap) -> float:
    """Extensional distance: worst Frobenius gap of actions over matrix units.

    Supermaps with different Kraus lists can be the same map, so equality is
    decided by comparing actions on a spanning basis of input Choi operators.
    The action of ``a`` on |i><j| is A_i A_j†, where column k of A_i is column
    i of the k-th Kraus operator; likewise B_i for ``b``.  With X_i = [A_i, B_i]
    and J = diag(I, −I), ||A_i A_j† − B_i B_j†||_F = ||X_i J X_j†||_F, which
    ``_factor_gaps`` measures, narrowed by its rule.  Identical Kraus arrays
    give exactly 0.  Overflowing actions give NaN where ||X||_F² overflows
    (inf − inf, in whatever order BLAS sums), else inf where only a gap does.
    """
    if (a.h_in, a.h_out, a.k_in, a.k_out) != (b.h_in, b.h_out, b.k_in, b.k_out):
        raise ValueError("supermaps act on different spaces")
    if np.array_equal(a.kraus, b.kraus):
        return 0.0
    # x[i] = [A_i, B_i], column i of every Kraus operator of a, then of b: shape (d, k_out*k_in, r)
    x = np.concatenate([a.kraus, b.kraus]).transpose(2, 1, 0)
    gap = np.max(_factor_gaps(x, np.repeat([1.0, -1.0], [len(a.kraus), len(b.kraus)])))
    return float("nan") if not (np.isfinite(gap) or np.isfinite(frob(x))) else math.sqrt(gap)
