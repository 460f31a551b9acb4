"""Dense complex linear algebra with multi-factor tensor bookkeeping.

All composite indices are row-major with the leftmost tensor factor most
significant: |i> ⊗ |j> sits at index i*dim_j + j.  Everything here works on
plain complex ndarrays and is pure (inputs are never mutated), except that
``_cholesky_certifies`` shifts the Hermitian part ``is_positive_semidefinite`` forms.

Tolerance policy, shared by the whole package:

- residuals: two matrices agree when ||a - b||_F <= tol * max(1, ||b||_F)
  (``rel_residual``; ``isometry_residual`` applies it to M†M against I),
  with tol = EQ_TOL;
- orthogonality: projectors satisfy ||P Q||_F <= tol * max(1, ||P||_F ||Q||_F);
- positivity, one rule (``is_positive_semidefinite``): hermiticity residual
  (``hermiticity_residual``) at most HERM_TOL, and smallest eigenvalue of the
  Hermitian part (``hermitian_spectrum``) at least
  -POS_TOL * max(1, lambda_max).  Choi operators follow it through
  ``choi_residuals``, whose verdicts ``QuantumOperation`` enforces and
  ``check-op`` reports; their trace increase (the effect's excess over I) is
  a positivity test at the same scale, in ``KrausSet`` too.  ``psd_factors``
  keeps exactly the eigenvalues above +POS_TOL * max(1, lambda_max).  On a
  low-rank n x n H, n >= 36, it takes them from Ritz pairs (theta_j, z_j) of a
  sketch of H's range (``_ritz_pairs``) only where the residual eps, at least
  ||H - Z diag(theta) Z†||_F, is at most eigh's backward error
  b = n eps_mach ||H||_F, and, by Weyl with the margin eps + b, every theta_j
  and the zeros outside the sketch lie beyond the margin from the cutoff; one
  theta_j is dropped; and no two kept theta_j, nor the boundary pair, lie
  within twice it, so a degenerate H keeps eigh's basis.  Else eigh decides;
- positivity certificate (``_cholesky_certifies``): a finite Cholesky factor
  of H + τI, H the Hermitian part, τ = POS_TOL/2 * max(1, max diag H), proves
  lambda_min > -POS_TOL/2 * max(1, lambda_max) (max diag H <= lambda_max)
  less its backward error, about n eps ||H||: far inside the other half for
  n <= 4096.  Elsewhere the eigensolver decides.  An empty matrix is positive.
  ``QuantumOperation`` decides through the rule and its trace bound at
  POS_TOL * max(1, max diag H); ``choi_residuals`` only where one fails;
- the effect map's factors are the thin SVD A_0 = U Σ Y† of one Kraus block,
  keeping sigma_j >= SIGMA_CUTOFF * sigma_0 (exact rank-deficient blocks show
  spurious sigma_j of at most 5.3e-16 sigma_0, circuits with d <= 32), less
  the smallest sigma_j whose sum of sigma_j² is within the certificate's worst
  absolute bound in that basis, but never a sigma_j within SIGMA_CUTOFF
  sigma_0 of one kept: equal sigma_j stay or go together, so the residual
  does not depend on the SVD's basis among them.  Dropping moves the action
  by about sigma_j sigma_0, which ``realize`` bounds at ``tol``
  (``rebuild_residual``, then the exact ``action_distance``).  Its W = B Σ⁻¹
  misses an isometry by up to tol * max(1, ||Σ²||) over sigma_min² (``w_residual_bound``);
  where it may and does, ``realize`` takes B's polar factor, good to eps / sigma_j, not
  eps / sigma_j² as W, and the exact ``action_distance``;
- hermiticity is measured only where it can fail: matrices given to the
  positivity rule, Choi operators in ``choi_residuals`` and ancilla
  projectors (at ``tol``).  Matrices Hermitian by construction up to rounding
  (an effect, sum E†E) get a spectrum; the effect maps the determinism tests
  derive, all Gram matrices, get neither;
- admission (``operations._admitted``): values the library builds and can
  prove valid skip a second check.  ``kraus_to_choi``'s Choi operator, a sum
  of outer products, takes its ``KrausSet``'s verdict on the effect (sum E†E)ᵀ;
  ``random_channel``'s has effect (V†V)ᵀ = I to QR rounding (about 1e-15, far
  inside POS_TOL), and ``random_operation``'s is scale < 1 times that.  The
  projectors of ``realize_probabilistic`` are exact 0/1 diagonals on disjoint
  ranges that sum to exactly I;
- rank: ``numerical_rank`` counts the singular values above tol * s_max;
- determinism: ``product_residual`` rho bounds ||A_m†A_n - δ_mn C|| /
  max(1, δ_mn ||C||), C = choi_n, all Frobenius (``DeterminismCertificate``).
  With Δ the largest ||A_m†A_n - δ_mn C̄|| for C̄ the mean of the A_m†A_m,
  e = h_in k_in and ε = max||E_m||: Δ <= 2 rho max(1, ||C||), rho <= 2 sqrt(3) Δ
  + ε², ε² <= (2 sqrt(3) + 4 sqrt(e)) Δ + 2 e (SIGMA_CUTOFF sigma_0)², and
  ``tp_residual`` is within sqrt(h_in / k_in) Δ of C̄'s.  So the verdict may
  differ from a test of Δ and C̄ only in that band, linear in Δ;
- effect-wise determinism: ``is_deterministic_effectwise`` holds each
  off-diagonal (m, n) block of output effects whole to tol, a gap at least
  its worst unit's and at most h_in times it.  So it never accepts where a
  test of every unit rejects, and rejects where it accepts only when the
  worst off-diagonal unit gap lies in (tol / h_in, tol]: a one-sided band;
A caller's ``tol`` (the CLI's ``--tol``) replaces EQ_TOL in the residual,
orthogonality and rank rules.  HERM_TOL and POS_TOL are fixed: the positivity
helpers take no ``tol``, and ``check-op``'s ``--tol`` governs only ``channel``.
A tester's ``tol`` is set once, at construction: it also sets the clamp of
``evaluate`` and the rank rule of ``is_informationally_complete``.
A residual that is not finite reads 1e300 in every report and message
(``_cap_non_finite``), and a NaN residual fails: folds keep it (``_worst``).
A check whose message names a residual raises ``ResidualError``, which carries it;
``NotDeterministicError`` carries ``tp_residual`` when the trace condition
fails (decided before any SVD), else ``residual``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# The tolerances of the policy in the module docstring.
EQ_TOL = 1e-8
HERM_TOL = 1e-8
POS_TOL = 1e-9
SIGMA_CUTOFF = 1e-12  # the effect map's cutoff, on singular values

# Threshold below which an eigenvector entry counts as zero for the phase fix.
_PHASE_EPS = 1e-10


class ResidualError(ValueError):
    """A failed check; ``residual`` is the number its message names, or None."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def frob(m: np.ndarray) -> float:
    """Frobenius norm: the sum of squares of the flat entries, real and imaginary
    parts apart, then the square root.  For float64, complex128 and integer
    input these are the bits of np.linalg.norm(m), without its argument handling.
    """
    x = np.asarray(m).ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    x = x.astype(float, copy=False)
    return math.sqrt(x.dot(x))


def rel_residual(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_F scaled by max(1, ||b||_F)."""
    return frob(np.asarray(a) - np.asarray(b)) / max(1.0, frob(np.asarray(b)))


def hermiticity_residual(m: np.ndarray) -> float:
    return rel_residual(m, dag(m))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†) / 2 with the bits of that expression, in one new array instead of two."""
    h = (m + dag(m)).astype(np.result_type(m, 0.5), copy=False)
    h *= 0.5
    return h


def hermitian_spectrum(m: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the Hermitian part of m."""
    w = np.linalg.eigvalsh(_hermitian_part(m))
    return float(w[0]), float(w[-1])


def min_eig_floor(lam_min: float, lam_max: float) -> bool:
    """Positivity verdict for an eigenvalue range, at POS_TOL."""
    return lam_min >= -POS_TOL * max(1.0, lam_max)


def _cholesky_certifies(h: np.ndarray) -> bool:
    """Whether h + τI, τ = POS_TOL/2 * max(1, max diag h), has a finite Cholesky
    factor: then h, exactly Hermitian, passes ``min_eig_floor`` (the tolerance
    policy).  False decides nothing.  Shifts h's diagonal in place."""
    if h.dtype.char not in "dD":  # single precision rounds above the shift
        return not h.size  # an empty matrix has no eigenvalue to round
    diagonal = np.einsum("ii->i", h)  # a view, written through
    diagonal += 0.5 * POS_TOL * diagonal.real.max(initial=1.0)
    try:
        # A non-finite entry of the factor reaches the diagonal of its row.
        return bool(np.isfinite(np.linalg.cholesky(h).diagonal()).all())
    except np.linalg.LinAlgError:
        return False


def is_positive_semidefinite(m: np.ndarray) -> bool:
    """The positivity rule: m is Hermitian within HERM_TOL and m >= 0 within POS_TOL.
    The eigensolver decides only what the Cholesky certificate cannot accept."""
    # h comes before the residual's temporaries: formed after them, it made
    # QuantumOperation(16, 16, choi) 15% slower (one BLAS thread, Xeon).
    h = _hermitian_part(m)
    return hermiticity_residual(m) <= HERM_TOL and (_cholesky_certifies(h) or min_eig_floor(*hermitian_spectrum(m)))


def readonly_copy(m: np.ndarray) -> np.ndarray:
    """Complex copy of m that cannot be written: the arrays of validated values."""
    m = np.array(m, dtype=complex)
    m.setflags(write=False)
    return m


def _cap_non_finite(x: float) -> float:
    """x as every report and message writes it: NaN and +inf read 1e300, -inf -1e300."""
    return x if math.isfinite(x) else (-1e300 if x < 0 else 1e300)


def _worst(*xs: float) -> float:
    """max(xs), or NaN if one is NaN: max alone keeps a NaN only when it comes first."""
    return math.nan if any(map(math.isnan, xs)) else max(xs)


def _check_dims(*dims: int) -> None:
    """Raise ValueError unless every space dimension is at least 1."""
    if min(dims) < 1:
        raise ValueError("dimensions must be positive")


def _operator_stack(ops, shape: tuple[int, int] | None, what: str = "Kraus operator") -> np.ndarray:
    """One read-only complex array (n, *shape) of the operators ``ops``, any
    iterable of 2-D arrays or one 3-D array; ``shape=None`` takes the first one's.
    One copy, one shape check and one finiteness check, whose messages name ``what``."""
    # Copies inline, not through readonly_copy: the benchmark's tracer pins the
    # spans of Supermap's validator, which must therefore call no public function.
    ops = ops if isinstance(ops, np.ndarray) else list(ops)
    shape = shape or (np.shape(ops[0]) if len(ops) else (0, 0))
    if len(shape) != 2:
        raise ValueError(f"{what}s must be matrices, got shape {shape}")
    try:
        arr = np.array(ops, dtype=complex) if len(ops) else np.empty((0, *shape), dtype=complex)
        got = arr.shape[1:]
    except ValueError:  # ragged operators: name the first of another shape
        got = next((np.shape(k) for k in ops if np.shape(k) != shape), None)
        if got is None:
            raise
    if got != shape:
        raise ValueError(f"{what} shape {got} != {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has non-finite entries")
    arr.setflags(write=False)
    return arr


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor most significant."""
    return np.kron(np.asarray(a), np.asarray(b))


def _check_square(m: np.ndarray, dims: Sequence[int]) -> tuple[np.ndarray, int]:
    m = np.asarray(m)
    total = int(np.prod(dims))
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != total:
        raise ValueError(
            f"matrix shape {m.shape} inconsistent with tensor factors {tuple(dims)}"
        )
    return m, total


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``dims`` gives the factor dimensions left to right; ``keep`` holds the
    indices of the factors to retain (in their original order).
    """
    m, _ = _check_square(m, dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    t = m.reshape(*dims, *dims)
    # Build einsum subscripts: traced factors share the row/column axis label.
    row = [chr(ord("a") + i) for i in range(n)]
    col = [row[i] if i not in keep else chr(ord("a") + n + i) for i in range(n)]
    out = [row[i] for i in keep] + [col[i] for i in keep]
    kept = int(np.prod([dims[i] for i in keep])) if keep else 1
    return np.einsum("".join(row + col) + "->" + "".join(out), t).reshape(kept, kept)


def permute_systems(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: output factor i is input factor perm[i]."""
    m, total = _check_square(m, dims)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{tuple(perm)} is not a permutation of {n} factors")
    t = m.reshape(*dims, *dims)
    axes = [int(p) for p in perm] + [int(p) + n for p in perm]
    return t.transpose(axes).reshape(total, total)


def psd_factors(m: np.ndarray) -> np.ndarray:
    """``canonical_factors`` of the eigenpairs of m's Hermitian part H above
    POS_TOL * max(1, lambda_max), in descending order, so m ≈ F F†.  Column j
    unvectorizes to the j-th canonical Kraus operator when m is a Choi operator.
    A low-rank H, n >= 36, takes them from a sketch of its range where the
    tolerance policy's certificate accepts it (``_ritz_pairs``), else eigh."""
    m = np.asarray(m, dtype=complex)
    h = _hermitian_part(m)
    pairs = _ritz_pairs(m, h)
    if pairs is None:
        w, v = np.linalg.eigh(h)
        w, v = w[::-1], v[:, ::-1]
        keep = w > POS_TOL * w.max(initial=1.0)
        pairs = w[keep], v[:, keep]
    return canonical_factors(pairs[1]) * np.sqrt(pairs[0])


# One sketch costs four products of H with n × width blocks, eigh about n³.  On
# one BLAS thread an accepted sketch of Kraus rank 1-3 took 0.6-0.8 of eigh's
# time at n = 36-40 and 0.3-0.5 at n = 49-64; at n = 25-32 it won or lost
# within the noise, and at n = 16 it lost (1.6x at rank 1).
_SKETCH_MIN_DIM = 36


def _ritz_pairs(m: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(theta, Z), the eigenpairs of h = (m + m†)/2 that ``psd_factors`` keeps,
    descending: Ritz pairs of Q†hQ, Q = orth(h h Omega) for a fixed Gaussian
    n × width Omega, accepted by the tolerance policy's certificate; or None.
    The width is 2 ceil(k0) + 1, k0 = tr(h)² / ||h||_F² <= rank(h) for h >= 0
    (Cauchy–Schwarz on the spectrum), and the sketch runs only where
    4 width <= n.  The residual eps = ||m - Z diag(theta) Z†||_F over all width
    pairs bounds ||h - Z diag(theta) Z†||_F: m - h is anti-Hermitian, orthogonal
    to every Hermitian matrix.  h h Omega squares the spectrum, so a kept
    eigenvalue below about lambda_max / n is lost to rounding; the residual
    shows it and eigh decides.
    """
    n = len(h)
    if n < _SKETCH_MIN_DIM:
        return None
    scale = math.sqrt(np.vdot(h, h).real)
    trace = float(np.trace(h).real)
    # tr(h) <= sqrt(n) ||h||_F; this also refuses NaN, overflow and an underflowed norm.
    if not 0 < trace <= scale * math.sqrt(n) < math.inf:
        return None
    width = 2 * math.ceil((trace / scale) ** 2) + 1
    if 4 * width > n:
        return None
    omega = np.random.default_rng(0).standard_normal((n, width))
    q = np.linalg.qr(h @ (h @ omega))[0]
    w, u = np.linalg.eigh(dag(q) @ (h @ q))
    theta, z = w[::-1], q @ u[:, ::-1]
    residual = (z * theta) @ dag(z) - m
    eps = math.sqrt(np.vdot(residual, residual).real)
    backward = n * np.finfo(float).eps * scale
    margin = eps + backward
    cutoff = POS_TOL * max(1.0, theta[0])
    kept = int(np.count_nonzero(theta > cutoff))
    if (eps <= backward and kept < width and cutoff > margin and (abs(theta - cutoff) > margin).all()
            and (-np.diff(theta[:kept + 1]) > 2 * margin).all()):
        return theta[:kept], z[:, :kept]
    return None


def canonical_factors(v: np.ndarray) -> np.ndarray:
    """The orthonormal columns of v, each rescaled so that its first entry above
    the phase threshold is real positive, which makes the canonical Kraus sets
    deterministic.  That entry is written as its modulus, so its imaginary
    part is exactly 0."""
    if not v.size:
        return v
    # The pivot of each column is its first entry above the threshold (the
    # argmax of the mask); a unit vector always has one.  Its modulus comes
    # from hypot, as abs() of a complex scalar does: numpy's vectorized
    # complex abs can differ in the last bit.
    cols = np.arange(v.shape[1])
    first = (np.abs(v) > _PHASE_EPS).argmax(axis=0)
    pivot = v[first, cols]
    modulus = np.hypot(pivot.real, pivot.imag)
    v = v * (pivot.conj() / modulus)
    v[first, cols] = modulus
    return v


def kraus_sum(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Operator sum sum_K K x K† over an array (r, rows, cols) of operators; 0 if r = 0.

    x is one (cols, cols) matrix or a stack (..., cols, cols), summed each
    with the bits of its own call.  One matmul pair per operator, accumulated
    in place: at the sizes used here this is faster than a stacked einsum.
    """
    out = np.zeros(x.shape[:-2] + (ops.shape[1],) * 2, dtype=complex)
    for k in ops:
        out += k @ x @ dag(k)
    return out


def numerical_rank(m: np.ndarray, tol: float = EQ_TOL) -> int:
    """Number of singular values above tol * s_max."""
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol * s[0])) if s.size else 0


def isometry_residual(m: np.ndarray) -> float:
    """Relative residual of the Gram matrix M†M against the identity."""
    return rel_residual(dag(m) @ m, np.eye(m.shape[1]))


def is_density_matrix(m: np.ndarray) -> bool:
    """Square, finite, positive semidefinite and of unit trace, within POS_TOL and EQ_TOL."""
    m = np.asarray(m)
    return (m.ndim == 2 and m.shape[0] == m.shape[1] and np.isfinite(m).all()
            and is_positive_semidefinite(m) and abs(np.trace(m) - 1.0) <= EQ_TOL)


def check_povm(povm, d: int | None = None, what: str = "POVM") -> np.ndarray:
    """Validate d x d POVM elements: each one's shape and positivity, then the sum.

    ``d`` defaults to the first element's shape, which must be square; an empty
    POVM is rejected.  Returns the elements as one read-only (n, d, d) complex
    array; raises ValueError naming ``what``.
    """
    povm = _operator_stack(povm, None if d is None else (d, d), f"{what} element")
    if not len(povm):
        raise ValueError(f"{what} is empty")
    d = povm.shape[1]
    _check_dims(d)
    if povm.shape[2] != d:
        raise ValueError(f"{what} element shape {povm.shape[1:]} != ({d}, {d})")
    if not all(map(is_positive_semidefinite, povm)):
        raise ValueError(f"{what} element is not positive semidefinite")
    if rel_residual(sum(povm), np.eye(d)) > EQ_TOL:
        raise ValueError(f"{what} does not sum to the identity")
    return povm


def random_isometry(rows: int, cols: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-style random isometry (orthonormal columns), deterministic per seed."""
    if cols > rows:
        raise ValueError(f"cannot build a {rows}x{cols} isometry: more columns than rows")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))


def random_density(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Hilbert-Schmidt style)."""
    _check_dims(dim)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dag(g)
    return rho / np.trace(rho).real
