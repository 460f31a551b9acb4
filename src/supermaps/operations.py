"""Quantum operations as Choi operators, with Kraus interconversion.

A quantum operation maps states on an input space (dimension ``dim_in``) to
unnormalized states on an output space (``dim_out``).  It is stored through
its Choi operator on the composite out ⊗ in space, built against the
unnormalized maximally entangled vector |I> = sum_n |n>|n>:

    choi = sum_j vec(E_j) vec(E_j)†        (row-major vec)

Applying the map contracts the input factor:

    E(rho) = Tr_in[(I ⊗ rho^T) choi]

Transposition is always taken in the computational basis.  States are
operations with ``dim_in == 1``, effects are operations with ``dim_out == 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    EQ_TOL,
    HERM_TOL,
    POS_TOL,
    _check_dims,
    _kraus_operators,
    dag,
    frob,
    hermitian_spectrum,
    hermiticity_residual,
    kraus_sum,
    kron,
    min_eig_floor,
    permute_systems,
    psd_factors,
    random_isometry,
    readonly_copy,
    rel_residual,
)


def choi_residuals(choi: np.ndarray, dim_in: int, dim_out: int) -> dict:
    """Residuals and verdicts of the operation contract for a candidate Choi operator.

    Residuals: hermiticity, extreme eigenvalues of the Hermitian part, trace increase
    (largest eigenvalue of effect − I, clipped at 0), channel residual ||effect − I||_F.
    Verdicts, in the order QuantumOperation enforces them: hermitian, cp, trace_non_increasing.
    """
    choi = np.asarray(choi, dtype=complex)
    herm = hermiticity_residual(choi)
    sym = (choi + dag(choi)) / 2.0  # exactly Hermitian: the helper leaves it as it is
    lam_min, lam_max = hermitian_spectrum(sym)
    effect = np.einsum(
        "nanb->ab", sym.reshape(dim_out, dim_in, dim_out, dim_in)
    )
    increase = max(0.0, hermitian_spectrum(effect)[1] - 1.0)
    return {
        "hermiticity": herm,
        "min_eig": lam_min,
        "max_eig": lam_max,
        "trace_increase": increase,
        "channel_residual": frob(effect - np.eye(dim_in)),
        "hermitian": herm <= HERM_TOL,
        "cp": min_eig_floor(lam_min, lam_max),
        "trace_non_increasing": increase <= POS_TOL * max(1.0, lam_max),
    }


@dataclass(frozen=True, eq=False)
class QuantumOperation:
    """Completely positive trace-non-increasing map in Choi form.

    The Choi operator lives on out ⊗ in (out factor first) and is validated
    at construction: Hermitian, positive semidefinite, and with effect
    Tr_out[choi] <= I, all within the package tolerances, except when
    ``kraus_to_choi`` builds it on its ``KrausSet``'s verdict.
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray

    def __post_init__(self):
        _check_dims(self.dim_in, self.dim_out)
        choi = readonly_copy(self.choi)
        d = self.dim_out * self.dim_in
        if choi.shape != (d, d):
            raise ValueError(f"Choi operator must be {d}x{d}, got {choi.shape}")
        if not np.all(np.isfinite(choi)):
            raise ValueError("Choi operator has non-finite entries")
        res = choi_residuals(choi, self.dim_in, self.dim_out)
        for verdict, message in (
            ("hermitian", "Choi operator not Hermitian (residual {hermiticity:.3e})"),
            ("cp", "Choi operator not positive semidefinite (min eigenvalue {min_eig:.3e})"),
            ("trace_non_increasing",
             "operation increases trace (effect exceeds identity by {trace_increase:.3e})"),
        ):
            if not res[verdict]:
                raise ValueError(message.format(**res))
        object.__setattr__(self, "choi", choi)

    @property
    def choi4(self) -> np.ndarray:
        """Choi reshaped to (out, in, out, in) axes."""
        return self.choi.reshape(self.dim_out, self.dim_in, self.dim_out, self.dim_in)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Operator-sum representation E(rho) = sum_j E_j rho E_j†, with ``operators``
    one read-only array (r, dim_out, dim_in); r = 0 is the zero operation."""

    dim_in: int
    dim_out: int
    operators: np.ndarray

    def __post_init__(self):
        _check_dims(self.dim_in, self.dim_out)
        ops = _kraus_operators(self.operators, (self.dim_out, self.dim_in))
        # sum_j E_j† E_j is the Gram matrix of the E_j stacked as one column.
        column = ops.reshape(-1, self.dim_in)
        gram = dag(column) @ column
        if not np.isfinite(gram).all():  # eigvalsh of an overflowed matrix is garbage
            raise ValueError("Kraus bound violated: sum E†E overflows")
        excess = hermitian_spectrum(gram)[1] - 1.0
        # Scaled as in QuantumOperation, by the largest Choi eigenvalue (the squared
        # spectral norm of the stacked vec(E_j)), needed only when excess > POS_TOL.
        if excess > POS_TOL and excess > POS_TOL * max(
            1.0, np.linalg.norm(ops.reshape(len(ops), -1), 2) ** 2
        ):
            raise ValueError(
                f"Kraus bound violated: sum E†E exceeds identity by {excess:.3e}"
            )
        object.__setattr__(self, "operators", ops)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Direct operator-sum action, sum_j E_j rho E_j†."""
        return kraus_sum(self.operators, rho)


def identity_operation(dim: int) -> QuantumOperation:
    """The identity channel on a dim-dimensional system."""
    vec_i = np.eye(dim, dtype=complex).reshape(-1)
    return QuantumOperation(dim, dim, np.outer(vec_i, vec_i.conj()))


def _kraus_choi(k: KrausSet) -> np.ndarray:
    """sum_j vec(E_j) vec(E_j)†: a sum of outer products, positive by construction."""
    d = k.dim_out * k.dim_in
    choi = np.zeros((d, d), dtype=complex)
    # One outer product at a time: no one contraction gives the bits kraus2choi writes.
    for v in k.operators.reshape(len(k.operators), d):
        choi += np.outer(v, v.conj())
    return choi


def kraus_to_choi(k: KrausSet) -> QuantumOperation:
    """Choi operator of a Kraus set: sum_j vec(E_j) vec(E_j)†.

    Taken on ``KrausSet``'s verdict, not validated again: a sum of outer
    products is Hermitian and positive up to rounding, and its effect
    (sum E†E)ᵀ is the matrix ``KrausSet`` bounded, at the same scale.
    """
    op = object.__new__(QuantumOperation)  # skips __post_init__, the validator
    choi = _kraus_choi(k)
    choi.setflags(write=False)
    for name, value in (("dim_in", k.dim_in), ("dim_out", k.dim_out), ("choi", choi)):
        object.__setattr__(op, name, value)
    return op


def choi_to_kraus(op: QuantumOperation) -> KrausSet:
    """Canonical Kraus set from the Choi eigendecomposition.

    Operators are sqrt(eigenvalue) times the unvectorized eigenvectors, kept
    only above the positivity threshold; they come out pairwise orthogonal in
    the Hilbert-Schmidt inner product and reproduce the Choi operator.
    """
    return KrausSet(op.dim_in, op.dim_out, psd_factors(op.choi).T.reshape(-1, op.dim_out, op.dim_in))


def _check_ports(op: QuantumOperation, dim_in: int, dim_out: int, what: str) -> None:
    """Raise ValueError unless op maps dim_in to dim_out, the open ports of ``what``."""
    if (op.dim_in, op.dim_out) != (dim_in, dim_out):
        raise ValueError(
            f"operation spaces ({op.dim_in}, {op.dim_out}) do not match "
            f"the {what}'s open ports ({dim_in}, {dim_out})"
        )


def apply_operation(op: QuantumOperation, rho: np.ndarray) -> np.ndarray:
    """Unnormalized output Tr_in[(I ⊗ rho^T) choi]; its trace is the probability."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (op.dim_in, op.dim_in):
        raise ValueError(f"state shape {rho.shape} != ({op.dim_in}, {op.dim_in})")
    return np.einsum("namb,ab->nm", op.choi4, rho)


def effect_of(op: QuantumOperation) -> np.ndarray:
    """The effect P = Tr_out[choi]; probabilities are Tr[rho^T P]."""
    return np.einsum("nanb->ab", op.choi4)


def is_channel(op: QuantumOperation, tol: float = EQ_TOL) -> bool:
    """True iff the effect equals the identity, i.e. the map preserves trace."""
    return rel_residual(effect_of(op), np.eye(op.dim_in)) <= tol


def compose(second: QuantumOperation, first: QuantumOperation) -> QuantumOperation:
    """Sequential composition second ∘ first at the Choi level."""
    if first.dim_out != second.dim_in:
        raise ValueError(
            f"cannot compose: first outputs dim {first.dim_out}, second expects {second.dim_in}"
        )
    # Contract the intermediate space on both sides of the Choi operators.
    c = np.einsum("ijkl,jmlp->imkp", second.choi4, first.choi4)
    d = second.dim_out * first.dim_in
    return QuantumOperation(first.dim_in, second.dim_out, c.reshape(d, d))


def tensor(a: QuantumOperation, b: QuantumOperation) -> QuantumOperation:
    """Parallel composition a ⊗ b with canonical (out_a, out_b, in_a, in_b) order."""
    raw = kron(a.choi, b.choi)
    dims = [a.dim_out, a.dim_in, b.dim_out, b.dim_in]
    choi = permute_systems(raw, dims, [0, 2, 1, 3])
    return QuantumOperation(a.dim_in * b.dim_in, a.dim_out * b.dim_out, choi)


def random_channel(
    dim_in: int, dim_out: int, kraus_rank: int, seed: int | np.random.Generator
) -> QuantumOperation:
    """Random channel from a Haar-style Stinespring isometry.

    Requires dim_out * kraus_rank >= dim_in so the isometry exists.
    """
    if kraus_rank < 1:
        raise ValueError("kraus_rank must be at least 1")
    if dim_out * kraus_rank < dim_in:
        raise ValueError(
            f"no isometry into dim {dim_out}x{kraus_rank} from dim {dim_in}"
        )
    v = random_isometry(dim_out * kraus_rank, dim_in, seed)
    ops = v.reshape(dim_out, kraus_rank, dim_in).transpose(1, 0, 2)
    return kraus_to_choi(KrausSet(dim_in, dim_out, ops))


def random_operation(
    dim_in: int, dim_out: int, kraus_rank: int, seed: int | np.random.Generator
) -> QuantumOperation:
    """Random trace-non-increasing operation (scaled random channel)."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.2, 1.0)
    ch = random_channel(dim_in, dim_out, kraus_rank, rng)
    return QuantumOperation(dim_in, dim_out, scale * ch.choi)
