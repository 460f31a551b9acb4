"""Process POVMs: testers assigning outcome probabilities to operations.

A tester on operations from H_in to H_out is a finite set of positive
operators {P_j} on H_out ⊗ H_in normalized as sum_j P_j = I ⊗ sigma for a
state sigma on H_in.  Outcome probabilities are p_j = Tr[E P_j] on the Choi
operator E, and they sum to one on channels.  Testers are exactly the
probabilistic supermaps with one-dimensional output spaces whose sum is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EQ_TOL,
    ResidualError,
    _cap_non_finite,
    _check_dims,
    _operator_stack,
    check_povm,
    is_density_matrix,
    is_positive_semidefinite,
    kron,
    numerical_rank,
    psd_factors,
    readonly_copy,
)
from .operations import QuantumOperation, _check_ports
from .supermap import Supermap, _factor_identity


@dataclass(frozen=True, eq=False)
class Tester:
    """Validated process POVM with its normalization state.

    Validated at construction within ``tol``: each effect must be positive
    and their sum must factor as I ⊗ sigma, with sigma (derived, not passed)
    a state on H_in; the residual of that factorization is reported on
    failure, and kept with its trace gap as ``residual``/``trace_gap``
    (derived) on success.  The effects are stored as one read-only
    (n, d, d) array, d = h_out·h_in, and sigma as a read-only copy.  The
    same ``tol`` sets the clamp of ``evaluate`` and the rank rule of
    ``is_informationally_complete``.
    """

    h_in: int
    h_out: int
    effects: np.ndarray
    tol: float = EQ_TOL
    sigma: np.ndarray = field(init=False)
    residual: float = field(init=False)
    trace_gap: float = field(init=False)

    def __post_init__(self):
        _check_dims(self.h_in, self.h_out)
        d = self.h_out * self.h_in
        effects = _operator_stack(self.effects, (d, d), "tester effect")
        if not len(effects):
            raise ValueError("tester needs at least one effect")
        if not all(map(is_positive_semidefinite, effects)):
            raise ValueError("tester effect is not positive semidefinite")
        object.__setattr__(self, "effects", effects)
        # Python's sum: numpy's effects.sum(0) adds 1x1 effects pairwise, in another order.
        sigma, residual, trace_gap = _factor_identity(sum(effects), self.h_out, self.h_in)
        if not (residual <= self.tol and trace_gap <= self.tol):  # NaN fails too
            residual, trace_gap = map(_cap_non_finite, (residual, trace_gap))
            raise ResidualError(
                f"effects do not normalize to I ⊗ sigma (residual {residual:.3e}, "
                f"trace gap {trace_gap:.3e})", max(residual, trace_gap)
            )
        object.__setattr__(self, "sigma", readonly_copy(sigma))
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "trace_gap", trace_gap)

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Outcome probabilities of a tester on one operation."""

    probabilities: np.ndarray

    def __iter__(self):
        return iter(self.probabilities)

    def __getitem__(self, j: int) -> float:
        return float(self.probabilities[j])

    def __len__(self) -> int:
        return len(self.probabilities)


def make_tester(effects, h_out: int, h_in: int, tol: float = EQ_TOL) -> Tester:
    """Validated tester from its effects, with the normalization state extracted."""
    return Tester(h_in=h_in, h_out=h_out, effects=effects, tol=tol)


def evaluate(t: Tester, op: QuantumOperation) -> OutcomeDistribution:
    """Outcome probabilities p_j = Tr[choi P_j], clamped to [0, 1] within ``t.tol``."""
    _check_ports(op, t.h_in, t.h_out, "tester")
    x = np.einsum("ij,kji->k", op.choi, t.effects).real
    x = np.where((-t.tol <= x) & (x < 0.0), 0.0, x)
    return OutcomeDistribution(np.where((1.0 < x) & (x <= 1.0 + t.tol), 1.0, x))


def discrimination_probability(t: Tester, ops, priors) -> float:
    """Bayes success probability when outcome j is read as "channel j"."""
    ops = list(ops)
    priors = np.asarray(priors, dtype=float)
    if len(ops) != t.n_outcomes or priors.shape != (t.n_outcomes,):
        raise ValueError(
            f"need one channel and one prior per outcome ({t.n_outcomes}), "
            f"got {len(ops)} channels and priors of shape {priors.shape}"
        )
    if not (np.isfinite(priors).all() and (priors >= 0).all()):
        raise ValueError("priors must be finite and non-negative")
    if abs(priors.sum() - 1.0) > EQ_TOL:
        raise ValueError("priors must sum to 1")
    return float(
        sum(priors[j] * evaluate(t, ops[j])[j] for j in range(t.n_outcomes))
    )


def is_informationally_complete(t: Tester) -> bool:
    """True iff the effects span the full operator space on H_out ⊗ H_in.

    Decided by the rank of the stacked vectorized effects at the relative
    singular-value threshold ``t.tol * s_max``; fewer than (h_out·h_in)²
    effects cannot span, and are rejected without an SVD.
    """
    full = (t.h_out * t.h_in) ** 2
    if len(t.effects) < full:
        return False
    return numerical_rank(t.effects.reshape(len(t.effects), -1), t.tol) == full


def prepare_measure_tester(rho: np.ndarray, povm, h_out: int) -> Tester:
    """Tester that feeds the state rho into the operation and measures a POVM.

    Effects are M_j ⊗ rho^T, so probabilities reproduce Tr[E(rho) M_j]; the
    normalization state is sigma = rho^T.
    """
    rho = np.asarray(rho, dtype=complex)
    effects = [kron(np.asarray(m, dtype=complex), rho.T) for m in povm]
    return make_tester(effects, h_out, rho.shape[0])


def tester_from_circuit(input_state: np.ndarray, povm, h_in: int, h_out: int) -> Tester:
    """Tester from a bipartite input state and a joint POVM on output ⊗ ancilla.

    ``input_state`` lives on H_in ⊗ B and each POVM element on H_out ⊗ B.
    The ancilla is contracted so that Tr[(E ⊗ I)(input_state) M_j] = Tr[E P_j]
    for every operation E.
    """
    _check_dims(h_in, h_out)
    x = np.asarray(input_state, dtype=complex)
    if not is_density_matrix(x):
        raise ValueError("input state is not a density matrix")
    if x.shape[0] % h_in:
        raise ValueError("input state dimension is not a multiple of h_in")
    b = x.shape[0] // h_in
    m5 = check_povm(povm, h_out * b, "joint POVM").reshape(-1, h_out, b, h_out, b)
    # P_j[(a,alpha),(c,gamma)] = sum_{b,d} X[(gamma,b),(alpha,d)] M_j[(a,d),(c,b)]
    effects = np.einsum("gbad,jedcb->jeacg", x.reshape(h_in, b, h_in, b), m5)
    return make_tester(effects.reshape(-1, h_out * h_in, h_out * h_in), h_out, h_in)


def as_supermap_parts(t: Tester) -> list[Supermap]:
    """Encode each effect as a supermap with one-dimensional output spaces.

    Effect eigenvectors become bra-vector Kraus operators, so each part maps
    a Choi operator E to the scalar Tr[E P_j]; the parts sum to a
    deterministic supermap exactly when the tester is normalized.
    """
    parts = []
    d = t.h_out * t.h_in
    for p in t.effects:
        ops = psd_factors(p).conj().T.reshape(-1, 1, d)
        if not ops.size:
            ops = np.zeros((1, 1, d), dtype=complex)
        parts.append(Supermap(t.h_in, t.h_out, 1, 1, ops))
    return parts
