"""Circuit realization of supermaps as two isometries plus ancillas.

Every deterministic supermap factors as

    S(E)(rho) = Tr_A[ W (E ⊗ I_B)(V rho V†) W† ],

where V is an isometry from K_in into B ⊗ H_in (ancilla B carried alongside
the input), and W an isometry from H_out ⊗ B into K_out ⊗ A (ancilla A
discarded at the end).  Probabilistic supermaps arise from the same circuit
by measuring A projectively and post-selecting:

    S_j(E)(rho) = Tr_A[ (I ⊗ P_j) W (E ⊗ I_B)(V rho V†) W† (I ⊗ P_j) ].

Space-ordering convention: the composite after V is (B, H_in); the composite
after W is (K_out, A).  ``run_circuit`` evaluates the middle step E ⊗ I_B
as one contraction of E's Choi tensor with the (B, H_in) state, which lands
directly on (H_out, B), the order W expects; no operator on the enlarged
space is formed.

The construction goes through the effect map N of the supermap: with
canonical Kraus operators N_j of N, the operator Z = sum_j |b_j> ⊗ N_j†
connects the two Kraus decompositions of E -> Tr_Kout[S(E)], and V is the
partial transpose of Z on its second factor.  W's matrix elements are inner
products of the supermap's Kraus blocks against the canonical right-hand
Kraus set {<h_m| ⊗ N_j†}, which is Hilbert-Schmidt orthogonal, so the
coefficient solve is a plain projection and the result is automatically an
isometry for consistent input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    EQ_TOL,
    as_rng,
    dag,
    frob,
    hermiticity_residual,
    isometry_residual,
    random_density,
    readonly_copy,
    rel_residual,
)
from .operations import QuantumOperation, apply_operation, random_channel
from .supermap import (
    Supermap,
    apply_supermap,
    effect_map_of,
    is_deterministic,  # noqa: F401 (unused; the benchmark's tracer test patches it here)
    sum_supermaps,
)


@dataclass(frozen=True, eq=False)
class CircuitRealization:
    """Two isometries and ancilla bookkeeping realizing a supermap.

    ``v``: (dim_b * h_in) x k_in isometry into the (B, H_in) composite.
    ``w``: (k_out * dim_a) x (h_out * dim_b) isometry into (K_out, A).
    ``projectors``: optional orthogonal projectors on A summing to the
    identity, one per probabilistic alternative.

    Validated at construction and immutable afterwards: the fields cannot be
    reassigned and the arrays are read-only copies of the inputs, so
    ``run_circuit`` relies on this validation instead of repeating it.
    """

    v: np.ndarray
    w: np.ndarray
    dim_a: int
    dim_b: int
    projectors: tuple | None = None

    def __post_init__(self):
        v = readonly_copy(self.v)
        w = readonly_copy(self.w)
        if v.shape[0] % self.dim_b or w.shape[0] % self.dim_a:
            raise ValueError("isometry shapes inconsistent with ancilla dimensions")
        for name, m in (("V", v), ("W", w)):
            if isometry_residual(m) > EQ_TOL:
                raise ValueError(f"{name} is not an isometry within tolerance")
        projs = None
        if self.projectors is not None:
            projs = tuple(map(readonly_copy, self.projectors))
            total = np.zeros((self.dim_a, self.dim_a), dtype=complex)
            for i, p in enumerate(projs):
                if p.shape != (self.dim_a, self.dim_a):
                    raise ValueError("projector shape does not match ancilla A")
                if hermiticity_residual(p) > EQ_TOL or rel_residual(p @ p, p) > EQ_TOL:
                    raise ValueError("ancilla projectors must be Hermitian idempotents")
                for q in projs[:i]:
                    if frob(p @ q) > EQ_TOL * self.dim_a:
                        raise ValueError("ancilla projectors must be mutually orthogonal")
                total += p
            if rel_residual(total, np.eye(self.dim_a)) > EQ_TOL:
                raise ValueError("ancilla projectors must sum to the identity")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "projectors", projs)

    @property
    def k_in(self) -> int:
        return self.v.shape[1]

    @property
    def h_in(self) -> int:
        return self.v.shape[0] // self.dim_b

    @property
    def h_out(self) -> int:
        return self.w.shape[1] // self.dim_b

    @property
    def k_out(self) -> int:
        return self.w.shape[0] // self.dim_a


def realize(s: Supermap, tol: float = EQ_TOL) -> CircuitRealization:
    """Factor a deterministic supermap into isometries V and W.

    The ancilla B has one dimension per canonical Kraus operator of the
    effect map; A has one per Kraus operator of the supermap itself.
    Raises NotDeterministicError for non-deterministic input (from
    ``effect_map_of``), ValueError if the coefficient solve fails to produce
    an isometry (numerically inconsistent input).
    """
    n_ops = effect_map_of(s, tol).kraus
    dim_b = len(n_ops)
    dim_a = len(s.kraus)

    # V stacks the conjugated effect-map Kraus operators along ancilla B.
    nn = np.stack(n_ops)
    v = nn.conj().reshape(dim_b * s.h_in, s.k_in)

    # W_{ni,mj} = <(<h_m| ⊗ N_j†), (<k_n| ⊗ I) S_i> / ||N_j||²  by
    # Hilbert-Schmidt orthogonality of the canonical right-hand set.
    ss = np.stack(s.kraus).reshape(dim_a, s.k_out, s.k_in, s.h_out, s.h_in)
    weights = np.array([np.vdot(n, n).real for n in n_ops])
    w4 = np.einsum("jek,inkme->nimj", nn, ss) / weights
    w = w4.reshape(s.k_out * dim_a, s.h_out * dim_b)

    gram_gap = isometry_residual(w)
    if gram_gap > tol:
        raise ValueError(
            f"connecting isometry failed its contract (||W†W − I|| residual {gram_gap:.3e}); "
            "input Kraus operators are numerically inconsistent"
        )
    return CircuitRealization(v=v, w=w, dim_a=dim_a, dim_b=dim_b)


def realize_probabilistic(parts, tol: float = EQ_TOL) -> CircuitRealization:
    """Realize alternative supermaps jointly, one ancilla projector each.

    The parts must sum to a deterministic supermap.  Part j receives the
    projector onto the ancilla-A basis indices of its Kraus operators in the
    concatenated realization.
    """
    parts = list(parts)
    total = sum_supermaps(parts)
    circuit = realize(total, tol)
    projectors = []
    offset = 0
    for p in parts:
        diag = np.zeros(circuit.dim_a)
        diag[offset : offset + len(p.kraus)] = 1.0
        projectors.append(np.diag(diag).astype(complex))
        offset += len(p.kraus)
    return replace(circuit, projectors=tuple(projectors))


def circuit_to_supermap(c: CircuitRealization, dims: tuple[int, int, int, int]):
    """Evaluate a circuit back into Kraus form.

    ``dims`` is (h_in, h_out, k_in, k_out) and must match the isometries.
    Without projectors, returns the single (deterministic) supermap; with
    projectors, returns one supermap per projector, grouping the ancilla
    components in its range.

    S_i = (I ⊗ <a_i| ⊗ I)(W ⊗ I)(I ⊗ Z), with Z the partial transpose of V
    on its second factor, is S_i[(k,c),(m,x)] = sum_b W[(k,i),(m,b)] V[(b,x),c].
    """
    h_in, h_out, k_in, k_out = dims
    if (c.h_in, c.h_out, c.k_in, c.k_out) != (h_in, h_out, k_in, k_out):
        raise ValueError(
            f"circuit spaces {(c.h_in, c.h_out, c.k_in, c.k_out)} do not match dims {dims}"
        )
    w4 = c.w.reshape(k_out, c.dim_a, h_out, c.dim_b)
    v3 = c.v.reshape(c.dim_b, h_in, k_in)
    kraus = np.einsum("kimb,bxc->ikcmx", w4, v3).reshape(c.dim_a, k_out * k_in, h_out * h_in)
    if c.projectors is None:
        return Supermap(h_in, h_out, k_in, k_out, tuple(kraus))
    maps = []
    for p in c.projectors:
        w, vecs = np.linalg.eigh((p + dag(p)) / 2.0)
        u = vecs[:, w > 0.5]  # orthonormal basis of the projector's range
        if u.shape[1]:
            ops = np.einsum("ir,ikx->rkx", u.conj(), kraus)
        else:
            ops = np.zeros((1, *kraus.shape[1:]), dtype=complex)
        maps.append(Supermap(h_in, h_out, k_in, k_out, tuple(ops)))
    return maps


def run_circuit(
    c: CircuitRealization,
    op: QuantumOperation,
    rho: np.ndarray,
    outcome: int | None = None,
) -> np.ndarray:
    """Physically evaluate the circuit on an operation and an input state.

    Returns the unnormalized output state on K_out.  With ``outcome`` set,
    the corresponding ancilla projector is applied before discarding A
    (post-selection); the trace of the result is that outcome's probability.

    The operation acts on H_in alone, so (E ⊗ I_B) is applied by contracting
    E's Choi tensor (out, in, out, in) with the (B, H_in) state:
    mid[n,x,m,y] = sum_ab choi[n,a,m,b] state[x,a,y,b], already in the
    (H_out, B) order W expects.  The projector and the trace over A are one
    more contraction on the (K_out, A) output.  The circuit and the operation
    were validated at construction, so nothing here is revalidated.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (c.k_in, c.k_in):
        raise ValueError(f"input state shape {rho.shape} != ({c.k_in}, {c.k_in})")
    if (op.dim_in, op.dim_out) != (c.h_in, c.h_out):
        raise ValueError("operation spaces do not match the circuit's open ports")
    if outcome is not None and c.projectors is None:
        raise ValueError("circuit has no measurement projectors")
    b, h_in, h_out = c.dim_b, c.h_in, c.h_out
    state = (c.v @ rho @ dag(c.v)).reshape(b, h_in, b, h_in)  # on (B, H_in)
    mid = np.einsum("namb,xayb->nxmy", op.choi4, state)  # on (H_out, B)
    mid = mid.reshape(h_out * b, h_out * b)
    out = (c.w @ mid @ dag(c.w)).reshape(c.k_out, c.dim_a, c.k_out, c.dim_a)  # (K_out, A)
    if outcome is None:
        return np.einsum("kala->kl", out)
    p = c.projectors[outcome]
    return np.einsum("ab,kblc,ca->kl", p, out, p)


@dataclass(frozen=True)
class DelayedReadingReport:
    """Residuals from checking post-selected circuit outcomes against direct actions."""

    trials: int
    max_action_residual: float
    max_probability_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.max_action_residual <= self.tol
            and self.max_probability_residual <= self.tol
        )


def delayed_reading_check(
    parts, trials: int, seed: int | np.random.Generator, tol: float = EQ_TOL
) -> DelayedReadingReport:
    """Verify that one final ancilla measurement reproduces every alternative.

    Builds the joint realization of the parts and compares, over random
    channels and states, each outcome's post-selected output state against
    the direct action of that part, and the total outcome probability
    against 1.
    """
    parts = list(parts)
    circuit = realize_probabilistic(parts, tol)
    rng = as_rng(seed)
    worst_action = 0.0
    worst_prob = 0.0
    h_in, h_out, k_in = circuit.h_in, circuit.h_out, circuit.k_in
    for _ in range(trials):
        rank = int(rng.integers(1, 4))
        channel = random_channel(h_in, h_out, max(rank, -(-h_in // h_out)), rng)
        rho = random_density(k_in, rng)
        total_p = 0.0
        for j, part in enumerate(parts):
            direct = apply_operation(apply_supermap(part, channel), rho)
            circ = run_circuit(circuit, channel, rho, outcome=j)
            worst_action = max(worst_action, frob(direct - circ))
            total_p += float(np.trace(circ).real)
        worst_prob = max(worst_prob, abs(total_p - 1.0))
    return DelayedReadingReport(
        trials=trials,
        max_action_residual=worst_action,
        max_probability_residual=worst_prob,
        tol=tol,
    )
