"""Circuit realization of supermaps as two isometries plus ancillas.

Every deterministic supermap factors as

    S(E)(rho) = Tr_A[ W (E ⊗ I_B)(V rho V†) W† ],

where V is an isometry from K_in into B ⊗ H_in (ancilla B carried alongside
the input), and W an isometry from H_out ⊗ B into K_out ⊗ A (ancilla A
discarded at the end).  Probabilistic supermaps arise from the same circuit
by measuring A projectively and post-selecting:

    S_j(E)(rho) = Tr_A[ (I ⊗ P_j) W (E ⊗ I_B)(V rho V†) W† (I ⊗ P_j) ].

Space-ordering convention: the composite after V is (B, H_in); the composite
after W is (K_out, A).  ``_circuit_output`` evaluates the middle step E ⊗ I_B
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

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EQ_TOL,
    _check_dims,
    dag,
    frob,
    hermiticity_residual,
    isometry_residual,
    random_density,
    readonly_copy,
    rel_residual,
)
from .operations import QuantumOperation, _check_ports, random_channel
from .supermap import (
    Supermap,
    _certified,
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
    ``tol`` bounds every check; ``v_residual``/``w_residual`` (derived) hold
    the ``isometry_residual`` of V and W that the validator measured.

    Validated at construction and immutable afterwards: the fields cannot be
    reassigned and the arrays are read-only copies of the inputs, so
    ``run_circuit`` relies on this validation instead of repeating it.
    """

    v: np.ndarray
    w: np.ndarray
    dim_a: int
    dim_b: int
    projectors: tuple | None = None
    tol: float = EQ_TOL
    v_residual: float = field(init=False)
    w_residual: float = field(init=False)

    def __post_init__(self):
        _check_dims(self.dim_a, self.dim_b)
        v = readonly_copy(self.v)
        w = readonly_copy(self.w)
        if (v.ndim != 2 or w.ndim != 2 or v.shape[0] % self.dim_b
                or w.shape[0] % self.dim_a or w.shape[1] % self.dim_b):
            raise ValueError(f"isometry shapes {v.shape}, {w.shape} inconsistent with ancilla dimensions")
        for name, m in (("V", v), ("W", w)):
            residual = isometry_residual(m)
            if not residual <= self.tol:  # also rejects NaN
                raise ValueError(f"{name} is not an isometry (residual {residual:.3e})")
            object.__setattr__(self, f"{name.lower()}_residual", residual)
        projs = None
        if self.projectors is not None:
            projs = tuple(map(readonly_copy, self.projectors))
            for i, p in enumerate(projs):
                if p.shape != (self.dim_a, self.dim_a):
                    raise ValueError("projector shape does not match ancilla A")
                if hermiticity_residual(p) > self.tol or rel_residual(p @ p, p) > self.tol:
                    raise ValueError("ancilla projectors must be Hermitian idempotents")
                for q in projs[:i]:
                    if frob(p @ q) > self.tol * max(1.0, frob(p) * frob(q)):
                        raise ValueError("ancilla projectors must be mutually orthogonal")
            if rel_residual(sum(projs), np.eye(self.dim_a)) > self.tol:
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


def _isometries(s: Supermap, tol: float) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(V, W, dim_a, dim_b) of ``realize``'s circuit, before CircuitRealization checks it."""
    nn = _certified(s, tol).factors.T.reshape(-1, s.h_in, s.k_in)
    dim_b = len(nn)
    dim_a = len(s.kraus)

    # V stacks the conjugated canonical Kraus operators N_j of the effect map along
    # ancilla B: V†V = conj(sum_j N_j† N_j), so V's check is N's identity preservation.
    v = nn.conj().reshape(dim_b * s.h_in, s.k_in)

    # W_{ni,mj} = <(<h_m| ⊗ N_j†), (<k_n| ⊗ I) S_i> / ||N_j||²  by
    # Hilbert-Schmidt orthogonality of the canonical right-hand set.
    ss = s.kraus.reshape(dim_a, s.k_out, s.k_in, s.h_out, s.h_in)
    # One vdot per operator: a single einsum changes the last bits of W.
    weights = np.array([np.vdot(n, n).real for n in nn])
    w4 = np.einsum("jek,inkme->nimj", nn, ss) / weights
    return v, w4.reshape(s.k_out * dim_a, s.h_out * dim_b), dim_a, dim_b


def realize(s: Supermap, tol: float = EQ_TOL) -> CircuitRealization:
    """Factor a deterministic supermap into isometries V and W.

    The ancilla B has one dimension per canonical Kraus operator of the
    effect map (the certificate's ``factors``, shared with ``effect_map_of``);
    A has one per Kraus operator of the supermap itself.
    ``tol`` governs determinism and the V/W isometry residuals (kept as
    ``v_residual``/``w_residual``); V's measures the effect map's identity preservation.
    Raises NotDeterministicError for non-deterministic input, ValueError
    naming the residual for numerically inconsistent input.
    """
    return CircuitRealization(*_isometries(s, tol), tol=tol)


def realize_probabilistic(parts, tol: float = EQ_TOL) -> CircuitRealization:
    """Realize alternative supermaps jointly, one ancilla projector each.

    The parts must sum to a deterministic supermap.  Part j receives the
    projector onto the ancilla-A basis indices of its Kraus operators in the
    concatenated realization.
    """
    parts = list(parts)
    v, w, dim_a, dim_b = _isometries(sum_supermaps(parts), tol)
    owner = np.repeat(np.arange(len(parts)), [len(p.kraus) for p in parts])  # part of each A index
    projectors = tuple(np.diag(owner == j).astype(complex) for j in range(len(parts)))
    return CircuitRealization(v, w, dim_a, dim_b, projectors, tol)


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
        return Supermap(h_in, h_out, k_in, k_out, kraus)
    maps = []
    for p in c.projectors:
        w, vecs = np.linalg.eigh((p + dag(p)) / 2.0)
        u = vecs[:, w > 0.5]  # orthonormal basis of the projector's range
        if u.shape[1]:
            ops = np.einsum("ir,ikx->rkx", u.conj(), kraus)
        else:
            ops = np.zeros((1, *kraus.shape[1:]), dtype=complex)
        maps.append(Supermap(h_in, h_out, k_in, k_out, ops))
    return maps


def _circuit_output(c: CircuitRealization, op: QuantumOperation, rho: np.ndarray) -> np.ndarray:
    """W (E ⊗ I_B)(V rho V†) W† on (K_out, A, K_out, A), before any measurement; unchecked."""
    b, h_in, h_out = c.dim_b, c.h_in, c.h_out
    state = (c.v @ rho @ dag(c.v)).reshape(b, h_in, b, h_in)  # on (B, H_in)
    mid = np.einsum("namb,xayb->nxmy", op.choi4, state)  # on (H_out, B)
    mid = mid.reshape(h_out * b, h_out * b)
    return (c.w @ mid @ dag(c.w)).reshape(c.k_out, c.dim_a, c.k_out, c.dim_a)


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
    An outcome outside 0..len(projectors) − 1 raises ValueError.

    The projector and the trace over A are one contraction on
    ``_circuit_output``.  The circuit and the operation were validated at
    construction, so nothing here is revalidated.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (c.k_in, c.k_in):
        raise ValueError(f"input state shape {rho.shape} != ({c.k_in}, {c.k_in})")
    _check_ports(op, c.h_in, c.h_out, "circuit")
    if outcome is not None:
        if c.projectors is None:
            raise ValueError("circuit has no measurement projectors")
        if not 0 <= outcome < len(c.projectors):
            raise ValueError(
                f"outcome {outcome} out of range for {len(c.projectors)} projectors"
            )
    out = _circuit_output(c, op, rho)
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

    Over random channels and states, runs the joint realization of the parts
    once per trial and reads every outcome from that one state.  Each outcome
    is compared against its part's direct action, which is not validated as
    an operation (a part within ``tol`` gives a residual, not an error), and
    the total outcome probability against 1.
    """
    parts = list(parts)
    circuit = realize_probabilistic(parts, tol)
    rng = np.random.default_rng(seed)
    worst_action = 0.0
    worst_prob = 0.0
    h_in, h_out, k_in, k_out = circuit.h_in, circuit.h_out, circuit.k_in, circuit.k_out
    for _ in range(trials):
        rank = int(rng.integers(1, 4))
        channel = random_channel(h_in, h_out, max(rank, -(-h_in // h_out)), rng)
        rho = random_density(k_in, rng)
        out = _circuit_output(circuit, channel, rho)
        total_p = 0.0
        for part, p in zip(parts, circuit.projectors):
            choi4 = part.act(channel.choi).reshape(k_out, k_in, k_out, k_in)
            direct = np.einsum("namb,ab->nm", choi4, rho)
            circ = np.einsum("ab,kblc,ca->kl", p, out, p)
            worst_action = max(worst_action, frob(direct - circ))
            total_p += float(np.trace(circ).real)
        worst_prob = max(worst_prob, abs(total_p - 1.0))
    return DelayedReadingReport(
        trials=trials,
        max_action_residual=worst_action,
        max_probability_residual=worst_prob,
        tol=tol,
    )
