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
directly on (H_out, B), the order W expects; ``delayed_reading_check`` takes
the Kraus form W (E_j ⊗ I_B) V of every trial's channel in one pass instead.

The construction reads the thin SVD A_0 = U Σ Y† of the determinism
certificate through its ``factors`` and ``circuit_w``.  The effect map N has
the canonical Kraus operators N_j, the columns σ_j·y_j unvectorized; V is the
partial transpose of Z = sum_j |b_j> ⊗ N_j† on its second factor.  W's
column (m, j) is A_m y_j / σ_j, so W V rebuilds each Kraus block A_m up to
its part E_m outside the span of Y, and ``realize`` bounds what that does
to the action (``rebuild_residual``, then ``action_distance``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EQ_TOL,
    ResidualError,
    _check_dims,
    _operator_stack,
    _worst,
    dag,
    frob,
    hermiticity_residual,
    isometry_residual,
    random_density,
    random_isometry,
    readonly_copy,
    rel_residual,
)
from .operations import QuantumOperation, _check_ports
from .supermap import (
    Supermap,
    _certified,
    action_distance,
    determinism_certificate,
    is_deterministic,  # noqa: F401 (unused; the benchmark's tracer test patches it here)
    sum_supermaps,
)


@dataclass(frozen=True, eq=False)
class CircuitRealization:
    """Two isometries and ancilla bookkeeping realizing a supermap.

    ``v``: (dim_b * h_in) x k_in isometry into the (B, H_in) composite.
    ``w``: (k_out * dim_a) x (h_out * dim_b) isometry into (K_out, A).
    ``projectors``: optional orthogonal projectors on A summing to the
    identity, one per probabilistic alternative, held as one read-only
    (n, dim_a, dim_a) array.
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
    projectors: np.ndarray | None = None
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
                raise ResidualError(f"{name} is not an isometry (residual {residual:.3e})", residual)
            object.__setattr__(self, f"{name.lower()}_residual", residual)
        projs = None
        if self.projectors is not None:
            projs = _operator_stack(self.projectors, (self.dim_a, self.dim_a), "ancilla projector")
            for i, p in enumerate(projs):
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
    cert = _certified(s, tol)
    dim_a, dim_b = len(s.kraus), cert.factors.shape[1]
    if not dim_b:  # the zero supermap passes the certificate at tol >= 1
        raise ValueError("effect map needs at least one Kraus operator")
    # V stacks the conjugated canonical Kraus operators N_j of the effect map along
    # ancilla B: V†V = conj(sum_j N_j† N_j), so V's check is N's identity preservation.
    v = cert.factors.T.conj().reshape(dim_b * s.h_in, s.k_in)
    return v, cert.circuit_w, dim_a, dim_b


def realize(s: Supermap, tol: float = EQ_TOL) -> CircuitRealization:
    """Factor a deterministic supermap into isometries V and W.

    The ancilla B has one dimension per canonical Kraus operator of the
    effect map (the certificate's ``factors``, shared with ``effect_map_of``);
    A has one per Kraus operator of the supermap itself.
    ``tol`` governs determinism, the V/W isometry residuals (kept as
    ``v_residual``/``w_residual``; V's measures the effect map's identity
    preservation) and the action gap between the supermap it rebuilds and s:
    the certificate's ``rebuild_residual``, else ``action_distance``, which alone decides where B's
    polar factor replaced a W that failed its check (tolerance policy).  Raises NotDeterministicError
    for non-deterministic input, else ResidualError naming V's residual or the action distance.
    """
    v, w, dim_a, dim_b = _isometries(s, tol)
    try:
        circuit, repaired = CircuitRealization(v, w, dim_a, dim_b, tol=tol), False
    except ResidualError:  # V fails here again, with the same message and residual
        sv = np.linalg.norm(determinism_certificate(s).factors, axis=0)  # the columns σ_j·y_j
        u, _, vh = np.linalg.svd(w * np.tile(sv, s.h_out), full_matrices=False)
        circuit, repaired = CircuitRealization(v, u @ vh, dim_a, dim_b, tol=tol), True
    # W V rebuilds each A_m up to E_m, the part the certificate dropped; the action sees it
    # linearly.  The certificate's block norms decide most calls, the exact distance the rest.
    if repaired or not determinism_certificate(s).rebuild_residual <= tol:
        residual = action_distance(circuit_to_supermap(circuit, (s.h_in, s.h_out, s.k_in, s.k_out)), s)
        if not residual <= tol:
            raise ResidualError(f"circuit does not rebuild the supermap (residual {residual:.3e})", residual)
    return circuit


def realize_probabilistic(parts, tol: float = EQ_TOL) -> CircuitRealization:
    """Realize alternative supermaps jointly, one ancilla projector each.

    The parts must sum to a deterministic supermap.  Part j receives the
    projector onto the ancilla-A basis indices of its Kraus operators in the
    concatenated realization.  The circuit is checked at ``tol`` as ``realize``
    checks it; the projectors are attached unchecked: exact 0/1 diagonals on
    disjoint ranges, summing to I.
    """
    parts = list(parts)
    circuit = realize(sum_supermaps(parts), tol)
    owner = np.repeat(np.arange(len(parts)), [len(p.kraus) for p in parts])  # part of each A index
    projectors = (owner == np.arange(len(parts))[:, None])[:, None] * np.eye(len(owner))
    object.__setattr__(circuit, "projectors", readonly_copy(projectors))
    return circuit


def circuit_to_supermap(c: CircuitRealization, dims: tuple[int, int, int, int]):
    """Evaluate a circuit back into Kraus form.

    ``dims`` is (h_in, h_out, k_in, k_out) and must match the isometries.
    Without projectors, returns the single (deterministic) supermap; with
    projectors, returns one supermap per projector P, whose Kraus operators
    are K_a = sum_i P[a, i] S_i over the rows a of P that are not all zero
    (one zero row for P = 0).  For Hermitian P, sum_a K_a E K_a† is
    Tr_A[(I ⊗ P) X (I ⊗ P)], the post-selection ``run_circuit`` contracts.

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
    # One contraction per projector: a stacked one would hold a copy of the Kraus array for each.
    rows = [p[np.any(p, axis=1)] if np.any(p) else p[:1] for p in c.projectors]
    return [Supermap(h_in, h_out, k_in, k_out, np.einsum("ai,ikx->akx", r, kraus)) for r in rows]


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

    The projector and the trace over A are one contraction on the state
    W (E ⊗ I_B)(V rho V†) W† on (K_out, A).  The circuit and the operation
    were validated at construction, so nothing here is revalidated.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (c.k_in, c.k_in):
        raise ValueError(f"input state shape {rho.shape} != ({c.k_in}, {c.k_in})")
    _check_ports(op, c.h_in, c.h_out, "circuit")
    if outcome is not None:
        if c.projectors is None:
            raise ValueError("circuit has no measurement projectors")
        if not 0 <= outcome < len(c.projectors):
            raise ValueError(f"outcome {outcome} out of range for {len(c.projectors)} projectors")
    b, h_in, h_out = c.dim_b, c.h_in, c.h_out
    state = (c.v @ rho @ dag(c.v)).reshape(b, h_in, b, h_in)  # on (B, H_in)
    mid = np.einsum("namb,xayb->nxmy", op.choi4, state).reshape(h_out * b, h_out * b)  # on (H_out, B)
    out = (c.w @ mid @ dag(c.w)).reshape(c.k_out, c.dim_a, c.k_out, c.dim_a)
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

    Draws a channel E (as ``random_channel`` does) and a state ρ per trial, and
    checks every trial and outcome in one Kraus-form pass.  Part p's action is
    sum F ρ F† over F = S_i·vec(E_j), S_i its Kraus operators; no operation is
    built, so a part within ``tol`` of the contract gives a residual, not an
    error.  The circuit's X = sum_j L_j ρ L_j†, L_j = W (E_j ⊗ I_B) V, is read
    through its own projectors, Tr_A[X (I ⊗ P_p)], whose probabilities must
    sum to 1.  Raises ValueError unless ``trials`` is at least 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    parts = list(parts)
    circuit = realize_probabilistic(parts, tol)
    rng = np.random.default_rng(seed)
    h_in, h_out, k_in, k_out = circuit.h_in, circuit.h_out, circuit.k_in, circuit.k_out
    low = -(-h_in // h_out)  # the fewest Kraus operators a channel from H_in to H_out needs
    e = np.zeros((trials, max(3, low), h_out, h_in), dtype=complex)  # E_j, padded with zeros
    rho = np.empty((trials, k_in, k_in), dtype=complex)
    for t in range(trials):
        rank = max(int(rng.integers(1, 4)), low)
        e[t, :rank] = random_isometry(h_out * rank, h_in, rng).reshape(h_out, rank, h_in).transpose(1, 0, 2)
        rho[t] = random_density(k_in, rng)
    kraus = np.concatenate([p.kraus for p in parts])
    f = (e.reshape(-1, h_out * h_in) @ kraus.reshape(-1, h_out * h_in).T).reshape(*e.shape[:2], -1, k_out, k_in)
    direct = np.einsum("tjikc,tjilc->tikl", f @ rho[:, None, None], f.conj())
    direct = np.add.reduceat(direct, np.cumsum([0] + [len(p.kraus) for p in parts[:-1]]), axis=1)
    v = circuit.v.reshape(circuit.dim_b, h_in, k_in).transpose(1, 0, 2).reshape(h_in, -1)
    l = circuit.w @ (e.reshape(-1, h_in) @ v).reshape(*e.shape[:2], -1, k_in)
    x = np.einsum("tjxc,tjyc->txy", l @ rho[:, None], l.conj()).reshape(trials, k_out, circuit.dim_a, k_out, -1)
    circ = np.einsum("tkalb,pba->tpkl", x, circuit.projectors)
    worst_action = _worst(0.0, *map(frob, (direct - circ).reshape(-1, k_out, k_out)))
    worst_prob = _worst(0.0, *np.abs(np.einsum("tpkk->t", circ).real - 1.0).tolist())
    return DelayedReadingReport(trials, worst_action, worst_prob, tol)
