"""Randomized end-to-end property suites behind the ``selftest`` command.

Each suite draws seeded fixtures, exercises one slice of the library against
an independent formulation, and reports its worst residual.  The ``corrupt``
hook deliberately damages a fixture so the harness can demonstrate that it
catches violations (negative control).
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    EQ_TOL,
    _cap_non_finite,
    frob,
    isometry_residual,
    kron,
    random_density,
    random_isometry,
)
from .operations import (
    apply_operation,
    choi_to_kraus,
    kraus_to_choi,
    random_channel,
    random_operation,
)
from .realization import (
    CircuitRealization,
    circuit_to_supermap,
    delayed_reading_check,
    realize,
)
from .supermap import (
    Supermap,
    _factor_identity,
    action_distance,
    is_deterministic,
    is_deterministic_effectwise,
    is_normalization_functional,
)
from .testers import evaluate, make_tester

CORRUPTIONS = ("v-isometry", "tester-norm")


def _random_deterministic_supermap(rng: np.random.Generator, dims=(2, 2, 2, 2)):
    """Deterministic supermap from a random two-isometry circuit."""
    h_in, h_out, k_in, k_out = dims
    dim_b = int(rng.integers(1, 3))
    lo = -(-k_in // h_in)  # ceil division: V needs dim_b * h_in >= k_in
    dim_b = max(dim_b, lo)
    dim_a = int(rng.integers(1, 4))
    dim_a = max(dim_a, -(-(h_out * dim_b) // k_out))
    v = random_isometry(dim_b * h_in, k_in, rng)
    w = random_isometry(k_out * dim_a, h_out * dim_b, rng)
    circuit = CircuitRealization(v=v, w=w, dim_a=dim_a, dim_b=dim_b)
    return circuit_to_supermap(circuit, (h_in, h_out, k_in, k_out))


def _split_kraus(s, rng: np.random.Generator, n_parts: int):
    """Split a supermap's Kraus list into consecutive non-empty groups."""
    n = len(s.kraus)
    n_parts = min(n_parts, n)
    cuts = sorted(rng.choice(np.arange(1, n), size=n_parts - 1, replace=False)) if n_parts > 1 else []
    return [Supermap(s.h_in, s.h_out, s.k_in, s.k_out, ops) for ops in np.split(s.kraus, cuts)]


def _suite_choi_kraus(rng, trials):
    worst = 0.0
    for _ in range(trials):
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        rank = int(rng.integers(1, 5))
        op = random_operation(d_in, d_out, max(rank, -(-d_in // d_out)), rng)
        back = kraus_to_choi(choi_to_kraus(op))
        worst = max(worst, frob(back.choi - op.choi))
    return worst


def _suite_application(rng, trials):
    worst = 0.0
    for _ in range(trials):
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        op = random_operation(d_in, d_out, 2 * max(1, -(-d_in // d_out)), rng)
        k = choi_to_kraus(op)
        rho = random_density(d_in, rng)
        worst = max(worst, frob(k.apply(rho) - apply_operation(op, rho)))
    return worst


def _suite_normalization(rng, trials, tol):
    worst = 0.0
    for _ in range(trials):
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        ch = random_channel(d_in, d_out, int(rng.integers(1, 4)) * max(1, -(-d_in // d_out)), rng)
        rho = random_density(d_in, rng)
        worst = max(worst, abs(np.trace(kron(np.eye(d_out), rho) @ ch.choi).real - 1.0))
        ok, recovered = is_normalization_functional(kron(np.eye(d_out), rho), (d_out, d_in), tol)
        worst = max(worst, frob(recovered - rho) if ok else np.inf)
    return worst


def _suite_determinism_agreement(rng, trials, tol):
    disagreements = 0
    for _ in range(trials):
        s = _random_deterministic_supermap(rng)
        if is_deterministic(s, tol) != is_deterministic_effectwise(s, tol):
            disagreements += 1
        damaged = Supermap(s.h_in, s.h_out, s.k_in, s.k_out, 0.9 * s.kraus)
        if is_deterministic(damaged, tol) != is_deterministic_effectwise(damaged, tol):
            disagreements += 1
    return float(disagreements)


def _suite_realization(rng, trials, tol, corrupt=None):
    worst = 0.0
    for _ in range(trials):
        s = _random_deterministic_supermap(rng)
        circuit = realize(s, tol)
        v = circuit.v
        if corrupt == "v-isometry":
            # The circuit is immutable; damage a local copy of V instead.
            v = v.copy()
            v[0, 0] += 1e-3
        worst = max(
            worst,
            isometry_residual(v),
            circuit.w_residual,
            action_distance(
                circuit_to_supermap(circuit, (s.h_in, s.h_out, s.k_in, s.k_out)), s
            ),
        )
    return worst


def _suite_delayed_reading(rng, trials, tol):
    worst = 0.0
    for _ in range(trials):
        s = _random_deterministic_supermap(rng)
        parts = _split_kraus(s, rng, int(rng.integers(2, 4)))
        report = delayed_reading_check(parts, trials=3, seed=rng, tol=tol)
        worst = max(worst, report.max_action_residual, report.max_probability_residual)
    return worst


def _suite_testers(rng, trials, tol, corrupt=None):
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        rho = random_density(d, rng)
        basis = random_isometry(d, d, rng)
        povm = [np.outer(basis[:, j], basis[:, j].conj()) for j in range(d)]
        effects = [kron(m, rho.T) for m in povm]
        if corrupt == "tester-norm":
            effects[0] = 1.5 * effects[0]
        try:
            t = make_tester(effects, d, d, tol)
        except ValueError:
            # A rejected tester still reports the normalization residual it failed on.
            _, norm_residual, trace_gap = _factor_identity(sum(effects), d, d)
            if norm_residual <= tol and trace_gap <= tol:
                raise
            worst = max(worst, norm_residual, trace_gap)
            continue
        ch = random_channel(d, d, int(rng.integers(1, 4)), rng)
        probs = evaluate(t, ch)
        worst = max(worst, t.residual, t.trace_gap, abs(sum(probs) - 1.0))
    return worst


def run_selftest(seed: int, trials: int, tol: float = EQ_TOL, corrupt: str | None = None) -> dict:
    """Run every suite; returns a report dict suitable for JSON output."""
    if corrupt is not None and corrupt not in CORRUPTIONS:
        raise ValueError(f"unknown corruption '{corrupt}' (choose from {CORRUPTIONS})")
    rng = np.random.default_rng(seed)
    suites = {
        "choi-kraus-roundtrip": lambda r: _suite_choi_kraus(r, trials),
        "operator-sum-vs-choi-application": lambda r: _suite_application(r, trials),
        "normalization-functionals": lambda r: _suite_normalization(r, trials, tol),
        "determinism-tests-agreement": lambda r: _suite_determinism_agreement(
            r, max(1, trials // 10), tol
        ),
        "realization-roundtrip": lambda r: _suite_realization(
            r, max(1, trials // 10), tol, corrupt=corrupt
        ),
        "delayed-reading": lambda r: _suite_delayed_reading(r, max(1, trials // 10), tol),
        "tester-normalization": lambda r: _suite_testers(r, trials, tol, corrupt=corrupt),
    }
    details = {}
    worst = 0.0
    ok = True
    for name, suite in suites.items():
        if trials == 0:
            continue
        residual = _cap_non_finite(float(suite(rng)))
        passed = residual <= tol
        details[name] = {"pass": passed, "max_residual": residual}
        worst = max(worst, residual)
        ok = ok and passed
    return {"check": "selftest", "pass": ok, "residual": worst, "details": details}
