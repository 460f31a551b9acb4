"""Randomized end-to-end property suites behind the ``selftest`` command.

Each suite draws seeded fixtures, one trial at a time, exercises one slice of
the library against an independent formulation, and reports its worst
residual over the trials; a trial whose fixture the library refuses with a
``ResidualError`` counts the residual it was refused on.  The ``corrupt``
hook deliberately damages a fixture so the harness can demonstrate that it
catches violations (negative control).
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    EQ_TOL,
    ResidualError,
    _cap_non_finite,
    _worst,
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
    dim_b = max(int(rng.integers(1, 3)), -(-k_in // h_in))  # V needs dim_b * h_in >= k_in
    dim_a = max(int(rng.integers(1, 4)), -(-(h_out * dim_b) // k_out))
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


def _trial_choi_kraus(rng):
    d_in = int(rng.integers(2, 4))
    d_out = int(rng.integers(2, 4))
    rank = int(rng.integers(1, 5))
    op = random_operation(d_in, d_out, max(rank, -(-d_in // d_out)), rng)
    return frob(kraus_to_choi(choi_to_kraus(op)).choi - op.choi)


def _trial_application(rng):
    d_in = int(rng.integers(2, 4))
    d_out = int(rng.integers(2, 4))
    op = random_operation(d_in, d_out, 2 * max(1, -(-d_in // d_out)), rng)
    k = choi_to_kraus(op)
    rho = random_density(d_in, rng)
    return frob(k.apply(rho) - apply_operation(op, rho))


def _trial_normalization(rng, tol):
    d_in = int(rng.integers(2, 4))
    d_out = int(rng.integers(2, 4))
    ch = random_channel(d_in, d_out, int(rng.integers(1, 4)) * max(1, -(-d_in // d_out)), rng)
    rho = random_density(d_in, rng)
    c = kron(np.eye(d_out), rho)
    gap = abs(np.trace(c @ ch.choi).real - 1.0)
    ok, recovered = is_normalization_functional(c, (d_out, d_in), tol)
    if not ok:  # the factorization residual and trace gap it was rejected on
        return _worst(gap, *_factor_identity(c, d_out, d_in)[1:])
    return _worst(gap, frob(recovered - rho))


def _trial_determinism_agreement(rng, tol):
    """0 when both tests agree on a deterministic supermap and on its 0.9-scaled
    copy; a disagreement names no residual, so it reads NaN, which fails at every tol."""
    s = _random_deterministic_supermap(rng)
    damaged = Supermap(s.h_in, s.h_out, s.k_in, s.k_out, 0.9 * s.kraus)
    agree = all(is_deterministic(x, tol) == is_deterministic_effectwise(x, tol) for x in (s, damaged))
    return 0.0 if agree else np.nan


def _trial_realization(rng, tol, corrupt):
    s = _random_deterministic_supermap(rng)
    circuit = realize(s, tol)
    v = circuit.v
    if corrupt == "v-isometry":
        # The circuit is immutable; damage a local copy of V instead.
        v = v.copy()
        v[0, 0] += 1e-3
    rebuilt = circuit_to_supermap(circuit, (s.h_in, s.h_out, s.k_in, s.k_out))
    return _worst(isometry_residual(v), circuit.w_residual, action_distance(rebuilt, s))


def _trial_delayed_reading(rng, tol):
    s = _random_deterministic_supermap(rng)
    parts = _split_kraus(s, rng, int(rng.integers(2, 4)))
    report = delayed_reading_check(parts, trials=3, seed=rng, tol=tol)
    return _worst(report.max_action_residual, report.max_probability_residual)


def _trial_testers(rng, tol, corrupt):
    d = int(rng.integers(2, 4))
    rho = random_density(d, rng)
    basis = random_isometry(d, d, rng)
    povm = [np.outer(basis[:, j], basis[:, j].conj()) for j in range(d)]
    effects = [kron(m, rho.T) for m in povm]
    if corrupt == "tester-norm":
        effects[0] = 1.5 * effects[0]
    t = make_tester(effects, d, d, tol)
    ch = random_channel(d, d, int(rng.integers(1, 4)), rng)
    probs = evaluate(t, ch)
    return _worst(t.residual, t.trace_gap, abs(sum(probs) - 1.0))


def run_selftest(seed: int, trials: int, tol: float = EQ_TOL, corrupt: str | None = None) -> dict:
    """Run every suite; returns a report dict suitable for JSON output."""
    if corrupt is not None and corrupt not in CORRUPTIONS:
        raise ValueError(f"unknown corruption '{corrupt}' (choose from {CORRUPTIONS})")
    rng = np.random.default_rng(seed)
    few = max(1, trials // 10)
    # name: (one trial, drawing its own fixtures from rng; number of trials)
    suites = {
        "choi-kraus-roundtrip": (_trial_choi_kraus, trials),
        "operator-sum-vs-choi-application": (_trial_application, trials),
        "normalization-functionals": (lambda r: _trial_normalization(r, tol), trials),
        "determinism-tests-agreement": (lambda r: _trial_determinism_agreement(r, tol), few),
        "realization-roundtrip": (lambda r: _trial_realization(r, tol, corrupt), few),
        "delayed-reading": (lambda r: _trial_delayed_reading(r, tol), few),
        "tester-normalization": (lambda r: _trial_testers(r, tol, corrupt), trials),
    }
    details = {}
    for name, (trial, n) in suites.items() if trials else ():
        residual = 0.0
        for _ in range(n):
            try:
                residual = _worst(residual, trial(rng))
            except ResidualError as exc:  # a refused fixture reports the residual it failed on
                residual = _worst(residual, exc.residual)
        # Decided before the cap, so a NaN residual fails at every tol.
        details[name] = {"pass": bool(residual <= tol), "max_residual": _cap_non_finite(float(residual))}
    worst = max((d["max_residual"] for d in details.values()), default=0.0)
    ok = all(d["pass"] for d in details.values())
    return {"check": "selftest", "pass": ok, "residual": worst, "details": details}
