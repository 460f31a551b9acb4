"""Verdicts decided by a cheap number before the expensive step.

The determinism certificate decides the trace condition from one Kraus
block before any factorization: supermaps failing it must be rejected, by
``is_deterministic``, ``realize`` and ``effect_map_of``, without an SVD, and
the error must carry ``tp_residual``; one that keeps it must still take the
SVD.  Over damage from 1e-12 to 1, the certificate must keep the bounds the
tolerance policy states against the per-(m, n) and per-matrix-unit
references, and their verdicts outside the band those bounds leave
(``check_certificate``).
``is_deterministic_effectwise`` likewise decides N(I) = I from one
k_in x k_in Gram, taken with the ``@`` operator, before any block of its
contraction: every block product goes through ``np.matmul`` or
``np.linalg.qr``, so supermaps failing it must be rejected with both
replaced by a stub that raises, and one that keeps it must reach the stub.
``is_faithful`` reads Φ as a realignment of the probe's
Hermitian part instead of rebuilding it from the probe's eigendecomposition:
on probes at the edges of the density-matrix check, and with a singular
value of Φ near the rank threshold, its verdict must equal the full-action
reference and the realignment oracle wherever no singular value lies within
the Frobenius distance between the matrices they rank.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supermaps import supermap
from supermaps.applications import TomographySetup, is_faithful
from supermaps.linalg import (
    EQ_TOL,
    HERM_TOL,
    POS_TOL,
    _cap_non_finite,
    dag,
    frob,
    kron,
    psd_factors,
    random_isometry,
)
from supermaps.realization import realize
from supermaps.supermap import (
    NotDeterministicError,
    Supermap,
    determinism_certificate,
    effect_map_of,
    is_deterministic,
    is_deterministic_effectwise,
)

from test_applications import realignment_rank
from test_closed_forms import (
    certificate_block_defect,
    check_certificate,
    circuit_supermap,
    dims_st,
    effectwise_block_defect,
    ref_is_faithful,
    spread,
)

seed_st = st.integers(0, 2**32 - 1)


def _no_blocks(*args, **kwargs):
    raise AssertionError("reached the blocks")


def _no_svd(*args, **kwargs):
    raise AssertionError("reached the SVD")


# ---------------------------------------------------------------- certificate early exit


@pytest.mark.parametrize("scale", [0.9, 1e300], ids=["x0.9", "x1e300"])
def test_certificate_rejects_on_the_trace_condition_before_stage_2(monkeypatch, scale):
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    rng = np.random.default_rng(27)
    for dims in itertools.product(range(1, 5), repeat=4):
        ops = scale * circuit_supermap(rng, dims).kraus
        with np.errstate(over="ignore", invalid="ignore"):
            assert is_deterministic(Supermap(*dims, ops)) is False
            for refused in (realize, effect_map_of):
                s = Supermap(*dims, ops)
                with pytest.raises(NotDeterministicError) as exc:
                    refused(s)
                shown = _cap_non_finite(determinism_certificate(s).tp_residual)
                assert exc.value.residual == shown and shown > EQ_TOL


@pytest.mark.parametrize("h", [1, 2])
def test_certificate_reaches_stage_2_when_the_trace_condition_holds(monkeypatch, h):
    s = spread(certificate_block_defect(), h)
    assert is_deterministic(s) is False
    fresh = Supermap(s.h_in, s.h_out, s.k_in, s.k_out, s.kraus)
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    assert determinism_certificate(fresh).tp_residual == 0.0
    with pytest.raises(AssertionError, match="reached the SVD"):
        is_deterministic(fresh)


@given(
    dims=dims_st,
    seed=seed_st,
    kind=st.sampled_from(("scaled", "noise")),
    log_damage=st.floats(-12.0, 0.0),
)
def test_two_stage_certificate_matches_reference(dims, seed, kind, log_damage):
    rng = np.random.default_rng(seed)
    ops = circuit_supermap(rng, dims).kraus
    damage = 10.0**log_damage
    if kind == "scaled":
        ops = (1 + damage) * ops
    else:
        ops = ops + damage * (rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape))
    check_certificate(Supermap(*dims, ops))


# ---------------------------------------------------------------- effect-wise early exit


@pytest.mark.parametrize("scale", [0.9, 1e300], ids=["x0.9", "x1e300"])
def test_effectwise_rejects_on_identity_preservation_before_any_block(monkeypatch, scale):
    rng = np.random.default_rng(26)
    for dims in itertools.product(range(1, 5), repeat=4):
        s = Supermap(*dims, scale * circuit_supermap(rng, dims).kraus)
        with monkeypatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
            mp.setattr(np, "matmul", _no_blocks)
            mp.setattr(np.linalg, "qr", _no_blocks)
            assert is_deterministic_effectwise(s) is False


@pytest.mark.parametrize("h", [1, 2])
def test_effectwise_reaches_the_blocks_when_identity_is_preserved(monkeypatch, h):
    s = spread(effectwise_block_defect(), h)
    assert is_deterministic_effectwise(s) is False
    monkeypatch.setattr(np, "matmul", _no_blocks)
    with pytest.raises(AssertionError, match="reached the blocks"):
        is_deterministic_effectwise(s)


def test_effectwise_reaches_the_qr_when_identity_is_preserved(monkeypatch):
    """At (4, 4, 4, 1) with a budget of one entry, the triangular factors are
    at most half as wide as the blocks, so the off-diagonal blocks take the QR."""
    s = circuit_supermap(np.random.default_rng(5), (4, 4, 4, 1))
    assert 2 * len(s.kraus) * s.k_out <= s.h_in * s.k_in
    monkeypatch.setattr(supermap, "_CHUNK", 1)
    assert is_deterministic_effectwise(s) is True
    monkeypatch.setattr(np.linalg, "qr", _no_blocks)
    with pytest.raises(AssertionError, match="reached the blocks"):
        is_deterministic_effectwise(s)


# ---------------------------------------------------------------- is_faithful's edge band


def local_rotation(f, h, rng):
    """(U ⊗ V) F (U ⊗ V)† for random unitaries: Φ's singular values stay as they are."""
    u = kron(random_isometry(h, h, rng), random_isometry(h, h, rng))
    return u @ f @ dag(u)


def random_rank_density(h, rng):
    """Density matrix of random rank in 1..h."""
    v = random_isometry(h, int(rng.integers(1, h + 1)), rng)
    f = (v * rng.uniform(0.2, 1.0, v.shape[1])) @ dag(v)
    return f / np.trace(f).real


def edge_probe(kind, h, rng):
    """A probe with a singular value of Φ near the rank threshold, at one edge
    of the density-matrix check.

    - "near-threshold": (1 − η) ρ ⊗ σ + η |I><I|/h in a random local basis,
      with ρ and σ of random rank: every singular value of Φ but two is η/h,
      put within a factor of three of tol·s_max;
    - "edge-eigenvalue": a near-threshold probe whose smallest eigenvalue is
      set to c·POS_TOL, c in [-0.9, 2], around the cutoff of its factors;
    - "herm-defect": a near-threshold probe plus i·K, K Hermitian and
      traceless, with a hermiticity residual of 0.5 to 0.99 HERM_TOL.
    """
    if h == 1:
        return np.ones((1, 1), dtype=complex)
    rho, sigma = random_rank_density(h, rng), random_rank_density(h, rng)
    eta = h * EQ_TOL * frob(rho) * frob(sigma) * 3 ** rng.uniform(-1, 1)
    vec_i = np.eye(h, dtype=complex).reshape(-1)
    f = (1 - eta) * kron(rho, sigma) + eta * np.outer(vec_i, vec_i) / h
    f = local_rotation(f, h, rng)
    if kind == "edge-eigenvalue":
        w, v = np.linalg.eigh(f)
        w[0] = 0.0
        w /= w.sum()
        w[0] = POS_TOL * rng.uniform(-0.9, 2.0)
        f = (v * w) @ dag(v)
    elif kind == "herm-defect":
        k = rng.standard_normal((h * h,) * 2) + 1j * rng.standard_normal((h * h,) * 2)
        k = k + dag(k)
        k -= np.trace(k) * np.eye(h * h) / (h * h)
        f = f + 0.5j * HERM_TOL * rng.uniform(0.5, 0.99) * k / frob(k)
    return f


def realign(f, h):
    """Φ[(a, c), (b, d)] = F[(b, a), (d, c)]."""
    return f.reshape(h, h, h, h).transpose(1, 3, 0, 2).reshape(h * h, h * h)


def outside_band(s, moved, tol=EQ_TOL):
    """True if no singular value s_i of Φ is within moved·(1 + tol), plus rounding, of tol·s_max.

    Another matrix within Frobenius distance ``moved`` of Φ has each singular
    value, and its threshold tol·s_max, within that distance of Φ's.
    """
    return bool(np.min(np.abs(s - tol * s[0])) > moved * (1 + tol) + 1e-13 * s[0])


@given(
    h_in=st.integers(1, 3),
    extra=st.integers(0, 1),
    kind=st.sampled_from(("edge-eigenvalue", "near-threshold", "herm-defect")),
    seed=seed_st,
)
def test_is_faithful_agrees_outside_its_band(h_in, extra, kind, seed):
    f = edge_probe(kind, h_in, np.random.default_rng(seed))
    setup = TomographySetup(faithful_state=f, h_in=h_in, h_out=h_in + extra)
    verdict = is_faithful(setup)
    herm = (f + dag(f)) / 2
    s = np.linalg.svd(realign(herm, h_in), compute_uv=False)
    factors = psd_factors(f)
    # The reference ranks the action built from the probe's factors, the oracle F itself.
    if outside_band(s, frob(herm - factors @ dag(factors))):
        assert verdict == ref_is_faithful(setup)
    if outside_band(s, frob(herm - f)):
        assert verdict == (realignment_rank(f, h_in) == h_in * h_in)
