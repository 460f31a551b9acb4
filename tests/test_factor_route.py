"""The effect map's factors: which factorization applies, and what it changes.

``DeterminismCertificate.factors`` takes the SVD of one Kraus block A_0 when
``product_residual`` is within FACTOR_GATE, so that A_0†A_0 = choi_n to
rounding, and ``psd_factors(choi_n)`` otherwise.  The gate property shows
that exact deterministic supermaps take the SVD and agree with the
eigendecomposition of choi_n, and that damaged ones above the gate keep the
bits of ``psd_factors``.  The regression test is the near-cutoff circuit on
which the eigendecomposition's factors made ``realize`` raise on valid input.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supermaps.linalg import FACTOR_GATE, frob, psd_factors, random_isometry
from supermaps.realization import CircuitRealization, circuit_to_supermap, realize
from supermaps.supermap import Supermap, determinism_certificate

from test_closed_forms import circuit_supermap, dims_st, seed_st


def assert_agrees_with_psd_factors(cert, exact: bool):
    """F F† against psd_factors(choi_n)'s within the gap A_0†A_0 − choi_n the gate
    bounds, plus rounding.  On an exact supermap F itself, wherever choi_n's kept
    spectrum has relative gaps above 1e-2, where its eigenvectors are good to
    about 1e-14; under degenerate spectra (every h_in = 1) F may rotate."""
    f, g = cert.factors, psd_factors(cert.choi_n)
    scale = max(1.0, frob(cert.choi_n))
    assert frob(f @ f.conj().T - g @ g.conj().T) <= (cert.product_residual + 1e-14) * scale
    w = np.sum(np.abs(g) ** 2, axis=0)
    if exact and f.shape == g.shape and np.all(-np.diff(w) > 1e-2 * w[0]):
        assert np.max(np.abs(f - g)) <= 1e-12 * scale


@given(dims=dims_st, seed=seed_st, x=st.floats(-13, -9), tol=st.sampled_from((1e-8, 1e-6)))
def test_gate_chooses_the_factorization(dims, seed, x, tol):
    rng = np.random.default_rng(seed)
    s = circuit_supermap(rng, dims)
    cert = determinism_certificate(s)
    assert cert.product_residual <= FACTOR_GATE  # exact: the SVD of A_0
    assert_agrees_with_psd_factors(cert, exact=True)

    noise = rng.standard_normal(s.kraus.shape) + 1j * rng.standard_normal(s.kraus.shape)
    damaged = Supermap(*dims[:4], s.kraus + 10.0**x * noise * frob(s.kraus) / frob(noise))
    cert = determinism_certificate(damaged)
    if not cert.verdict(tol):
        return
    if cert.product_residual > FACTOR_GATE:
        assert cert.factors.tobytes() == psd_factors(cert.choi_n).tobytes()
    else:
        assert_agrees_with_psd_factors(cert, exact=False)


def near_cutoff_circuit(seed: int, eps: float) -> Supermap:
    """The circuit V = [sqrt(1 − eps) U1; sqrt(eps) U2] on (d,d,d,d), d in 2..4: its
    effect map has one Choi eigenvalue near eps·d, at POS_TOL·λ_max for eps near 1e-9."""
    rng = np.random.default_rng(seed)
    d, dim_a = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    u1, u2 = random_isometry(d, d, rng), random_isometry(d, d, rng)
    v = np.concatenate([np.sqrt(1 - eps) * u1, np.sqrt(eps) * u2])
    w = random_isometry(d * dim_a, 2 * d, rng)
    return circuit_to_supermap(CircuitRealization(v, w, dim_a, 2), (d, d, d, d))


@pytest.mark.parametrize("eps", [1.001e-9, 2e-9, 1e-8, 1e-7, 1e-6])
def test_realize_accepts_a_factor_near_the_cutoff(eps):
    # From choi_n's eigenvectors, good only to about 1e-16 / λ, W's residual
    # reached 2e-8 here: realize raised for 3, 36, 4 and 1 of these seeds at
    # eps = 1.001e-9, 2e-9, 1e-8 and 1e-7.
    for seed in range(100):
        realize(near_cutoff_circuit(seed, eps))
