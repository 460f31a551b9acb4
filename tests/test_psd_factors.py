"""psd_factors against the eigh-and-cutoff step it replaced at six call sites.

``ref_spectrum`` is the step each site used to spell out: the sorted,
phase-fixed eigendecomposition (``ref_eigh_sorted``, a per-column loop in
conftest), keep the eigenvalues above POS_TOL * max(1, lambda_0), scale the
kept eigenvectors by sqrt(w).  Every fixture puts one eigenvalue a factor
1 ± 1e-3 from that cutoff, so a site that kept a different number of
factors would differ from the reference by about POS_TOL, far above the
1e-12 the comparisons allow.
"""

import numpy as np
import pytest

from supermaps.applications import (
    ProgrammableDevice,
    TomographySetup,
    povm_as_channel,
    programmable_channel,
    tomography_supermap,
)
from supermaps.linalg import POS_TOL, kron, psd_factors, random_isometry
from supermaps.operations import KrausSet, choi_to_kraus, kraus_to_choi
from supermaps.supermap import Supermap, determinism_certificate, effect_map_of
from supermaps.testers import as_supermap_parts, make_tester

from conftest import ref_eigh_sorted

SIGNS = (1, -1)


def ref_spectrum(m):
    """The former inline step, as (w_j, v_j) pairs of the kept eigenvalues."""
    w, v = ref_eigh_sorted(m)
    cutoff = POS_TOL * max(1.0, float(w[0]))
    return [(w[j], v[:, j]) for j in range(w.size) if w[j] > cutoff]


def ref_factors(m):
    return [np.sqrt(wj) * vj for wj, vj in ref_spectrum(m)]


def near_cutoff(lam0, sign):
    return (1 + sign * 1e-3) * POS_TOL * max(1.0, lam0)


def with_spectrum(w, rng):
    """Q diag(w) Q† for a random unitary Q."""
    q = random_isometry(len(w), len(w), rng)
    return (q * np.asarray(w, dtype=float)) @ q.conj().T


def state_spectrum(dim, sign):
    """Unit-trace spectrum (1 - c, c, 0, ...) with c at the cutoff; [1] in dimension 1."""
    if dim == 1:
        return [1.0]
    c = near_cutoff(1.0, sign)
    return [1.0 - c, c] + [0.0] * (dim - 2)


def channel_kraus(h_in, k_in, sign, rng):
    """Kraus operators from K_in to H_in of a channel whose Choi spectrum has
    one eigenvalue at the cutoff.

    k_in = 1 prepares a state with ``state_spectrum``.  Otherwise h_in = k_in = d
    and the operators sqrt(1 - e) U and sqrt(e) U C, with C the clock matrix,
    are Hilbert-Schmidt orthogonal, so the Choi eigenvalues are (1 - e) d > 1
    and e d, whose ratio e / (1 - e) is c.
    """
    if k_in == 1:
        basis = random_isometry(h_in, h_in, rng)
        return [np.sqrt(p) * basis[:, [j]] for j, p in enumerate(state_spectrum(h_in, sign)) if p]
    d = k_in
    c = near_cutoff(1.0, sign)
    e = c / (1 + c)
    u = random_isometry(d, d, rng)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [np.sqrt(1 - e) * u, np.sqrt(e) * u @ clock]


def assert_same_ops(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize(
    "lam0, rest, zeros",
    [(0.3, [], 0), (0.3, [0.1, 0.05], 2), (1.0, [0.5], 1), (7.0, [2.0, 1.0], 0), (7.0, [], 3)],
)
def test_psd_factors_matches_reference(rng, lam0, rest, zeros, sign):
    w = [lam0, *rest, near_cutoff(lam0, sign)] + [0.0] * zeros
    m = with_spectrum(w, rng)
    f = psd_factors(m)
    ref = ref_factors(m)
    assert f.shape == (len(w), len(rest) + 1 + (sign > 0))
    assert_same_ops(list(f.T), ref)


@pytest.mark.parametrize("lam", [0.0, 1e-12, 0.4, 3.0])
def test_psd_factors_one_dimensional(lam):
    m = np.array([[lam]], dtype=complex)
    f = psd_factors(m)
    assert f.shape == (1, int(lam > POS_TOL))
    assert_same_ops(list(f.T), ref_factors(m))


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("h_in, k_in", [(1, 1), (3, 1), (2, 2), (3, 3)])
def test_choi_to_kraus(rng, h_in, k_in, sign):
    op = kraus_to_choi(KrausSet(k_in, h_in, tuple(channel_kraus(h_in, k_in, sign, rng))))
    expected = [f.reshape(op.dim_out, op.dim_in) for f in ref_factors(op.choi)]
    assert_same_ops(choi_to_kraus(op).operators, expected)


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("h_in, k_in, h_out", [(1, 1, 2), (3, 1, 1), (2, 2, 2), (3, 3, 1)])
def test_effect_map_of(rng, h_in, k_in, h_out, sign):
    """S(E) = E ∘ C for a channel C from K_in to H_in, whose Choi is the effect map's."""
    ops = tuple(kron(np.eye(h_out), c.T) for c in channel_kraus(h_in, k_in, sign, rng))
    s = Supermap(h_in, h_out, k_in, h_out, ops)
    expected = [f.reshape(h_in, k_in) for f in ref_factors(determinism_certificate(s).choi_n)]
    assert_same_ops(effect_map_of(s).kraus, expected)


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("h_in, h_out", [(1, 1), (2, 1), (3, 2)])
def test_as_supermap_parts(rng, h_in, h_out, sign):
    rho = with_spectrum(state_spectrum(h_in, sign), rng)
    basis = random_isometry(h_out, h_out, rng)
    effects = [kron(np.outer(basis[:, j], basis[:, j].conj()), rho.T) for j in range(h_out)]
    # A zero effect has no factor and is encoded by one zero operator.
    effects.append(np.zeros_like(effects[0]))
    t = make_tester(effects, h_out, h_in)
    d = h_out * h_in
    for part, p in zip(as_supermap_parts(t), t.effects):
        expected = [f.conj().reshape(1, d) for f in ref_factors(p)] or [np.zeros((1, d))]
        assert_same_ops(part.kraus, expected)


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("dim_sys, dim_prog", [(1, 1), (2, 1), (1, 3), (2, 2)])
def test_programmable_channel(rng, dim_sys, dim_prog, sign):
    dev = ProgrammableDevice(random_isometry(dim_sys * dim_prog, dim_sys * dim_prog, rng),
                             dim_sys, dim_prog)
    sigma = with_spectrum(state_spectrum(dim_prog, sign), rng)
    u4 = dev.unitary.reshape(dim_sys, dim_prog, dim_sys, dim_prog)
    ops = []
    for wk, vk in ref_spectrum(sigma):
        amp = np.einsum("mlnp,p->lmn", u4, vk)
        ops += [np.sqrt(wk) * amp[l] for l in range(dim_prog)]
    expected = kraus_to_choi(KrausSet(dim_sys, dim_sys, tuple(ops))).choi
    np.testing.assert_allclose(programmable_channel(dev, sigma).choi, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("h_in, h_out", [(1, 2), (2, 2), (3, 1)])
def test_tomography_probe_factors(rng, h_in, h_out, sign):
    f = with_spectrum(state_spectrum(h_in * h_in, sign), rng)
    s = tomography_supermap(TomographySetup(faithful_state=f, h_in=h_in, h_out=h_out))
    expected = [kron(np.eye(h_out), r.reshape(h_in, h_in).T) for r in ref_factors(f)]
    assert_same_ops(s.kraus, expected)


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("d", [1, 2, 4])
def test_povm_as_channel(rng, d, sign):
    p0 = with_spectrum(state_spectrum(d, sign), rng)
    povm = [p0, np.eye(d) - p0]
    ops = []
    for n, p in enumerate(povm):
        for f in ref_factors(p):
            e = np.zeros((2, d), dtype=complex)
            e[n, :] = f.conj()
            ops.append(e)
    expected = kraus_to_choi(KrausSet(d, 2, tuple(ops))).choi
    np.testing.assert_allclose(povm_as_channel(povm).choi, expected, rtol=0, atol=1e-12)
