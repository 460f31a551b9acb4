"""psd_factors against the eigh-and-cutoff step it replaced at five call sites.

``ref_spectrum`` is the step each site used to spell out: the sorted,
phase-fixed eigendecomposition (``ref_eigh_sorted``, a per-column loop in
conftest), keep the eigenvalues above POS_TOL * max(1, lambda_0), scale the
kept eigenvectors by sqrt(w).  Every fixture puts one eigenvalue a factor
1 ± 1e-3 from that cutoff, so a site that kept a different number of
factors would differ from the reference by about POS_TOL, far above the
1e-12 the comparisons allow.  The effect map, whose factors come from an SVD
of the supermap's Kraus block cut on the singular values, is held to the
exact Kraus operators of the channel it is built from instead, and
``povm_as_channel``, which factors nothing, to its closed form
sum_n |n><n| ⊗ herm(P_n)ᵀ on the same near-cutoff fixtures.

The sketch route of ``psd_factors`` (``linalg._ritz_pairs``) is held to the
same reference at 1e-12 on low-rank channels, and to the ``eigh`` route's own
bits where its certificate must refuse: a degenerate kept pair, a noise tail,
an eigenvalue near the cutoff, full rank and every size below the gate.
Counted ``eigh`` and ``qr`` calls show which route ran.
"""

import math

import numpy as np
import pytest

from supermaps.applications import (
    ProgrammableDevice,
    TomographySetup,
    povm_as_channel,
    programmable_channel,
    tomography_supermap,
)
from supermaps import linalg
from supermaps.linalg import (
    _PHASE_EPS,
    POS_TOL,
    SIGMA_CUTOFF,
    _hermitian_part,
    _ritz_pairs,
    kron,
    psd_factors,
    random_density,
    random_isometry,
)
from supermaps.operations import KrausSet, choi_to_kraus, kraus_to_choi, random_channel
from supermaps.supermap import Supermap, effect_map_of
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


def phase_fixed(op):
    """op rescaled so that the first entry of op / ||op|| above _PHASE_EPS is real positive."""
    flat = op.reshape(-1) / np.linalg.norm(op)
    pivot = flat[np.nonzero(np.abs(flat) > _PHASE_EPS)[0][0]]
    return op * (pivot.conjugate() / abs(pivot))


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("h_in, k_in, h_out", [(1, 1, 2), (3, 1, 1), (2, 2, 2), (3, 3, 1)])
def test_effect_map_of(rng, h_in, k_in, h_out, sign):
    """S(E) = E ∘ C for a channel C from K_in to H_in, whose Choi is the effect map's.

    C's Kraus operators are Hilbert-Schmidt orthogonal, so their conjugates, in
    descending norm, pivot phase fixed and cut at SIGMA_CUTOFF of the largest
    norm, are the effect map's canonical Kraus operators exactly.  The effect
    map's cutoff is on the singular values, so the factor at POS_TOL in the
    Choi spectrum, about 3e-5 of the largest in norm, is kept on either side
    of that eigenvalue cutoff.  Each factor is held to its exact one within
    1e-12 of its norm.
    """
    kraus = channel_kraus(h_in, k_in, sign, rng)
    s = Supermap(h_in, h_out, k_in, h_out, tuple(kron(np.eye(h_out), c.T) for c in kraus))
    exact = sorted((c.conj() for c in kraus), key=lambda c: -np.linalg.norm(c))
    top = np.linalg.norm(exact[0])
    exact = [phase_fixed(c) for c in exact if np.linalg.norm(c) >= SIGMA_CUTOFF * top]
    got = effect_map_of(s).kraus
    assert len(got) == len(exact) == len(kraus)
    for a, b in zip(got, exact):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


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
    expected = np.zeros((2 * d, 2 * d), dtype=complex)
    for n, p in enumerate(povm):  # |n><n| ⊗ herm(P_n)ᵀ: the eigenvalue near the cutoff is kept
        expected[n * d:(n + 1) * d, n * d:(n + 1) * d] = ((p + p.conj().T) / 2).T
    np.testing.assert_allclose(povm_as_channel(povm).choi, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- the sketch route


def sketch_width(m):
    """The width the docstring of ``_ritz_pairs`` states: 2 ceil(tr(H)² / ||H||_F²) + 1."""
    h = (m + m.conj().T) / 2
    return 2 * math.ceil((np.trace(h).real / np.linalg.norm(h)) ** 2) + 1


def eigh_route(m, monkeypatch):
    """psd_factors with the sketch turned off: the eigh route's bits."""
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "_SKETCH_MIN_DIM", 10**9)
        return psd_factors(m)


def low_rank(n, w, rng):
    """A rank-len(w) positive n × n matrix with spectrum w, padded with exact zeros."""
    q = random_isometry(n, len(w), rng)
    return (q * np.asarray(w, dtype=float)) @ q.conj().T


def count_calls(monkeypatch):
    """Record the shape of every eigh and qr argument, as ("eigh", n) and ("qr", n)."""
    calls = []
    for name in ("eigh", "qr"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            calls.append((_name, a.shape[0]))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("d", [8, 12, 16])
@pytest.mark.parametrize("rank", range(1, 9))
def test_sketch_matches_reference_on_low_rank_channels(d, rank):
    """Kraus rank 1-8 at n = 64, 144, 256: the reference factors within 1e-12,
    and the sketch accepted wherever its width is at most n/4."""
    choi = random_channel(d, d, rank, np.random.default_rng([d, rank])).choi
    n = d * d
    assert (_ritz_pairs(choi, _hermitian_part(choi)) is not None) == (4 * sketch_width(choi) <= n)
    f = psd_factors(choi)
    assert f.shape == (n, rank)
    assert_same_ops(list(f.T), ref_factors(choi))


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("lam0", [3.0, 1e-8])
@pytest.mark.parametrize("n", [64, 144])
def test_sketch_keeps_eigh_count_near_the_cutoff(rng, n, lam0, sign):
    """An eigenvalue at 1 ± 1e-3 of the cutoff.  At lambda_max = 3 it is 1e-9 of
    lambda_max, which H H Omega loses to rounding: the residual shows it and eigh
    decides.  At lambda_max = 1e-8 the cutoff is POS_TOL itself, a tenth of
    lambda_max, and the sketch is accepted, 1e-12 from the cutoff."""
    m = low_rank(n, [lam0, lam0 / 3, near_cutoff(lam0, sign)], rng)
    assert (_ritz_pairs(m, _hermitian_part(m)) is not None) == (lam0 < 1)
    f = psd_factors(m)
    assert f.shape == (n, 2 + (sign > 0))
    assert_same_ops(list(f.T), ref_factors(m))


@pytest.mark.parametrize("n", [64, 256])
def test_a_noise_tail_is_refused_and_leaves_h_as_given(rng, n):
    """A rank-2 matrix plus a positive tail of 1e-12: its eigenvalues sit below
    the cutoff, but above eigh's backward error, so the sketch refuses."""
    m = low_rank(n, [2.0, 1.0], rng) + 1e-12 * n * random_density(n, rng)
    h = _hermitian_part(m)
    h.setflags(write=False)
    assert _ritz_pairs(m, h) is None
    f = psd_factors(m)
    assert f.shape == (n, 2)
    assert_same_ops(list(f.T), ref_factors(m))


@pytest.mark.parametrize(
    "spectrum",
    [
        [5.0, 5.0, 1.0],
        [2.0, 1.0, 1.0],
        # 1e-13 apart: inside twice the margin (about 2e-13 here), outside twice the residual.
        [5.0 + 1e-13, 5.0, 1.0],
        # lambda_max < 1 puts the cutoff at POS_TOL, 1e-14 of it from the last eigenvalue.
        [1e-8, POS_TOL * (1 + 1e-14)],
        [1e-8, POS_TOL * (1 - 1e-14)],
        # Rank 5 at width 5 (tr² / ||H||_F² = 1.84): every Ritz value is kept.
        [1.0, 0.11, 0.1, 0.09, 0.08],
    ],
    ids=["degenerate", "degenerate-tail", "near-degenerate", "on-cutoff+", "on-cutoff-", "none-dropped"],
)
def test_what_the_certificate_refuses_keeps_the_eigh_bits(rng, monkeypatch, spectrum):
    """A degenerate or nearly degenerate kept pair, an eigenvalue within the
    margin of the cutoff, and a sketch that drops nothing all go to eigh."""
    m = low_rank(64, spectrum, rng)
    assert _ritz_pairs(m, _hermitian_part(m)) is None
    assert np.array_equal(psd_factors(m), eigh_route(m, monkeypatch))


@pytest.mark.parametrize("scale", [1e-200, 1e-155, 1e-6, 1e150, 1e200, 1e300])
def test_extreme_scales_match_reference(rng, scale):
    """Norms that underflow or overflow go to eigh, with no warning; the rest may sketch."""
    m = scale * low_rank(64, [2.0, 1.0], rng)
    f = psd_factors(m)
    ref = ref_factors(m)
    assert f.shape == (64, len(ref))
    for a, b in zip(f.T, ref):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * math.sqrt(scale))


def test_the_empty_matrix(monkeypatch):
    m = np.zeros((0, 0))
    assert psd_factors(m).shape == (0, 0)
    monkeypatch.setattr(linalg, "_SKETCH_MIN_DIM", 0)
    assert psd_factors(m).shape == (0, 0)


def test_full_rank_goes_straight_to_eigh(rng, monkeypatch):
    m = random_density(64, rng)
    calls = count_calls(monkeypatch)
    f = psd_factors(m)
    assert calls == [("eigh", 64)]
    assert f.shape == (64, 64)


def test_eigh_calls_on_each_route(rng, monkeypatch):
    """No n × n eigh on an accepted sketch, exactly one after a refused one,
    and no sketch below the gate."""
    accepted = low_rank(64, [2.0, 1.0], rng)
    refused = accepted + 1e-12 * 64 * random_density(64, rng)
    small = [low_rank(n, [1.0], rng) for n in [1, 2, 4, 9, 16, 25, linalg._SKETCH_MIN_DIM - 1]]
    calls = count_calls(monkeypatch)
    psd_factors(accepted)
    assert calls == [("qr", 64), ("eigh", 5)]
    calls.clear()
    psd_factors(refused)
    assert calls == [("qr", 64), ("eigh", 5), ("eigh", 64)]
    for m in small:
        calls.clear()
        psd_factors(m)
        assert calls == [("eigh", len(m))]


def test_two_calls_give_the_same_bits():
    choi = random_channel(16, 16, 2, np.random.default_rng(3)).choi
    assert _ritz_pairs(choi, _hermitian_part(choi)) is not None
    assert np.array_equal(psd_factors(choi), psd_factors(choi))


def test_an_accepted_sketch_only_reads_h():
    """_ritz_pairs forms its residual in an array of its own, so a read-only H serves."""
    choi = random_channel(16, 16, 2, np.random.default_rng(3)).choi
    h = _hermitian_part(choi)
    h.setflags(write=False)
    assert _ritz_pairs(choi, h) is not None
