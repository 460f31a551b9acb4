"""Closed-form contractions against per-matrix-unit reference loops.

The reference functions below evaluate the determinism certificate, the
effect-wise determinism test, ``action_distance`` and ``is_faithful`` the
direct way: one matrix unit of the input space at a time, and for
faithfulness an SVD of the full (h_out·h_in)²-sized action matrix.  The
library computes the same quantities with chunked tensor contractions; the
property tests check that both give the same verdicts and residuals.

The certificate reads ``product_residual`` in the singular basis of one
Kraus block, so it is not the gap the reference loops measure; both
``ref_certificate``, which cuts the dual map's Gram matrix into (a, b) blocks
on K_in, and the dense per-(m, n) loop of ``check_certificate`` measure it
against the mean of the diagonal blocks.  ``check_certificate`` holds the
certificate to the bounds the tolerance policy states between the two, and
its verdict to the reference's outside the band those bounds leave.  The
effect-wise test measures each off-diagonal (m, n) block of output effects
whole, so it may reject where ``ref_effectwise``, which holds each unit to
tol, accepts, but only inside the one-sided band ``effectwise_outside_band``
names; it never accepts where the reference rejects.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import supermaps
from supermaps.applications import TomographySetup, is_faithful, tomography_supermap
from supermaps.linalg import (
    SIGMA_CUTOFF,
    dag,
    frob,
    kron,
    min_eig_floor,
    partial_trace,
    random_density,
    random_isometry,
    rel_residual,
)
from supermaps.realization import CircuitRealization, circuit_to_supermap
from supermaps.supermap import (
    Supermap,
    action_distance,
    determinism_certificate,
    dual_supermap,
    identity_supermap,
    is_deterministic,
    is_deterministic_effectwise,
    sum_supermaps,
    tensor_supermaps,
)

from conftest import matrix_units

dims_st = st.tuples(*(st.integers(1, 4) for _ in range(4)))
seed_st = st.integers(0, 2**32 - 1)
# How the Kraus operators of a deterministic fixture are damaged.  Scaling by
# 1 + 3.5e-7 puts the identity-preservation residuals near 7e-7, between the
# two tolerances the verdicts are compared at.
SCALES = {"x0.9": 0.9, "x(1+1e-9)": 1 + 1e-9, "x(1+1e-7)": 1 + 1e-7, "x(1+3.5e-7)": 1 + 3.5e-7}
DAMAGE = ("intact", *SCALES, "noise1e-3", "random")


# ---------------------------------------------------------------- reference loops


def ref_certificate(s):
    """(product, herm, tp residuals, min eig, max eig, choi_n) by matrix units of K_in."""
    eye_kout = np.eye(s.k_out)
    choi_n = np.zeros((s.h_in * s.k_in,) * 2, dtype=complex)
    worst = 0.0
    for a, b, unit in matrix_units(s.k_in):
        x = dual_supermap(s, kron(eye_kout, unit))
        cand = partial_trace(x, [s.h_out, s.h_in], keep=[1]) / s.h_out
        worst = max(worst, rel_residual(x, kron(np.eye(s.h_out), cand)))
        choi_n.reshape(s.h_in, s.k_in, s.h_in, s.k_in)[:, a, :, b] += cand
    herm = rel_residual(choi_n, dag(choi_n))
    marg = partial_trace(choi_n, [s.h_in, s.k_in], keep=[1])
    tp = frob(marg - np.eye(s.k_in)) / np.sqrt(s.k_in)
    eigs = np.linalg.eigvalsh((choi_n + dag(choi_n)) / 2.0)
    return worst, herm, tp, float(eigs[0]), float(eigs[-1]), choi_n


def ref_blocks(s):
    """A_m[(i, c), (u, a)] = <c, a| S_i |m, u> for each m on H_out, one block at a time."""
    t = s.kraus.reshape(-1, s.k_out, s.k_in, s.h_out, s.h_in)
    return [t[:, :, :, m].transpose(0, 1, 3, 2).reshape(-1, s.h_in * s.k_in) for m in range(s.h_out)]


def check_certificate(s, cert=None):
    """The tolerance policy's bounds between the certificate of s and the reference
    loops, and its verdicts at 1e-8 and 1e-6 against ``ref_is_deterministic``
    wherever those bounds decide them.

    With C̄ the mean of the A_m†A_m and Δ the largest ||A_m†A_n − δ_mn·C̄||_F,
    the gap the reference loops measure: ``product_residual`` ρ bounds each
    block's gap to C = choi_n, Δ <= 2ρ·max(1, ||C||_F), and ρ <= 2√3·Δ + ε²,
    where ε = max||E_m||, E_m the part of A_m outside the right singular
    vectors y_j of A_0 that the certificate keeps (read from its ``factors``),
    and ε² <= (2√3 + 4√e)·Δ + 2e·(SIGMA_CUTOFF·σ_0)²: the band is linear in Δ.
    ``tp_residual`` is within √(h_in / k_in)·Δ of the reference's.  Each bound
    gets 1e-13·max(1, max||A_m||²) for rounding.
    """
    cert = cert or determinism_certificate(s)
    a = ref_blocks(s)
    gram = {(m, n): dag(a[m]) @ a[n] for m in range(s.h_out) for n in range(s.h_out)}
    c_bar = sum(gram[m, m] for m in range(s.h_out)) / s.h_out
    gap = max(frob(g - c_bar) if m == n else frob(g) for (m, n), g in gram.items())
    size = max(frob(x) for x in a)
    top = np.linalg.norm(a[0], 2)
    kept = cert.factors / np.linalg.norm(cert.factors, axis=0)  # the y_j
    outside = max(frob(x - x @ kept @ dag(kept)) for x in a)
    e = s.h_in * s.k_in
    slack = 1e-13 * max(1.0, size * size)

    c, rho = cert.choi_n, cert.product_residual
    scale = max(1.0, frob(c))
    for (m, n), g in gram.items():
        assert (frob(g - c) if m == n else frob(g)) <= rho * (scale if m == n else 1.0) + slack
    assert frob(c - c_bar) <= rho * scale + slack
    assert gap <= 2 * rho * scale + slack
    upper = 2 * np.sqrt(3) * gap + outside**2
    assert rho <= upper + slack
    assert outside**2 <= (2 * np.sqrt(3) + 4 * np.sqrt(e)) * gap + 2 * e * (SIGMA_CUTOFF * top) ** 2 + slack
    _, _, tp, lo, hi, _ = ref_certificate(s)
    shift = np.sqrt(s.h_in / s.k_in) * gap
    assert abs(cert.tp_residual - tp) <= shift + slack
    # N is CP by construction, so the reference's positivity stage always holds.
    assert min_eig_floor(lo, hi)
    for tol in (1e-8, 1e-6):
        expected = ref_is_deterministic(s, tol)
        if expected and upper + slack <= tol and tp + shift + slack <= tol:
            assert cert.verdict(tol)
        if not expected and (gap > 2 * tol * max(1.0, frob(c_bar) + gap) + slack
                             or tp - shift - slack > tol):
            assert not cert.verdict(tol)


def ref_is_deterministic(s, tol):
    worst, herm, tp, lo, hi, _ = ref_certificate(s)
    return worst <= tol and herm <= tol and tp <= tol and min_eig_floor(lo, hi)


def ref_effectwise(s, tol):
    """Tr_Kout S(|m,mu><n,nu|) = delta_mn N(|mu><nu|) over every matrix unit."""
    eye_like = np.eye(s.h_out) / s.h_out
    n_of_unit = {}
    for a, b, unit in matrix_units(s.h_in):
        n_of_unit[(a, b)] = partial_trace(
            s.act(kron(eye_like, unit)), [s.k_out, s.k_in], keep=[1]
        )
    for m, n, _ in matrix_units(s.h_out):
        for mu, nu, _ in matrix_units(s.h_in):
            g = np.zeros((s.h_out * s.h_in,) * 2, dtype=complex)
            g[m * s.h_in + mu, n * s.h_in + nu] = 1.0
            lhs = partial_trace(s.act(g), [s.k_out, s.k_in], keep=[1])
            rhs = n_of_unit[(mu, nu)] if m == n else np.zeros_like(lhs)
            if rel_residual(lhs, rhs) > tol:
                return False
    n_eye = sum(n_of_unit[(a, a)] for a in range(s.h_in))
    if rel_residual(n_eye, np.eye(s.k_in)) > tol:
        return False
    choi = np.zeros((s.k_in * s.h_in,) * 2, dtype=complex)
    for (a, b), val in n_of_unit.items():
        choi.reshape(s.k_in, s.h_in, s.k_in, s.h_in)[:, a, :, b] += val
    if rel_residual(choi, dag(choi)) > tol:
        return False
    eigs = np.linalg.eigvalsh((choi + dag(choi)) / 2.0)
    return min_eig_floor(float(eigs[0]), float(eigs[-1]))


def effectwise_outside_band(s, tol):
    """True unless the worst off-diagonal unit gap of ``effectwise_block_gaps`` lies in
    (tol / h_in, tol], widened by 1e-9 relative for rounding: outside that band the
    effect-wise test's (m, n)-block gap decides as the reference's unit gaps do."""
    worst = max((gap for (m, n), gap in effectwise_block_gaps(s).items() if m != n), default=0.0)
    return not tol / s.h_in * (1 - 1e-9) < worst <= tol * (1 + 1e-9)


def ref_action_distance(a, b):
    worst = 0.0
    for _, _, unit in matrix_units(a.h_out * a.h_in):
        worst = max(worst, frob(a.act(unit) - b.act(unit)))
    return worst


def ref_is_faithful(setup, tol=1e-8):
    """Full column rank of the tomography supermap's whole action matrix."""
    s = tomography_supermap(setup)
    m = sum(kron(op, op.conj()) for op in s.kraus)
    svals = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(svals > tol * svals[0])) == (setup.h_out * setup.h_in) ** 2


# ---------------------------------------------------------------- fixtures


def circuit_supermap(rng, dims):
    """Random deterministic supermap built from two random isometries."""
    h_in, h_out, k_in, k_out = dims
    dim_b = max(int(rng.integers(1, 3)), -(-k_in // h_in))
    dim_a = max(int(rng.integers(1, 3)), -(-(h_out * dim_b) // k_out))
    v = random_isometry(dim_b * h_in, k_in, rng)
    w = random_isometry(k_out * dim_a, h_out * dim_b, rng)
    return circuit_to_supermap(CircuitRealization(v=v, w=w, dim_a=dim_a, dim_b=dim_b), dims)


def damaged_supermap(dims, seed, damage):
    rng = np.random.default_rng(seed)
    h_in, h_out, k_in, k_out = dims
    shape = (k_out * k_in, h_out * h_in)
    if damage == "random":
        ops = tuple(
            (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 4
            for _ in range(2)
        )
        return Supermap(*dims, ops)
    ops = circuit_supermap(rng, dims).kraus
    if damage == "noise1e-3":
        ops = tuple(k + 1e-3 * rng.standard_normal(shape) for k in ops)
    elif damage != "intact":
        ops = tuple(SCALES[damage] * k for k in ops)
    return Supermap(*dims, ops)


# ---------------------------------------------------------------- properties


@given(dims=dims_st, seed=seed_st, damage=st.sampled_from(DAMAGE))
def test_determinism_verdicts_match_reference(dims, seed, damage):
    s = damaged_supermap(dims, seed, damage)
    for tol in (1e-8, 1e-6):
        assert is_deterministic(s, tol) == ref_is_deterministic(s, tol)
        assert is_deterministic_effectwise(s, tol) == ref_effectwise(s, tol)


@given(dims=dims_st, seed=seed_st, damage=st.sampled_from(DAMAGE))
def test_certificate_matches_reference(dims, seed, damage):
    check_certificate(damaged_supermap(dims, seed, damage))


@given(dims=dims_st, seed=seed_st, damage=st.sampled_from(DAMAGE))
def test_action_distance_matches_reference(dims, seed, damage):
    rng = np.random.default_rng(seed)
    a = circuit_supermap(rng, dims)
    b = damaged_supermap(dims, seed + 1, damage)
    assert abs(action_distance(a, b) - ref_action_distance(a, b)) <= 1e-12
    assert abs(action_distance(b, a) - ref_action_distance(b, a)) <= 1e-12


@given(dims=dims_st, seed=seed_st, damage=st.sampled_from(DAMAGE))
def test_action_distance_is_exactly_zero_for_identical_kraus(dims, seed, damage):
    s = damaged_supermap(dims, seed, damage)
    assert action_distance(s, s) == 0.0
    assert action_distance(sum_supermaps([s]), s) == 0.0
    assert action_distance(Supermap(*dims, s.kraus), s) == 0.0


def probe_state(kind, h_in, rng):
    d = h_in * h_in
    if kind == "full-rank":
        return random_density(d, rng)
    if kind == "product":
        return kron(random_density(h_in, rng), random_density(h_in, rng))
    if kind in ("maximally-entangled", "near-product"):
        v = np.eye(h_in, dtype=complex).reshape(-1)
        entangled = np.outer(v, v.conj()) / h_in
        if kind == "maximally-entangled":
            return entangled
        # Faithful, with singular values of order 1e-5 relative to the largest.
        product = kron(random_density(h_in, rng), random_density(h_in, rng))
        return (1 - 1e-5) * product + 1e-5 * entangled
    rank = 1 if kind == "pure" else int(kind.split("-")[1])
    vecs = random_isometry(d, min(rank, d), rng)
    weights = rng.uniform(0.2, 1.0, vecs.shape[1])
    f = (vecs * weights) @ dag(vecs)
    return f / np.trace(f).real


PROBES = (
    "full-rank", "product", "maximally-entangled", "near-product", "pure", "rank-2", "rank-3",
    "rank-5",
)


@given(
    h_in=st.integers(1, 3),
    extra=st.integers(0, 1),
    kind=st.sampled_from(PROBES),
    seed=seed_st,
)
def test_is_faithful_matches_full_action_svd(h_in, extra, kind, seed):
    f = probe_state(kind, h_in, np.random.default_rng(seed))
    setup = TomographySetup(faithful_state=f, h_in=h_in, h_out=h_in + extra)
    assert is_faithful(setup) == ref_is_faithful(setup)


def test_certificate_is_public_and_cached():
    s = circuit_supermap(np.random.default_rng(3), (2, 3, 2, 2))
    assert supermaps.determinism_certificate is determinism_certificate
    assert determinism_certificate(s) is determinism_certificate(s)


def test_effectwise_diagonal_blocks_are_relative_to_the_effect_norm():
    """The verdict depends on dividing diagonal-block gaps by max(1, ‖N(|μ><ν|)‖).

    With h_in = 1 and k_in = 2, Tr_Kout S(|m><m|) = (1 ± δ) I_2, the
    off-diagonal blocks vanish and N(|0><0|) = I_2 has norm √2.  Each diagonal
    block's gap is √2·δ in absolute terms but δ relative to that norm.
    """
    tol = 1e-8
    for delta, verdict in ((0.85 * tol, True), (1.2 * tol, False)):
        k = np.zeros((8, 2), dtype=complex)
        k[0, 0] = k[3, 0] = np.sqrt(1 + delta)
        k[4, 1] = k[7, 1] = np.sqrt(1 - delta)
        s = Supermap(1, 2, 2, 4, (k,))
        assert np.sqrt(2) * delta > tol
        assert is_deterministic_effectwise(s, tol) == verdict
        assert ref_effectwise(s, tol) == verdict


# ---------------------------------------------------------------- off-diagonal defects
#
# Both tests compute only the upper block triangle and rely on the exact
# symmetry of the lower one.  Each fixture below is deterministic in every
# diagonal block and fails in exactly one off-diagonal pair of blocks, in a
# row other than the first; tensoring with an identity supermap spreads that
# pair over several blocks of a larger space.


def certificate_block_defect():
    """h_out = 2, h_in = 1, k_in = 3: A_0 = [e0, e1, e2] and A_1 = [e3, e2, e1] on the
    four (Kraus index, K_out) rows.

    Both blocks are isometries, so A_0†A_0 = A_1†A_1 = C = I, the trace
    condition holds exactly, and A_0†A_1 = |1><2| + |2><1|: only the (1, 2)
    and (2, 1) blocks X_ab on K_in fail, as the Pauli X.
    """
    ops = np.zeros((2, 2, 3, 2), dtype=complex)  # (Kraus i, K_out c, K_in a, H_out m)
    for m, rows in enumerate(((0, 1, 2), (3, 2, 1))):
        for a, row in enumerate(rows):
            ops[row // 2, row % 2, a, m] = 1.0
    return Supermap(1, 2, 3, 2, tuple(ops.reshape(2, 6, 2)))


def effectwise_block_defect():
    """h_out = 3, h_in = k_in = 1: Tr_Kout S(|m><n|) = <u_n|u_m> with u = (e0, e1, e1).

    Every diagonal effect is 1 = N(1), but the (1, 2) effect is 1, not 0.
    """
    return Supermap(1, 3, 1, 2, (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),))


def certificate_block_gaps(s):
    """{(a, b): ||X_ab − I ⊗ cand_ab||_F} by matrix units of K_in (reference)."""
    gaps = {}
    for a, b, unit in matrix_units(s.k_in):
        x = dual_supermap(s, kron(np.eye(s.k_out), unit))
        cand = partial_trace(x, [s.h_out, s.h_in], keep=[1]) / s.h_out
        gaps[a, b] = frob(x - kron(np.eye(s.h_out), cand))
    return gaps


def effectwise_block_gaps(s):
    """{(m, n): largest ||Tr_Kout S(|m,mu><n,nu|) − delta_mn N(|mu><nu|)||_F} (reference)."""
    d = s.h_out * s.h_in
    effects = {}
    for i, j, unit in matrix_units(d):
        effects[i, j] = partial_trace(s.act(unit), [s.k_out, s.k_in], keep=[1])
    gaps = {}
    for (i, j), eff in effects.items():
        (m, mu), (n, nu) = divmod(i, s.h_in), divmod(j, s.h_in)
        target = np.zeros_like(eff)
        if m == n:
            target = sum(effects[k * s.h_in + mu, k * s.h_in + nu] for k in range(s.h_out))
            target = target / s.h_out
        gaps[m, n] = max(gaps.get((m, n), 0.0), frob(eff - target))
    return gaps


def spread(s, h):
    """s ⊗ identity on an h-dimensional input: the defect moves into several blocks."""
    return tensor_supermaps(s, identity_supermap(h, 1))


@pytest.mark.parametrize("h", [1, 2])
def test_certificate_fails_on_one_off_diagonal_block(h):
    """The defect sits in an off-diagonal (a, b) block, which the (m, n) blocks on
    H_out hold in their off-diagonal A_0†A_1, of norm √2·h: the Pauli X times the
    identity's |I><I| of norm h.  A_0's three nonzero σ_j all equal √h, below
    that gap: the drop rule would remove some of them, but equal σ_j are kept
    or dropped together, so the certificate keeps all three, every E_m is 0,
    and the residual is exactly that gap, whatever basis the SVD picks."""
    s = spread(certificate_block_defect(), h)
    gaps = certificate_block_gaps(s)
    bad = {blk for blk, gap in gaps.items() if gap > 1.0}
    assert bad and all(a != b for a, b in bad)
    assert all(gaps[a, a] == 0.0 for a in range(s.k_in))
    cert = determinism_certificate(s)
    assert cert.product_residual == pytest.approx(np.sqrt(2) * h, rel=1e-14)
    assert cert.factors.shape[1] == 3
    assert cert.tp_residual == 0.0
    check_certificate(s, cert)
    assert not is_deterministic(s)
    assert not is_deterministic_effectwise(s)


@pytest.mark.parametrize("h", [1, 2])
def test_effectwise_fails_on_one_off_diagonal_block(h):
    s = spread(effectwise_block_defect(), h)
    gaps = effectwise_block_gaps(s)
    assert {blk for blk, gap in gaps.items() if gap > 0.5} == {(1, 2), (2, 1)}
    assert max(gaps[m, m] for m in range(s.h_out)) <= 1e-15
    assert not is_deterministic_effectwise(s)
    assert not is_deterministic(s)


# ---------------------------------------------------------------- the effect-wise band


def effectwise_damaged(dims, seed, kind, damage):
    """A circuit supermap damaged by a relative ``damage``: "scaled" by 1 + damage, "noise"
    of that size on every Kraus entry, or "off-diagonal", A_1 + damage·A_0 for the Kraus
    blocks A_m on H_out.  A_0†A_1 = 0, so the last leaves the diagonal blocks and N(I) as
    they are to first order and gives each unit (mu, nu) of the (0, 1) block the gap
    damage·||C^(mu nu)||: the defect spreads over its h_in² >= 4 units."""
    rng = np.random.default_rng(seed)
    if kind == "off-diagonal":
        dims = (max(2, dims[0]), max(2, dims[1]), *dims[2:])
    ops = circuit_supermap(rng, dims).kraus
    if kind == "scaled":
        ops = (1 + damage) * ops
    elif kind == "noise":
        ops = ops + damage * (rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape))
    else:
        h_in, h_out, k_in, k_out = dims
        t = ops.reshape(-1, k_out * k_in, h_out, h_in).copy()
        t[:, :, 1] += damage * t[:, :, 0]
        ops = t.reshape(ops.shape)
    return Supermap(*dims, ops)


@given(
    dims=dims_st,
    seed=seed_st,
    kind=st.sampled_from(("scaled", "noise", "off-diagonal")),
    log_damage=st.floats(-13.0, 0.0),
)
def test_effectwise_verdict_equals_the_reference_outside_the_band(dims, seed, kind, log_damage):
    """The effect-wise test never accepts where ``ref_effectwise`` rejects, and rejects
    where it accepts only inside the band ``effectwise_outside_band`` names."""
    s = effectwise_damaged(dims, seed, kind, 10.0**log_damage)
    for tol in (1e-8, 1e-6):
        verdict, expected = is_deterministic_effectwise(s, tol), ref_effectwise(s, tol)
        assert expected or not verdict
        if effectwise_outside_band(s, tol):
            assert verdict == expected


def test_effectwise_rejects_inside_the_band():
    """h_in = h_out = 2, k_in = 1: A_0 = [e0, e1]/√2, and A_1's columns are
    (ε(e0 + e1) + sqrt(1 − 2ε²) e_(2+nu))/√2 with ε = 1.6·tol.  The diagonal blocks
    are I/2 up to ε², N(I) = 1, and every off-diagonal unit gap is ε/2 = 0.8·tol,
    which a test of units accepts; the (0, 1) block's gap is 1.6·tol."""
    tol = 1e-8
    eps = 1.6 * tol
    a0 = np.eye(4, 2) / np.sqrt(2)
    a1 = (eps * np.outer([1, 1, 0, 0], [1, 1]) + np.sqrt(1 - 2 * eps**2) * np.eye(4, 2, -2)) / np.sqrt(2)
    s = Supermap(2, 2, 1, 4, np.hstack([a0, a1])[None])
    gaps = effectwise_block_gaps(s)
    assert gaps[0, 1] == pytest.approx(0.8 * tol, rel=1e-9)
    assert not effectwise_outside_band(s, tol)
    assert ref_effectwise(s, tol)
    assert not is_deterministic_effectwise(s, tol)
