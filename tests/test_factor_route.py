"""The effect map's factors and the certificate's verdict, read from the
singular basis of one Kraus block.

``DeterminismCertificate`` takes the thin SVD A_0 = U Σ Y† once, keeps
σ_j >= SIGMA_CUTOFF·σ_0, then drops the smallest while their weight sum
σ_j² is within its own worst bound; ``factors`` are the columns σ_j·y_j, ``choi_n`` is
Y Σ² Y† and ``realize`` reads W = B Σ⁻¹ with B_m = A_m Y.  The tests here
show that on exact supermaps the factors agree with the eigendecomposition
of the Gram mean the reference loops build; that every pivot of a canonical
factor is exactly real; that ``realize`` never returns a wrong circuit on
the near-cutoff circuits that made it do so when its cutoff was on σ², and
accepts those it once refused; that the certificate's verdict equals the
reference's outside the band the tolerance policy states, over damage from
1e-13 to 1 and near-cutoff spectra; and that circuits with noise or one more
Kraus operator of relative size 1e-12 to 1e-9 realize within tol, without
the singular directions the damage adds.  W drifts from an isometry as
1/σ_min², which the certificate bounds (``w_residual_bound``); where that
bound exceeds tol and W fails its check, ``realize`` takes the polar factor
of B = W·Σ and the exact action distance, and the pinned draws below, once
refused, realize.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from supermaps import realization
from supermaps.linalg import _PHASE_EPS, EQ_TOL, ResidualError, frob, isometry_residual, psd_factors, random_isometry
from supermaps.realization import CircuitRealization, _isometries, circuit_to_supermap, realize
from supermaps.supermap import (
    SIGMA_CUTOFF,
    Supermap,
    _singular_gaps,
    action_distance,
    canonical_factors,
    determinism_certificate,
    effect_map_of,
    is_deterministic,
)

from test_closed_forms import check_certificate, circuit_supermap, dims_st, ref_certificate, seed_st


def near_cutoff_supermap(dims, seed: int, eps: float) -> Supermap:
    """The circuit V = [sqrt(1 − eps) V1; sqrt(eps) V2] for isometries V1, V2 into
    (B1, H_in): its effect map has singular values near sqrt(eps) relative to the
    largest, which a cutoff at POS_TOL on σ² dropped for eps below about 1e-9."""
    rng = np.random.default_rng(seed)
    h_in, h_out, k_in, k_out = dims
    half = -(-k_in // h_in)
    u1, u2 = random_isometry(half * h_in, k_in, rng), random_isometry(half * h_in, k_in, rng)
    v = np.concatenate([np.sqrt(1 - eps) * u1, np.sqrt(eps) * u2])
    dim_a = -(-(2 * half * h_out) // k_out) + int(rng.integers(0, 2))
    w = random_isometry(k_out * dim_a, 2 * half * h_out, rng)
    return circuit_to_supermap(CircuitRealization(v, w, dim_a, 2 * half), dims)


def near_cutoff_circuit(seed: int, eps: float) -> Supermap:
    """The same circuit on (d,d,d,d), d in 2..4, with dim_a drawn in 2..4 first."""
    rng = np.random.default_rng(seed)
    d, dim_a = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    u1, u2 = random_isometry(d, d, rng), random_isometry(d, d, rng)
    v = np.concatenate([np.sqrt(1 - eps) * u1, np.sqrt(eps) * u2])
    w = random_isometry(d * dim_a, 2 * d, rng)
    return circuit_to_supermap(CircuitRealization(v, w, dim_a, 2), (d, d, d, d))


def pivots(f: np.ndarray) -> np.ndarray:
    """The first entry of each column of f above _PHASE_EPS times the column's norm."""
    first = (np.abs(f) > _PHASE_EPS * np.linalg.norm(f, axis=0)).argmax(axis=0)
    return f[first, np.arange(f.shape[1])]


@given(dims=dims_st, seed=seed_st)
def test_factors_agree_with_the_gram_eigendecomposition(dims, seed):
    """F F† = choi_n within product_residual of the Gram mean C̄, and F within 1e-12
    of psd_factors(C̄) wherever C̄'s kept spectrum has relative gaps above 1e-2,
    where its eigenvectors are good to about 1e-14; under degenerate spectra
    (every h_in = 1) F may rotate."""
    s = circuit_supermap(np.random.default_rng(seed), dims)
    cert = determinism_certificate(s)
    f, c_bar = cert.factors, ref_certificate(s)[5]
    g = psd_factors(c_bar)
    scale = max(1.0, frob(c_bar))
    assert frob(f @ f.conj().T - c_bar) <= (cert.product_residual + 1e-14) * scale
    w = np.sum(np.abs(g) ** 2, axis=0)
    if f.shape == g.shape and np.all(-np.diff(w) > 1e-2 * w[0]):
        assert np.max(np.abs(f - g)) <= 1e-12 * scale


@given(dims=dims_st, seed=seed_st, log_eps=st.floats(-18, 0))
def test_every_pivot_is_real(dims, seed, log_eps):
    s = near_cutoff_supermap(dims, seed, 10.0**log_eps)
    cert = determinism_certificate(s)
    for f in (cert.factors, psd_factors(cert.choi_n), psd_factors(ref_certificate(s)[5])):
        p = pivots(f)
        assert np.all(p.imag == 0.0) and np.all(p.real > 0.0)


@pytest.mark.parametrize("eps", [1.001e-9, 2e-9, 1e-8, 1e-7, 1e-6])
def test_realize_accepts_a_factor_near_the_cutoff(eps):
    # From choi_n's eigenvectors, good only to about 1e-16 / λ, W's residual
    # reached 2e-8 here: realize raised for 3, 36, 4 and 1 of these seeds at
    # eps = 1.001e-9, 2e-9, 1e-8 and 1e-7.
    for seed in range(100):
        realize(near_cutoff_circuit(seed, eps))


@given(dims=dims_st, seed=seed_st, log_eps=st.floats(-18, 0))
def test_realize_never_returns_a_wrong_circuit(dims, seed, log_eps):
    """Either the circuit rebuilds s within tol, or realize raises naming a residual above tol.

    Column j of W is good to about ε·σ_0/σ_j, so for σ_j below about
    1e-8·σ_0 W's isometry check fails.  A direction the certificate drops
    moves the rebuilt action by about σ_j·σ_0, which realize's own bound on
    the action distance sees.  Either check raises, and says so.
    """
    s = near_cutoff_supermap(dims, seed, 10.0**log_eps)
    try:
        circuit = realize(s)
    except ResidualError as exc:
        assert exc.residual > EQ_TOL and f"{exc.residual:.3e}" in str(exc)
        return
    distance = action_distance(circuit_to_supermap(circuit, dims), s)
    assert distance <= EQ_TOL
    # realize read the certificate's bound, which holds the distance up to the rounding
    # of W V, or, where that bound exceeds tol, this distance itself.
    slack = 1e-14 * max(1.0, frob(s.kraus) ** 2)
    assert distance <= determinism_certificate(s).rebuild_residual + slack


def test_drop_rule_removes_the_tail_within_the_worst_bound():
    """The certificate keeps σ_j exactly while the sum of σ_k² over k >= j exceeds the worst
    absolute bound of the basis cut at SIGMA_CUTOFF; ties do not occur on these fixtures.
    On near-cutoff circuits at eps = 1e-15 to 1e-14 the dropped sum often lies between half
    the bound and the bound, where a rule at half the bound would keep it."""
    between = 0
    for seed in range(20):
        dims = tuple(int(x) for x in np.random.default_rng(seed).integers(1, 5, 4))
        for eps in (1e-15, 10**-14.5, 1e-14):
            cert = determinism_certificate(near_cutoff_supermap(dims, seed, eps))
            r, k_out, k_in, h_out, h_in = cert.kraus.shape
            a = cert.kraus.transpose(0, 1, 3, 4, 2).reshape(r * k_out, -1)
            _, sv, yh = np.linalg.svd(a[:, : h_in * k_in], full_matrices=False)
            cut = sv >= SIGMA_CUTOFF * sv[0]
            sv, yh = sv[cut], yh[cut]
            worst = np.max(_singular_gaps(a, canonical_factors(yh.conj().T), sv)[1])
            tail = np.cumsum(sv[::-1] ** 2)[::-1]  # tail[j] = sum of σ_k² over k >= j
            kept = int(np.count_nonzero(tail > worst))
            kept_sv = np.linalg.norm(cert.factors, axis=0)  # the columns are σ_j·y_j
            assert len(kept_sv) == kept
            np.testing.assert_allclose(kept_sv, sv[:kept], rtol=1e-12)
            between += kept < len(sv) and tail[kept] > 0.5 * worst
    assert between >= 5


def test_realize_falls_back_to_the_action_distance():
    """Where the certificate's rebuild bound exceeds tol, realize decides by the exact action
    distance of the circuit it built: it returns the circuit at or below tol, and above tol
    raises naming that distance.  Near-cutoff circuits at eps = 1e-16 take both ways."""
    outcomes = set()
    for seed in range(40):
        dims = tuple(int(x) for x in np.random.default_rng(seed).integers(1, 5, 4))
        s = near_cutoff_supermap(dims, seed, 1e-16)
        if not (is_deterministic(s) and determinism_certificate(s).rebuild_residual > EQ_TOL):
            continue
        try:
            circuit = CircuitRealization(*_isometries(s, EQ_TOL), tol=EQ_TOL)
        except ResidualError:  # W's isometry check decides first
            continue
        distance = action_distance(circuit_to_supermap(circuit, dims), s)
        try:
            realize(s)
            outcomes.add("returned")
            assert distance <= EQ_TOL
        except ResidualError as exc:
            outcomes.add("raised")
            assert exc.residual == distance > EQ_TOL and f"{distance:.3e}" in str(exc)
    assert outcomes == {"returned", "raised"}


def damaged(rng, ops: np.ndarray, kind: str, damage: float) -> np.ndarray:
    """A Kraus array scaled by 1 + δ, given complex noise of relative size δ, or given one
    more Kraus operator of norm δ·||S||_F; the last moves the Gram gap by δ² but
    E_m by δ."""
    if kind == "scaled":
        return (1 + damage) * ops
    shape = ops.shape if kind == "noise" else (1, *ops.shape[1:])
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise *= damage * frob(ops) / frob(noise)
    return ops + noise if kind == "noise" else np.concatenate([ops, noise])


@given(dims=dims_st, seed=seed_st, base=st.sampled_from(("circuit", "near-cutoff")),
       log_eps=st.floats(-18, 0), kind=st.sampled_from(("scaled", "noise", "extra Kraus")),
       log_damage=st.floats(-13, 0))
def test_verdict_equals_the_reference_outside_the_band(dims, seed, base, log_eps, kind, log_damage):
    rng = np.random.default_rng(seed)
    s = circuit_supermap(rng, dims) if base == "circuit" else near_cutoff_supermap(dims, seed, 10.0**log_eps)
    check_certificate(Supermap(*dims, damaged(rng, s.kraus, kind, 10.0**log_damage)))


# Draws whose W = B·Σ⁻¹ fails its isometry check though the certificate accepts
# them (W's residual 1.3e-7 and 1.4e-8 to 1.9e-8): realize takes the polar factor
# of B and decides by the exact action distance, 2.1e-10 to 1.0e-9 on these.
DRIFTING_W = [
    ((2, 2, 1, 1), 678, -9.0),
    ((2, 3, 1, 3), 1359371981, -9.253409025406174),
    ((2, 4, 1, 2), 524157424, -9.129330436673603),
    ((2, 3, 1, 2), 1251596795, -9.48316577193949),
    ((2, 4, 1, 1), 1081026575, -9.131775252107477),
    ((2, 4, 1, 1), 3767844951, -9.036453251542195),
]


def damaged_circuit(dims, seed: int, kind: str, log_damage: float) -> tuple[Supermap, Supermap]:
    """(the circuit drawn at seed, that circuit damaged by 10^log_damage)."""
    rng = np.random.default_rng(seed)
    s = circuit_supermap(rng, dims)
    return s, Supermap(*dims, damaged(rng, s.kraus, kind, 10.0**log_damage))


def _pinned(test):
    for dims, seed, log_damage in DRIFTING_W:
        test = example(dims=dims, seed=seed, kind="noise", log_damage=log_damage)(test)
    return test


@_pinned
@given(dims=dims_st, seed=seed_st, kind=st.sampled_from(("noise", "extra Kraus")), log_damage=st.floats(-12, -9))
def test_damaged_circuits_realize(dims, seed, kind, log_damage):
    """A damaged circuit that the certificate accepts realizes within tol, with as many
    effect-map Kraus operators as the circuit it came from.

    The damage gives A_0 singular values of about δ·σ_0.  Kept, such a
    direction makes a column of W that is off by O(1); the certificate drops
    it, because its weight σ_j² is within its own residual.
    """
    s, damaged_map = damaged_circuit(dims, seed, kind, log_damage)
    if not is_deterministic(damaged_map):
        return
    circuit = realize(damaged_map)
    assert action_distance(circuit_to_supermap(circuit, dims), damaged_map) <= EQ_TOL
    assert circuit.dim_b == len(effect_map_of(damaged_map).kraus) == determinism_certificate(s).factors.shape[1]


@given(dims=dims_st, seed=seed_st, base=st.sampled_from(("circuit", "near-cutoff")),
       log_eps=st.floats(-18, 0), kind=st.sampled_from(("scaled", "noise", "extra Kraus")),
       log_damage=st.floats(-13, 0))
def test_w_residual_bound_holds(dims, seed, base, log_eps, kind, log_damage):
    """The certificate's bound on W's isometry residual holds up to rounding, whatever
    the verdict: here it was exceeded by at most 4.4e-16 over 4000 draws."""
    rng = np.random.default_rng(seed)
    s = circuit_supermap(rng, dims) if base == "circuit" else near_cutoff_supermap(dims, seed, 10.0**log_eps)
    cert = determinism_certificate(Supermap(*dims, damaged(rng, s.kraus, kind, 10.0**log_damage)))
    assert isometry_residual(cert.circuit_w) <= cert.w_residual_bound + 1e-14


@pytest.mark.parametrize("dims, seed, log_damage", DRIFTING_W)
def test_a_drifting_w_is_replaced_and_the_exact_distance_decides(monkeypatch, dims, seed, log_damage):
    """Where the certificate cannot vouch for W and W fails its check, realize's circuit holds
    the polar factor of B = W·D, an isometry to rounding, and realize measures the exact
    action distance even though the rebuild bound is within tol."""
    _, s = damaged_circuit(dims, seed, "noise", log_damage)
    cert = determinism_certificate(s)
    assert cert.verdict(EQ_TOL) and cert.rebuild_residual <= EQ_TOL < cert.w_residual_bound
    assert isometry_residual(cert.circuit_w) > EQ_TOL
    distances = []

    def measured(a, b):
        distances.append(action_distance(a, b))
        return distances[-1]

    monkeypatch.setattr(realization, "action_distance", measured)
    circuit = realize(s)
    assert circuit.w_residual <= 1e-14 and len(distances) == 1
    assert distances[0] == action_distance(circuit_to_supermap(circuit, dims), s) <= EQ_TOL


@pytest.mark.parametrize("dims, seed, log_eps", [
    ((3, 2, 1, 2), 4268205538, -13.416302329017464),
    ((3, 4, 1, 3), 2709397297, -13.728977931623307),
    ((3, 2, 2, 2), 1640765001, -13.808749004961822),
    ((2, 3, 2, 2), 143737391, -13.924678376176017),
])
def test_the_polar_factor_of_b_rebuilds_a_near_cutoff_circuit(dims, seed, log_eps):
    """Exact circuits whose W fails its check by rounding alone (residual 2.8e-8 to 7.3e-8, at
    σ_min/σ_0 of 5e-8 to 2e-7): W's own polar factor moved the action by 1.1e-8 to 2.5e-8,
    beyond tol, while B's keeps it at rounding, 2e-15 to 9e-15."""
    s = near_cutoff_supermap(dims, seed, 10.0**log_eps)
    assert isometry_residual(determinism_certificate(s).circuit_w) > EQ_TOL
    assert action_distance(circuit_to_supermap(realize(s), dims), s) <= 1e-13


def test_the_certificate_vouches_for_w_on_exact_circuits():
    """On exact circuits (σ_min 0.16 to 1.4 here) the bound is far below tol, so realize
    measures W once, in CircuitRealization, and keeps the certificate's W."""
    for seed in range(20):
        dims = tuple(int(x) for x in np.random.default_rng(seed).integers(1, 5, 4))
        s = circuit_supermap(np.random.default_rng(seed), dims)
        cert = determinism_certificate(s)
        assert cert.w_residual_bound <= 1e-13
        assert np.array_equal(realize(s).w, cert.circuit_w)
