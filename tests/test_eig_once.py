"""Each factorization once: the certificate's cached singular basis, and the
Choi operator a Kraus set admits, against the code that computed them again.

``DeterminismCertificate.factors`` holds N's canonical factors, read on
first use from the thin SVD of one Kraus block, and both ``effect_map_of``
and ``realize`` read it; ``realize`` reads W from the same basis.
``kraus_to_choi`` admits its Choi operator on ``KrausSet``'s verdict instead
of validating it as a ``QuantumOperation``.  ``ref_factors`` takes the
factors' route by its own code, the block by a loop over entries, the
cutoff and canonical rule by a loop over columns and the bound that drops
the last columns by a loop over blocks; ``ref_isometries`` builds
W by the projection solve it replaced, one entry at a time, from those
factors.  ``ref_kraus_to_choi`` is a verbatim copy of the code that
validated every Choi operator ``kraus_to_choi`` built.

The properties check that the results keep their bits in either call order
(V, W and the effect map those of a fresh copy, V and the effect map those
of the references, W within 1e-12 of the projection solve), that the cache
is read-only and private to its certificate, and that ``KrausSet``'s verdict
implies every verdict of ``choi_residuals`` on the Choi operator it admits:
the argument for deleting that re-check, run as a test.  The counting tests
pin one factorization per supermap and one spectrum per Kraus set.
"""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supermaps import io as sio
from supermaps import linalg
from supermaps.cli import main
from supermaps.linalg import _PHASE_EPS, EQ_TOL, POS_TOL, SIGMA_CUTOFF, random_isometry
from supermaps.operations import (
    KrausSet,
    QuantumOperation,
    _kraus_choi,
    choi_residuals,
    kraus_to_choi,
)
from supermaps.realization import realize
from supermaps.supermap import (
    EffectMap,
    Supermap,
    _certified,
    determinism_certificate,
    effect_map_of,
)

from test_closed_forms import circuit_supermap, dims_st, ref_blocks, seed_st
from test_kraus_array import KINDS, fixture

ORDERS = ("effect map first", "realize first")
KRAUS_KINDS = ("random", "excess below the bound", "excess above the bound", "rank-deficient",
               "empty")


# ---------------------------------------------------------------- verbatim copies


def ref_factors(s: Supermap) -> np.ndarray:
    """N's canonical factors: the right singular vectors v_j of A_0[(i, c), (u, a)] =
    S_i[(c, a), (0, u)] with sigma_j >= SIGMA_CUTOFF sigma_0, each phase fixed at its
    first entry above _PHASE_EPS, that entry written as its modulus, scaled by sigma_j;
    then the last ones dropped while their sum of sigma_j² is within the worst (m, n)
    bound of ``product_residual`` in that basis, taken by a loop over blocks."""
    t = s.kraus.reshape(-1, s.k_out, s.k_in, s.h_out, s.h_in)
    a0 = np.array([[t[i, c, a, 0, u] for u in range(s.h_in) for a in range(s.k_in)]
                   for i in range(len(t)) for c in range(s.k_out)])
    _, sv, vh = np.linalg.svd(a0, full_matrices=False)
    cols = []
    for sj, row in zip(sv, vh):
        if sj >= SIGMA_CUTOFF * sv[0]:
            v = row.conj()
            first = np.nonzero(np.abs(v) > _PHASE_EPS)[0][0]
            pivot = v[first]
            v = v * (pivot.conj() / np.hypot(pivot.real, pivot.imag))
            v[first] = np.hypot(pivot.real, pivot.imag)
            cols.append(v * sj)
    weights = [sv[j] ** 2 for j in range(len(cols))]
    y = np.array(cols).T / sv[: len(cols)]
    blocks = ref_blocks(s)
    b = [x @ y for x in blocks]
    e = [x - bx @ y.conj().T for x, bx in zip(blocks, b)]
    worst = 0.0
    for m in range(s.h_out):
        for n in range(s.h_out):
            gap = b[m].conj().T @ b[n] - (np.diag(weights) if m == n else 0.0)
            inside = [np.linalg.norm(x) ** 2 for x in (gap, b[m].conj().T @ e[n], b[n].conj().T @ e[m])]
            worst = max(worst, np.sqrt(sum(inside)) + np.linalg.norm(e[m]) * np.linalg.norm(e[n]))
    while cols and sum(weights[len(cols) - 1 :]) <= worst:
        cols.pop()
    return np.array(cols).T


def ref_effect_map_of(s: Supermap, tol: float = EQ_TOL) -> EffectMap:
    """Canonical Kraus form of the effect map of a deterministic supermap."""
    _certified(s, tol)
    return EffectMap(ref_factors(s).T.reshape(-1, s.h_in, s.k_in), tol)


def ref_isometries(s: Supermap, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(V, W) of ``realize``'s circuit from ``ref_factors``, W by the projection solve
    W[(n, i), (m, j)] = <(<h_m| ⊗ N_j†), (<k_n| ⊗ I) S_i> / ||N_j||², one entry at a time."""
    _certified(s, tol)
    nn = ref_factors(s).T.reshape(-1, s.h_in, s.k_in)
    ss = s.kraus.reshape(-1, s.k_out, s.k_in, s.h_out, s.h_in)
    w = np.zeros((s.k_out, len(ss), s.h_out, len(nn)), dtype=complex)
    for n, i, m, j in np.ndindex(w.shape):
        w[n, i, m, j] = np.sum(nn[j].T * ss[i, n, :, m, :]) / np.vdot(nn[j], nn[j]).real
    return nn.conj().reshape(-1, s.k_in), w.reshape(s.k_out * len(ss), -1)


def ref_kraus_to_choi(k: KrausSet) -> QuantumOperation:
    """Choi operator of a Kraus set: sum_j vec(E_j) vec(E_j)†."""
    return QuantumOperation(k.dim_in, k.dim_out, _kraus_choi(k.operators))


# ---------------------------------------------------------------- fixtures


def outcome(call):
    """call()'s result, or the type and message of what it raised."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def kraus_fixture(dim_in: int, dim_out: int, r: int, kind: str, seed: int, scale: float):
    """r operators dim_out x dim_in of the given kind; the random kind's largest
    eigenvalue of sum E†E is ``scale``², far from the bound for the scales drawn."""
    rng = np.random.default_rng(seed)
    if kind == "empty":
        return np.zeros((0, dim_out, dim_in), dtype=complex)
    if kind == "random":
        shape = (r, dim_out, dim_in)
        ops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        column = ops.reshape(-1, dim_in)
        return ops * scale / np.sqrt(np.linalg.eigvalsh(column.conj().T @ column)[-1])
    if kind == "rank-deficient":
        # E_j = |u_j><w|, one operator twice: sum E†E = |w><w|, and r + 1 operators of rank 1.
        u = random_isometry(r * dim_out, 1, rng).reshape(r, dim_out, 1)
        w = random_isometry(dim_in, 1, rng).conj().T
        ops = u @ w
        return np.concatenate([ops[:1] / np.sqrt(2), ops[:1] / np.sqrt(2), ops[1:]])
    # A channel scaled so that sum E†E = c² I exceeds I by t max(1, ||stack||²), with
    # t = POS_TOL (1 ± 1e-3) and ||stack||² = c² n0: c² = 1 + t when c² n0 <= 1,
    # else 1 / (1 - t n0).
    r = max(r, -(-dim_in // dim_out))  # enough operators for a channel
    ops = random_isometry(dim_out * r, dim_in, rng).reshape(dim_out, r, dim_in).transpose(1, 0, 2)
    n0 = np.linalg.norm(ops.reshape(r, -1), 2) ** 2
    t = POS_TOL * (1 - 1e-3 if kind == "excess below the bound" else 1 + 1e-3)
    return ops * np.sqrt(max(1 + t, 1 / (1 - t * n0)))


# ---------------------------------------------------------------- properties


@given(dims=dims_st, r=st.integers(1, 4), kind=st.sampled_from(KINDS), seed=seed_st,
       tol=st.sampled_from((1e-8, 1e-6)), order=st.sampled_from(ORDERS),
       kraus_r=st.integers(0, 4))
def test_results_keep_their_bits(dims, r, kind, seed, tol, order, kraus_r):
    # Two supermaps on the same spaces: a cache keyed on anything but the
    # certificate would hand the second the first one's factors.
    for s in (fixture(dims, r, kind, seed), fixture(dims, r, "circuit", seed + 1)):
        twin = Supermap(s.h_in, s.h_out, s.k_in, s.k_out, s.kraus)
        expected_map = outcome(lambda: ref_effect_map_of(twin, tol))
        expected_circuit = outcome(lambda: realize(Supermap(s.h_in, s.h_out, s.k_in, s.k_out, s.kraus), tol))
        calls = [lambda: effect_map_of(s, tol), lambda: realize(s, tol)]
        if order == "realize first":
            calls.reverse()
        got = [outcome(call) for call in calls]
        got_map, got_circuit = got if order == "effect map first" else got[::-1]
        if isinstance(expected_map, tuple):
            assert got_map == expected_map
        else:
            assert got_map.kraus.tobytes() == expected_map.kraus.tobytes()
            assert got_map.kraus.shape == expected_map.kraus.shape
        if isinstance(expected_circuit, tuple):
            assert got_circuit == expected_circuit
        else:
            assert got_circuit.v.tobytes() == expected_circuit.v.tobytes()
            assert got_circuit.w.tobytes() == expected_circuit.w.tobytes()
            assert (got_circuit.dim_a, got_circuit.dim_b) == (
                expected_circuit.dim_a, expected_circuit.dim_b)
            ref_v, ref_w = ref_isometries(twin, tol)
            assert got_circuit.v.tobytes() == ref_v.tobytes()
            assert np.max(np.abs(got_circuit.w - ref_w)) <= 1e-12 * max(1.0, np.max(np.abs(ref_w)))
        cert = determinism_certificate(s)
        if not cert.verdict(tol):
            assert "_basis" not in vars(cert) or not cert.tp_residual <= tol
            assert "factors" not in vars(cert)  # a failing supermap is never factored
            continue
        factors = cert.factors
        assert factors is cert.factors and not factors.flags.writeable
        assert factors.tobytes() == ref_factors(s).tobytes()
        if isinstance(got_map, tuple):
            continue
        # The effect map holds its own copy: writing to it leaves the certificate as it was.
        kept = factors.tobytes()
        assert not got_map.kraus.flags.writeable
        assert not np.shares_memory(got_map.kraus, factors)
        got_map.kraus.setflags(write=True)
        got_map.kraus[...] = 7.0
        assert cert.factors.tobytes() == kept
        assert effect_map_of(s, tol).kraus.tobytes() == expected_map.kraus.tobytes()

    h_in, h_out = dims[:2]
    ops = kraus_fixture(h_in, h_out, kraus_r, "random" if kraus_r else "empty", seed, 0.9)
    k = KrausSet(h_in, h_out, ops)
    got, expected = kraus_to_choi(k), ref_kraus_to_choi(k)
    assert (got.dim_in, got.dim_out) == (expected.dim_in, expected.dim_out)
    assert got.choi.tobytes() == expected.choi.tobytes() and got.choi.shape == expected.choi.shape
    assert got.choi.dtype == complex and not got.choi.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        got.choi[0, 0] = 1.0


@given(dims=st.tuples(st.integers(1, 4), st.integers(1, 4)), r=st.integers(1, 4),
       kind=st.sampled_from(KRAUS_KINDS), seed=seed_st,
       scale=st.sampled_from((0.5, 0.9, 1.0, 1.5)))
def test_kraus_set_verdict_implies_the_choi_verdicts(dims, r, kind, seed, scale):
    dim_in, dim_out = dims
    ops = kraus_fixture(dim_in, dim_out, r, kind, seed, scale)
    # The Choi operator the sum of outer products gives, whether or not KrausSet admits it.
    choi = _kraus_choi(ops)
    res = choi_residuals(choi, dim_in, dim_out)
    try:
        k = KrausSet(dim_in, dim_out, ops)
    except ValueError as exc:
        # Rejected before kraus_to_choi can be reached; the Choi checks reject it too.
        assert str(exc).startswith("Kraus bound violated")
        assert kind in ("random", "excess above the bound") and not res["trace_non_increasing"]
        return
    assert kind != "excess above the bound"
    assert res["hermitian"] and res["cp"] and res["trace_non_increasing"]
    assert kraus_to_choi(k).choi.tobytes() == choi.tobytes()


# ---------------------------------------------------------------- counting


def count_calls(monkeypatch, name: str) -> list:
    """Records every call of the linalg or operations function ``name``, in each
    package module that imported it."""
    owner = linalg if hasattr(linalg, name) else sys.modules["supermaps.operations"]
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "supermaps" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


class TestEachEigendecompositionOnce:
    """One factorization of N per supermap, one spectrum per Kraus set."""

    @pytest.mark.parametrize("order", ORDERS)
    def test_effect_map_and_realize_factor_once(self, monkeypatch, rng, order):
        s = circuit_supermap(rng, (2, 3, 2, 2))
        calls = count_calls(monkeypatch, "psd_factors")  # an SVD or psd_factors, either counts
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append("svd") or svd(*a, **kw))
        steps = [effect_map_of, realize]
        for step in steps if order == "effect map first" else steps[::-1]:
            step(s)
        assert len(calls) == 1
        effect_map_of(s)
        realize(s)
        assert len(calls) == 1

    def test_kraus_to_choi_measures_one_spectrum(self, monkeypatch):
        ops = kraus_fixture(3, 2, 3, "random", 5, 0.9)
        residual_calls = count_calls(monkeypatch, "choi_residuals")
        spectrum_calls = count_calls(monkeypatch, "hermitian_spectrum")
        kraus_to_choi(KrausSet(3, 2, ops))
        assert (len(residual_calls), len(spectrum_calls)) == (0, 1)  # KrausSet's

    def test_cli_kraus2choi_runs_one_eigvalsh(self, monkeypatch, tmp_path):
        path = tmp_path / "kraus.json"
        sio.save_json(path, sio.kraus_set_to_json(4, 4, kraus_fixture(4, 4, 2, "random", 3, 0.9)))
        original = np.linalg.eigvalsh
        calls = []

        def counted(m, *args, **kwargs):
            calls.append(m.shape)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert main(["kraus2choi", str(path)]) == 0
        assert calls == [(4, 4)]  # KrausSet's bound on sum E†E
