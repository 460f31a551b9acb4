"""The chunked determinism tests against their per-matrix-unit references.

The effect-wise test forms its diagonal blocks in runs of at most
``supermap._CHUNK`` entries.  Its off-diagonal blocks go through one matmul
over the whole block square where that square fills at most a quarter of
the budget.  Above it they go through the triangular factors of one batched
QR where those are at most half as wide as the blocks, and otherwise
through the blocks themselves, both in the runs of ``_factor_gaps``: of
rows, or, where one block row exceeds the budget, of columns.  The
certificate walks the column blocks n of its singular basis, forming E_n
and every B_m†B_n and B_m†E_n, in runs of at most that many entries
(``_singular_gaps``).  The default budget makes every small supermap a
single run, so here the budget is cut down to one entry, one block, one and
a half blocks, two blocks and one block row of either test, and kept at the
default and at the smallest budget that still takes the single matmul.  The
runs then cut the rows and columns at every block boundary.  At each budget
the effect-wise test also runs with ``np.linalg.qr`` replaced by the
identity, which sends the off-diagonal blocks of a QR budget through the
blocks themselves, so every budget that takes the QR path runs the direct
path too.  The effect-wise verdicts must match the references of
``test_closed_forms`` outside the band its tolerance policy states, and the
certificate the bounds and verdicts of ``check_certificate``.  Supermaps
whose Kraus entries overflow the squares the tests take must be rejected at
every budget.  The last tests hold both tests to a fixed memory budget at
local dimension 16, and the effect-wise test also where it takes no QR.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supermaps import supermap
from supermaps.linalg import random_isometry
from supermaps.realization import CircuitRealization, circuit_to_supermap, realize
from supermaps.supermap import (
    NotDeterministicError,
    Supermap,
    determinism_certificate,
    effect_map_of,
    is_deterministic,
    is_deterministic_effectwise,
)

from test_closed_forms import (
    DAMAGE,
    certificate_block_defect,
    check_certificate,
    damaged_supermap,
    dims_st,
    effectwise_block_defect,
    effectwise_damaged,
    effectwise_outside_band,
    ref_effectwise,
    seed_st,
    spread,
)


def budgets(s):
    """Budgets that cut each test's chunks at every block boundary, and more coarsely.

    Both tests have h_out blocks.  The effect-wise test's diagonal blocks
    are e x e, e = h_in·k_in, and its off-diagonal ones are measured in
    runs of h_out blocks, each e x e or, through the QR, (r·k_out)²; it
    takes one matmul over its block square from 4·(h_out·e)² entries on.
    A column block n of the certificate holds E_n, r·k_out x e, and
    B_m†B_n and B_m†E_n for every m, h_out·ρ x (ρ + e), ρ the number of
    singular values the certificate keeps.
    """
    e, r = s.h_in * s.k_in, len(s.kraus) * s.k_out
    rho = determinism_certificate(Supermap(s.h_in, s.h_out, s.k_in, s.k_out, s.kraus)).factors.shape[1]
    column = (r + s.h_out * rho) * (rho + e)
    out = {1, supermap._CHUNK, 4 * (s.h_out * e) ** 2}
    for block, rows in ((e * e, 1), (column, s.h_out), (e * e, s.h_out), (r * r, s.h_out)):
        out |= {block, 3 * block // 2, 2 * block, rows * block, rows * rows * block}
    return sorted(out)


def check_against_references(s):
    """Verdicts at two tolerances and the certificate of a fresh copy of s, against the
    references, with the effect-wise test on the budget's path and on the direct one."""
    fresh = Supermap(s.h_in, s.h_out, s.k_in, s.k_out, s.kraus)
    check_certificate(s, determinism_certificate(fresh))
    for tol in (1e-8, 1e-6):
        expected = ref_effectwise(s, tol)
        verdicts = [is_deterministic_effectwise(fresh, tol)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "qr", lambda x, mode: x)
            verdicts.append(is_deterministic_effectwise(fresh, tol))
        for verdict in verdicts:
            assert verdict == expected or (not verdict and not effectwise_outside_band(s, tol))


@given(dims=dims_st, seed=seed_st, damage=st.sampled_from(DAMAGE))
def test_every_budget_matches_the_references(dims, seed, damage):
    s = damaged_supermap(dims, seed, damage)
    for chunk in budgets(s):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(supermap, "_CHUNK", chunk)
            check_against_references(s)


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize(
    "defect", [certificate_block_defect, effectwise_block_defect], ids=["certificate", "effectwise"]
)
def test_off_diagonal_defects_fail_at_every_budget(monkeypatch, defect, h):
    s = spread(defect(), h)
    for chunk in budgets(s):
        monkeypatch.setattr(supermap, "_CHUNK", chunk)
        check_against_references(s)
        fresh = Supermap(s.h_in, s.h_out, s.k_in, s.k_out, s.kraus)
        assert not is_deterministic(fresh)
        assert not is_deterministic_effectwise(fresh)


@given(
    dims=dims_st,
    seed=seed_st,
    damage=st.sampled_from(DAMAGE),
    scale=st.sampled_from((1e150, 1e160, 1e300)),
)
def test_overflowing_kraus_sets_are_rejected_at_every_budget(dims, seed, damage, scale):
    """Kraus entries near 1e150 or above overflow the squares both tests take.

    The residuals then come out inf or NaN, and every comparison must reject
    them: both tests return False, and neither the effect map nor a circuit
    is built.
    """
    s = damaged_supermap(dims, seed, damage)
    ops = tuple(scale * k for k in s.kraus)
    for chunk in budgets(s):
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
            mp.setattr(supermap, "_CHUNK", chunk)
            fresh = Supermap(*dims, ops)
            assert is_deterministic(fresh) is False
            assert is_deterministic_effectwise(fresh) is False
            with pytest.raises(NotDeterministicError):
                effect_map_of(fresh)
            with pytest.raises(NotDeterministicError):
                realize(fresh)


QR_DIMS = [(4, 4, 4, 1), (4, 2, 4, 1), (4, 3, 4, 1)]


@pytest.mark.parametrize("chunk", [1, 4, 9, 13, 27, 36, 1 << 16])
@pytest.mark.parametrize("dims", QR_DIMS + [(3, 2, 2, 2), (2, 4, 1, 3), (3, 3, 3, 3)])
@pytest.mark.parametrize("damage", [0.0, 1e-7], ids=["intact", "off-diagonal1e-7"])
def test_both_block_routes_match_the_references(monkeypatch, chunk, dims, damage):
    """Fixed shapes, the first three with triangular factors at most half as wide as their
    blocks, so that every budget below 4·(h_out·e)² takes the QR, the others not; an
    off-diagonal defect of 1e-7 lies between the two tolerances the verdicts are taken at."""
    s = effectwise_damaged(dims, 0, "off-diagonal" if damage else "scaled", damage)
    monkeypatch.setattr(supermap, "_CHUNK", chunk)
    assert (2 * len(s.kraus) * s.k_out <= s.h_in * s.k_in) == (dims in QR_DIMS)
    check_against_references(s)


@given(dims=dims_st, seed=seed_st, damage=st.sampled_from(DAMAGE))
def test_verdicts_are_python_bools(dims, seed, damage):
    s = damaged_supermap(dims, seed, damage)
    for tol in (0.0, 1e-12, 1e-8):
        assert type(is_deterministic(s, tol)) is bool
        assert type(is_deterministic_effectwise(s, tol)) is bool


def traced_peak(test, s):
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        result = test(s)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def certificate_with_gaps(s):
    """The certificate with both stages run: its SVD and gaps are computed on first read."""
    cert = determinism_certificate(s)
    assert cert.product_residual >= 0.0
    return cert


def test_fixed_memory_budget_at_d16():
    """At (16,16,16,16) with 3 Kraus operators (3 MB stacked), each test peaks below 12 MB.

    Untiled, one row of the certificate peaked at 23 MB and one of the
    effect-wise test at 31 MB.  The effect-wise test forms its diagonal
    blocks in runs: all 16 at once would take 16 MB.  Here its triangular
    factors are at most half as wide as its blocks, so it takes the QR.
    """
    rng = np.random.default_rng(16)
    v, w = random_isometry(48, 16, rng), random_isometry(48, 48, rng)
    s = circuit_to_supermap(CircuitRealization(v=v, w=w, dim_a=3, dim_b=3), (16,) * 4)
    assert len(s.kraus) == 3
    cert, cert_peak = traced_peak(certificate_with_gaps, s)
    effectwise, effectwise_peak = traced_peak(is_deterministic_effectwise, s)
    assert cert_peak <= 12e6 and effectwise_peak <= 12e6, (cert_peak, effectwise_peak)
    # s is deterministic, so both tests measured every block.
    assert cert.verdict() and effectwise


def test_effectwise_memory_budget_without_the_qr_at_d16():
    """At (16,16,16,3) with 43 Kraus operators (8.5 MB stacked) the effect-wise test peaks below 12 MB.

    There 2·r·k_out = 258 exceeds e = 256, so the off-diagonal blocks are
    measured through themselves, and one block row of them would take
    16 MB: ``_factor_gaps`` cuts it into runs of columns.  One copy of the
    Kraus array in the test's layout is the bulk of the peak.
    """
    rng = np.random.default_rng(16)
    v, w = random_isometry(128, 16, rng), random_isometry(129, 128, rng)
    s = circuit_to_supermap(CircuitRealization(v=v, w=w, dim_a=43, dim_b=8), (16, 16, 16, 3))
    assert len(s.kraus) == 43 and 2 * 43 * 3 > 16 * 16
    effectwise, effectwise_peak = traced_peak(is_deterministic_effectwise, s)
    assert effectwise_peak <= 12e6, effectwise_peak
    assert effectwise
