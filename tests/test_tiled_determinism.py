"""The chunked determinism tests against their per-matrix-unit references.

The effect-wise test walks its upper block triangle in tiles of at most
``supermap._CHUNK`` entries.  The certificate walks the column blocks n
of its singular basis, forming E_n and every B_m†B_n and B_m†E_n, in runs
of at most that many entries (``_singular_gaps``).  The default budget makes every small supermap a
single chunk, so here the budget is cut down to one entry, one block, one
and a half blocks, two blocks and one block row of either test, and kept at
the default.  The chunks then cut the rows and columns at every block
boundary, and the effect-wise verdicts must still match the references of
``test_closed_forms``, and the certificate the bounds and verdicts of
``check_certificate``.  Supermaps whose Kraus entries overflow the squares
the tests take must be rejected at every budget.  The last test holds both
tests to a fixed memory budget at local dimension 16.
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
    _effectwise_tiles,
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
    ref_effectwise,
    seed_st,
    spread,
)


def budgets(s):
    """Budgets that cut each test's chunks at every block boundary, and more coarsely.

    Both tests have h_out blocks.  The effect-wise tiles are e x e,
    e = h_in·k_in, h_out to a block row.  A column block n of the
    certificate holds E_n, r·k_out x e, and B_m†B_n and B_m†E_n for every m,
    h_out·ρ x (ρ + e), ρ the number of singular values the certificate keeps.
    """
    e = s.h_in * s.k_in
    rho = determinism_certificate(Supermap(s.h_in, s.h_out, s.k_in, s.k_out, s.kraus)).factors.shape[1]
    column = (len(s.kraus) * s.k_out + s.h_out * rho) * (rho + e)
    out = {1, supermap._CHUNK}
    for block, rows in ((e * e, 1), (column, s.h_out), (e * e, s.h_out)):
        out |= {block, 3 * block // 2, 2 * block, rows * block, rows * rows * block}
    return sorted(out)


def check_against_references(s):
    """Verdicts at two tolerances and the certificate of a fresh copy of s, against the references."""
    fresh = Supermap(s.h_in, s.h_out, s.k_in, s.k_out, s.kraus)
    check_certificate(s, determinism_certificate(fresh))
    for tol in (1e-8, 1e-6):
        assert is_deterministic_effectwise(fresh, tol) == ref_effectwise(s, tol)


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


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
@pytest.mark.parametrize("side", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1, 4, 9, 13, 27, 36, 1 << 16])
def test_tiles_cover_the_upper_triangle_once_within_budget(monkeypatch, rows, side, chunk):
    monkeypatch.setattr(supermap, "_CHUNK", chunk)
    block = side * side
    covered = []
    for r0, r1, c0, c1 in _effectwise_tiles(rows, side):
        size = (r1 - r0) * (c1 - c0) * block
        assert size <= chunk or (r1 - r0, c1 - c0) == (1, 1)
        covered += [(r, c) for r in range(r0, r1) for c in range(c0, c1)]
    upper = [(r, c) for r, c in covered if c >= r]
    assert sorted(upper) == [(r, c) for r in range(rows) for c in range(r, rows)]
    # Only a tile holding the whole block square reaches below the diagonal.
    assert len(covered) == len(upper) or len(covered) == rows * rows


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
    effect-wise test at 31 MB.
    """
    rng = np.random.default_rng(16)
    v, w = random_isometry(48, 16, rng), random_isometry(48, 48, rng)
    s = circuit_to_supermap(CircuitRealization(v=v, w=w, dim_a=3, dim_b=3), (16,) * 4)
    assert len(s.kraus) == 3
    cert, cert_peak = traced_peak(certificate_with_gaps, s)
    effectwise, effectwise_peak = traced_peak(is_deterministic_effectwise, s)
    assert cert_peak <= 12e6 and effectwise_peak <= 12e6, (cert_peak, effectwise_peak)
    # s is deterministic, so both tests ran over their whole triangle.
    assert cert.verdict() and effectwise
