"""Frobenius gaps from triangular factors, against the code and loops they replaced.

``_factor_gaps`` returns ||R_i·J·R_j†||_F², for j >= i, of a stack of
factors, checked against a loop over pairs at budgets down to one entry,
each product within max(budget, p²) entries.
``action_distance`` feeds it the triangular factors R_i of [A_i, B_i] with
J = diag(I, −I), where the Q path (``ref_action_distance`` of
``test_kraus_array``) formed Q_i†A_i and Q_i†B_i; the two must agree within
1e-12·max(1, ref) for Kraus counts r_a ≠ r_b, including counts whose sum
exceeds k_out·k_in, where R_i is wide, and give exactly 0 on identical Kraus
arrays.  The certificate shares the budget, not the helper: its
``product_residual`` must keep the tolerance policy's bounds against the
reference loops of ``test_closed_forms`` at the default budget and at one
entry, where ``_singular_gaps`` takes one column block at a time.  Damage
runs log-uniform over [1e-12, 1].  ``_gram``, the effect-wise test's w†w
from one real product, must match the complex product and be Hermitian to
the bit.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supermaps import supermap
from supermaps.linalg import random_isometry
from supermaps.supermap import (
    Supermap,
    _factor_gaps,
    _gram,
    action_distance,
    determinism_certificate,
)

from test_closed_forms import check_certificate, circuit_supermap, dims_st, seed_st
from test_kraus_array import ref_action_distance, tuple_form

log_damage_st = st.floats(-12.0, 0.0)
budget_st = st.sampled_from((1, 64, supermap._CHUNK))


def close(got: float, expected: float) -> bool:
    return abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def mixed(ops: np.ndarray, r: int, rng) -> np.ndarray:
    """r Kraus operators with the action of ops (r >= len(ops)), mixed by a random isometry."""
    u = random_isometry(r, len(ops), rng)
    return np.einsum("ji,ixy->jxy", u, ops)


@given(
    dims=dims_st,
    r=st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda r: r[0] != r[1]),
    seed=seed_st,
    log_damage=log_damage_st,
    budget=budget_st,
)
def test_action_distance_matches_the_q_path(dims, r, seed, log_damage, budget):
    rng = np.random.default_rng(seed)
    h_in, h_out, k_in, k_out = dims
    shape = (min(r), k_out * k_in, h_out * h_in)
    base = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 4
    noise = rng.standard_normal((r[1], *shape[1:])) + 1j * rng.standard_normal((r[1], *shape[1:]))
    a = Supermap(*dims, mixed(base, r[0], rng))
    b = Supermap(*dims, mixed(base, r[1], rng) + 10.0**log_damage * noise)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(supermap, "_CHUNK", budget)
        for x, y in ((a, b), (b, a)):
            assert close(action_distance(x, y), ref_action_distance(tuple_form(x), tuple_form(y)))
        assert action_distance(a, Supermap(*dims, a.kraus)) == 0.0


@given(
    dims=dims_st,
    seed=seed_st,
    kind=st.sampled_from(("scaled", "noise")),
    log_damage=log_damage_st,
    budget=budget_st,
)
def test_product_residual_matches_the_per_block_loop(dims, seed, kind, log_damage, budget):
    rng = np.random.default_rng(seed)
    ops = circuit_supermap(rng, dims).kraus
    damage = 10.0**log_damage
    if kind == "scaled":
        ops = (1 + damage) * ops
    else:
        ops = ops + damage * (rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape))
    s = Supermap(*dims, ops)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(supermap, "_CHUNK", budget)
        cert = determinism_certificate(s)
        assert cert.product_residual >= 0.0
    check_certificate(s, cert)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("p, q", [(1, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("budget", [1, 4, 9, 13, 27, 36, 1 << 16])
def test_factor_gaps_match_a_loop_over_pairs(monkeypatch, n, p, q, budget):
    """Budgets from one entry up cut the rows of pairs at every block boundary, and
    below one block row the columns too: no product exceeds max(budget, p²) entries."""
    monkeypatch.setattr(supermap, "_CHUNK", budget)
    sizes, matmul = [], np.matmul

    def recording(a, b, out):
        sizes.append(out.size)
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", recording)
    rng = np.random.default_rng(n * 100 + p * 10 + q)
    r = rng.standard_normal((n, p, q)) + 1j * rng.standard_normal((n, p, q))
    sign = rng.choice([-1.0, 1.0], q)
    for kwargs in ({}, {"sign": sign}):
        j_ = np.diag(kwargs.get("sign", np.ones(q)))
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                expected[i, j] = np.linalg.norm(r[i] @ j_ @ r[j].conj().T) ** 2
        got = _factor_gaps(r, **kwargs)
        assert np.allclose(np.triu(got), expected, rtol=1e-13, atol=1e-13)
        # Below the diagonal an entry holds its own gap, that of its transpose, or 0.
        lower = np.tril(got, -1)
        assert np.all((lower == 0) | np.isclose(lower, expected.T, rtol=1e-13, atol=1e-13))
    assert max(sizes) <= max(budget, p * p)


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (3, 7), (40, 16)])
def test_gram_matches_the_complex_product(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g = _gram(w)
    assert np.allclose(g, w.conj().T @ w, rtol=1e-13, atol=1e-13)
    assert np.array_equal(g, g.conj().T)  # Hermitian to the bit: vᵀv is symmetric
