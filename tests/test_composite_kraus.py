"""Composite Kraus sets built by one contraction, against the former kron loops.

``ref_interleave``/``ref_tensor_supermaps`` and
``ref_kraus_from_circuit``/``ref_circuit_to_supermap`` are verbatim copies of
the implementations that built each Kraus operator through ``kron`` and a
Python loop.  The library now builds ``tensor_supermaps`` as one outer
product of the stacked Kraus tensors and ``circuit_to_supermap`` as one
contraction of W with V (plus one per projector's range vectors); the
property tests check that both give the same Kraus operators.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from supermaps.linalg import dag, kron, random_isometry
from supermaps.realization import CircuitRealization, circuit_to_supermap
from supermaps.supermap import Supermap, tensor_supermaps

TOL = 1e-14
DIMS = st.tuples(*(st.integers(1, 4) for _ in range(4)))
ANCILLA = st.integers(1, 3)
SEED = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------- reference loops


def ref_interleave(op: np.ndarray, row_dims, col_dims) -> np.ndarray:
    """Reorder a Kraus operator of a product supermap to canonical space order.

    Rows come in as (k_out_a, k_in_a, k_out_b, k_in_b) and leave as
    (k_out_a, k_out_b, k_in_a, k_in_b); columns likewise for the H spaces.
    """
    t = op.reshape(*row_dims, *col_dims)
    t = t.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return t.reshape(int(np.prod(row_dims)), int(np.prod(col_dims)))


def ref_tensor_supermaps(a: Supermap, b: Supermap) -> Supermap:
    """Parallel composition acting on tensor products of operations."""
    row_dims = (a.k_out, a.k_in, b.k_out, b.k_in)
    col_dims = (a.h_out, a.h_in, b.h_out, b.h_in)
    ops = tuple(
        ref_interleave(kron(sa, sb), row_dims, col_dims)
        for sa in a.kraus
        for sb in b.kraus
    )
    return Supermap(
        a.h_in * b.h_in, a.h_out * b.h_out, a.k_in * b.k_in, a.k_out * b.k_out, ops
    )


def ref_kraus_from_circuit(c: CircuitRealization) -> list[np.ndarray]:
    """Reconstruct Kraus operators S_i = (I ⊗ <a_i| ⊗ I)(W ⊗ I)(I ⊗ Z)."""
    k_in, h_in = c.k_in, c.h_in
    h_out, k_out = c.h_out, c.k_out
    # Z is the partial transpose of V on the second factor: a map from H_in
    # into (B, K_in).
    z = c.v.reshape(c.dim_b, h_in, k_in).transpose(0, 2, 1).reshape(c.dim_b * k_in, h_in)
    full = kron(c.w, np.eye(k_in)) @ kron(np.eye(h_out), z)
    blocks = full.reshape(k_out, c.dim_a, k_in, h_out * h_in)
    return [
        blocks[:, i, :, :].reshape(k_out * k_in, h_out * h_in)
        for i in range(c.dim_a)
    ]


def ref_circuit_to_supermap(c: CircuitRealization, dims: tuple[int, int, int, int]):
    """Evaluate a circuit back into Kraus form."""
    h_in, h_out, k_in, k_out = dims
    if (c.h_in, c.h_out, c.k_in, c.k_out) != (h_in, h_out, k_in, k_out):
        raise ValueError(
            f"circuit spaces {(c.h_in, c.h_out, c.k_in, c.k_out)} do not match dims {dims}"
        )
    kraus = ref_kraus_from_circuit(c)
    if c.projectors is None:
        return Supermap(h_in, h_out, k_in, k_out, tuple(kraus))
    maps = []
    for p in c.projectors:
        w, vecs = np.linalg.eigh((p + dag(p)) / 2.0)
        cols = [vecs[:, j] for j in range(w.size) if w[j] > 0.5]
        if cols:
            ops = tuple(
                sum(u[i].conjugate() * kraus[i] for i in range(c.dim_a)) for u in cols
            )
        else:
            ops = (np.zeros_like(kraus[0]),)
        maps.append(Supermap(h_in, h_out, k_in, k_out, ops))
    return maps


# ---------------------------------------------------------------- helpers


def random_supermap(rng, dims, n_kraus) -> Supermap:
    """Supermap with Gaussian Kraus operators: only their shape matters here."""
    h_in, h_out, k_in, k_out = dims
    shape = (n_kraus, k_out * k_in, h_out * h_in)
    ops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Supermap(h_in, h_out, k_in, k_out, tuple(ops))


def assert_same_kraus(got: Supermap, expected: Supermap):
    assert (got.h_in, got.h_out, got.k_in, got.k_out) == (
        expected.h_in, expected.h_out, expected.k_in, expected.k_out
    )
    assert len(got.kraus) == len(expected.kraus)
    for g, e in zip(got.kraus, expected.kraus):
        np.testing.assert_allclose(g, e, rtol=0, atol=TOL)


# ---------------------------------------------------------------- properties


@given(dims_a=DIMS, dims_b=DIMS, n_a=ANCILLA, n_b=ANCILLA, seed=SEED)
def test_tensor_supermaps_matches_kron_loop(dims_a, dims_b, n_a, n_b, seed):
    rng = np.random.default_rng(seed)
    a = random_supermap(rng, dims_a, n_a)
    b = random_supermap(rng, dims_b, n_b)
    got = tensor_supermaps(a, b)
    expected = ref_tensor_supermaps(a, b)
    assert_same_kraus(got, expected)


@given(
    dims=DIMS,
    dim_a=ANCILLA,
    dim_b=ANCILLA,
    projectors=st.sampled_from(["none", "diagonal", "rotated"]),
    seed=SEED,
    data=st.data(),
)
def test_circuit_to_supermap_matches_kron_construction(dims, dim_a, dim_b, projectors, seed, data):
    h_in, h_out, k_in, k_out = dims
    assume(dim_b * h_in >= k_in and k_out * dim_a >= h_out * dim_b)
    rng = np.random.default_rng(seed)
    v = random_isometry(dim_b * h_in, k_in, rng)
    w = random_isometry(k_out * dim_a, h_out * dim_b, rng)
    projs = None
    if projectors != "none":
        # Ancilla basis index i goes to projector labels[i]; skipped labels
        # give zero projectors.
        labels = data.draw(st.lists(st.integers(0, dim_a - 1), min_size=dim_a, max_size=dim_a))
        u = random_isometry(dim_a, dim_a, rng) if projectors == "rotated" else np.eye(dim_a)
        projs = tuple(
            u @ np.diag([1.0 if x == g else 0.0 for x in labels]) @ dag(u)
            for g in range(max(labels) + 1)
        )
    c = CircuitRealization(v=v, w=w, dim_a=dim_a, dim_b=dim_b, projectors=projs)
    got = circuit_to_supermap(c, dims)
    expected = ref_circuit_to_supermap(c, dims)
    if projs is None:
        assert_same_kraus(got, expected)
    else:
        assert len(got) == len(expected) == len(projs)
        for g, e in zip(got, expected):
            assert_same_kraus(g, e)
