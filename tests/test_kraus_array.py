"""Kraus sets held as one read-only array, against the tuple form they replaced.

``Supermap.kraus``, ``KrausSet.operators`` and ``EffectMap.kraus`` are each
one read-only complex array of shape (r, rows, cols).  The ``ref_*``
functions below are verbatim copies of the code that held a Kraus set as a
tuple of 2-D arrays and stacked it back where it needed an array; only the
names of the functions they call are changed to the copies'.  They run on
``tuple_form(s)``, which holds the Kraus operators of ``s`` as such a tuple.
The properties check that the array form gives the same bits:
``tensor_supermaps``, ``sum_supermaps`` and ``circuit_to_supermap``.
``ref_is_deterministic_effectwise`` is not a copy: the effect-wise test now
measures each off-diagonal (m, n) block of output effects as a whole, so it
is an independent loop over those blocks that uses none of the library's
helpers, and the verdicts must be equal.  ``ref_action_distance`` is the Q-path distance,
which formed Q_i†A_i and Q_i†B_i from a batched QR; ``action_distance`` now
reads the triangular factors alone, so it must agree within
1e-12·max(1, ref), not in bits, and give exactly 0 on identical Kraus
arrays.  ``ref_certificate`` is the tiled certificate that built ``choi_n``
from the traces of its (a, b) tiles on K_in, with ``ref_certificate_tiles``
the deleted tile generator; the certificate now reads everything from the
singular basis of one Kraus block, so it is held to the tolerance policy's
bounds against the reference loops (``check_certificate``), and its
verdict to the tiled one's outside the band those bounds leave.
``ref_isometries`` is the projection solve that built W from
``psd_factors(choi_n)``; on the fixtures here, exact or uniformly scaled,
the two agree on the verdict, the effect map's Choi operator within 1e-12,
and the rebuilt supermap within an ``action_distance`` of 1e-12.  V and W
may rotate where ``choi_n`` is degenerate (every h_in = 1 shape, where it is
I), so they are held to what the rotation leaves unchanged.  The
remaining tests pin the validator's contract: private read-only copies, the
shape message, and generator and empty input.
"""

import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supermaps.linalg import (
    EQ_TOL,
    dag,
    frob,
    isometry_residual,
    psd_factors,
    random_isometry,
    readonly_copy,
)
from supermaps.operations import KrausSet, kraus_to_choi
from supermaps.realization import CircuitRealization, _isometries, circuit_to_supermap, realize
from supermaps.supermap import (
    _CHUNK,
    EffectMap,
    NotDeterministicError,
    Supermap,
    action_distance,
    effect_map_of,
    is_deterministic_effectwise,
    sum_supermaps,
    tensor_supermaps,
)

from test_closed_forms import check_certificate, circuit_supermap, dims_st, seed_st

KINDS = ("circuit", "x0.9", "x(1+3.5e-7)", "random", "zero")


# ---------------------------------------------------------------- tuple-form copies


def ref_certificate_tiles(k_in: int, d: int):
    if (k_in * d) ** 2 <= _CHUNK:
        yield 0, k_in, 0, k_in
        return
    nb = max(1, _CHUNK // (d * d))
    for a in range(k_in):
        for b in range(a, k_in, nb):
            yield a, a + 1, b, min(b + nb, k_in)


def ref_certificate(s) -> SimpleNamespace:
    h_out, h_in, k_in = s.h_out, s.h_in, s.k_in
    d = h_out * h_in
    t = np.stack(s.kraus).reshape(-1, k_in, d)
    cols = t.reshape(len(t), k_in * d)
    tiles = list(ref_certificate_tiles(k_in, d))
    buf = np.empty(max((a1 - a0) * (b1 - b0) for a0, a1, b0, b1 in tiles) * d * d, dtype=complex)
    cand = np.zeros((k_in, k_in, h_in, h_in), dtype=complex)  # cand[a, b] = cand_ab
    gap = np.zeros((k_in, k_in))  # squared Frobenius gaps
    for a0, a1, b0, b1 in tiles:
        tile = buf[: (a1 - a0) * (b1 - b0) * d * d].reshape((a1 - a0) * d, -1)
        np.matmul(t[:, a0:a1].conj().reshape(len(t), -1).T, cols[:, b0 * d : b1 * d], out=tile)
        # x[a, m, u, b, n, v] = <m, u| X_ab |n, v>; parts is its real view.
        x = tile.reshape(a1 - a0, h_out, h_in, b1 - b0, h_out, h_in)
        c = np.einsum("amubmv->abuv", x) / h_out
        np.einsum("amubmv->amubv", x)[...] -= c.transpose(0, 2, 1, 3)[:, None]
        parts = tile.view(float).reshape(a1 - a0, d, b1 - b0, 2 * d)
        gap[a0:a1, b0:b1] = np.einsum("axby,axby->ab", parts, parts)
        cand[a0:a1, b0:b1] = c
    lower = np.tri(k_in, k=-1, dtype=bool)[:, :, None, None]
    np.copyto(cand, cand.transpose(1, 0, 3, 2).conj(), where=lower)
    parts = cand.view(float).reshape(k_in, k_in, -1)
    scale = np.maximum(1.0, np.sqrt(h_out * np.einsum("abz,abz->ab", parts, parts)))
    choi_n = cand.transpose(2, 0, 3, 1).reshape(h_in * k_in, h_in * k_in)
    # Tr_Hin[choi_n] - I, the marginal on K_in against the identity
    tp = frob(np.einsum("abuu->ab", cand) - np.eye(k_in)) / np.sqrt(k_in)
    return SimpleNamespace(
        product_residual=float(np.max(np.sqrt(gap) / scale)),
        tp_residual=tp,
        choi_n=choi_n,
    )


def ref_is_deterministic_effectwise(s, tol: float = EQ_TOL) -> bool:
    """The effect-wise verdict by a loop over (m, n) blocks of output effects, with
    numpy alone: N(I) = I, every off-diagonal block within tol in Frobenius norm, and
    every unit of a diagonal block within tol·max(1, ||N(|mu><nu|)||) of N(|mu><nu|)."""
    h_out, h_in, k_in = s.h_out, s.h_in, s.k_in
    t = np.stack(s.kraus).reshape(-1, k_in, h_out, h_in)  # t[(i, c), p, m, mu]

    def effects(m, n):  # [mu, nu] -> Tr_Kout S(|m,mu><n,nu|), a k_in x k_in matrix
        return np.einsum("kpu,kqv->uvpq", t[:, :, m], t[:, :, n].conj())

    n_map = sum(effects(m, m) for m in range(h_out)) / h_out
    n_eye = sum(n_map[mu, mu] for mu in range(h_in))
    if not np.linalg.norm(n_eye - np.eye(k_in)) / max(1.0, np.sqrt(k_in)) <= tol:
        return False
    for m in range(h_out):
        for n in range(h_out):
            eff = effects(m, n)
            if m != n and not np.linalg.norm(eff) <= tol:
                return False
            for mu in range(h_in):
                for nu in range(h_in):
                    scale = max(1.0, np.linalg.norm(n_map[mu, nu]))
                    if m == n and not np.linalg.norm(eff[mu, nu] - n_map[mu, nu]) / scale <= tol:
                        return False
    return True


@dataclass(frozen=True, eq=False)
class RefEffectMap:
    kraus: tuple
    tol: float = EQ_TOL

    def __post_init__(self):
        ops = tuple(map(readonly_copy, self.kraus))
        if not ops:
            raise ValueError("effect map needs at least one Kraus operator")
        # sum_l N_l† N_l is the Gram matrix of the N_l stacked as one column.
        residual = isometry_residual(np.vstack(ops))
        if not residual <= self.tol:
            raise ValueError(f"effect map is not identity preserving (residual {residual:.3e})")
        object.__setattr__(self, "kraus", ops)


def ref_certified(s, tol: float) -> SimpleNamespace:
    cert = ref_certificate(s)
    if not (cert.product_residual <= tol and cert.tp_residual <= tol):
        residual = max(cert.product_residual, cert.tp_residual)
        raise NotDeterministicError(f"supermap is not deterministic (residual {residual:.3e})")
    return cert


def ref_effect_map_of(s, tol: float = EQ_TOL) -> RefEffectMap:
    cert = ref_certified(s, tol)
    f = psd_factors(cert.choi_n)
    return RefEffectMap(tuple(f.T.reshape(-1, s.h_in, s.k_in)), tol)


def ref_isometries(s, tol: float) -> tuple[np.ndarray, np.ndarray, int, int]:
    n_ops = ref_effect_map_of(s, tol).kraus
    dim_b = len(n_ops)
    dim_a = len(s.kraus)

    # V stacks the conjugated effect-map Kraus operators along ancilla B.
    nn = np.stack(n_ops)
    v = nn.conj().reshape(dim_b * s.h_in, s.k_in)

    # W_{ni,mj} = <(<h_m| ⊗ N_j†), (<k_n| ⊗ I) S_i> / ||N_j||²  by
    # Hilbert-Schmidt orthogonality of the canonical right-hand set.
    ss = np.stack(s.kraus).reshape(dim_a, s.k_out, s.k_in, s.h_out, s.h_in)
    weights = np.array([np.vdot(n, n).real for n in n_ops])
    w4 = np.einsum("jek,inkme->nimj", nn, ss) / weights
    return v, w4.reshape(s.k_out * dim_a, s.h_out * dim_b), dim_a, dim_b


def ref_tensor_supermaps(a, b) -> Supermap:
    h_in, h_out = a.h_in * b.h_in, a.h_out * b.h_out
    k_in, k_out = a.k_in * b.k_in, a.k_out * b.k_out
    ta = np.stack(a.kraus).reshape(-1, a.k_out, a.k_in, a.h_out, a.h_in)
    tb = np.stack(b.kraus).reshape(-1, b.k_out, b.k_in, b.h_out, b.h_in)
    ops = np.einsum("iabcd,jefgh->ijaebfcgdh", ta, tb).reshape(-1, k_out * k_in, h_out * h_in)
    return Supermap(h_in, h_out, k_in, k_out, tuple(ops))


def ref_sum_supermaps(parts) -> Supermap:
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one supermap")
    dims = (parts[0].h_in, parts[0].h_out, parts[0].k_in, parts[0].k_out)
    ops = []
    for p in parts:
        if (p.h_in, p.h_out, p.k_in, p.k_out) != dims:
            raise ValueError("summed supermaps must share all four space dimensions")
        ops.extend(p.kraus)
    return Supermap(*dims, tuple(ops))


def ref_action_distance(a, b) -> float:
    if (a.h_in, a.h_out, a.k_in, a.k_out) != (b.h_in, b.h_out, b.k_in, b.k_out):
        raise ValueError("supermaps act on different spaces")
    # cols[i] holds column i of every Kraus operator: shape (d, k_out*k_in, r)
    cols_a, cols_b = (np.stack(s.kraus).transpose(2, 1, 0) for s in (a, b))
    d, m = cols_a.shape[:2]
    r = cols_a.shape[2] + cols_b.shape[2]
    alpha, beta = [], []
    step = max(1, _CHUNK // (8 * m * r))
    for i in range(0, d, step):
        blk_a, blk_b = cols_a[i : i + step], cols_b[i : i + step]
        q = np.linalg.qr(np.concatenate([blk_a, blk_b], axis=2))[0]
        qh = q.conj().transpose(0, 2, 1)
        alpha.append(qh @ blk_a)
        beta.append(qh @ blk_b)
    alpha, beta = np.concatenate(alpha), np.concatenate(beta)
    rank = alpha.shape[1]
    # *_h[k, (j, s)] = conj(alpha_j[s, k])
    alpha_h = alpha.conj().transpose(2, 0, 1).reshape(alpha.shape[2], -1)
    beta_h = beta.conj().transpose(2, 0, 1).reshape(beta.shape[2], -1)
    step = min(d, max(1, _CHUNK // (4 * d * rank * rank)))
    buf = np.empty((step, rank, d * rank), dtype=complex)
    worst = 0.0
    for i in range(0, d, step):
        gap = buf[: min(step, d - i)]
        np.matmul(alpha[i : i + step], alpha_h, out=gap)
        gap -= beta[i : i + step] @ beta_h
        parts = gap.view(float).reshape(-1, rank, d, rank, 2)
        worst = max(worst, float(np.max(np.einsum("irjsc,irjsc->ij", parts, parts))))
    return float(np.sqrt(worst))


def ref_circuit_to_supermap(c: CircuitRealization, dims: tuple[int, int, int, int]):
    h_in, h_out, k_in, k_out = dims
    if (c.h_in, c.h_out, c.k_in, c.k_out) != (h_in, h_out, k_in, k_out):
        raise ValueError(
            f"circuit spaces {(c.h_in, c.h_out, c.k_in, c.k_out)} do not match dims {dims}"
        )
    w4 = c.w.reshape(k_out, c.dim_a, h_out, c.dim_b)
    v3 = c.v.reshape(c.dim_b, h_in, k_in)
    kraus = np.einsum("kimb,bxc->ikcmx", w4, v3).reshape(c.dim_a, k_out * k_in, h_out * h_in)
    if c.projectors is None:
        return Supermap(h_in, h_out, k_in, k_out, tuple(kraus))
    maps = []
    for p in c.projectors:
        w, vecs = np.linalg.eigh((p + dag(p)) / 2.0)
        u = vecs[:, w > 0.5]  # orthonormal basis of the projector's range
        if u.shape[1]:
            ops = np.einsum("ir,ikx->rkx", u.conj(), kraus)
        else:
            ops = np.zeros((1, *kraus.shape[1:]), dtype=complex)
        maps.append(Supermap(h_in, h_out, k_in, k_out, tuple(ops)))
    return maps


# ---------------------------------------------------------------- fixtures


def tuple_form(s: Supermap) -> SimpleNamespace:
    """The fields of s, with its Kraus operators as a tuple of read-only 2-D arrays."""
    return SimpleNamespace(
        h_in=s.h_in, h_out=s.h_out, k_in=s.k_in, k_out=s.k_out,
        kraus=tuple(map(readonly_copy, s.kraus)), _certificate=None,
    )


def fixture(dims, r: int, kind: str, seed: int) -> Supermap:
    """A supermap of the given kind; r sets the Kraus count where the kind does not."""
    rng = np.random.default_rng(seed)
    h_in, h_out, k_in, k_out = dims
    shape = (r, k_out * k_in, h_out * h_in)
    if kind == "random":
        return Supermap(*dims, (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 4)
    if kind == "zero":
        return Supermap(*dims, np.zeros(shape))
    s = circuit_supermap(rng, dims)
    return Supermap(*dims, {"circuit": 1.0, "x0.9": 0.9, "x(1+3.5e-7)": 1 + 3.5e-7}[kind] * s.kraus)


def same_bits(got: Supermap, expected: Supermap) -> bool:
    return (got.h_in, got.h_out, got.k_in, got.k_out) == (
        expected.h_in, expected.h_out, expected.k_in, expected.k_out
    ) and got.kraus.tobytes() == expected.kraus.tobytes()


def close(got: float, expected: float) -> bool:
    return abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def effect_choi(ops) -> np.ndarray:
    """sum_l vec(N_l) vec(N_l)†, which a unitary mixing of the N_l leaves as it is."""
    f = np.reshape(ops, (len(ops), -1))
    return f.T @ f.conj()


def rebuilt(s: Supermap, v: np.ndarray, w: np.ndarray, dim_a: int, dim_b: int) -> Supermap:
    """The supermap of the circuit (V, W), unchecked: S_i = (<i|_A ⊗ I) W V."""
    w4 = w.reshape(s.k_out, dim_a, s.h_out, dim_b)
    kraus = np.einsum("kimb,bxc->ikcmx", w4, v.reshape(dim_b, s.h_in, s.k_in))
    return Supermap(s.h_in, s.h_out, s.k_in, s.k_out, kraus.reshape(dim_a, s.k_out * s.k_in, -1))


kinds_st = st.sampled_from(KINDS)
r_st = st.integers(1, 4)


# ---------------------------------------------------------------- properties


@given(dims=dims_st, r=r_st, kind=kinds_st, seed=seed_st)
def test_certificate_and_effectwise_verdict(dims, r, kind, seed):
    s = fixture(dims, r, kind, seed)
    check_certificate(s)
    for tol in (1e-8, 1e-6):
        assert is_deterministic_effectwise(s, tol) == ref_is_deterministic_effectwise(tuple_form(s), tol)


@given(dims=dims_st, r=r_st, kind=kinds_st, seed=seed_st, tol=st.sampled_from((1e-8, 1e-6)))
def test_isometries_and_effect_map(dims, r, kind, seed, tol):
    s = fixture(dims, r, kind, seed)
    try:
        expected = ref_isometries(tuple_form(s), tol)
    except NotDeterministicError:
        with pytest.raises(NotDeterministicError):
            _isometries(s, tol)
        return
    except ValueError as exc:  # the effect map's residual, now measured as V's
        prefix = "effect map is not identity preserving "
        assert str(exc).startswith(prefix)
        with pytest.raises(ValueError, match="^" + re.escape("V is not an isometry " + str(exc)[len(prefix):])):
            realize(s, tol)
        return
    v, w, dim_a, dim_b = _isometries(s, tol)
    assert (dim_a, dim_b) == expected[2:]
    ref_v, ref_w = expected[:2]
    n_choi = effect_choi(ref_v.conj().reshape(dim_b, s.h_in, s.k_in))
    assert np.max(np.abs(effect_choi(v.conj().reshape(dim_b, s.h_in, s.k_in)) - n_choi)) <= 1e-12
    assert np.max(np.abs(effect_choi(effect_map_of(s, tol).kraus) - n_choi)) <= 1e-12
    assert action_distance(rebuilt(s, v, w, dim_a, dim_b), rebuilt(s, ref_v, ref_w, dim_a, dim_b)) <= 1e-12


@given(dims_a=dims_st, dims_b=dims_st, r=st.tuples(r_st, r_st), kinds=st.tuples(kinds_st, kinds_st),
       seed=seed_st)
def test_tensor_and_action_distance(dims_a, dims_b, r, kinds, seed):
    a = fixture(dims_a, r[0], kinds[0], seed)
    b = fixture(dims_b, r[1], kinds[1], seed + 1)
    assert same_bits(tensor_supermaps(a, b), ref_tensor_supermaps(tuple_form(a), tuple_form(b)))
    c = fixture(dims_a, r[1], kinds[1], seed + 2)
    assert close(action_distance(a, c), ref_action_distance(tuple_form(a), tuple_form(c)))
    assert action_distance(a, a) == ref_action_distance(tuple_form(a), tuple_form(a)) == 0.0


@given(dims=dims_st, rs=st.lists(r_st, min_size=1, max_size=3), kind=kinds_st, seed=seed_st)
def test_sum_supermaps(dims, rs, kind, seed):
    parts = [fixture(dims, r, kind, seed + j) for j, r in enumerate(rs)]
    assert same_bits(sum_supermaps(parts), ref_sum_supermaps(map(tuple_form, parts)))


@given(dims=dims_st, dim_a=st.integers(1, 4), dim_b=st.integers(1, 3), seed=seed_st, data=st.data())
def test_circuit_to_supermap(dims, dim_a, dim_b, seed, data):
    h_in, h_out, k_in, k_out = dims
    dim_b = max(dim_b, -(-k_in // h_in))
    dim_a = max(dim_a, -(-(h_out * dim_b) // k_out))
    rng = np.random.default_rng(seed)
    v = random_isometry(dim_b * h_in, k_in, rng)
    w = random_isometry(k_out * dim_a, h_out * dim_b, rng)
    labels = data.draw(st.lists(st.integers(0, dim_a - 1), min_size=dim_a, max_size=dim_a))
    projs = tuple(np.diag([1.0 if x == g else 0.0 for x in labels]) for g in range(max(labels) + 1))
    c = CircuitRealization(v=v, w=w, dim_a=dim_a, dim_b=dim_b)
    assert same_bits(circuit_to_supermap(c, dims), ref_circuit_to_supermap(c, dims))
    c = CircuitRealization(v=v, w=w, dim_a=dim_a, dim_b=dim_b, projectors=projs)
    got, expected = circuit_to_supermap(c, dims), ref_circuit_to_supermap(c, dims)
    assert len(got) == len(expected) == len(projs)
    assert all(same_bits(g, e) for g, e in zip(got, expected))


# ---------------------------------------------------------------- the validator's contract


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
def test_stored_arrays_are_read_only_copies(rng, as_list):
    # Complex input, which np.asarray would pass through without a copy.
    inputs = {
        "supermap": (rng.standard_normal((2, 4, 4)) + 0j, lambda ops: Supermap(2, 2, 2, 2, ops).kraus),
        "kraus set": (rng.standard_normal((2, 2, 2)) / 10 + 0j, lambda ops: KrausSet(2, 2, ops).operators),
        "effect map": (np.eye(2, dtype=complex)[None], lambda ops: EffectMap(ops).kraus),
    }
    for ops, stored_of in inputs.values():
        kept = ops.copy()
        stored = stored_of(list(ops) if as_list else ops)
        ops[...] = 7.0  # the list holds views of ops, so this writes through them too
        assert stored.tobytes() == kept.tobytes() and stored.shape == kept.shape
        assert stored.dtype == complex and not stored.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0, 0] = 1.0


@pytest.mark.parametrize(
    "ops, got",
    [
        ([np.zeros((2, 1)), np.zeros((3, 1))], (3, 1)),  # ragged
        ([np.zeros((2, 1)), np.zeros((2,))], (2,)),  # ragged, one operator 1-D
        ([np.zeros((2, 2))], (2, 2)),
        (np.zeros((3, 1, 2)), (1, 2)),
        (np.zeros((2, 1)), (1,)),  # one matrix, not a list of them: its rows are the operators
    ],
)
def test_wrong_shapes_name_the_shape(ops, got):
    message = "^" + re.escape(f"Kraus operator shape {got} != (2, 1)") + "$"
    with pytest.raises(ValueError, match=message):
        Supermap(1, 1, 2, 1, ops)
    with pytest.raises(ValueError, match=message):
        KrausSet(1, 2, ops)


def test_non_finite_operators_are_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^Kraus operator has non-finite entries$"):
            Supermap(1, 1, 1, 1, [np.ones((1, 1)), np.full((1, 1), bad)])


def test_generator_and_empty_input():
    s = fixture((2, 1, 2, 3), 3, "random", 1)
    from_gen = Supermap(2, 1, 2, 3, (k for k in s.kraus))
    assert from_gen.kraus.tobytes() == s.kraus.tobytes()
    em = effect_map_of(fixture((2, 2, 2, 2), 2, "circuit", 2))
    assert EffectMap(iter(em.kraus)).kraus.tobytes() == em.kraus.tobytes()
    for empty in ([], (), iter(()), np.zeros((0, 3, 2))):
        k = KrausSet(2, 3, empty)
        assert k.operators.shape == (0, 3, 2)
        assert not k.apply(np.eye(2)).any() and k.apply(np.eye(2)).shape == (3, 3)
        assert not kraus_to_choi(k).choi.any()
    with pytest.raises(ValueError, match="^supermap needs at least one Kraus operator$"):
        Supermap(1, 1, 1, 1, iter(()))
    with pytest.raises(ValueError, match="^effect map needs at least one Kraus operator$"):
        EffectMap([])
