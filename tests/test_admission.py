"""Values the library admits without a second validation, against the
validated construction they replaced.

``random_channel`` and ``random_operation`` admit their Choi operators, and
``realize_probabilistic`` attaches its ancilla projectors, without running
``KrausSet``'s, ``QuantumOperation``'s or ``CircuitRealization``'s checks on
them.  The ``ref_*`` functions build the same values through every check
those validators ran before.  The properties show that the admitted values
keep the bits of the validated ones and pass every check they skip: the
written arguments of the ``linalg`` tolerance policy, run as tests.  The
counting test shows that delayed reading, which draws a random channel per
trial and realizes its parts once, runs none of those checks.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from supermaps.linalg import EQ_TOL, hermiticity_residual, random_isometry
from supermaps.operations import (
    KrausSet,
    QuantumOperation,
    choi_residuals,
    choi_to_kraus,
    kraus_to_choi,
    random_channel,
    random_operation,
)
from supermaps.realization import (
    CircuitRealization,
    _isometries,
    delayed_reading_check,
    realize_probabilistic,
)
from supermaps.supermap import Supermap, sum_supermaps

from test_supermap import random_circuit_supermap

seed_st = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------- validated constructions


def ref_random_channel(dim_in, dim_out, kraus_rank, seed):
    """random_channel's Choi operator through KrausSet's check and QuantumOperation's."""
    v = random_isometry(dim_out * kraus_rank, dim_in, seed)
    ops = v.reshape(dim_out, kraus_rank, dim_in).transpose(1, 0, 2)
    return QuantumOperation(dim_in, dim_out, kraus_to_choi(KrausSet(dim_in, dim_out, ops)).choi)


def ref_random_operation(dim_in, dim_out, kraus_rank, seed):
    """random_operation with the validated channel and a validated result."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.2, 1.0)
    ch = ref_random_channel(dim_in, dim_out, kraus_rank, rng)
    return QuantumOperation(dim_in, dim_out, scale * ch.choi)


def ref_realize_probabilistic(parts, tol=EQ_TOL):
    """realize_probabilistic with its projectors validated by CircuitRealization."""
    parts = list(parts)
    v, w, dim_a, dim_b = _isometries(sum_supermaps(parts), tol)
    owner = np.repeat(np.arange(len(parts)), [len(p.kraus) for p in parts])  # part of each A index
    projectors = tuple(np.diag(owner == j).astype(complex) for j in range(len(parts)))
    return CircuitRealization(v, w, dim_a, dim_b, projectors, tol)


def split_fixture(dims, n_parts, seed):
    """A deterministic supermap on ``dims`` split into n_parts non-empty parts."""
    h_in, h_out, k_in, k_out = dims
    rng = np.random.default_rng(seed)
    dim_b = max(int(rng.integers(1, 3)), -(-k_in // h_in))
    dim_a = max(n_parts, int(rng.integers(1, 4)), -(-(h_out * dim_b) // k_out))
    s = random_circuit_supermap(rng, dims, dim_a=dim_a, dim_b=dim_b)
    return [Supermap(*dims, ops) for ops in np.array_split(s.kraus, n_parts)]


# ---------------------------------------------------------------- properties


@given(dims=st.tuples(st.integers(1, 4), st.integers(1, 4)), r=st.integers(1, 3), seed=seed_st)
def test_random_operations_keep_the_validated_bits(dims, r, seed):
    dim_in, dim_out = dims
    r = max(r, -(-dim_in // dim_out))  # enough operators for an isometry
    for build, ref in ((random_channel, ref_random_channel),
                       (random_operation, ref_random_operation)):
        got, expected = build(dim_in, dim_out, r, seed), ref(dim_in, dim_out, r, seed)
        assert (got.dim_in, got.dim_out) == (expected.dim_in, expected.dim_out)
        assert got.choi.tobytes() == expected.choi.tobytes() and got.choi.shape == expected.choi.shape
        assert got.choi.dtype == complex and not got.choi.flags.writeable
        res = choi_residuals(got.choi, dim_in, dim_out)
        assert res["hermitian"] and res["cp"] and res["trace_non_increasing"]
        # The margin the argument claims: QR rounding, far inside POS_TOL.
        assert res["trace_increase"] <= 1e-13
        choi_to_kraus(got)  # its canonical Kraus set passes KrausSet's check


@given(dims=st.tuples(*(st.integers(1, 4) for _ in range(4))), n_parts=st.integers(1, 4),
       seed=seed_st)
def test_realize_probabilistic_projectors_pass_the_projector_checks(dims, n_parts, seed):
    parts = split_fixture(dims, n_parts, seed)
    got, expected = realize_probabilistic(parts), ref_realize_probabilistic(parts)
    for name in ("v", "w", "v_residual", "w_residual", "dim_a", "dim_b", "tol"):
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(expected, name)).tobytes()
    assert len(got.projectors) == len(expected.projectors) == n_parts
    for p, q in zip(got.projectors, expected.projectors):
        assert p.tobytes() == q.tobytes() and p.dtype == complex and not p.flags.writeable
    # CircuitRealization's own projector checks pass at tol 0 (V = W = I pass at any tol).
    CircuitRealization(np.eye(1), np.eye(got.dim_a), got.dim_a, 1, got.projectors, tol=0.0)


# ---------------------------------------------------------------- counting


def test_delayed_reading_runs_no_admitted_check(monkeypatch):
    calls = []

    def counted(cls, what):
        original = cls.__post_init__

        def post_init(self):
            calls.append(what)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", post_init)

    counted(KrausSet, "KrausSet")
    counted(QuantumOperation, "QuantumOperation")

    def hermiticity(p):  # the first projector check, run once per projector
        calls.append("projector")
        return hermiticity_residual(p)

    monkeypatch.setattr("supermaps.realization.hermiticity_residual", hermiticity)
    parts = split_fixture((2, 3, 2, 2), 3, 11)
    report = delayed_reading_check(parts, trials=4, seed=5)
    assert report.passed and calls == []
    # The counters see the checks they watch.
    c = realize_probabilistic(parts)
    CircuitRealization(c.v, c.w, c.dim_a, c.dim_b, c.projectors)
    KrausSet(2, 2, np.eye(2)[None])
    QuantumOperation(1, 1, np.eye(1))
    assert calls == ["projector"] * 3 + ["KrausSet", "QuantumOperation"]
