"""Operator lists held as one read-only array, against the per-element code they replaced.

``Tester.effects``, ``CircuitRealization.projectors`` and the results of
``check_povm`` and ``programmable_povm`` are each one read-only complex array
of shape (n, rows, cols), built by ``linalg._operator_stack`` like every Kraus
set, and ``informationally_complete_tester_for`` takes every dual image in one
``kraus_sum`` over the POVM stack.  The ``ref_*`` functions below are verbatim
copies of the code that held these lists as tuples or lists of 2-D arrays and
looped over them; only the names of the functions they call are changed to the
copies', and where a copy built a tester it returns the effects it passed to
``make_tester``.  The properties check that the array form gives the same
bits, and the same verdicts and messages, over shapes drawn from {1..4}.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supermaps.applications import (
    TomographySetup,
    informationally_complete_tester_for,
    programmable_povm,
    tomography_supermap,
)
from supermaps.linalg import (
    EQ_TOL,
    check_povm,
    dag,
    is_density_matrix,
    is_positive_semidefinite,
    kraus_sum,
    numerical_rank,
    random_density,
    random_isometry,
    readonly_copy,
    rel_residual,
)
from supermaps.operations import _check_ports, random_operation
from supermaps.realization import realize_probabilistic
from supermaps.supermap import _factor_identity
from supermaps.testers import (
    OutcomeDistribution,
    evaluate,
    is_informationally_complete,
    make_tester,
    tester_from_circuit,
)

from test_admission import split_fixture
from test_closed_forms import dims_st, seed_st

dim_st = st.integers(1, 4)
FAULTS = ("none", "scale", "negative", "nan")


def random_povm(n, d, rng):
    """n POVM elements K_j† K_j on C^d from the row blocks K_j of a random isometry."""
    blocks = random_isometry(n * d, d, rng).reshape(n, d, d)
    return [k.conj().T @ k for k in blocks]


def tuple_form(t):
    """The tester's fields, with its effects as a tuple of 2-D arrays."""
    return SimpleNamespace(h_in=t.h_in, h_out=t.h_out, tol=t.tol, effects=tuple(t.effects))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- per-element copies


def ref_check_positive_elements(elements, d: int, what: str) -> None:
    """Raise ValueError, naming ``what``, unless each element is finite, d x d and positive."""
    for m in elements:
        if m.shape != (d, d):
            raise ValueError(f"{what} shape {m.shape} != ({d}, {d})")
        if not np.isfinite(m).all():
            raise ValueError(f"{what} has non-finite entries")
        if not is_positive_semidefinite(m):
            raise ValueError(f"{what} is not positive semidefinite")


def ref_check_povm(povm, d: int | None = None, what: str = "POVM") -> list[np.ndarray]:
    povm = [np.asarray(m, dtype=complex) for m in povm]
    if not povm:
        raise ValueError(f"{what} is empty")
    if d is None:
        d = povm[0].shape[0]
    ref_check_positive_elements(povm, d, f"{what} element")
    if rel_residual(sum(povm), np.eye(d)) > EQ_TOL:
        raise ValueError(f"{what} does not sum to the identity")
    return povm


def ref_evaluate(t, op) -> OutcomeDistribution:
    _check_ports(op, t.h_in, t.h_out, "tester")
    probs = []
    for p in t.effects:
        x = float(np.einsum("ij,ji->", op.choi, p).real)
        if -t.tol <= x < 0.0:
            x = 0.0
        elif 1.0 < x <= 1.0 + t.tol:
            x = 1.0
        probs.append(x)
    return OutcomeDistribution(np.array(probs))


def ref_is_informationally_complete(t) -> bool:
    full = (t.h_out * t.h_in) ** 2
    if len(t.effects) < full:
        return False
    stacked = np.stack([p.reshape(-1) for p in t.effects])
    return numerical_rank(stacked, t.tol) == full


def ref_tester_from_circuit(input_state, povm, h_in: int, h_out: int) -> list[np.ndarray]:
    x = np.asarray(input_state, dtype=complex)
    if x.shape[0] % h_in:
        raise ValueError("input state dimension is not a multiple of h_in")
    b = x.shape[0] // h_in
    if not is_density_matrix(x):
        raise ValueError("input state is not a density matrix")
    povm = ref_check_povm(povm, h_out * b, "joint POVM")
    x4 = x.reshape(h_in, b, h_in, b)
    effects = []
    for m in povm:
        m4 = m.reshape(h_out, b, h_out, b)
        # P[(a,alpha),(c,gamma)] = sum_{b,d} X[(gamma,b),(alpha,d)] M[(a,d),(c,b)]
        p4 = np.einsum("gbad,edcb->eacg", x4, m4)
        effects.append(p4.reshape(h_out * h_in, h_out * h_in))
    return effects


def ref_programmable_povm(joint_povm, program: np.ndarray) -> list[np.ndarray]:
    sigma = np.asarray(program, dtype=complex)
    d_prog = sigma.shape[0]
    if not is_density_matrix(sigma):
        raise ValueError("program is not a density matrix")
    povm = ref_check_povm(joint_povm, what="joint POVM")
    d = povm[0].shape[0]
    if d % d_prog:
        raise ValueError("joint POVM dimension is not a multiple of the program's")
    d_sys = d // d_prog
    out = []
    for e in povm:
        e4 = e.reshape(d_sys, d_prog, d_sys, d_prog)
        out.append(np.einsum("mpnq,qp->mn", e4, sigma))
    return out


def ref_kraus_sum(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros((ops.shape[1],) * 2, dtype=complex)
    for k in ops:
        out += k @ x @ dag(k)
    return out


def ref_ic_effects(setup, povm) -> list[np.ndarray]:
    """informationally_complete_tester_for's effects: dual_supermap once per element."""
    s = tomography_supermap(setup)
    return [ref_kraus_sum(s.kraus.conj().transpose(0, 2, 1), m) for m in povm]


def ic_povm(d, rng):
    """d² generic positive operators normalized to sum to I: informationally complete."""
    g = rng.standard_normal((d * d, d, d)) + 1j * rng.standard_normal((d * d, d, d))
    gs = g @ g.conj().transpose(0, 2, 1)
    w, v = np.linalg.eigh(gs.sum(axis=0))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return list(inv_sqrt @ gs @ inv_sqrt)


def ref_projectors(parts):
    """realize_probabilistic's projectors, one 0/1 diagonal per part."""
    owner = np.repeat(np.arange(len(parts)), [len(p.kraus) for p in parts])  # part of each A index
    return tuple(readonly_copy(np.diag(owner == j)) for j in range(len(parts)))


# ---------------------------------------------------------------- properties


@given(h_in=dim_st, h_out=dim_st, b=dim_st, n=dim_st, seed=seed_st,
       tol=st.sampled_from([EQ_TOL, 1e-12, 1e-3]))
def test_tester_and_evaluate_match_the_per_element_code(h_in, h_out, b, n, seed, tol):
    rng = np.random.default_rng(seed)
    x, povm = random_density(h_in * b, rng), random_povm(n, h_out * b, rng)
    t = tester_from_circuit(x, povm, h_in, h_out)
    ref_effects = ref_tester_from_circuit(x, povm, h_in, h_out)
    assert same_bits(t.effects, np.array(ref_effects))
    assert not t.effects.flags.writeable
    # The normalization, from the stacked sum and from Python's sum of the tuple.
    sigma, residual, trace_gap = _factor_identity(sum(ref_effects), h_out, h_in)
    assert same_bits(t.sigma, sigma) and (t.residual, t.trace_gap) == (residual, trace_gap)
    assert is_informationally_complete(t) == ref_is_informationally_complete(tuple_form(t))
    # evaluate at the drawn tol, on channels and on trace-decreasing operations.
    t = make_tester(t.effects, h_out, h_in, tol)
    for _ in range(3):
        op = random_operation(h_in, h_out, max(int(rng.integers(1, 4)), -(-h_in // h_out)), rng)
        got, want = evaluate(t, op).probabilities, ref_evaluate(tuple_form(t), op).probabilities
        assert same_bits(got, want) and got.flags.c_contiguous


@given(n=dim_st, d_sys=dim_st, d_prog=dim_st, seed=seed_st)
def test_programmable_povm_matches_the_per_element_code(n, d_sys, d_prog, seed):
    rng = np.random.default_rng(seed)
    joint = random_povm(n, d_sys * d_prog, rng)
    sigma = random_density(d_prog, rng)
    got = programmable_povm(joint, sigma)
    assert same_bits(got, np.array(ref_programmable_povm(joint, sigma)))
    assert not got.flags.writeable


@given(n=dim_st, d=dim_st, seed=seed_st, fault=st.sampled_from(FAULTS), at=st.integers(0, 3))
def test_check_povm_matches_the_per_element_code(n, d, seed, fault, at):
    # One fault in one element, so the per-element order of the checks and the
    # stacked order name the same cause.
    povm = random_povm(n, d, np.random.default_rng(seed))
    m = povm[at % n]
    if fault == "scale":
        m *= 1.0 + 1e-6
    elif fault == "negative":
        m[...] = -1e-3 * np.eye(d)
    elif fault == "nan":
        m[0, 0] = np.nan
    try:
        want = ref_check_povm(povm)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            check_povm(povm)
        assert str(got.value) == str(exc)
        return
    got = check_povm(povm)
    assert same_bits(got, np.array(want)) and not got.flags.writeable


@given(dims=dims_st, n_parts=st.integers(1, 3), seed=seed_st)
def test_realize_probabilistic_projectors_match_the_per_part_diagonals(dims, n_parts, seed):
    parts = split_fixture(dims, n_parts, seed)
    got = realize_probabilistic(parts).projectors
    assert same_bits(got, np.array(ref_projectors(parts))) and not got.flags.writeable


@given(h_in=st.integers(1, 3), h_out=st.integers(1, 3), seed=seed_st)
def test_ic_tester_effects_match_the_per_element_duals(h_in, h_out, seed):
    rng = np.random.default_rng(seed)
    setup = TomographySetup(random_density(h_in * h_in, rng), h_in, h_out)
    povm = check_povm(ic_povm(h_out * h_in, rng))
    got = informationally_complete_tester_for(setup, povm).effects
    assert same_bits(got, np.array(ref_ic_effects(setup, povm)))


@given(rows=dim_st, cols=dim_st, r=st.integers(0, 3), stack=st.tuples(dim_st, dim_st), seed=seed_st)
def test_kraus_sum_over_a_stack_matches_one_call_per_matrix(rows, cols, r, stack, seed):
    rng = np.random.default_rng(seed)
    ops = rng.standard_normal((r, rows, cols)) + 1j * rng.standard_normal((r, rows, cols))
    x = rng.standard_normal((*stack, cols, cols)) + 1j * rng.standard_normal((*stack, cols, cols))
    want = np.array([ref_kraus_sum(ops, m) for m in x.reshape(-1, cols, cols)]).reshape(*stack, rows, rows)
    assert same_bits(kraus_sum(ops, x), want)
