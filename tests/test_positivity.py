"""One positivity rule: ``hermitian_spectrum`` against the inline step it replaced,
the operation contract against the former validator, the Cholesky certificate
against the eigensolver alone, and the rule at every type that holds positive
operators.

The rule is "Hermitian within HERM_TOL, and lambda_min >= -POS_TOL *
max(1, lambda_max)".  Each fixture near a cutoff sits a factor 1 ± 1e-3 from
it, far above rounding, so a site that applied a different rule would flip.
The certificate's fixtures place lambda_min at ±{0.3 ... 2} times the cutoff,
around the half of it that the certificate's shift covers.
"""

import importlib
import pkgutil
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import supermaps
from supermaps import linalg, testers
from supermaps.applications import (
    ProgrammableDevice,
    TomographySetup,
    povm_as_channel,
    programmable_channel,
    programmable_povm,
)
from supermaps.linalg import (
    HERM_TOL,
    POS_TOL,
    _cholesky_certifies,
    _hermitian_part,
    check_povm,
    dag,
    frob,
    hermitian_spectrum,
    hermiticity_residual,
    is_density_matrix,
    is_positive_semidefinite,
    kron,
    min_eig_floor,
    random_isometry,
)
from supermaps.operations import KrausSet, QuantumOperation, choi_residuals, random_channel
from supermaps.realization import CircuitRealization
from supermaps.supermap import Supermap
from supermaps.testers import tester_from_circuit

SIDES = (1 - 1e-3, 1 + 1e-3)
seed_st = st.integers(0, 2**32 - 1)

# The reproduction: upper-triangular, so not Hermitian, with a positive
# Hermitian part; the two sum to a "POVM" and the first is a "state".
SKEW_PAIR = (np.array([[0.5, 0.5], [0.0, 0.5]]), np.array([[0.5, -0.5], [0.0, 0.5]]))
SKEW_STATE = np.array([[0.5, 0.4], [0.0, 0.5]])


def ref_spectrum(m):
    """The inline step each of the six sites spelled out before the helper."""
    w = np.linalg.eigvalsh((m + dag(m)) / 2.0)
    return float(w[0]), float(w[-1])


def ref_contract(choi, dim_in, dim_out):
    """The former QuantumOperation checks on the former choi_residuals, with the trace
    bound at bare POS_TOL (the floor of I - effect): the message, or None."""
    herm = hermiticity_residual(choi)
    sym = (choi + dag(choi)) / 2.0
    eigs = np.linalg.eigvalsh(sym)
    effect = np.einsum("nanb->ab", sym.reshape(dim_out, dim_in, dim_out, dim_in))
    eff_eigs = np.linalg.eigvalsh((effect + dag(effect)) / 2.0)
    lo, hi = float(eigs[0]), float(eigs[-1])
    increase = max(0.0, float(eff_eigs[-1]) - 1.0)
    if herm > HERM_TOL:
        return f"Choi operator not Hermitian (residual {herm:.3e})"
    if not lo >= -POS_TOL * max(1.0, hi):
        return f"Choi operator not positive semidefinite (min eigenvalue {lo:.3e})"
    if increase > POS_TOL:
        return f"operation increases trace (effect exceeds identity by {increase:.3e})"
    return None


def anti_hermitian(n, rng):
    """Exactly anti-Hermitian n x n matrix of unit Frobenius norm."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (g - dag(g)) / 2.0
    return a / frob(a)


def skewed(m, target, rng):
    """m plus an anti-Hermitian part whose hermiticity residual is about ``target``.

    For Hermitian m, ||m + eA - (m + eA)†|| = 2e and ||(m + eA)†|| is
    ||m|| to relative order e², so e = target * max(1, ||m||_F) / 2.
    """
    eps = target * max(1.0, frob(m)) / 2.0
    return m + eps * anti_hermitian(m.shape[0], rng)


@st.composite
def hermitian_matrices(draw):
    """Exactly Hermitian matrices, dimension 1 to 6, with near-cutoff spectra."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(seed_st))
    lam_max = draw(st.sampled_from([1e-3, 1.0, 10.0]))
    cut = POS_TOL * max(1.0, lam_max)
    pool = [0.0, lam_max, cut * SIDES[0], cut * SIDES[1], -cut * SIDES[0], -cut * SIDES[1]]
    w = [lam_max] + [draw(st.sampled_from(pool)) for _ in range(n - 1)]
    q = random_isometry(n, n, rng)
    h = (q * np.array(w)) @ dag(q)
    return (h + dag(h)) / 2.0


class TestHermitianSpectrum:
    @given(m=hermitian_matrices())
    def test_matches_the_inline_step_bit_for_bit(self, m):
        assert hermitian_spectrum(m) == ref_spectrum(m)

    @given(m=hermitian_matrices(), seed=seed_st, side=st.sampled_from(SIDES))
    def test_matches_off_hermitian_too(self, m, seed, side):
        m = skewed(m, side * HERM_TOL, np.random.default_rng(seed))
        assert hermitian_spectrum(m) == ref_spectrum(m)

    def test_real_input(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert hermitian_spectrum(m) == ref_spectrum(m) == (1.0, 3.0)


@st.composite
def choi_candidates(draw):
    """A channel's Choi operator with at most one defect near its cutoff.

    Returns (choi, dim_in, dim_out, rejected), where ``rejected`` is whether
    the defect crosses its cutoff.  The channel has the smallest Kraus rank
    that fits, so its effect is I and its Choi operator is rank-deficient
    whenever dim_out > 1.
    """
    dim_in, dim_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seed_st))
    side = draw(st.sampled_from(SIDES))
    defect = draw(st.sampled_from(["none", "hermiticity", "negative", "trace"]))
    choi = random_channel(dim_in, dim_out, -(-dim_in // dim_out), rng).choi
    w, v = np.linalg.eigh(choi)
    cut = POS_TOL * max(1.0, w[-1])
    if defect == "hermiticity":
        choi = skewed(choi, side * HERM_TOL, rng)
    elif defect == "trace":  # effect (1 + x) I exceeds I by x, whatever lambda_max
        choi = (1 + side * POS_TOL) * choi
    elif defect == "negative":
        # Move the smallest eigenvalue to -side * cut; lambda_max stays (or,
        # in dimension 1, its floor max(1, .) does).
        choi = choi - (w[0] + side * cut) * np.outer(v[:, 0], v[:, 0].conj())
        choi = (choi + dag(choi)) / 2.0
    return choi, dim_in, dim_out, defect != "none" and side > 1


@given(candidate=choi_candidates())
def test_operation_contract_unchanged(candidate):
    """QuantumOperation raises the former message on the former verdict, and
    choi_residuals' verdicts say the same."""
    choi, dim_in, dim_out, rejected = candidate
    expected = ref_contract(choi, dim_in, dim_out)
    assert (expected is not None) is rejected
    res = choi_residuals(choi, dim_in, dim_out)
    assert (res["hermitian"] and res["cp"] and res["trace_non_increasing"]) is (expected is None)
    if expected is None:
        QuantumOperation(dim_in, dim_out, choi)
    else:
        with pytest.raises(ValueError) as exc:
            QuantumOperation(dim_in, dim_out, choi)
        assert str(exc.value) == expected


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (4, 4), (8, 8), (16, 16)])
def test_choi_residuals_spectrum_is_hermitian_spectrum_of_sym(dims):
    """check-op's min_eig and max_eig, from eigvalsh of sym itself, have the bits
    of hermitian_spectrum(sym), which forms the Hermitian part of sym again."""
    dim_in, dim_out = dims
    rng = np.random.default_rng(dim_in * dim_out)
    choi = random_channel(dim_in, dim_out, 2, rng).choi
    for candidate in (choi, skewed(choi, 0.5 * HERM_TOL, rng)):
        res = choi_residuals(candidate, dim_in, dim_out)
        sym = (candidate + dag(candidate)) / 2.0
        assert (res["min_eig"], res["max_eig"]) == hermitian_spectrum(sym)


def ref_rule(m):
    """The positivity rule decided by the eigensolver alone, as before the certificate."""
    return hermiticity_residual(m) <= HERM_TOL and min_eig_floor(*hermitian_spectrum(m))


FLOOR_FACTORS = (0.3, 0.5, 0.7, 0.99, 1.01, 2.0)


@st.composite
def floor_candidates(draw):
    """(m, psd): a matrix of size 1 to 64 whose Hermitian part has lambda_max
    ``scale`` and lambda_min at ±k * POS_TOL * max(1, lambda_max), with k in
    FLOOR_FACTORS, zero or more eigenvalues exactly 0, and real or complex
    eigenvectors; perhaps skewed near HERM_TOL.  ``psd`` says that every
    eigenvalue placed is at least 0 and m is not skewed."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(seed_st))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 10.0, 1e3, 1e80, 1e160]))
    k = draw(st.sampled_from(FLOOR_FACTORS)) * draw(st.sampled_from([-1.0, 1.0]))
    w = scale * rng.uniform(0.0, 1.0, n)
    w[draw(st.integers(1, n)):] = 0.0  # rank-deficient below the drawn rank
    w[0] = scale
    w[-1] = k * POS_TOL * max(1.0, scale)
    if draw(st.booleans()):
        q = random_isometry(n, n, rng)
    else:
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    m = (q * w) @ dag(q)
    # Skew only where frob(m) is finite: at 1e160 its square overflows.
    skew = draw(st.sampled_from([None, *SIDES])) if scale < 1e100 else None
    if skew is not None:
        m = skewed(m, skew * HERM_TOL, rng)
    return m, skew is None and k > 0


def low_rank_psd(kind, n, seed):
    """Rank-deficient positive matrices: a projector, or a channel's Choi operator."""
    rng = np.random.default_rng(seed)
    if kind == "projector":
        v = random_isometry(n, max(1, n // 3), rng)
        return v @ dag(v)
    dim = {4: 2, 9: 3, 16: 4, 64: 8}[n]
    return (0.9 if kind == "scaled choi" else 1.0) * random_channel(dim, dim, 1, rng).choi


class TestCholeskyCertificate:
    """is_positive_semidefinite's verdict is the eigensolver's rule, whichever decides."""

    @given(candidate=floor_candidates())
    def test_verdict_is_the_eigensolver_rule(self, candidate):
        m, psd = candidate
        with np.errstate(over="ignore"):  # at 1e160 the Frobenius norms overflow
            assert is_positive_semidefinite(m) is ref_rule(m)
        certified = _cholesky_certifies(_hermitian_part(m))
        if psd:  # the shift covers the rounding of an exact positive spectrum
            assert certified
        if certified:  # the certificate shows lambda_min above about half the cutoff
            lam_min, lam_max = hermitian_spectrum(m)
            assert lam_min >= -(0.5 + 1e-3) * POS_TOL * max(1.0, lam_max)

    @pytest.mark.parametrize("n", [4, 9, 16, 64])
    @pytest.mark.parametrize("kind", ["projector", "choi", "scaled choi"])
    def test_rank_deficient_positive_matrices_are_certified(self, kind, n):
        for seed in range(5):
            m = low_rank_psd(kind, n, seed)
            assert ref_rule(m) and _cholesky_certifies(_hermitian_part(m))
            assert is_positive_semidefinite(m)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_nan_entries_are_rejected(self, n):
        m = np.eye(n, dtype=complex) / n
        for i, j in [(0, 0), (n - 1, 0), (0, n - 1)]:
            bad = m.copy()
            bad[i, j] = np.nan
            with np.errstate(invalid="ignore"):
                assert is_positive_semidefinite(bad) is ref_rule(bad) is False
            assert not _cholesky_certifies(_hermitian_part(bad))

    @pytest.mark.parametrize("m", [
        np.diag([1.5e308, 1.0]),
        np.array([[1.0, 1.2e308], [1.2e308, 1.0]]),
        np.full((3, 3), 1e308, dtype=complex),
        np.diag([1.7e308, 1.7e308, 1.0]) + 0j,
    ], ids=["diagonal", "off-diagonal", "every entry", "complex diagonal"])
    def test_an_overflowing_hermitian_part_is_rejected(self, m):
        """m is exactly Hermitian, so its residual is 0, but m + m† overflows.  The
        eigensolver decides as before: False, or LAPACK's LinAlgError on an
        all-infinite matrix."""

        def outcome(rule):
            try:
                return rule(m)
            except np.linalg.LinAlgError as exc:
                return str(exc)

        with np.errstate(all="ignore"):
            assert hermiticity_residual(m) == 0.0
            assert outcome(is_positive_semidefinite) == outcome(ref_rule)
            assert outcome(ref_rule) in (False, "Eigenvalues did not converge")
            assert not _cholesky_certifies(_hermitian_part(m))

    def test_single_precision_is_left_to_the_eigensolver(self):
        m = np.eye(3, dtype=np.float32)
        assert not _cholesky_certifies(_hermitian_part(m))
        assert is_positive_semidefinite(m) is ref_rule(m) is True

    def test_the_hermitian_part_has_the_bits_of_the_expression(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 64):
            g = rng.standard_normal((n, n))
            for m in (g, g + 1j * rng.standard_normal((n, n)), rng.integers(-9, 9, (n, n)), 1e-310 * g):
                h = _hermitian_part(m)
                ref = (m + dag(m)) / 2.0
                assert h.dtype == ref.dtype and h.tobytes() == ref.tobytes()


def test_valid_64x64_operations_and_testers_run_no_eigensolve_of_that_size(monkeypatch):
    """The certificate decides a valid d = 8 channel and a two-effect 64x64 tester:
    no eigensolve of a 64x64 matrix runs, and one does when the channel is
    damaged past the floor."""
    choi = random_channel(8, 8, 3, 0).choi
    rho = linalg.random_density(8, 1)
    proj = random_isometry(8, 3, 2)
    proj = proj @ dag(proj)
    effects = [kron(proj, rho), kron(np.eye(8) - proj, rho)]
    shapes, eigvalsh = [], np.linalg.eigvalsh  # the shape of every eigvalsh call from here on
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    QuantumOperation(8, 8, choi)
    testers.Tester(h_in=8, h_out=8, effects=effects)
    assert (64, 64) not in shapes
    w, v = np.linalg.eigh(choi)
    damaged = choi - (w[0] + 2 * POS_TOL * w[-1]) * np.outer(v[:, 0], v[:, 0].conj())
    with pytest.raises(ValueError, match="^Choi operator not positive semidefinite"):
        QuantumOperation(8, 8, damaged)
    assert (64, 64) in shapes


class TestPositivityRule:
    @pytest.mark.parametrize("side", SIDES)
    def test_hermiticity_cutoff_is_herm_tol(self, side):
        # ||m − m†||_F = e √2 and ||m†||_F < 1, so the residual is e √2.
        m = np.eye(2) / 2 + side * HERM_TOL / np.sqrt(2) * np.array([[0.0, 1.0], [0.0, 0.0]])
        assert is_positive_semidefinite(m) is (side < 1)
        assert is_density_matrix(m) == (side < 1)

    @pytest.mark.parametrize("side", SIDES)
    def test_eigenvalue_floor_is_pos_tol(self, side):
        assert is_positive_semidefinite(np.diag([4.0, -side * 4 * POS_TOL])) is (side < 1)

    def test_no_eigensolve_once_the_hermiticity_bound_fails(self, monkeypatch):
        monkeypatch.setattr(linalg, "hermitian_spectrum", lambda m: pytest.fail("eigensolve ran"))
        assert not is_positive_semidefinite(SKEW_PAIR[0])

    @pytest.mark.parametrize("dtype", [float, complex, np.float32, int])
    def test_an_empty_matrix_is_positive(self, dtype):
        # It has no eigenvalues.  Its trace is 0, so it is no density matrix.
        m = np.zeros((0, 0), dtype=dtype)
        assert is_positive_semidefinite(m) is True
        assert not is_density_matrix(m)

    def test_empty_state_and_povm_element_raise_their_messages(self):
        with pytest.raises(ValueError, match="^input state is not a density matrix$"):
            tester_from_circuit(np.zeros((0, 0)), [np.eye(1)], 1, 1)
        with pytest.raises(ValueError, match="^dimensions must be positive$"):
            programmable_povm([np.zeros((0, 0))], np.eye(1))
        with pytest.raises(ValueError, match="^dimensions must be positive$"):
            check_povm(np.zeros((2, 0, 0)))

    def test_non_finite_matrix_is_rejected(self):
        # Its hermiticity residual is NaN, which no bound accepts.
        with np.errstate(invalid="ignore"):
            assert not is_positive_semidefinite(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_skewed_matrices_are_rejected(self):
        assert not is_positive_semidefinite(SKEW_PAIR[0])
        assert not is_density_matrix(SKEW_STATE)
        with pytest.raises(ValueError, match="^POVM element is not positive semidefinite$"):
            check_povm(SKEW_PAIR)
        with pytest.raises(ValueError, match="^POVM element is not positive semidefinite$"):
            povm_as_channel(SKEW_PAIR)

    def test_tester_rejects_skewed_effects(self):
        with pytest.raises(ValueError, match="^tester effect is not positive semidefinite$"):
            testers.Tester(h_in=1, h_out=2, effects=SKEW_PAIR)

    def test_tester_from_circuit_rejects_skewed_povm_and_state(self):
        with pytest.raises(ValueError, match="joint POVM element is not positive semidefinite"):
            tester_from_circuit(np.eye(1), SKEW_PAIR, h_in=1, h_out=2)
        with pytest.raises(ValueError, match="input state is not a density matrix"):
            tester_from_circuit(SKEW_STATE, [np.eye(2)], h_in=2, h_out=1)

    def test_tomography_rejects_skewed_probe(self):
        with pytest.raises(ValueError, match="^probe is not a density matrix$"):
            TomographySetup(faithful_state=kron(SKEW_STATE, SKEW_STATE), h_in=2, h_out=2)

    def test_programming_rejects_skewed_program(self):
        dev = ProgrammableDevice(unitary=np.eye(4), dim_sys=2, dim_prog=2)
        with pytest.raises(ValueError, match="^program is not a density matrix$"):
            programmable_channel(dev, SKEW_STATE)
        with pytest.raises(ValueError, match="^program is not a density matrix$"):
            programmable_povm([np.eye(4)], SKEW_STATE)


NON_FINITE = {
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "inf": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "off-diagonal -inf": np.array([[0.5, -np.inf], [0.0, 0.5]]),
    "imaginary inf": np.array([[0.5, complex(0.0, np.inf)], [0.0, 0.5]]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", NON_FINITE.values(), ids=list(NON_FINITE))
class TestNonFiniteInput:
    """One finiteness check before the positivity rule: one message, no numpy warning."""

    def test_density_matrix_is_false(self, m):
        assert not is_density_matrix(m)

    def test_povm_element_is_rejected(self, m):
        with pytest.raises(ValueError, match="^POVM element has non-finite entries$"):
            check_povm([m, np.eye(2) / 2])
        with pytest.raises(ValueError, match="^joint POVM element has non-finite entries$"):
            tester_from_circuit(np.eye(1), [m], h_in=1, h_out=2)

    def test_tester_effect_is_rejected(self, m):
        with pytest.raises(ValueError, match="^tester effect has non-finite entries$"):
            testers.Tester(h_in=1, h_out=2, effects=(np.eye(2) / 2, m))

    def test_program_is_rejected(self, m):
        dev = ProgrammableDevice(unitary=np.eye(4), dim_sys=2, dim_prog=2)
        with pytest.raises(ValueError, match="^program is not a density matrix$"):
            programmable_channel(dev, m)


# Each validated type with space dimensions, built with (first, second)
# substituted for two of them; the other arguments are valid for dimension 1.
DIM_CASES = {
    "QuantumOperation": lambda a, b: QuantumOperation(a, b, np.eye(1)),
    "KrausSet": lambda a, b: KrausSet(a, b, ()),
    "Supermap": lambda a, b: Supermap(a, b, 1, 1, (np.eye(1),)),
    "Tester": lambda a, b: testers.Tester(h_in=a, h_out=b, effects=(np.eye(1),)),
    "TomographySetup": lambda a, b: TomographySetup(faithful_state=np.eye(1), h_in=a, h_out=b),
    "ProgrammableDevice": lambda a, b: ProgrammableDevice(unitary=np.eye(1), dim_sys=a, dim_prog=b),
    "CircuitRealization": lambda a, b: CircuitRealization(np.eye(1), np.eye(1), dim_a=a, dim_b=b),
}


@pytest.mark.parametrize("dims", [(-1, -1), (0, 1), (1, 0), (-2, 1)])
@pytest.mark.parametrize("kind", sorted(DIM_CASES))
def test_non_positive_dimensions_rejected(kind, dims):
    """Two negative dimensions multiply to a positive size; one check, one message."""
    with pytest.raises(ValueError, match="^dimensions must be positive$"):
        DIM_CASES[kind](*dims)


@pytest.mark.parametrize("kind", sorted(DIM_CASES))
def test_dimension_one_accepted(kind):
    DIM_CASES[kind](1, 1)


def code_objects():
    """{name: code} of every function and method defined in supermaps.*, with the
    code nested in each (lambdas, comprehensions, inner functions)."""
    found = {}

    def walk(name, code):
        found[name] = code
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(f"{name}.{const.co_name}", const)

    for info in pkgutil.walk_packages(supermaps.__path__, "supermaps."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere: scanned where it is defined
            for member in vars(obj).values() if isinstance(obj, type) else (obj,):
                # a function, a static or class method, a cached_property, a property
                for f in (member, *(getattr(member, a, None) for a in ("__func__", "func", "fget"))):
                    if isinstance(f, types.FunctionType):
                        walk(f"{module.__name__}.{f.__qualname__}", f.__code__)
    return found


def test_one_module_knows_the_positivity_rule():
    """The certificate and the hermiticity bound are each spelled out once: every
    other check reaches them through is_positive_semidefinite or choi_residuals."""
    codes = code_objects()
    assert "supermaps.operations.QuantumOperation.__post_init__" in codes
    assert "supermaps.supermap.DeterminismCertificate._basis" in codes

    def naming(name):
        return {where for where, code in codes.items() if name in code.co_names}

    rule, residuals = "supermaps.linalg.is_positive_semidefinite", "supermaps.operations.choi_residuals"
    assert naming("_cholesky_certifies") == {rule}
    assert naming("HERM_TOL") == {rule, residuals}
