"""One positivity rule: ``hermitian_spectrum`` against the inline step it replaced,
the operation contract against the former validator, and the rule at every
type that holds positive operators.

The rule is "Hermitian within HERM_TOL, and lambda_min >= -POS_TOL *
max(1, lambda_max)".  Each fixture near a cutoff sits a factor 1 ± 1e-3 from
it, far above rounding, so a site that applied a different rule would flip.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supermaps import testers
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
    check_povm,
    dag,
    frob,
    hermitian_spectrum,
    hermiticity_residual,
    is_density_matrix,
    is_positive_semidefinite,
    kron,
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
    return hermiticity_residual(m), float(w[0]), float(w[-1])


def ref_contract(choi, dim_in, dim_out):
    """The former QuantumOperation checks on the former choi_residuals: the message, or None."""
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
    if increase > POS_TOL * max(1.0, hi):
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
        assert hermitian_spectrum(m) == ref_spectrum(m) == (0.0, 1.0, 3.0)


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
    elif defect == "trace":
        choi = (1 + side * cut) * choi
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
