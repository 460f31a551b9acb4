import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from supermaps.linalg import _PHASE_EPS

# One policy for every property test.  No per-example deadline: timings on a
# small shared machine are too noisy for the 200 ms default.
settings.register_profile(
    "supermaps", max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# More examples for the reference-loop suites; select with --hypothesis-profile=ci.
settings.register_profile("ci", settings.get_profile("supermaps"), max_examples=200)
settings.load_profile("supermaps")

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def bell_projector(d: int) -> np.ndarray:
    """Unnormalized |I><I| with |I> = sum_n |n>|n>."""
    v = np.eye(d, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def matrix_units(dim: int):
    """Yield (a, b, |a><b|) over the matrix-unit basis of dim x dim operators."""
    for a in range(dim):
        for b in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[a, b] = 1.0
            yield a, b, unit


def ref_eigh_sorted(m):
    """Reference eigendecomposition of m's Hermitian part: eigenvalues descending,
    each eigenvector's first entry above _PHASE_EPS made real positive, one
    column at a time in a Python loop."""
    m = np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.nonzero(np.abs(col) > _PHASE_EPS)[0]
        if nz.size:
            pivot = col[nz[0]]
            v[:, k] = col * (pivot.conjugate() / abs(pivot))
    return w, v


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
