"""Every check whose message names a residual raises ResidualError carrying that
residual, as the number the message prints."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supermaps import (
    CircuitRealization,
    EffectMap,
    KrausSet,
    NotDeterministicError,
    QuantumOperation,
    ResidualError,
    Supermap,
    effect_map_of,
    identity_supermap,
    make_tester,
)
from supermaps.linalg import kron

from conftest import I2, bell_projector

KET0 = np.diag([1.0, 0.0]).astype(complex)

# Each raise site, damaged by c > 0 so that it fails at the default tol.
SITES = {
    "operation-hermitian": lambda c: QuantumOperation(
        2, 2, bell_projector(2) + c * np.triu(np.ones((4, 4)), 1)),
    "operation-cp": lambda c: QuantumOperation(2, 2, bell_projector(2) - c * np.eye(4)),
    "operation-trace": lambda c: QuantumOperation(2, 2, (1 + c) * bell_projector(2)),
    "kraus-bound": lambda c: KrausSet(2, 2, [np.sqrt(1 + c) * I2]),
    "effect-map": lambda c: EffectMap([np.sqrt(1 + c) * I2]),
    "circuit-v": lambda c: CircuitRealization((1 + c) * I2, I2, 1, 1),
    "circuit-w": lambda c: CircuitRealization(I2, (1 + c) * I2, 1, 1),
    "tester": lambda c: make_tester(
        [(1 + c) * kron(KET0, I2 / 2), kron(I2 - KET0, I2 / 2)], 2, 2),
    "not-deterministic": lambda c: effect_map_of(
        Supermap(2, 2, 2, 2, np.sqrt(1 + c) * identity_supermap(2, 2).kraus)),
}


@pytest.mark.parametrize("site", list(SITES))
@given(c=st.floats(1e-6, 1e3))
def test_residual_is_the_number_the_message_prints(site, c):
    with pytest.raises(ResidualError) as exc:
        SITES[site](c)
    printed = re.findall(r"-?\d\.\d{3}e[+-]\d+", str(exc.value))
    # The tester names two numbers and carries the larger; "min eigenvalue" is
    # printed with its sign and carried as a positive residual.
    assert f"{exc.value.residual:.3e}" == max(printed, key=lambda x: abs(float(x))).lstrip("-")
    assert exc.value.residual > 1e-8


def test_an_overflowing_kraus_bound_carries_inf():
    with np.errstate(all="ignore"), pytest.raises(ResidualError, match="overflows$") as exc:
        KrausSet(2, 2, [1e200 * I2])
    assert exc.value.residual == np.inf


def test_not_deterministic_error_is_a_residual_error_built_without_one():
    assert issubclass(NotDeterministicError, ResidualError)
    assert issubclass(ResidualError, ValueError)
    assert NotDeterministicError("message").residual is None
