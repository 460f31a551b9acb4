"""The package's public surface: the names it exports, and the whole message of
each rejection of bad input that no other test reaches."""

import types

import numpy as np
import pytest

import supermaps
from supermaps import (
    CircuitRealization,
    EffectMap,
    ProgrammableDevice,
    QuantumOperation,
    TomographySetup,
    action_distance,
    discrimination_probability,
    dual_supermap,
    identity_operation,
    identity_supermap,
    make_tester,
    partial_trace,
    povm_as_channel,
    programmable_channel,
    programmable_povm,
    random_channel,
    random_density,
    random_isometry,
    random_operation,
    sum_supermaps,
    tester_from_circuit,
)
from supermaps.io import dumps17
from supermaps.linalg import check_povm
from supermaps.selftest import run_selftest

from conftest import I2


SUBMODULES = ("linalg", "operations", "supermap", "realization", "testers", "applications")


def test_star_import_binds_each_public_name_of_the_submodules_and_no_module():
    names = {}
    exec("from supermaps import *", names)
    names.pop("__builtins__")
    assert len(names) == len(supermaps.__all__) == 60
    assert {n for n, obj in vars(supermaps).items() if isinstance(obj, types.ModuleType)} >= set(
        SUBMODULES
    )
    modules = [getattr(supermaps, m) for m in SUBMODULES]
    for name, obj in names.items():
        assert not name.startswith("_") and not isinstance(obj, types.ModuleType)
        # The object itself, not a copy or a wrapper, and where a function or
        # class is concerned, the one its defining submodule holds.
        homes = {m.__name__ for m in modules if vars(m).get(name) is obj}
        assert homes
        if isinstance(obj, (type, types.FunctionType)):
            assert obj.__module__ in homes


def _ket0_tester():
    # Prepare |0>, measure in the Z basis: a tester on qubit channels.
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    return make_tester([np.kron(ket0, ket0), np.kron(I2 - ket0, ket0)], 2, 2)


def _circuit(**projectors):
    # The identity circuit with a two-dimensional ancilla A: W = I_2 ⊗ |0>.
    w = np.kron(I2, np.array([[1.0], [0.0]]))
    return CircuitRealization(I2, w, dim_a=2, dim_b=1, **projectors)


REJECTIONS = {
    "operation-choi-shape": (
        lambda: QuantumOperation(2, 2, np.eye(3)),
        ValueError, "Choi operator must be 4x4, got (3, 3)"),
    "operation-choi-non-finite": (
        lambda: QuantumOperation(1, 1, np.array([[np.nan]])),
        ValueError, "Choi operator has non-finite entries"),
    "random-channel-rank": (
        lambda: random_channel(2, 2, 0, 0),
        ValueError, "kraus_rank must be at least 1"),
    "random-channel-no-isometry": (
        lambda: random_channel(3, 1, 2, 0),
        ValueError, "no isometry into dim 1x2 from dim 3"),
    "partial-trace-keep": (
        lambda: partial_trace(np.eye(4), [2, 2], keep=[2]),
        ValueError, "keep indices [2] out of range for 2 factors"),
    "dual-supermap-shape": (
        lambda: dual_supermap(identity_supermap(2, 2), np.eye(2)),
        ValueError, "operator shape (2, 2) != (4, 4)"),
    "sum-supermaps-empty": (
        lambda: sum_supermaps([]),
        ValueError, "need at least one supermap"),
    "action-distance-spaces": (
        lambda: action_distance(identity_supermap(2, 2), identity_supermap(2, 3)),
        ValueError, "supermaps act on different spaces"),
    "discrimination-priors-sum": (
        lambda: discrimination_probability(
            _ket0_tester(), [identity_operation(2)] * 2, [0.5, 0.6]),
        ValueError, "priors must sum to 1"),
    "tester-from-circuit-h-in": (
        lambda: tester_from_circuit(np.eye(3) / 3, [np.eye(3)], h_in=2, h_out=1),
        ValueError, "input state dimension is not a multiple of h_in"),
    "circuit-projector-shape": (
        lambda: _circuit(projectors=(np.eye(3),)),
        ValueError, "ancilla projector shape (3, 3) != (2, 2)"),
    # Every orthogonality and idempotence test is False on NaN, so a NaN
    # projector was accepted.
    "circuit-projector-non-finite": (
        lambda: _circuit(projectors=(np.full((2, 2), np.nan), I2)),
        ValueError, "ancilla projector has non-finite entries"),
    "circuit-projector-idempotent": (
        lambda: _circuit(projectors=(np.diag([1.0, 0.5]), np.diag([0.0, 0.5]))),
        ValueError, "ancilla projectors must be Hermitian idempotents"),
    "programmable-device-shape": (
        lambda: ProgrammableDevice(np.eye(3), dim_sys=2, dim_prog=2),
        ValueError, "unitary must be 4x4, got (3, 3)"),
    "tomography-setup-shape": (
        lambda: TomographySetup(np.eye(3) / 3, h_in=2, h_out=2),
        ValueError, "probe state must be 4x4, got (3, 3)"),
    "programmable-channel-program-shape": (
        lambda: programmable_channel(ProgrammableDevice(np.eye(4), 2, 2), np.eye(3) / 3),
        ValueError, "program shape (3, 3) != (2, 2)"),
    "programmable-povm-dimension": (
        lambda: programmable_povm([np.eye(3)], I2 / 2),
        ValueError, "joint POVM dimension is not a multiple of the program's"),
    # A program or input state that is not a square matrix raised numpy's errors
    # (IndexError for a 0-d one).
    "programmable-povm-program-non-square": (
        lambda: programmable_povm([np.eye(4)], np.ones((2, 3)) / 2),
        ValueError, "program is not a density matrix"),
    "programmable-povm-program-1d": (
        lambda: programmable_povm([np.eye(4)], np.ones(2) / 2),
        ValueError, "program is not a density matrix"),
    "programmable-povm-program-0d": (
        lambda: programmable_povm([np.eye(4)], np.float64(1.0)),
        ValueError, "program is not a density matrix"),
    "tester-from-circuit-state-0d": (
        lambda: tester_from_circuit(np.float64(1.0), [np.eye(1)], h_in=1, h_out=1),
        ValueError, "input state is not a density matrix"),
    "tester-from-circuit-state-non-square": (
        lambda: tester_from_circuit(np.ones((4, 2)), [np.eye(4)], h_in=2, h_out=2),
        ValueError, "input state is not a density matrix"),
    "dumps17-type": (
        lambda: dumps17({"a": {1, 2}}),
        TypeError, "cannot serialize set"),
    "selftest-corruption": (
        lambda: run_selftest(0, 1, corrupt="w-isometry"),
        ValueError, "unknown corruption 'w-isometry' (choose from ('v-isometry', 'tester-norm'))"),
    # A W whose columns do not split into H_out ⊗ B was accepted, and failed later
    # in circuit_to_supermap's reshape and run_circuit's matmul.
    "circuit-w-columns": (
        lambda: CircuitRealization(random_isometry(4, 2, 0), random_isometry(6, 3, 1), 3, 2),
        ValueError, "isometry shapes (4, 2), (6, 3) inconsistent with ancilla dimensions"),
    "circuit-v-rows": (
        lambda: CircuitRealization(random_isometry(3, 2, 0), random_isometry(4, 4, 1), 2, 2),
        ValueError, "isometry shapes (3, 2), (4, 4) inconsistent with ancilla dimensions"),
    "circuit-w-rows": (
        lambda: CircuitRealization(random_isometry(4, 2, 0), random_isometry(5, 4, 1), 2, 2),
        ValueError, "isometry shapes (4, 2), (5, 4) inconsistent with ancilla dimensions"),
    # Isometries that are not matrices raised IndexError.
    "circuit-v-1d": (
        lambda: CircuitRealization(np.ones(2), I2, 1, 1),
        ValueError, "isometry shapes (2,), (2, 2) inconsistent with ancilla dimensions"),
    "circuit-w-3d": (
        lambda: CircuitRealization(I2, np.ones((2, 2, 2)), 1, 1),
        ValueError, "isometry shapes (2, 2), (2, 2, 2) inconsistent with ancilla dimensions"),
    # Effect-map Kraus operators that are not matrices raised IndexError.
    "effect-map-2d-array": (
        lambda: EffectMap(np.eye(2)),
        ValueError, "Kraus operators must be matrices, got shape (2,)"),
    "effect-map-vectors": (
        lambda: EffectMap([np.ones(2)]),
        ValueError, "Kraus operators must be matrices, got shape (2,)"),
    "effect-map-tensors": (
        lambda: EffectMap([np.ones((1, 2, 2))]),
        ValueError, "Kraus operators must be matrices, got shape (1, 2, 2)"),
    # Dimension 0 gave a 0x0 Choi operator (random_channel, random_operation) or
    # a 0x0 state (random_density), and ZeroDivisionError in tester_from_circuit.
    "random-channel-dim-0": (
        lambda: random_channel(0, 1, 1, 0),
        ValueError, "dimensions must be positive"),
    "random-operation-dim-0": (
        lambda: random_operation(0, 3, 1, 0),
        ValueError, "dimensions must be positive"),
    "random-density-dim-0": (
        lambda: random_density(0, 0),
        ValueError, "dimensions must be positive"),
    "tester-from-circuit-h-in-0": (
        lambda: tester_from_circuit(np.eye(2) / 2, [np.eye(2)], h_in=0, h_out=1),
        ValueError, "dimensions must be positive"),
    # A 0-d first POVM element raised IndexError.
    "check-povm-0d": (
        lambda: check_povm([1.0]),
        ValueError, "POVM elements must be matrices, got shape ()"),
    "programmable-povm-0d": (
        lambda: programmable_povm([1.0], [[1.0]]),
        ValueError, "joint POVM elements must be matrices, got shape ()"),
    "povm-as-channel-0d": (
        lambda: povm_as_channel([1.0]),
        ValueError, "POVM elements must be matrices, got shape ()"),
    # Priors of two outcomes in a 2-D array raised IndexError (1x2) or TypeError (2x1).
    "discrimination-priors-row": (
        lambda: discrimination_probability(
            _ket0_tester(), [identity_operation(2)] * 2, [[0.5, 0.5]]),
        ValueError,
        "need one channel and one prior per outcome (2), got 2 channels and priors of shape (1, 2)"),
    "discrimination-priors-column": (
        lambda: discrimination_probability(
            _ket0_tester(), [identity_operation(2)] * 2, [[0.5], [0.5]]),
        ValueError,
        "need one channel and one prior per outcome (2), got 2 channels and priors of shape (2, 1)"),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_rejection_names_its_cause(case):
    build, error, message = REJECTIONS[case]
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message

