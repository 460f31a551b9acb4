"""Quantum supermaps: transformations of quantum operations.

Operations are stored as Choi operators, supermaps as Kraus operators acting
on them.  The package provides Choi/Kraus interconversion, determinism
characterization via the dual map, factorization of deterministic and
probabilistic supermaps into two-isometry circuits with measured ancillas,
process testers (POVMs on operations), and constructions for channel
programming and tomography.
"""

import types

from .linalg import (
    EQ_TOL,
    HERM_TOL,
    POS_TOL,
    ResidualError,
    kron,
    partial_trace,
    permute_systems,
    random_density,
    random_isometry,
)
from .operations import (
    KrausSet,
    QuantumOperation,
    apply_operation,
    choi_to_kraus,
    compose,
    effect_of,
    identity_operation,
    is_channel,
    kraus_to_choi,
    random_channel,
    random_operation,
    tensor,
)
from .supermap import (
    EffectMap,
    NotDeterministicError,
    Supermap,
    action_distance,
    apply_supermap,
    determinism_certificate,
    dual_supermap,
    effect_map_of,
    identity_supermap,
    is_deterministic,
    is_deterministic_effectwise,
    is_normalization_functional,
    is_probability_preserving,
    sum_supermaps,
    tensor_supermaps,
)
from .realization import (
    CircuitRealization,
    circuit_to_supermap,
    delayed_reading_check,
    realize,
    realize_probabilistic,
    run_circuit,
)
from .testers import (
    OutcomeDistribution,
    Tester,
    as_supermap_parts,
    discrimination_probability,
    evaluate,
    is_informationally_complete,
    make_tester,
    prepare_measure_tester,
    tester_from_circuit,
)
from .applications import (
    ProgrammableDevice,
    TomographySetup,
    informationally_complete_tester_for,
    is_faithful,
    povm_as_channel,
    programmable_channel,
    programmable_povm,
    sandwich_supermap,
    tomography_supermap,
)

__version__ = "0.1.0"

# Every public name imported above.  The imports also bind each submodule,
# and ``types`` is one too: modules are left out.
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, types.ModuleType)]
