"""One trace bound: an operation's effect may exceed the identity by POS_TOL,
whatever its dimension or Kraus rank.

The bound is the positivity rule's floor on I - effect, whose largest
eigenvalue is at most 1 for a positive effect, so it carries no scale.  Each
fixture's effect exceeds I by x = (1 ∓ 1e-3) POS_TOL, far above rounding:
``QuantumOperation``, ``KrausSet``, ``check-op``, ``choi2kraus`` and
``kraus2choi`` must accept the low side and refuse the high side, naming x.
A bound scaled by max(1, lambda_max(choi)) or max(1, ||stack||_2²), which
reach d for a channel on dimension d, passes the high side at every d >= 2.
The fixtures are the identity channel and a channel of Kraus rank >= 2 into
a qubit, whose ||stack||_2² (the largest Choi eigenvalue) is not its trace,
and a state whose trace and largest diagonal entry are exact in binary.
"""

import math

import numpy as np
import pytest

from supermaps import io as sio
from supermaps.applications import ProgrammableDevice, programmable_channel
from supermaps.linalg import POS_TOL, random_isometry
from supermaps.operations import KrausSet, QuantumOperation, _kraus_choi, choi_residuals

from test_cli import run_cli

SIDES = (1 - 1e-3, 1 + 1e-3)
DIMS = (1, 2, 4, 16)
KINDS = ("identity", "rank >= 2")


def kraus_fixture(kind: str, d: int, x: float) -> np.ndarray:
    """Kraus operators (r, dim_out, d) with sum E†E = (1 + x) I to rounding."""
    if kind == "identity":
        return np.sqrt(1 + x) * np.eye(d, dtype=complex)[None]
    r = max(2, -(-d // 2))  # into a qubit: enough operators for an isometry
    v = random_isometry(2 * r, d, np.random.default_rng(d))
    ops = np.sqrt(1 + x) * v.reshape(2, r, d).transpose(1, 0, 2)
    assert abs(np.linalg.norm(ops.reshape(r, -1), 2) ** 2 - d) > 0.1  # ||stack||_2² is not the trace
    return ops


def named(x: float) -> str:
    return f"exceeds identity by {x:.3e}"


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", DIMS)
def test_operation_and_check_op_share_the_bound(capsys, tmp_path, d, kind, side):
    x = side * POS_TOL
    ops = kraus_fixture(kind, d, x)
    choi = _kraus_choi(ops)
    dim_out = ops.shape[1]
    assert choi_residuals(choi, d, dim_out)["trace_increase"] == pytest.approx(x, rel=1e-5)
    accepted = True
    try:
        QuantumOperation(d, dim_out, choi)
    except ValueError as exc:
        accepted = False
        assert str(exc) == f"operation increases trace (effect {named(exc.residual)})"
        assert f"{exc.residual:.3e}" == f"{x:.3e}"
    assert accepted is (side < 1)
    path = tmp_path / "op.json"
    sio.save_json(path, sio.operation_to_json(d, dim_out, choi))
    code, report = run_cli(capsys, "check-op", str(path))
    assert report["pass"] is accepted and report["details"]["trace_non_increasing"] is accepted
    assert code == (0 if accepted else 1)
    assert report["residual"] == pytest.approx(x, rel=1e-5)
    code, report = run_cli(capsys, "choi2kraus", str(path))
    assert code == (0 if accepted else 1) and report["pass"] is accepted
    if not accepted:
        assert report["details"]["error"].endswith(f"{named(x)})")
        assert f"{report['residual']:.3e}" == f"{x:.3e}"


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", DIMS + (64,))
def test_kraus_set_bound_is_pos_tol(d, kind, side):
    x = side * POS_TOL
    ops = kraus_fixture(kind, d, x)
    if side < 1:
        KrausSet(d, ops.shape[1], ops)
        return
    with pytest.raises(ValueError) as exc:
        KrausSet(d, ops.shape[1], ops)
    assert str(exc.value) == f"Kraus bound violated: sum E†E {named(x)}"
    assert exc.value.residual == pytest.approx(x, rel=1e-5)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", DIMS)
def test_kraus2choi_bound_is_pos_tol(capsys, tmp_path, d, kind, side):
    ops = kraus_fixture(kind, d, side * POS_TOL)
    path = tmp_path / "kraus.json"
    sio.save_json(path, sio.kraus_set_to_json(d, ops.shape[1], ops))
    code, report = run_cli(capsys, "kraus2choi", str(path))
    assert code == (0 if side < 1 else 1) and report["pass"] is (side < 1)
    if side > 1:
        assert report["details"]["error"] == f"Kraus bound violated: sum E†E {named(side * POS_TOL)}"


@pytest.mark.parametrize("d", [2, 16])
def test_a_device_error_is_refused_at_every_dimension(capsys, tmp_path, d):
    """A unitary scaled by 1 + 2e-9 is a unitary within EQ_TOL, but the channel
    it programs has sum E†E = (1 + 2e-9)² I, which exceeds I by 4e-9 > POS_TOL."""
    u = (1 + 2e-9) * random_isometry(d, d, np.random.default_rng(d))
    dev = ProgrammableDevice(u, d, 1)
    message = "Kraus bound violated: sum E†E exceeds identity by 4.000e-09"
    with pytest.raises(ValueError) as exc:
        programmable_channel(dev, np.eye(1))
    assert str(exc.value) == message
    sio.save_json(tmp_path / "u.json", sio.matrix_to_json(u))
    sio.save_json(tmp_path / "rho.json", sio.matrix_to_json(np.eye(1)))
    code, report = run_cli(capsys, "program-channel", "--unitary", str(tmp_path / "u.json"),
                           "--program", str(tmp_path / "rho.json"), "--dim-sys", str(d))
    assert code == 1 and report["pass"] is False
    assert report["details"]["error"] == message



def test_a_large_diagonal_does_not_widen_the_bound(capsys, tmp_path):
    """A "state" on 256 levels with -2^-30 (inside the positivity rule's floor)
    on 255 diagonal entries and 1 + 255 2^-30 + x on the first, x the first
    multiple of 2^-52 above POS_TOL.  Every partial sum of the diagonal is a
    multiple of 2^-52 below 2, so exact: the trace exceeds 1 by exactly x,
    while the largest diagonal entry, and lambda_max, exceed 1 by 2.4e-7.  A
    bound scaled by either would accept it, by 2.4e-16 against x - POS_TOL =
    8.3e-17."""
    n, steps = 256, math.ceil(POS_TOL * 2**52)
    x = steps * 2.0**-52
    assert x > POS_TOL and x - POS_TOL < (n - 1) * 2.0**-30 * POS_TOL
    diag = np.full(n, -(2.0**-30), dtype=complex)
    diag[0] = (2**52 + (n - 1) * 2**22 + steps) * 2.0**-52
    rho = np.diag(diag)
    with pytest.raises(ValueError) as exc:
        QuantumOperation(1, n, rho)
    assert str(exc.value) == f"operation increases trace (effect {named(x)})" and exc.value.residual == x
    path = tmp_path / "state.json"
    sio.save_json(path, sio.operation_to_json(1, n, rho))
    code, report = run_cli(capsys, "check-op", str(path))
    assert code == 1 and report["details"]["trace_non_increasing"] is False and report["residual"] == x
