"""Command-line interface: load, check, realize and evaluate supermap files.

Every command prints a single JSON report to stdout (diagnostics go to
stderr) and exits 0 when all requested checks pass, 1 when a check fails,
and 2 on malformed input.

The argument parser is built once per process; each call looks its
``cmd_*`` handler up by subcommand name, so a replaced handler is the one
that runs.  Matrices are handed to ``io`` as arrays, which it writes
without building nested lists.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path

import numpy as np

from . import io
from .applications import ProgrammableDevice, TomographySetup, is_faithful, programmable_channel
from .linalg import EQ_TOL, _cap_non_finite, frob, is_density_matrix
from .operations import (
    KrausSet,
    QuantumOperation,
    _kraus_choi,
    apply_operation,
    choi_residuals,
    choi_to_kraus,
    effect_of,
    kraus_to_choi,
)
from .realization import circuit_to_supermap, realize, realize_probabilistic
from .selftest import CORRUPTIONS, run_selftest
from .supermap import (
    _identity_map_residual,
    action_distance,
    determinism_certificate,
    effect_map_of,
    is_deterministic,
)
from .testers import evaluate, is_informationally_complete, make_tester

PASS = 0
FAIL = 1
MALFORMED = 2


class CheckFailure(Exception):
    """A semantic check failed; carries the report to emit before exit 1."""

    def __init__(self, report: dict):
        super().__init__(report.get("check", "check"))
        self.report = report


def _emit(report: dict) -> int:
    print(io.dumps17(report))
    return PASS if report["pass"] else FAIL


def _finite(x):
    """x with each float in it passed through ``_cap_non_finite``."""
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return list(map(_finite, x))
    return _cap_non_finite(x) if isinstance(x, (float, np.floating)) else x


def _report(check: str, ok: bool, residual: float, details: dict) -> dict:
    return {
        "check": check,
        "pass": bool(ok),
        "residual": _finite(float(max(residual, 0.0))),
        "details": _finite(details),
    }


@contextlib.contextmanager
def _fails_as(check: str, residual: float = 0.0):
    """Turn a ValueError raised in the block into ``check``'s failing report, with
    the residual a NotDeterministicError names, if any, in place of ``residual``."""
    try:
        yield
    except ValueError as exc:
        residual = getattr(exc, "residual", None) or residual
        raise CheckFailure(_report(check, False, residual, {"error": str(exc)}))


def _write_out(args, details: dict, files) -> None:
    """Save JSON files under ``--out``, when it is given, and record where.

    ``files`` is one (name, object) pair, recorded in details["written"] as
    the file's path, or a dict of them, recorded as the directory.  An
    ``--out`` that cannot be created or written is malformed input.
    """
    if args.out is None:
        return
    out = Path(args.out)
    single = isinstance(files, tuple)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, obj in [files] if single else files.items():
            io.save_json(out / name, obj)
    except OSError as exc:
        raise io.FileFormatError(f"cannot write --out {out}: {exc}") from exc
    details["written"] = str(out / files[0] if single else out)


def cmd_check_op(args) -> dict:
    dim_in, dim_out, choi = io.operation_from_json(io.load_json(args.path))
    # The verdicts QuantumOperation enforces; --tol governs only "channel".
    res = choi_residuals(choi, dim_in, dim_out)
    channel = res["channel_residual"] / np.sqrt(dim_in) <= args.tol
    worst = max(res["hermiticity"], -min(res["min_eig"], 0.0), res["trace_increase"])
    return _report(
        "check-op",
        res["cp"] and res["hermitian"] and res["trace_non_increasing"],
        worst,
        {
            "cp": res["cp"],
            "hermitian": res["hermitian"],
            "trace_non_increasing": res["trace_non_increasing"],
            "channel": channel,
            "min_eigenvalue": res["min_eig"],
            "hermiticity_residual": res["hermiticity"],
            "channel_residual": res["channel_residual"],
        },
    )


def cmd_kraus2choi(args) -> dict:
    dim_in, dim_out, ops = io.kraus_set_from_json(io.load_json(args.path))
    with _fails_as("kraus2choi"):
        op = kraus_to_choi(KrausSet(dim_in, dim_out, ops))
    payload = io.Rendered(io._operation_doc(op.dim_in, op.dim_out, op.choi))
    details: dict = {"operation": payload}
    _write_out(args, details, ("operation.json", payload))
    return _report("kraus2choi", True, 0.0, details)


def cmd_choi2kraus(args) -> dict:
    dim_in, dim_out, choi = io.operation_from_json(io.load_json(args.path))
    with _fails_as("choi2kraus"):
        op = QuantumOperation(dim_in, dim_out, choi)
    kraus = choi_to_kraus(op)
    # The round trip's Choi operator is positive by construction: not validated again.
    roundtrip = frob(_kraus_choi(kraus) - op.choi)
    payload = io.Rendered(io._kraus_set_doc(dim_in, dim_out, kraus.operators))
    details: dict = {"kraus_count": len(kraus.operators), "kraus": payload}
    _write_out(args, details, ("kraus.json", payload))
    return _report("choi2kraus", roundtrip <= args.tol, roundtrip, details)


def cmd_apply(args) -> dict:
    dim_in, dim_out, choi = io.operation_from_json(io.load_json(args.op))
    rho = io.matrix_from_json(io.load_json(args.state))
    with _fails_as("apply"):
        op = QuantumOperation(dim_in, dim_out, choi)
        out_state = apply_operation(op, rho)
        if not is_density_matrix(rho):
            raise ValueError("state is not a density matrix")
    payload = io.Rendered(out_state)
    details = {"probability": float(np.trace(out_state).real), "output": payload}
    _write_out(args, details, ("output_state.json", payload))
    return _report("apply", True, 0.0, details)


def cmd_supermap(args) -> dict:
    s = io.supermap_from_json(io.load_json(args.path))
    cert = determinism_certificate(s)
    if args.check == "deterministic":
        details = {"dual_factorization_residual": cert.product_residual,
                   "normalization_residual": cert.tp_residual}
        return _report("supermap-deterministic", is_deterministic(s, args.tol), cert.residual, details)
    if args.check == "prob-preserving":
        with _fails_as("supermap-prob-preserving", cert.residual):
            residual = _identity_map_residual(s, args.tol)
        return _report("supermap-prob-preserving", residual <= args.tol, residual, {})
    # effect-map
    with _fails_as("supermap-effect-map", cert.residual):
        em = effect_map_of(s, args.tol)
    payload = [io.Rendered(n) for n in em.kraus]
    details: dict = {"kraus_count": len(em.kraus), "kraus": payload}
    _write_out(args, details, {f"effect_map_{j}.json": mat for j, mat in enumerate(payload)})
    return _report("supermap-effect-map", True, cert.residual, details)


def _circuit_details(args, circuit, **residuals) -> dict:
    """Details of a realization report; ``--out`` gets V, W, any projectors and meta.json."""
    meta = {"dim_a": circuit.dim_a, "dim_b": circuit.dim_b, **residuals}
    details = dict(meta)
    _write_out(args, details, {
        "v.json": circuit.v,
        "w.json": circuit.w,
        **{f"projector_{j}.json": p for j, p in enumerate(circuit.projectors or ())},
        "meta.json": meta,
    })
    return details


def cmd_realize(args) -> dict:
    s = io.supermap_from_json(io.load_json(args.path))
    with _fails_as("realize", determinism_certificate(s).residual):
        circuit = realize(s, args.tol)
    rebuilt = circuit_to_supermap(circuit, (s.h_in, s.h_out, s.k_in, s.k_out))
    residual = action_distance(rebuilt, s)
    v_gap, w_gap = circuit.v_residual, circuit.w_residual  # both <= --tol, or realize raised
    details = _circuit_details(
        args, circuit, roundtrip_residual=residual, v_isometry_residual=v_gap, w_isometry_residual=w_gap
    )
    return _report("realize", residual <= args.tol, max(residual, v_gap, w_gap), details)


def cmd_realize_prob(args) -> dict:
    parts = [io.supermap_from_json(io.load_json(p)) for p in args.paths]
    with _fails_as("realize-prob"):
        circuit = realize_probabilistic(parts, args.tol)
    rebuilt = circuit_to_supermap(
        circuit, (parts[0].h_in, parts[0].h_out, parts[0].k_in, parts[0].k_out)
    )
    residuals = [action_distance(r, p) for r, p in zip(rebuilt, parts)]
    worst = max(residuals)
    details = _circuit_details(args, circuit, part_residuals=residuals)
    return _report("realize-prob", worst <= args.tol, worst, details)


def _load_tester(effect_paths, h_out: int, h_in: int, tol: float, check_name: str):
    effects = [io.matrix_from_json(io.load_json(p)) for p in effect_paths]
    with _fails_as(check_name):
        return make_tester(effects, h_out, h_in, tol)


def cmd_tester_eval(args) -> dict:
    dim_in, dim_out, choi = io.operation_from_json(io.load_json(args.op))
    tester = _load_tester(args.effects, dim_out, dim_in, args.tol, "tester-eval")
    with _fails_as("tester-eval"):
        op = QuantumOperation(dim_in, dim_out, choi)
        probs = evaluate(tester, op)
    total_gap = abs(float(sum(probs)) - 1.0)
    return _report(
        "tester-eval",
        True,
        0.0,
        {
            "probabilities": list(probs.probabilities),
            "probability_sum": float(sum(probs)),
            "channel_probability_gap": total_gap,
            "informationally_complete": is_informationally_complete(tester),
        },
    )


def cmd_tester_check(args) -> dict:
    tester = _load_tester(args.effects, args.dim_out, args.dim_in, args.tol, "tester-check")
    return _report(
        "tester-check",
        True,
        0.0,
        {
            "outcomes": tester.n_outcomes,
            "sigma": tester.sigma,
            "informationally_complete": is_informationally_complete(tester),
        },
    )


def cmd_tomography_check(args) -> dict:
    f = io.matrix_from_json(io.load_json(args.state))
    h_in = int(round(np.sqrt(f.shape[0])))
    # Faithfulness does not depend on h_out, so the probe's own h_in serves.
    with _fails_as("tomography-check"):
        setup = TomographySetup(faithful_state=f, h_in=h_in, h_out=h_in)
    faithful = is_faithful(setup, args.tol)
    return _report(
        "tomography-check",
        faithful,
        0.0,
        {"faithful": faithful, "h_in": h_in},
    )


def cmd_program_channel(args) -> dict:
    u = io.matrix_from_json(io.load_json(args.unitary))
    sigma = io.matrix_from_json(io.load_json(args.program))
    with _fails_as("program-channel"):
        dev = ProgrammableDevice(unitary=u, dim_sys=args.dim_sys, dim_prog=sigma.shape[0])
        op = programmable_channel(dev, sigma)
    gap = frob(effect_of(op) - np.eye(op.dim_in))
    payload = io.Rendered(io._operation_doc(op.dim_in, op.dim_out, op.choi))
    details = {"channel_residual": gap, "operation": payload}
    _write_out(args, details, ("operation.json", payload))
    # is_channel's rule on the same effect: rel_residual(effect, I) <= tol.
    return _report("program-channel", gap / np.sqrt(op.dim_in) <= args.tol, gap, details)


def cmd_selftest(args) -> dict:
    return run_selftest(args.seed, args.trials, tol=args.tol, corrupt=args.corrupt)


def _at_least(cast, low):
    """argparse type: the text read by ``cast``, finite and at least ``low``; else exit 2."""

    def parse(text: str):
        value = cast(text)  # unreadable text: argparse's "invalid <cast> value"
        if not low <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite {cast.__name__} >= {low}")
        return value

    parse.__name__ = cast.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supermaps",
        description="Checks, conversions and circuit realizations for quantum "
        "operations and supermaps stored as JSON files.",
    )
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_at_least(float, 0), default=EQ_TOL, help="residual tolerance")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=None, help="directory for emitted files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-op", parents=[tol], help="validate an operation file")
    p.add_argument("path")

    p = sub.add_parser("kraus2choi", parents=[out], help="Kraus set file to Choi operation file")
    p.add_argument("path")

    p = sub.add_parser("choi2kraus", parents=[tol, out], help="operation file to canonical Kraus file")
    p.add_argument("path")

    p = sub.add_parser("apply", parents=[out], help="apply an operation to a state")
    p.add_argument("--op", required=True)
    p.add_argument("--state", required=True)

    p = sub.add_parser("supermap", parents=[tol, out], help="analyze a supermap file")
    p.add_argument("path")
    p.add_argument(
        "--check",
        choices=["deterministic", "prob-preserving", "effect-map"],
        default="deterministic",
    )

    p = sub.add_parser("realize", parents=[tol, out], help="factor a deterministic supermap into isometries")
    p.add_argument("path")

    p = sub.add_parser("realize-prob", parents=[tol, out], help="realize alternatives with ancilla projectors")
    p.add_argument("paths", nargs="+")

    p = sub.add_parser("tester-eval", parents=[tol], help="outcome probabilities of a tester on an operation")
    p.add_argument("effects", nargs="+", help="effect matrix files")
    p.add_argument("--op", required=True)

    p = sub.add_parser("tester-check", parents=[tol], help="validate tester normalization")
    p.add_argument("effects", nargs="+", help="effect matrix files")
    p.add_argument("--dim-out", type=_at_least(int, 1), required=True)
    p.add_argument("--dim-in", type=_at_least(int, 1), required=True)

    p = sub.add_parser("tomography-check", parents=[tol], help="probe-state faithfulness check")
    p.add_argument("--state", required=True)

    p = sub.add_parser("program-channel", parents=[tol, out], help="channel programmed by a state")
    p.add_argument("--unitary", required=True)
    p.add_argument("--program", required=True)
    p.add_argument("--dim-sys", type=_at_least(int, 1), required=True)

    p = sub.add_parser("selftest", parents=[tol], help="randomized property suites")
    p.add_argument("--seed", type=_at_least(int, 0), default=0, help="seed for the suites' fixtures")
    p.add_argument("--trials", type=_at_least(int, 0), default=50)
    p.add_argument("--corrupt", choices=list(CORRUPTIONS), default=None,
                   help="debug: damage a fixture to prove the harness notices")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        # Overflow shows in the report (non-finite numbers read 1e300), not as warnings.
        with np.errstate(all="ignore"):
            report = handler(args)
    except CheckFailure as exc:
        print(io.dumps17(exc.report))
        print(f"error: check failed: {exc.report['details'].get('error', exc)}", file=sys.stderr)
        return FAIL
    except io.FileFormatError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return MALFORMED
    return _emit(report)


if __name__ == "__main__":
    sys.exit(main())
