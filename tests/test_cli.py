"""Command-line surface: file formats, reports, exit codes."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from supermaps import cli
from supermaps import io as sio
from supermaps.applications import ProgrammableDevice, programmable_channel
from supermaps.cli import build_parser, main
from supermaps.linalg import (
    EQ_TOL,
    HERM_TOL,
    POS_TOL,
    frob,
    kron,
    random_density,
    random_isometry,
    rel_residual,
)
from supermaps.operations import (
    KrausSet,
    QuantumOperation,
    apply_operation,
    choi_to_kraus,
    effect_of,
    identity_operation,
    is_channel,
    kraus_to_choi,
    random_channel,
)
from supermaps.supermap import Supermap, determinism_certificate, effect_map_of, identity_supermap
from supermaps.testers import prepare_measure_tester

from conftest import I2, X, Y, Z, bell_projector
from test_io_codec import ref_render
from test_supermap import random_circuit_supermap

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def identity_op_file(tmp_path):
    path = tmp_path / "id_op.json"
    sio.save_json(path, sio.operation_to_json(2, 2, identity_operation(2).choi))
    return str(path)


@pytest.fixture
def identity_map_file(tmp_path):
    path = tmp_path / "id_map.json"
    sio.save_json(path, sio.supermap_to_json(identity_supermap(2, 2)))
    return str(path)


class TestSerialization:
    def test_matrix_roundtrip_is_bit_exact(self, rng, tmp_path):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        path = tmp_path / "m.json"
        sio.save_json(path, sio.matrix_to_json(m))
        back = sio.matrix_from_json(sio.load_json(path))
        np.testing.assert_array_equal(back, m)

    def test_seventeen_digit_rendering(self):
        text = sio.dumps17({"x": 1 / 3})
        assert "0.33333333333333331" in text

    def test_operation_roundtrip(self, rng, tmp_path):
        op = random_channel(2, 3, 2, rng)
        path = tmp_path / "op.json"
        sio.save_json(path, sio.operation_to_json(op.dim_in, op.dim_out, op.choi))
        dim_in, dim_out, choi = sio.operation_from_json(sio.load_json(path))
        assert (dim_in, dim_out) == (2, 3)
        np.testing.assert_array_equal(choi, op.choi)

    def test_supermap_roundtrip(self, rng, tmp_path):
        s = random_circuit_supermap(rng)
        path = tmp_path / "map.json"
        sio.save_json(path, sio.supermap_to_json(s))
        back = sio.supermap_from_json(sio.load_json(path))
        for a, b in zip(back.kraus, s.kraus):
            np.testing.assert_array_equal(a, b)

    def test_schema_violations_raise(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2, "data": [[1, 0]]}')
        with pytest.raises(sio.FileFormatError):
            sio.matrix_from_json(sio.load_json(path))


class TestCheckOp:
    def test_identity_passes(self, capsys, identity_op_file):
        code, report = run_cli(capsys, "check-op", identity_op_file)
        assert code == 0
        assert report["pass"] and report["details"]["channel"]
        assert report["residual"] <= 1e-12

    def test_half_scaled_is_valid_but_not_channel(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        sio.save_json(path, sio.operation_to_json(2, 2, bell_projector(2) / 2))
        code, report = run_cli(capsys, "check-op", str(path))
        assert code == 0
        assert report["details"]["cp"] and not report["details"]["channel"]

    def test_negative_matrix_fails_with_eigenvalue(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        sio.save_json(path, sio.operation_to_json(2, 2, np.diag([1.0, 1.0, 1.0, -0.5])))
        code, report = run_cli(capsys, "check-op", str(path))
        assert code == 1
        assert not report["details"]["cp"]
        assert report["details"]["min_eigenvalue"] == pytest.approx(-0.5)

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["check-op", str(path)]) == 2
        assert main(["check-op", str(tmp_path / "missing.json")]) == 2


class TestConversions:
    def test_kraus2choi(self, capsys, tmp_path):
        path = tmp_path / "kraus.json"
        sio.save_json(path, sio.kraus_set_to_json(2, 2, [I2]))
        code, report = run_cli(capsys, "kraus2choi", str(path), "--out", str(tmp_path / "o"))
        assert code == 0
        written = sio.operation_from_json(sio.load_json(tmp_path / "o" / "operation.json"))
        np.testing.assert_allclose(written[2], bell_projector(2), atol=1e-15)

    def test_kraus_bound_violation_exits_1(self, capsys, tmp_path):
        path = tmp_path / "kraus.json"
        sio.save_json(path, sio.kraus_set_to_json(2, 2, [1.5 * I2]))
        code, report = run_cli(capsys, "kraus2choi", str(path))
        assert code == 1

    def test_choi2kraus_roundtrip(self, capsys, rng, tmp_path):
        op = random_channel(2, 2, 3, rng)
        path = tmp_path / "op.json"
        sio.save_json(path, sio.operation_to_json(2, 2, op.choi))
        code, report = run_cli(capsys, "choi2kraus", str(path), "--out", str(tmp_path / "k"))
        assert code == 0 and report["residual"] <= 1e-8
        dim_in, dim_out, ops = sio.kraus_set_from_json(sio.load_json(tmp_path / "k" / "kraus.json"))
        back = kraus_to_choi(KrausSet(dim_in, dim_out, tuple(ops)))
        assert np.linalg.norm(back.choi - op.choi) <= 1e-8

    def test_zero_operation_round_trip(self, capsys, tmp_path):
        """choi2kraus writes the zero operation as an empty Kraus set, which kraus2choi reads back."""
        path = tmp_path / "zero.json"
        sio.save_json(path, sio.operation_to_json(2, 3, np.zeros((6, 6))))
        code, report = run_cli(capsys, "choi2kraus", str(path), "--out", str(tmp_path / "k"))
        assert code == 0 and report["details"]["kraus_count"] == 0
        code, report = run_cli(capsys, "kraus2choi", str(tmp_path / "k" / "kraus.json"),
                               "--out", str(tmp_path / "o"))
        assert code == 0 and report["pass"]
        dim_in, dim_out, choi = sio.operation_from_json(sio.load_json(tmp_path / "o" / "operation.json"))
        assert (dim_in, dim_out) == (2, 3) and not choi.any()
        # A supermap file still needs at least one Kraus operator.
        map_path = tmp_path / "map.json"
        sio.save_json(map_path, {"h_in": 2, "h_out": 2, "k_in": 2, "k_out": 2, "kraus": []})
        code = main(["supermap", str(map_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: malformed input: missing non-empty 'kraus' array\n"

    def test_apply(self, capsys, tmp_path, identity_op_file, rng):
        rho = random_density(2, rng)
        spath = tmp_path / "rho.json"
        sio.save_json(spath, sio.matrix_to_json(rho))
        code, report = run_cli(capsys, "apply", "--op", identity_op_file, "--state", str(spath))
        assert code == 0
        out = sio.matrix_from_json(report["details"]["output"])
        np.testing.assert_allclose(out, rho, atol=1e-12)
        assert report["details"]["probability"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "rho", [2.0 * I2, 1e160 * I2, np.diag([1.5, -0.5])], ids=["2I", "1e160I", "not-psd"]
    )
    def test_apply_rejects_a_matrix_that_is_not_a_state(self, capsys, tmp_path, identity_op_file, rho):
        spath = tmp_path / "rho.json"
        sio.save_json(spath, sio.matrix_to_json(rho))
        code = main(["apply", "--op", identity_op_file, "--state", str(spath)])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 1 and captured.out == sio.dumps17(report) + "\n"
        assert report == {"check": "apply", "pass": False, "residual": 0.0,
                          "details": {"error": "state is not a density matrix"}}
        assert captured.err == "error: check failed: state is not a density matrix\n"


class TestSupermapCommand:
    def test_identity_deterministic(self, capsys, identity_map_file):
        code, report = run_cli(capsys, "supermap", identity_map_file, "--check", "deterministic")
        assert code == 0 and report["pass"]

    def test_scaled_identity_fails_with_residual(self, capsys, tmp_path):
        s = Supermap(2, 2, 2, 2, (np.sqrt(0.5) * np.eye(4),))
        path = tmp_path / "half.json"
        sio.save_json(path, sio.supermap_to_json(s))
        code, report = run_cli(capsys, "supermap", str(path), "--check", "deterministic")
        assert code == 1
        assert report["residual"] > 0.1
        # The details hold the two residuals --tol is compared with.
        cert = determinism_certificate(s)
        assert report["details"] == {
            "dual_factorization_residual": cert.product_residual,
            "normalization_residual": cert.tp_residual,
        }
        assert report["residual"] == max(report["details"].values())

    def test_effect_map_emission(self, capsys, rng, tmp_path):
        s = random_circuit_supermap(rng)
        path = tmp_path / "map.json"
        sio.save_json(path, sio.supermap_to_json(s))
        code, report = run_cli(capsys, "supermap", str(path), "--check", "effect-map")
        assert code == 0
        from supermaps.supermap import effect_map_of

        expected = effect_map_of(s).kraus
        got = [sio.matrix_from_json(m) for m in report["details"]["kraus"]]
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_prob_preserving(self, capsys, identity_map_file):
        code, report = run_cli(capsys, "supermap", identity_map_file, "--check", "prob-preserving")
        assert code == 0 and report["pass"]

    @pytest.mark.parametrize("scale", [0.999, 1.0005])
    def test_three_commands_agree_under_tol(self, capsys, tmp_path, scale):
        # The determinism residual is |scale² − 1|, between 1e-8 and 1e-2. The
        # effect map and the circuit are checked at --tol as well, so all
        # three commands accept the supermap at 1e-2 and reject it at 1e-8.
        path = tmp_path / "scaled.json"
        sio.save_json(path, sio.supermap_to_json(Supermap(2, 2, 2, 2, (scale * np.eye(4),))))
        commands = (
            ["supermap", str(path), "--check", "deterministic"],
            ["supermap", str(path), "--check", "effect-map"],
            ["realize", str(path)],
        )
        for tol_flag, expected in ((["--tol", "1e-2"], 0), ([], 1)):
            for argv in commands:
                code, report = run_cli(capsys, *argv, *tol_flag)
                assert (code, report["pass"]) == (expected, expected == 0), argv + tol_flag


class TestRealizeCommands:
    def test_identity_realization(self, capsys, tmp_path, identity_map_file):
        out = tmp_path / "circuit"
        code, report = run_cli(capsys, "realize", identity_map_file, "--out", str(out))
        assert code == 0
        assert report["details"]["dim_a"] == report["details"]["dim_b"] == 1
        assert report["residual"] <= 1e-10
        v = sio.matrix_from_json(sio.load_json(out / "v.json"))
        w = sio.matrix_from_json(sio.load_json(out / "w.json"))
        meta = sio.load_json(out / "meta.json")
        assert v.shape == (2, 2) and w.shape == (2, 2)
        assert meta["roundtrip_residual"] <= 1e-10

    def test_random_fixture_roundtrip(self, capsys, rng, tmp_path):
        s = random_circuit_supermap(rng)
        path = tmp_path / "map.json"
        sio.save_json(path, sio.supermap_to_json(s))
        code, report = run_cli(capsys, "realize", str(path), "--out", str(tmp_path / "c"))
        assert code == 0
        assert report["details"]["roundtrip_residual"] <= 1e-8

    def test_non_deterministic_exits_1(self, capsys, tmp_path):
        s = Supermap(2, 2, 2, 2, (np.sqrt(0.5) * np.eye(4),))
        path = tmp_path / "half.json"
        sio.save_json(path, sio.supermap_to_json(s))
        code, report = run_cli(capsys, "realize", str(path), "--out", str(tmp_path / "c"))
        assert code == 1
        assert report["details"]["error"] == "supermap is not deterministic (residual 5.000e-01)"

    def test_failing_realizations_report_the_residual_they_name(self, capsys, tmp_path):
        path = tmp_path / "scaled.json"
        sio.save_json(path, sio.supermap_to_json(Supermap(2, 2, 2, 2, (0.9 * np.eye(4),))))
        reports = [run_cli(capsys, command, str(path)) for command in ("realize", "realize-prob")]
        for code, report in reports:
            assert code == 1
            assert report["details"]["error"] == "supermap is not deterministic (residual 1.900e-01)"
            assert report["residual"] == pytest.approx(0.19, abs=1e-12)
        assert reports[0][1]["residual"] == reports[1][1]["residual"]

    def test_realize_prob(self, capsys, rng, tmp_path):
        s = random_circuit_supermap(rng, dim_a=2)
        paths = []
        for j, k in enumerate(s.kraus):
            part = Supermap(s.h_in, s.h_out, s.k_in, s.k_out, (k,))
            p = tmp_path / f"part{j}.json"
            sio.save_json(p, sio.supermap_to_json(part))
            paths.append(str(p))
        out = tmp_path / "circuit"
        code, report = run_cli(capsys, "realize-prob", *paths, "--out", str(out))
        assert code == 0
        assert max(report["details"]["part_residuals"]) <= 1e-8
        projectors = [
            sio.matrix_from_json(sio.load_json(out / f"projector_{j}.json"))
            for j in range(len(paths))
        ]
        np.testing.assert_allclose(sum(projectors), np.eye(report["details"]["dim_a"]))


class TestTesterCommands:
    def _effect_files(self, tmp_path, effects):
        paths = []
        for j, e in enumerate(effects):
            p = tmp_path / f"effect{j}.json"
            sio.save_json(p, sio.matrix_to_json(e))
            paths.append(str(p))
        return paths

    def test_coin_flip_eval(self, capsys, rng, tmp_path, identity_op_file):
        sigma = random_density(2, rng)
        paths = self._effect_files(tmp_path, [kron(I2, sigma) / 2] * 2)
        code, report = run_cli(capsys, "tester-eval", *paths, "--op", identity_op_file)
        assert code == 0
        np.testing.assert_allclose(report["details"]["probabilities"], [0.5, 0.5], atol=1e-10)

    def test_prepare_measure_on_identity(self, capsys, tmp_path, identity_op_file):
        t = prepare_measure_tester(KET0, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], h_out=2)
        paths = self._effect_files(tmp_path, t.effects)
        code, report = run_cli(capsys, "tester-eval", *paths, "--op", identity_op_file)
        assert code == 0
        np.testing.assert_allclose(report["details"]["probabilities"], [1.0, 0.0], atol=1e-12)

    def test_unnormalized_exits_1(self, capsys, rng, tmp_path, identity_op_file):
        sigma = random_density(2, rng)
        paths = self._effect_files(tmp_path, [kron(I2, sigma)] * 2)
        code, report = run_cli(capsys, "tester-eval", *paths, "--op", identity_op_file)
        assert code == 1

    def test_tester_check(self, capsys, rng, tmp_path):
        sigma = random_density(2, rng)
        paths = self._effect_files(tmp_path, [kron(I2, sigma) / 2] * 2)
        code, report = run_cli(
            capsys, "tester-check", *paths, "--dim-out", "2", "--dim-in", "2"
        )
        assert code == 0
        assert report["details"]["informationally_complete"] is False
        got_sigma = sio.matrix_from_json(report["details"]["sigma"])
        np.testing.assert_allclose(got_sigma, sigma, atol=1e-12)

    @pytest.mark.parametrize("command", ["tester-eval", "tester-check"])
    def test_completeness_rank_follows_tol(self, capsys, tmp_path, command):
        """The IC rank rule runs at --tol: a relative singular value of 5e-5 counts at 1e-8 only.

        The effects (I + n_j·σ)/4 on a qubit (h_in = 1) take the tetrahedron
        n_j with its z components scaled by eps; the vectorized effects then
        have singular values proportional to (2, c, c, eps·c), c = 2/sqrt(3).
        """
        eps = 5e-5 * np.sqrt(3)
        paulis = (X, Y, eps * Z)
        tetrahedron = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        effects = [(I2 + sum(c * p for c, p in zip(n, paulis))) / 4 for n in tetrahedron]
        s = np.linalg.svd(np.stack([e.reshape(-1) for e in effects]), compute_uv=False)
        assert s[-1] / s[0] == pytest.approx(5e-5, rel=1e-6)
        paths = self._effect_files(tmp_path, effects)
        if command == "tester-eval":
            op_path = tmp_path / "state.json"
            sio.save_json(op_path, sio.operation_to_json(1, 2, KET0))
            argv = [command, *paths, "--op", str(op_path)]
        else:
            argv = [command, *paths, "--dim-out", "2", "--dim-in", "1"]
        for tol_flag, complete in (([], True), (["--tol", "1e-2"], False)):
            code, report = run_cli(capsys, *argv, *tol_flag)
            assert code == 0
            assert report["details"]["informationally_complete"] is complete


class TestTomographyAndProgramming:
    def test_tomography_check_faithful(self, capsys, tmp_path):
        path = tmp_path / "F.json"
        sio.save_json(path, sio.matrix_to_json(bell_projector(2) / 2))
        code, report = run_cli(capsys, "tomography-check", "--state", str(path))
        assert code == 0 and report["details"]["faithful"]

    def test_tomography_check_product_fails(self, capsys, rng, tmp_path):
        rho = random_density(2, rng)
        path = tmp_path / "F.json"
        sio.save_json(path, sio.matrix_to_json(kron(rho, rho)))
        code, report = run_cli(capsys, "tomography-check", "--state", str(path))
        assert code == 1 and not report["details"]["faithful"]

    def test_program_channel_swap(self, capsys, rng, tmp_path):
        swap = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                swap[b * 2 + a, a * 2 + b] = 1.0
        upath = tmp_path / "U.json"
        sio.save_json(upath, sio.matrix_to_json(swap))
        sigma = random_density(2, rng)
        ppath = tmp_path / "sigma.json"
        sio.save_json(ppath, sio.matrix_to_json(sigma))
        code, report = run_cli(
            capsys, "program-channel", "--unitary", str(upath),
            "--program", str(ppath), "--dim-sys", "2",
        )
        assert code == 0
        choi = sio.matrix_from_json(report["details"]["operation"]["choi"])
        np.testing.assert_allclose(choi, kron(sigma, np.eye(2)), atol=1e-10)

    PROGRAM = ["program-channel", "--unitary", "m0.json", "--program", "m1.json", "--dim-sys", "2"]

    # A matrix that parses but has the wrong size for its role is a failed check,
    # named by the type that rejects it, whether or not its size is a square.
    @pytest.mark.parametrize("argv, shapes, error", [
        (["tomography-check", "--state", "m0.json"], [(3, 3)], "probe state must be 4x4, got (3, 3)"),
        (["tomography-check", "--state", "m0.json"], [(4, 5)], "probe state must be 4x4, got (4, 5)"),
        (PROGRAM, [(6, 6), (2, 2)], "unitary must be 4x4, got (6, 6)"),
        (PROGRAM, [(4, 5), (2, 2)], "unitary must be 4x4, got (4, 5)"),
        (PROGRAM, [(4, 4), (2, 3)], "program shape (2, 3) != (2, 2)"),
    ])
    def test_wrong_size_matrix_is_a_failed_check(self, capsys, monkeypatch, tmp_path, argv,
                                                 shapes, error):
        monkeypatch.chdir(tmp_path)
        for j, shape in enumerate(shapes):
            sio.save_json(f"m{j}.json", sio.matrix_to_json(np.eye(*shape)))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out) == {
            "check": argv[0], "pass": False, "residual": 0, "details": {"error": error}
        }
        assert captured.err == f"error: check failed: {error}\n"


class TestChannelBoundary:
    """is_channel, check-op and program-channel make one relative channel test."""

    @pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
    def test_three_sites_agree_at_the_boundary(self, capsys, rng, tmp_path, side):
        # A slightly contracting interaction (still unitary at EQ_TOL) makes a
        # programmed channel whose effect is (1 - 2e-9)² I: residual ~4e-9.
        d_sys, d_prog = 2, 2
        u = (1 - 2e-9) * random_isometry(d_sys * d_prog, d_sys * d_prog, rng)
        sigma = random_density(d_prog, rng)
        op = programmable_channel(ProgrammableDevice(u, d_sys, d_prog), sigma)
        residual = rel_residual(effect_of(op), np.eye(d_sys))
        assert 1e-9 < residual < 1e-8
        tol = residual / side  # the residual sits at side * tol
        expected = side < 1
        assert is_channel(op, tol) == expected

        paths = {}
        for name, obj in (
            ("u", sio.matrix_to_json(u)),
            ("sigma", sio.matrix_to_json(sigma)),
            ("op", sio.operation_to_json(op.dim_in, op.dim_out, op.choi)),
        ):
            paths[name] = str(tmp_path / f"{name}.json")
            sio.save_json(paths[name], obj)
        _, report = run_cli(capsys, "check-op", paths["op"], "--tol", repr(tol))
        assert report["details"]["channel"] is expected
        code, report = run_cli(
            capsys, "program-channel", "--unitary", paths["u"], "--program", paths["sigma"],
            "--dim-sys", str(d_sys), "--tol", repr(tol),
        )
        assert report["pass"] is expected and code == (0 if expected else 1)


class TestTraceIncreaseBoundary:
    """check-op's trace-increase test is a positivity test at POS_TOL, which --tol does not move."""

    @pytest.mark.parametrize("tol_flag", [[], ["--tol", "1e-2"]])
    @pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
    def test_boundary_is_pos_tol(self, capsys, tmp_path, side, tol_flag):
        # (1 + x) times the identity channel: effect (1 + x) I, largest Choi
        # eigenvalue 2 (1 + x), so the bound is POS_TOL * 2 (1 + x) and
        # x = side * bound solves to x = a / (1 - a) with a = side * 2 POS_TOL.
        a = side * 2 * POS_TOL
        x = a / (1 - a)
        path = tmp_path / "op.json"
        sio.save_json(path, sio.operation_to_json(2, 2, (1 + x) * identity_operation(2).choi))
        code, report = run_cli(capsys, "check-op", str(path), *tol_flag)
        assert report["details"]["trace_non_increasing"] is (side < 1)
        assert code == (0 if side < 1 else 1)

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
    def test_choi2kraus_at_the_boundary(self, capsys, tmp_path, d, side):
        """choi2kraus accepts exactly the operations check-op accepts.

        (1 + x) times the identity channel on dimension d has largest Choi
        eigenvalue d (1 + x); its one Kraus operator sqrt(1 + x) I must pass
        the Kraus bound at that same scale.
        """
        a = side * d * POS_TOL
        x = a / (1 - a)
        path = tmp_path / "op.json"
        sio.save_json(path, sio.operation_to_json(d, d, (1 + x) * identity_operation(d).choi))
        code, report = run_cli(capsys, "choi2kraus", str(path))
        assert code == (0 if side < 1 else 1)
        assert report["pass"] is (side < 1)
        if side < 1:
            assert report["details"]["kraus_count"] == 1
            (op,) = sio.kraus_set_from_json(report["details"]["kraus"])[2]
            np.testing.assert_allclose(op, np.sqrt(1 + x) * np.eye(d), rtol=0, atol=1e-12)
        else:
            assert "increases trace" in report["details"]["error"]


@pytest.mark.parametrize(
    "argv, files, written",
    [
        (["kraus2choi", "{kraus}"], ["operation.json"], "operation.json"),
        (["choi2kraus", "{op}"], ["kraus.json"], "kraus.json"),
        (["apply", "--op", "{op}", "--state", "{rho}"], ["output_state.json"], "output_state.json"),
        (["supermap", "{map}", "--check", "effect-map"], ["effect_map_0.json"], ""),
        (["realize", "{map}"], ["meta.json", "v.json", "w.json"], ""),
        (["realize-prob", "{map}"], ["meta.json", "projector_0.json", "v.json", "w.json"], ""),
        (
            ["program-channel", "--unitary", "{unitary}", "--program", "{rho}", "--dim-sys", "1"],
            ["operation.json"],
            "operation.json",
        ),
    ],
)
def test_out_files_and_written(capsys, tmp_path, identity_op_file, identity_map_file,
                               argv, files, written):
    """--out writes each command's files; details["written"] is the one file or the directory."""
    inputs = {"op": identity_op_file, "map": identity_map_file}
    for name, obj in (
        ("kraus", sio.kraus_set_to_json(2, 2, [I2])),
        ("rho", sio.matrix_to_json(np.eye(2) / 2)),
        ("unitary", sio.matrix_to_json(np.eye(2))),
    ):
        inputs[name] = str(tmp_path / f"{name}.json")
        sio.save_json(inputs[name], obj)
    out = tmp_path / "out"
    code, report = run_cli(capsys, *[a.format(**inputs) for a in argv], "--out", str(out))
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == files
    assert report["details"]["written"] == str(out / written if written else out)
    assert list(report["details"])[-1] == "written"


def _payload_case(command, rng, tmp_path):
    """(argv, pass, residual, details without "written", {file name: payload}) of a command.

    The payloads come from the library and the file reader, not from the CLI.
    """

    def put(name, obj):
        sio.save_json(tmp_path / name, obj)
        return str(tmp_path / name)

    def op_file():
        path = put("op.json", sio.operation_to_json(2, 3, random_channel(2, 3, 2, rng).choi))
        dim_in, dim_out, choi = sio.operation_from_json(sio.load_json(path))
        return path, QuantumOperation(dim_in, dim_out, choi)

    if command == "kraus2choi":
        ops = choi_to_kraus(random_channel(2, 3, 2, rng)).operators
        path = put("kraus.json", sio.kraus_set_to_json(2, 3, ops))
        op = kraus_to_choi(KrausSet(2, 3, tuple(sio.kraus_set_from_json(sio.load_json(path))[2])))
        payload = sio.operation_to_json(2, 3, op.choi)
        return [command, path], True, 0.0, {"operation": payload}, {"operation.json": payload}
    if command == "choi2kraus":
        path, op = op_file()
        kraus = choi_to_kraus(op)
        roundtrip = frob(kraus_to_choi(kraus).choi - op.choi)
        payload = sio.kraus_set_to_json(2, 3, kraus.operators)
        details = {"kraus_count": len(kraus.operators), "kraus": payload}
        return [command, path], roundtrip <= EQ_TOL, roundtrip, details, {"kraus.json": payload}
    if command == "apply":
        path, op = op_file()
        state = put("rho.json", sio.matrix_to_json(random_density(2, rng)))
        out_state = apply_operation(op, sio.matrix_from_json(sio.load_json(state)))
        payload = sio.matrix_to_json(out_state)
        details = {"probability": float(np.trace(out_state).real), "output": payload}
        argv = [command, "--op", path, "--state", state]
        return argv, True, 0.0, details, {"output_state.json": payload}
    if command == "program-channel":
        u = put("u.json", sio.matrix_to_json(random_isometry(4, 4, rng)))
        sigma = put("sigma.json", sio.matrix_to_json(random_density(2, rng)))
        dev = ProgrammableDevice(sio.matrix_from_json(sio.load_json(u)), 2, 2)
        op = programmable_channel(dev, sio.matrix_from_json(sio.load_json(sigma)))
        gap = frob(effect_of(op) - np.eye(2))
        payload = sio.operation_to_json(2, 2, op.choi)
        argv = [command, "--unitary", u, "--program", sigma, "--dim-sys", "2"]
        details = {"channel_residual": gap, "operation": payload}
        return argv, is_channel(op), gap, details, {"operation.json": payload}
    path = put("map.json", sio.supermap_to_json(random_circuit_supermap(rng, (2, 3, 1, 2))))
    s = sio.supermap_from_json(sio.load_json(path))
    payload = [sio.matrix_to_json(n) for n in effect_map_of(s).kraus]
    details = {"kraus_count": len(payload), "kraus": payload}
    files = {f"effect_map_{j}.json": m for j, m in enumerate(payload)}
    return ["supermap", path, "--check", "effect-map"], True, determinism_certificate(s).residual, details, files


@pytest.mark.parametrize("command", ["kraus2choi", "choi2kraus", "apply", "program-channel", "effect-map"])
def test_payloads_render_as_the_reference(capsys, rng, tmp_path, command):
    """stdout and each --out file are the reference rendering of the library's payloads."""
    argv, passed, residual, details, files = _payload_case(command, rng, tmp_path)
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    written = out if command == "effect-map" else out / next(iter(files))
    report = {
        "check": "supermap-effect-map" if command == "effect-map" else command,
        "pass": passed,
        "residual": float(max(residual, 0.0)),
        "details": {**details, "written": str(written)},
    }
    assert passed and code == 0
    assert capsys.readouterr().out == ref_render(report, 0) + "\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    for name, payload in files.items():
        assert (out / name).read_text(encoding="utf-8") == ref_render(payload, 0) + "\n"


class TestSelftest:
    def test_passes_and_is_deterministic(self, capsys):
        code1, report1 = run_cli(capsys, "selftest", "--seed", "5", "--trials", "10")
        code2, report2 = run_cli(capsys, "selftest", "--seed", "5", "--trials", "10")
        assert code1 == code2 == 0
        assert report1 == report2

    def test_zero_trials_vacuous(self, capsys):
        code, report = run_cli(capsys, "selftest", "--seed", "1", "--trials", "0")
        assert code == 0 and report["details"] == {}

    @pytest.mark.parametrize("corruption", ["v-isometry", "tester-norm"])
    def test_corruption_detected(self, capsys, corruption):
        code, report = run_cli(
            capsys, "selftest", "--seed", "5", "--trials", "10", "--corrupt", corruption
        )
        assert code == 1 and not report["pass"]

    def test_corrupt_tester_at_loose_tol_reports(self, capsys):
        """At --tol 0.3 some damaged testers pass the normalization check and are built at 0.3 too."""
        code, report = run_cli(capsys, "selftest", "--tol", "0.3", "--corrupt", "tester-norm")
        assert code == 1 and not report["pass"]
        assert report["details"]["tester-normalization"]["pass"] is False


def test_module_entry_point(identity_op_file):
    proc = subprocess.run(
        [sys.executable, "-m", "supermaps.cli", "check-op", identity_op_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


class TestToleranceFlag:
    def test_loose_tolerance_accepts_near_deterministic(self, capsys, rng, tmp_path):
        s = random_circuit_supermap(rng)
        nudged = Supermap(
            s.h_in, s.h_out, s.k_in, s.k_out,
            ((1.0 + 3e-7) * s.kraus[0], *s.kraus[1:]),
        )
        path = tmp_path / "near.json"
        sio.save_json(path, sio.supermap_to_json(nudged))
        strict_code, _ = run_cli(capsys, "supermap", str(path), "--check", "deterministic")
        loose_code, _ = run_cli(
            capsys, "supermap", str(path), "--check", "deterministic", "--tol", "1e-4"
        )
        assert strict_code == 1 and loose_code == 0

    def test_prob_preserving_failure_exits_1(self, capsys, rng, tmp_path):
        # deterministic but with a non-trivial effect map
        from test_supermap import feed_fixed_state_supermap

        s = feed_fixed_state_supermap(random_density(2, rng), k_in=2, h_out=2)
        path = tmp_path / "feeder.json"
        sio.save_json(path, sio.supermap_to_json(s))
        code, report = run_cli(capsys, "supermap", str(path), "--check", "prob-preserving")
        assert code == 1 and not report["pass"]
        assert report["residual"] > 1e-3


class TestIoEdgeCases:
    def test_non_finite_rejected_on_write(self):
        with pytest.raises(ValueError, match="non-finite"):
            sio.dumps17({"x": float("nan")})

    def test_non_positive_dims_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 0, "cols": 2, "data": []}')
        with pytest.raises(sio.FileFormatError, match="positive"):
            sio.matrix_from_json(sio.load_json(path))

    def test_non_finite_entry_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [[1e999, 0]]}')
        with pytest.raises(sio.FileFormatError, match="finite"):
            sio.matrix_from_json(sio.load_json(path))

    def test_supermap_wrong_kraus_shape_rejected(self, tmp_path):
        obj = {
            "h_in": 2, "h_out": 2, "k_in": 2, "k_out": 2,
            "kraus": [{"rows": 2, "cols": 2, "data": [[1, 0]] * 4}],
        }
        path = tmp_path / "bad_map.json"
        sio.save_json(path, obj)
        with pytest.raises(sio.FileFormatError, match="4x4"):
            sio.supermap_from_json(sio.load_json(path))

    @pytest.mark.parametrize(
        "digits, message",
        [(400, "entry 1 is not finite"), (5000, "Exceeds the limit")],
        ids=["beyond-double", "beyond-int-parser"],
    )
    def test_oversized_integer_entry_exits_2(self, capsys, tmp_path, digits, message):
        # 400 digits overflow a double; past 4300 digits json.loads itself refuses.
        big = "1" + "0" * digits
        path = tmp_path / "big.json"
        path.write_text(
            '{"dim_in": 1, "dim_out": 2, "choi": {"rows": 1, "cols": 2, '
            f'"data": [[0, 0], [{big}, 0]]}}}}'
        )
        code = main(["check-op", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "content, message",
        [(b"\xff\xfe{}", "cannot read"), (b"[" * 200000 + b"]" * 200000, "nested too deeply")],
        ids=["not-utf8", "deeply-nested"],
    )
    def test_undecodable_input_exits_2(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code = main(["check-op", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "below, message",
        [(None, "File exists"), ("sub", "Not a directory")],
        ids=["out-is-a-file", "out-under-a-file"],
    )
    def test_uncreatable_out_exits_2(self, capsys, tmp_path, below, message):
        kraus = tmp_path / "kraus.json"
        sio.save_json(kraus, sio.kraus_set_to_json(2, 2, [I2]))
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / below if below else afile
        code = main(["kraus2choi", str(kraus), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: malformed input: cannot write --out {out}: ")
        assert captured.err.count("\n") == 1 and message in captured.err
        assert afile.read_text() == "kept"


class TestNonFiniteReports:
    """Overflowing inputs give one failing JSON report, non-finite numbers written as +-1e300.

    No numpy warning is raised, stderr holds at most the one ``error:`` line,
    and a failure's text states the residual as the report does.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["supermap", "map.json", "--check", "deterministic"],
            ["supermap", "map.json", "--check", "effect-map"],
            ["supermap", "map.json", "--check", "prob-preserving"],
            ["realize", "map.json"],
            ["realize-prob", "map.json"],
            ["check-op", "op.json"],
        ],
        ids=lambda argv: "-".join(argv[::2]),
    )
    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e300])
    def test_overflow_exits_1_with_one_report(self, capsys, monkeypatch, tmp_path, argv, scale):
        monkeypatch.chdir(tmp_path)
        s = identity_supermap(2, 2)
        sio.save_json("map.json", sio.supermap_to_json(Supermap(2, 2, 2, 2, scale * s.kraus)))
        sio.save_json("op.json", sio.operation_to_json(2, 2, scale * np.eye(4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 1 and report["pass"] is False
        assert captured.out == sio.dumps17(report) + "\n"
        error = report["details"].get("error")
        assert captured.err == ("" if error is None else f"error: check failed: {error}\n")
        if argv[0] != "check-op":
            assert report["residual"] == 1e300
        if error is not None:
            assert error == "supermap is not deterministic (residual 1.000e+300)"

    def test_non_finite_numbers_become_1e300_with_their_sign(self):
        nan, inf = float("nan"), float("inf")
        report = cli._report("r", False, nan, {"a": -inf, "b": [np.float64(inf), 2.5], "c": {"d": nan}})
        assert report["residual"] == 1e300
        assert report["details"] == {"a": -1e300, "b": [1e300, 2.5], "c": {"d": 1e300}}
        assert cli._report("r", False, -inf, {})["residual"] == 0.0


class TestScaledInputs:
    """Each command fails cleanly on an input scaled by 2 or 1e160: exit 1 with one
    failing report, stderr exactly its one ``error:`` line, no numpy warning."""

    ARGV = {
        "kraus2choi": ["kraus2choi", "kraus.json"],
        "choi2kraus": ["choi2kraus", "op.json"],
        "program-channel": ["program-channel", "--unitary", "u.json", "--program", "sigma.json",
                            "--dim-sys", "2"],
        "tester-eval": ["tester-eval", "e0.json", "e1.json", "--op", "op.json"],
        "tester-check": ["tester-check", "e0.json", "e1.json", "--dim-out", "2", "--dim-in", "2"],
        "tomography-check": ["tomography-check", "--state", "probe.json"],
    }
    # (command, the input file scaled, and the error text at scale 2 and at 1e160:
    # the tester's relative residual overflows to NaN there, and reads 1e300)
    CASES = [
        ("kraus2choi", "kraus.json", "Kraus bound violated: sum E†E exceeds identity by 3.000e+00",
         "Kraus bound violated: sum E†E overflows"),
        ("choi2kraus", "op.json", "operation increases trace (effect exceeds identity by 1.000e+00)",
         "operation increases trace (effect exceeds identity by 1.000e+160)"),
        ("program-channel", "u.json", "interaction is not unitary within tolerance",
         "interaction is not unitary within tolerance"),
        ("program-channel", "sigma.json", "program is not a density matrix",
         "program is not a density matrix"),
        ("tester-eval", "e0.json",
         "effects do not normalize to I ⊗ sigma (residual 3.333e-01, trace gap 5.000e-01)",
         "effects do not normalize to I ⊗ sigma (residual 1.000e+300, trace gap 5.000e+159)"),
        ("tester-eval", "op.json", "operation increases trace (effect exceeds identity by 1.000e+00)",
         "operation increases trace (effect exceeds identity by 1.000e+160)"),
        ("tester-check", "e0.json",
         "effects do not normalize to I ⊗ sigma (residual 3.333e-01, trace gap 5.000e-01)",
         "effects do not normalize to I ⊗ sigma (residual 1.000e+300, trace gap 5.000e+159)"),
        ("tomography-check", "probe.json", "probe is not a density matrix",
         "probe is not a density matrix"),
    ]

    @staticmethod
    def _write_inputs(scaled: str, scale: float) -> None:
        bell = bell_projector(2) / 2
        inputs = {
            "kraus.json": lambda c: sio.kraus_set_to_json(2, 2, [c * I2]),
            "op.json": lambda c: sio.operation_to_json(2, 2, c * bell_projector(2)),
            "u.json": lambda c: sio.matrix_to_json(c * np.eye(4)[[0, 1, 3, 2]]),
            "sigma.json": lambda c: sio.matrix_to_json(c * KET0),
            "e0.json": lambda c: sio.matrix_to_json(c * kron(KET0, I2 / 2)),
            "e1.json": lambda c: sio.matrix_to_json(c * kron(I2 - KET0, I2 / 2)),
            "probe.json": lambda c: sio.matrix_to_json(c * bell),
        }
        for name, doc in inputs.items():
            sio.save_json(name, doc(scale if name == scaled else 1.0))

    @pytest.mark.parametrize("scale", [2.0, 1e160])
    @pytest.mark.parametrize("command, scaled, at_2, at_1e160", CASES,
                             ids=[f"{case[0]}-{case[1]}" for case in CASES])
    def test_fails_with_one_report(self, capsys, monkeypatch, tmp_path, command, scaled, at_2,
                                   at_1e160, scale):
        monkeypatch.chdir(tmp_path)
        self._write_inputs(None, 1.0)
        assert main(self.ARGV[command]) == 0  # the unscaled inputs pass
        self._write_inputs(scaled, scale)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(self.ARGV[command])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 1 and report["pass"] is False and report["check"] == command
        assert captured.out == sio.dumps17(report) + "\n"
        error = report["details"].pop("error")
        assert report["details"] == {} and error == (at_2 if scale == 2.0 else at_1e160)
        assert captured.err == f"error: check failed: {error}\n"


def test_each_call_dispatches_afresh(capsys, monkeypatch, identity_op_file, identity_map_file):
    """One parser serves every call; the handler is looked up and the flags parsed per call."""
    assert main(["check-op", identity_op_file]) == 0
    capsys.readouterr()
    patched = {"check": "patched", "pass": True, "residual": 0.0, "details": {}}
    monkeypatch.setattr(cli, "cmd_check_op", lambda args: patched)
    assert run_cli(capsys, "check-op", identity_op_file) == (0, patched)
    code, report = run_cli(capsys, "supermap", identity_map_file, "--check", "effect-map")
    assert code == 0 and report["check"] == "supermap-effect-map"
    code, report = run_cli(capsys, "supermap", identity_map_file)
    assert code == 0 and report["check"] == "supermap-deterministic"
    assert cli._parser() is cli._parser()


# Each subcommand with its required arguments and the option flags it reads.
SUBCOMMAND_FLAGS = [
    (["check-op", "op.json"], {"--tol"}),
    (["kraus2choi", "kraus.json"], {"--out"}),
    (["choi2kraus", "op.json"], {"--tol", "--out"}),
    (["apply", "--op", "op.json", "--state", "rho.json"], {"--out"}),
    (["supermap", "map.json"], {"--tol", "--out"}),
    (["realize", "map.json"], {"--tol", "--out"}),
    (["realize-prob", "map.json"], {"--tol", "--out"}),
    (["tester-eval", "e.json", "--op", "op.json"], {"--tol"}),
    (["tester-check", "e.json", "--dim-out", "2", "--dim-in", "2"], {"--tol"}),
    (["tomography-check", "--state", "f.json"], {"--tol"}),
    (["program-channel", "--unitary", "u.json", "--program", "s.json", "--dim-sys", "2"],
     {"--tol", "--out"}),
    (["selftest"], {"--tol", "--seed"}),
]
FLAG_VALUES = {"--tol": "0.001", "--out": "dir", "--seed": "3", "--h-out": "2"}
PARSED = {"--tol": 0.001, "--out": "dir", "--seed": 3}


@pytest.mark.parametrize("argv, reads", SUBCOMMAND_FLAGS, ids=[a[0] for a, _ in SUBCOMMAND_FLAGS])
def test_subcommand_takes_only_the_flags_it_reads(capsys, argv, reads):
    """Flags a subcommand reads are parsed; any other is an argparse error, exit 2."""
    args = build_parser().parse_args([*argv, *(x for f in sorted(reads) for x in (f, FLAG_VALUES[f]))])
    for flag in reads:
        assert getattr(args, flag[2:]) == PARSED[flag]
    for flag in sorted(set(FLAG_VALUES) - reads):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {flag}" in captured.err


class TestHermiticityBoundary:
    """check-op, choi2kraus, apply and tester-eval accept the same operations at every --tol."""

    @pytest.mark.parametrize("tol_flag", [[], ["--tol", "1e-2"]])
    @pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
    def test_all_four_agree_at_herm_tol(self, capsys, tmp_path, side, tol_flag):
        # C = 0.4 |I><I| + 0.2 I plus e at entry [0, 1]: ||C − C†||_F = e √2 and
        # ||C†||_F² = 1.12 + e², so the residual r = side * HERM_TOL solves to
        # e² = 1.12 r² / (2 − r²).
        r = side * HERM_TOL
        choi = 0.4 * bell_projector(2) + 0.2 * np.eye(4, dtype=complex)
        choi[0, 1] += np.sqrt(1.12 * r**2 / (2 - r**2))
        tester = prepare_measure_tester(I2 / 2, [KET0, I2 - KET0], h_out=2)
        paths = {}
        for name, obj in [
            ("op", sio.operation_to_json(2, 2, choi)),
            ("rho", sio.matrix_to_json(I2 / 2)),
            *((f"e{j}", sio.matrix_to_json(e)) for j, e in enumerate(tester.effects)),
        ]:
            paths[name] = str(tmp_path / f"{name}.json")
            sio.save_json(paths[name], obj)
        accepted = side < 1
        for argv in (
            ["check-op", paths["op"], *tol_flag],
            ["choi2kraus", paths["op"], *tol_flag],
            ["apply", "--op", paths["op"], "--state", paths["rho"]],
            ["tester-eval", paths["e0"], paths["e1"], "--op", paths["op"], *tol_flag],
        ):
            code, report = run_cli(capsys, *argv)
            assert (code, report["pass"]) == ((0, True) if accepted else (1, False)), argv[0]
            if argv[0] == "check-op":
                assert report["details"]["hermitian"] is accepted
                assert report["details"]["hermiticity_residual"] == pytest.approx(r, rel=1e-6)
            elif not accepted:
                assert "not Hermitian" in report["details"]["error"]


MALFORMED_FLAGS = [
    ["selftest", "--seed", "-1"],
    ["selftest", "--trials", "-1"],
    ["selftest", "--tol", "nan"],
    ["check-op", "op.json", "--tol", "-1"],
    ["check-op", "op.json", "--tol", "inf"],
    ["tester-check", "e.json", "--dim-out", "-1", "--dim-in", "-1"],
    ["tester-check", "e.json", "--dim-out", "2", "--dim-in", "0"],
    ["program-channel", "--unitary", "u.json", "--program", "s.json", "--dim-sys", "0"],
]


@pytest.mark.parametrize("argv", MALFORMED_FLAGS, ids=" ".join)
def test_malformed_numeric_flag_exits_2(capsys, argv):
    """A numeric flag outside its range is an argparse error: exit 2, no report."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{argv[-1]!r} is not a finite" in captured.err


@pytest.mark.parametrize("flag, cast", [("--seed", "int"), ("--tol", "float")])
def test_unreadable_numeric_flag_keeps_argparse_message(capsys, flag, cast):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", flag, "1.5x"])
    assert exc.value.code == 2
    assert f"invalid {cast} value: '1.5x'" in capsys.readouterr().err


def test_numeric_flags_accept_their_lower_bounds():
    parse = build_parser().parse_args
    args = parse(["selftest", "--seed", "0", "--trials", "0", "--tol", "0"])
    assert (args.seed, args.trials, args.tol) == (0, 0, 0.0)
    args = parse(["tester-check", "e.json", "--dim-out", "1", "--dim-in", "1"])
    assert (args.dim_out, args.dim_in) == (1, 1)
    args = parse(["program-channel", "--unitary", "u", "--program", "s", "--dim-sys", "1"])
    assert args.dim_sys == 1
