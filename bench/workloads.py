"""Seeded fixtures and fixed item lists for the three benchmark workloads.

An item is one user-level task: ``run`` makes the timed calls into the
``supermaps`` public API and returns what they produced, ``check`` compares
that against values known from how the inputs were built.  ``check`` uses
plain numpy only, so it never adds spans or calls to the traced layers.
Every fixture is built in set-up through the public API; each item builds a
fresh ``Supermap`` from raw Kraus arrays, so the determinism certificate the
library caches on a supermap is paid once per item, as a user with a new
supermap pays it.  The seed changes the entries of the inputs, never their
shapes, so every seed asks the same amount of work of the program.

Workloads (why each exists is recorded in BENCHMARK.json as well):

- ``small-d``: thousands of small calls over every (h_in, h_out, k_in, k_out)
  in {1..4}^4 plus small tester/application tasks.  Python overhead and the
  per-constructor validation dominate.
- ``large-d``: a few large items, (d,d,d,d) for d in {5, 6, 8}, six
  non-square tuples and ``is_faithful`` at h in {4, 5}.  The loops over
  matrix units and the (h_out*h_in)^2-sized SVD dominate.
- ``cli-json``: ``supermaps.cli.main`` in-process over JSON files written in
  set-up.  JSON parsing and 17-digit writing dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as textio
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import supermaps as sm
import supermaps.cli
import supermaps.io

TOL = 1e-8
WORKLOADS = ("small-d", "large-d", "cli-json")


@dataclass
class Item:
    """One task of a workload; ``key`` names its kind and size class."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    items: list
    digest: str  # sha256 of every generated input, to show two commits ran the same data
    reference_task: str  # the speed probe's task, see harness.REFERENCE_TASKS


class _Digest:
    """Hash of generated inputs in generation order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def arrays(self, label: str, *arrays) -> None:
        self._h.update(label.encode())
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=complex)
            self._h.update(str(a.shape).encode())
            self._h.update(a.tobytes())

    def file(self, path: Path) -> None:
        self._h.update(path.name.encode())
        self._h.update(path.read_bytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# ---------------------------------------------------------------- checks


def _iso_gap(m: np.ndarray) -> float:
    """||M†M − I||_F / max(1, ||I||_F), the library's relative-residual form."""
    n = m.shape[1]
    return float(np.linalg.norm(m.conj().T @ m - np.eye(n)) / max(1.0, np.sqrt(n)))


def _identity_gap(kraus, n: int) -> float:
    """Relative gap of sum_l N_l† N_l from the n x n identity."""
    total = sum(k.conj().T @ k for k in kraus)
    return float(np.linalg.norm(total - np.eye(n)) / max(1.0, np.sqrt(n)))


def _channel_gap(choi: np.ndarray, dim_in: int, dim_out: int) -> float:
    """Relative gap of Tr_out[choi] from the identity on the input space."""
    eff = np.einsum("nanb->ab", choi.reshape(dim_out, dim_in, dim_out, dim_in))
    return float(np.linalg.norm(eff - np.eye(dim_in)) / max(1.0, np.sqrt(dim_in)))


def _probabilities_ok(probs: np.ndarray) -> bool:
    return bool(abs(float(np.sum(probs)) - 1.0) <= TOL and np.all(probs >= -TOL))


# ---------------------------------------------------------------- fixtures


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _deterministic_kraus(rng: np.random.Generator, dims) -> tuple:
    """Kraus operators of a deterministic supermap from random V and W.

    The ancilla sizes, and so the amount of work, depend on the dimensions
    only; the seed changes the isometries' entries, not their shapes.
    """
    h_in, h_out, k_in, k_out = dims
    dim_b = max(1 + (h_in + k_out) % 2, _ceil_div(k_in, h_in))
    dim_a = max(1 + (h_out + k_in) % 3, _ceil_div(h_out * dim_b, k_out))
    v = sm.random_isometry(dim_b * h_in, k_in, rng)
    w = sm.random_isometry(k_out * dim_a, h_out * dim_b, rng)
    circuit = sm.CircuitRealization(v=v, w=w, dim_a=dim_a, dim_b=dim_b)
    return sm.circuit_to_supermap(circuit, dims).kraus


def _projective_povm(rng: np.random.Generator, d: int) -> list:
    basis = sm.random_isometry(d, d, rng)
    return [np.outer(basis[:, j], basis[:, j].conj()) for j in range(d)]


def _channel(rng: np.random.Generator, dim_in: int, dim_out: int):
    return sm.random_channel(dim_in, dim_out, _ceil_div(dim_in, dim_out) + 1, rng)


def _dims_label(dims) -> str:
    return ",".join(str(x) for x in dims)


# ---------------------------------------------------------------- supermap items


def _pipeline_item(dims, kraus) -> Item:
    def run():
        s = sm.Supermap(*dims, kraus)
        det = sm.is_deterministic(s)
        effectwise = sm.is_deterministic_effectwise(s)
        effect_map = sm.effect_map_of(s)
        circuit = sm.realize(s)
        rebuilt = sm.circuit_to_supermap(circuit, dims)
        return {
            "det": det,
            "effectwise": effectwise,
            "effect_kraus": effect_map.kraus,
            "v": circuit.v,
            "w": circuit.w,
            "distance": sm.action_distance(rebuilt, s),
        }

    def check(r) -> bool:
        return bool(
            r["det"]
            and r["effectwise"]
            and _identity_gap(r["effect_kraus"], dims[2]) <= TOL
            and _iso_gap(r["v"]) <= TOL
            and _iso_gap(r["w"]) <= TOL
            and r["distance"] <= TOL
        )

    return Item(f"pipeline {_dims_label(dims)}", run, check)


def _damaged_item(dims, kraus) -> Item:
    """Every Kraus operator scaled by 0.9: both tests must reject, realize must raise."""

    def run():
        s = sm.Supermap(*dims, kraus)
        det = sm.is_deterministic(s)
        effectwise = sm.is_deterministic_effectwise(s)
        rejected = False
        try:
            sm.realize(s)
        except sm.NotDeterministicError:
            rejected = True
        return {"det": det, "effectwise": effectwise, "rejected": rejected}

    def check(r) -> bool:
        return bool(not r["det"] and not r["effectwise"] and r["rejected"])

    return Item(f"damaged {_dims_label(dims)}", run, check)


def _split_item(dims, kraus, seed: int) -> Item:
    """Two-part split of a deterministic supermap through delayed reading."""

    def run():
        parts = [sm.Supermap(*dims, kraus[:1]), sm.Supermap(*dims, kraus[1:])]
        return sm.delayed_reading_check(parts, trials=2, seed=seed)

    def check(report) -> bool:
        return bool(
            report.max_action_residual <= TOL and report.max_probability_residual <= TOL
        )

    return Item(f"split {_dims_label(dims)}", run, check)


# ---------------------------------------------------------------- tester and application items


def _prepare_measure_item(h, rho, povm, channels) -> Item:
    def run():
        t = sm.prepare_measure_tester(rho, povm, h_out=h)
        return [sm.evaluate(t, sm.QuantumOperation(h, h, c)).probabilities for c in channels]

    return Item(f"prepare-measure h={h}", run, lambda rs: all(_probabilities_ok(p) for p in rs))


def _circuit_tester_item(h, state, povm, channels) -> Item:
    def run():
        t = sm.tester_from_circuit(state, povm, h_in=h, h_out=h)
        return [sm.evaluate(t, sm.QuantumOperation(h, h, c)).probabilities for c in channels]

    return Item(f"circuit-tester h={h}", run, lambda rs: all(_probabilities_ok(p) for p in rs))


def _discrimination_item() -> Item:
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    povm = [ket0, np.diag([0.0, 1.0]).astype(complex)]

    def run():
        t = sm.prepare_measure_tester(ket0, povm, h_out=2)
        depolarizing = sm.QuantumOperation(2, 2, np.eye(4) / 2)
        return sm.discrimination_probability(
            t, [sm.identity_operation(2), depolarizing], [0.5, 0.5]
        )

    return Item("discrimination h=2", run, lambda p: abs(p - 0.75) <= TOL)


def _tester_parts_item(h, rho, povm) -> Item:
    def run():
        t = sm.prepare_measure_tester(rho, povm, h_out=h)
        circuit = sm.realize_probabilistic(sm.as_supermap_parts(t))
        return circuit.v, circuit.w, len(circuit.projectors)

    def check(r) -> bool:
        v, w, n_projectors = r
        return _iso_gap(v) <= TOL and _iso_gap(w) <= TOL and n_projectors == len(povm)

    return Item(f"tester-parts h={h}", run, check)


def _faithful_item(h, probe, expected: bool, kind: str) -> Item:
    def run():
        return sm.is_faithful(sm.TomographySetup(faithful_state=probe, h_in=h, h_out=h))

    return Item(f"{kind} h={h}", run, lambda r: bool(r) == expected)


def _ic_tester_item(h, probe, povm, channel) -> Item:
    def run():
        setup = sm.TomographySetup(faithful_state=probe, h_in=h, h_out=h)
        t = sm.informationally_complete_tester_for(setup, povm)
        complete = sm.is_informationally_complete(t)
        return complete, sm.evaluate(t, sm.QuantumOperation(h, h, channel)).probabilities

    return Item(f"ic-tester h={h}", run, lambda r: bool(r[0]) and _probabilities_ok(r[1]))


def _sandwich_item(dims, pre, post, inner) -> Item:
    """(h_in, h_out, k_in, k_out): pre maps k_in -> h_in, post maps h_out -> k_out."""
    h_in, h_out, k_in, k_out = dims

    def run():
        s = sm.sandwich_supermap(
            sm.QuantumOperation(k_in, h_in, pre), sm.QuantumOperation(h_out, k_out, post)
        )
        return sm.apply_supermap(s, sm.QuantumOperation(h_in, h_out, inner)).choi

    return Item(
        f"sandwich {_dims_label(dims)}", run, lambda c: _channel_gap(c, k_in, k_out) <= TOL
    )


def _program_item(h, unitary, program) -> Item:
    def run():
        dev = sm.ProgrammableDevice(unitary=unitary, dim_sys=h, dim_prog=2)
        return sm.programmable_channel(dev, program).choi

    return Item(f"program h={h}", run, lambda c: _channel_gap(c, h, h) <= TOL)


def _ic_povm(rng: np.random.Generator, d: int) -> list:
    """d^2 generic positive operators normalized to sum to I: informationally complete."""
    gs = []
    for _ in range(d * d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gs.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(gs))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ g @ inv_sqrt for g in gs]


# ---------------------------------------------------------------- workloads


def _small_d(seed: int, digest: _Digest) -> list:
    rng = np.random.default_rng([seed, 1])
    items, damaged, splits = [], [], []
    for index, dims in enumerate(itertools.product(range(1, 5), repeat=4)):
        kraus = _deterministic_kraus(rng, dims)
        digest.arrays(f"det {dims}", *kraus)
        items.append(_pipeline_item(dims, kraus))
        damaged.append(_damaged_item(dims, tuple(0.9 * k for k in kraus)))
        if len(kraus) >= 2:
            # The check draws channel ranks from its seed: a fixed one keeps the work fixed.
            splits.append(_split_item(dims, kraus, index))
    items += damaged + splits

    for h, _ in itertools.product((1, 2, 3), range(4)):
        rho = sm.random_density(h, rng)
        povm = _projective_povm(rng, h)
        state = sm.random_density(2 * h, rng)
        joint = _projective_povm(rng, 2 * h)
        channels = [_channel(rng, h, h).choi for _ in range(3)]
        unitary = sm.random_isometry(2 * h, 2 * h, rng)
        program = sm.random_density(2, rng)
        digest.arrays(f"testers h={h}", rho, *povm, state, *joint, *channels, unitary, program)
        items += [
            _prepare_measure_item(h, rho, povm, channels),
            _circuit_tester_item(h, state, joint, channels),
            _tester_parts_item(h, rho, povm),
            _program_item(h, unitary, program),
        ]
    for h, _ in itertools.product((2, 3), range(4)):
        probe = sm.random_density(h * h, rng)
        product = np.kron(sm.random_density(h, rng), sm.random_density(h, rng))
        digest.arrays(f"probes h={h}", probe, product)
        items += [
            _faithful_item(h, probe, True, "faithful"),
            _faithful_item(h, product, False, "product"),
        ]
    for h in (2, 3):
        probe = sm.random_density(h * h, rng)
        povm = _ic_povm(rng, h * h)
        channel = _channel(rng, h, h).choi
        digest.arrays(f"ic-tester h={h}", probe, *povm, channel)
        items.append(_ic_tester_item(h, probe, povm, channel))
    for dims in list(itertools.product(range(1, 4), repeat=4))[::7]:
        h_in, h_out, k_in, k_out = dims
        pre = _channel(rng, k_in, h_in).choi
        post = _channel(rng, h_out, k_out).choi
        inner = _channel(rng, h_in, h_out).choi
        digest.arrays(f"sandwich {dims}", pre, post, inner)
        items.append(_sandwich_item(dims, pre, post, inner))
    items.append(_discrimination_item())
    return items


# Square tuples at the sizes where the matrix-unit loops dominate, then
# non-square ones of moderate size, so the item list is long enough for a
# tail with ten items beyond it.
LARGE_TUPLES = (
    (5, 5, 5, 5), (6, 6, 6, 6), (8, 8, 8, 8),
    (3, 8, 4, 6), (6, 4, 5, 3), (4, 6, 7, 5), (8, 3, 6, 4), (5, 7, 4, 6), (7, 4, 3, 8),
)


def _large_d(seed: int, digest: _Digest) -> list:
    rng = np.random.default_rng([seed, 2])
    items, damaged = [], []
    for dims in LARGE_TUPLES:
        kraus = _deterministic_kraus(rng, dims)
        digest.arrays(f"det {dims}", *kraus)
        items.append(_pipeline_item(dims, kraus))
        damaged.append(_damaged_item(dims, tuple(0.9 * k for k in kraus)))
    items += damaged
    # h = 6 (a 1296 x 1296 SVD, about 1.4 s a probe) would not fit the
    # benchmark's time budget with three set-ups per run.
    for h in (4, 5):
        probe = sm.random_density(h * h, rng)
        product = np.kron(sm.random_density(h, rng), sm.random_density(h, rng))
        # A random pure state has full Schmidt rank, so it is a faithful probe too.
        psi = sm.random_isometry(h * h, 1, rng)
        pure = psi @ psi.conj().T
        digest.arrays(f"probes h={h}", probe, product, pure)
        items += [
            _faithful_item(h, probe, True, "faithful"),
            _faithful_item(h, product, False, "product"),
            _faithful_item(h, pure, True, "faithful-pure"),
        ]
    return items


# ---------------------------------------------------------------- cli-json


def _cli_item(key: str, argv: list, code: int, passed, extra=None) -> Item:
    """One ``supermaps`` command; ``passed`` is the report's expected ``pass`` field.

    ``passed=None`` expects no report at all (malformed input, exit 2).
    ``extra`` is an optional predicate on the parsed report.
    """

    def run():
        out, err = textio.StringIO(), textio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = supermaps.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                status = exc.code
        return status, out.getvalue()

    def check(r) -> bool:
        status, text = r
        if status != code:
            return False
        if passed is None:
            return text == ""
        report = json.loads(text)
        return report["pass"] is passed and (extra is None or bool(extra(report)))

    return Item(key, run, check)


def _near_one(key: str):
    """Report predicate: details[key] equals 1 within TOL."""
    return lambda report: abs(report["details"][key] - 1.0) <= TOL


def _cli_json(seed: int, digest: _Digest, workdir: Path) -> list:
    rng = np.random.default_rng([seed, 3])
    sio = supermaps.io
    workdir.mkdir(parents=True, exist_ok=True)

    def put(name: str, obj) -> str:
        path = workdir / name
        sio.save_json(path, obj)
        digest.file(path)
        return str(path)

    def out_dir(name: str) -> str:
        return str(workdir / "out" / name)

    items = []
    for d in (4, 8, 16):
        op = _channel(rng, d, d)
        kraus = sm.choi_to_kraus(_channel(rng, d, d)).operators
        rho = sm.random_density(d, rng)
        state = sm.random_density(d, rng)
        # Two-outcome projective measurement: a random half-space and its complement.
        basis = sm.random_isometry(d, d, rng)
        half = basis[:, : d // 2] @ basis[:, : d // 2].conj().T
        effects = [np.kron(m, state.T) for m in (half, np.eye(d) - half)]
        unitary = sm.random_isometry(2 * d, 2 * d, rng)
        program = sm.random_density(2, rng)

        op_f = put(f"op{d}.json", sio.operation_to_json(d, d, op.choi))
        kraus_f = put(f"kraus{d}.json", sio.kraus_set_to_json(d, d, kraus))
        rho_f = put(f"rho{d}.json", sio.matrix_to_json(rho))
        e_fs = [put(f"effect{d}_{j}.json", sio.matrix_to_json(e)) for j, e in enumerate(effects)]
        u_f = put(f"unitary{d}.json", sio.matrix_to_json(unitary))
        prog_f = put(f"program{d}.json", sio.matrix_to_json(program))
        items += [
            _cli_item(f"check-op d={d}", ["check-op", op_f], 0, True,
                      lambda rep: rep["details"]["channel"]),
            _cli_item(f"choi2kraus d={d}", ["choi2kraus", op_f, "--out", out_dir(f"c2k{d}")], 0, True),
            _cli_item(f"kraus2choi d={d}", ["kraus2choi", kraus_f, "--out", out_dir(f"k2c{d}")], 0, True),
            _cli_item(f"apply d={d}", ["apply", "--op", op_f, "--state", rho_f], 0, True,
                      _near_one("probability")),
            _cli_item(f"program-channel d={d}",
                      ["program-channel", "--unitary", u_f, "--program", prog_f,
                       "--dim-sys", str(d), "--out", out_dir(f"prog{d}")], 0, True),
            _cli_item(f"tester-eval d={d}", ["tester-eval", *e_fs, "--op", op_f], 0, True,
                      _near_one("probability_sum")),
            _cli_item(f"tester-check d={d}",
                      ["tester-check", *e_fs, "--dim-out", str(d), "--dim-in", str(d)], 0, True,
                      lambda rep: rep["details"]["outcomes"] == 2),
        ]

    for d in (2, 4):
        dims = (d, d, d, d)
        kraus = _deterministic_kraus(rng, dims)
        # Identity before, a channel after: the effect map is the identity.
        preserving = sm.sandwich_supermap(sm.identity_operation(d), _channel(rng, d, d))
        map_f = put(f"map{d}.json", sio.supermap_to_json(sm.Supermap(*dims, kraus)))
        pp_f = put(f"preserving{d}.json", sio.supermap_to_json(preserving))
        part_fs = [
            put(f"part{d}_{j}.json", sio.supermap_to_json(sm.Supermap(*dims, ks)))
            for j, ks in enumerate((kraus[:1], kraus[1:]))
        ]
        items += [
            _cli_item(f"supermap-deterministic d={d}",
                      ["supermap", map_f, "--check", "deterministic"], 0, True),
            _cli_item(f"supermap-prob-preserving d={d}",
                      ["supermap", map_f, "--check", "prob-preserving"], 1, False),
            _cli_item(f"supermap-prob-preserving-identity d={d}",
                      ["supermap", pp_f, "--check", "prob-preserving"], 0, True),
            _cli_item(f"supermap-effect-map d={d}",
                      ["supermap", map_f, "--check", "effect-map"], 0, True),
            _cli_item(f"realize d={d}", ["realize", map_f, "--out", out_dir(f"real{d}")], 0, True),
            _cli_item(f"realize-prob d={d}",
                      ["realize-prob", *part_fs, "--out", out_dir(f"realp{d}")], 0, True),
        ]
        if d == 2:
            damaged = sm.Supermap(*dims, tuple(0.9 * k for k in kraus))
            damaged_f = put("damaged2.json", sio.supermap_to_json(damaged))
            items.append(_cli_item("realize-damaged d=2", ["realize", damaged_f], 1, False))

    for h in (2, 3):
        probe_f = put(f"probe{h}.json", sio.matrix_to_json(sm.random_density(h * h, rng)))
        product = np.kron(sm.random_density(h, rng), sm.random_density(h, rng))
        product_f = put(f"product{h}.json", sio.matrix_to_json(product))
        items += [
            _cli_item(f"tomography-faithful h={h}", ["tomography-check", "--state", probe_f], 0, True),
            _cli_item(f"tomography-product h={h}", ["tomography-check", "--state", product_f], 1, False),
        ]

    # selftest draws its own fixtures from --seed; a fixed one keeps its work fixed.
    items.append(_cli_item("selftest", ["selftest", "--seed", "0", "--trials", "5"], 0, True))
    # A matrix with fewer entries than rows*cols: a schema error, exit 2 and no report.
    bad = workdir / "malformed.json"
    bad.write_text(
        '{"dim_in": 2, "dim_out": 2, "choi": {"rows": 4, "cols": 4, "data": [[1.0, 0.0]]}}\n',
        encoding="utf-8",
    )
    digest.file(bad)
    items.append(_cli_item("check-op-malformed", ["check-op", str(bad)], 2, None))
    return items


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the seeded inputs of one workload; ``workdir`` receives its files."""
    digest = _Digest()
    if name == "small-d":
        items, task = _small_d(seed, digest), "interpreter"
    elif name == "large-d":
        items, task = _large_d(seed, digest), "blas"
    elif name == "cli-json":
        items, task = _cli_json(seed, digest, workdir), "interpreter"
    else:
        raise ValueError(f"unknown workload {name!r} (choose from {WORKLOADS})")
    return Workload(name, items, digest.hexdigest(), task)
