"""Bit-exact JSON file formats for matrices, operations and supermaps.

All numbers are written with 17 significant digits, which round-trips every
IEEE double except the sign of zero: -0.0 is written as ``-0``, which JSON
reads back as the integer 0, so it loads as +0.0.  Schemas:

    MatrixFile    {"rows": r, "cols": c, "data": [[re, im], ...]}   row-major
    OperationFile {"dim_in": d, "dim_out": e, "choi": MatrixFile}
    KrausFile     {"dim_in": d, "dim_out": e, "kraus": [MatrixFile, ...]}
    SupermapFile  {"h_in": ., "h_out": ., "k_in": ., "k_out": .,
                   "kraus": [MatrixFile, ...]}
    Report        {"check": name, "pass": bool, "residual": float,
                   "details": object}
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .supermap import Supermap


class FileFormatError(ValueError):
    """Malformed input file (schema or parse problem, CLI exit code 2)."""


def _is_pair_list(obj, types: set) -> bool:
    """True when ``obj`` is a non-empty list of 2-element lists of the exact ``types``."""
    return (
        set(map(type, obj)) == {list}
        and set(map(len, obj)) == {2}
        and set(map(type, chain.from_iterable(obj))) <= types
    )


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError("refusing to serialize a non-finite number")
        return format(v, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _is_pair_list(obj, {float}):
            # Matrix data: the generic branch below would give the same text
            # one entry at a time ("%.17g" is the routine format() uses).
            flat = tuple(chain.from_iterable(obj))
            if not all(map(math.isfinite, flat)):
                raise ValueError("refusing to serialize a non-finite number")
            sep = ",\n" + pad + "  "
            body = sep.join(["[%.17g, %.17g]"] * len(obj)) % flat
            return "[\n" + pad + "  " + body + "\n" + pad + "]"
        if all(
            isinstance(x, (int, float, np.integer, np.floating))
            and not isinstance(x, (bool, np.bool_))
            for x in obj
        ):
            return "[" + ", ".join(_render(x, 0) for x in obj) + "]"
        inner = ",\n".join(pad + "  " + _render(x, indent + 1) for x in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _render(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps17(obj) -> str:
    """JSON text with floats at 17 significant digits."""
    return _render(obj, 0)


def _need(cond: bool, msg: str):
    if not cond:
        raise FileFormatError(msg)


def _pos_int(obj, key: str) -> int:
    _need(key in obj, f"missing field '{key}'")
    v = obj[key]
    _need(isinstance(v, int) and not isinstance(v, bool) and v > 0,
          f"field '{key}' must be a positive integer")
    return v


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    _need(m.ndim == 2, "matrix must be two-dimensional")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    _need(isinstance(obj, dict), "matrix must be a JSON object")
    rows = _pos_int(obj, "rows")
    cols = _pos_int(obj, "cols")
    _need("data" in obj and isinstance(obj["data"], list), "missing 'data' array")
    data = obj["data"]
    _need(len(data) == rows * cols, f"'data' must hold {rows * cols} entries")
    if _is_pair_list(data, {int, float}):
        try:
            pairs = np.array(data, dtype=float)
        except OverflowError:  # an integer beyond the double range
            pass
        else:
            if np.isfinite(pairs).all():
                # A bit-exact reinterpretation; re + 1j*im would lose -0.0 parts.
                return pairs.view(complex).reshape(rows, cols)
    # The per-entry loop defines a valid entry: it names the first bad one and
    # also accepts float subclasses such as np.float64.
    out = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        _need(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair),
            f"entry {i} must be a [re, im] pair",
        )
        try:
            finite = math.isfinite(pair[0]) and math.isfinite(pair[1])
        except OverflowError:  # an integer beyond the double range
            finite = False
        _need(finite, f"entry {i} is not finite")
        out[i] = complex(pair[0], pair[1])
    return out.reshape(rows, cols)


def operation_to_json(dim_in: int, dim_out: int, choi: np.ndarray) -> dict:
    return {"dim_in": dim_in, "dim_out": dim_out, "choi": matrix_to_json(choi)}


def operation_from_json(obj) -> tuple[int, int, np.ndarray]:
    """Schema-level load; Choi validity is a semantic check done by callers."""
    _need(isinstance(obj, dict), "operation must be a JSON object")
    dim_in = _pos_int(obj, "dim_in")
    dim_out = _pos_int(obj, "dim_out")
    _need("choi" in obj, "missing field 'choi'")
    choi = matrix_from_json(obj["choi"])
    d = dim_out * dim_in
    _need(choi.shape == (d, d), f"choi must be {d}x{d}, got {choi.shape}")
    return dim_in, dim_out, choi


def kraus_set_to_json(dim_in: int, dim_out: int, operators) -> dict:
    return {
        "dim_in": dim_in,
        "dim_out": dim_out,
        "kraus": [matrix_to_json(e) for e in operators],
    }


def _kraus_list(obj, shape: tuple[int, int]) -> list[np.ndarray]:
    """The non-empty 'kraus' array of matrices, each of the given shape."""
    _need("kraus" in obj and isinstance(obj["kraus"], list) and obj["kraus"],
          "missing non-empty 'kraus' array")
    ops = [matrix_from_json(m) for m in obj["kraus"]]
    for k in ops:
        _need(k.shape == shape, f"Kraus operator must be {shape[0]}x{shape[1]}, got {k.shape}")
    return ops


def kraus_set_from_json(obj) -> tuple[int, int, list[np.ndarray]]:
    _need(isinstance(obj, dict), "Kraus file must be a JSON object")
    dim_in = _pos_int(obj, "dim_in")
    dim_out = _pos_int(obj, "dim_out")
    return dim_in, dim_out, _kraus_list(obj, (dim_out, dim_in))


def supermap_to_json(s: Supermap) -> dict:
    return {
        "h_in": s.h_in,
        "h_out": s.h_out,
        "k_in": s.k_in,
        "k_out": s.k_out,
        "kraus": [matrix_to_json(k) for k in s.kraus],
    }


def supermap_from_json(obj) -> Supermap:
    _need(isinstance(obj, dict), "supermap must be a JSON object")
    dims = {k: _pos_int(obj, k) for k in ("h_in", "h_out", "k_in", "k_out")}
    shape = (dims["k_out"] * dims["k_in"], dims["h_out"] * dims["h_in"])
    ops = _kraus_list(obj, shape)
    return Supermap(dims["h_in"], dims["h_out"], dims["k_in"], dims["k_out"], tuple(ops))


def load_json(path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # e.g. an integer beyond the int-string digit limit
        raise FileFormatError(f"cannot parse {path}: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested too deeply
        raise FileFormatError(f"cannot parse {path}: nested too deeply") from exc


def save_json(path, obj):
    Path(path).write_text(dumps17(obj) + "\n", encoding="utf-8")
