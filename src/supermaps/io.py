"""Bit-exact JSON file formats for matrices, operations and supermaps.

A matrix is written as the base64 text of its row-major little-endian
complex128 bytes, 16·rows·cols of them, which keeps every double bit for
bit, -0.0 included.  Schemas:

    MatrixFile    {"rows": r, "cols": c, "c16": "<base64>"}           written
                  {"rows": r, "cols": c, "data": [[re, im], ...]}     read too
    OperationFile {"dim_in": d, "dim_out": e, "choi": MatrixFile}
    KrausFile     {"dim_in": d, "dim_out": e, "kraus": [MatrixFile, ...]}
    SupermapFile  {"h_in": ., "h_out": ., "k_in": ., "k_out": .,
                   "kraus": [MatrixFile, ...]}
    Report        {"check": name, "pass": bool, "residual": float,
                   "details": object}

Writing.  ``dumps17`` is one ``json.dumps`` call at indent 2: a numpy array
anywhere in a document is written as its ``matrix_to_json`` document, a
non-finite matrix or float is refused, and floats are written as Python's
shortest round-trip ``repr``, so each loads back as the same float.  A
payload written to a file and quoted in a report is one document, whose
base64 string is encoded once and escaped by ``json`` in each.

Reading.  A matrix gives exactly one of ``c16`` and ``data``.  ``c16`` must
be strict base64 of exactly 16·rows·cols bytes, all entries finite.  The
text form ``data``, which older files hold, is still read entry by entry,
and the first bad entry is named.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .supermap import Supermap


class FileFormatError(ValueError):
    """Malformed input file (schema or parse problem, CLI exit code 2)."""


def _plain(obj):
    """The JSON-ready form of what ``json`` cannot write itself: arrays and numpy scalars."""
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps17(obj) -> str:
    """JSON text at indent 2, floats as their shortest round-trip ``repr``; non-finite ones are refused."""
    return json.dumps(obj, indent=2, allow_nan=False, default=_plain)


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
    if not np.isfinite(m).all():
        raise ValueError("refusing to serialize a non-finite number")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "c16": base64.b64encode(np.ascontiguousarray(m, dtype="<c16").tobytes()).decode("ascii"),
    }


def _c16_matrix(payload, rows: int, cols: int) -> np.ndarray:
    _need(isinstance(payload, str), "'c16' must be a base64 string")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise FileFormatError("'c16' is not valid base64") from None
    _need(len(raw) == 16 * rows * cols, f"'c16' must hold {16 * rows * cols} bytes")
    out = np.frombuffer(raw, dtype="<c16").astype(complex)  # a writable copy, in native order
    if not np.isfinite(out).all():
        raise FileFormatError(f"entry {np.flatnonzero(~np.isfinite(out))[0]} is not finite")
    return out.reshape(rows, cols)


def matrix_from_json(obj) -> np.ndarray:
    _need(isinstance(obj, dict), "matrix must be a JSON object")
    rows = _pos_int(obj, "rows")
    cols = _pos_int(obj, "cols")
    _need(("c16" in obj) != ("data" in obj), "matrix must give exactly one of 'c16' and 'data'")
    if "c16" in obj:
        return _c16_matrix(obj["c16"], rows, cols)
    _need(isinstance(obj["data"], list), "missing 'data' array")
    data = obj["data"]
    _need(len(data) == rows * cols, f"'data' must hold {rows * cols} entries")
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
    return {"dim_in": dim_in, "dim_out": dim_out, "kraus": [matrix_to_json(k) for k in operators]}


def _kraus_list(obj, shape: tuple[int, int]) -> list[np.ndarray]:
    """The 'kraus' array of matrices, each of the given shape; an empty one is the zero operation."""
    _need("kraus" in obj and isinstance(obj["kraus"], list), "missing 'kraus' array")
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
    _need(ops, "missing non-empty 'kraus' array")
    return Supermap(dims["h_in"], dims["h_out"], dims["k_in"], dims["k_out"], ops)


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
