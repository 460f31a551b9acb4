"""Whole-array JSON matrix codec against per-entry reference loops.

The reference functions below are the codec as it was written one entry at a
time: a recursive renderer that formats every number on its own, a writer
that converts each complex entry with ``float``, and a reader that checks and
converts each ``[re, im]`` pair in turn.  The library renders, writes and
reads matrix data as whole arrays; the property tests check that the text is
the same byte for byte, also with parts pre-rendered as ``Rendered`` text,
that decoded matrices are the same bit for bit and that malformed entries
raise the same exception with the same message.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supermaps import io as sio
from supermaps.io import FileFormatError, _need, _pos_int

# ---------------------------------------------------------------- reference loops


def ref_render(obj, indent: int) -> str:
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
        if all(
            isinstance(x, (int, float, np.integer, np.floating))
            and not isinstance(x, (bool, np.bool_))
            for x in obj
        ):
            return "[" + ", ".join(ref_render(x, 0) for x in obj) + "]"
        inner = ",\n".join(pad + "  " + ref_render(x, indent + 1) for x in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + ref_render(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def ref_matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    _need(m.ndim == 2, "matrix must be two-dimensional")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(x.real), float(x.imag)] for x in m.reshape(-1)],
    }


def ref_matrix_from_json(obj) -> np.ndarray:
    _need(isinstance(obj, dict), "matrix must be a JSON object")
    rows = _pos_int(obj, "rows")
    cols = _pos_int(obj, "cols")
    _need("data" in obj and isinstance(obj["data"], list), "missing 'data' array")
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
        _need(
            math.isfinite(pair[0]) and math.isfinite(pair[1]),
            f"entry {i} is not finite",
        )
        out[i] = complex(pair[0], pair[1])
    return out.reshape(rows, cols)


# ---------------------------------------------------------------- strategies

KINDS = ("random", "whole", "zero", "negzero", "huge", "tiny", "bits")


def part_values(rng, kind, n):
    if kind == "random":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-20, 21, n)
    if kind == "whole":
        return rng.integers(-(2**60), 2**60, n).astype(float)
    if kind == "zero":
        return np.zeros(n)
    if kind == "negzero":
        return np.full(n, -0.0)
    if kind in ("huge", "tiny"):
        scale = 1e300 if kind == "huge" else 1e-300
        return rng.uniform(-9.9, 9.9, n) * scale * 10.0 ** rng.integers(-8, 8, n)
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(float)
    return np.where(np.isfinite(bits), bits, 1.5)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = rows * cols
    parts = np.stack([part_values(rng, k, 2 * n) for k in kinds])
    pick = parts[rng.integers(0, len(kinds), 2 * n), np.arange(2 * n)]
    return pick.view(complex).reshape(rows, cols)


scalars = (
    st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False)
)
matrix_objects = matrices().map(sio.matrix_to_json)
pair_items = st.floats(-1e6, 1e6) | st.integers(-(2**70), 2**70)
# Report-like documents: matrices nested in dicts and lists beside ints,
# bools, strings and plain number lists, including lists of number pairs.
reports = st.recursive(
    scalars | matrix_objects | st.lists(st.lists(pair_items, min_size=2, max_size=2)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def as_loaded(obj):
    """The object json.loads gives back for the written text (whole numbers become ints)."""
    return json.loads(ref_render(obj, 0))


# ---------------------------------------------------------------- properties


@given(m=matrices())
def test_matrix_to_json_matches_reference(m):
    got, want = sio.matrix_to_json(m), ref_matrix_to_json(m)
    assert (got["rows"], got["cols"]) == (want["rows"], want["cols"])
    assert {type(x) for pair in got["data"] for x in pair} == {float}
    assert np.array(got["data"]).tobytes() == np.array(want["data"]).tobytes()


@given(obj=reports)
def test_dumps17_matches_reference(obj):
    assert sio.dumps17(obj) == ref_render(obj, 0)
    assert sio.dumps17(as_loaded(obj)) == ref_render(as_loaded(obj), 0)


def sub_paths(obj, path=()):
    """The path (keys and indices) of each dict and list in obj, obj itself included.

    A number is not pre-rendered: its text would break a one-line number list.
    """
    if isinstance(obj, (dict, list)):
        yield path
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from sub_paths(value, path + (key,))


def replace_at(obj, path, new):
    """A copy of obj with the value at ``path`` replaced by ``new``; dict order is kept."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {k: replace_at(v, rest, new) if k == key else v for k, v in obj.items()}
    return [replace_at(v, rest, new) if i == key else v for i, v in enumerate(obj)]


def value_at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def pre_render_all(obj):
    """obj with every dict and list pre-rendered, innermost first."""
    if isinstance(obj, dict):
        return sio.Rendered({k: pre_render_all(v) for k, v in obj.items()})
    if isinstance(obj, list):
        return sio.Rendered([pre_render_all(v) for v in obj])
    return obj


@given(obj=reports)
def test_pre_rendered_text_splices_at_every_depth(obj):
    """A dict or list replaced by its pre-rendered text renders as it did itself."""
    want = ref_render(obj, 0)
    for path in sub_paths(obj):
        rendered = sio.Rendered(value_at(obj, path))
        assert rendered.text == ref_render(value_at(obj, path), 0)
        assert sio.dumps17(replace_at(obj, path, rendered)) == want
    assert sio.dumps17(pre_render_all(obj)) == want


@given(m=matrices())
def test_matrix_from_json_is_bit_exact(m):
    obj = sio.matrix_to_json(m)
    got = sio.matrix_from_json(obj)
    assert got.shape == m.shape
    assert got.tobytes() == m.tobytes() == ref_matrix_from_json(obj).tobytes()
    loaded = as_loaded(obj)
    assert sio.matrix_from_json(loaded).tobytes() == ref_matrix_from_json(loaded).tobytes()
    as_np = dict(obj, data=[[np.float64(x), np.float64(y)] for x, y in obj["data"]])
    assert sio.matrix_from_json(as_np).tobytes() == m.tobytes()


def test_integer_entries_round_like_reference():
    # Integers past 2**53 and past int64 must round as Python's float() does.
    big = [2**53 + 1, 2**63 - 1, 2**63, 2**64 + 1, -(2**63) - 1, 10**300 + 1, -(2**1000) - 1]
    obj = {"rows": 1, "cols": len(big), "data": [[v, -v] for v in big]}
    assert sio.matrix_from_json(obj).tobytes() == ref_matrix_from_json(obj).tobytes()


@given(m=matrices(), at=st.integers(0, 2**16), where=st.sampled_from(("real", "imag")))
def test_non_finite_write_raises_like_reference(m, at, where):
    flat = m.reshape(-1).copy()
    setattr(flat[at % flat.size : at % flat.size + 1], where, np.inf)
    obj = sio.matrix_to_json(flat.reshape(m.shape))
    with pytest.raises(ValueError) as got:
        sio.dumps17({"choi": obj})
    with pytest.raises(ValueError) as want:
        ref_render({"choi": obj}, 0)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


BAD_ENTRIES = {
    "bool": [True, 0.0],
    "string": ["1", 0.0],
    "null": [0.0, None],
    "one-element": [1.0],
    "three-element": [1.0, 0.0, 0.0],
    "bare-number": 1.0,
    "dict": {"re": 1.0, "im": 0.0},
    "1e999": [json.loads("1e999"), 0.0],
    "np.float64-nan": [np.float64(1.0), np.float64("nan")],
}


@pytest.mark.parametrize("kind", list(BAD_ENTRIES))
@given(m=matrices(), at=st.integers(0, 2**16), loaded=st.booleans())
def test_malformed_entry_raises_like_reference(kind, m, at, loaded):
    obj = sio.matrix_to_json(m)
    if loaded:
        obj = as_loaded(obj)
    obj["data"][at % len(obj["data"])] = BAD_ENTRIES[kind]
    with pytest.raises(FileFormatError) as got:
        sio.matrix_from_json(obj)
    with pytest.raises(FileFormatError) as want:
        ref_matrix_from_json(obj)
    assert str(got.value) == str(want.value)


@given(m=matrices(), at=st.integers(0, 2**16))
def test_oversized_integer_entry_is_a_format_error(m, at):
    # The per-entry reference let OverflowError escape; the codec names the entry.
    obj = as_loaded(sio.matrix_to_json(m))
    i = at % len(obj["data"])
    obj["data"][i] = [0, -(10**400)]
    with pytest.raises(OverflowError):
        ref_matrix_from_json(obj)
    with pytest.raises(FileFormatError, match=f"^entry {i} is not finite$"):
        sio.matrix_from_json(obj)
