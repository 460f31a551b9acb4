"""Whole-array JSON matrix codec against per-entry reference loops.

The reference functions below are the codec written one entry at a time: a
``c16`` writer that encodes each matrix's complex128 bytes directly, a text
writer that converts each complex entry with ``float`` (the ``data`` form
older files hold, which the library still reads), and a reader that checks
and converts each ``[re, im]`` pair in turn.  The property tests check that
the library's text is ``json.dumps`` of the document with each array written
by the reference, and that every number loads back as the same type and
bits, -0.0 included; that ``c16`` and text documents decode bit for bit;
and that malformed documents of either form raise ``FileFormatError`` with a
fixed message, which ``check-op`` turns into exit 2 and one stderr line.
"""

import base64
import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from supermaps import io as sio
from supermaps.cli import main
from supermaps.io import FileFormatError, _need, _pos_int

# ---------------------------------------------------------------- reference loops


def ref_c16_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    _need(m.ndim == 2, "matrix must be two-dimensional")
    if not np.isfinite(m).all():
        raise ValueError("refusing to serialize a non-finite number")
    payload = base64.b64encode(np.asarray(m, "<c16").tobytes()).decode("ascii")
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "c16": payload}


def ref_matrix_to_json(m: np.ndarray) -> dict:
    """The text (``data``) document of m, which the library reads but no longer writes."""
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

KINDS = ("random", "whole", "zero", "negzero", "huge", "tiny", "subnormal", "extreme", "bits")
MAX = np.finfo(float).max


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
    if kind == "subnormal":
        return rng.uniform(-1.0, 1.0, n) * 2.0**-1022
    if kind == "extreme":  # ±the largest finite double, ±the smallest subnormal, -0.0
        return rng.choice([MAX, -MAX, 5e-324, -5e-324, -0.0], n)
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
matrix_objects = matrices().map(sio.matrix_to_json) | matrices().map(ref_matrix_to_json)
pair_items = st.floats(-1e6, 1e6) | st.integers(-(2**70), 2**70)
# Report-like documents: matrices, as documents of either form and as arrays, nested in dicts
# and lists beside ints, bools, strings and plain number lists, including lists
# of number pairs.
reports = st.recursive(
    scalars | matrix_objects | matrices() | st.lists(st.lists(pair_items, min_size=2, max_size=2)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def listed(obj):
    """obj with each array replaced by its reference ``c16`` document."""
    if isinstance(obj, np.ndarray):
        return ref_c16_to_json(obj)
    if isinstance(obj, dict):
        return {k: listed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [listed(v) for v in obj]
    return obj


def ref_dumps(obj) -> str:
    """The written text of obj: json's own at indent 2, each array as its reference document."""
    return json.dumps(listed(obj), indent=2, allow_nan=False)


def as_loaded(obj):
    """The object json.loads gives back for the written text."""
    return json.loads(ref_dumps(obj))


# ---------------------------------------------------------------- properties


@given(m=matrices())
def test_matrix_to_json_matches_reference(m):
    got = sio.matrix_to_json(m)
    assert got == ref_c16_to_json(m)
    assert list(got) == ["rows", "cols", "c16"] and type(got["c16"]) is str


def first_difference(got: str, want: str) -> str:
    """The first line where two texts differ, as a failure message."""
    pairs = itertools.zip_longest(got.splitlines(), want.splitlines())
    line, (a, b) = next((n, pair) for n, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    return f"line {line}: {a!r} != {b!r}"


# No shrink phase: a failing report of nested 20x20 matrices shrinks for
# minutes, while the first failing example already shows the difference.  Each
# comparison is asserted as a bool, since pytest's own diff of two such texts
# takes tens of seconds per failing call.
@settings(phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(obj=reports)
def test_dumps17_matches_reference(obj):
    for x in (obj, as_loaded(obj)):
        got, want = sio.dumps17(x), ref_dumps(x)
        same = got == want
        assert same, first_difference(got, want)


def typed_bits(obj):
    """obj with each number replaced by (type, value), a float's value being its bits."""
    if isinstance(obj, (bool, np.bool_)):
        return bool, bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int, int(obj)
    if isinstance(obj, (float, np.floating)):
        return float, struct.pack("<d", float(obj))
    if isinstance(obj, dict):
        return {k: typed_bits(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [typed_bits(v) for v in obj]
    return obj


EDGE_FLOATS = (0.0, -0.0, 1.0, -3.0, 2.0**60, 2.0**-1022, 5e-324, -5e-324, MAX, -MAX, 1e300, 1 / 3)
numbers = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(EDGE_FLOATS)
    | st.integers(-(2**70), 2**70)
    | st.sampled_from(EDGE_FLOATS).map(np.float64)
    | st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
number_documents = st.recursive(
    numbers | matrices(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@given(obj=number_documents)
@example(obj={"residual": 0.0, "zeros": [-0.0, 0.0], "whole": 1e300, "top": [MAX, -MAX, 5e-324]})
@example(obj=[np.float32(1 / 3), np.float32(-1e-30), np.int64(-(2**63)), np.bool_(False)])
def test_every_number_loads_back_with_its_type_and_bits(obj):
    """Floats load as floats with the same bits (-0.0 and integral values too), ints as ints."""
    loaded = json.loads(sio.dumps17(obj))
    assert loaded == listed(obj)
    assert typed_bits(loaded) == typed_bits(listed(obj))


@given(m=matrices())
def test_matrix_from_json_is_bit_exact(m):
    obj = ref_matrix_to_json(m)
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


@given(m=matrices(), at=st.integers(0, 2**16), where=st.sampled_from(("real", "imag")),
       value=st.sampled_from((np.inf, -np.inf, np.nan)))
def test_non_finite_write_raises_like_reference(m, at, where, value):
    flat = m.reshape(-1).copy()
    setattr(flat[at % flat.size : at % flat.size + 1], where, value)
    bad = flat.reshape(m.shape)
    with pytest.raises(ValueError) as want:
        ref_c16_to_json(bad)
    for write in (sio.matrix_to_json, lambda x: sio.dumps17({"choi": x})):
        with pytest.raises(ValueError) as got:
            write(bad)
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
    # Two consecutive entries (a tuple): their numbers still count 2·rows·cols.
    "compensating-ragged": ([1.0, 0.0, 0.0], [1.0]),
}


@pytest.mark.parametrize("kind", list(BAD_ENTRIES))
@given(m=matrices(), at=st.integers(0, 2**16), loaded=st.booleans())
def test_malformed_entry_raises_like_reference(kind, m, at, loaded):
    obj = ref_matrix_to_json(m)
    if loaded:
        obj = as_loaded(obj)
    bad = BAD_ENTRIES[kind]
    for j, entry in enumerate(bad if isinstance(bad, tuple) else [bad]):
        obj["data"][(at + j) % len(obj["data"])] = entry
    with pytest.raises(FileFormatError) as got:
        sio.matrix_from_json(obj)
    with pytest.raises(FileFormatError) as want:
        ref_matrix_from_json(obj)
    assert str(got.value) == str(want.value)


@given(m=matrices(), at=st.integers(0, 2**16))
def test_oversized_integer_entry_is_a_format_error(m, at):
    # The per-entry reference let OverflowError escape; the codec names the entry.
    obj = as_loaded(ref_matrix_to_json(m))
    i = at % len(obj["data"])
    obj["data"][i] = [0, -(10**400)]
    with pytest.raises(OverflowError):
        ref_matrix_from_json(obj)
    with pytest.raises(FileFormatError, match=f"^entry {i} is not finite$"):
        sio.matrix_from_json(obj)


@given(m=matrices())
@example(m=np.array([[complex(-0.0, MAX)]]))
@example(m=np.array([[complex(-MAX, 5e-324), complex(2.0**-1022, -0.0)]]))
def test_c16_round_trip_is_bit_exact(m, tmp_path_factory):
    path = tmp_path_factory.mktemp("c16") / "m.json"
    sio.save_json(path, {"choi": m})
    for doc in (sio.load_json(path)["choi"], json.loads(sio.dumps17(sio.matrix_to_json(m)))):
        got = sio.matrix_from_json(doc)
        assert got.shape == m.shape and got.dtype == complex and got.flags.writeable
        assert got.tobytes() == m.tobytes()


@given(m=matrices())
def test_text_and_c16_decode_to_the_same_bits(m):
    """The written text of a matrix and its c16 document decode to m's bits, -0.0 included."""
    text = sio.matrix_from_json(as_loaded(ref_matrix_to_json(m)))
    c16 = sio.matrix_from_json(json.loads(sio.dumps17(sio.matrix_to_json(m))))
    assert c16.tobytes() == text.tobytes() == m.tobytes()


def _c16_doc(**change):
    """A 2x3 c16 matrix document of the numbers 1..6, with keys changed or removed (None)."""
    doc = sio.matrix_to_json(np.arange(1.0, 7.0).reshape(2, 3))
    doc.update(change)
    return {k: v for k, v in doc.items() if v is not None}


def _with_entry(i: int, value: complex) -> str:
    """The payload of ``_c16_doc`` with entry i replaced, bypassing the writer's check."""
    m = np.arange(1.0, 7.0).astype("<c16")
    m[i] = value
    return base64.b64encode(m.tobytes()).decode("ascii")


_PAYLOAD = _c16_doc()["c16"]
BAD_C16 = {
    "truncated": (_c16_doc(c16=_PAYLOAD[:-4]), "'c16' must hold 96 bytes"),
    "one-byte-long": (_c16_doc(c16=base64.b64encode(base64.b64decode(_PAYLOAD) + b"\0").decode()),
                      "'c16' must hold 96 bytes"),
    "wrong-shape": (_c16_doc(rows=3), "'c16' must hold 144 bytes"),
    "empty": (_c16_doc(c16=""), "'c16' must hold 96 bytes"),
    "alphabet": (_c16_doc(c16="*" + _PAYLOAD[1:]), "'c16' is not valid base64"),
    "url-safe-alphabet": (_c16_doc(c16=_PAYLOAD.replace("A", "-")), "'c16' is not valid base64"),
    "newline": (_c16_doc(c16=_PAYLOAD[:40] + "\n" + _PAYLOAD[40:]), "'c16' is not valid base64"),
    "no-padding": (_c16_doc(c16=base64.b64encode(bytes(95)).decode().rstrip("=")), "'c16' is not valid base64"),
    "non-ascii": (_c16_doc(c16="\u00e9" + _PAYLOAD[1:]), "'c16' is not valid base64"),
    "list": (_c16_doc(c16=list(base64.b64decode(_PAYLOAD))), "'c16' must be a base64 string"),
    "number": (_c16_doc(c16=1.0), "'c16' must be a base64 string"),
    "null": ({**_c16_doc(), "c16": None}, "'c16' must be a base64 string"),
    "both": (_c16_doc(data=[[1.0, 0.0]] * 6), "matrix must give exactly one of 'c16' and 'data'"),
    "neither": (_c16_doc(c16=None), "matrix must give exactly one of 'c16' and 'data'"),
    "nan": (_c16_doc(c16=_with_entry(4, complex(0.0, np.nan))), "entry 4 is not finite"),
    "inf": (_c16_doc(c16=_with_entry(0, complex(-np.inf, 0.0))), "entry 0 is not finite"),
}


@pytest.mark.parametrize("kind", list(BAD_C16))
def test_malformed_c16_is_a_format_error(kind, capsys, tmp_path):
    doc, message = BAD_C16[kind]
    with pytest.raises(FileFormatError) as got:
        sio.matrix_from_json(doc)
    assert str(got.value) == message
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"dim_in": 1, "dim_out": 2, "choi": doc}), encoding="utf-8")
    code = main(["check-op", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: malformed input: {message}\n"
