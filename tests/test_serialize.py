"""Container format and deterministic text output."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import read_csv
from terradapt.serialize import (
    MAGIC,
    ContainerError,
    fmt_float,
    load_arrays,
    save_arrays,
    write_csv,
)


def test_roundtrip_preserves_values_shapes_dtypes(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "f": rng.standard_normal((3, 4, 5)),
        "i": rng.integers(-1000, 1000, size=(7,), dtype=np.int64),
        "u": rng.integers(0, 255, size=(2, 2), dtype=np.uint8),
        "b": rng.random((4,)) > 0.5,
        "empty": np.zeros((0, 3)),
    }
    meta = {"note": "roundtrip", "n": 3, "nested": {"a": [1, 2]}}
    path = tmp_path / "box.tdc"
    save_arrays(path, arrays, kind="test-box", meta=meta)
    loaded, got_meta = load_arrays(path, expect_kind="test-box")
    assert got_meta == meta
    assert set(loaded) == set(arrays)
    for name, arr in arrays.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].dtype == arr.dtype
        np.testing.assert_array_equal(loaded[name], arr)


def test_save_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {"w": rng.standard_normal((6, 6)), "v": rng.standard_normal(6)}
    p1, p2 = tmp_path / "a.tdc", tmp_path / "b.tdc"
    save_arrays(p1, arrays, kind="k", meta={"s": 1})
    save_arrays(p2, {k: v.copy() for k, v in arrays.items()}, kind="k", meta={"s": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_array_order_is_preserved(tmp_path):
    path = tmp_path / "o.tdc"
    save_arrays(path, {"z": np.ones(2), "a": np.zeros(3)}, kind="k")
    loaded, _ = load_arrays(path)
    assert list(loaded) == ["z", "a"]


def test_kind_mismatch_raises(tmp_path):
    path = tmp_path / "k.tdc"
    save_arrays(path, {"x": np.ones(1)}, kind="alpha")
    with pytest.raises(ContainerError, match="kind"):
        load_arrays(path, expect_kind="beta")
    # no expectation means no check
    load_arrays(path)


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "m.tdc"
    path.write_bytes(b"NOPE\n" + b"0" * 64)
    with pytest.raises(ContainerError, match="magic"):
        load_arrays(path)


def test_payload_corruption_raises(tmp_path):
    path = tmp_path / "c.tdc"
    save_arrays(path, {"x": np.arange(16.0)}, kind="k")
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="checksum"):
        load_arrays(path)


def test_truncated_file_raises(tmp_path):
    path = tmp_path / "t.tdc"
    save_arrays(path, {"x": np.arange(16.0)}, kind="k")
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ContainerError):
        load_arrays(path)


def test_truncated_header_raises_naming_the_file(tmp_path):
    path = tmp_path / "h.tdc"
    save_arrays(path, {"x": np.arange(4.0)}, kind="k")
    path.write_bytes(path.read_bytes()[:len(MAGIC) + 8 + 20])
    with pytest.raises(ContainerError, match=f"^{re.escape(str(path))}: corrupt header"):
        load_arrays(path)


def write_header(path, header, payload=b""):
    """A container with the given JSON header, written byte by byte."""
    text = json.dumps(header).encode()
    path.write_bytes(MAGIC + b"%08d" % len(text) + text + payload)


@pytest.mark.parametrize("key", ["checksum", "arrays", "meta"])
def test_header_without_a_field_raises_naming_the_file(tmp_path, key):
    path = tmp_path / "f.tdc"
    save_arrays(path, {"x": np.arange(4.0)}, kind="k", meta={"m": 1})
    raw = path.read_bytes()
    n = int(raw[len(MAGIC):len(MAGIC) + 8])
    header = json.loads(raw[len(MAGIC) + 8:len(MAGIC) + 8 + n])
    del header[key]
    write_header(path, header, raw[len(MAGIC) + 8 + n:])
    with pytest.raises(ContainerError, match=f"^{re.escape(str(path))}: header lacks \\['{key}'\\]"):
        load_arrays(path)
    write_header(path, [1, 2])
    with pytest.raises(ContainerError, match=f"^{re.escape(str(path))}: header is not a JSON object"):
        load_arrays(path)


def test_unsupported_dtype_raises(tmp_path):
    with pytest.raises(ContainerError, match="dtype"):
        save_arrays(tmp_path / "x.tdc", {"c": np.ones(2, dtype=complex)}, kind="k")


def test_non_contiguous_input_saved_correctly(tmp_path):
    base = np.arange(24.0).reshape(4, 6)
    view = base[:, ::2]  # strided, non-contiguous
    path = tmp_path / "s.tdc"
    save_arrays(path, {"v": view}, kind="k")
    loaded, _ = load_arrays(path)
    np.testing.assert_array_equal(loaded["v"], view)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_round_trips(x):
    assert float(fmt_float(x)) == x


def test_fmt_float_special_values():
    assert float(fmt_float(float("inf"))) == float("inf")
    assert fmt_float(0.1) == "0.1"
    assert fmt_float(np.float64(0.1)) == "0.1"


def test_csv_roundtrip_types(tmp_path):
    path = tmp_path / "r.csv"
    cols = ["i", "f", "b", "s"]
    rows = [
        [1, 0.1, True, "pd"],
        [-3, 1e-17, False, "dnn"],
        [np.int64(7), np.float64(2.5), np.bool_(True), "x"],
    ]
    write_csv(path, cols, rows)
    got_cols, got_rows = read_csv(path)
    assert got_cols == cols
    assert got_rows[0] == ["1", "0.1", "1", "pd"]
    assert got_rows[1] == ["-3", "1e-17", "0", "dnn"]
    assert got_rows[2] == ["7", "2.5", "1", "x"]
    # floats survive the trip exactly
    assert float(got_rows[1][1]) == 1e-17


def test_csv_cell_forms_are_pinned(tmp_path):
    """Python and numpy scalars of one kind write the same text."""
    row = [True, False, np.bool_(True), np.bool_(False), 7, -12, np.int64(-3), np.int32(5),
           0.1, 1 / 3, np.float64(2 / 3), float("nan"), np.float64("nan"), float("inf"),
           -float("inf"), np.float64("-inf"), -0.0, np.float64(-0.0), 1e300, "abc"]
    path = tmp_path / "cells.csv"
    write_csv(path, [f"c{i}" for i in range(len(row))], [row])
    assert path.read_text().splitlines()[1] == (
        "1,0,1,0,7,-12,-3,5,0.1,0.3333333333333333,0.6666666666666666,"
        "nan,nan,inf,-inf,-inf,-0.0,-0.0,1e+300,abc")


def test_csv_write_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = [[i, i * 0.3333333333333333] for i in range(50)]
    write_csv(p1, ["i", "v"], rows)
    write_csv(p2, ["i", "v"], [list(r) for r in rows])
    assert p1.read_bytes() == p2.read_bytes()
