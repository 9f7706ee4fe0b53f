"""Deterministic on-disk containers and text formatting.

Checkpoints, datasets, and metric files must be byte-identical across runs
with the same seed, so we avoid zip-based formats (their entries embed
timestamps) and write a small flat container instead:

    magic 'TDC1\\n' | 8-digit header length | JSON header | raw array payload

The header carries a format version, a kind tag, user metadata, an array
manifest (name, shape, dtype), and a sha256 checksum of the payload. Arrays
are stored C-contiguous little-endian in manifest order.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

MAGIC = b"TDC1\n"
FORMAT_VERSION = 1


class ContainerError(ValueError):
    """Malformed, truncated, or corrupted container file."""


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_arrays(path, arrays: dict, kind: str, meta: dict | None = None) -> None:
    """Write named arrays plus metadata to `path` deterministically.

    `meta` must be JSON-serializable and free of volatile values (no
    timestamps) or downstream byte-identity guarantees break.
    """
    manifest = []
    chunks = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.kind not in "fiub":
            raise ContainerError(f"unsupported dtype {arr.dtype} for array {name!r}")
        arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        manifest.append({"name": str(name), "shape": list(arr.shape), "dtype": arr.dtype.str})
        chunks.append(arr.tobytes(order="C"))
    payload = b"".join(chunks)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "meta": meta or {},
        "arrays": manifest,
        "checksum": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = _canonical_json(header)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(b"%08d" % len(header_bytes))
        f.write(header_bytes)
        f.write(payload)


def load_arrays(path, expect_kind: str | None = None):
    """Read a container written by save_arrays. Returns (arrays, meta).

    Verifies magic, version, checksum, and (optionally) the kind tag.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise ContainerError(f"{path}: bad magic, not a terradapt container")
    off = len(MAGIC)
    try:
        hlen = int(raw[off : off + 8])
    except ValueError as e:
        raise ContainerError(f"{path}: corrupt header length") from e
    off += 8
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
    except ValueError as e:                 # not UTF-8, or not JSON
        raise ContainerError(f"{path}: corrupt header, {e}") from e
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header is not a JSON object")
    missing = [k for k in ("meta", "arrays", "checksum") if k not in header]
    if missing:
        raise ContainerError(f"{path}: header lacks {missing}")
    off += hlen
    if header.get("format_version") != FORMAT_VERSION:
        raise ContainerError(f"{path}: unsupported format version {header.get('format_version')}")
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise ContainerError(f"{path}: kind {header.get('kind')!r}, expected {expect_kind!r}")
    payload = raw[off:]
    if hashlib.sha256(payload).hexdigest() != header["checksum"]:
        raise ContainerError(f"{path}: checksum mismatch, file corrupted")
    arrays = {}
    pos = 0
    for entry in header["arrays"]:
        dt = np.dtype(entry["dtype"])
        n = int(np.prod(entry["shape"], dtype=np.int64)) * dt.itemsize
        if pos + n > len(payload):
            raise ContainerError(f"{path}: truncated payload at array {entry['name']!r}")
        arrays[entry["name"]] = np.frombuffer(payload[pos : pos + n], dtype=dt).reshape(entry["shape"]).copy()
        pos += n
    if pos != len(payload):
        raise ContainerError(f"{path}: {len(payload) - pos} trailing payload bytes")
    return arrays, header["meta"]


def _json_safe(x):
    """x with every non-finite float, at any depth, as None: JSON has no
    NaN or Infinity."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def write_json(path, payload: dict) -> None:
    """Write payload as strict JSON, keys sorted, indented, non-finite
    floats as null."""
    with open(path, "w") as f:
        json.dump(_json_safe(payload), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def fmt_float(x) -> str:
    """Shortest round-trip decimal form of a float; deterministic."""
    return repr(float(x))


def write_csv(path, columns: list[str], rows) -> None:
    """Write rows of mixed ints/floats/strings as CSV with round-trip floats.

    Booleans are written 1/0 and integers as integers, Python or numpy
    alike. The exact Python types, which the simulation rows hold, are tested
    first; numpy scalars and subclasses take the isinstance checks after."""
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            parts = []
            for v in row:
                kind = type(v)
                if kind is float:
                    parts.append(repr(v))
                elif kind is bool:
                    parts.append("1" if v else "0")
                elif kind is int:
                    parts.append(str(v))
                elif isinstance(v, (bool, np.bool_)):
                    parts.append("1" if v else "0")
                elif isinstance(v, (int, np.integer)):
                    parts.append(str(int(v)))
                elif isinstance(v, (float, np.floating)):
                    parts.append(fmt_float(v))
                else:
                    parts.append(str(v))
            f.write(",".join(parts) + "\n")
