"""Binary dataset persistence (magic 'RDS1').

Layout, all little-endian:
  magic 'RDS1' | version u16 | n u32 | m u32 | k u32
  | range flag u8 | lo f64 | hi f64
  | features (n*m f64, row-major) | labels (n i32)
  | metadata length u32 | canonical JSON metadata

Metadata is written canonically (sorted keys, compact separators), so
read-then-write reproduces the file byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
import tempfile

import numpy as np

from .dataset import Dataset
from .errors import DataError, FormatError

MAGIC = b"RDS1"
VERSION = 1
_HEADER = struct.Struct("<4sHIIIBdd")


def atomic_write(path, blob: bytes) -> None:
    """Write-temp-then-rename so partial artifacts never appear."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: list, rows) -> None:
    """Write a header row and then `rows` as CSV (csv module defaults), atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue().encode())


def write_dataset(path, dataset: Dataset) -> None:
    i4 = np.iinfo(np.int32)
    if dataset.n and (dataset.labels.min() < i4.min or dataset.labels.max() > i4.max):
        raise DataError(f"labels must fit in int32, got [{dataset.labels.min()}, {dataset.labels.max()}]")
    meta = json.dumps(json_plain(dataset.provenance), sort_keys=True, separators=(",", ":")).encode()
    flag = 1 if dataset.value_range is not None else 0
    lo, hi = dataset.value_range if dataset.value_range is not None else (0.0, 0.0)
    k = int(np.unique(dataset.labels).size)

    blob = bytearray()
    blob += _HEADER.pack(MAGIC, VERSION, dataset.n, dataset.width, k, flag, lo, hi)
    blob += np.ascontiguousarray(dataset.features, dtype="<f8").tobytes()
    blob += np.ascontiguousarray(dataset.labels, dtype="<i4").tobytes()
    blob += struct.pack("<I", len(meta))
    blob += meta
    atomic_write(path, bytes(blob))


def read_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size:
        raise FormatError("file shorter than header", len(blob))
    magic, version, n, m, _k, flag, lo, hi = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", 4)

    offset = _HEADER.size
    feat_bytes = 8 * n * m
    if len(blob) < offset + feat_bytes:
        raise FormatError("features truncated", len(blob))
    features = np.frombuffer(blob, dtype="<f8", count=n * m, offset=offset).reshape(n, m)
    offset += feat_bytes

    label_bytes = 4 * n
    if len(blob) < offset + label_bytes:
        raise FormatError("labels truncated", len(blob))
    labels = np.frombuffer(blob, dtype="<i4", count=n, offset=offset).astype(np.int64)
    offset += label_bytes

    if len(blob) < offset + 4:
        raise FormatError("metadata length missing", len(blob))
    (meta_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if len(blob) != offset + meta_len:
        raise FormatError("metadata length does not match payload", offset)
    try:
        provenance = json.loads(blob[offset : offset + meta_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"metadata is not valid JSON: {exc}", offset) from exc

    value_range = (lo, hi) if flag else None
    return Dataset(features.astype(np.float64), labels, value_range, provenance)


def json_plain(obj):
    """`obj` with numpy scalars and arrays, tuples and non-string keys made plain JSON."""
    if isinstance(obj, dict):
        return {str(k): json_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_plain(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
