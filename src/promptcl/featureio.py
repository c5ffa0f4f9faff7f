"""Versioned array archives, the one binary container of feature files and
of the codebook / head / mixture-bank checkpoints.

An archive is a magic, a version u32 = 2, an array count u32, then per array
its UTF-8 name, a dtype code (f4, f8 or i8), its rank, shape and payload, all
little-endian. Version 1 archives, which had no f8 code, still read.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from . import PromptclError

FEATURE_MAGIC = b"STARFARC"


class FormatError(PromptclError):
    """Raised on malformed binary files."""


def unique_keys(path, error=FormatError):
    """An ``object_pairs_hook`` for ``json.load`` that raises ``error``
    naming a key given twice in one object of the file ``path``."""
    def hook(pairs):
        obj = {}
        for k, v in pairs:
            if k in obj:
                raise error(f"{path}: key '{k}' is given twice")
            obj[k] = v
        return obj

    return hook


def write_feature_file(path, features, labels) -> None:
    """Write a feature file: the archive entries ``features`` (count x dim
    float32) and ``labels`` (count class ids >= 0)."""
    features, labels = np.asarray(features, dtype=np.float32), np.asarray(labels)
    if features.ndim != 2 or labels.shape != features.shape[:1] or labels.dtype.kind not in "iu":
        raise FormatError(f"features {features.shape} and {labels.dtype} labels {labels.shape} "
                          f"must be (count, dim) floats and (count,) ints")
    write_archive(path, FEATURE_MAGIC, {"features": features, "labels": labels})


def load_feature_file(path):
    """Read a feature file back as (count x dim float32 array, label list);
    a malformed or empty file, a non-finite feature or a negative label
    raises FormatError naming it."""
    arrays = read_archive(path, FEATURE_MAGIC)
    # rows are float32 however an edited file stored them
    features = archive_entry(arrays, path, "features", "f", (None, None), np.float32)
    labels = archive_entry(arrays, path, "labels", "i", (len(features),))
    if 0 in features.shape:
        raise FormatError(f"{path}: entry 'features' is empty, of shape {features.shape}")
    if (labels < 0).any():
        raise FormatError(f"{path}: entry 'labels' holds a negative class id")
    return features, labels.tolist()


# ---------------------------------------------------------------------------
# named-array archives

ARCHIVE_VERSION = 2
_READ_VERSIONS = (1, 2)
_CODE_TYPES = {b"f4": "<f4", b"f8": "<f8", b"i8": "<i8"}


def write_archive(path, magic: bytes, arrays: dict) -> None:
    """Write named arrays: float64 as f64 LE, other floats as f32 LE, integer
    arrays as i64 LE."""
    if len(magic) != 8:
        raise FormatError("archive magic must be 8 bytes")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<II", ARCHIVE_VERSION, len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            if arr.dtype == np.float64:
                code = b"f8"
            elif np.issubdtype(arr.dtype, np.floating):
                code = b"f4"
            else:
                code = b"i8"
            arr = arr.astype(_CODE_TYPES[code])
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(code)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr).tobytes())


def read_archive(path, magic: bytes) -> dict:
    """Read named arrays back; a truncated or corrupt file, or a name given
    twice, raises FormatError."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != magic:
        raise FormatError(f"{path}: bad magic {raw[:8]!r}, expected {magic!r}")
    off = 8

    def chunk(n, what):
        nonlocal off
        if off + n > len(raw):
            raise FormatError(f"{path}: truncated at byte {len(raw)} while reading {what}")
        off += n
        return raw[off - n:off]

    version, n = struct.unpack("<II", chunk(8, "the header"))
    if version not in _READ_VERSIONS:
        raise FormatError(f"{path}: unsupported archive version {version}")
    arrays = {}
    for _ in range(n):
        (nlen,) = struct.unpack("<I", chunk(4, "a name length"))
        try:
            name = chunk(nlen, "a name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: array name is not UTF-8") from None
        if name in arrays:
            raise FormatError(f"{path}: entry {name!r} is given twice")
        code = chunk(2, f"the dtype of {name!r}")
        if code not in _CODE_TYPES:
            raise FormatError(f"{path}: unknown dtype code {code!r}")
        (ndim,) = struct.unpack("<I", chunk(4, f"the rank of {name!r}"))
        shape = struct.unpack(f"<{ndim}I", chunk(4 * ndim, f"the shape of {name!r}"))
        dt = np.dtype(_CODE_TYPES[code])
        payload = chunk(math.prod(shape) * dt.itemsize, f"array {name!r}")
        try:
            arrays[name] = np.frombuffer(payload, dtype=dt).reshape(shape).copy()
        except ValueError:  # numpy's rank or size limits
            raise FormatError(f"{path}: array {name!r} has unsupported shape {shape}") from None
    if off != len(raw):
        raise FormatError(f"{path}: trailing bytes")
    return arrays


_KINDS = {"f": "float", "i": "integer"}


def archive_entry(arrays: dict, path, name: str, kind: str, shape=None,
                  dtype=None) -> np.ndarray:
    """Entry ``name`` of the archive read from ``path``, checked for its dtype
    kind ("f" float or "i" integer) and, if given, its ``shape`` (None
    matches any length), and cast to ``dtype`` if one is given. A missing or
    mismatched entry, a float entry holding NaN or +-Inf, or a float value
    beyond ``dtype``'s range raises FormatError naming the file and the entry."""
    if name not in arrays:
        raise FormatError(f"{path}: missing entry {name!r}")
    arr = arrays[name]
    fits = shape is None or (arr.ndim == len(shape) and all(
        want in (None, got) for got, want in zip(arr.shape, shape)))
    if arr.dtype.kind != kind or not fits:
        want = "" if shape is None else f" of shape {tuple(shape)}"
        raise FormatError(f"{path}: entry {name!r} is {arr.dtype.name} of shape "
                          f"{arr.shape}, expected {_KINDS[kind]}{want}")
    if kind == "f" and not np.isfinite(arr).all():
        raise FormatError(f"{path}: entry {name!r} holds NaN or infinite values")
    if dtype is None or arr.dtype == dtype:
        return arr
    with np.errstate(over="ignore"):  # an overflow is named below
        cast = arr.astype(dtype)
    if not np.isfinite(cast).all():
        raise FormatError(f"{path}: entry {name!r} holds values beyond "
                          f"{np.dtype(dtype).name} range")
    return cast
