"""Binary file formats: feature files and versioned array archives.

Feature file layout (little-endian throughout):
  magic "STARFEAT" (8 bytes), version u32 = 1, count u32, dim u32,
  count*dim float32 payload, count u32 labels.

Array archives back the codebook / head / mixture-bank checkpoints: a magic,
a version u32 = 2, an array count u32, then per array its UTF-8 name, a dtype
code (f4, f8 or i8), its rank, shape and payload. Version 1 archives, which
had no f8 code, still read.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from . import PromptclError

FEATURE_MAGIC = b"STARFEAT"
FEATURE_VERSION = 1


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
    features = np.ascontiguousarray(features, dtype="<f4")
    labels = np.ascontiguousarray(labels, dtype="<u4")
    if features.ndim != 2:
        raise FormatError(f"features must be 2-D, got shape {features.shape}")
    count, dim = features.shape
    if labels.shape != (count,):
        raise FormatError(f"labels shape {labels.shape} does not match count {count}")
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<III", FEATURE_VERSION, count, dim))
        f.write(features.tobytes())
        f.write(labels.tobytes())


def load_feature_file(path):
    """Read a feature file back as (count x dim float32 array, label list);
    a malformed file or a non-finite feature raises FormatError naming it."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 20:
        raise FormatError(f"{path}: truncated header")
    if raw[:8] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:8]!r}")
    version, count, dim = struct.unpack("<III", raw[8:20])
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if dim == 0 or count == 0:
        raise FormatError(f"{path}: degenerate count/dim ({count}, {dim})")
    need = 20 + 4 * count * dim + 4 * count
    if len(raw) != need:
        raise FormatError(f"{path}: payload length {len(raw)} != expected {need}")
    features = np.frombuffer(raw, dtype="<f4", count=count * dim, offset=20).reshape(count, dim)
    if not np.isfinite(features).all():
        raise FormatError(f"{path}: features hold NaN or infinite values")
    labels = np.frombuffer(raw, dtype="<u4", count=count, offset=20 + 4 * count * dim)
    return features.copy(), [int(x) for x in labels]


# ---------------------------------------------------------------------------
# named-array archives (checkpoints)

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


def archive_entry(arrays: dict, path, name: str, kind: str, shape=None) -> np.ndarray:
    """Entry ``name`` of the archive read from ``path``, checked for its dtype
    kind ("f" float or "i" integer) and, if given, its ``shape`` (None
    matches any length). A missing or mismatched entry, or a float entry
    holding NaN or +-Inf, raises FormatError naming the file and the entry."""
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
    return arr
