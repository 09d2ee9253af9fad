"""Single-file checkpoint storage for named float tensors.

File layout: an 8-byte little-endian unsigned header length, a UTF-8 JSON
header mapping tensor names to ``{"dtype", "shape", "data_offsets"}`` (plus
an optional ``"__metadata__"`` object of string pairs), then one contiguous
little-endian data section. Offsets are relative to the start of the data
section. The layout is byte-compatible with the widely used single-file
tensor format, so checkpoints produced by third-party tools load directly.

Canonical serialization orders tensors lexicographically by name, packs the
data section without gaps, and pads the header with spaces to an 8-byte
multiple, which makes byte output a deterministic function of the
checkpoint's contents.
"""

from __future__ import annotations

import json
import os
import re
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

_HEADER_LEN_SIZE = 8
_MAX_HEADER_LEN = 100_000_000  # the reference loader's limit
_METADATA_KEY = "__metadata__"
_DTYPE_FOR_TAG = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
_TAG_FOR_DTYPE = {np.dtype(np.float32): "F32", np.dtype(np.float64): "F64"}


class CheckpointFormatError(ValueError):
    """A checkpoint file or in-memory checkpoint violates the storage format."""


@dataclass(frozen=True)
class TensorMeta:
    """Header entry for one tensor: name, dtype, shape, and data location."""

    name: str
    dtype: np.dtype
    shape: tuple[int, ...]
    byte_range: tuple[int, int]


def _expected_nbytes(dtype: np.dtype, shape: tuple[int, ...]) -> int:
    count = 1
    for dim in shape:
        count *= dim
    return count * dtype.itemsize


class Checkpoint:
    """Immutable, name-ordered collection of dense float tensors.

    Every tensor is a C-contiguous array whose ``base`` is an immutable
    ``bytes`` object, so it can never be made writable. Such arrays are
    adopted and shared; anything else is copied once. A loaded checkpoint's
    tensors view the file's bytes and keep them alive. Iteration is by name.
    """

    def __init__(
        self,
        tensors: Mapping[str, np.ndarray],
        metadata: Mapping[str, str] | None = None,
    ) -> None:
        frozen: dict[str, np.ndarray] = {}
        for name in sorted(tensors):
            if not isinstance(name, str) or not name:
                raise CheckpointFormatError(f"invalid tensor name: {name!r}")
            if name == _METADATA_KEY:
                raise CheckpointFormatError(f"{_METADATA_KEY!r} is reserved")
            arr = np.asarray(tensors[name])
            if arr.dtype not in _TAG_FOR_DTYPE:
                raise CheckpointFormatError(
                    f"tensor {name!r}: unsupported dtype {arr.dtype}; "
                    "only f32 and f64 are stored"
                )
            if not (isinstance(arr.base, bytes) and arr.flags.c_contiguous):
                arr = np.ndarray(arr.shape, arr.dtype, buffer=arr.tobytes())
            frozen[name] = arr
        self._tensors = frozen
        if metadata is not None:
            for key, value in metadata.items():
                if not isinstance(key, str) or not isinstance(value, str):
                    raise CheckpointFormatError("metadata must map strings to strings")
        self._metadata = dict(metadata) if metadata else {}

    @property
    def metadata(self) -> dict[str, str]:
        return dict(self._metadata)

    def names(self) -> list[str]:
        return list(self._tensors)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __contains__(self, name: object) -> bool:
        return name in self._tensors

    def __iter__(self) -> Iterator[str]:
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)

    def metas(self) -> list[TensorMeta]:
        """Canonical header entries: name order, gap-free ascending offsets."""
        out = []
        offset = 0
        for name, arr in self._tensors.items():
            end = offset + arr.nbytes
            out.append(TensorMeta(name, arr.dtype, arr.shape, (offset, end)))
            offset = end
        return out

    def replace(self, updates: Mapping[str, np.ndarray]) -> "Checkpoint":
        """New checkpoint with some tensors swapped out."""
        tensors = dict(self._tensors)
        tensors.update(updates)
        return Checkpoint(tensors, self._metadata)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Checkpoint):
            return NotImplemented
        if self.names() != other.names() or self._metadata != other._metadata:
            return False
        return all(same_bits(arr, other[name]) for name, arr in self._tensors.items())

    def __repr__(self) -> str:
        return f"Checkpoint({len(self)} tensors)"


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays have the same dtype, shape and bytes, compared without copying them.

    Comparing same-width unsigned-integer views tells ``-0.0`` from ``0.0``
    and finds a NaN equal to the same NaN, as a byte comparison does.
    """
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    bits = np.dtype(f"u{a.dtype.itemsize}")
    return bool((a.view(bits) == b.view(bits)).all())


@dataclass(frozen=True)
class Selector:
    """Name patterns where ``*`` matches any character run, across dots.

    ``vision.dino.*`` therefore selects the whole subtree under that prefix.
    The selection is the union over patterns; no patterns selects nothing.
    Patterns come as a list or tuple: a bare string would otherwise split
    into one-character patterns, and a ``*`` among them selects everything.
    """

    patterns: tuple[str, ...]

    def __init__(self, patterns: list[str] | tuple[str, ...] = ()) -> None:
        if not isinstance(patterns, (list, tuple)):
            raise ValueError(f"selector patterns must be a list or tuple, got {patterns!r}")
        pats = tuple(patterns)
        for pat in pats:
            if not isinstance(pat, str) or not pat:
                raise ValueError(f"malformed selector pattern: {pat!r} (must be a non-empty string)")
        object.__setattr__(self, "patterns", pats)

    def matches(self, name: str) -> bool:
        return any(_compile_pattern(pat).fullmatch(name) for pat in self.patterns)


@lru_cache(maxsize=256)
def _compile_pattern(pattern: str) -> re.Pattern[str]:
    return re.compile(".*".join(re.escape(part) for part in pattern.split("*")))


def select(source: Checkpoint | Iterable[str], selector: Selector) -> list[str]:
    """Names matching any selector pattern, in lexicographic order."""
    names = source.names() if isinstance(source, Checkpoint) else sorted(source)
    return [name for name in names if selector.matches(name)]


@dataclass(frozen=True)
class CompatReport:
    """Differences between two checkpoints' (name, shape, dtype) sets."""

    missing_in_a: tuple[str, ...] = ()
    missing_in_b: tuple[str, ...] = ()
    shape_mismatches: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = ()
    dtype_mismatches: tuple[tuple[str, str, str], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (
            self.missing_in_a
            or self.missing_in_b
            or self.shape_mismatches
            or self.dtype_mismatches
        )

    def __bool__(self) -> bool:
        return not self.is_empty

    def describe(self) -> str:
        if self.is_empty:
            return "checkpoints are compatible"
        lines = []
        for name in self.missing_in_a:
            lines.append(f"missing in first checkpoint: {name}")
        for name in self.missing_in_b:
            lines.append(f"missing in second checkpoint: {name}")
        for name, sa, sb in self.shape_mismatches:
            lines.append(f"shape mismatch for {name}: {list(sa)} vs {list(sb)}")
        for name, da, db in self.dtype_mismatches:
            lines.append(f"dtype mismatch for {name}: {da} vs {db}")
        return "\n".join(lines)


def validate_compat(a: Checkpoint, b: Checkpoint, names: Iterable[str] | None = None) -> CompatReport:
    """Compare (name, shape, dtype) sets, optionally restricted to ``names``."""
    if names is None:
        scope = sorted(set(a.names()) | set(b.names()))
    else:
        scope = sorted(set(names))
    missing_a: list[str] = []
    missing_b: list[str] = []
    shape_mm: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    dtype_mm: list[tuple[str, str, str]] = []
    for name in scope:
        in_a, in_b = name in a, name in b
        if not in_a:
            missing_a.append(name)
        if not in_b:
            missing_b.append(name)
        if not (in_a and in_b):
            continue
        ta, tb = a[name], b[name]
        if ta.shape != tb.shape:
            shape_mm.append((name, ta.shape, tb.shape))
        if ta.dtype != tb.dtype:
            dtype_mm.append((name, _TAG_FOR_DTYPE[ta.dtype], _TAG_FOR_DTYPE[tb.dtype]))
    return CompatReport(tuple(missing_a), tuple(missing_b), tuple(shape_mm), tuple(dtype_mm))


def _parse_header(blob: bytes, data_len: int) -> tuple[list[TensorMeta], dict[str, str]]:
    def reject_duplicates(pairs):
        keys = [k for k, _ in pairs]
        if len(keys) != len(set(keys)):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise CheckpointFormatError(f"duplicate names in header: {dupes}")
        return dict(pairs)

    try:
        header = json.loads(blob.decode("utf-8"), object_pairs_hook=reject_duplicates)
    except CheckpointFormatError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointFormatError("header must be a JSON object")

    metadata: dict[str, str] = {}
    if _METADATA_KEY in header:
        raw_meta = header.pop(_METADATA_KEY)
        if not isinstance(raw_meta, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in raw_meta.items()
        ):
            raise CheckpointFormatError(f"{_METADATA_KEY} must map strings to strings")
        metadata = raw_meta

    metas: list[TensorMeta] = []
    for name, entry in header.items():
        if not isinstance(entry, dict):
            raise CheckpointFormatError(f"tensor {name!r}: entry must be an object")
        try:
            tag = entry["dtype"]
            shape = entry["shape"]
            offsets = entry["data_offsets"]
        except KeyError as exc:
            raise CheckpointFormatError(f"tensor {name!r}: missing field {exc}") from exc
        if not isinstance(tag, str) or tag not in _DTYPE_FOR_TAG:
            raise CheckpointFormatError(f"tensor {name!r}: unknown dtype {tag!r}")
        if not isinstance(shape, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
        ):
            raise CheckpointFormatError(f"tensor {name!r}: invalid shape {shape!r}")
        if (
            not isinstance(offsets, list)
            or len(offsets) != 2
            or not all(isinstance(o, int) and not isinstance(o, bool) for o in offsets)
        ):
            raise CheckpointFormatError(f"tensor {name!r}: invalid data_offsets {offsets!r}")
        start, end = offsets
        dtype = _DTYPE_FOR_TAG[tag]
        if start < 0 or end < start:
            raise CheckpointFormatError(
                f"tensor {name!r}: invalid byte range [{start}, {end})"
            )
        if end > data_len:
            raise CheckpointFormatError(
                f"tensor {name!r}: out-of-bounds data "
                f"(range [{start}, {end}) exceeds data section of {data_len} bytes)"
            )
        if end - start != _expected_nbytes(dtype, tuple(shape)):
            raise CheckpointFormatError(
                f"tensor {name!r}: byte range [{start}, {end}) does not match "
                f"shape {shape} of dtype {tag}"
            )
        metas.append(TensorMeta(name, dtype, tuple(shape), (start, end)))

    # Header keys may come in any order; in offset order the ranges must
    # tile the data section exactly.
    metas.sort(key=lambda meta: meta.byte_range)
    prev_end = 0
    for meta in metas:
        start, end = meta.byte_range
        if start < prev_end:
            raise CheckpointFormatError(
                f"tensor {meta.name!r}: byte range [{start}, {end}) overlaps "
                f"the previous tensor, which ends at {prev_end}"
            )
        if start > prev_end:
            raise CheckpointFormatError(
                f"tensor {meta.name!r}: gap in data section "
                f"(range starts at {start}, previous tensor ends at {prev_end})"
            )
        prev_end = end
    if prev_end != data_len:
        raise CheckpointFormatError(
            f"trailing bytes: tensors cover {prev_end} of {data_len} data section bytes"
        )
    return metas, metadata


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load a checkpoint file, validating the header against the data section."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_LEN_SIZE:
        raise CheckpointFormatError(
            f"malformed header length: file is only {len(raw)} bytes"
        )
    (header_len,) = struct.unpack("<Q", raw[:_HEADER_LEN_SIZE])
    if header_len > _MAX_HEADER_LEN:
        raise CheckpointFormatError(
            f"malformed header length: header of {header_len} bytes exceeds "
            f"the {_MAX_HEADER_LEN}-byte limit"
        )
    data_start = _HEADER_LEN_SIZE + header_len
    if data_start > len(raw):
        raise CheckpointFormatError(
            f"malformed header length: header of {header_len} bytes exceeds "
            f"file size {len(raw)}"
        )
    metas, metadata = _parse_header(raw[_HEADER_LEN_SIZE:data_start], len(raw) - data_start)
    tensors = {
        meta.name: np.ndarray(meta.shape, meta.dtype, raw, data_start + meta.byte_range[0])
        for meta in metas
    }
    return Checkpoint(tensors, metadata or None)


def _canonical_parts(ckpt: Checkpoint) -> Iterator[bytes | memoryview]:
    """The canonical file in order: length-prefixed padded header, then each tensor's buffer."""
    header: dict[str, object] = {}
    if ckpt.metadata:
        header[_METADATA_KEY] = ckpt.metadata
    for meta in ckpt.metas():
        header[meta.name] = {
            "dtype": _TAG_FOR_DTYPE[meta.dtype],
            "shape": list(meta.shape),
            "data_offsets": list(meta.byte_range),
        }
    blob = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    blob += b" " * (-len(blob) % 8)
    yield struct.pack("<Q", len(blob)) + blob
    for name in ckpt.names():
        arr = ckpt[name]
        yield np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).data


def _held_file(ckpt: Checkpoint, head: bytes) -> bytes | None:
    """The ``bytes`` object that already is ``ckpt``'s canonical file, if one is.

    That holds when every tensor starts at exactly its canonical offset in
    the first tensor's ``base`` (so all of them view that one object), the
    object begins with the canonical ``head``, and it ends where the last
    tensor ends, as for a checkpoint loaded from a canonical file.
    """
    tensors = list(ckpt._tensors.values())
    if not tensors:
        return None
    held = tensors[0].base
    if len(held) != len(head) + sum(arr.nbytes for arr in tensors) or not held.startswith(head):
        return None
    address = np.frombuffer(held, np.uint8).__array_interface__["data"][0] + len(head)
    for arr in tensors:
        if arr.__array_interface__["data"][0] != address:
            return None
        address += arr.nbytes
    return held


def serialize_checkpoint(ckpt: Checkpoint) -> bytes:
    """Canonical byte serialization; equal checkpoints yield equal bytes.

    When the checkpoint's tensors already view its whole canonical file in
    one ``bytes`` object, that object is returned: it is immutable, so
    sharing it is safe, and nothing is copied.
    """
    parts = _canonical_parts(ckpt)
    head = next(parts)
    held = _held_file(ckpt, head)
    if held is not None:
        return held
    return b"".join([head, *parts])


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write the canonical serialization of ``ckpt`` to ``path``, replacing it atomically.

    The bytes go to a new file beside ``path`` that is renamed over it once
    complete, so a failed write leaves an existing ``path`` as it was.
    """
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "xb")
    except FileNotFoundError as exc:
        # the directory is missing: name the path the caller asked for
        raise FileNotFoundError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            fh.writelines(_canonical_parts(ckpt))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
