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

Every tensor is one entry: its file tag (``F32``, ``F64``), its shape, and
where its little-endian bytes are: left in a loaded file, held in memory, or
made each time the tensor is used by a function that hands them to a writer
(``Checkpoint.deferred``; ``revla.merge.linear_merge`` defers its blends so).
A loaded checkpoint keeps its file open and reads each tensor from it when
the tensor is used. Serializing and saving take the same parts of the
canonical file: the header, then each tensor's bytes from memory, its file
or its function. Serializing reads each part into its one result, or, given
a writer, hands it each part in turn, reading each tensor still in its file
into one reused buffer, so it holds the largest such tensor and not the file
(an ``inspect`` of a 515 MiB file peaks at about 25 MB). Saving writes held
bytes as they are, has each function write its tensor as it makes it, and
has the kernel copy each tensor still in its file (``os.copy_file_range``),
so a save holds no unchanged tensor, and a merge's save holds what it makes
one tensor at a time. This module imports numpy only where an array is built
or compared: a command that reads headers and bytes alone never loads it.
"""

from __future__ import annotations

import errno
import functools
import io
import json
import math
import os
import struct
import sys
import weakref
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple

from . import check_output
from .selector import Selector

if TYPE_CHECKING:
    import numpy as np

_HEADER_LEN_SIZE = 8
_MAX_HEADER_LEN = 100_000_000  # the reference loader's limit
_METADATA_KEY = "__metadata__"
# the stored tags, each a little-endian IEEE float
_DTYPE_FOR_TAG = {"F32": "<f4", "F64": "<f8"}
_ITEMSIZE = {"F32": 4, "F64": 8}
_TAG_FOR_CHAR = {"f": "F32", "d": "F64"}  # numpy's type codes of float32 and float64
# numpy builds no array whose nonzero dimensions and item size multiply past
# its index type, intp, which is Py_ssize_t
_MAX_INTP = sys.maxsize
# what os.copy_file_range raises where the kernel cannot copy between two files; seccomp filters give EPERM
_NO_KERNEL_COPY = frozenset({errno.EXDEV, errno.ENOSYS, errno.EINVAL, errno.EOPNOTSUPP, errno.EPERM})
# a tensor made when it is used: called with a writer, it hands it the tensor's bytes in one call, in
# a flat view of bytes that is valid only during that call
_Made = Callable[[Callable[[memoryview], object]], None]


def _too_many_dims(ndim: int) -> bool:
    """Whether numpy builds no array of ``ndim`` dimensions: more than 64, or 32 before numpy 2."""
    if ndim <= 32:
        return False  # so numpy is imported only for a shape that needs its version
    import numpy as np

    return ndim > (64 if int(np.__version__.split(".")[0]) >= 2 else 32)


class CheckpointFormatError(ValueError):
    """A checkpoint file or in-memory checkpoint violates the storage format."""


@dataclass(frozen=True)
class TensorMeta:
    """Header entry for one tensor: name, dtype tag (``F32``, ``F64``), shape, and data location."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    byte_range: tuple[int, int]


def _expected_nbytes(tag: str, shape: tuple[int, ...]) -> int:
    return math.prod(shape) * _ITEMSIZE[tag]


class _Source:
    """An open checkpoint file that tensors are read from when they are used.

    Its inode, size and modification time are recorded at open and checked
    by ``checked`` before every read or copy, so a file changed since it was
    loaded fails instead of yielding a wrong tensor. A same-size rewrite
    within one timestamp tick of the file system goes unseen. Renaming a new
    file over the path (as ``save_checkpoint`` does) leaves this file as it was.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = path
        self._file = open(path, "rb", buffering=0)
        weakref.finalize(self, self._file.close)
        self._stamp = self._stat()
        self.size = self._stamp[1]

    def _stat(self) -> tuple[int, int, int]:
        st = os.fstat(self._file.fileno())
        return st.st_ino, st.st_size, st.st_mtime_ns

    def checked(self) -> int:
        """The file's descriptor, once its inode, size and modification time are found as loaded."""
        if self._stat() != self._stamp:
            raise self.changed()
        return self._file.fileno()

    def changed(self) -> CheckpointFormatError:
        return CheckpointFormatError(f"{self.path} changed since it was loaded")


class _Stream(io.RawIOBase):
    """Parts ``(source, offset, nbytes)`` of held ``bytes``, a file or a made tensor, read in order as
    one raw stream.

    Each read copies from one part straight into the reader's buffer, so
    ``io.BufferedReader(stream).read(stream.size)`` holds the parts once, in its result. A made
    tensor is made when the stream reaches it, and the bytes of its part held until they are read."""

    def __init__(self, parts: Iterable[tuple[_Source | bytes | _Made, int, int]]) -> None:
        # an empty part is left out: a read of no bytes would end a buffered read
        self._parts = deque(part for part in parts if part[2])
        self.size = sum(part[2] for part in self._parts)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if not self._parts:
            return 0
        src, offset, nbytes = self._parts.popleft()
        if callable(src):  # made now, and the part's bytes held from here on
            src, offset = _bytes(src, offset, nbytes), 0
        view = memoryview(buffer)[:nbytes]
        if isinstance(src, bytes):
            count = len(view)
            view[:] = memoryview(src)[offset : offset + count]
        # a file is read positionally, moving no file offset, and one changed or cut short fails
        elif not (count := os.preadv(src.checked(), [view], offset)):
            raise src.changed()
        if count < nbytes:
            self._parts.appendleft((src, offset + count, nbytes - count))
        return count


def _bytes(source: _Source | bytes | _Made, offset: int, nbytes: int) -> bytes:
    """``nbytes`` from ``offset`` of held ``bytes`` (itself, if all of it), of a file, read anew, or of
    what a made tensor hands its writer, copied."""
    if isinstance(source, bytes):
        return source[offset : offset + nbytes]
    if callable(source):
        made: list[bytes] = []
        source(lambda view: made.append(bytes(view[offset : offset + nbytes])))
        return made[0]
    return io.BufferedReader(_Stream([(source, offset, nbytes)])).read(nbytes)


def _copy(source: _Source, offset: int, nbytes: int, out, refused: set[_Source]) -> None:
    """Copy ``nbytes`` from ``offset`` of a loaded file to the end of the open file ``out``, in the kernel.

    The source offset is passed, so no file offset of ``source`` moves. A copy that finds no byte fails
    as changed, a short one is resumed, and where the kernel cannot copy, the rest is read and written.
    A source the kernel refuses at a tensor's first call (``EXDEV`` between two file systems, say) is
    added to ``refused``, and every later tensor of it in ``refused`` is read and written at once; a
    refusal after some bytes of a tensor were copied is not taken as final."""
    first = True
    while nbytes and source not in refused:
        try:
            count = os.copy_file_range(source.checked(), out.fileno(), nbytes, offset)
        except OSError as exc:
            if exc.errno not in _NO_KERNEL_COPY:
                raise
            if first:
                refused.add(source)
            break
        if not count:
            raise source.changed()
        offset, nbytes, first = offset + count, nbytes - count, False
    if nbytes:
        out.write(_bytes(source, offset, nbytes))


class _Stored(NamedTuple):
    """One tensor: its tag, its shape, and where its little-endian bytes are.

    ``source`` is the loaded file the bytes lie in at ``offset``, read on
    every access and never cached, the tensor's own ``bytes`` held in memory,
    or a function that makes the tensor on every access and hands its bytes
    to a writer (``_Made``, made by ``Checkpoint.deferred``; ``offset`` is 0).
    """

    source: _Source | bytes | _Made
    offset: int
    shape: tuple[int, ...]
    tag: str

    @property
    def nbytes(self) -> int:
        return _expected_nbytes(self.tag, self.shape)

    def read(self) -> np.ndarray:
        """A new read-only array over the tensor's bytes: those held, or a new read of its file."""
        import numpy as np

        data = _bytes(self.source, self.offset, self.nbytes)
        return np.ndarray(self.shape, _DTYPE_FOR_TAG[self.tag], data)


class Checkpoint:
    """Immutable, name-ordered collection of dense float tensors.

    Every tensor's bytes are an immutable ``bytes`` object, so no array of
    them can be made writable. An array whose ``base`` is a ``bytes`` object
    holding exactly its bytes in file order is adopted and shared; anything
    else is copied once. A loaded checkpoint's tensors stay in its file, and
    a deferred one's (``deferred``) are made anew each time they are used.
    Indexing builds a new read-only array over a tensor's bytes each time,
    and names, shapes and dtypes are known without reading any. Iteration
    is by name.
    """

    def __init__(
        self,
        tensors: Mapping[str, np.ndarray],
        metadata: Mapping[str, str] | None = None,
    ) -> None:
        frozen: dict[str, _Stored] = {}
        for name in sorted(tensors):
            if not isinstance(name, str) or not name:
                raise CheckpointFormatError(f"invalid tensor name: {name!r}")
            if name == _METADATA_KEY:
                raise CheckpointFormatError(f"{_METADATA_KEY!r} is reserved")
            tensor = tensors[name]
            if not isinstance(tensor, _Stored):
                import numpy as np

                arr = np.asarray(tensor)
                if not (arr.dtype.isnative and arr.dtype.char in _TAG_FOR_CHAR):
                    raise CheckpointFormatError(
                        f"tensor {name!r}: unsupported dtype {arr.dtype}; "
                        "only f32 and f64 are stored"
                    )
                tag = _TAG_FOR_CHAR[arr.dtype.char]
                held = arr.base  # adopted if it is exactly the array's bytes in file order
                in_file_order = arr.flags.c_contiguous and arr.dtype.str == _DTYPE_FOR_TAG[tag]
                if not (isinstance(held, bytes) and len(held) == arr.nbytes and in_file_order):
                    held = np.asarray(arr, _DTYPE_FOR_TAG[tag]).tobytes()
                tensor = _Stored(held, 0, arr.shape, tag)
            frozen[name] = tensor
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
        return self._tensors[name].read()

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
        for name, tensor in self._tensors.items():
            end = offset + tensor.nbytes
            out.append(TensorMeta(name, tensor.tag, tensor.shape, (offset, end)))
            offset = end
        return out

    def replace(self, updates: Mapping[str, np.ndarray]) -> "Checkpoint":
        """New checkpoint with some tensors swapped out; the others are not read."""
        tensors = dict(self._tensors)
        tensors.update(updates)
        return Checkpoint(tensors, self._metadata)

    def take(self, other: "Checkpoint", names: Iterable[str]) -> "Checkpoint":
        """New checkpoint with the tensors ``names`` of ``other`` as they are stored there; none is read."""
        return self.replace({name: other._tensors[name] for name in names})

    def deferred(
        self, names: Iterable[str], write: Callable[[str, Callable[[memoryview], object]], None]
    ) -> "Checkpoint":
        """New checkpoint whose tensors ``names``, at the shapes and tags they have here, are made each
        time one is used, by ``write(name, out)``: it hands ``out`` the tensor's bytes in one call, in a
        flat view of bytes that is valid only during that call. Nothing is made here."""
        made = {name: functools.partial(write, name) for name in names}
        return self.replace({name: self._tensors[name]._replace(source=source, offset=0)
                             for name, source in made.items()})

    def is_deferred(self, name: str) -> bool:
        """Whether the tensor ``name`` is made each time it is used (``deferred``), so that each
        ``read_into`` of a part of it makes it whole again."""
        return callable(self._tensors[name].source)

    def read_into(self, name: str, buffer: memoryview, start: int = 0) -> np.ndarray:
        """The tensor's elements from its byte ``start`` (a whole element) on, as many as fit in the
        writable ``buffer`` or as remain, read into it and returned as a writable flat array over it."""
        import numpy as np

        tensor = self._tensors[name]
        itemsize = _ITEMSIZE[tensor.tag]
        view = buffer[: min(len(buffer) // itemsize * itemsize, tensor.nbytes - start)]
        io.BufferedReader(_Stream([(tensor.source, tensor.offset + start, len(view))])).readinto(view)
        return np.ndarray((len(view) // itemsize,), _DTYPE_FOR_TAG[tensor.tag], view)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Checkpoint):
            return NotImplemented
        if self.names() != other.names() or self._metadata != other._metadata:
            return False
        return all(same_bits(self[name], other[name]) for name in self._tensors)

    def __repr__(self) -> str:
        return f"Checkpoint({len(self)} tensors)"


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays have the same dtype, shape and bytes, compared without copying them.

    Comparing same-width unsigned-integer views tells ``-0.0`` from ``0.0``
    and finds a NaN equal to the same NaN, as a byte comparison does.
    """
    import numpy as np

    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    bits = np.dtype(f"u{a.dtype.itemsize}")
    return bool((a.view(bits) == b.view(bits)).all())


def select(source: Iterable[str], selector: Selector) -> list[str]:
    """Names of ``source`` (a ``Checkpoint`` iterates over its own) matching ``selector``, sorted."""
    return [name for name in sorted(source) if selector.matches(name)]


def printable(name: str) -> str:
    """``name`` as it is printed on one line: itself if printable, else its ``repr``."""
    return name if name.isprintable() else repr(name)


def validate_compat(a: Checkpoint, b: Checkpoint, names: Iterable[str] | None = None) -> list[str]:
    """One line per difference in (name, shape, dtype), optionally restricted to ``names``.

    Names missing from ``a`` come first, then those missing from ``b``, then
    shape and dtype mismatches; an empty list means the two are compatible.
    A name is shown as ``printable`` gives it, so no name can break a line.
    """
    scope = sorted(set(a.names()) | set(b.names()) if names is None else set(names))
    # shape and dtype only: nothing is read
    both = [(printable(n), a._tensors[n], b._tensors[n]) for n in scope if n in a and n in b]
    return (
        [f"missing in first checkpoint: {printable(n)}" for n in scope if n not in a]
        + [f"missing in second checkpoint: {printable(n)}" for n in scope if n not in b]
        + [f"shape mismatch for {n}: {list(ta.shape)} vs {list(tb.shape)}"
           for n, ta, tb in both if ta.shape != tb.shape]
        + [f"dtype mismatch for {n}: {ta.tag} vs {tb.tag}"
           for n, ta, tb in both if ta.tag != tb.tag]
    )


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
        if not isinstance(tag, str) or tag not in _ITEMSIZE:
            raise CheckpointFormatError(f"tensor {name!r}: unknown dtype {tag!r}")
        if (
            not isinstance(shape, list)
            or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape)
            or _too_many_dims(len(shape))
            or math.prod(d for d in shape if d) * _ITEMSIZE[tag] > _MAX_INTP
        ):
            raise CheckpointFormatError(f"tensor {name!r}: invalid shape {shape!r}")
        if (
            not isinstance(offsets, list)
            or len(offsets) != 2
            or not all(isinstance(o, int) and not isinstance(o, bool) for o in offsets)
        ):
            raise CheckpointFormatError(f"tensor {name!r}: invalid data_offsets {offsets!r}")
        start, end = offsets
        if start < 0 or end < start:
            raise CheckpointFormatError(
                f"tensor {name!r}: invalid byte range [{start}, {end})"
            )
        if end > data_len:
            raise CheckpointFormatError(
                f"tensor {name!r}: out-of-bounds data "
                f"(range [{start}, {end}) exceeds data section of {data_len} bytes)"
            )
        if end - start != _expected_nbytes(tag, tuple(shape)):
            raise CheckpointFormatError(
                f"tensor {name!r}: byte range [{start}, {end}) does not match "
                f"shape {shape} of dtype {tag}"
            )
        metas.append(TensorMeta(name, tag, tuple(shape), (start, end)))

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
    """Open a checkpoint file and validate its header against the data section.

    No tensor is read here: the file stays open, and each tensor is read
    from it whenever it is used. Reading from a file that changed since it
    was loaded raises ``CheckpointFormatError``.
    """
    source = _Source(path)
    if source.size < _HEADER_LEN_SIZE:
        raise CheckpointFormatError(
            f"malformed header length: file is only {source.size} bytes"
        )
    (header_len,) = struct.unpack("<Q", _bytes(source, 0, _HEADER_LEN_SIZE))
    if header_len > _MAX_HEADER_LEN:
        raise CheckpointFormatError(
            f"malformed header length: header of {header_len} bytes exceeds "
            f"the {_MAX_HEADER_LEN}-byte limit"
        )
    data_start = _HEADER_LEN_SIZE + header_len
    if data_start > source.size:
        raise CheckpointFormatError(
            f"malformed header length: header of {header_len} bytes exceeds "
            f"file size {source.size}"
        )
    metas, metadata = _parse_header(_bytes(source, _HEADER_LEN_SIZE, header_len), source.size - data_start)
    tensors = {
        meta.name: _Stored(source, data_start + meta.byte_range[0], meta.shape, meta.dtype)
        for meta in metas
    }
    return Checkpoint(tensors, metadata or None)


def _canonical(ckpt: Checkpoint) -> list[tuple[_Source | bytes | _Made, int, int]]:
    """The parts of ``ckpt``'s canonical file, for ``_Stream``: the padded header, then each tensor."""
    header: dict[str, object] = {}
    if ckpt.metadata:
        header[_METADATA_KEY] = ckpt.metadata
    for meta in ckpt.metas():
        header[meta.name] = {
            "dtype": meta.dtype,
            "shape": list(meta.shape),
            "data_offsets": list(meta.byte_range),
        }
    blob = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    blob += b" " * (-len(blob) % 8)
    head = struct.pack("<Q", len(blob)) + blob
    return [(head, 0, len(head)), *((t.source, t.offset, t.nbytes) for t in ckpt._tensors.values())]


def serialize_checkpoint(ckpt: Checkpoint, out=None):
    """Canonical byte serialization; equal checkpoints yield equal bytes.

    Without ``out``, each tensor's bytes are copied once, from memory or its
    file, into the one ``bytes`` result, so this holds the checkpoint once
    (and a made tensor once more while it is copied in). With ``out``, the
    same bytes go to ``out.write`` one part per call (the padded header, then
    each tensor in name order, a zero-size one as an empty write) and ``out``
    is returned. A held tensor is written from its own bytes and a made one
    as it is made; one still in its file is read whole into one buffer,
    reused for every such tensor, so this holds the largest of them once.
    The view given to ``write`` is valid only during that call."""
    parts = _canonical(ckpt)
    if out is None:
        stream = _Stream(parts)
        return io.BufferedReader(stream).read(stream.size)
    largest = max((nbytes for source, _, nbytes in parts if isinstance(source, _Source)), default=0)
    buffer = memoryview(bytearray(largest))
    for source, offset, nbytes in parts:
        if isinstance(source, bytes):
            out.write(memoryview(source)[offset : offset + nbytes])
        elif callable(source):
            source(out.write)
        else:
            view = buffer[:nbytes]
            io.BufferedReader(_Stream([(source, offset, nbytes)])).readinto(view)
            out.write(view)
    return out


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write the canonical serialization of ``ckpt`` to ``path`` with the writer that
    ``revla.check_output`` returns for a renamed output: whole or not at all, replacing any link.
    Held tensors are written as they are and made ones as they are made; each tensor in a file is
    copied from it by the kernel (``_copy``), or read and written where the kernel cannot copy, so
    no unchanged tensor is held. A file the kernel refuses to copy from is not asked again in this
    save."""
    refused: set[_Source] = set()
    check_output(path, renamed=True)(_chunk(*part, refused) for part in _canonical(ckpt))


def _chunk(source: _Source | bytes | _Made, offset: int, nbytes: int, refused: set[_Source]):
    """A part as the writer takes it: held ``bytes``, or a function that makes it or copies it from
    its file into the open file it is given."""
    if isinstance(source, bytes):
        return source[offset : offset + nbytes]
    if callable(source):
        return lambda out: source(out.write)
    return lambda out: _copy(source, offset, nbytes, out, refused)
