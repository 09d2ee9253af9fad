"""Checkpoint file format: parsing, validation, canonical round-trips."""

from __future__ import annotations

import errno
import gc
import hashlib
import io
import json
import os
import re
import struct
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import revla
import revla.merge as merge
import revla.tensor_store as tensor_store
from revla.cli import main
from revla.cores import map_on_cores
from revla.merge import MergeSpec, linear_merge
from revla.tensor_store import (
    Checkpoint,
    CheckpointFormatError,
    Selector,
    load_checkpoint,
    save_checkpoint,
    select,
    serialize_checkpoint,
    validate_compat,
)

DTYPE_TAGS = {"f4": "F32", "f8": "F64"}


def build_file_bytes(entries, metadata=None, header_override=None) -> bytes:
    """Assemble a checkpoint file by hand, independent of the library writer.

    ``entries`` is a list of (name, numpy array) laid out in order; pass
    ``header_override`` to craft malformed headers.
    """
    if header_override is None:
        header: dict = {}
        if metadata is not None:
            header["__metadata__"] = metadata
        offset = 0
        for name, arr in entries:
            end = offset + arr.nbytes
            header[name] = {
                "dtype": DTYPE_TAGS[arr.dtype.str[1:]],
                "shape": list(arr.shape),
                "data_offsets": [offset, end],
            }
            offset = end
        blob = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode()
    else:
        blob = header_override
    blob += b" " * (-len(blob) % 8)
    data = b"".join(arr.tobytes() for _, arr in entries)
    return struct.pack("<Q", len(blob)) + blob + data


def write_file(tmp_path, raw: bytes, name="ckpt.safetensors"):
    path = tmp_path / name
    path.write_bytes(raw)
    return path


def test_load_hand_built_single_tensor(tmp_path):
    arr = np.array([1.0, 2.0], dtype=np.float32)
    path = write_file(tmp_path, build_file_bytes([("w", arr)]))
    ckpt = load_checkpoint(path)
    assert ckpt.names() == ["w"]
    assert ckpt["w"].dtype == np.float32
    np.testing.assert_array_equal(ckpt["w"], arr)


def test_round_trip_reproduces_canonical_bytes(tmp_path):
    entries = [
        ("llm.w", np.arange(6, dtype=np.float64).reshape(2, 3)),
        ("vision.dino.w", np.array([0.5, -0.5], dtype=np.float32)),
    ]
    raw = build_file_bytes(entries)  # already in lexicographic order
    path = write_file(tmp_path, raw)
    ckpt = load_checkpoint(path)
    assert serialize_checkpoint(ckpt) == raw
    out = tmp_path / "resaved.safetensors"
    save_checkpoint(ckpt, out)
    assert out.read_bytes() == raw


def test_non_canonical_order_is_canonicalized(tmp_path):
    a = np.ones(3, dtype=np.float32)
    b = np.zeros(2, dtype=np.float64)
    raw = build_file_bytes([("z.w", a), ("a.w", b)])  # reversed name order
    ckpt = load_checkpoint(write_file(tmp_path, raw))
    assert ckpt.names() == ["a.w", "z.w"]
    canonical = serialize_checkpoint(ckpt)
    assert canonical != raw
    # canonicalization is a fixed point
    reloaded = load_checkpoint(write_file(tmp_path, canonical, "canon.safetensors"))
    assert serialize_checkpoint(reloaded) == canonical
    assert reloaded == ckpt


def test_empty_tensor_list(tmp_path):
    path = write_file(tmp_path, build_file_bytes([]))
    ckpt = load_checkpoint(path)
    assert len(ckpt) == 0
    assert serialize_checkpoint(ckpt) == build_file_bytes([])


def test_metadata_round_trip(tmp_path):
    arr = np.ones(1, dtype=np.float64)
    raw = build_file_bytes([("w", arr)], metadata={"source": "unit-test"})
    ckpt = load_checkpoint(write_file(tmp_path, raw))
    assert ckpt.metadata == {"source": "unit-test"}
    assert serialize_checkpoint(ckpt) == raw


def test_zero_size_and_scalar_tensors(tmp_path):
    entries = [
        ("empty", np.zeros((0, 4), dtype=np.float32)),
        ("scalar", np.array(3.5, dtype=np.float64)),
    ]
    ckpt = load_checkpoint(write_file(tmp_path, build_file_bytes(entries)))
    assert ckpt["empty"].shape == (0, 4)
    assert ckpt["scalar"].shape == ()
    assert float(ckpt["scalar"]) == 3.5


def test_out_of_bounds_data_rejected(tmp_path):
    arr = np.ones(4, dtype=np.float32)
    raw = build_file_bytes([("w", arr)])
    truncated = raw[:-8]  # drop half the data section
    with pytest.raises(CheckpointFormatError, match="out-of-bounds data"):
        load_checkpoint(write_file(tmp_path, truncated))


def test_header_length_beyond_file_rejected(tmp_path):
    raw = struct.pack("<Q", 1 << 30) + b"{}"
    with pytest.raises(CheckpointFormatError, match="malformed header length"):
        load_checkpoint(write_file(tmp_path, raw))


def test_header_length_above_cap_rejected(tmp_path):
    raw = struct.pack("<Q", 100_000_001)
    with pytest.raises(CheckpointFormatError, match="exceeds the 100000000-byte limit") as excinfo:
        load_checkpoint(write_file(tmp_path, raw))
    assert "\n" not in str(excinfo.value)


def test_file_shorter_than_length_field_rejected(tmp_path):
    with pytest.raises(CheckpointFormatError, match="malformed header length"):
        load_checkpoint(write_file(tmp_path, b"\x02\x00"))


def test_header_not_json_rejected(tmp_path):
    raw = build_file_bytes([], header_override=b"not json")
    with pytest.raises(CheckpointFormatError, match="not valid JSON"):
        load_checkpoint(write_file(tmp_path, raw))


def test_overlapping_ranges_rejected(tmp_path):
    header = {
        "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
        "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
    }
    raw = build_file_bytes(
        [("pad", np.zeros(3, dtype=np.float32))],
        header_override=json.dumps(header, separators=(",", ":")).encode(),
    )
    with pytest.raises(CheckpointFormatError, match="overlaps"):
        load_checkpoint(write_file(tmp_path, raw))


def test_non_ascending_ranges_load_as_canonical(tmp_path):
    header = {
        "a": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]},
        "b": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
    }
    raw = build_file_bytes(
        [("b", np.float32([2.0])), ("a", np.float32([1.0]))],
        header_override=json.dumps(header, separators=(",", ":")).encode(),
    )
    ckpt = load_checkpoint(write_file(tmp_path, raw))
    canonical = Checkpoint({"a": np.float32([1.0]), "b": np.float32([2.0])})
    assert ckpt == canonical


@pytest.mark.parametrize("offsets, data_floats, message", [
    ({"a": [0, 4], "b": [8, 12]}, 3, "'b': gap in data section"),
    ({"a": [4, 8], "b": [8, 12]}, 3, "'a': gap in data section"),
    ({"a": [0, 4], "b": [4, 8]}, 3, "trailing bytes: tensors cover 8 of 12"),
    ({}, 1, "trailing bytes: tensors cover 0 of 4"),
], ids=["gap-between", "gap-at-start", "trailing", "trailing-no-tensors"])
def test_gaps_and_trailing_bytes_rejected(offsets, data_floats, message, tmp_path):
    header = {name: {"dtype": "F32", "shape": [1], "data_offsets": r} for name, r in offsets.items()}
    raw = build_file_bytes(
        [("pad", np.zeros(data_floats, dtype=np.float32))],
        header_override=json.dumps(header, separators=(",", ":")).encode(),
    )
    with pytest.raises(CheckpointFormatError, match=re.escape(message)):
        load_checkpoint(write_file(tmp_path, raw))


def test_duplicate_names_rejected(tmp_path):
    dup = b'{"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},"w":{"dtype":"F32","shape":[1],"data_offsets":[4,8]}}'
    raw = build_file_bytes([("pad", np.zeros(2, dtype=np.float32))], header_override=dup)
    with pytest.raises(CheckpointFormatError, match="duplicate names"):
        load_checkpoint(write_file(tmp_path, raw))


def test_unknown_dtype_rejected(tmp_path):
    # a list or object tag is unhashable, and must not escape as a TypeError
    for tag in ("BF16", ["F32"], {"F32": 1}):
        header = {"w": {"dtype": tag, "shape": [2], "data_offsets": [0, 4]}}
        raw = build_file_bytes(
            [("pad", np.zeros(1, dtype=np.float32))],
            header_override=json.dumps(header, separators=(",", ":")).encode(),
        )
        with pytest.raises(CheckpointFormatError, match="unknown dtype"):
            load_checkpoint(write_file(tmp_path, raw))


def test_byte_range_inconsistent_with_shape_rejected(tmp_path):
    header = {"w": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}
    raw = build_file_bytes(
        [("pad", np.zeros(2, dtype=np.float32))],
        header_override=json.dumps(header, separators=(",", ":")).encode(),
    )
    with pytest.raises(CheckpointFormatError, match="does not match"):
        load_checkpoint(write_file(tmp_path, raw))


def test_negative_shape_rejected(tmp_path):
    header = {"w": {"dtype": "F32", "shape": [-1], "data_offsets": [0, 4]}}
    raw = build_file_bytes(
        [("pad", np.zeros(1, dtype=np.float32))],
        header_override=json.dumps(header, separators=(",", ":")).encode(),
    )
    with pytest.raises(CheckpointFormatError, match="invalid shape"):
        load_checkpoint(write_file(tmp_path, raw))


def test_save_is_deterministic(tmp_path):
    ckpt = Checkpoint({
        "a": np.random.default_rng(0).standard_normal(5),
        "b": np.ones((2, 2), dtype=np.float32),
    })
    p1, p2 = tmp_path / "one.st", tmp_path / "two.st"
    save_checkpoint(ckpt, p1)
    save_checkpoint(ckpt, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_unsupported_dtype():
    with pytest.raises(CheckpointFormatError, match="unsupported dtype"):
        Checkpoint({"w": np.zeros(2, dtype=np.int32)})
    with pytest.raises(CheckpointFormatError, match="unsupported dtype"):
        Checkpoint({"w": np.zeros(2, dtype=np.float16)})


def test_checkpoint_rejects_bad_names():
    with pytest.raises(CheckpointFormatError):
        Checkpoint({"": np.zeros(1)})
    with pytest.raises(CheckpointFormatError, match="reserved"):
        Checkpoint({"__metadata__": np.zeros(1)})


def test_checkpoint_buffers_are_read_only():
    ckpt = Checkpoint({"w": np.zeros(3)})
    with pytest.raises(ValueError):
        ckpt["w"][0] = 1.0


def _invariant_pair(tmp_path):
    rng = np.random.default_rng(3)
    names = [f"g{i // 4}.w{i % 4}" for i in range(16)]
    current = Checkpoint({name: rng.standard_normal((256, 256)) for name in names})
    pretrained = Checkpoint({name: rng.standard_normal((256, 256)) for name in names})
    path = tmp_path / "current.st"
    save_checkpoint(current, path)
    return current, pretrained, path


def _with_header_keys_reversed(tmp_path, ckpt):
    """A file of ``ckpt`` whose header keys, and so its tensors, run in reverse name order."""
    return write_file(tmp_path, build_file_bytes([(n, ckpt[n]) for n in ckpt.names()[::-1]]), "reversed.st")


def test_tensors_cannot_be_made_writable(tmp_path):
    current, pretrained, path = _invariant_pair(tmp_path)
    merged = linear_merge(current, pretrained, MergeSpec(0.3, Selector(["g0.*"])))
    for ckpt in (current, load_checkpoint(path), merged):
        for name in ckpt:
            with pytest.raises(ValueError):
                ckpt[name].flags.writeable = True


def test_construction_copies_a_writable_source():
    source = np.arange(4, dtype=np.float64)
    read_only_view = source[1:]
    read_only_view.flags.writeable = False
    ckpt = Checkpoint({"owner": source, "view": source[:2], "read_only_view": read_only_view})
    source[:] = 5.0
    assert ckpt["owner"].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert ckpt["view"].tolist() == [0.0, 1.0]
    assert ckpt["read_only_view"].tolist() == [1.0, 2.0, 3.0]


def test_an_in_memory_tensor_is_read_over_its_held_bytes(monkeypatch):
    ckpt = Checkpoint({"a.w": np.arange(6.0).reshape(2, 3), "b.w": np.ones(4, dtype=np.float32)})
    first, second = ckpt["a.w"], ckpt["a.w"]
    assert first is not second and np.shares_memory(first, second)
    assert not first.flags.writeable and not second.flags.writeable
    written = []  # what a save hands its writer
    monkeypatch.setattr(tensor_store, "check_output", lambda path, renamed: written.extend)
    save_checkpoint(ckpt, "unwritten.st")
    _, *parts = written
    assert parts[0] is first.base and parts[1] is ckpt["b.w"].base
    assert [type(part) for part in parts] == [bytes, bytes]


def test_an_array_over_part_of_a_bytes_object_is_copied():
    entries = [("w", np.arange(3.0))]
    raw = build_file_bytes(entries)
    view = np.ndarray((3,), np.float64, raw, len(raw) - 24)
    ckpt = Checkpoint({"w": view})
    assert not np.shares_memory(ckpt["w"], view) and len(ckpt["w"].base) == 24
    assert serialize_checkpoint(ckpt) == raw


def _traced_peak(func, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        func(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_load_and_merge_copy_each_byte_at_most_once(tmp_path):
    # a load holds the file once; a merge copies only what it blends and
    # shares every tensor it leaves alone
    current, pretrained, path = _invariant_pair(tmp_path)
    assert _traced_peak(load_checkpoint, path) <= 1.25 * path.stat().st_size
    ckpt_bytes = sum(current[name].nbytes for name in current)
    spec = MergeSpec(0.3, Selector(["g0.*"]))  # a quarter of the bytes
    assert _traced_peak(linear_merge, current, pretrained, spec) <= 0.75 * ckpt_bytes


def test_merge_holds_each_blended_tensor_once(tmp_path):
    # linear_merge holds no blended bytes: each tensor is blended as the save writes it, in two
    # buffers the size of the largest selected tensor, reused for every one
    current, pretrained, _ = _invariant_pair(tmp_path)
    largest = max(current[name].nbytes for name in current)
    spec = MergeSpec(0.3, Selector(["g0.*"]))
    assert _traced_peak(linear_merge, current, pretrained, spec) < 64 * 1024
    merged = linear_merge(current, pretrained, spec)
    assert _traced_peak(save_checkpoint, merged, tmp_path / "merged.st") <= 2 * largest + 256 * 1024


def test_serializing_a_loaded_canonical_file_copies_nothing(tmp_path):
    # a load reads only the header, and serializing reads the file once into
    # its result, whether the file is canonical or its header keys are out of order
    current, _, path = _invariant_pair(tmp_path)  # 16 f64 tensors, 8 MiB
    reordered = _with_header_keys_reversed(tmp_path, current)
    for loaded in (path, reordered):
        assert _traced_peak(load_checkpoint, loaded) < 64 * 1024
        file_bytes = loaded.stat().st_size
        assert _traced_peak(lambda: serialize_checkpoint(load_checkpoint(loaded))) <= 1.25 * file_bytes
        assert serialize_checkpoint(load_checkpoint(loaded)) == path.read_bytes()


def test_merge_command_holds_the_blended_bytes_not_its_inputs(tmp_path):
    # the inputs stay in their files: a merge reads each selected pair into two buffers the size of
    # the largest selected tensor, blends it there as it writes it, and streams the rest to disk
    current, pretrained, cur_path = _invariant_pair(tmp_path)  # 16 f64 tensors of 512 KiB, 8 MiB
    pre_path, out = tmp_path / "pretrained.st", tmp_path / "merged.st"
    save_checkpoint(pretrained, pre_path)
    largest = max(current[name].nbytes for name in select(current, Selector(["g0.*"])))
    argv = ["merge", str(cur_path), str(pre_path), "--alpha", "0.3", "--select", "g0.*", "--out", str(out)]
    assert _traced_peak(main, argv) <= 2 * largest + 256 * 1024
    assert load_checkpoint(out) == linear_merge(current, pretrained, MergeSpec(0.3, Selector(["g0.*"])))


def _merge_of_saved_pair(tmp_path, alpha):
    """``_invariant_pair``, both saved, and the merge of ``g0.*`` of the two loaded files at ``alpha``."""
    current, pretrained, cur_path = _invariant_pair(tmp_path)
    pre_path = tmp_path / "pretrained.st"
    save_checkpoint(pretrained, pre_path)
    loaded = load_checkpoint(cur_path), load_checkpoint(pre_path)
    return current, pretrained, cur_path, pre_path, linear_merge(*loaded, MergeSpec(alpha, Selector(["g0.*"])))


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_an_endpoint_merge_of_two_loaded_files_is_copied_in_the_kernel(tmp_path, monkeypatch, alpha):
    # at alpha 0 and 1 each selected tensor is the current or pretrained one as stored: the save has
    # the kernel copy every tensor from its file, and no pair is read or compared
    current, pretrained, cur_path, pre_path, merged = _merge_of_saved_pair(tmp_path, alpha)
    copy, copied, compared = tensor_store._copy, [], []

    def recording_copy(source, *args):
        copied.append(source.path)
        copy(source, *args)

    monkeypatch.setattr(tensor_store, "_copy", recording_copy)
    monkeypatch.setattr(merge, "same_bits", lambda *args: compared.append(args))
    save_checkpoint(merged, tmp_path / "merged.st")
    assert copied == [pre_path if alpha else cur_path] * 4 + [cur_path] * 12  # g0.* comes first
    assert compared == []
    expected = current.replace({name: pretrained[name] for name in current if name.startswith("g0.")})
    assert (tmp_path / "merged.st").read_bytes() == serialize_checkpoint(expected if alpha else current)


def test_a_merged_tensor_is_blended_anew_on_each_use(tmp_path):
    current, pretrained, _, _, merged = _merge_of_saved_pair(tmp_path, 0.3)
    for name in ("g0.w0", "g0.w3"):
        first, second = merged[name], merged[name]
        assert first is not second and first.tobytes() == second.tobytes()
        assert not first.flags.writeable and not second.flags.writeable
        assert first.tobytes() == merge.blend(current[name], pretrained[name], 0.3).tobytes()
    assert serialize_checkpoint(merged) == serialize_checkpoint(merged, out=io.BytesIO()).getvalue()


def test_a_made_tensor_is_read_into_a_buffer_from_any_start(tmp_path):
    # each part comes from its own start in the made tensor, however small the buffer
    current, pretrained, _, _, merged = _merge_of_saved_pair(tmp_path, 0.3)
    whole = merged["g0.w1"].tobytes()
    for size in (200_004, 262_144, len(whole) + 8):  # the first takes 200,000 bytes, whole elements
        buffer, parts = memoryview(bytearray(size)), []
        while (start := sum(map(len, parts))) < len(whole):
            parts.append(merged.read_into("g0.w1", buffer, start).tobytes())
        assert b"".join(parts) == whole and len(parts[0]) == min(size // 8 * 8, len(whole))
    assert merged.is_deferred("g0.w1") and not merged.is_deferred("g1.w0") and not current.is_deferred("g0.w1")


def test_inspect_command_holds_one_tensor_not_its_file(tmp_path):
    # inspect streams the canonical file part by part through one buffer the size of the largest
    # tensor, whether the file is canonical or its header keys are out of order
    current, _, path = _invariant_pair(tmp_path)  # 16 f64 tensors of 512 KiB, 8 MiB
    largest = max(current[name].nbytes for name in current)
    for loaded in (path, _with_header_keys_reversed(tmp_path, current)):
        argv = ["inspect", str(loaded), "--out", str(tmp_path / "inspect.json")]
        assert _traced_peak(main, argv) <= 2 * largest + 256 * 1024


def _changed_since_loaded(path):
    return pytest.raises(CheckpointFormatError, match=f"^{re.escape(str(path))} changed since it was loaded$")


def _save_fails_as_changed(ckpt, path, copied=True):
    """Saving ``ckpt``, loaded or merged from ``path``, fails as changed, in the kernel-copy path if
    ``copied`` and else in a read, and leaves its directory as it was."""
    target = path.with_name("target.st")
    target.write_bytes(b"old bytes")
    before = sorted(p.name for p in path.parent.iterdir())
    copy, changed, failed, found = tensor_store._copy, tensor_store._Source.changed, [], []

    def recording_copy(*args):
        try:
            copy(*args)
        except CheckpointFormatError:
            failed.append(args[0].path)
            raise

    def recording_changed(source):
        found.append(source.path)
        return changed(source)

    with pytest.MonkeyPatch.context() as patch, _changed_since_loaded(path):
        patch.setattr(tensor_store, "_copy", recording_copy)
        patch.setattr(tensor_store._Source, "changed", recording_changed)
        save_checkpoint(ckpt, target)
    assert found == [path]
    assert failed == ([path] if copied else [])
    assert target.read_bytes() == b"old bytes"
    assert sorted(p.name for p in path.parent.iterdir()) == before


def _rewrite_keeping_size(path):
    """Flip one bit of ``path``'s last byte and move its modification time a second on."""
    raw, stat = path.read_bytes(), path.stat()
    path.write_bytes(raw[:-1] + bytes([raw[-1] ^ 1]))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))


def test_a_file_rewritten_after_loading_fails(tmp_path, monkeypatch):
    path = write_file(tmp_path, build_file_bytes(_entries()))
    ckpt = load_checkpoint(path)
    _rewrite_keeping_size(path)
    with _changed_since_loaded(path):
        ckpt["d.w"]
    with _changed_since_loaded(path):
        serialize_checkpoint(ckpt)
    with _changed_since_loaded(path):
        serialize_checkpoint(ckpt, out=_Parts())
    _save_fails_as_changed(ckpt, path)


@pytest.mark.parametrize("changed", ["current", "pretrained"])
def test_a_merge_input_rewritten_before_the_save_fails(tmp_path, changed):
    # each selected pair is read when the save writes it, so an input changed between linear_merge
    # and save_checkpoint fails there, in the read of the first selected tensor (g0.w0)
    _, _, cur_path, pre_path, merged = _merge_of_saved_pair(tmp_path, 0.3)
    path = cur_path if changed == "current" else pre_path
    _rewrite_keeping_size(path)
    _save_fails_as_changed(merged, path, copied=False)


def test_a_file_truncated_after_loading_fails(tmp_path, monkeypatch):
    path = write_file(tmp_path, build_file_bytes(_entries()))
    ckpt = load_checkpoint(path)
    os.truncate(path, path.stat().st_size - 4)
    with _changed_since_loaded(path):
        ckpt["d.w"]
    with _changed_since_loaded(path):
        serialize_checkpoint(ckpt, out=_Parts())
    _save_fails_as_changed(ckpt, path)
    # a read or copy that comes back short fails the same way, even if the file looked unchanged
    monkeypatch.setattr(tensor_store._Source, "_stat", lambda source: source._stamp)
    with _changed_since_loaded(path):
        ckpt["d.w"]
    with _changed_since_loaded(path):
        serialize_checkpoint(ckpt)
    streamed = _Parts()
    with _changed_since_loaded(path):
        serialize_checkpoint(ckpt, out=streamed)
    assert len(streamed.parts) == 4  # the header, a.w, b.w and the empty c.w; d.w is cut short
    counts = _copy_file_range_calls(monkeypatch)
    _save_fails_as_changed(ckpt, path)  # once the header and the first tensors are written
    assert counts == [48, 16, 8, 4]  # a.w and b.w whole, then d.w: 4 of its 8 bytes, then none
    assert ckpt["a.w"].tobytes() == _entries()[0][1].tobytes()


def test_a_file_replaced_after_loading_still_reads_as_loaded(tmp_path):
    path = write_file(tmp_path, build_file_bytes(_entries()))
    ckpt = load_checkpoint(path)
    save_checkpoint(Checkpoint({"w": np.ones(3)}), path)
    assert ckpt == Checkpoint(dict(_entries()))


def test_a_dropped_checkpoint_closes_its_file(tmp_path):
    path = write_file(tmp_path, build_file_bytes(_entries()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ckpt = load_checkpoint(path)
        ckpt["a.w"]
        del ckpt
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_forked_readers_of_one_loaded_file_read_the_right_bytes(tmp_path, monkeypatch):
    # the caller and a forked worker read the one open file at the same time
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rng = np.random.default_rng(9)
    entries = [(f"t{i:04d}", rng.standard_normal(16).astype(np.float32)) for i in range(2000)]
    ckpt = load_checkpoint(write_file(tmp_path, build_file_bytes(entries)))

    def wrong_reads(_):
        return sum(ckpt[name].tobytes() != arr.tobytes() for _ in range(10) for name, arr in entries)

    assert map_on_cores(wrong_reads, [0, 1]) == [0, 0]


def test_a_read_leaves_the_file_offset_alone(tmp_path):
    ckpt = load_checkpoint(write_file(tmp_path, build_file_bytes(_entries())))
    fd = ckpt._tensors["b.w"].source._file.fileno()
    os.lseek(fd, 3, os.SEEK_SET)
    assert ckpt["b.w"].tobytes() == _entries()[1][1].tobytes()
    serialize_checkpoint(ckpt)
    save_checkpoint(ckpt, tmp_path / "saved.st")
    assert os.lseek(fd, 0, os.SEEK_CUR) == 3


def test_a_read_cut_short_by_the_system_is_resumed_in_one_buffer(tmp_path, monkeypatch):
    # one system call reads less than 2 GiB on Linux; 1,000 bytes stand in for that limit here
    current, _, path = _invariant_pair(tmp_path)
    reordered = _with_header_keys_reversed(tmp_path, current)
    ckpt, name = load_checkpoint(path), current.names()[0]
    preadv, got = os.preadv, []
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: preadv(
        fd, [memoryview(buffers[0])[:1000]], offset))
    peak = _traced_peak(lambda: got.append(ckpt[name]))
    assert got[0].tobytes() == current[name].tobytes()
    assert peak <= got[0].nbytes + 16 * 1024
    for loaded in (path, reordered):
        ckpt, got = load_checkpoint(loaded), []
        peak = _traced_peak(lambda: got.append(serialize_checkpoint(ckpt)))
        assert got[0] == path.read_bytes()
        assert peak <= loaded.stat().st_size + 16 * 1024
        # streamed, each tensor is read into one reused buffer the size of the largest
        digest = hashlib.sha256()
        peak = _traced_peak(serialize_checkpoint, ckpt, types.SimpleNamespace(write=digest.update))
        assert digest.digest() == hashlib.sha256(path.read_bytes()).digest()
        assert peak <= current[name].nbytes + 16 * 1024  # one 512 KiB tensor of the 8 MiB file


def _half_blended(tmp_path):
    """A checkpoint whose held and still-in-file tensors alternate, and a loaded copy of its canonical file."""
    current, pretrained, path = _invariant_pair(tmp_path)
    loaded = load_checkpoint(path)
    ckpt = loaded.replace({name: pretrained[name] for name in loaded.names()[::2]})
    return ckpt, serialize_checkpoint(ckpt)


def _copy_file_range_calls(monkeypatch, limit=None, fail=None):
    """Record each ``os.copy_file_range`` call's byte count; cap each at ``limit`` bytes, and make every
    second call of a part fail with ``fail``'s errno."""
    copy_file_range, counts = os.copy_file_range, []

    def copy(src, dst, count, offset):
        counts.append(count)
        if fail is not None and len(counts) % 2 == 0:
            raise OSError(fail, os.strerror(fail))
        return copy_file_range(src, dst, count if limit is None else min(count, limit), offset)

    monkeypatch.setattr(os, "copy_file_range", copy)
    return counts


def test_save_copies_each_tensor_in_a_file_in_the_kernel(tmp_path, monkeypatch):
    ckpt, canonical = _half_blended(tmp_path)
    counts = _copy_file_range_calls(monkeypatch)
    save_checkpoint(ckpt, tmp_path / "saved.st")
    assert (tmp_path / "saved.st").read_bytes() == canonical
    assert counts == [256 * 256 * 8] * 8  # the eight tensors left in their file, one call each


def test_a_copy_cut_short_by_the_system_is_resumed(tmp_path, monkeypatch):
    ckpt, canonical = _half_blended(tmp_path)
    counts = _copy_file_range_calls(monkeypatch, limit=1000)
    save_checkpoint(ckpt, tmp_path / "saved.st")
    assert (tmp_path / "saved.st").read_bytes() == canonical
    assert len(counts) == 8 * -(-256 * 256 * 8 // 1000)
    assert counts[:2] == [256 * 256 * 8, 256 * 256 * 8 - 1000]


@pytest.mark.parametrize("code", ["EXDEV", "ENOSYS", "EINVAL", "EOPNOTSUPP", "EPERM"])
def test_where_the_kernel_cannot_copy_the_rest_of_a_tensor_is_read(tmp_path, monkeypatch, code):
    # every tensor in a file: 1,000 bytes copied, then the copy fails and the rest is read and written
    ckpt, canonical = _half_blended(tmp_path)
    counts = _copy_file_range_calls(monkeypatch, limit=1000, fail=getattr(errno, code))
    save_checkpoint(ckpt, tmp_path / "saved.st")
    assert (tmp_path / "saved.st").read_bytes() == canonical
    assert counts == [256 * 256 * 8, 256 * 256 * 8 - 1000] * 8


def test_a_file_the_kernel_refuses_is_asked_once_per_save(tmp_path, monkeypatch):
    # tensors alternate between two loaded files, as across two file systems the kernel copies none
    current, pretrained, path = _invariant_pair(tmp_path)
    save_checkpoint(pretrained, tmp_path / "pretrained.st")
    first, second = load_checkpoint(path), load_checkpoint(tmp_path / "pretrained.st")
    names = first.names()
    ckpt = Checkpoint({name: (first if i % 2 else second)._tensors[name] for i, name in enumerate(names)})
    sources = []

    def refuse(src, dst, count, offset):
        sources.append(os.fstat(src).st_ino)
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

    monkeypatch.setattr(os, "copy_file_range", refuse)
    for _ in range(2):
        save_checkpoint(ckpt, tmp_path / "saved.st")
        assert (tmp_path / "saved.st").read_bytes() == serialize_checkpoint(ckpt)
    inodes = [os.stat(p).st_ino for p in (tmp_path / "pretrained.st", path)]
    assert sources == inodes * 2  # each file once per save, at its first tensor


def test_a_copy_that_fails_otherwise_leaves_the_target_as_it_was(tmp_path, monkeypatch):
    ckpt, _ = _half_blended(tmp_path)
    target = tmp_path / "target.st"
    target.write_bytes(b"old bytes")
    before = sorted(p.name for p in tmp_path.iterdir())
    _copy_file_range_calls(monkeypatch, limit=1000, fail=errno.ENOSPC)
    with pytest.raises(OSError, match=re.escape(os.strerror(errno.ENOSPC))):
        save_checkpoint(ckpt, target)
    assert target.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def _entries():
    rng = np.random.default_rng(8)
    return [("a.w", rng.standard_normal((2, 3))), ("b.w", rng.standard_normal(4).astype(np.float32)),
            ("c.w", np.zeros((0, 5), dtype=np.float32)), ("d.w", np.array(-0.0))]


def _header(entries, trailing_metadata=None, separators=(", ", ": ")):
    """A valid header blob for ``entries`` laid out in order, spaced as asked."""
    header, offset = {}, 0
    for name, arr in entries:
        header[name] = {"dtype": DTYPE_TAGS[arr.dtype.str[1:]], "shape": list(arr.shape),
                        "data_offsets": [offset, offset + arr.nbytes]}
        offset += arr.nbytes
    if trailing_metadata is not None:
        header["__metadata__"] = trailing_metadata
    return json.dumps(header, separators=separators).encode()


def _loaded(tmp_path, raw, name="ckpt.safetensors"):
    return load_checkpoint(write_file(tmp_path, raw, name))


def _loaded_with_header(tmp_path, blob):
    return _loaded(tmp_path, build_file_bytes(_entries(), header_override=blob))


def _one_tensor_blended(tmp_path):
    ckpt = _loaded(tmp_path, build_file_bytes(_entries()))
    return ckpt.replace({"a.w": ckpt["a.w"] * 0.5})


def _two_tensors_swapped(tmp_path):
    ckpt = _loaded(tmp_path, build_file_bytes([("a.w", np.ones(3)), ("b.w", np.zeros(3))]))
    return ckpt.replace({"a.w": ckpt["b.w"], "b.w": ckpt["a.w"]})


def _tensors_from_two_files(tmp_path):
    one = _loaded(tmp_path, build_file_bytes(_entries()), "one.st")
    two = _loaded(tmp_path, build_file_bytes(_entries()[::-1]), "two.st")
    return one.replace({"b.w": two["b.w"]})


def _views_of_a_file_with_bytes_after_it(tmp_path):
    raw = build_file_bytes(_entries()) + bytes(8)
    offset = 8 + struct.unpack("<Q", raw[:8])[0]
    tensors = {}
    for name, arr in _entries():
        tensors[name] = np.ndarray(arr.shape, arr.dtype, raw, offset)
        offset += arr.nbytes
    return Checkpoint(tensors)


# Each case builds a checkpoint and says whether it is the canonical file it
# was loaded from, left as "ckpt.safetensors", which serializing then equals.
SERIALIZE_CASES = {
    "canonical file": (lambda tmp: _loaded(tmp, build_file_bytes(_entries())), True),
    "canonical file with metadata": (
        lambda tmp: _loaded(tmp, build_file_bytes(_entries(), metadata={"k": "v"})), True),
    "header keys out of order": (
        lambda tmp: _loaded(tmp, build_file_bytes(_entries()[::-1])), False),
    "json spacing": (lambda tmp: _loaded_with_header(tmp, _header(_entries())), False),
    "extra header padding": (
        lambda tmp: _loaded_with_header(tmp, _header(_entries(), separators=(",", ":")) + b" " * 8),
        False),
    "metadata after the tensors": (
        lambda tmp: _loaded_with_header(
            tmp, _header(_entries(), trailing_metadata={"k": "v"}, separators=(",", ":"))),
        False),
    "empty checkpoint": (lambda tmp: _loaded(tmp, build_file_bytes([])), True),
    "one tensor blended": (_one_tensor_blended, False),
    "two tensors swapped within one file": (_two_tensors_swapped, False),
    "tensors from two loaded files": (_tensors_from_two_files, False),
    "views of a canonical file with bytes after it": (_views_of_a_file_with_bytes_after_it, False),
    "arrays built in memory": (lambda tmp: Checkpoint(dict(_entries())), False),
}


@pytest.mark.parametrize("case", list(SERIALIZE_CASES))
def test_serialize_equals_what_save_writes(case, tmp_path):
    build, canonical_file = SERIALIZE_CASES[case]
    ckpt = build(tmp_path)
    canonical = serialize_checkpoint(ckpt)
    save_checkpoint(ckpt, tmp_path / "saved.st")
    assert canonical == (tmp_path / "saved.st").read_bytes()
    if canonical_file:
        assert canonical == (tmp_path / "ckpt.safetensors").read_bytes()
    assert load_checkpoint(write_file(tmp_path, canonical, "canonical.st")) == ckpt


def test_checkpoint_equality_is_bitwise():
    nan = np.array([np.nan, 1.0])
    assert Checkpoint({"w": nan}) == Checkpoint({"w": nan.copy()})
    assert Checkpoint({"w": np.array(0.0)}) != Checkpoint({"w": np.array(-0.0)})
    assert Checkpoint({"w": np.zeros(2)}) != Checkpoint({"w": np.zeros((1, 2))})
    assert Checkpoint({"w": np.zeros(2)}) != Checkpoint({"w": np.zeros(4, dtype=np.float32)})


def test_failed_save_leaves_target_untouched(tmp_path, monkeypatch):
    ckpt = Checkpoint({"w": np.ones(3)})

    canonical = tensor_store._canonical

    def header_then_fail(ckpt):
        yield canonical(ckpt)[0]
        raise OSError("disk full")

    existing, fresh = tmp_path / "existing.st", tmp_path / "fresh.st"
    existing.write_bytes(b"old bytes")
    monkeypatch.setattr(tensor_store, "_canonical", header_then_fail)
    for target in (existing, fresh):
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ckpt, target)
    assert existing.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.st"]


@pytest.mark.parametrize("stem", ["m" * 250, "\u00e9" * 125], ids=["ascii", "utf8"])
def test_save_to_a_name_of_250_bytes_leaves_no_temporary_file(tmp_path, stem):
    # the temporary file's name must fit wherever the target's does
    target = tmp_path / f"{stem}.st"
    assert len(target.name.encode()) == 253
    ckpt = Checkpoint({"w": np.ones(3)})
    for _ in range(2):  # a new file, then one replaced
        save_checkpoint(ckpt, target)
        assert load_checkpoint(target) == ckpt
        assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_save_to_a_directory_fails_before_creating_a_file(tmp_path, monkeypatch):
    target = tmp_path / "out"
    target.mkdir()
    (target / "kept").write_bytes(b"kept")
    ckpt = Checkpoint({"w": np.ones(3)})
    opened = []
    # the writer that check_output returns is the one place a checkpoint file is opened
    monkeypatch.setattr(revla, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k), raising=False)
    with pytest.raises(IsADirectoryError) as info:
        save_checkpoint(ckpt, target)
    assert (info.value.filename, info.value.filename2) == (str(target), None)
    assert opened == []
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert [(p.name, p.read_bytes()) for p in target.iterdir()] == [("kept", b"kept")]
    # a symbolic link to a directory is replaced, not followed
    link = tmp_path / "link"
    link.symlink_to(target)
    save_checkpoint(ckpt, link)
    assert not link.is_symlink() and load_checkpoint(link) == ckpt
    assert [p.name for p in target.iterdir()] == ["kept"]
    assert len(opened) == 1  # the spy saw the one write that was made


def test_save_to_a_fifo_fails_before_creating_a_file(tmp_path, monkeypatch):
    fifo, link, dangling = tmp_path / "fifo", tmp_path / "link", tmp_path / "dangling"
    os.mkfifo(fifo)
    link.symlink_to(fifo)
    dangling.symlink_to(tmp_path / "nowhere")
    ckpt = Checkpoint({"w": np.ones(3)})
    opened = []
    # the writer that check_output returns is the one place a checkpoint file is opened
    monkeypatch.setattr(revla, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k), raising=False)
    for target in (fifo, link):  # a link to a FIFO is refused too, and neither node is replaced
        with pytest.raises(ValueError, match=f"^{re.escape(repr(str(target)))} is a FIFO, device or socket"):
            save_checkpoint(ckpt, target)
    assert opened == []
    assert fifo.is_fifo() and link.is_symlink() and link.resolve() == fifo
    # a link that leads nowhere is replaced, as before
    save_checkpoint(ckpt, dangling)
    assert not dangling.is_symlink() and load_checkpoint(dangling) == ckpt
    assert len(opened) == 1  # the spy saw the one write that was made


_names = st.lists(
    st.from_regex(r"[a-c](\.[a-c0-9]{1,3}){0,2}", fullmatch=True),
    min_size=0, max_size=4, unique=True,
)


@st.composite
def checkpoints(draw):
    tensors = {}
    for name in draw(_names):
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        shape = tuple(draw(st.lists(st.integers(0, 3), min_size=0, max_size=2)))
        seed = draw(st.integers(0, 2**31))
        tensors[name] = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    return Checkpoint(tensors)


@settings(max_examples=50, deadline=None)
@given(checkpoints())
def test_save_load_round_trip_property(tmp_path_factory, ckpt):
    path = tmp_path_factory.mktemp("rt") / "c.safetensors"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded == ckpt
    assert serialize_checkpoint(loaded) == path.read_bytes()


class _Parts:
    """A writer for ``serialize_checkpoint`` that keeps a copy of each part it is given."""

    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def write(self, part) -> None:
        self.parts.append(bytes(part))


@settings(max_examples=60, deadline=None)
@given(checkpoints(), st.none() | st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2),
       st.sampled_from(["held", "loaded", "mixed"]), st.data())
def test_streamed_serialization_writes_each_part_once(tmp_path_factory, held, metadata, kind, data):
    names = held.names()
    ckpt = Checkpoint({name: held[name] for name in names}, metadata)
    if kind != "held":
        # laid out in any order: one other than name order reorders the file's header and tensors
        order = data.draw(st.permutations(names))
        path = tmp_path_factory.mktemp("streamed") / "c.st"
        path.write_bytes(build_file_bytes([(name, held[name]) for name in order], metadata))
        ckpt = load_checkpoint(path)
        if kind == "mixed" and names:
            ckpt = ckpt.replace({name: held[name] + 1 for name in data.draw(st.sets(st.sampled_from(names)))})
    writer = _Parts()
    assert serialize_checkpoint(ckpt, out=writer) is writer
    assert len(writer.parts) == 1 + len(ckpt)
    assert b"".join(writer.parts) == serialize_checkpoint(ckpt)
    assert [len(part) for part in writer.parts[1:]] == [end - start for start, end in
                                                        (meta.byte_range for meta in ckpt.metas())]


def test_third_party_file_round_trips_byte_identically(tmp_path):
    # uniform dtype: the third-party writer's layout coincides with the
    # canonical one, so load -> save reproduces the file bit for bit
    safetensors_numpy = pytest.importorskip("safetensors.numpy")
    tensors = {
        "vision.siglip.w": np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4),
        "vision.dino.w": np.random.default_rng(5).standard_normal(7).astype(np.float32),
        "llm.bias": np.zeros(3, dtype=np.float32),
    }
    path = tmp_path / "third_party.safetensors"
    safetensors_numpy.save_file(tensors, str(path), metadata={"producer": "safetensors"})
    raw = path.read_bytes()
    ckpt = load_checkpoint(path)
    assert ckpt.names() == sorted(tensors)
    for name, arr in tensors.items():
        np.testing.assert_array_equal(ckpt[name], arr)
    assert serialize_checkpoint(ckpt) == raw


def test_third_party_mixed_dtype_file_is_byte_stable(tmp_path):
    # the third-party writer groups f64 tensors ahead of f32; one canonical
    # re-save re-orders by name and is a fixed point from then on
    safetensors_numpy = pytest.importorskip("safetensors.numpy")
    tensors = {
        "b.w": np.random.default_rng(6).standard_normal(4),
        "a.w": np.ones(2, dtype=np.float32),
    }
    path = tmp_path / "third_party.safetensors"
    safetensors_numpy.save_file(tensors, str(path))
    ckpt = load_checkpoint(path)
    for name, arr in tensors.items():
        np.testing.assert_array_equal(ckpt[name], arr)
    canonical = serialize_checkpoint(ckpt)
    stable = tmp_path / "canonical.safetensors"
    stable.write_bytes(canonical)
    reloaded = load_checkpoint(stable)
    assert reloaded == ckpt
    assert serialize_checkpoint(reloaded) == canonical


# --- selectors ---------------------------------------------------------------

NAMES = ["vision.dino.w", "vision.siglip.w", "llm.w"]


def test_selector_prefix_pattern():
    sel = Selector(["vision.dino.*"])
    assert select(NAMES, sel) == ["vision.dino.w"]


def test_selector_union_of_patterns():
    sel = Selector(["vision.dino.*", "vision.siglip.*"])
    assert select(NAMES, sel) == ["vision.dino.w", "vision.siglip.w"]


def test_selector_empty_selects_nothing():
    assert select(NAMES, Selector([])) == []


def test_selector_star_crosses_segments():
    sel = Selector(["vision.*"])
    names = ["vision.dino.layer0.weight", "vision.x", "audio.w"]
    assert select(names, sel) == ["vision.dino.layer0.weight", "vision.x"]


def test_selector_literal_pattern_matches_exactly():
    sel = Selector(["llm.w"])
    assert select(NAMES, sel) == ["llm.w"]


def test_selector_rejects_empty_pattern():
    with pytest.raises(ValueError, match="malformed selector pattern"):
        Selector([""])
    with pytest.raises(ValueError, match="must be a list or tuple"):
        Selector("vision.dino.*")


def test_select_on_checkpoint_is_ordered():
    ckpt = Checkpoint({name: np.zeros(1) for name in NAMES})
    assert select(ckpt, Selector(["*"])) == sorted(NAMES)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.sampled_from(NAMES + ["vision.dino.layer1.w", "head.b"]), unique=True),
    st.lists(st.sampled_from(["vision.*", "vision.dino.*", "llm.*", "*", "head.b"]), max_size=3),
    st.sampled_from(["vision.siglip.*", "*", "llm.w"]),
)
def test_selector_monotonicity(names, patterns, extra):
    base = set(select(names, Selector(patterns)))
    widened = set(select(names, Selector(patterns + [extra])))
    assert base <= widened


def _glob_matches(pattern, name):
    """``name`` against ``pattern`` where only ``*`` is special, by string search."""
    if "*" not in pattern:
        return name == pattern
    first, *middle, last = pattern.split("*")
    end = len(name) - len(last)
    if end < len(first) or not (name.startswith(first) and name.endswith(last)):
        return False
    pos = len(first)
    for piece in middle:  # each piece at its leftmost place leaves the most room for the rest
        pos = name.find(piece, pos, end)
        if pos < 0:
            return False
        pos += len(piece)
    return True


_glob_text = st.text(alphabet="ab.|()[]?+\\^$*\n", max_size=8)


@st.composite
def _patterns_and_names(draw):
    patterns = draw(st.lists(_glob_text.filter(bool), max_size=3))
    names = draw(st.lists(_glob_text, max_size=3))
    for pattern in patterns:  # and a name made from each pattern, so that matches are common
        pieces = pattern.split("*")
        fills = draw(st.lists(_glob_text, min_size=len(pieces) - 1, max_size=len(pieces) - 1))
        names.append(pieces[0] + "".join(fill + piece for fill, piece in zip(fills, pieces[1:])))
    return patterns, names


@settings(max_examples=300, deadline=None)
@given(_patterns_and_names())
@example((["a|b"], ["a", "b", "a|b"]))
@example((["*"], ["enc\nw", "\n"]))
@example((["a*b*a"], ["aba", "abba", "ab", "a\nb\na"]))
def test_selector_matches_the_glob_oracle(case):
    patterns, names = case
    sel = Selector(patterns)
    for name in names:
        assert sel.matches(name) == any(_glob_matches(p, name) for p in patterns), (patterns, name)


# --- compatibility reports ----------------------------------------------------


def test_compat_identical_is_empty():
    a = Checkpoint({"x": np.zeros(3), "y": np.ones((2, 2), dtype=np.float32)})
    b = Checkpoint({"x": np.ones(3), "y": np.zeros((2, 2), dtype=np.float32)})
    assert validate_compat(a, b) == []


def test_compat_missing_name():
    a = Checkpoint({"head.weight": np.zeros(2), "head.bias": np.zeros(2)})
    b = Checkpoint({"head.weight": np.zeros(2)})
    assert validate_compat(a, b) == ["missing in second checkpoint: head.bias"]
    assert validate_compat(b, a) == ["missing in first checkpoint: head.bias"]


def test_compat_shape_mismatch():
    a = Checkpoint({"w": np.zeros(3)})
    b = Checkpoint({"w": np.zeros(4)})
    assert validate_compat(a, b) == ["shape mismatch for w: [3] vs [4]"]


def test_compat_dtype_mismatch():
    a = Checkpoint({"w": np.zeros(3, dtype=np.float32)})
    b = Checkpoint({"w": np.zeros(3, dtype=np.float64)})
    assert validate_compat(a, b) == ["dtype mismatch for w: F32 vs F64"]


def test_compat_lines_are_grouped_by_kind_then_name():
    a = Checkpoint({"a": np.zeros(3), "b": np.zeros(2, dtype=np.float32), "z": np.zeros(1)})
    b = Checkpoint({"a": np.zeros(4), "b": np.zeros(2), "c": np.zeros(1), "y": np.zeros(5)})
    assert validate_compat(a, b) == [
        "missing in first checkpoint: c",
        "missing in first checkpoint: y",
        "missing in second checkpoint: z",
        "shape mismatch for a: [3] vs [4]",
        "dtype mismatch for b: F32 vs F64",
    ]


@settings(max_examples=25, deadline=None)
@given(checkpoints())
def test_compat_with_self_is_always_empty(ckpt):
    assert validate_compat(ckpt, ckpt) == []
