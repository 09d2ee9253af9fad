"""Checkpoint file format: parsing, validation, canonical round-trips."""

from __future__ import annotations

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revla.tensor_store as tensor_store
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


def test_serializing_a_loaded_canonical_file_copies_nothing(tmp_path):
    _, _, path = _invariant_pair(tmp_path)  # 16 f64 tensors, 8 MiB
    loaded = load_checkpoint(path)
    assert _traced_peak(serialize_checkpoint, loaded) < 64 * 1024
    canonical = serialize_checkpoint(loaded)
    assert canonical is loaded["g0.w0"].base
    assert canonical == path.read_bytes()


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


# Each case builds a checkpoint and says whether its tensors already view
# the whole canonical file, which serializing then returns uncopied.
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
    "empty checkpoint": (lambda tmp: _loaded(tmp, build_file_bytes([])), False),
    "one tensor blended": (_one_tensor_blended, False),
    "two tensors swapped within one file": (_two_tensors_swapped, False),
    "tensors from two loaded files": (_tensors_from_two_files, False),
    "views of a canonical file with bytes after it": (_views_of_a_file_with_bytes_after_it, False),
    "arrays built in memory": (lambda tmp: Checkpoint(dict(_entries())), False),
}


@pytest.mark.parametrize("case", list(SERIALIZE_CASES))
def test_serialize_equals_the_joined_canonical_parts(case, tmp_path):
    build, held = SERIALIZE_CASES[case]
    ckpt = build(tmp_path)
    canonical = serialize_checkpoint(ckpt)
    assert canonical == b"".join(tensor_store._canonical_parts(ckpt))
    tensors = [ckpt[name] for name in ckpt]
    assert (bool(tensors) and canonical is tensors[0].base) == held
    assert load_checkpoint(write_file(tmp_path, canonical, "canonical.st")) == ckpt


def test_checkpoint_equality_is_bitwise():
    nan = np.array([np.nan, 1.0])
    assert Checkpoint({"w": nan}) == Checkpoint({"w": nan.copy()})
    assert Checkpoint({"w": np.array(0.0)}) != Checkpoint({"w": np.array(-0.0)})
    assert Checkpoint({"w": np.zeros(2)}) != Checkpoint({"w": np.zeros((1, 2))})
    assert Checkpoint({"w": np.zeros(2)}) != Checkpoint({"w": np.zeros(4, dtype=np.float32)})


def test_failed_save_leaves_target_untouched(tmp_path, monkeypatch):
    ckpt = Checkpoint({"w": np.ones(3)})

    canonical_parts = tensor_store._canonical_parts

    def header_then_fail(ckpt):
        yield next(canonical_parts(ckpt))
        raise OSError("disk full")

    existing, fresh = tmp_path / "existing.st", tmp_path / "fresh.st"
    existing.write_bytes(b"old bytes")
    monkeypatch.setattr(tensor_store, "_canonical_parts", header_then_fail)
    for target in (existing, fresh):
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ckpt, target)
    assert existing.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.st"]


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


# --- compatibility reports ----------------------------------------------------


def test_compat_identical_is_empty():
    a = Checkpoint({"x": np.zeros(3), "y": np.ones((2, 2), dtype=np.float32)})
    b = Checkpoint({"x": np.ones(3), "y": np.zeros((2, 2), dtype=np.float32)})
    report = validate_compat(a, b)
    assert report.is_empty
    assert not report


def test_compat_missing_name():
    a = Checkpoint({"head.weight": np.zeros(2), "head.bias": np.zeros(2)})
    b = Checkpoint({"head.weight": np.zeros(2)})
    report = validate_compat(a, b)
    assert report.missing_in_b == ("head.bias",)
    assert report.missing_in_a == ()
    assert "head.bias" in report.describe()


def test_compat_shape_mismatch():
    a = Checkpoint({"w": np.zeros(3)})
    b = Checkpoint({"w": np.zeros(4)})
    report = validate_compat(a, b)
    assert report.shape_mismatches == (("w", (3,), (4,)),)


def test_compat_dtype_mismatch():
    a = Checkpoint({"w": np.zeros(3, dtype=np.float32)})
    b = Checkpoint({"w": np.zeros(3, dtype=np.float64)})
    report = validate_compat(a, b)
    assert report.dtype_mismatches == (("w", "F32", "F64"),)


@settings(max_examples=25, deadline=None)
@given(checkpoints())
def test_compat_with_self_is_always_empty(ckpt):
    assert validate_compat(ckpt, ckpt).is_empty
