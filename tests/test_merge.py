"""Linear merge against an element-by-element scalar oracle."""

from __future__ import annotations

import io
import math
import pickle

import numpy as np
import pytest

import revla.merge as merge
from revla.merge import MergeCompatibilityError, MergeSpec, blend, linear_merge, merge_distance, selected_pairs
from revla.tensor_store import Checkpoint, Selector, save_checkpoint, serialize_checkpoint

ALL = Selector(["*"])


def scalar_merge_oracle(cur: np.ndarray, pre: np.ndarray, alpha: float) -> np.ndarray:
    """Brute-force reference: one Python-float multiply-add per element."""
    out = np.empty_like(cur)
    flat_cur, flat_pre, flat_out = cur.ravel(), pre.ravel(), out.ravel()
    for i in range(flat_cur.size):
        flat_out[i] = (1.0 - alpha) * float(flat_cur[i]) + alpha * float(flat_pre[i])
    return out


def scalar_distance_oracle(a: np.ndarray, b: np.ndarray) -> float:
    acc = 0.0
    for x, y in zip(a.ravel(), b.ravel()):
        acc += (float(x) - float(y)) ** 2
    return math.sqrt(acc)


def pair(seed: int, shape=(5,), dtype=np.float64) -> tuple[Checkpoint, Checkpoint]:
    rng = np.random.default_rng(seed)
    cur = Checkpoint({"w": rng.standard_normal(shape).astype(dtype)})
    pre = Checkpoint({"w": rng.standard_normal(shape).astype(dtype)})
    return cur, pre


def test_alpha_zero_is_identity():
    cur, pre = pair(1)
    out = linear_merge(cur, pre, MergeSpec(0.0, ALL))
    assert out == cur
    assert out["w"].tobytes() == cur["w"].tobytes()


def test_alpha_one_reproduces_pretrained():
    cur, pre = pair(2)
    out = linear_merge(cur, pre, MergeSpec(1.0, ALL))
    assert out["w"].tobytes() == pre["w"].tobytes()


def test_quarter_blend_hand_computed():
    cur = Checkpoint({"w": np.array([2.0, 4.0])})
    pre = Checkpoint({"w": np.array([6.0, 0.0])})
    out = linear_merge(cur, pre, MergeSpec(0.25, ALL))
    np.testing.assert_array_equal(out["w"], [3.0, 3.0])


def test_matches_scalar_oracle_exactly_f64():
    for seed in range(10):
        cur, pre = pair(seed, shape=(5,))
        for alpha in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            out = linear_merge(cur, pre, MergeSpec(alpha, ALL))
            expected = scalar_merge_oracle(cur["w"], pre["w"], alpha)
            assert out["w"].tobytes() == expected.tobytes()


def test_f32_merge_stays_f32():
    cur, pre = pair(3, dtype=np.float32)
    out = linear_merge(cur, pre, MergeSpec(0.5, ALL))
    assert out["w"].dtype == np.float32
    expected = (np.float32(0.5) * cur["w"]) + (np.float32(0.5) * pre["w"])
    assert out["w"].tobytes() == expected.tobytes()


def test_convexity():
    rng = np.random.default_rng(11)
    cur = Checkpoint({"w": rng.standard_normal(64)})
    pre = Checkpoint({"w": rng.standard_normal(64)})
    lo = np.minimum(cur["w"], pre["w"])
    hi = np.maximum(cur["w"], pre["w"])
    for alpha in np.linspace(0, 1, 21):
        out = linear_merge(cur, pre, MergeSpec(float(alpha), ALL))["w"]
        assert np.all(out >= lo) and np.all(out <= hi)


def test_self_merge_is_identity_for_any_alpha():
    cur, _ = pair(4)
    for alpha in [0.0, 0.3, 1 / 3, 0.9, 1.0]:
        out = linear_merge(cur, cur, MergeSpec(alpha, ALL))
        assert out == cur


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_equal_endpoints_are_compared_bit_for_bit(dtype):
    bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
    signaling_nan = np.array([(0x7FF << 52) | 1 if bits.itemsize == 8 else 0x7F800001],
                             dtype=bits).view(dtype)
    values = np.concatenate([signaling_nan, np.array([-0.0, 0.1, 1e-300, -7.25], dtype=dtype)])
    scalar = np.array(-0.0, dtype=dtype)
    cur = Checkpoint({"w": values, "s": scalar})
    pre = Checkpoint({"w": values.copy(), "s": scalar.copy()})
    out = linear_merge(cur, pre, MergeSpec(0.3, ALL))
    for name in ("w", "s"):
        assert out[name].tobytes() == cur[name].tobytes()

    # -0.0 and +0.0 are equal values but not equal bits, so they are blended
    zeros = Checkpoint({"s": np.array(-0.0, dtype=dtype)}), Checkpoint({"s": np.array(0.0, dtype=dtype)})
    out = linear_merge(*zeros, MergeSpec(0.3, ALL))["s"]
    assert out.tobytes() == scalar_merge_oracle(zeros[0]["s"], zeros[1]["s"], 0.3).tobytes()
    assert out.tobytes() != zeros[0]["s"].tobytes()


@pytest.mark.parametrize("chunk", [8, 16, 1 << 20])
def test_blending_in_chunks_gives_the_blend_of_whole_tensors(tmp_path, monkeypatch, chunk):
    # a pair is the current tensor only if it is equal throughout; one that differs in its last
    # chunk alone is blended in every chunk, the equal ones too
    monkeypatch.setattr(merge, "_CHUNK", chunk)
    rng = np.random.default_rng(21)
    base = rng.standard_normal(13)
    late = base.copy()
    late[-1] += 1.0
    cur = Checkpoint({"a": rng.standard_normal((3, 5)), "equal": base, "late": base, "empty": np.zeros((0, 2)),
                      "zero": np.array(-0.0), "f32": rng.standard_normal(7).astype(np.float32)})
    pre = Checkpoint({"a": rng.standard_normal((3, 5)), "equal": base.copy(), "late": late,
                      "empty": np.zeros((0, 2)), "zero": np.array(0.0),
                      "f32": rng.standard_normal(7).astype(np.float32)})
    expected = cur.replace({name: blend(c, p, 0.3) for name, c, p in selected_pairs(cur, pre, ALL)})
    assert expected["late"][:12].tobytes() != base[:12].tobytes()  # so an unblended chunk would show
    merged = linear_merge(cur, pre, MergeSpec(0.3, ALL))
    assert serialize_checkpoint(merged) == serialize_checkpoint(expected)
    assert serialize_checkpoint(merged, out=io.BytesIO()).getvalue() == serialize_checkpoint(expected)
    save_checkpoint(merged, tmp_path / "merged.st")
    assert (tmp_path / "merged.st").read_bytes() == serialize_checkpoint(expected)
    assert merged["equal"].tobytes() == base.tobytes()
    empty = linear_merge(cur, pre, MergeSpec(0.3, Selector(["empty"])))  # no byte to blend
    assert serialize_checkpoint(empty) == serialize_checkpoint(cur)
    # a merge of a merge reads each blended tensor chunk by chunk from what it is made of
    again = expected.replace({name: blend(c, p, 0.5) for name, c, p in selected_pairs(expected, pre, ALL)})
    assert serialize_checkpoint(linear_merge(merged, pre, MergeSpec(0.5, ALL))) == serialize_checkpoint(again)
    # and a merge toward a merge makes each of its pretrained tensors once, whole, not once per chunk
    back = pre.replace({name: blend(c, p, 0.5) for name, c, p in selected_pairs(pre, expected, ALL)})
    calls = []
    blend_in_chunks = merge._blend_in_chunks
    monkeypatch.setattr(merge, "_blend_in_chunks", lambda *args: calls.append(args[2]) or blend_in_chunks(*args))
    assert serialize_checkpoint(linear_merge(pre, merged, MergeSpec(0.5, ALL))) == serialize_checkpoint(back)
    # each outer tensor and the inner one it reads; a serialization makes no empty tensor
    assert sorted(calls) == sorted(2 * [name for name in pre if pre[name].size])
    save_checkpoint(linear_merge(pre, merged, MergeSpec(0.5, ALL)), tmp_path / "back.st")
    assert (tmp_path / "back.st").read_bytes() == serialize_checkpoint(back)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_a_blend_in_place_is_the_current_array_at_the_endpoints(alpha):
    # in place, the result is always the current array, holding the endpoint's bits, -0.0 and NaN too
    cur = np.array([0.0, 1.5, np.nan, -2.0])
    pre = np.array([-0.0, np.nan, 3.0, 4.0])
    cur_bits, pre_bits = cur.tobytes(), pre.tobytes()
    out = blend(cur, pre, alpha, scratch=True)
    assert out is cur
    assert out.tobytes() == (pre_bits if alpha else cur_bits)
    assert blend(cur.copy(), pre, alpha).tobytes() == out.tobytes()
    chunked = merge._blend_in_chunks(np.frombuffer(cur_bits).copy(), Checkpoint({"w": pre}), "w",
                                     memoryview(bytearray(16)), alpha)
    assert chunked.tobytes() == out.tobytes()


def test_affine_in_alpha_exact_on_dyadic_grid():
    # small integers and dyadic alphas make the arithmetic exact, so the
    # midpoint must land exactly on the chord
    rng = np.random.default_rng(12)
    cur = Checkpoint({"w": rng.integers(-8, 8, 16).astype(np.float64)})
    pre = Checkpoint({"w": rng.integers(-8, 8, 16).astype(np.float64)})
    at = {
        alpha: linear_merge(cur, pre, MergeSpec(alpha, ALL))["w"]
        for alpha in (0.25, 0.5, 0.75)
    }
    np.testing.assert_array_equal(at[0.5], (at[0.25] + at[0.75]) / 2.0)


def test_selector_isolation():
    rng = np.random.default_rng(13)
    cur = Checkpoint({
        "vision.dino.w": rng.standard_normal(4),
        "llm.w": rng.standard_normal(4),
    })
    pre = Checkpoint({
        "vision.dino.w": rng.standard_normal(4),
        "llm.w": rng.standard_normal(4),
    })
    for alpha in (0.0, 0.37, 1.0):
        out = linear_merge(cur, pre, MergeSpec(alpha, Selector(["vision.dino.*"])))
        assert out["llm.w"].tobytes() == cur["llm.w"].tobytes()


def test_unselected_metadata_preserved():
    cur = Checkpoint({"w": np.zeros(2)}, metadata={"origin": "fine-tuned"})
    pre = Checkpoint({"w": np.ones(2)})
    out = linear_merge(cur, pre, MergeSpec(0.5, ALL))
    assert out.metadata == {"origin": "fine-tuned"}


def test_alpha_out_of_range_rejected():
    with pytest.raises(ValueError, match="alpha"):
        MergeSpec(1.5, ALL)
    with pytest.raises(ValueError, match="alpha"):
        MergeSpec(-0.1, ALL)


def test_incompatible_selected_tensors_rejected():
    cur = Checkpoint({"w": np.zeros(3)})
    pre = Checkpoint({"w": np.zeros(4)})
    with pytest.raises(MergeCompatibilityError, match="shape mismatch"):
        linear_merge(cur, pre, MergeSpec(0.5, ALL))


def test_merge_compatibility_error_survives_pickling():
    cur = Checkpoint({"a": np.zeros(3), "b": np.zeros(2, dtype=np.float32)})
    pre = Checkpoint({"a": np.zeros(4), "b": np.zeros(2), "c": np.zeros(1)})
    with pytest.raises(MergeCompatibilityError) as info:
        linear_merge(cur, pre, MergeSpec(0.5, ALL))
    assert str(info.value) == (
        "checkpoints are not mergeable:\n"
        "shape mismatch for a: [3] vs [4]\n"
        "dtype mismatch for b: F32 vs F64"
    )
    copy = pickle.loads(pickle.dumps(info.value))
    assert type(copy) is MergeCompatibilityError
    assert str(copy) == str(info.value)


def test_selected_name_missing_from_pretrained_rejected():
    cur = Checkpoint({"vision.dino.w": np.zeros(3)})
    pre = Checkpoint({"vision.siglip.w": np.zeros(3)})
    with pytest.raises(MergeCompatibilityError, match="missing in second"):
        linear_merge(cur, pre, MergeSpec(0.5, Selector(["vision.dino.*"])))


def test_incompatibility_outside_selector_is_ignored():
    cur = Checkpoint({"vision.dino.w": np.zeros(3), "llm.w": np.zeros(2)})
    pre = Checkpoint({"vision.dino.w": np.ones(3)})
    out = linear_merge(cur, pre, MergeSpec(1.0, Selector(["vision.dino.*"])))
    assert out["vision.dino.w"].tobytes() == pre["vision.dino.w"].tobytes()
    assert out["llm.w"].tobytes() == cur["llm.w"].tobytes()


# --- distances ----------------------------------------------------------------


def test_distance_zero_for_equal():
    cur, _ = pair(5)
    assert merge_distance(cur, cur, ALL) == {"w": 0.0}


def test_distance_three_four_five():
    a = Checkpoint({"w": np.array([3.0, 4.0])})
    b = Checkpoint({"w": np.array([0.0, 0.0])})
    assert merge_distance(a, b, ALL)["w"] == 5.0


def test_distance_matches_scalar_oracle():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = Checkpoint({"w": rng.standard_normal(50)})
        b = Checkpoint({"w": rng.standard_normal(50)})
        got = merge_distance(a, b, ALL)["w"]
        want = scalar_distance_oracle(a["w"], b["w"])
        assert got == pytest.approx(want, rel=1e-12)


def test_distance_respects_selector():
    a = Checkpoint({"vision.dino.w": np.array([1.0]), "llm.w": np.array([9.0])})
    b = Checkpoint({"vision.dino.w": np.array([0.0]), "llm.w": np.array([0.0])})
    assert merge_distance(a, b, Selector(["vision.dino.*"])) == {"vision.dino.w": 1.0}
