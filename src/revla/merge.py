"""Elementwise linear interpolation between two checkpoints.

A merge blends a selected subset of tensors as ``(1 - alpha) * current +
alpha * pretrained`` and copies everything else from ``current`` untouched.
Arithmetic runs in each tensor's own dtype; the endpoints alpha=0 and
alpha=1 are exact bitwise copies. ``blend`` is the one interpolation. A
reversal plan reads the pairs ``selected_pairs`` checks once and blends them
again at each stage's alpha (``revla.schedule.apply_stage``).
``linear_merge`` checks the pair and blends nothing: each selected tensor is
read, compared and blended in place in two reused buffers as the result is
saved or used (``Checkpoint.deferred``), so a merge holds its largest
selected tensor once, not the blended bytes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .tensor_store import Checkpoint, Selector, same_bits, select, validate_compat


# bytes of a pretrained tensor read and blended at a time; chunks of 1 and 4 MiB merged the
# benchmark's pairs no faster
_CHUNK = 1 << 18


class MergeCompatibilityError(ValueError):
    """Selected tensors differ in presence, shape, or dtype."""


@dataclass(frozen=True)
class MergeSpec:
    """Mixing weight plus the tensor subset it applies to."""

    alpha: float
    selector: Selector

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


def selected_pairs(
    current: Checkpoint, pretrained: Checkpoint, selector: Selector
) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
    """``(name, cur, pre)`` for each tensor ``selector`` picks, read one pair at a time.

    Compatibility is checked before the first read. Bitwise-equal endpoints
    come as ``pre is cur``, which ``blend`` keeps exactly at every alpha.
    """
    for name in _mergeable(current, pretrained, selector):
        cur, pre = current[name], pretrained[name]
        yield name, cur, cur if same_bits(cur, pre) else pre


def _mergeable(current: Checkpoint, pretrained: Checkpoint, selector: Selector) -> list[str]:
    """The names ``selector`` picks of ``current``, once both checkpoints hold them alike."""
    names = select(current, selector)
    problems = validate_compat(current, pretrained, names)
    if problems:
        raise MergeCompatibilityError("checkpoints are not mergeable:\n" + "\n".join(problems))
    return names


def blend(cur: np.ndarray, pre: np.ndarray, alpha: float, scratch: bool = False) -> np.ndarray:
    """``(1 - alpha) * cur + alpha * pre`` of a ``selected_pairs`` pair, in its dtype, backed by ``bytes``.

    It is ``cur`` itself at alpha=0 or if ``pre is cur``, and ``pre`` itself at
    alpha=1: copied, not recomputed, as ``0.0 * x`` flips the sign of zero.
    With ``scratch``, both arrays are writable and the blend is made in place:
    the result is ``cur`` at every alpha (at alpha=1, ``pre`` copied into it),
    and ``pre`` may be overwritten. Both ways run the same operations in the
    same order, so they give the same bits.
    """
    if alpha == 0.0 or pre is cur:
        return cur
    if alpha == 1.0:
        if not scratch:
            return pre
        cur[...] = pre
        return cur
    a = cur.dtype.type(alpha)
    left = np.multiply(cur, cur.dtype.type(1.0) - a, out=cur if scratch else None)
    left += np.multiply(pre, a, out=pre if scratch else None)
    if scratch:
        return left
    # frozen as it is made, so no float result waits for Checkpoint to copy it
    return np.ndarray(cur.shape, cur.dtype, left.tobytes())


def linear_merge(current: Checkpoint, pretrained: Checkpoint, spec: MergeSpec) -> Checkpoint:
    """Blend the selected tensors of two checkpoints at ``spec.alpha``.

    Every selected element becomes ``(1 - alpha) * current + alpha *
    pretrained``, evaluated in the tensor's dtype. The two are checked
    compatible here, and nothing is read: each blend is made as the result
    is saved or used. The current tensor is read whole into one buffer the
    size of the largest selected tensor and blended there with the
    pretrained one, read a chunk at a time into a second buffer
    (``_blend_in_chunks``); both are reused for every tensor. If a selected
    pretrained tensor is itself made on use (``Checkpoint.is_deferred``, a
    merge of a merge), the second buffer is as large as the first and each
    pretrained tensor is read whole, so it is made once, not once per
    chunk. At alpha 0
    and 1 a selected tensor is ``current``'s or ``pretrained``'s as stored.
    Unselected tensors are copied from ``current`` byte for byte. A tensor
    still in a loaded file stays unread in it, and ``save_checkpoint`` has
    the kernel copy it from there.
    """
    names = _mergeable(current, pretrained, spec.selector)
    if spec.alpha == 0.0:
        return current
    if spec.alpha == 1.0:
        return current.take(pretrained, names)
    sizes = {meta.name: meta.byte_range[1] - meta.byte_range[0] for meta in current.metas()}
    largest = max((sizes[name] for name in names), default=0)
    chunk = largest if any(pretrained.is_deferred(name) for name in names) else min(_CHUNK, largest)
    buffers: list[memoryview] = []  # allocated at first use and reused for every tensor
    lock = threading.Lock()  # so one tensor is made in them at a time

    def write(name: str, out) -> None:
        with lock:
            if not buffers:
                buffers.extend(memoryview(bytearray(size)) for size in (largest, chunk))
            cur = current.read_into(name, buffers[0])
            out(_blend_in_chunks(cur, pretrained, name, buffers[1], spec.alpha).view(np.uint8).data)

    return current.deferred(names, write)


def _blend_in_chunks(cur: np.ndarray, pretrained: Checkpoint, name: str, chunk: memoryview, alpha: float):
    """``cur``, the current tensor ``name`` as a writable flat array, blended in place with ``pretrained``'s.

    The pretrained tensor is read one ``chunk`` at a time, and each chunk of
    ``cur`` is the blend ``blend`` makes in place at any alpha. A pair equal bit
    for bit throughout is the current tensor exactly, as ``selected_pairs``
    marks it, so the blend starts only once a chunk is found to differ, and
    reads again the equal chunks before it.
    """
    step = len(chunk) // cur.itemsize
    starts = range(0, cur.size, step) if cur.size else ()
    for first in starts:
        pre = pretrained.read_into(name, chunk, first * cur.itemsize)
        if not same_bits(cur[first : first + step], pre):
            break
    else:
        return cur
    for start in starts:
        if start or first:  # else this is the first chunk, still as it was read above
            pre = pretrained.read_into(name, chunk, start * cur.itemsize)
        blend(cur[start : start + step], pre, alpha, scratch=True)
    return cur


def merge_distance(a: Checkpoint, b: Checkpoint, selector: Selector) -> dict[str, float]:
    """Per-name L2 distance ``sqrt(sum((a - b)^2))`` over the selected tensors.

    Accumulates in f64 regardless of storage dtype; exactly zero iff the
    tensors are equal.
    """
    out: dict[str, float] = {}
    for name, cur, pre in selected_pairs(a, b, selector):
        diff = cur.astype(np.float64) - pre.astype(np.float64)
        out[name] = float(np.sqrt(np.sum(diff * diff)))
    return out
