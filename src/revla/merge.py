"""Elementwise linear interpolation between two checkpoints.

A merge blends a selected subset of tensors as ``(1 - alpha) * current +
alpha * pretrained`` and copies everything else from ``current`` untouched.
Arithmetic runs in each tensor's own dtype; the endpoints alpha=0 and
alpha=1 are exact bitwise copies. ``blend`` is the one interpolation, of the
pairs ``selected_pairs`` checks and reads: ``linear_merge`` streams them
through it, and a reversal plan reads them once and blends them again at
each stage's alpha (``revla.schedule.apply_stage``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .tensor_store import Checkpoint, Selector, same_bits, select, validate_compat


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
    names = select(current, selector)
    problems = validate_compat(current, pretrained, names)
    if problems:
        raise MergeCompatibilityError("checkpoints are not mergeable:\n" + "\n".join(problems))
    for name in names:
        cur, pre = current[name], pretrained[name]
        yield name, cur, cur if same_bits(cur, pre) else pre


def blend(cur: np.ndarray, pre: np.ndarray, alpha: float) -> np.ndarray:
    """``(1 - alpha) * cur + alpha * pre`` of a ``selected_pairs`` pair, in its dtype, backed by ``bytes``.

    It is ``cur`` itself at alpha=0 or if ``pre is cur``, and ``pre`` itself at
    alpha=1: copied, not recomputed, as ``0.0 * x`` flips the sign of zero.
    """
    if alpha == 0.0 or pre is cur:
        return cur
    if alpha == 1.0:
        return pre
    a = cur.dtype.type(alpha)
    # frozen as it is made, so no float result waits for Checkpoint to copy it
    return np.ndarray(cur.shape, cur.dtype, ((cur.dtype.type(1.0) - a) * cur + a * pre).tobytes())


def linear_merge(current: Checkpoint, pretrained: Checkpoint, spec: MergeSpec) -> Checkpoint:
    """Blend the selected tensors of two checkpoints at ``spec.alpha``.

    Every selected element becomes ``(1 - alpha) * current + alpha *
    pretrained``, evaluated in the tensor's dtype. Unselected tensors are
    copied from ``current`` byte for byte; of a loaded checkpoint they stay
    unread in its file.
    """
    pairs = selected_pairs(current, pretrained, spec.selector)
    return current.replace({name: blend(cur, pre, spec.alpha) for name, cur, pre in pairs})


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
