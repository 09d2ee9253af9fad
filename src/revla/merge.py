"""Elementwise linear interpolation between two checkpoints.

A merge blends a selected subset of tensors as ``(1 - alpha) * current +
alpha * pretrained`` and copies everything else from ``current`` untouched.
Arithmetic runs in each tensor's own dtype; the endpoints alpha=0 and
alpha=1 are exact bitwise copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_store import Checkpoint, CompatReport, Selector, same_bits, select, validate_compat


class MergeCompatibilityError(ValueError):
    """Selected tensors differ in presence, shape, or dtype."""

    def __init__(self, report: CompatReport) -> None:
        super().__init__(f"checkpoints are not mergeable:\n{report.describe()}")
        self.report = report


@dataclass(frozen=True)
class MergeSpec:
    """Mixing weight plus the tensor subset it applies to."""

    alpha: float
    selector: Selector

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


def _require_compatible(current: Checkpoint, pretrained: Checkpoint, names: list[str]) -> None:
    report = validate_compat(current, pretrained, names)
    if not report.is_empty:
        raise MergeCompatibilityError(report)


def linear_merge(current: Checkpoint, pretrained: Checkpoint, spec: MergeSpec) -> Checkpoint:
    """Blend the selected tensors of two checkpoints at ``spec.alpha``.

    Every selected element becomes ``(1 - alpha) * current + alpha *
    pretrained``, evaluated in the tensor's dtype. Unselected tensors are
    copied from ``current`` byte for byte.
    """
    names = select(current, spec.selector)
    _require_compatible(current, pretrained, names)
    alpha = spec.alpha
    if alpha == 0.0 or not names:
        return current.replace({})
    updates: dict[str, np.ndarray] = {}
    for name in names:
        cur, pre = current[name], pretrained[name]
        if alpha == 1.0:
            # copied, not recomputed: 0.0 * x flips the sign of zero
            updates[name] = pre
        elif same_bits(cur, pre):
            # equal endpoints: interpolation is the identity exactly, which
            # the float evaluation below would only approximate
            updates[name] = cur
        else:
            a = cur.dtype.type(alpha)
            one_minus = cur.dtype.type(1.0) - a
            updates[name] = one_minus * cur + a * pre
    return current.replace(updates)


def merge_distance(a: Checkpoint, b: Checkpoint, selector: Selector) -> dict[str, float]:
    """Per-name L2 distance ``sqrt(sum((a - b)^2))`` over the selected tensors.

    Accumulates in f64 regardless of storage dtype; exactly zero iff the
    tensors are equal.
    """
    names = select(a, selector)
    _require_compatible(a, b, names)
    out: dict[str, float] = {}
    for name in names:
        diff = a[name].astype(np.float64) - b[name].astype(np.float64)
        out[name] = float(np.sqrt(np.sum(diff * diff)))
    return out
