"""Synthetic regression tasks for the forgetting experiments.

Task A is a smooth scalar target over the full 16-dim input; task B is a
7-dim target that sees the input through a fixed binary mask zeroing half
the coordinates. Fine-tuning on B therefore starves the encoder of exactly
the input directions A needs, which is what makes the shared encoder forget.
All draws come from streams derived from the task seed, so datasets and
minibatch sequences are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import D_IN, HEAD_A, HEAD_B

TASK_A_DEPTH = "A_depth"
TASK_B_ACTION = "B_action"
TASK_IDS = (TASK_A_DEPTH, TASK_B_ACTION)

_TASK_TAGS = {TASK_A_DEPTH: 1, TASK_B_ACTION: 2}
HEAD_FOR_TASK = {TASK_A_DEPTH: HEAD_A, TASK_B_ACTION: HEAD_B}

# stream tags under each task seed
STREAM_PARAMS = 0
STREAM_TRAIN = 1
STREAM_PROBE_TRAIN = 2
STREAM_PROBE_HELDOUT = 3
STREAM_EVAL = 4


@dataclass(frozen=True)
class TaskSpec:
    """Task identity plus the seed of its data."""

    task_id: str
    seed: int

    def __post_init__(self) -> None:
        if self.task_id not in TASK_IDS:
            raise ValueError(f"unknown task {self.task_id!r}; expected one of {TASK_IDS}")

    @property
    def head(self) -> str:
        return HEAD_FOR_TASK[self.task_id]


def stream_rng(spec: TaskSpec, stream: int) -> np.random.Generator:
    """Independent deterministic generator for one of the task's streams."""
    return np.random.default_rng([spec.seed, _TASK_TAGS[spec.task_id], stream])


@lru_cache(maxsize=64)
def _task_a_params(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, _TASK_TAGS[TASK_A_DEPTH], STREAM_PARAMS])
    g = rng.standard_normal(D_IN)
    h = rng.standard_normal(D_IN)
    return g / np.linalg.norm(g), h / np.linalg.norm(h)


@lru_cache(maxsize=64)
def _task_b_params(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, _TASK_TAGS[TASK_B_ACTION], STREAM_PARAMS])
    mixing = rng.standard_normal((7, D_IN)) / np.sqrt(D_IN)
    mask = np.zeros(D_IN)
    mask[rng.permutation(D_IN)[: D_IN // 2]] = 1.0
    return mixing, mask


def input_mask(spec: TaskSpec) -> np.ndarray | None:
    """Task B's fixed binary mask (half zeros); None for task A."""
    if spec.task_id == TASK_B_ACTION:
        return _task_b_params(spec.seed)[1].copy()
    return None


def targets(spec: TaskSpec, x: np.ndarray) -> np.ndarray:
    """Ground-truth outputs for a (batch, 16) input."""
    x = np.asarray(x, dtype=np.float64)
    if spec.task_id == TASK_A_DEPTH:
        g, h = _task_a_params(spec.seed)
        return (np.tanh(x @ g) + 0.5 * np.tanh(x @ h))[:, None]
    mixing, mask = _task_b_params(spec.seed)
    return np.tanh((x * mask) @ mixing.T)


def sample_inputs(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.standard_normal((count, D_IN))


def make_dataset(spec: TaskSpec, stream: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed dataset of ``count`` samples drawn from one of the task's seeded streams."""
    rng = stream_rng(spec, stream)
    x = sample_inputs(rng, count)
    return x, targets(spec, x)
