"""Seeded benchmark inputs and the reference values their outputs must match.

Everything here is a function of the workload seed and a scale, so the same
seed always yields the same files. The checkpoint writer and the episode-log
writer implement the file formats from their specifications rather than
calling into ``revla``: the reference values must not share code with the
program under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MERGE_ALPHA = 0.3
MERGE_SELECT = "vision.dino.*"

# (group, matrix count) of an OpenVLA-style fused backbone: about 22 % DINO,
# 22 % SigLIP, 54 % language model and 2 % action head by bytes.
_GROUPS = (("vision.dino", 28), ("vision.siglip", 28), ("llm", 70))
_ACTION_HEAD_LAYERS = 2


def checkpoint_layout(dim: int) -> list[tuple[str, tuple[int, ...]]]:
    """Tensor names and shapes, in canonical (name) order.

    Each block holds a ``dim x dim`` matrix and a bias; every other block
    adds a norm vector. ``dim=1024`` gives ~515 MiB in 322 tensors.
    """
    layout: list[tuple[str, tuple[int, ...]]] = []
    for group, blocks in _GROUPS:
        for i in range(blocks):
            prefix = f"{group}.blocks.{i:03d}"
            layout.append((f"{prefix}.weight", (dim, dim)))
            layout.append((f"{prefix}.bias", (dim,)))
            if i % 2 == 0:
                layout.append((f"{prefix}.norm.weight", (dim,)))
        layout.append((f"{group}.norm.weight", (dim,)))
    for i in range(_ACTION_HEAD_LAYERS):
        layout.append((f"action_head.layers.{i}.weight", (dim, dim + dim // 4)))
        layout.append((f"action_head.layers.{i}.bias", (dim,)))
    return sorted(layout)


def _header_bytes(layout: list[tuple[str, tuple[int, ...]]]) -> bytes:
    header = {}
    offset = 0
    for name, shape in layout:
        end = offset + 4 * int(np.prod(shape))
        header[name] = {"dtype": "F32", "shape": list(shape), "data_offsets": [offset, end]}
        offset = end
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    blob += b" " * (-len(blob) % 8)
    return struct.pack("<Q", len(blob)) + blob


@contextlib.contextmanager
def rewrite_in_place(path: Path):
    """Open ``path`` for writing over its old contents without freeing its blocks.

    Inputs are rewritten in place and never deleted: on a file system mounted
    with ``discard``, freeing the blocks of a file that reached the disk costs
    tens of seconds per GB. The file is synced on close, so its writeback
    does not overlap the timed operations.
    """
    with open(path, "r+b" if path.exists() else "wb") as fh:
        yield fh
        fh.truncate()
        fh.flush()
        os.fsync(fh.fileno())


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class CheckpointPair:
    """Two generated checkpoints plus the digests a correct toolkit reproduces."""

    current: Path
    pretrained: Path
    file_bytes: int                 # size of one file
    names: tuple[str, ...]          # canonical order
    current_digests: dict[str, str]  # per-tensor sha256 of ``current``
    merged_digests: dict[str, str]   # per-tensor sha256 of the expected merge
    current_sha256: str             # whole file; it is written canonically
    header: bytes                   # canonical header, shared by both inputs and the merge


def write_checkpoint_pair(directory: Path, seed: int, dim: int) -> CheckpointPair:
    """Write ``current`` and ``pretrained`` f32 checkpoints, one tensor at a time.

    The expected merge is ``(f32(1) - f32(alpha)) * cur + f32(alpha) * pre`` on
    ``vision.dino.*`` and a byte copy of ``cur`` elsewhere.
    """
    layout = checkpoint_layout(dim)
    header = _header_bytes(layout)
    a = np.float32(MERGE_ALPHA)
    one_minus = np.float32(1.0) - a
    prefix = MERGE_SELECT.rstrip("*")
    cur_digests, merged_digests = {}, {}
    file_hash = hashlib.sha256(header)
    paths = directory / f"current_{dim}.safetensors", directory / f"pretrained_{dim}.safetensors"
    with rewrite_in_place(paths[0]) as f_cur, rewrite_in_place(paths[1]) as f_pre:
        f_cur.write(header)
        f_pre.write(header)
        for index, (name, shape) in enumerate(layout):
            cur = np.random.default_rng([seed, index, 0]).standard_normal(shape, dtype=np.float32)
            pre = np.random.default_rng([seed, index, 1]).standard_normal(shape, dtype=np.float32)
            f_cur.write(cur.data)
            f_pre.write(pre.data)
            file_hash.update(cur.data)
            cur_digests[name] = _sha(cur.data)
            if name.startswith(prefix):
                merged_digests[name] = _sha((one_minus * cur + a * pre).data)
            else:
                merged_digests[name] = cur_digests[name]
    return CheckpointPair(
        current=paths[0],
        pretrained=paths[1],
        file_bytes=paths[0].stat().st_size,
        names=tuple(name for name, _ in layout),
        current_digests=cur_digests,
        merged_digests=merged_digests,
        current_sha256=file_hash.hexdigest(),
        header=header,
    )


# The twelve cells every policy is scored on: six out-of-domain object/setting
# cells and six in-domain protocol/sub-setting cells, as
# (object, setting, protocol, sub_setting).
EVAL_CELLS = tuple(
    [(obj, setting, "visual_matching", None)
     for obj in ("pear", "mustard_bottle", "tomato_can")
     for setting in ("single", "distractor")]
    + [("coke_can", "single", protocol, sub)
       for protocol in ("visual_matching", "variant_aggregation")
       for sub in ("horizontal", "vertical", "standing")]
)
EPISODES_PER_CELL = 100
_VARIANTS = ("D_flip", "D_gradual", "DS_flip", "DS_gradual")


@dataclass(frozen=True)
class EpisodeLog:
    """A generated JSONL log and the per-cell tallies it encodes."""

    path: Path
    episodes: int
    policies: tuple[str, ...]
    # (policy, object, setting, protocol, sub_setting) -> [episodes, grasps, lifts]
    tallies: dict[tuple, list[int]]


def write_episode_log(directory: Path, seed: int, policy_count: int) -> EpisodeLog:
    """One line per episode; per-policy grasp and lift rates drawn from ``seed``.

    Policies are named like the scored stages of a sweep over 4 variants x
    10 stages x 5 seeds. Episode 0 of the first policy's first cell always
    grasps and lifts, so the baseline's rates are never zero and every
    relative improvement is defined.
    """
    rng = np.random.default_rng([seed, 0xE7A1])
    policies = tuple(f"{variant}_stage{stage:02d}_seed{run}"
                     for run in range(5) for variant in _VARIANTS for stage in range(10))
    if not 0 < policy_count <= len(policies):
        raise ValueError(f"policy count must be in [1, {len(policies)}], got {policy_count}")
    policies = policies[:policy_count]
    shape = (policy_count, len(EVAL_CELLS), EPISODES_PER_CELL)
    p_grasp = rng.uniform(0.2, 0.95, size=shape[:2])[..., None]
    p_lift = rng.uniform(0.3, 0.9, size=shape[:2])[..., None]
    grasp = rng.random(shape) < p_grasp
    lift = grasp & (rng.random(shape) < p_lift)
    grasp[0, 0, 0] = lift[0, 0, 0] = True
    tallies: dict[tuple, list[int]] = {}
    path = directory / f"episodes_{policy_count}.jsonl"
    with rewrite_in_place(path) as fh:
        for p, policy in enumerate(policies):
            for c, (obj, setting, protocol, sub) in enumerate(EVAL_CELLS):
                sub_json = "null" if sub is None else f'"{sub}"'
                line = ('{"grasp_success": %s, "lift_success": %s, '
                        f'"object": "{obj}", "policy": "{policy}", "protocol": "{protocol}", '
                        f'"setting": "{setting}", "sub_setting": {sub_json}, ''"episode": %d}\n')
                g_row, l_row = grasp[p, c], lift[p, c]
                fh.writelines(
                    (line % ("true" if g else "false", "true" if l else "false", e)).encode()
                    for e, (g, l) in enumerate(zip(g_row.tolist(), l_row.tolist()))
                )
                tallies[(policy, obj, setting, protocol, sub)] = [
                    EPISODES_PER_CELL, int(g_row.sum()), int(l_row.sum())]
    return EpisodeLog(path, int(np.prod(shape)), policies, tallies)
