"""Alpha curricula for reverting a fine-tuned backbone to pretrained weights.

A gradual schedule splits ``total_steps`` into ``k`` equal stages and raises
the pretrained mixing weight by ``1/k`` at each stage start, so the final
stage trains on the fully pretrained weights. A flip schedule restores the
pretrained weights at step 0 (alpha = 1 throughout) and is equivalent to a
gradual schedule with a single stage.

Alpha starts at ``1/k`` rather than 0: the k-th increment then lands exactly
at 1 at the start of the last stage. Because the backbone is frozen between
stage boundaries, every staged merge is computed from the original
(fine-tuned, pretrained) pair, never from a previously merged intermediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import MODE_FLIP, MODE_GRADUAL, MODES, VARIANTS
from .selector import Selector

if TYPE_CHECKING:
    import numpy as np

DINO_PATTERNS = ("vision.dino.*",)
SIGLIP_PATTERNS = ("vision.siglip.*",)
# The boundary table is built whole, at about 500 bytes a stage: 100,000
# stages take about 67 MB, so a mistyped step count cannot ask for gigabytes.
MAX_STAGES = 100_000


class ScheduleError(ValueError):
    """Invalid schedule configuration or step query."""


def _require_int(name: str, value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScheduleError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class Schedule:
    """Step-wise alpha curriculum over a fixed number of training steps.

    ``total_steps`` must be ``stage_count * stage_length`` exactly; a flip
    schedule is normalized to a single stage spanning the whole run.
    """

    mode: str
    total_steps: int
    stage_length: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ScheduleError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        _require_int("total steps", self.total_steps)
        if self.stage_length is not None:
            _require_int("stage length", self.stage_length)
        if self.total_steps <= 0:
            raise ScheduleError(f"total steps must be positive, got {self.total_steps}")
        if self.mode == MODE_FLIP:
            object.__setattr__(self, "stage_length", self.total_steps)
        if self.stage_length is None:
            raise ScheduleError("gradual mode requires a stage length")
        if self.stage_length <= 0:
            raise ScheduleError(f"stage length must be positive, got {self.stage_length}")
        if self.total_steps % self.stage_length != 0:
            raise ScheduleError(
                "stage length must divide total steps "
                f"({self.total_steps} % {self.stage_length} != 0)"
            )
        if self.stage_count > MAX_STAGES:
            raise ScheduleError(
                f"a schedule has at most {MAX_STAGES} stages, got {self.stage_count} "
                f"({self.total_steps} steps / stage length {self.stage_length})"
            )

    @property
    def stage_count(self) -> int:
        return self.total_steps // self.stage_length

    @classmethod
    def gradual(cls, total_steps: int, stage_length: int) -> "Schedule":
        return cls(MODE_GRADUAL, total_steps, stage_length)

    @classmethod
    def flip(cls, total_steps: int) -> "Schedule":
        return cls(MODE_FLIP, total_steps)


def alpha_at(schedule: Schedule, step: int) -> float:
    """Pretrained mixing weight in effect at ``step``; always in (0, 1]."""
    if not 0 <= step < schedule.total_steps:
        raise ScheduleError(
            f"step {step} outside schedule of {schedule.total_steps} steps"
        )
    k = schedule.stage_count
    return min(step // schedule.stage_length + 1, k) / k


def stage_boundaries(schedule: Schedule) -> list[tuple[int, float]]:
    """The (step, alpha) pairs at which a new merge must be applied."""
    k = schedule.stage_count
    return [(i * schedule.stage_length, (i + 1) / k) for i in range(k)]


@dataclass(frozen=True)
class MergePlan:
    """A schedule bound to the parameter groups a named variant reverts.

    ``D_*`` variants select exactly the DINO group, ``DS_*`` variants the
    DINO and SigLIP groups; the suffix names the schedule mode. Build plans
    with ``plan_for_variant``, which derives both from the variant name.
    """

    schedule: Schedule
    selector: Selector
    variant_name: str


def plan_for_variant(variant_name: str, total_steps: int, stage_length: int | None = None) -> MergePlan:
    """Build the canonical plan for one of the four reversal variants."""
    if variant_name not in VARIANTS:
        raise ScheduleError(f"unknown variant {variant_name!r}; expected one of {VARIANTS}")
    if variant_name.endswith("_flip"):
        schedule = Schedule.flip(total_steps)
    else:
        schedule = Schedule.gradual(total_steps, stage_length)
    patterns = DINO_PATTERNS + SIGLIP_PATTERNS if variant_name.startswith("DS_") else DINO_PATTERNS
    return MergePlan(schedule, Selector(patterns), variant_name)


def apply_stage(
    pairs: list[tuple[str, np.ndarray, np.ndarray]], plan: MergePlan, step: int
) -> dict[str, np.ndarray]:
    """The tensors ``plan`` selects, by name, blended at its stage boundary ``step``.

    ``pairs`` are ``revla.merge.selected_pairs`` of the original (fine-tuned, pretrained)
    checkpoints under ``plan.selector``: the backbone is frozen between boundaries, so
    every stage blends them rather than an earlier stage's output.
    """
    from .merge import blend  # loads numpy, which the rest of this module never needs

    schedule = plan.schedule
    if not (0 <= step < schedule.total_steps and step % schedule.stage_length == 0):
        raise ScheduleError(
            f"step {step} is not a stage boundary of the {schedule.mode} "
            f"schedule (boundaries every {schedule.stage_length} steps)"
        )
    alpha = alpha_at(schedule, step)
    return {name: blend(cur, pre, alpha) for name, cur, pre in pairs}
