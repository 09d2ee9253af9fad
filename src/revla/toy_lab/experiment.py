"""End-to-end forgetting-and-recovery experiment on the toy network.

Phase 1 pretrains encoder plus head "a" on task A and snapshots the result.
Phase 2 fine-tunes encoder plus head "b" on task B, which damages the
features task A relies on. Phase 3 trains head "b" with the encoder frozen
while a merge plan steps the encoder back toward the phase-1 snapshot.
Phases 1 and 2 depend only on the config, so they run once per call and
every plan's phase 3 starts from the same fine-tuned snapshot; each
stage merges the original (fine-tuned, pretrained) pair, so the trajectory
equals direct interpolation evaluated at every boundary alpha. Task-A probe
error is measured after each phase.

The plans' phase-3 runs share no state, so ``revla.cores.map_on_cores``
splits them across the usable cores: forked workers run all but the first
slice of plans and send back their reports and final checkpoints, while the
calling process runs the first slice itself. Nothing here writes a file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .. import format_table
from ..cores import map_on_cores
from ..merge import selected_pairs
from ..schedule import MergePlan, apply_stage, stage_boundaries
from ..tensor_store import Checkpoint, Selector, same_bits
from .model import ENCODER_NAMES, ENCODER_PATTERNS, ToyModel, forward
from .tasks import TASK_A_DEPTH, TASK_B_ACTION, STREAM_EVAL, TaskSpec, make_dataset, stream_rng
from .training import BATCH_SIZE, PROBE_COUNT, RIDGE_LAMBDA, probe_linear, train

STREAM_REVERSAL_TRAIN = 5
LEARNING_RATE = 1e-2
EVAL_COUNT = 512  # task-B samples scored after the reversal

# The hyperparameters every run shares, recorded in each report's config.
_FIXED_SETTINGS = {
    "learning_rate": LEARNING_RATE,
    "batch_size": BATCH_SIZE,
    "ridge_lambda": RIDGE_LAMBDA,
    "probe_train_count": PROBE_COUNT,
    "probe_heldout_count": PROBE_COUNT,
    "eval_count": EVAL_COUNT,
}


@dataclass(frozen=True)
class LabConfig:
    """The settable hyperparameters of the three-phase experiment.

    Sized so a full run takes seconds: the point is the mechanism, not the
    scale. All randomness is derived from ``seed``; the other
    hyperparameters are the module's constants.
    """

    seed: int = 7
    pretrain_steps: int = 5000
    finetune_steps: int = 5000

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a non-negative int, got {value!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), **_FIXED_SETTINGS}


@dataclass
class ExperimentReport:
    """Probe errors around the fine-tune/reversal cycle, plus diagnostics."""

    variant_name: str
    seed: int
    probe_err_pretrained: float
    probe_err_after_finetune: float
    probe_err_after_reversal: float
    taskB_final_err: float
    encoder_bitwise_reverted: bool
    stage_alphas: list[tuple[int, float]]
    loss_curves: dict[str, list[float]] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def forgetting_ratio(self) -> float:
        return self.probe_err_after_finetune / self.probe_err_pretrained

    def to_dict(self) -> dict:
        # not asdict: its deep copy of the 5,000 reversal loss floats would cost about 9 ms per report
        return {**vars(self), "forgetting_ratio": self.forgetting_ratio}


@dataclass(frozen=True)
class _SharedPhases:
    """Phases 1 and 2, which depend on the config alone and not on the plan."""

    pretrained: Checkpoint
    finetuned: Checkpoint
    probe_err_pretrained: float
    probe_err_after_finetune: float
    loss_curves: dict[str, list[float]]  # "pretrain", "finetune"


def _shared_phases(config: LabConfig) -> _SharedPhases:
    """Pretrain on task A, fine-tune on task B, snapshot and probe after each."""
    task_a = TaskSpec(TASK_A_DEPTH, config.seed)
    task_b = TaskSpec(TASK_B_ACTION, config.seed)
    model, pretrain_losses = train(
        ToyModel.initialize(config.seed), task_a, config.pretrain_steps, LEARNING_RATE
    )
    pretrained = model.to_checkpoint()
    probe_pre = probe_linear(model, task_a)
    model, finetune_losses = train(model, task_b, config.finetune_steps, LEARNING_RATE)
    return _SharedPhases(
        pretrained, model.to_checkpoint(), probe_pre, probe_linear(model, task_a),
        {"pretrain": pretrain_losses, "finetune": finetune_losses},
    )


def _reverse(
    plan: MergePlan, config: LabConfig, shared: _SharedPhases
) -> tuple[ExperimentReport, Checkpoint]:
    """Run phase 3 for one plan from the fine-tuned snapshot; return its report and final checkpoint."""
    task_a = TaskSpec(TASK_A_DEPTH, config.seed)
    task_b = TaskSpec(TASK_B_ACTION, config.seed)
    model = ToyModel.from_checkpoint(shared.finetuned)
    encoder_freeze = Selector(ENCODER_PATTERNS)
    reversal_rng = stream_rng(task_b, STREAM_REVERSAL_TRAIN)
    reversal_losses: list[float] = []
    stage_length = plan.schedule.stage_length
    boundaries = stage_boundaries(plan.schedule)
    pairs = list(selected_pairs(shared.finetuned, shared.pretrained, plan.selector))
    for step, _ in boundaries:
        # read-only until train's copy
        model.params.update(apply_stage(pairs, plan, step))
        model, stage_losses = train(
            model, task_b, stage_length, LEARNING_RATE, encoder_freeze, rng=reversal_rng
        )
        reversal_losses.extend(stage_losses)
    probe_rev = probe_linear(model, task_a)

    final = model.to_checkpoint()
    x_eval, y_eval = make_dataset(task_b, STREAM_EVAL, EVAL_COUNT)
    task_b_err = float(np.mean((forward(model, x_eval, task_b.head) - y_eval) ** 2))

    return ExperimentReport(
        variant_name=plan.variant_name,
        seed=config.seed,
        probe_err_pretrained=shared.probe_err_pretrained,
        probe_err_after_finetune=shared.probe_err_after_finetune,
        probe_err_after_reversal=probe_rev,
        taskB_final_err=task_b_err,
        encoder_bitwise_reverted=all(same_bits(final[n], shared.pretrained[n]) for n in ENCODER_NAMES),
        stage_alphas=boundaries,
        loss_curves={"reversal": reversal_losses},
        config=config.to_dict(),
    ), final


def run_reversal_experiment(
    plans: Sequence[MergePlan], config: LabConfig = LabConfig()
) -> tuple[list[ExperimentReport], dict[str, list[float]], dict[str, Checkpoint]]:
    """Pretrain and fine-tune once, then run each plan's staged reversal.

    Returns one report per plan, in order, the shared phases' loss curves
    (``"pretrain"``, ``"finetune"``), and the checkpoints made, by name:
    ``pretrained``, ``finetuned`` and each plan's ``<variant>_final``. Every
    plan reverts from the same (fine-tuned, pretrained) pair, so each report
    and final checkpoint equals that of a run with the plan alone.

    The reversals run in forked workers, one per usable core, unless there
    is one plan or one usable core. Reports and checkpoints are the same
    either way.
    """
    shared = _shared_phases(config)
    results = map_on_cores(lambda plan: _reverse(plan, config, shared), list(plans))
    checkpoints = {"pretrained": shared.pretrained, "finetuned": shared.finetuned}
    checkpoints.update((f"{report.variant_name}_final", final) for report, final in results)
    return [report for report, _ in results], shared.loss_curves, checkpoints


def render_comparison(reports: list[ExperimentReport]) -> str:
    """Aligned text table comparing variants' probe errors and reversion."""
    headers = (
        "variant", "probe_pretrained", "probe_finetuned", "probe_reversal",
        "forget_ratio", "taskB_err", "reverted",
    )
    rows = [headers]
    for rep in reports:
        rows.append((
            rep.variant_name,
            f"{rep.probe_err_pretrained:.6f}",
            f"{rep.probe_err_after_finetune:.6f}",
            f"{rep.probe_err_after_reversal:.6f}",
            f"{rep.forgetting_ratio:.2f}",
            f"{rep.taskB_final_err:.6f}",
            "yes" if rep.encoder_bitwise_reverted else "no",
        ))
    return format_table(rows)
