"""Alpha curricula: stage boundaries, flip/gradual equivalence, staged merging."""

from __future__ import annotations

import numpy as np
import pytest

from revla import merge
from revla.schedule import (
    Schedule,
    ScheduleError,
    alpha_at,
    apply_stage,
    plan_for_variant,
    stage_boundaries,
)
from revla.tensor_store import Checkpoint

PAPER_SCALE = Schedule.gradual(100_000, 10_000)


def test_alpha_starts_at_one_over_k():
    assert alpha_at(PAPER_SCALE, 0) == 0.1


def test_alpha_final_stage_is_one():
    assert alpha_at(PAPER_SCALE, 95_000) == 1.0
    assert alpha_at(PAPER_SCALE, 99_999) == 1.0


def test_flip_is_one_everywhere():
    sched = Schedule.flip(100_000)
    for step in (0, 1, 50_000, 99_999):
        assert alpha_at(sched, step) == 1.0


def test_alpha_sequence_enumerated_by_hand():
    sched = Schedule.gradual(6, 2)  # k = 3
    got = [alpha_at(sched, step) for step in range(6)]
    assert got == [1 / 3, 1 / 3, 2 / 3, 2 / 3, 1.0, 1.0]


def test_alpha_is_non_decreasing_and_positive():
    sched = Schedule.gradual(60, 5)
    alphas = [alpha_at(sched, s) for s in range(60)]
    assert all(a > 0 for a in alphas)
    assert alphas == sorted(alphas)


def test_alpha_out_of_range_step_rejected():
    with pytest.raises(ScheduleError, match="outside schedule"):
        alpha_at(PAPER_SCALE, 100_000)
    with pytest.raises(ScheduleError, match="outside schedule"):
        alpha_at(PAPER_SCALE, -1)


def test_boundaries_paper_scale():
    bounds = stage_boundaries(PAPER_SCALE)
    assert len(bounds) == 10
    assert bounds[0] == (0, 0.1)
    assert bounds[-1] == (90_000, 1.0)
    assert [a for _, a in bounds] == [(i + 1) / 10 for i in range(10)]


def test_boundaries_flip():
    assert stage_boundaries(Schedule.flip(100_000)) == [(0, 1.0)]


def test_single_stage_gradual_equals_flip():
    gradual = Schedule.gradual(500, 500)
    flip = Schedule.flip(500)
    assert stage_boundaries(gradual) == stage_boundaries(flip)
    for step in range(0, 500, 7):
        assert alpha_at(gradual, step) == alpha_at(flip, step) == 1.0


def test_indivisible_stage_length_rejected():
    with pytest.raises(ScheduleError, match="stage length must divide total steps"):
        Schedule.gradual(100_000, 30_000)


def test_invalid_schedule_fields_rejected():
    with pytest.raises(ScheduleError, match="unknown mode"):
        Schedule("cosine", 100, 10)
    with pytest.raises(ScheduleError, match="total steps must be positive"):
        Schedule.gradual(0, 1)
    with pytest.raises(ScheduleError, match="stage length must be positive"):
        Schedule.gradual(10, -2)
    with pytest.raises(ScheduleError, match="requires a stage length"):
        Schedule("gradual", 10)
    with pytest.raises(ScheduleError, match="total steps must be an int"):
        Schedule.gradual(100.0, 10)
    with pytest.raises(ScheduleError, match="stage length must be an int"):
        Schedule.gradual(100, 10.0)
    with pytest.raises(ScheduleError, match="total steps must be an int"):
        Schedule.flip(True)
    with pytest.raises(ScheduleError, match="stage length must be an int"):
        Schedule("flip", 60, True)


def test_stage_count_is_capped():
    assert Schedule.gradual(100_000, 1).stage_count == 100_000
    with pytest.raises(ScheduleError, match=r"^a schedule has at most 100000 stages, got 100001 "):
        Schedule.gradual(100_001, 1)


# --- plans and staged merging ---------------------------------------------


def _scalar_ckpts() -> tuple[Checkpoint, Checkpoint]:
    cur = Checkpoint({"vision.dino.w": np.array([0.0]), "head.w": np.array([5.0])})
    pre = Checkpoint({"vision.dino.w": np.array([9.0]), "head.w": np.array([7.0])})
    return cur, pre


def test_three_stage_scalar_reversal():
    cur, pre = _scalar_ckpts()
    plan = plan_for_variant("D_gradual", 6, 2)
    values = [
        float(apply_stage(cur, pre, plan, step)["vision.dino.w"][0])
        for step, _ in stage_boundaries(plan.schedule)
    ]
    assert values == [3.0, 6.0, 9.0]


def test_final_boundary_restores_pretrained_bitwise():
    cur, pre = _scalar_ckpts()
    plan = plan_for_variant("D_gradual", 6, 2)
    out = apply_stage(cur, pre, plan, 4)
    assert out["vision.dino.w"].tobytes() == pre["vision.dino.w"].tobytes()
    assert out["head.w"].tobytes() == cur["head.w"].tobytes()


def test_flip_restores_pretrained_at_step_zero():
    cur, pre = _scalar_ckpts()
    plan = plan_for_variant("D_flip", 6)
    out = apply_stage(cur, pre, plan, 0)
    assert out["vision.dino.w"].tobytes() == pre["vision.dino.w"].tobytes()


def test_non_boundary_step_rejected():
    cur, pre = _scalar_ckpts()
    plan = plan_for_variant("D_gradual", 6, 2)
    with pytest.raises(ScheduleError, match="not a stage boundary"):
        apply_stage(cur, pre, plan, 3)


@pytest.mark.parametrize("total,stage", [
    (10, 1), (21, 7), (49, 7), (99, 33), (300, 100), (5000, 500), (100_000, 1),
])
def test_stage_alpha_equals_the_boundary_table_bitwise(monkeypatch, total, stage):
    alphas = []
    monkeypatch.setattr(merge, "linear_merge", lambda cur, pre, spec: alphas.append(spec.alpha))
    plan = plan_for_variant("D_gradual", total, stage)
    boundaries = stage_boundaries(plan.schedule)
    for step, _ in boundaries:
        apply_stage(None, None, plan, step)
    assert [alpha.hex() for alpha in alphas] == [alpha.hex() for _, alpha in boundaries]
    for step in [-stage, -1, total, total + stage] + ([stage + 1] if stage > 1 else []):
        with pytest.raises(ScheduleError) as excinfo:
            apply_stage(None, None, plan, step)
        assert str(excinfo.value) == (
            f"step {step} is not a stage boundary of the gradual schedule (boundaries every {stage} steps)")


def test_monotone_reversal_toward_pretrained():
    rng = np.random.default_rng(21)
    cur = Checkpoint({"vision.dino.w": rng.integers(-8, 8, 32).astype(np.float64)})
    pre = Checkpoint({"vision.dino.w": rng.integers(-8, 8, 32).astype(np.float64)})
    plan = plan_for_variant("D_gradual", 8, 2)  # dyadic alphas: exact arithmetic
    gaps = []
    for step, _ in stage_boundaries(plan.schedule):
        out = apply_stage(cur, pre, plan, step)
        gaps.append(np.abs(out["vision.dino.w"] - pre["vision.dino.w"]))
    for earlier, later in zip(gaps, gaps[1:]):
        assert np.all(later <= earlier)
    assert np.all(gaps[-1] == 0.0)


def test_flip_equals_single_stage_gradual_outputs():
    cur, pre = _scalar_ckpts()
    flip_out = apply_stage(cur, pre, plan_for_variant("D_flip", 500), 0)
    gradual_out = apply_stage(cur, pre, plan_for_variant("D_gradual", 500, 500), 0)
    assert flip_out == gradual_out


def test_variant_selectors():
    assert set(plan_for_variant("D_gradual", 10, 5).selector.patterns) == {"vision.dino.*"}
    assert set(plan_for_variant("DS_flip", 10).selector.patterns) == {
        "vision.dino.*",
        "vision.siglip.*",
    }


def test_unknown_variant_rejected():
    with pytest.raises(ScheduleError, match="unknown variant"):
        plan_for_variant("DSX_flip", 10)
