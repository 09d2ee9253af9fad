"""Acceptance criteria, each at its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from test_merge import scalar_merge_oracle
from test_toy_model import finite_difference_grads, random_model
from synthetic_episodes import expand_cell

import revla
from revla.merge import MergeSpec, linear_merge, selected_pairs
from revla.ood_eval import (
    aggregate,
    partial_success_summary,
    relative_improvement,
)
from revla.schedule import Schedule, alpha_at, apply_stage, plan_for_variant, stage_boundaries
from revla.tensor_store import (
    Checkpoint,
    CheckpointFormatError,
    Selector,
    load_checkpoint,
    serialize_checkpoint,
)
from revla.toy_lab.experiment import LabConfig, run_reversal_experiment
from revla.toy_lab.model import D_IN, HEAD_A, HEAD_B, PARAM_SHAPES, grad

from test_tensor_store import build_file_bytes

CI_SEED = 7  # recorded seed; every pilot-derived threshold below assumes it


@contextmanager
def criterion(number: int, budget_s: float, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"PASS criterion {number} ({elapsed:.2f}s): {description}")


_REPORT_CACHE: dict = {}


def variant_reports() -> dict:
    """Full-scale runs of all four variants at the recorded CI seed, cached."""
    if not _REPORT_CACHE:
        plans = [plan_for_variant(variant, 5000, 500)
                 for variant in ("D_flip", "D_gradual", "DS_flip", "DS_gradual")]
        reports, _, _ = run_reversal_experiment(plans, LabConfig(seed=CI_SEED))
        for report in reports:
            _REPORT_CACHE[report.variant_name] = report
    return _REPORT_CACHE


def test_criterion_1_merge_oracle_equivalence():
    with criterion(1, 5.0, "vectorized merge == scalar oracle, endpoints bitwise"):
        rng = np.random.default_rng(100)
        alphas = [round(0.1 * i, 1) for i in range(11)]
        for _ in range(100):
            size = int(rng.integers(1, 1001))
            cur = Checkpoint({"w": rng.standard_normal(size)})
            pre = Checkpoint({"w": rng.standard_normal(size)})
            sel = Selector(["*"])
            for alpha in alphas:
                out = linear_merge(cur, pre, MergeSpec(alpha, sel))["w"]
                if alpha == 0.0:
                    assert out.tobytes() == cur["w"].tobytes()
                elif alpha == 1.0:
                    assert out.tobytes() == pre["w"].tobytes()
                else:
                    expected = scalar_merge_oracle(cur["w"], pre["w"], alpha)
                    assert out.tobytes() == expected.tobytes()


def test_criterion_2_schedule_exactness():
    with criterion(2, 1.0, "100k/10k schedule boundaries; flip == single-stage gradual"):
        sched = Schedule.gradual(100_000, 10_000)
        bounds = stage_boundaries(sched)
        assert len(bounds) == 10
        assert [a for _, a in bounds] == [(i + 1) / 10 for i in range(10)]
        assert bounds[-1] == (90_000, 1.0)

        flip = Schedule.flip(2_000)
        single = Schedule.gradual(2_000, 2_000)
        assert stage_boundaries(flip) == stage_boundaries(single)
        for step in range(0, 2_000, 13):
            assert alpha_at(flip, step) == alpha_at(single, step)
        rng = np.random.default_rng(200)
        cur = Checkpoint({"vision.dino.w": rng.standard_normal(64)})
        pre = Checkpoint({"vision.dino.w": rng.standard_normal(64)})
        flip_plan, grad_plan = plan_for_variant("D_flip", 2_000), plan_for_variant("D_gradual", 2_000, 2_000)
        flip_out = apply_stage(list(selected_pairs(cur, pre, flip_plan.selector)), flip_plan, 0)
        grad_out = apply_stage(list(selected_pairs(cur, pre, grad_plan.selector)), grad_plan, 0)
        assert flip_out["vision.dino.w"].tobytes() == grad_out["vision.dino.w"].tobytes()


def test_criterion_3_terminal_reversal_identity():
    # budget: < 30 s per variant
    with criterion(3, 4 * 30.0, "all four variants revert the encoder bitwise"):
        for variant, report in variant_reports().items():
            assert report.encoder_bitwise_reverted, variant
            assert report.probe_err_after_reversal == report.probe_err_pretrained, variant


def test_criterion_4_forgetting_reproduction():
    with criterion(4, 60.0, "fine-tuning at least doubles the task-A probe error"):
        report = variant_reports()["DS_gradual"]
        ratio = report.probe_err_after_finetune / report.probe_err_pretrained
        assert ratio >= 2.0, f"forgetting ratio {ratio:.2f} below 2.0"


def test_criterion_5_gradient_checks():
    with criterion(5, 10.0, "analytic gradients vs central differences, 20 instances"):
        rng = np.random.default_rng(300)
        for instance in range(20):
            model = random_model(1000 + instance)
            head = HEAD_B if instance % 2 else HEAD_A
            x = rng.standard_normal((4, D_IN))
            y = rng.standard_normal((4, 7 if head == HEAD_B else 1))
            analytic = grad(model, x, y, head)
            numeric = finite_difference_grads(model, x, y, head, eps=1e-5)
            for name in PARAM_SHAPES:
                diff = np.linalg.norm(analytic[name] - numeric[name])
                scale = np.linalg.norm(numeric[name])
                if scale == 0.0:
                    assert diff == 0.0, name
                else:
                    assert diff / scale <= 1e-6, f"{name}: {diff / scale:g}"


def test_criterion_6_table_reproduction():
    with criterion(6, 1.0, "published success-rate cells rebuilt from counts"):
        # in-domain sub-setting row: rates 0.310 / 0.030 / 0.190, average 0.177
        in_domain = []
        for sub, successes in (("horizontal", 31), ("vertical", 3), ("standing", 19)):
            in_domain += expand_cell(
                "OpenVLA", "coke_can", "single", episodes=100,
                lift_successes=successes, sub_setting=sub,
            )
        table = aggregate(in_domain)
        rates = table.sub_setting_rates("OpenVLA", "coke_can", "visual_matching")
        assert abs(rates["average"] - 0.177) <= 5e-4
        assert abs(rates["horizontal"] - 0.310) <= 5e-4

        ood = []
        cells = [(o, s) for s in ("single", "distractor") for o in ("pear", "mustard_bottle", "tomato_can")]
        rt1x_lifts = (8, 0, 4, 6, 0, 2)
        rt1x_eps = (36, 36, 34, 36, 36, 34)
        for (obj, setting), lifts, eps in zip(cells, rt1x_lifts, rt1x_eps):
            ood += expand_cell("RT1-X", obj, setting, episodes=eps, lift_successes=lifts)
        openvla_lifts = (7, 3, 14, 2, 1, 8)
        for (obj, setting), lifts in zip(cells, openvla_lifts):
            ood += expand_cell("OpenVLA", obj, setting, episodes=36, lift_successes=lifts)
        revla_lifts = (14, 4, 19, 11, 4, 8)
        revla_grasps = (24, 12, 30, 22, 12, 25)
        for (obj, setting), lifts, grasps in zip(cells, revla_lifts, revla_grasps):
            ood += expand_cell(
                "ReVLA (Gradual)", obj, setting, episodes=36,
                lift_successes=lifts, grasp_successes=grasps,
            )
        table = aggregate(ood)
        assert abs(table.rate("RT1-X", "pear", "single") - 0.222) <= 5e-4
        assert abs(table.counts("OpenVLA").rate(table.metric) - 0.162) <= 5e-4
        grasp, lift = partial_success_summary(table)["ReVLA (Gradual)"]
        assert abs(grasp - 0.579) <= 5e-4
        assert abs(lift - 0.278) <= 5e-4


def test_criterion_7_improvement_claims():
    with criterion(7, 1.0, "relative improvements 77% (lift) and 66% (grasp)"):
        assert relative_improvement(0.287, 0.162) == 77
        assert relative_improvement(0.579, 0.348) == 66


def test_criterion_8_format_round_trip(tmp_path):
    with criterion(8, 2.0, "byte-stable round-trips; malformed files rejected by name"):
        entries = [
            ("a.w", np.arange(3, dtype=np.float64)),
            ("b.w", np.float32([[1.5, -2.5]])),
        ]
        raw = build_file_bytes(entries)
        hand_built = tmp_path / "hand.safetensors"
        hand_built.write_bytes(raw)
        ckpt = load_checkpoint(hand_built)
        assert serialize_checkpoint(ckpt) == raw

        try:
            from safetensors.numpy import save_file
        except ImportError:
            save_file = None
        if save_file is not None:
            third = tmp_path / "third.safetensors"
            save_file({"x": np.ones(4, dtype=np.float32), "a": np.zeros(2, dtype=np.float32)}, str(third))
            third_raw = third.read_bytes()
            loaded = load_checkpoint(third)
            assert serialize_checkpoint(loaded) == third_raw

        malformed = {
            "malformed header length": b"\x00\x01",
            "out-of-bounds data": build_file_bytes(
                [("w", np.ones(4, dtype=np.float32))]
            )[:-4],
            "not valid JSON": build_file_bytes([], header_override=b"]oops["),
            "unknown dtype": build_file_bytes(
                [("pad", np.zeros(1, dtype=np.float32))],
                header_override=b'{"w":{"dtype":"I8","shape":[4],"data_offsets":[0,4]}}',
            ),
            "duplicate names": build_file_bytes(
                [("pad", np.zeros(2, dtype=np.float32))],
                header_override=b'{"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},'
                b'"w":{"dtype":"F32","shape":[1],"data_offsets":[4,8]}}',
            ),
            "overlaps": build_file_bytes(
                [("pad", np.zeros(2, dtype=np.float32))],
                header_override=b'{"a":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},'
                b'"b":{"dtype":"F32","shape":[1],"data_offsets":[2,6]}}',
            ),
        }
        for invariant, blob in malformed.items():
            path = tmp_path / "bad.safetensors"
            path.write_bytes(blob)
            with pytest.raises(CheckpointFormatError, match=invariant):
                load_checkpoint(path)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, 300.0, "two full lab runs produce bitwise-identical artifacts"):
        # The child runs in a temp cwd, where a relative PYTHONPATH entry
        # (e.g. `src`) no longer resolves; hand it the package's absolute
        # location first, then the parent's entries, dropping empty ones
        # (an empty entry would put the child's cwd on its path).
        package_root = str(Path(revla.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([package_root, *filter(None, inherited)]),
        )
        run_dirs, stdouts = [tmp_path / "run1", tmp_path / "run2"], []
        for run_dir in run_dirs:
            run_dir.mkdir()
            result = subprocess.run(
                [sys.executable, "-m", "revla.cli", "lab", "--variant", "all", "--seed", str(CI_SEED),
                 "--save-checkpoints"],
                cwd=run_dir,
                env=env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            stdouts.append(result.stdout)
        assert stdouts[0] == stdouts[1]
        artifacts = sorted(p.name for p in (run_dirs[0] / "lab_reports").iterdir())
        assert artifacts == sorted(p.name for p in (run_dirs[1] / "lab_reports").iterdir())
        assert len([a for a in artifacts if a.startswith("report_")]) == 4
        assert len([a for a in artifacts if a.endswith(".safetensors")]) == 6
        for name in artifacts:
            first = (run_dirs[0] / "lab_reports" / name).read_bytes()
            second = (run_dirs[1] / "lab_reports" / name).read_bytes()
            assert first == second, name
        report = json.loads(
            (run_dirs[0] / "lab_reports" / "report_DS_gradual.json").read_text()
        )
        assert report["encoder_bitwise_reverted"] is True
