"""The three-phase forgetting-and-reversal experiment."""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

import pytest

import revla.toy_lab.experiment as experiment
from revla import tensor_store
from revla.merge import MergeSpec, linear_merge
from revla.schedule import plan_for_variant
from revla.tensor_store import load_checkpoint, same_bits, select
from revla.toy_lab.experiment import LabConfig, run_reversal_experiment
from revla.toy_lab.model import ToyModel

# deliberately small so each case runs in well under a second; the
# full-scale configuration is exercised by the acceptance suite
FAST = LabConfig(seed=3, pretrain_steps=600, finetune_steps=600)
VARIANT_PLANS = {
    "D_flip": ("D_flip", 300, None),
    "DS_flip": ("DS_flip", 300, None),
    "D_gradual": ("D_gradual", 300, 100),
    "DS_gradual": ("DS_gradual", 300, 100),
}


def _encoded(report) -> str:
    """The report's JSON as ``revla lab`` writes it; unlike the dicts, equal where a float is NaN."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2)


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores, so a call with two plans forks one worker on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _run_recording_stages(plan, checkpoint_dir):
    """A one-plan run, which stays in process, and the model each reversal stage trains from."""
    states, real_train = [], experiment.train

    def train(*args, **kwargs):
        if kwargs.get("freeze", args[4] if len(args) > 4 else None) is not None:
            states.append(args[0].to_checkpoint())
        return real_train(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "train", train)
        (report,), _ = run_reversal_experiment([plan], FAST, checkpoint_dir=checkpoint_dir)
    return report, [(step, alpha, state)
                    for (step, alpha), state in zip(report.stage_alphas, states, strict=True)]


@pytest.fixture(scope="module")
def gradual_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpts")
    plan = plan_for_variant("DS_gradual", 300, 100)
    report, stages = _run_recording_stages(plan, out)
    return plan, report, stages, out


def test_flip_restores_encoder_from_step_zero(tmp_path):
    plan = plan_for_variant("DS_flip", 300)
    report, stages = _run_recording_stages(plan, tmp_path)
    assert report.encoder_bitwise_reverted
    assert [stage[:2] for stage in stages] == [(0, 1.0)]
    pretrained = load_checkpoint(tmp_path / "pretrained.safetensors")
    encoder = select(pretrained, plan.selector)
    assert encoder
    assert all(same_bits(stages[0][2][name], pretrained[name]) for name in encoder)
    assert report.probe_err_after_reversal == report.probe_err_pretrained


def test_gradual_terminal_identity(gradual_run):
    _, report, _, _ = gradual_run
    assert report.encoder_bitwise_reverted
    assert report.probe_err_after_reversal == report.probe_err_pretrained


def test_forgetting_shows_in_probe_ordering(gradual_run):
    _, report, _, _ = gradual_run
    assert report.probe_err_after_finetune > report.probe_err_pretrained
    assert report.probe_err_pretrained > 0


def test_stage_states_equal_direct_interpolation(gradual_run, tmp_path):
    # the experiment's staged encoder must match evaluating the blend
    # formula directly on the (fine-tuned, pretrained) pair at each alpha,
    # for three 100-step stages and for twelve 1-step stages
    plan, _, stages, out = gradual_run
    assert [(s, a) for s, a, _ in stages] == [(0, 1 / 3), (100, 2 / 3), (200, 1.0)]
    short_plan = plan_for_variant("D_gradual", 12, 1)
    _, short_stages = _run_recording_stages(short_plan, tmp_path)
    assert [(s, a) for s, a, _ in short_stages] == [(i, (i + 1) / 12) for i in range(12)]
    for plan, stages, out in ((plan, stages, out), (short_plan, short_stages, tmp_path)):
        pretrained = load_checkpoint(out / "pretrained.safetensors")
        finetuned = load_checkpoint(out / "finetuned.safetensors")
        for _, alpha, staged in stages:
            direct = linear_merge(finetuned, pretrained, MergeSpec(alpha, plan.selector))
            encoder = select(direct, plan.selector)
            assert encoder
            for name in encoder:
                assert staged[name].tobytes() == direct[name].tobytes()
        # phase 3 starts from the fine-tuned snapshot: before any reversal
        # training, the tensors outside the plan are the fine-tuned ones
        first_stage = stages[0][2]
        for name in set(first_stage.names()) - set(select(first_stage, plan.selector)):
            assert first_stage[name].tobytes() == finetuned[name].tobytes()


def test_final_checkpoint_encoder_equals_pretrained(gradual_run):
    _, _, _, out = gradual_run
    pretrained = load_checkpoint(out / "pretrained.safetensors")
    final = load_checkpoint(out / "DS_gradual_final.safetensors")
    encoder = [n for n in final.names() if n.startswith("vision.")]
    assert encoder
    for name in encoder:
        assert final[name].tobytes() == pretrained[name].tobytes()
    assert final["head_b.weight"].tobytes() != pretrained["head_b.weight"].tobytes()


@pytest.mark.parametrize("variant", sorted(VARIANT_PLANS))
def test_all_variants_revert_bitwise(variant):
    name, total, stage = VARIANT_PLANS[variant]
    (report,), _ = run_reversal_experiment([plan_for_variant(name, total, stage)], FAST)
    assert report.encoder_bitwise_reverted
    assert report.probe_err_after_reversal == report.probe_err_pretrained


def test_report_fields_and_loss_curve_lengths(gradual_run):
    plan, report, _, _ = gradual_run
    assert report.variant_name == "DS_gradual"
    assert report.seed == FAST.seed
    for value in (
        report.probe_err_pretrained,
        report.probe_err_after_finetune,
        report.probe_err_after_reversal,
        report.taskB_final_err,
    ):
        assert value >= 0
    assert list(report.loss_curves) == ["reversal"]
    assert len(report.loss_curves["reversal"]) == 300
    assert report.stage_alphas == [(0, 1 / 3), (100, 2 / 3), (200, 1.0)]
    # the shared phases' curves come back once per call, beside the reports
    _, shared_curves = run_reversal_experiment([plan], FAST)
    assert {name: len(curve) for name, curve in shared_curves.items()} == {
        "pretrain": FAST.pretrain_steps, "finetune": FAST.finetune_steps}


def test_plans_sharing_one_call_match_separate_calls(tmp_path):
    # the shared phases run once, yet every plan's report and checkpoints
    # must equal those of a call with that plan alone
    plans = [plan_for_variant(*VARIANT_PLANS[v]) for v in sorted(VARIANT_PLANS)]
    together, shared_curves = run_reversal_experiment(plans, FAST, checkpoint_dir=tmp_path / "together")
    assert [r.variant_name for r in together] == [p.variant_name for p in plans]
    for plan, report in zip(plans, together):
        (alone,), alone_curves = run_reversal_experiment(
            [plan], FAST, checkpoint_dir=tmp_path / plan.variant_name)
        assert _encoded(report) == _encoded(alone)
        assert alone_curves == shared_curves
        for name in ("pretrained", "finetuned", f"{plan.variant_name}_final"):
            assert (tmp_path / "together" / f"{name}.safetensors").read_bytes() == (
                tmp_path / plan.variant_name / f"{name}.safetensors").read_bytes()
    assert len(list((tmp_path / "together").iterdir())) == 2 + len(plans)


def test_reports_of_one_call_share_no_loss_list():
    plans = [plan_for_variant("D_flip", 300), plan_for_variant("DS_gradual", 300, 100)]
    (first, second), shared_curves = run_reversal_experiment(plans, FAST)
    before = _encoded(second)
    for curve in (*first.loss_curves.values(), *shared_curves.values()):
        curve.append(-1.0)
    assert _encoded(second) == before


def test_experiment_is_bitwise_deterministic():
    plan = plan_for_variant("D_flip", 300)
    (first,), first_curves = run_reversal_experiment([plan], FAST)
    (second,), second_curves = run_reversal_experiment([plan], FAST)
    assert _encoded(first) == _encoded(second)
    assert first_curves == second_curves


def test_report_json_shape(gradual_run):
    _, report, _, _ = gradual_run
    payload = report.to_dict()
    assert payload["encoder_bitwise_reverted"] is True
    assert payload["forgetting_ratio"] == pytest.approx(report.forgetting_ratio)
    assert payload["config"] == {
        "seed": 3,
        "pretrain_steps": 600,
        "finetune_steps": 600,
        "learning_rate": 0.01,
        "batch_size": 32,
        "ridge_lambda": 1e-6,
        "probe_train_count": 512,
        "probe_heldout_count": 512,
        "eval_count": 512,
    }


def test_forked_and_sequential_runs_give_the_same_reports(monkeypatch, two_cores):
    plans = [plan_for_variant(*VARIANT_PLANS[v]) for v in sorted(VARIANT_PLANS)]
    forked, forked_curves = run_reversal_experiment(plans, FAST)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    sequential, sequential_curves = run_reversal_experiment(plans, FAST)
    assert [_encoded(r) for r in forked] == [_encoded(r) for r in sequential]
    assert forked_curves == sequential_curves


def _plan_fact_calls(stage_length: int) -> Counter:
    """Calls to ``select``, ``validate_compat`` and ``ToyModel.__init__`` in a one-plan run of 1,000 reversal steps."""
    calls: Counter = Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in ("select", "validate_compat"):
            func = getattr(tensor_store, name)
            for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "revla" and m]:
                if vars(module).get(name) is func:  # every module that imported it
                    patch.setattr(module, name, counted(name, func))
        patch.setattr(ToyModel, "__init__", counted("ToyModel.__init__", ToyModel.__init__))
        plan = plan_for_variant("D_gradual", 1000, stage_length)
        run_reversal_experiment([plan], LabConfig(seed=7, pretrain_steps=10, finetune_steps=10))
    return calls


def test_a_plan_selects_checks_and_builds_its_model_once_whatever_its_stage_count():
    ten_stages = _plan_fact_calls(100)
    assert set(ten_stages) == {"select", "validate_compat", "ToyModel.__init__"}
    assert _plan_fact_calls(1) == ten_stages
