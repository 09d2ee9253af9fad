"""Gradient-descent loop and ridge probing."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import revla.toy_lab.training as training
from revla.tensor_store import Selector, select
from revla.toy_lab.model import (
    ENCODER_NAMES,
    PARAM_SHAPES,
    ToyModel,
    _predict_and_grad,
    forward,
    grad,
)
from revla.toy_lab.tasks import (
    STREAM_EVAL,
    STREAM_TRAIN,
    TASK_A_DEPTH,
    TASK_B_ACTION,
    TaskSpec,
    make_dataset,
    sample_inputs,
    stream_rng,
    targets,
)
from revla.toy_lab.training import (
    BATCH_SIZE,
    TrainingDiverged,
    fit_ridge_readout,
    probe_linear,
    readout_mse,
    train,
)


def params_bytes(model: ToyModel) -> dict[str, bytes]:
    return {name: arr.tobytes() for name, arr in model.params.items()}


def test_zero_steps_leaves_model_unchanged():
    model = ToyModel.initialize(0)
    before = params_bytes(model)
    trained, losses = train(model, TaskSpec(TASK_A_DEPTH, 0), 0, 1e-2)
    assert losses == []
    assert params_bytes(trained) == before


def test_freeze_everything_leaves_model_unchanged():
    model = ToyModel.initialize(1)
    before = params_bytes(model)
    trained, losses = train(model, TaskSpec(TASK_B_ACTION, 1), 40, 1e-2, Selector(["*"]))
    assert len(losses) == 40
    assert params_bytes(trained) == before


def test_frozen_encoder_is_bitwise_unchanged_while_head_trains():
    model = ToyModel.initialize(2)
    before = params_bytes(model)
    trained, _ = train(model, TaskSpec(TASK_B_ACTION, 2), 60, 1e-2, Selector(["vision.*"]))
    after = params_bytes(trained)
    for name in before:
        if name.startswith("vision."):
            assert after[name] == before[name]
    assert after["head_b.weight"] != before["head_b.weight"]


def test_training_does_not_mutate_input_model():
    model = ToyModel.initialize(3)
    before = params_bytes(model)
    trained, _ = train(model, TaskSpec(TASK_A_DEPTH, 3), 25, 1e-2)
    assert params_bytes(model) == before
    # the returned arrays share no memory with the input's, trained or not (head b is not)
    for arr in trained.params.values():
        arr[...] = 7.0
    assert params_bytes(model) == before


def test_pretraining_beats_constant_predictor():
    # threshold recorded from a pilot run of this exact configuration
    task = TaskSpec(TASK_A_DEPTH, 7)
    model, losses = train(ToyModel.initialize(7), task, 5000, 1e-2)
    x, y = make_dataset(task, STREAM_EVAL, 2048)
    baseline = float(np.var(y))
    tail = float(np.mean(losses[-100:]))
    assert tail < baseline
    assert tail < 0.05


def test_training_is_deterministic():
    task = TaskSpec(TASK_B_ACTION, 4)
    m1, l1 = train(ToyModel.initialize(4), task, 120, 1e-2)
    m2, l2 = train(ToyModel.initialize(4), task, 120, 1e-2)
    assert l1 == l2
    assert params_bytes(m1) == params_bytes(m2)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("freeze", [None, ["vision.*"], ["vision.dino.layer1.*", "head_*.bias"]])
@pytest.mark.parametrize("task_id", [TASK_A_DEPTH, TASK_B_ACTION])
def test_fused_step_matches_grad_and_forward_bitwise(task_id, freeze, seed):
    # reference: the training loop written with the public forward and grad,
    # two passes per step, applying every non-frozen gradient
    task = TaskSpec(task_id, seed)
    selector = Selector(freeze) if freeze is not None else None
    frozen = set(select(PARAM_SHAPES, selector)) if selector is not None else set()
    used = {f"head_{task.head}.weight", f"head_{task.head}.bias", *ENCODER_NAMES}
    rng = stream_rng(task, STREAM_TRAIN)
    model = ToyModel.initialize(seed)
    ref, ref_losses = model.copy(), []
    for _ in range(500):
        x = sample_inputs(rng, BATCH_SIZE)
        y = targets(task, x)
        grads = grad(ref, x, y, task.head, selector)
        preds = forward(ref, x, task.head)
        fused_preds, fused_loss, fused_grads = _predict_and_grad(
            ref, x, y, task.head, frozenset(used - frozen))
        assert fused_preds.tobytes() == preds.tobytes()
        assert fused_loss.hex() == float(np.mean((preds - y) ** 2)).hex()
        assert set(fused_grads) == used - frozen
        for name, g in grads.items():
            if name in fused_grads:
                assert fused_grads[name].tobytes() == g.tobytes(), name
            else:
                assert not np.any(g), name
        ref_losses.append(float(np.mean((preds - y) ** 2)))
        for name, g in grads.items():
            if name not in frozen:
                ref.params[name] = ref.params[name] - 1e-2 * g

    trained, losses = train(model, task, 500, 1e-2, selector)
    assert losses == ref_losses
    assert params_bytes(trained) == params_bytes(ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_reported():
    with pytest.raises(TrainingDiverged, match="diverged"):
        train(ToyModel.initialize(5), TaskSpec(TASK_A_DEPTH, 5), 3000, 1e6)


@pytest.mark.parametrize("loss", [float("nan"), float("inf")])
def test_training_diverged_survives_pickling(loss):
    copy = pickle.loads(pickle.dumps(TrainingDiverged(3, loss)))
    assert type(copy) is TrainingDiverged
    assert str(copy) == f"training diverged at step 3: loss={loss}"
    assert copy.step == 3
    assert copy.loss.hex() == loss.hex()


def test_invalid_hyperparameters_rejected():
    model = ToyModel.initialize(6)
    with pytest.raises(ValueError, match="learning rate"):
        train(model, TaskSpec(TASK_A_DEPTH, 6), 10, 0.0)
    with pytest.raises(ValueError, match="steps"):
        train(model, TaskSpec(TASK_A_DEPTH, 6), -1, 1e-2)


def test_task_b_mask_zeroes_half_the_inputs():
    # a coordinate is masked when moving it alone leaves every target bitwise unchanged
    spec = TaskSpec(TASK_B_ACTION, 11)
    x = np.random.default_rng(12).standard_normal((9, 16))
    base = targets(spec, x)
    shifts = 100.0 * np.eye(16)
    masked = [i for i in range(16) if np.array_equal(targets(spec, x + shifts[i]), base)]
    assert len(masked) == 8
    # masked coordinates genuinely do not influence targets, all moved at once either
    np.testing.assert_array_equal(targets(spec, x + shifts[masked].sum(axis=0)), base)


# --- ridge probe ---------------------------------------------------------------


def stacked_lstsq_oracle(features: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Ridge solution via least squares on the sqrt(lambda)-augmented system."""
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    ncols = design.shape[1]
    augmented = np.vstack([design, np.sqrt(lam) * np.eye(ncols)])
    padded = np.vstack([y, np.zeros((ncols, y.shape[1]))])
    coeffs, *_ = np.linalg.lstsq(augmented, padded, rcond=None)
    return coeffs


def test_ridge_matches_stacked_lstsq_oracle():
    rng = np.random.default_rng(20)
    features = rng.standard_normal((20, 8))
    y = rng.standard_normal((20, 1))
    lam = 1e-6
    got = fit_ridge_readout(features, y, lam)
    want = stacked_lstsq_oracle(features, y, lam)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_ridge_identity_features_reach_zero_error():
    rng = np.random.default_rng(21)
    y = rng.standard_normal((64, 3))
    coeffs = fit_ridge_readout(y, y, 1e-12)
    assert readout_mse(coeffs, y, y) <= 1e-10


def test_ridge_constant_features_collapse_to_mean_predictor():
    rng = np.random.default_rng(22)
    y = rng.standard_normal((512, 1))
    features = np.zeros((512, 4))
    coeffs = fit_ridge_readout(features, y, 1e-6)
    # fit and evaluation on the same set: the best constant is the mean,
    # whose MSE is the population variance
    assert readout_mse(coeffs, features, y) == pytest.approx(float(np.var(y)), abs=1e-9)


def test_ridge_rejects_nonpositive_lambda():
    with pytest.raises(ValueError, match="lambda"):
        fit_ridge_readout(np.zeros((4, 2)), np.zeros((4, 1)), 0.0)


def test_probe_is_deterministic():
    model, _ = train(ToyModel.initialize(8), TaskSpec(TASK_A_DEPTH, 8), 400, 1e-2)
    task = TaskSpec(TASK_A_DEPTH, 8)
    assert probe_linear(model, task) == probe_linear(model, task)


def test_probe_insensitive_to_lambda_in_safe_range(monkeypatch):
    model, _ = train(ToyModel.initialize(9), TaskSpec(TASK_A_DEPTH, 9), 800, 1e-2)
    task = TaskSpec(TASK_A_DEPTH, 9)
    values = []
    for lam in (1e-8, 1e-6, 1e-4):
        monkeypatch.setattr(training, "RIDGE_LAMBDA", lam)
        values.append(probe_linear(model, task))
    spread = max(values) - min(values)
    assert spread / min(values) < 1e-5
