"""Forward pass and analytic gradients against independent oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from revla.tensor_store import Selector
from revla.toy_lab.model import (
    D_FEATURE,
    D_HIDDEN,
    D_IN,
    HEAD_A,
    HEAD_B,
    PARAM_SHAPES,
    ToyModel,
    forward,
    grad,
)
from revla.toy_lab.tasks import TASK_B_ACTION, TaskSpec, targets


def zero_model() -> ToyModel:
    return ToyModel({name: np.zeros(shape) for name, shape in PARAM_SHAPES.items()})


def random_model(seed: int) -> ToyModel:
    rng = np.random.default_rng(seed)
    return ToyModel({name: rng.standard_normal(shape) for name, shape in PARAM_SHAPES.items()})


def scalar_forward_oracle(model: ToyModel, x: np.ndarray, head: str) -> np.ndarray:
    """Per-sample, per-unit re-implementation with math.tanh."""
    p = model.params
    w1, b1 = p["vision.dino.layer1.weight"], p["vision.dino.layer1.bias"]
    w2, b2 = p["vision.dino.layer2.weight"], p["vision.dino.layer2.bias"]
    wh, bh = p[f"head_{head}.weight"], p[f"head_{head}.bias"]
    out = np.zeros((x.shape[0], wh.shape[0]))
    for s in range(x.shape[0]):
        h1 = [math.tanh(sum(w1[i, j] * x[s, j] for j in range(D_IN)) + b1[i]) for i in range(D_HIDDEN)]
        f = [math.tanh(sum(w2[i, j] * h1[j] for j in range(D_HIDDEN)) + b2[i]) for i in range(D_FEATURE)]
        for o in range(wh.shape[0]):
            out[s, o] = sum(wh[o, j] * f[j] for j in range(D_FEATURE)) + bh[o]
    return out


def mse_loss(model: ToyModel, x: np.ndarray, y: np.ndarray, head: str) -> float:
    return float(np.mean((forward(model, x, head) - y) ** 2))


def finite_difference_grads(model, x, y, head, eps=1e-5) -> dict[str, np.ndarray]:
    """Central differences of the MSE loss with respect to every parameter."""
    out = {}
    for name, value in model.params.items():
        g = np.zeros_like(value)
        flat_value, flat_g = value.ravel(), g.ravel()
        for i in range(flat_value.size):
            orig = flat_value[i]
            flat_value[i] = orig + eps
            plus = mse_loss(model, x, y, head)
            flat_value[i] = orig - eps
            minus = mse_loss(model, x, y, head)
            flat_value[i] = orig
            flat_g[i] = (plus - minus) / (2 * eps)
        out[name] = g
    return out


def test_zero_model_predicts_zero():
    x = np.random.default_rng(0).standard_normal((4, D_IN))
    np.testing.assert_array_equal(forward(zero_model(), x, HEAD_A), np.zeros((4, 1)))
    np.testing.assert_array_equal(forward(zero_model(), x, HEAD_B), np.zeros((4, 7)))


def test_single_unit_path_hand_computed():
    model = zero_model()
    model.params["vision.dino.layer1.weight"][0, 0] = 1.0
    model.params["vision.dino.layer2.weight"][0, 0] = 1.0
    model.params["head_a.weight"][0, 0] = 2.0
    model.params["head_a.bias"][0] = 0.5
    x = np.zeros((1, D_IN))
    x[0, 0] = 0.3
    expected = 2.0 * math.tanh(math.tanh(0.3)) + 0.5
    assert forward(model, x, HEAD_A)[0, 0] == pytest.approx(expected, abs=1e-15)


def test_forward_matches_scalar_oracle():
    model = random_model(42)
    x = np.random.default_rng(43).standard_normal((6, D_IN))
    for head in (HEAD_A, HEAD_B):
        got = forward(model, x, head)
        want = scalar_forward_oracle(model, x, head)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_forward_rejects_wrong_width():
    with pytest.raises(ValueError, match="columns"):
        forward(zero_model(), np.zeros((2, D_IN + 1)), HEAD_A)


def test_forward_rejects_unknown_head():
    with pytest.raises(ValueError, match="unknown head"):
        forward(zero_model(), np.zeros((2, D_IN)), "c")


def test_zero_residual_gives_zero_gradients():
    model = random_model(1)
    x = np.random.default_rng(2).standard_normal((8, D_IN))
    y = forward(model, x, HEAD_B)
    grads = grad(model, x, y, HEAD_B)
    for name, g in grads.items():
        np.testing.assert_array_equal(g, np.zeros(PARAM_SHAPES[name]))


@pytest.mark.parametrize("head,seed", [(HEAD_A, 10), (HEAD_B, 11), (HEAD_A, 12), (HEAD_B, 13)])
def test_gradients_match_finite_differences(head, seed):
    model = random_model(seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.standard_normal((5, D_IN))
    y = rng.standard_normal((5, 1 if head == HEAD_A else 7))
    analytic = grad(model, x, y, head)
    numeric = finite_difference_grads(model, x, y, head)
    for name in PARAM_SHAPES:
        diff = np.linalg.norm(analytic[name] - numeric[name])
        scale = max(np.linalg.norm(numeric[name]), 1e-12)
        if numeric[name].any() or analytic[name].any():
            assert diff / scale <= 1e-6, f"{name}: rel err {diff / scale:g}"
        else:
            np.testing.assert_array_equal(analytic[name], numeric[name])


def test_unused_head_gets_zero_gradient():
    model = random_model(3)
    x = np.random.default_rng(4).standard_normal((5, D_IN))
    y = np.random.default_rng(5).standard_normal((5, 1))
    grads = grad(model, x, y, HEAD_A)
    np.testing.assert_array_equal(grads["head_b.weight"], 0.0)
    np.testing.assert_array_equal(grads["head_b.bias"], 0.0)


def test_frozen_encoder_gets_exactly_zero_gradient():
    model = random_model(6)
    spec = TaskSpec(TASK_B_ACTION, 6)
    x = np.random.default_rng(7).standard_normal((5, D_IN))
    grads = grad(model, x, targets(spec, x), HEAD_B, freeze=Selector(["vision.*"]))
    for name in PARAM_SHAPES:
        if name.startswith("vision."):
            np.testing.assert_array_equal(grads[name], np.zeros(PARAM_SHAPES[name]))
        elif name.startswith("head_b."):
            assert np.any(grads[name] != 0.0)


def test_grad_rejects_empty_batch():
    with pytest.raises(ValueError, match="non-empty"):
        grad(zero_model(), np.zeros((0, D_IN)), np.zeros((0, 1)), HEAD_A)


def test_non_finite_parameters_rejected():
    params = {name: np.zeros(shape) for name, shape in PARAM_SHAPES.items()}
    params["head_a.weight"][0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        ToyModel(params)


def test_model_checkpoint_round_trip():
    model = random_model(8)
    restored = ToyModel.from_checkpoint(model.to_checkpoint())
    for name in PARAM_SHAPES:
        np.testing.assert_array_equal(restored.params[name], model.params[name])


def test_initialize_is_deterministic():
    a, b = ToyModel.initialize(9), ToyModel.initialize(9)
    for name in PARAM_SHAPES:
        assert a.params[name].tobytes() == b.params[name].tobytes()
    c = ToyModel.initialize(10)
    assert any(a.params[n].tobytes() != c.params[n].tobytes() for n in PARAM_SHAPES)
