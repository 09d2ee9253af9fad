"""Plain gradient-descent training and ridge linear probing.

No optimizer state exists on purpose: stage merges can then swap backbone
weights mid-run without any moment-matching policy.
"""

from __future__ import annotations

import numpy as np

from ..tensor_store import Selector, select
from .model import ENCODER_NAMES, ToyModel, _predict_and_grad
from .tasks import (
    STREAM_PROBE_HELDOUT,
    STREAM_PROBE_TRAIN,
    STREAM_TRAIN,
    TaskSpec,
    sample_inputs,
    stream_rng,
    targets,
)

BATCH_SIZE = 32
RIDGE_LAMBDA = 1e-6  # the linear probe's ridge penalty
PROBE_COUNT = 512  # samples in each of the probe's train and held-out sets


class TrainingDiverged(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, step: int, loss: float) -> None:
        super().__init__(f"training diverged at step {step}: loss={loss}")
        self.step = step
        self.loss = loss

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so it crosses a pickle (a lab worker's pipe)
        return type(self), (self.step, self.loss)


def train(
    model: ToyModel,
    task: TaskSpec,
    steps: int,
    lr: float,
    freeze: Selector | None = None,
    *,
    rng: np.random.Generator | None = None,
) -> tuple[ToyModel, list[float]]:
    """Gradient descent on seeded minibatches of ``BATCH_SIZE``; returns a new model.

    Deterministic given (task seed, steps, lr); pass ``rng`` to continue an
    existing minibatch stream across calls. Frozen parameters are left
    bitwise untouched. Raises ``TrainingDiverged`` if the loss leaves the
    finite range instead of silently returning garbage.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if rng is None:
        rng = stream_rng(task, STREAM_TRAIN)
    out = model.copy()
    head = task.head
    frozen = set(select(out.params, freeze)) if freeze is not None else set()
    # the other head's gradient is zero, so only these parameters ever move
    trained = frozenset((f"head_{head}.weight", f"head_{head}.bias", *ENCODER_NAMES)) - frozen
    losses: list[float] = []
    for step in range(steps):
        x = sample_inputs(rng, BATCH_SIZE)
        y = targets(task, x)
        _, loss, grads = _predict_and_grad(out, x, y, head, trained)
        if not np.isfinite(loss):
            raise TrainingDiverged(step, loss)
        losses.append(loss)
        for name, g in grads.items():
            out.params[name] = out.params[name] - lr * g
    return out, losses


def fit_ridge_readout(
    features: np.ndarray, targets_: np.ndarray, ridge_lambda: float
) -> np.ndarray:
    """Solve the regularized normal equations for a linear readout.

    The feature matrix is augmented with an intercept column and all
    coefficients, intercept included, are shrunk by ``ridge_lambda``.
    Returns the (features + 1, outputs) coefficient matrix.
    """
    if ridge_lambda <= 0:
        raise ValueError(f"ridge lambda must be positive, got {ridge_lambda}")
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    gram = design.T @ design + ridge_lambda * np.eye(design.shape[1])
    return np.linalg.solve(gram, design.T @ targets_)


def readout_mse(coeffs: np.ndarray, features: np.ndarray, targets_: np.ndarray) -> float:
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    return float(np.mean((design @ coeffs - targets_) ** 2))


def probe_linear(model: ToyModel, task: TaskSpec) -> float:
    """Held-out MSE of a ridge readout fit on frozen encoder features.

    Probe train and held-out sets of ``PROBE_COUNT`` samples each come from
    the task's dedicated streams, so the result is a deterministic function
    of (encoder weights, task spec).
    """
    x_train = sample_inputs(stream_rng(task, STREAM_PROBE_TRAIN), PROBE_COUNT)
    x_heldout = sample_inputs(stream_rng(task, STREAM_PROBE_HELDOUT), PROBE_COUNT)
    coeffs = fit_ridge_readout(model.features(x_train), targets(task, x_train), RIDGE_LAMBDA)
    return readout_mse(coeffs, model.features(x_heldout), targets(task, x_heldout))
