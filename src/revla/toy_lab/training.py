"""Plain gradient-descent training and ridge linear probing.

No optimizer state exists on purpose: stage merges can then swap backbone
weights mid-run without any moment-matching policy.
"""

from __future__ import annotations

import math

import numpy as np

from ..tensor_store import Selector
from .model import ENCODER_NAMES, ToyModel, _encode, _predict_and_grad
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
# Steps whose minibatches ``train`` draws (and, with the encoder frozen, encodes) at once.
# Two limits keep the block small (measured on a 2-core host with OpenBLAS 0.3.31):
# - BLAS threads: task A's targets GEMV over a block has 16 x 32 rows x 16 inputs = 8,192
#   elements, below the 9,216 at which OpenBLAS hands a GEMV to its threads. Whole-call draws
#   cross it, and the threads take the core the other reversal worker needs: a
#   `lab --variant all` child then used 2.23 s of CPU, against 1.25 s with one BLAS thread;
# - peak RSS: 32- and 64-step blocks raised that child's peak from 37.6 to 38.2 and 39.3 MB
#   (whole-call draws: 168 MB).
BLOCK_STEPS = 16
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

    Minibatches are drawn ``BLOCK_STEPS`` steps at a time, one
    ``sample_inputs`` and one ``targets`` call per block, and when no encoder
    parameter is trained the block's batches are encoded in one stacked
    ``_encode`` call. Every step still sees its own 32 rows and GEMMs of
    their size, so the result, the losses and ``rng``'s position after the
    call are bitwise those of drawing, encoding and stepping one batch at a
    time. The trained parameters of the returned model are views of one
    array, which each step updates in place.
    """
    if not math.isfinite(lr) or lr <= 0:
        raise ValueError(f"lr (the learning rate) must be positive and finite, got {lr!r}")
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 0:
        raise ValueError(f"steps must be a non-negative int, got {steps!r}")
    if rng is None:
        rng = stream_rng(task, STREAM_TRAIN)
    out = model.copy()
    params = out.params
    head = task.head
    frozen = set(filter(freeze.matches, params)) if freeze is not None else set()
    # the other head's gradient is zero, so only these parameters ever move
    trained = frozenset((f"head_{head}.weight", f"head_{head}.bias", *ENCODER_NAMES)) - frozen
    encoder_fixed = trained.isdisjoint(ENCODER_NAMES)
    # the trained parameters become views of one flat array and their gradients views of
    # another, so a step updates them all with one subtraction
    order = sorted(trained)
    flat = np.empty(sum(params[name].size for name in order))
    flat_grads = np.empty_like(flat)
    grads: dict[str, np.ndarray] = {}
    offset = 0
    for name in order:
        shape, size = params[name].shape, params[name].size
        view = flat[offset : offset + size].reshape(shape)
        view[...] = params[name]
        params[name] = view
        grads[name] = flat_grads[offset : offset + size].reshape(shape)
        offset += size
    losses: list[float] = []
    for start in range(0, steps, BLOCK_STEPS):
        count = min(BLOCK_STEPS, steps - start)
        x = sample_inputs(rng, count * BATCH_SIZE)
        y = targets(task, x).reshape(count, BATCH_SIZE, -1)
        x = x.reshape(count, BATCH_SIZE, -1)
        # the encoder cannot move in this call, so each batch's features are known up front
        h1, feats = _encode(params, x) if encoder_fixed else (None, None)
        for i in range(count):
            encoded = (h1[i], feats[i]) if encoder_fixed else None
            loss = _predict_and_grad(out, x[i], y[i], head, trained, encoded=encoded, out=grads)[1]
            if not math.isfinite(loss):
                raise TrainingDiverged(start + i, loss)
            losses.append(loss)
            flat -= lr * flat_grads
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
