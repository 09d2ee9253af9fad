"""Desk-scale two-headed encoder network with analytic gradients.

The encoder is two affine layers with tanh activations (16 -> 32 -> 8); its
parameters live under ``vision.dino.`` so checkpoint selectors apply to it
unchanged. Head "a" is a scalar regression readout, head "b" emits seven
values, mirroring a depth head and an action head sharing one backbone.
Everything is f64 numpy; forward and grad are deterministic.
"""

from __future__ import annotations

import numpy as np

from ..tensor_store import Checkpoint, Selector, select

D_IN = 16
D_HIDDEN = 32
D_FEATURE = 8

HEAD_A = "a"
HEAD_B = "b"
HEAD_DIMS = {HEAD_A: 1, HEAD_B: 7}

ENCODER_PATTERNS = ("vision.*",)

PARAM_SHAPES: dict[str, tuple[int, ...]] = {
    "vision.dino.layer1.weight": (D_HIDDEN, D_IN),
    "vision.dino.layer1.bias": (D_HIDDEN,),
    "vision.dino.layer2.weight": (D_FEATURE, D_HIDDEN),
    "vision.dino.layer2.bias": (D_FEATURE,),
    "head_a.weight": (HEAD_DIMS[HEAD_A], D_FEATURE),
    "head_a.bias": (HEAD_DIMS[HEAD_A],),
    "head_b.weight": (HEAD_DIMS[HEAD_B], D_FEATURE),
    "head_b.bias": (HEAD_DIMS[HEAD_B],),
}

ENCODER_NAMES = tuple(n for n in sorted(PARAM_SHAPES) if n.startswith("vision."))


class ToyModel:
    """Parameter bundle with forward passes; training mutates ``params``."""

    def __init__(self, params: dict[str, np.ndarray]) -> None:
        if set(params) != set(PARAM_SHAPES):
            missing = sorted(set(PARAM_SHAPES) - set(params))
            extra = sorted(set(params) - set(PARAM_SHAPES))
            raise ValueError(f"bad parameter set: missing {missing}, extra {extra}")
        self.params: dict[str, np.ndarray] = {}
        for name, shape in PARAM_SHAPES.items():
            arr = np.asarray(params[name], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name}: parameters must be finite")
            self.params[name] = arr.copy()

    @classmethod
    def initialize(cls, seed: int) -> "ToyModel":
        """Random init: weights ~ N(0, 1/fan_in), biases zero."""
        rng = np.random.default_rng([seed, 0])
        params = {}
        for name, shape in PARAM_SHAPES.items():
            if name.endswith(".bias"):
                params[name] = np.zeros(shape)
            else:
                params[name] = rng.standard_normal(shape) / np.sqrt(shape[1])
        return cls(params)

    def copy(self) -> "ToyModel":
        # Not checked again: parameters are checked on the way in, a training step with a finite loss
        # keeps them finite, and a reversal stage's blend of two checked models keeps their shapes and
        # dtype and lies, up to rounding, between finite values.
        twin = ToyModel.__new__(ToyModel)
        twin.params = {name: arr.copy() for name, arr in self.params.items()}
        return twin

    def features(self, x: np.ndarray) -> np.ndarray:
        """Encoder output tanh(W2 tanh(W1 x + b1) + b2) for a (batch, 16) input."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != D_IN:
            raise ValueError(f"input must have {D_IN} columns, got shape {x.shape}")
        return _encode(self.params, x)[1]

    def to_checkpoint(self) -> Checkpoint:
        return Checkpoint(self.params)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "ToyModel":
        return cls({name: ckpt[name] for name in ckpt.names()})


def _encode(p: dict[str, np.ndarray], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and encoder features of an f64 (..., batch, 16) input.

    A stack of batches is encoded batch by batch: numpy's matmul runs one
    GEMM per (batch, 16) matrix, so each batch's rows are bitwise those of
    encoding it alone.
    """
    h1 = np.tanh(x @ p["vision.dino.layer1.weight"].T + p["vision.dino.layer1.bias"])
    return h1, np.tanh(h1 @ p["vision.dino.layer2.weight"].T + p["vision.dino.layer2.bias"])


def _head_params(model: ToyModel, head: str) -> tuple[np.ndarray, np.ndarray]:
    if head not in HEAD_DIMS:
        raise ValueError(f"unknown head {head!r}; expected one of {sorted(HEAD_DIMS)}")
    return model.params[f"head_{head}.weight"], model.params[f"head_{head}.bias"]


def forward(model: ToyModel, x: np.ndarray, head: str) -> np.ndarray:
    """Predictions of the chosen head on encoder features."""
    w, b = _head_params(model, head)
    return model.features(x) @ w.T + b


def grad(
    model: ToyModel,
    x: np.ndarray,
    targets: np.ndarray,
    head: str,
    freeze: Selector | None = None,
) -> dict[str, np.ndarray]:
    """Mean-squared-error gradients for every parameter.

    The loss is the mean of squared residuals over all batch elements and
    output dimensions. Parameters of the unused head get zero gradient, as
    does anything matched by ``freeze``.
    """
    _head_params(model, head)  # an unknown head is reported before a bad batch
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("gradient requires a non-empty batch")
    frozen = select(PARAM_SHAPES, freeze) if freeze is not None else ()
    trained = frozenset(PARAM_SHAPES).difference(frozen)
    _, _, grads = _predict_and_grad(model, x, targets, head, trained)
    return {
        name: grads[name] if name in grads else np.zeros(shape)
        for name, shape in PARAM_SHAPES.items()
    }


def _predict_and_grad(
    model: ToyModel,
    x: np.ndarray,
    targets: np.ndarray,
    head: str,
    trained: frozenset[str],
    encoded: tuple[np.ndarray, np.ndarray] | None = None,
    out: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, float, dict[str, np.ndarray]]:
    """The head's predictions, the MSE loss and the ``trained`` parameters' gradients, in one pass.

    The predictions are bitwise equal to what ``forward`` gives, and the loss
    to ``float(np.mean((preds - targets) ** 2))``. The encoder backward pass
    runs only if an encoder parameter is trained. Inputs are taken as f64
    arrays; ``grad`` checks them first. ``encoded``, if given, is
    ``_encode(model.params, x)`` computed beforehand, which holds as long as
    the encoder has not moved since. A gradient named in ``out`` is written
    into that array.
    """
    out = out or {}
    w, b = _head_params(model, head)
    h1, feats = _encode(model.params, x) if encoded is None else encoded
    # on these 2-D operands ndarray.dot hands BLAS the call that @ does, without matmul's dispatch cost
    preds = feats.dot(w.T) + b
    if preds.shape != targets.shape:
        raise ValueError(f"targets shape {targets.shape} != predictions shape {preds.shape}")

    residual = preds - targets
    # np.mean's own sum and division, without its dispatch overhead
    loss = float(np.add.reduce(residual * residual, axis=None) / residual.size)
    grads: dict[str, np.ndarray] = {}
    dpred = 2.0 * residual / targets.size
    if f"head_{head}.weight" in trained:
        grads[f"head_{head}.weight"] = dpred.T.dot(feats, out.get(f"head_{head}.weight"))
    if f"head_{head}.bias" in trained:
        grads[f"head_{head}.bias"] = dpred.sum(axis=0, out=out.get(f"head_{head}.bias"))
    if trained.isdisjoint(ENCODER_NAMES):
        return preds, loss, grads
    dz2 = dpred.dot(w) * (1.0 - feats * feats)
    dz1 = dz2.dot(model.params["vision.dino.layer2.weight"]) * (1.0 - h1 * h1)
    encoder_grads = {
        "vision.dino.layer2.weight": dz2.T.dot(h1, out.get("vision.dino.layer2.weight")),
        "vision.dino.layer2.bias": dz2.sum(axis=0, out=out.get("vision.dino.layer2.bias")),
        "vision.dino.layer1.weight": dz1.T.dot(x, out.get("vision.dino.layer1.weight")),
        "vision.dino.layer1.bias": dz1.sum(axis=0, out=out.get("vision.dino.layer1.bias")),
    }
    grads.update((name, g) for name, g in encoder_grads.items() if name in trained)
    return preds, loss, grads
