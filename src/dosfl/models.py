"""Small flat-parameter classifiers trained with mini-batch SGD.

Two architectures: plain multinomial logistic regression and a one-hidden-
layer ReLU perceptron.  Parameters live in a single flat float64 vector so
aggregation rules never see layer structure; pack order is W1, b1, (W2, b2).
The kind is read only by :class:`ModelSpec`, whose ``layer_shapes`` is the
model's one description: every other function walks the (W, b) pairs that
:func:`unpack` returns, with a ReLU between layers and none after the last.
``loss_and_grad`` is one SGD step on the mean softmax cross-entropy of a
(k, P) stack of such vectors, one per client, with a batch per row.  It steps
each row in place by bitwise the single-model update, one layer at a time
from a gradient block it sizes itself, so a training loop makes no (k, P)
temporary per step.  It returns nothing: no round reads a loss value, so none
is computed.  ``predict_proba`` runs the same forward loop on a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

MODEL_KINDS = ("logistic", "mlp1")

# Bytes of the weight-gradient block loss_and_grad forms at a time: a layer's
# gradient for as many models as fit in this, at least one.  1 MiB holds one
# model's 100 x 1000 first layer at P = 105004, which stays in L2 beside the
# rows it updates.  On wide_model inputs local_train took 0.64x the time of
# 4 MiB (5 models per block), 0.84-0.87x at 2 and 3 models and 1.06-1.09x at
# all 10 (median ratios of 40 interleaved repeats, two runs, 2 cores).  It
# never splits a layer of the 84-parameter logistic model.
GRAD_BYTES = 1 << 20


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "logistic"
    input_dim: int = 20
    class_count: int = 4
    hidden_dim: int = 32  # mlp1 only

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; valid: {', '.join(MODEL_KINDS)}")
        if self.input_dim < 1 or self.class_count < 2:
            raise ConfigError("need input_dim >= 1 and class_count >= 2")
        if self.kind == "mlp1" and self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")

    @property
    def param_count(self) -> int:
        return sum(math.prod(shape) for shape in self.layer_shapes())

    def layer_shapes(self) -> list[tuple[int, ...]]:
        q, c, h = self.input_dim, self.class_count, self.hidden_dim
        if self.kind == "logistic":
            return [(c, q), (c,)]
        return [(h, q), (h,), (c, h), (c,)]


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Per-layer scaled uniform init: U(-a, a) with a = 1/sqrt(fan_in)."""
    parts = []
    for shape in spec.layer_shapes():
        fan_in = shape[1] if len(shape) == 2 else shape[0]
        a = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-a, a, size=shape).ravel())
    return np.concatenate(parts)


def unpack(spec: ModelSpec, flat: np.ndarray) -> list[np.ndarray]:
    """Layer views of a flat (P,) vector, or of a (..., P) stack with its leading axes kept."""
    if flat.shape[-1:] != (spec.param_count,):
        raise DimensionError(f"expected {spec.param_count} parameters, got shape {flat.shape}")
    lead = flat.shape[:-1]
    out = []
    at = 0
    for shape in spec.layer_shapes():
        size = math.prod(shape)
        out.append(flat[..., at:at + size].reshape(*lead, *shape))
        at += size
    return out


def predict_proba(spec: ModelSpec, flat: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Class probabilities of one (P,) model on (b, q) features, as (b, c)."""
    logits = _forward(unpack(spec, flat[None]), features[None])[-1][0]
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def loss_and_grad(spec: ModelSpec, flat: np.ndarray, features: np.ndarray,
                  labels: np.ndarray, lr: float) -> None:
    """One SGD step of each model in place on its mean softmax cross-entropy.

    ``flat`` is a writeable C-contiguous float64 (k, P) stack, ``features``
    (k, b, q) and ``labels`` (k, b): k models, each on its own batch of b
    samples.  Each row of ``flat`` moves to ``row - lr * grad``; nothing is
    returned, and no loss is computed.  The name is older than that and stays
    because perfbench times the step as ``models.loss_and_grad``.  Layers are
    stepped from the top down, and the delta passed below a layer is formed
    from its weights before they move.  A layer's weight gradient is formed
    for ``max(1, GRAD_BYTES // (8 * size))`` models at a time in one block,
    scaled by ``lr`` and subtracted, so no (k, P) gradient exists and at most
    one block is alive; a bias gradient, no larger than an activation, is
    stepped the same way from one (k, h) array.
    Every product is a per-model matmul (``X @ W.transpose(0, 2, 1)``, never
    ``(W @ X^T)^T``), so row i is bitwise what the same op sequence gives on
    model i alone.
    """
    if (flat.ndim != 2 or flat.dtype != np.float64 or not flat.flags.c_contiguous
            or not flat.flags.writeable):
        raise DimensionError(f"flat must be a writeable C-contiguous float64 (k, P) array, "
                             f"got shape {flat.shape}, dtype {flat.dtype}")
    layers = unpack(spec, flat)
    inputs = _forward(layers, features)
    # the output delta (softmax - onehot) / b, formed in place on the logits
    # that _forward has just allocated: a max-shifted log-softmax, then exp
    delta = inputs.pop()
    k, b = labels.shape
    delta -= delta.max(axis=2, keepdims=True)
    delta -= np.log(np.exp(delta).sum(axis=2, keepdims=True))
    np.exp(delta, out=delta)
    delta[np.arange(k)[:, None], np.arange(b), labels] -= 1.0
    delta /= b
    for i in reversed(range(len(inputs))):
        weights, bias = layers[2 * i], layers[2 * i + 1]
        # back through the ReLU: its output is > 0 exactly where its input was
        below = (delta @ weights) * (inputs[i] > 0.0) if i else None
        size = weights.shape[1] * weights.shape[2]
        block = max(1, GRAD_BYTES // (8 * size))  # models whose weight gradient fits
        # g is the one name of this layer's block (the last part holds the
        # models left), so rebinding it to the bias gradient frees the block
        # before the next layer allocates its own
        g = np.empty((min(block, len(flat)), *weights.shape[1:]))
        for at in range(0, len(flat), block):
            g = g[:len(flat) - at]
            np.matmul(delta[at:at + block].transpose(0, 2, 1), inputs[i][at:at + block], out=g)
            g *= lr  # bitwise lr * g: IEEE products commute
            # a (models, size) view: an in-place ufunc on the strided (k, h, q)
            # view would copy it first
            rows = weights[at:at + block].reshape(-1, size)
            rows -= g.reshape(rows.shape)
        g = delta.sum(axis=1)
        g *= lr
        bias -= g
        delta = below


def _forward(layers: list[np.ndarray], features: np.ndarray) -> list[np.ndarray]:
    """Each layer's input, then the logits (k, b, c), of the layer views of a
    (k, P) stack on (k, b, q) features, one batch per model."""
    outputs = [features]
    for i in range(0, len(layers), 2):
        z = outputs[-1] @ layers[i].transpose(0, 2, 1) + layers[i + 1][:, None]
        outputs.append(z if i + 2 == len(layers) else np.maximum(z, 0.0))
    return outputs

