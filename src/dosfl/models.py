"""Small flat-parameter classifiers trained with mini-batch SGD.

Two architectures: plain multinomial logistic regression and a one-hidden-
layer ReLU perceptron.  Parameters live in a single flat float64 vector so
aggregation rules never see layer structure; pack order is W1, b1, (W2, b2).
The kind is read only by :class:`ModelSpec`, whose ``layer_shapes`` is the
model's one description: every other function walks the (W, b) pairs that
:func:`unpack` returns, with a ReLU between layers and none after the last.
``loss_and_grad`` takes a (k, P) stack of such vectors, one per client, with
a batch per row, and writes each row's gradient, bitwise the single-model
one, into a caller's (k, P) buffer, so a training loop makes no (k, P)
temporary per step.  ``predict_proba`` runs the same forward loop on a stack
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

MODEL_KINDS = ("logistic", "mlp1")


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
                  labels: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy per model and its flat gradient.

    ``flat`` is (k, P), ``features`` (k, b, q) and ``labels`` (k, b): k models,
    each scored on its own batch of b samples.  ``out``, a C-contiguous
    float64 (k, P) array, receives each layer's gradient in its slice.
    Returns the (k,) losses and ``out``.  Every product is a per-model matmul
    (``X @ W.transpose(0, 2, 1)``, never ``(W @ X^T)^T``), so row i is bitwise
    what the same op sequence gives on model i alone.
    """
    if (flat.ndim != 2 or out.shape != flat.shape or out.dtype != np.float64
            or not out.flags.c_contiguous):
        raise DimensionError(f"flat must be (k, P) and out a C-contiguous float64 array "
                             f"of its shape, got {flat.shape} and {out.shape}")
    layers, grads = unpack(spec, flat), unpack(spec, out)
    inputs = _forward(layers, features)
    loss, delta = _loss_head(inputs.pop(), labels)
    for i in reversed(range(len(inputs))):
        np.matmul(delta.transpose(0, 2, 1), inputs[i], out=grads[2 * i])
        delta.sum(axis=1, out=grads[2 * i + 1])
        if i:  # back through the ReLU: its output is > 0 exactly where its input was
            delta = (delta @ layers[2 * i]) * (inputs[i] > 0.0)
    return loss, out


def _forward(layers: list[np.ndarray], features: np.ndarray) -> list[np.ndarray]:
    """Each layer's input, then the logits (k, b, c), of the layer views of a
    (k, P) stack on (k, b, q) features, one batch per model."""
    outputs = [features]
    for i in range(0, len(layers), 2):
        z = outputs[-1] @ layers[i].transpose(0, 2, 1) + layers[i + 1][:, None]
        outputs.append(z if i + 2 == len(layers) else np.maximum(z, 0.0))
    return outputs


def _loss_head(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-model mean cross-entropy via log-softmax (no clipping), and its
    derivative (probs - onehot) / batch size with respect to the (k, b, c)
    logits; ``labels`` is (k, b)."""
    k, m = labels.shape
    pick = (np.arange(k)[:, None], np.arange(m), labels)
    shifted = logits - logits.max(axis=2, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    delta = np.exp(log_probs)
    delta[pick] -= 1.0
    delta /= m
    return -log_probs[pick].mean(axis=1), delta
