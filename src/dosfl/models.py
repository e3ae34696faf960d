"""Small flat-parameter classifiers trained with mini-batch SGD.

Two architectures: plain multinomial logistic regression and a one-hidden-
layer ReLU perceptron.  Parameters live in a single flat float64 vector so
aggregation rules never see layer structure; pack order is W1, b1, (W2, b2).
``loss_and_grad`` takes a (k, P) stack of such vectors, one per client, with
a batch per row, and applies the single-model op sequence along that leading
axis; each row's gradient is bitwise the single-model one.  It writes the
gradient into a caller's buffer when given one, so a training loop makes no
(k, P) temporary per step.  ``predict_proba`` runs the same forward sequence
on a stack of one.
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
    logits, _ = _forward(spec, flat[None], features[None])
    return _softmax(logits[0])


def loss_and_grad(spec: ModelSpec, flat: np.ndarray, features: np.ndarray,
                  labels: np.ndarray,
                  out: np.ndarray | None = None) -> tuple[np.ndarray | float, np.ndarray]:
    """Mean softmax cross-entropy per model and its flat gradient.

    ``flat`` is (k, P), ``features`` (k, b, q) and ``labels`` (k, b): k models,
    each scored on its own batch of b samples.  Returns the (k,) losses and the
    (k, P) gradients.  A single model may pass (P,), (b, q) and (b,) and gets
    a float and a (P,) gradient back.  Every product is a per-model matmul
    (``X @ W.transpose(0, 2, 1)``, never ``(W @ X^T)^T``), so row i is bitwise
    what the same op sequence gives on model i alone.

    ``out``, a C-contiguous float64 array of the gradient's shape, receives
    each layer's gradient in its slice and is returned as the gradient; the
    values are bitwise those of the allocating call.
    """
    if out is None:
        out = np.empty(flat.shape)
    elif out.shape != flat.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise DimensionError(f"out must be a C-contiguous float64 array of shape {flat.shape}")
    single = flat.ndim == 1
    if single:
        flat, features, labels = flat[None], features[None], labels[None]
    grads = unpack(spec, out.reshape(flat.shape))  # layer views of the gradient rows
    logits, hidden = _forward(spec, flat, features)
    loss, probs = _ce_loss(logits, labels)
    delta = _output_delta(probs, labels)
    if spec.kind == "logistic":
        np.matmul(delta.transpose(0, 2, 1), features, out=grads[0])
        delta.sum(axis=1, out=grads[1])
    else:
        w2 = unpack(spec, flat)[2]
        d_hidden = (delta @ w2) * (hidden > 0.0)  # > 0 exactly where the ReLU's input was
        np.matmul(d_hidden.transpose(0, 2, 1), features, out=grads[0])
        d_hidden.sum(axis=1, out=grads[1])
        np.matmul(delta.transpose(0, 2, 1), hidden, out=grads[2])
        delta.sum(axis=1, out=grads[3])
    if single:
        return float(loss[0]), out
    return loss, out


def _forward(spec: ModelSpec, flat: np.ndarray,
             features: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Logits (k, b, c) of a (k, P) stack on (k, b, q) features, one batch per
    model, plus mlp1's hidden activations (k, b, h), or None for logistic."""
    if spec.kind == "logistic":
        w, b = unpack(spec, flat)
        return features @ w.transpose(0, 2, 1) + b[:, None], None
    w1, b1, w2, b2 = unpack(spec, flat)
    hidden = np.maximum(features @ w1.transpose(0, 2, 1) + b1[:, None], 0.0)
    return hidden @ w2.transpose(0, 2, 1) + b2[:, None], hidden


def _output_delta(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean loss)/d(logits): (probs - onehot) / batch size, in place on ``probs``."""
    k, m = labels.shape
    probs[np.arange(k)[:, None], np.arange(m), labels] -= 1.0
    probs /= m
    return probs


def _ce_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-model mean cross-entropy via log-softmax (no clipping) plus the
    probabilities; ``logits`` is (k, b, c) and ``labels`` (k, b)."""
    k, m = labels.shape
    shifted = logits - logits.max(axis=2, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    log_probs = shifted - log_norm
    loss = -log_probs[np.arange(k)[:, None], np.arange(m), labels].mean(axis=1)
    return loss, np.exp(log_probs)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)
