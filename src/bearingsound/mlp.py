"""Feed-forward classifier trained with softmax cross-entropy and Adam.

The default network is 13 -> 1024 -> 100 -> 2: two hidden layers with ReLU
and a two-way softmax head for the Healthy/Damaged decision. Everything is
plain numpy; training is a deterministic single-threaded loop given the seed.
A model stores the feature z-scoring fitted at training time and applies it
to the raw features it is given.

Label convention, fixed project-wide: H is class index 0 and the positive
class, D is index 1 and the negative class.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import LABELS, NormalizationStats
from .errors import ConfigError, DataError, FormatError, NumericError

POSTERIOR_FLOOR = 1e-12

# The ABMM header keeps a hidden-activation tag byte; ReLU (0) is the only one.
_RELU_TAG = 0

MODEL_MAGIC = b"ABMM"
MODEL_VERSION = 1

DEFAULT_HIDDEN_DIMS = (1024, 100)


@dataclass
class MlpModel:
    """Layer dimensions, parameters, and the feature normalization fitted at
    training time (None when training ran raw)."""

    dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    norm_stats: NormalizationStats | None = None

    def __post_init__(self):
        if len(self.dims) < 2:
            raise ConfigError("model needs at least an input and an output layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.dims[i], self.dims[i + 1]) or b.shape != (self.dims[i + 1],):
                raise ConfigError(f"layer {i} parameter shapes do not chain")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.001
    batch_size: int = 32
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie in (0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError("adam_eps must be positive")


def init_model(dims, seed: int = 0) -> MlpModel:
    """He-style uniform weight init, zero biases, seeded."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims=dims, weights=weights, biases=biases)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_pass(model: MlpModel, x: np.ndarray):
    """Returns (pre-activations, post-activations, posteriors) for a batch."""
    pre, post = [], [x]
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < last else z
        post.append(a)
    return pre, post, _softmax(pre[-1])


def _model_inputs(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Raw feature rows as the network's z-scored input batch."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.dims[0]:
        raise DataError(
            f"feature dimension {x.shape[1]} does not match model input "
            f"{model.dims[0]}")
    stats = model.norm_stats
    return x if stats is None else (x - stats.mean) / stats.std


def predict_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Posterior matrix (n, num_classes) for a batch of raw feature rows."""
    return _forward_pass(model, _model_inputs(model, x))[2]


def loss(posteriors: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy, with the true-class posterior floored at 1e-12."""
    posteriors = np.atleast_2d(np.asarray(posteriors, dtype=float))
    labels = np.asarray(labels)
    if labels.ndim == 2:
        labels = labels.argmax(axis=1)
    if len(posteriors) != len(labels):
        raise DataError("posteriors and labels have different lengths")
    if len(labels) == 0:
        raise DataError("empty batch")
    picked = posteriors[np.arange(len(labels)), labels.astype(int)]
    return float(-np.mean(np.log(np.maximum(picked, POSTERIOR_FLOOR))))


def _gradients(model: MlpModel, pre, post, probs: np.ndarray, labels: np.ndarray):
    """Backpropagate the mean cross-entropy of one forward pass.

    Returns (weight grads, bias grads) lists mirroring the model layers.
    """
    batch = len(labels)
    delta = probs.copy()
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch
    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grad_w[layer] = post[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (pre[layer - 1] > 0)
    return grad_w, grad_b


def backward(model: MlpModel, x: np.ndarray, labels: np.ndarray):
    """Gradients of the mean cross-entropy for a batch of raw feature rows:
    (weight grads, bias grads) lists mirroring the model layers."""
    x = _model_inputs(model, x)
    if len(x) == 0:
        raise DataError("empty batch")
    return _gradients(model, *_forward_pass(model, x), np.asarray(labels).astype(int))


@dataclass
class AdamState:
    """First/second moment accumulators per parameter plus the step count."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_model(cls, model: MlpModel) -> "AdamState":
        params = model.weights + model.biases
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(model: MlpModel, grad_w, grad_b, state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update, in place."""
    params = model.weights + model.biases
    grads = list(grad_w) + list(grad_b)
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    correction1 = 1.0 - b1 ** state.t
    correction2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= config.learning_rate * (m / correction1) / (
            np.sqrt(v / correction2) + config.adam_eps)


def train(x: np.ndarray, labels: np.ndarray, config: TrainConfig,
          hidden_dims=DEFAULT_HIDDEN_DIMS,
          norm_stats: NormalizationStats | None = None) -> tuple[MlpModel, list[float]]:
    """Train a fresh model on raw feature rows; returns it with the per-epoch
    mean loss history.

    norm_stats, when given, z-scores x during training and is stored in the
    model so that prediction applies it too. Deterministic for a given config
    seed: weight init and the per-epoch shuffles all come from the same
    seeded stream. Raises NumericError if the loss stops being finite.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels).astype(int)
    if x.ndim != 2 or len(x) == 0:
        raise DataError("training set must be a non-empty (n, dim) matrix")
    if len(x) != len(labels):
        raise DataError("features and labels have different lengths")
    dims = (x.shape[1],) + tuple(int(d) for d in hidden_dims) + (len(LABELS),)
    model = init_model(dims, seed=config.seed)
    model.norm_stats = norm_stats
    x = _model_inputs(model, x)
    state = AdamState.for_model(model)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 97]))
    history: list[float] = []
    n = len(x)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            xb, yb = x[batch_idx], labels[batch_idx]
            pre, post, probs = _forward_pass(model, xb)
            batch_loss = loss(probs, yb)
            if not np.isfinite(batch_loss):
                raise NumericError(
                    f"training diverged: non-finite loss in epoch {epoch + 1} "
                    f"at sample offset {start}")
            loss_sum += batch_loss * len(yb)
            grad_w, grad_b = _gradients(model, pre, post, probs, yb)
            adam_step(model, grad_w, grad_b, state, config)
        history.append(loss_sum / n)
    return model, history


# --- model file --------------------------------------------------------------


def save_model(model: MlpModel, path) -> None:
    parts = [MODEL_MAGIC,
             struct.pack("<HBB", MODEL_VERSION, _RELU_TAG, len(model.dims))]
    parts.append(struct.pack(f"<{len(model.dims)}I", *model.dims))
    for w, b in zip(model.weights, model.biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    if model.norm_stats is None:
        parts.append(struct.pack("<B", 0))
    else:
        stats = model.norm_stats
        parts.append(struct.pack("<BH", 1, len(stats.mean)))
        parts.append(np.ascontiguousarray(stats.mean, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(stats.std, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_model(path) -> MlpModel:
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    blob = path.read_bytes()
    if len(blob) < 8 or blob[:4] != MODEL_MAGIC:
        raise FormatError(f"{path}: not a model file (bad magic)")
    version, act_tag, num_dims = struct.unpack("<HBB", blob[4:8])
    if version > MODEL_VERSION:
        raise FormatError(
            f"{path}: model version {version} is newer than supported "
            f"({MODEL_VERSION})")
    if act_tag != _RELU_TAG:
        raise FormatError(f"{path}: unknown activation tag {act_tag}")
    if num_dims < 2:
        raise FormatError(f"{path}: {num_dims} layer dims, need at least 2")
    offset = 8

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > len(blob):
            raise FormatError(f"{path}: truncated model file")
        chunk = blob[offset : offset + count]
        offset += count
        return chunk

    dims = struct.unpack(f"<{num_dims}I", take(4 * num_dims))
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(np.frombuffer(take(8 * fan_in * fan_out), dtype="<f8")
                       .reshape(fan_in, fan_out).copy())
        biases.append(np.frombuffer(take(8 * fan_out), dtype="<f8").copy())
    (has_stats,) = struct.unpack("<B", take(1))
    norm_stats = None
    if has_stats:
        (n,) = struct.unpack("<H", take(2))
        mean = np.frombuffer(take(8 * n), dtype="<f8").copy()
        std = np.frombuffer(take(8 * n), dtype="<f8").copy()
        norm_stats = NormalizationStats(mean=mean, std=std)
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes")
    return MlpModel(dims=dims, weights=weights, biases=biases,
                    norm_stats=norm_stats)
