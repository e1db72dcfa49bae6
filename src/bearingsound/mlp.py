"""Feed-forward classifier trained with softmax cross-entropy and Adam.

The default network is 13 -> 1024 -> 100 -> 2: two hidden layers with ReLU
and a two-way softmax head for the Healthy/Damaged decision. Everything is
plain numpy; training is a deterministic single-threaded loop given the seed.
A model stores the feature z-scoring fitted at training time
(``NormalizationStats``, which ``dataset.fit_normalization`` fits) and applies
it to the raw features it is given; its file is a framed file
(``common.write_framed``).

Parameters live in one flat vector, ``MlpModel.params``: per layer W_i
(row-major), then b_i, the order of the model file; ``weights``/``biases``
are views into it, and gradients and Adam's moments share its layout and its
dtype. Models are float64: the model file, ``predict_batch`` and ``backward``.
Training and prediction share one forward pass, which writes the hidden
activations in place into buffers allocated once per call; ``predict_batch``
scores in 256-row blocks, so its memory does not grow with the batch.
``train`` alone runs in float32: it z-scores its rows in float64, casts them
to float32 once, trains a float32 copy of ``init_model``'s parameters (whose
draws are rounded to float32, so the copy is exact) and returns their exact
float64 widening.

``adam_step`` is Kingma & Ba's section 2 form (arXiv 1412.6980) at their
defaults (b1, b2, eps are ``BETA1``, ``BETA2``, ``ADAM_EPS``), with the
moments kept without their (1 - beta) factors, 10 passes over the parameters
with one division and one sqrt: M = b1 M + g, V = b2 V + g^2, then
p -= a_t M / (sqrt(V) + eps / s) with s = sqrt((1 - b2) / (1 - b2^t)) and
a_t = lr (1 - b1) / ((1 - b1^t) s).

float32 training flushes most subnormals, since arithmetic on them is many
times slower. Saturated softmax posteriors give subnormal output errors,
which ``_gradients`` zeroes below sqrt(tiny): every backprop product of two
values at least that large is normal. The moments of dead ReLU units decay
geometrically, so every 64 steps ``adam_step`` zeroes |M| < tiny / b1^64
and V < tiny / b2^64: a moment above its bound cannot decay below tiny
before the next flush. The flush bounds decay, not arrival: any step's
g * g can add a subnormal to V, which stays until the next flush, at most 63
steps later; one added after the last flush remains when training ends. tiny
is ``np.finfo(dtype).tiny``.

Label convention, fixed project-wide: H is class index 0 and the positive
class, D is index 1 and the negative class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .common import LABELS, read_framed, write_framed
from .errors import ConfigError, DataError, FormatError, NumericError

POSTERIOR_FLOOR = 1e-12

MODEL_MAGIC = b"ABMM"
MODEL_VERSION = 2

DEFAULT_HIDDEN_DIMS = (1024, 100)

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


def _param_count(dims) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))


def _layer_views(flat: np.ndarray, dims) -> tuple[list, list]:
    """(weights, biases) lists of views into a flat vector of params' layout."""
    weights, biases, end = [], [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        start, end = end, end + (fan_in + 1) * fan_out
        weights.append(flat[start : end - fan_out].reshape(fan_in, fan_out))
        biases.append(flat[end - fan_out : end])
    return weights, biases


@dataclass(frozen=True)
class NormalizationStats:
    """Per-coefficient z-scoring parameters, fitted on training data only."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=float))
        if self.mean.shape != self.std.shape:
            raise DataError("normalization mean/std shapes differ")
        if np.any(self.std <= 0):
            raise DataError("normalization std must be strictly positive")


@dataclass
class MlpModel:
    """Layer dimensions, parameters, the z-scoring fitted at training time and
    the feature settings of its training caches (each None when absent)."""

    dims: tuple[int, ...]
    params: np.ndarray
    norm_stats: NormalizationStats | None = None
    mfcc: dict | None = None
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.dims) < 2:
            raise ConfigError("model needs at least an input and an output layer")
        if self.params.shape != (_param_count(self.dims),):
            raise ConfigError(f"{self.params.shape} parameters do not fit dims {self.dims}")
        self.weights, self.biases = _layer_views(self.params, self.dims)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.001
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")


def init_model(dims, seed: int = 0) -> MlpModel:
    """He-style uniform weight init rounded to float32, zero biases, seeded."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))
    model = MlpModel(dims=dims, params=np.zeros(_param_count(dims)))
    for w in model.weights:
        bound = np.sqrt(6.0 / w.shape[0])
        w[:] = rng.uniform(-bound, bound, size=w.shape).astype(np.float32)
    return model


def _hidden_buffers(dims, rows: int, dtype) -> list[np.ndarray]:
    """One (rows, width) activation buffer per hidden layer."""
    return [np.empty((rows, width), dtype=dtype) for width in dims[1:-1]]


def _forward_pass(model: MlpModel, x: np.ndarray, hidden=None):
    """Returns (layer inputs, posteriors) for a batch. Each hidden layer's
    matmul, bias and ReLU are written in place into the first len(x) rows of
    its buffer in hidden (``_hidden_buffers``, allocated here when None)."""
    if hidden is None:
        hidden = _hidden_buffers(model.dims, len(x), np.result_type(x, model.params))
    inputs = [x]
    for w, b, buffer in zip(model.weights, model.biases, hidden):
        z = np.matmul(inputs[-1], w, out=buffer[: len(x)])
        z += b
        np.maximum(z, 0.0, out=z)
        inputs.append(z)
    logits = inputs[-1] @ model.weights[-1] + model.biases[-1]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return inputs, e / e.sum(axis=-1, keepdims=True)


def _model_inputs(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Raw feature rows as the network's z-scored input batch."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.dims[0]:
        raise DataError(
            f"feature dimension {x.shape[1]} does not match model input "
            f"{model.dims[0]}")
    stats = model.norm_stats
    return x if stats is None else (x - stats.mean) / stats.std


_PREDICT_ROWS = 256


def predict_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Posterior matrix (n, num_classes) for a batch of raw feature rows,
    scored in blocks of _PREDICT_ROWS rows through one set of buffers. BLAS
    picks its kernel by row count, so a row's last bits can differ from
    those of one unblocked pass over all n rows."""
    x = _model_inputs(model, x)
    probs = np.empty((len(x), model.dims[-1]))
    hidden = _hidden_buffers(model.dims, min(len(x), _PREDICT_ROWS), x.dtype)
    for start in range(0, len(x), _PREDICT_ROWS):
        block = slice(start, start + _PREDICT_ROWS)
        probs[block] = _forward_pass(model, x[block], hidden)[1]
    return probs


def loss(posteriors: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy over class indices, true-class posterior floored at 1e-12."""
    posteriors = np.atleast_2d(np.asarray(posteriors, dtype=float))
    labels = np.asarray(labels)
    if labels.shape != (len(posteriors),):
        raise DataError("labels must be one class index per posterior row")
    if len(labels) == 0:
        raise DataError("empty batch")
    picked = posteriors[np.arange(len(labels)), labels.astype(int)]
    return float(-np.mean(np.log(np.maximum(picked, POSTERIOR_FLOOR))))


def _gradients(model: MlpModel, inputs, probs: np.ndarray, labels: np.ndarray,
               grad: np.ndarray) -> None:
    """Backpropagate the mean cross-entropy of one forward pass into grad, a
    flat vector in the layout of model.params. Output errors below
    sqrt(tiny) are zeroed, so saturated posteriors feed no subnormal into
    the backprop's products. A hidden layer's ReLU mask is its output > 0,
    which holds exactly where its pre-activation is > 0."""
    batch = len(labels)
    delta = probs.copy()
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch
    delta[np.abs(delta) < math.sqrt(np.finfo(delta.dtype).tiny)] = 0.0
    grad_w, grad_b = _layer_views(grad, model.dims)
    for layer in range(len(grad_w) - 1, -1, -1):
        np.matmul(inputs[layer].T, delta, out=grad_w[layer])
        np.sum(delta, axis=0, out=grad_b[layer])
        if layer > 0:
            delta = delta @ model.weights[layer].T
            delta *= inputs[layer] > 0


def backward(model: MlpModel, x: np.ndarray, labels: np.ndarray):
    """Gradients of the mean cross-entropy for a batch of raw feature rows:
    (weight grads, bias grads) lists mirroring the model layers."""
    x = _model_inputs(model, x)
    if len(x) == 0:
        raise DataError("empty batch")
    grad = np.empty_like(model.params)
    _gradients(model, *_forward_pass(model, x), np.asarray(labels).astype(int), grad)
    return _layer_views(grad, model.dims)


@dataclass
class AdamState:
    """Flat moments without their (1 - beta) factors, step count, scratch."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    t: int = 0

    @classmethod
    def for_model(cls, model: MlpModel) -> "AdamState":
        """Zero moments in the dtype of model.params."""
        params = model.params
        return cls(m=np.zeros_like(params), v=np.zeros_like(params),
                   scratch=np.empty_like(params))


_FLUSH_INTERVAL = 64


def adam_step(model: MlpModel, state: AdamState, grad: np.ndarray,
              config: TrainConfig) -> None:
    """One Adam update of model.params by the flat gradient, in place.

    Every _FLUSH_INTERVAL steps it first zeroes the moments that would fall
    below tiny if they decayed for _FLUSH_INTERVAL steps."""
    state.t += 1
    b1, b2, tmp = BETA1, BETA2, state.scratch
    if state.t % _FLUSH_INTERVAL == 0:
        for moment, beta in ((state.m, b1), (state.v, b2)):
            np.abs(moment, out=tmp)
            tmp *= beta ** _FLUSH_INTERVAL
            moment[tmp < np.finfo(tmp.dtype).tiny] = 0.0
    s = math.sqrt((1.0 - b2) / (1.0 - b2 ** state.t))
    state.m *= b1
    state.m += grad
    state.v *= b2
    np.multiply(grad, grad, out=tmp)
    state.v += tmp
    np.sqrt(state.v, out=tmp)
    tmp += ADAM_EPS / s
    np.divide(state.m, tmp, out=tmp)
    tmp *= config.learning_rate * (1.0 - b1) / ((1.0 - b1 ** state.t) * s)
    model.params -= tmp


def train(x: np.ndarray, labels: np.ndarray, config: TrainConfig,
          hidden_dims=DEFAULT_HIDDEN_DIMS,
          norm_stats: NormalizationStats | None = None) -> tuple[MlpModel, list[float]]:
    """Train a fresh model on raw feature rows; returns it with the per-epoch
    mean loss history.

    norm_stats, when given, z-scores x during training and is stored in the
    model so that prediction applies it too. x is z-scored in float64 and
    then cast to float32; both run once per call, not per batch, so their
    order does not matter for speed. The forward pass, backprop and Adam run
    on a float32 copy of the init_model parameters, whose exact float64
    widening is written back into the returned model. Deterministic for a
    given config seed: weight init and the per-epoch shuffles all come from
    the same seeded stream. Raises NumericError if the loss stops being
    finite.
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
    x = _model_inputs(model, x).astype(np.float32)
    model32 = MlpModel(dims=dims, params=model.params.astype(np.float32))
    state = AdamState.for_model(model32)
    grad = np.empty_like(model32.params)
    hidden = _hidden_buffers(dims, min(len(x), config.batch_size), np.float32)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 97]))
    history: list[float] = []
    n = len(x)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            xb, yb = x[batch_idx], labels[batch_idx]
            inputs, probs = _forward_pass(model32, xb, hidden)
            batch_loss = loss(probs, yb)
            if not np.isfinite(batch_loss):
                raise NumericError(
                    f"training diverged: non-finite loss in epoch {epoch + 1} "
                    f"at sample offset {start}")
            loss_sum += batch_loss * len(yb)
            _gradients(model32, inputs, probs, yb, grad)
            adam_step(model32, state, grad, config)
        history.append(loss_sum / n)
    model.params[:] = model32.params
    return model, history


# --- model file --------------------------------------------------------------


def save_model(model: MlpModel, path) -> None:
    """ABMM v2: a framed file headed by dims, mfcc and normalized; its float64
    payload is params, then the z-scoring mean and std when normalized."""
    stats = model.norm_stats
    arrays = [model.params] + ([] if stats is None else [stats.mean, stats.std])
    write_framed(path, MODEL_MAGIC, MODEL_VERSION, {
        "dims": list(model.dims), "mfcc": model.mfcc, "normalized": stats is not None},
        [np.asarray(a, dtype="<f8") for a in arrays])


def load_model(path) -> MlpModel:
    header, blob, start = read_framed(path, MODEL_MAGIC, MODEL_VERSION,
                                      "model file", "train")
    dims, normalized = header.get("dims"), header.get("normalized")
    if not (isinstance(dims, list) and len(dims) >= 2
            and all(type(d) is int and d > 0 for d in dims)):
        raise FormatError(f"{path}: model needs at least 2 positive integer dims")
    if (type(normalized) is not bool or "mfcc" not in header
            or type(header["mfcc"]) not in (dict, type(None))):
        raise FormatError(f"{path}: model needs a boolean normalized and an object or null mfcc")
    count = _param_count(dims)
    width = dims[0] if normalized else 0
    expected = start + 8 * (count + 2 * width)
    if len(blob) != expected:
        raise FormatError(f"{path}: truncated or padded model file")
    values = np.frombuffer(blob, dtype="<f8", offset=start).astype(float)
    params, mean, std = np.split(values, [count, count + width])
    return MlpModel(dims=tuple(dims), params=params, mfcc=header.get("mfcc"),
                    norm_stats=NormalizationStats(mean, std) if normalized else None)
