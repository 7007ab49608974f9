"""Softmax classifiers trained by minibatch SGD with an optional confidence
penalty.

The penalty is the negative Shannon entropy of the predicted distribution,
sum_c p_c log p_c, weighted by zeta. It is zero for one-hot output and most
negative for uniform output, so positive zeta pushes training away from
overconfident predictions. The early-stop threshold watches the
cross-entropy term alone; the penalized total can reach zero at a uniform
predictor and would otherwise stop training immediately.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from ._rng import stream
from .types import LabeledDataset, PROB_FLOOR, ProbabilityMatrix

ARCHITECTURES = ("linear", "mlp")

SAVE_FORMAT = "labelshift-predictor"
SAVE_VERSION = 1


@dataclass(frozen=True)
class PredictorConfig:
    """Architecture plus SGD hyperparameters.

    hidden_units is ignored for the linear architecture. zeta scales the
    confidence penalty; zeta = 0 recovers plain cross-entropy training.
    """

    architecture: str = "linear"
    hidden_units: int = 32
    learning_rate: float = 0.1
    batch_size: int = 64
    max_epochs: int = 100
    loss_threshold: float = 0.05
    zeta: float = 1.0
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.architecture == "mlp" and self.hidden_units < 1:
            raise ValueError("mlp needs at least one hidden unit")
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be nonnegative")
        if self.loss_threshold < 0:
            raise ValueError("loss_threshold must be nonnegative")
        if self.zeta < 0:
            raise ValueError("zeta must be nonnegative")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")


@dataclass(frozen=True)
class Predictor:
    """Trained (or freshly initialized) model: flat parameter vector plus the
    shape metadata needed to unpack it."""

    parameters: np.ndarray
    architecture: str
    hidden_units: int
    m: int
    d: int

    def __post_init__(self):
        p = np.array(self.parameters, dtype=np.float64)
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        layers = _layers(self.architecture, self.hidden_units, self.m, self.d)
        expected = sum(fan_in * fan_out + fan_out for fan_in, fan_out in layers)
        if p.ndim != 1 or p.size != expected:
            raise ValueError(f"expected {expected} parameters, got {p.size}")
        if not np.all(np.isfinite(p)):
            raise ValueError("parameters contain non-finite values")
        p.setflags(write=False)
        object.__setattr__(self, "parameters", p)


def _layers(architecture: str, hidden_units: int, m: int, d: int) -> list[tuple[int, int]]:
    """The dense layers as (fan_in, fan_out) pairs, input layer first."""
    if architecture == "linear":
        return [(d, m)]
    return [(d, hidden_units), (hidden_units, m)]


def _unpack(layout, params: np.ndarray):
    """(w, b) views into the flat parameters for each layer, first layer first:
    each layer's fan_in x fan_out weights (row-major), then its bias."""
    parts, o = [], 0
    for fan_in, fan_out in _layers(layout.architecture, layout.hidden_units, layout.m, layout.d):
        e = o + fan_in * fan_out
        parts.append((params[o:e].reshape(fan_in, fan_out), params[e : e + fan_out]))
        o = e + fan_out
    return parts


def init_predictor(cfg: PredictorConfig, m: int, d: int) -> Predictor:
    """Seeded initialization: per layer, weights then bias, uniform in +-1/sqrt(fan_in)."""
    if m < 2 or d < 1:
        raise ValueError("need m >= 2 classes and d >= 1 features")
    rng = stream(cfg.seed, 0x1)
    hidden = cfg.hidden_units if cfg.architecture == "mlp" else 0
    parts = []
    for fan_in, fan_out in _layers(cfg.architecture, hidden, m, d):
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        parts.append(rng.uniform(-bound, bound, size=fan_out))
    return Predictor(np.concatenate(parts), cfg.architecture, hidden, m, d)


def _forward(parts, x):
    """Logits and each layer's input from the unpacked parameters. Each layer
    is built in one buffer, and ReLU runs in place on it before the next
    layer reads it."""
    inputs = []
    for w, b in parts:
        if inputs:
            np.maximum(x, 0.0, out=x)
        inputs.append(x)
        x = x @ w
        x += b
    return x, inputs


def _log_softmax(z):
    """Row-wise log-softmax of the logits z, computed in z's own buffer."""
    z -= z.max(axis=1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z


def entropy_penalty(p) -> float:
    """sum_c p_c log p_c for one probability vector; <= 0, zero iff one-hot."""
    p = np.asarray(p, dtype=np.float64)
    return float(np.sum(p * np.log(np.maximum(p, PROB_FLOOR))))


def loss_and_grad(layout: Predictor, params, x, y, zeta: float = 0.0, weights=None):
    """Penalized loss and its gradient in the flat parameter layout.

    layout supplies only the architecture and shapes; params is the flat
    parameter vector to evaluate, so training loops pass their working copy.
    The loss is mean cross-entropy plus zeta times the mean confidence
    penalty, with per-sample losses scaled by weights (default all ones).
    Returns (total loss, mean weighted cross-entropy, gradient).
    """
    if x.shape[1] != layout.d:
        raise ValueError("feature dimension does not match the predictor")
    n = x.shape[0]
    rows = np.arange(n)
    parts = _unpack(layout, params)
    z, inputs = _forward(parts, x)
    logp = _log_softmax(z)
    p = np.exp(logp)
    picked = logp[rows, y]
    pen_rows = np.sum(p * logp, axis=1)
    if weights is None:
        ce_terms, pen_terms, scale = picked, pen_rows, 1.0 / n
    else:
        w = np.asarray(weights, dtype=np.float64)
        ce_terms, pen_terms, scale = w * picked, w * pen_rows, (w / n)[:, None]
    # np.add.reduce(a) / n is the same float as a.mean(), without its overhead.
    ce = float(-(np.add.reduce(ce_terms) / n))
    total = float(ce + zeta * (np.add.reduce(pen_terms) / n))

    # d/dz of the cross-entropy is p - onehot; of the penalty, p*(logp - pen).
    dz = p.copy()
    dz[rows, y] -= 1.0
    if zeta:
        dz += zeta * p * (logp - pen_rows[:, None])
    dz *= scale

    grads = []
    for i in range(len(parts) - 1, -1, -1):
        a = inputs[i]
        grads += (np.add.reduce(dz), (a.T @ dz).ravel())
        if i:
            # a <= 0 exactly where the pre-activation is <= 0 (NaN passes through both).
            dz = np.where(a <= 0, 0.0, dz @ parts[i][0].T)
    grads.reverse()
    return total, ce, np.concatenate(grads)


def train_predictor(train: LabeledDataset, cfg: PredictorConfig) -> Predictor:
    """Minibatch SGD on the penalized loss.

    Epochs stop early once the running mean of the cross-entropy term drops
    below cfg.loss_threshold. max_epochs = 0 returns the seeded
    initialization untouched. Non-finite loss raises with the epoch number.
    """
    layout = init_predictor(cfg, train.m, train.d)
    params = layout.parameters.copy()
    x, y = train.features, train.labels
    n = train.n
    order_rng = stream(cfg.seed, 0x2)
    for epoch in range(cfg.max_epochs):
        order = order_rng.permutation(n)
        ce_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            total, ce, grad = loss_and_grad(layout, params, x[idx], y[idx], cfg.zeta)
            if not np.isfinite(total):
                raise RuntimeError(f"diverged at epoch {epoch}")
            if cfg.weight_decay:
                grad = grad + cfg.weight_decay * params
            params -= cfg.learning_rate * grad
            ce_sum += ce * idx.size
        if ce_sum / n < cfg.loss_threshold:
            break
    return replace(layout, parameters=params)


def _logits(pred: Predictor, features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != pred.d:
        raise ValueError("features must be (n, d) matching the predictor")
    return _forward(_unpack(pred, pred.parameters), x)[0]


def predict_proba(pred: Predictor, features) -> ProbabilityMatrix:
    """Class probabilities for a feature matrix, floored and renormalized."""
    return ProbabilityMatrix.from_rows(np.exp(_log_softmax(_logits(pred, features))))


def predict_labels(pred: Predictor, features) -> np.ndarray:
    """Most likely class per row: the argmax of the logits, so a tie goes to
    the lowest index and the strictly larger logit wins even where rounding
    makes two probabilities equal."""
    return _logits(pred, features).argmax(axis=1)


def save_predictor(pred: Predictor, path) -> None:
    """Write the predictor as JSON; float values round-trip bit-exactly."""
    payload = {
        "format": SAVE_FORMAT,
        "version": SAVE_VERSION,
        "architecture": pred.architecture,
        "hidden_units": pred.hidden_units,
        "m": pred.m,
        "d": pred.d,
        "parameters": pred.parameters.tolist(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def load_predictor(path) -> Predictor:
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if payload.get("format") != SAVE_FORMAT:
        raise ValueError(f"not a saved predictor: {path}")
    if payload.get("version") != SAVE_VERSION:
        raise ValueError(f"unsupported save version {payload.get('version')!r}")
    return Predictor(
        np.array(payload["parameters"], dtype=np.float64),
        payload["architecture"],
        int(payload["hidden_units"]),
        int(payload["m"]),
        int(payload["d"]),
    )
