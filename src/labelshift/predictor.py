"""Softmax classifiers trained by minibatch SGD with an optional confidence
penalty.

The penalty is the negative Shannon entropy of the predicted distribution,
sum_c p_c log p_c, weighted by zeta. It is zero for one-hot output and most
negative for uniform output, so positive zeta pushes training away from
overconfident predictions. The early-stop threshold watches the
cross-entropy term alone; the penalized total can reach zero at a uniform
predictor and would otherwise stop training immediately.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._rng import stream
from .types import LabeledDataset, PROB_FLOOR, ProbabilityMatrix, argmax_last, read_features

ARCHITECTURES = ("linear", "mlp")


@dataclass(frozen=True)
class PredictorConfig:
    """Architecture plus SGD hyperparameters.

    hidden_units is ignored for linear models, and a config file may not set it
    there. zeta scales the confidence penalty; zeta = 0 gives plain cross-entropy.
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
    """Trained (or freshly initialized) model: flat parameter vector (or a
    stack (S, P) of S models) plus the shape metadata needed to unpack it."""

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
        if p.ndim not in (1, 2) or p.shape[-1] != expected:
            raise ValueError(f"expected {expected} parameters per model, got shape {p.shape}")
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
    """(w, b) views into the flat parameters (or each row of a stack) for each
    layer, first layer first: fan_in x fan_out weights (row-major), then bias."""
    lead, parts, o = params.shape[:-1], [], 0
    for fan_in, fan_out in _layers(layout.architecture, layout.hidden_units, layout.m, layout.d):
        e = o + fan_in * fan_out
        w = params[..., o:e].reshape(*lead, fan_in, fan_out)
        parts.append((w, params[..., None, e : e + fan_out]))
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


def _forward(parts, x, outs, floors):
    """Logits and each layer's input for a training step. Each layer is built in outs[i]:
    the matrix product, then the bias added in place, and ReLU in place against floors[i],
    a zero block of its shape, before the next layer reads it (an array operand runs
    faster than the scalar 0.0). A stack's slices are each model's own products."""
    inputs = []
    for i, (w, b) in enumerate(parts):
        if inputs:
            np.maximum(x, floors[i - 1], out=x)
        inputs.append(x)
        x = np.matmul(x, w, out=outs[i])
        x += b
    return x, inputs


def _class_reduce(ufunc, z):
    """ufunc.reduce over the last (class) axis of z, keeping it. Below 8 classes a left fold
    over the class columns: numpy's order there, but numpy runs it as a slow loop over short
    rows. From 8, numpy's own: pairwise along a contiguous class axis (training) and a left
    fold along a strided one (scoring's class-major buffer), so scoring folds left at every m."""
    if z.shape[-1] >= 8:
        return ufunc.reduce(z, axis=-1, keepdims=True)
    out = ufunc(z[..., 0:1], z[..., 1:2])
    for c in range(2, z.shape[-1]):
        ufunc(out, z[..., c : c + 1], out=out)
    return out


def _log_softmax(z):
    """Log-softmax along the last axis of the logits z, in z's own buffer."""
    z -= _class_reduce(np.maximum, z)
    z -= np.log(_class_reduce(np.add, np.exp(z)))
    return z


def _relu_grad(a, g, le):
    """np.where(a <= 0, 0.0, g) bit for bit, by a branch-free mask on g's bits built in a;
    le is a bool buffer of a's shape that takes the comparison."""
    np.less_equal(a, 0.0, out=le)
    keep = np.subtract(le, 1, dtype=np.int64, out=a.view(np.int64))  # a <= 0: 0, else ~0
    np.bitwise_and(g.view(np.int64), keep, out=g.view(np.int64))
    return g


def entropy_penalty(p) -> float:
    """sum_c p_c log p_c for one probability vector; <= 0, zero iff one-hot."""
    p = np.asarray(p, dtype=np.float64)
    return float(np.sum(p * np.log(np.maximum(p, PROB_FLOOR))))


def loss_and_grad(layout: Predictor, params, x, y, zeta=0.0, weights=None):
    """Penalized loss and its gradient in the flat parameter layout.

    layout supplies only the architecture and shapes; params is the flat
    parameter vector to evaluate (training loops pass their working copy),
    or a stack (S, P) of them, with x, y, zeta and weights shared or per model.
    x must be float64 (read_features turns uint8 pixels into it).
    The loss is mean cross-entropy plus zeta times the mean confidence
    penalty, with per-sample losses scaled by weights (default all ones).
    Returns (total loss, mean weighted cross-entropy, gradient) per model.
    The gradient is fresh: a later call never overwrites it.
    """
    return StepWorkspace(layout)(params, x, y, zeta, weights)


class StepWorkspace:
    """loss_and_grad for a training loop, in buffers kept from step to step.

    It holds the parameter views, rebound only when a call passes another
    params array; one gradient buffer, which the next call overwrites; and per
    batch shape the layer outputs, each hidden layer's zero block (the ReLU
    floor), bool mask and gradient, the logit-sized temporaries and the base of
    the flat label index. A call runs the same arithmetic as loss_and_grad and
    returns (total, ce, gradient buffer). gather reads a training batch for it.
    """

    def __init__(self, layout: Predictor):
        self.layout, self.params, self.grad, self.batches, self.scaled = layout, None, None, {}, {}

    def gather(self, x, idx) -> np.ndarray:
        """Rows idx of x as float64: x.take(idx, 0), a uint8 batch scaled into a buffer that the
        next gather of its shape overwrites (a fresh one can refault past the mmap threshold)."""
        xb = x.take(idx, 0)  # take: faster than x[idx]
        if xb.dtype != np.uint8:
            return xb
        if idx.shape not in self.scaled:
            self.scaled[idx.shape] = np.empty(xb.shape)
        return read_features(xb, self.scaled[idx.shape])

    def _batch(self, key, x, params):
        lead = np.broadcast_shapes(x.shape[:-2], params.shape[:-1])
        if self.grad is None or self.grad.shape[:-1] != lead:  # the stack changed
            self.grad, self.batches = np.empty(lead + params.shape[-1:]), {}
            self.grad_parts = _unpack(self.layout, self.grad)
        rows, m = x.shape[-2], self.layout.m
        widths = [w for _, w in _layers(self.layout.architecture, self.layout.hidden_units,
                                        m, self.layout.d)]
        outs = [np.empty(lead + (rows, w)) for w in widths]
        hidden = [o.shape for o in outs[:-1]]
        self.batches[key] = (
            outs,
            [np.zeros(h) for h in hidden],  # ReLU floors
            [np.empty(h, dtype=bool) for h in hidden],  # ReLU masks a <= 0
            [np.empty(h) for h in hidden],  # hidden gradients
            np.empty_like(outs[-1]),  # p * logp, then zeta * p * (logp - pen)
            np.empty_like(outs[-1]),  # p, then dz
            np.arange(0, outs[-1].size, m).reshape(lead + (rows,)),  # flat label index base
        )
        return self.batches[key]

    def __call__(self, params, x, y, zeta=0.0, weights=None):
        layout = self.layout
        if x.dtype != np.float64:
            raise TypeError(f"features must be float64, got {x.dtype} (see read_features)")
        if x.shape[-1] != layout.d:
            raise ValueError("feature dimension does not match the predictor")
        if params is not self.params:
            self.params, self.parts = params, _unpack(layout, params)
        key = (x.shape, params.shape)
        outs, floors, masks, dhs, t, dz, base = self.batches.get(key) or self._batch(key, x, params)
        n, zeta = x.shape[-2], np.asarray(zeta, dtype=np.float64)
        z, inputs = _forward(self.parts, x, outs, floors)
        logp = _log_softmax(z)
        p = np.exp(logp, out=dz)  # dz starts as p
        hit = base + y  # flat label index
        picked = logp.ravel()[hit]
        pen_rows = _class_reduce(np.add, np.multiply(p, logp, out=t))[..., 0]
        if weights is None:
            ce_terms, pen_terms, scale = picked, pen_rows, 1.0 / n
        else:
            w = np.asarray(weights, dtype=np.float64)
            ce_terms, pen_terms, scale = w * picked, w * pen_rows, (w / n)[..., None]
        # np.add.reduce(a) / n is the same float as a.mean(), without its overhead.
        ce = -(np.add.reduce(ce_terms, axis=-1) / n)
        total = ce + zeta * (np.add.reduce(pen_terms, axis=-1) / n)

        # d/dz of the cross-entropy is p - onehot; of the penalty, p*(logp - pen),
        # formed while dz still holds p.
        penalized = np.count_nonzero(zeta)
        if penalized:
            zp = np.multiply(zeta[..., None, None], p, out=t)
            zp *= np.subtract(logp, pen_rows[..., None], out=logp)
        dz.ravel()[hit] -= 1.0
        if penalized:
            dz += zp
        dz *= scale

        g = dz
        for i in range(len(self.parts) - 1, -1, -1):
            a, (gw, gb) = inputs[i], self.grad_parts[i]
            np.add.reduce(g, axis=-2, out=gb[..., 0, :])
            np.matmul(a.swapaxes(-1, -2), g, out=gw)
            if i:
                # a <= 0 exactly where the pre-activation is <= 0 (NaN passes through both).
                g = np.matmul(g, self.parts[i][0].swapaxes(-1, -2), out=dhs[i - 1])
                g = _relu_grad(a, g, masks[i - 1])
        return total, ce, self.grad


# Kept only for perfbench/traced.py, which patches it; ROADMAP item 2 moves that hook.
def train_predictor(train: LabeledDataset, cfg: PredictorConfig) -> Predictor:
    """One model: train_predictors([(train, cfg)])[0]."""
    return train_predictors([(train, cfg)])[0]


def train_predictors(jobs) -> tuple[Predictor, ...]:
    """Minibatch SGD on the penalized loss, one Predictor per (train, cfg) job.

    Jobs that differ only in seed, zeta, loss_threshold and same-shape data
    train in lockstep, each with the bits it gets alone; each stops once the
    running mean of its cross-entropy term drops below its loss_threshold.
    max_epochs = 0 gives the seeded start. Non-finite loss raises with the epoch.
    """
    jobs, groups, out = list(jobs), {}, {}
    for j, (train, cfg) in enumerate(jobs):
        key = (replace(cfg, seed=0, zeta=0.0, loss_threshold=0.0), train.n, train.m, train.d,
               train.features.dtype)
        groups.setdefault(key, []).append(j)
    for members in groups.values():
        out.update(zip(members, _train_stack([jobs[j] for j in members])))
    return tuple(out[j] for j in range(len(jobs)))


def _train_stack(jobs) -> list[Predictor]:
    (first, cfg), n = jobs[0], jobs[0][0].n
    layout = init_predictor(cfg, first.m, first.d)  # shapes only; params holds every start
    params = np.stack([init_predictor(c, t.m, t.d).parameters for t, c in jobs])
    shared = all(t.features is first.features and t.labels is first.labels for t, _ in jobs)
    x = first.features if shared else np.concatenate([t.features for t, _ in jobs])
    y = first.labels if shared else np.concatenate([t.labels for t, _ in jobs])
    offset = (0 if shared else n) * np.arange(len(jobs))  # a shared set is never copied
    zeta, threshold = np.array([(c.zeta, c.loss_threshold) for _, c in jobs]).T
    order_rngs = [stream(c.seed, 0x2) for _, c in jobs]
    step = StepWorkspace(layout)
    starts = range(0, n, cfg.batch_size)
    rows = np.diff([*starts, n])[:, None]  # rows per step
    live, done = np.arange(len(jobs)), {}  # live[s]: the job behind row s of params
    for epoch in range(cfg.max_epochs):
        order = np.stack([order_rngs[j].permutation(n) for j in live]) + offset[live, None]
        order = order[:1] if (order == order[0]).all() else order  # same draws: one batch
        labels = y[order]
        totals, ces = np.empty((2, len(starts), live.size))  # per step and member
        for k, start in enumerate(starts):
            batch = slice(start, start + cfg.batch_size)
            totals[k], ces[k], grad = step(params, step.gather(x, order[:, batch]),
                                           labels[:, batch], zeta)
            if cfg.weight_decay:
                grad += cfg.weight_decay * params
            grad *= cfg.learning_rate
            params -= grad
        if not np.isfinite(totals).all():
            raise RuntimeError(f"diverged at epoch {epoch}")
        # accumulate's last row is the running sum's left fold, step by step.
        stop = np.add.accumulate(np.multiply(ces, rows, out=ces), axis=0)[-1] / n < threshold
        if stop.any():
            done.update(zip(live[stop], params[stop]))
            live, params, zeta, threshold = (a[~stop] for a in (live, params, zeta, threshold))
            if not live.size:
                break
    done.update(zip(live, params))
    return [replace(layout, parameters=done[j]) for j in range(len(jobs))]


def _block_rows(pred: Predictor) -> int:
    """Rows per scoring block: a power of two in [256, 1024] that keeps the
    widest activation near 32k floats. It depends on the layer widths only."""
    widest = max(w for _, w in _layers(pred.architecture, pred.hidden_units, pred.m, pred.d))
    return 1 << min(10, max(8, (32768 // widest).bit_length() - 1))


def _logits(pred: Predictor, features, padded=False) -> np.ndarray:
    """(..., n, m) logits in a class-major (..., m, n) buffer, scored in blocks of one
    fixed shape so that no row's bits depend on its neighbours. The last block is the
    last B rows; an input shorter than B is zero-padded, and padded keeps those rows.
    uint8 pixels are scaled (read_features) one block at a time. The output bias is
    added once, along the class-major buffer after the last block: added to a block's
    (..., B, m) logits, numpy would loop once per row."""
    x = np.asarray(features)
    if x.dtype != np.uint8:
        x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != pred.d:
        raise ValueError("features must be (n, d) matching the predictor")
    n, rows = x.shape[0], _block_rows(pred)
    *hidden, (w_out, b_out) = _unpack(pred, pred.parameters)
    total = max(n, rows)
    block = np.zeros((rows, pred.d)) if x.dtype == np.uint8 or n < rows else None
    out = np.empty(pred.parameters.shape[:-1] + (pred.m, total))
    for start in range(0, total, rows):
        start = min(start, total - rows)
        xb = x[start : start + rows]
        if block is not None:
            read_features(xb, block[: len(xb)])
            xb = block
        for w, b in hidden:
            xb = np.matmul(xb, w)
            xb += b
            np.maximum(xb, 0.0, out=xb)
        out[..., start : start + rows] = np.matmul(xb, w_out).swapaxes(-1, -2)
    out += b_out.swapaxes(-1, -2)
    return (out if padded else out[..., :n]).swapaxes(-1, -2)


def predict_proba(pred: Predictor, features) -> ProbabilityMatrix:
    """Class probabilities for a feature matrix, floored and renormalized. A
    short input keeps its padding rows until the end: numpy sums the classes
    of a lone row pairwise, but of many rows in class order."""
    probs = ProbabilityMatrix.from_rows(np.exp(_log_softmax(_logits(pred, features, True))))
    return probs if probs.n == len(features) else ProbabilityMatrix(probs.rows[: len(features)])


def predict_labels(pred: Predictor, features) -> np.ndarray:
    """Most likely class per row: the argmax of the logits (a tie or a NaN goes to
    the first index), so the strictly larger logit wins even where rounding makes
    two probabilities equal. A stack of models gives one row per model."""
    return argmax_last(_logits(pred, features))
