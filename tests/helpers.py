"""Shared fixtures: grid-search oracle for two-class MLE instances,
finite-difference gradient checks used across the estimator and predictor
suites, a seeded IDX image corpus, and reference copies of the original
parameter layout and seeded initialization, (allocating) forward pass, SGD
step, EM step and float64 IDX loader that the lean versions must match bit
for bit."""

import gc
import json
import struct
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from labelshift import (
    EstimatorOptions,
    GaussianMixtureSpec,
    LabeledDataset,
    LabelMarginal,
    ProbabilityMatrix,
    equidistant_means,
    estimate_mlls_em,
    gen_gaussian_mixture,
    make_marginal,
    uniform_marginal,
)
from labelshift import data
from labelshift._rng import stream
from labelshift.data import IDX_CLASSES, IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, _read_exact
from labelshift.estimators import empirical_objective, empirical_objective_gradient
from labelshift.types import PROB_FLOOR

GRID_STEP = 1e-5


def grid_oracle_m2(preds: ProbabilityMatrix, tr: LabelMarginal):
    """Best feasible two-class ratio by brute force.

    Feasible ratios for m=2 form the segment r(t) = (t/tr0, (1-t)/tr1) with
    t in [0, 1]; scanning t at GRID_STEP resolution bounds the distance to
    the true maximizer by GRID_STEP/min(tr). Evaluated in chunks so the
    (n x grid) product stays in memory.
    """
    t0, t1 = float(tr.probs[0]), float(tr.probs[1])
    rows = preds.rows
    ts = np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP)
    best_obj = -np.inf
    best_t = 0.0
    for lo in range(0, ts.size, 20000):
        chunk = ts[lo : lo + 20000]
        mix = np.outer(rows[:, 0], chunk / t0) + np.outer(rows[:, 1], (1 - chunk) / t1)
        objs = np.log(np.maximum(mix, 1e-300)).mean(axis=0)
        j = int(objs.argmax())
        if objs[j] > best_obj:
            best_obj = float(objs[j])
            best_t = float(chunk[j])
    return np.array([best_t / t0, (1 - best_t) / t1]), best_obj


def central_diff(f, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2 * step)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30))


def random_preds(rng, n, m=2, conc=1.5) -> ProbabilityMatrix:
    return ProbabilityMatrix.from_rows(rng.dirichlet(np.full(m, conc), size=n))


def random_marginal(rng, m=2) -> LabelMarginal:
    p = np.clip(rng.dirichlet(np.full(m, 3.0)), 0.05, 0.95)
    return LabelMarginal(p / p.sum())


def shifted_posteriors(rng, m, n, signal, tiny=0, flat_prior=False):
    """(preds, train marginal) for n test rows drawn under label shift.

    The train marginal t is Dirichlet(5), or uniform with flat_prior, and its
    first `tiny` classes get a mass of about 1e-6. Test labels follow t times
    ratios uniform in [0.2, 3]. A row's logits are standard normal plus
    `signal` on its label, and its posterior is proportional to t times their
    softmax: a signal of 40 gives near-one-hot rows, and a signal near 0 with
    a flat prior gives near-uniform rows.
    """
    t = np.full(m, 1.0 / m) if flat_prior else rng.dirichlet(np.full(m, 5.0))
    t[:tiny] = 1e-6 * rng.uniform(0.5, 2.0, tiny)
    t /= t.sum()
    q = t * rng.uniform(0.2, 3.0, m)
    y = rng.choice(m, size=n, p=q / q.sum())
    logits = rng.normal(size=(n, m))
    logits[np.arange(n), y] += signal
    rows = t * np.exp(logits - logits.max(axis=1, keepdims=True))
    return ProbabilityMatrix.from_rows(rows / rows.sum(axis=1, keepdims=True)), LabelMarginal(t)


def tight_em(preds, tr) -> np.ndarray:
    """The maximizer r* from an EM solve at tol 1e-13, checked apart from the
    solver's stopping rule: for the concave objective f and feasible r, r',
    f(r') - f(r) <= max_c g_c / t_c - 1 with g the gradient at r, so that gap
    bounds how far r*'s objective is from the maximum."""
    rep = estimate_mlls_em(preds, tr, EstimatorOptions(tol=1e-13, max_iters=100_000))
    assert rep.converged
    sup = tr.probs > 0
    g = empirical_objective_gradient(rep.ratio, preds)
    assert np.max(g[sup] / tr.probs[sup]) - 1.0 < 1e-12
    return rep.ratio.ratios


def tiny_mixture(m=3, d=2, separation=3.0) -> GaussianMixtureSpec:
    return GaussianMixtureSpec(equidistant_means(m, d, separation), 1.0)


def tiny_dataset(seed=0, n=64, m=3, d=2, separation=3.0) -> LabeledDataset:
    return gen_gaussian_mixture(tiny_mixture(m, d, separation), uniform_marginal(m), n, seed=seed)


def write_ink_corpus(dirpath, seed, n=3000) -> dict:
    """A seeded IDX corpus of 8x8 images with labels in classes 0-2 only, one
    file pair per split, returned as the four DataSource path keys.

    Each class template is a shared ink template (200 on a fifth of the
    pixels, 0 elsewhere) plus U(-60, 60) per pixel; each image adds N(0, 80)
    pixel noise to its class template, clipped to bytes.
    """
    rng = np.random.default_rng(seed)
    base = 200.0 * (rng.random(64) < 0.2)
    templates = base + rng.uniform(-60.0, 60.0, (3, 64))
    paths = {}
    for split in ("train", "test"):
        labels = rng.integers(0, 3, n).astype(np.uint8)
        noisy = templates[labels] + rng.normal(0.0, 80.0, (n, 64))
        img, lab = Path(dirpath) / f"{split}-images.idx", Path(dirpath) / f"{split}-labels.idx"
        img.write_bytes(struct.pack(">iiii", 2051, n, 8, 8)
                        + np.clip(noisy, 0, 255).astype(np.uint8).tobytes())
        lab.write_bytes(struct.pack(">ii", 2049, n) + labels.tobytes())
        paths.update({f"{split}_images": str(img), f"{split}_labels": str(lab)})
    return paths


def three_class_marginal(hot) -> list[float]:
    """10 entries: 0.8 on class hot, 0.1 on the other two of classes 0-2, 0 on 3-9."""
    return [0.8 if c == hot else 0.1 if c < 3 else 0.0 for c in range(10)]


def idx_federate_raw(paths) -> dict:
    """configs/federate.json on an IDX source with 60 ratio-predictor epochs: three nodes
    trained hot on classes 0, 0 and 1 and tested hot on 2; classes 3-9 have no mass."""
    raw = json.loads((Path(__file__).resolve().parent.parent / "configs" / "federate.json")
                     .read_text(encoding="utf-8"))
    raw["data"] = dict(paths)
    raw["crossnode_listing"] = False  # it needs every class on every node
    raw["federation"]["ratio_predictor"]["max_epochs"] = 60
    for node, hot in zip(raw["federation"]["nodes"], (0, 0, 1)):
        node["train_marginal"], node["test_marginal"] = (three_class_marginal(hot),
                                                         three_class_marginal(2))
    return raw


def record_pool_loads(monkeypatch) -> list:
    """Wraps data.load_idx; returns a list that gets, at each load, the image
    file's path and how many pools loaded before are still alive (after
    gc.collect())."""
    loads, pools, original = [], [], data.load_idx

    def load(images_path, labels_path, *args, **kwargs):
        gc.collect()
        loads.append((str(images_path), sum(ref() is not None for ref in pools)))
        pool = original(images_path, labels_path, *args, **kwargs)
        pools.append(weakref.ref(pool))
        return pool

    monkeypatch.setattr(data, "load_idx", load)
    return loads


def marginal(*probs) -> LabelMarginal:
    return LabelMarginal(np.array(probs, dtype=np.float64))


def counts_marginal(*counts) -> LabelMarginal:
    return make_marginal(np.array(counts))


def batch_objective(rows, r):
    return float(np.log(np.maximum(rows @ np.asarray(r), 1e-300)).mean())


def assert_feasible(ratio, tr, tol=1e-6):
    r = np.asarray(ratio.ratios if hasattr(ratio, "ratios") else ratio)
    assert np.all(r >= 0)
    assert abs(float(r @ tr.probs) - 1.0) <= tol


# ------------------------------------------- reference arithmetic (original)


def reference_unpack(layout, params):
    """The flat layout: (w, b) for linear, (w1, b1, w2, b2) for mlp."""
    m, d, hidden = layout.m, layout.d, layout.hidden_units
    if hidden == 0:
        w = params[: d * m].reshape(d, m)
        b = params[d * m :]
        return (w, b)
    o = d * hidden
    w1 = params[:o].reshape(d, hidden)
    b1 = params[o : o + hidden]
    o += hidden
    w2 = params[o : o + hidden * m].reshape(hidden, m)
    b2 = params[o + hidden * m :]
    return (w1, b1, w2, b2)


def reference_init(cfg, m, d):
    """The seeded initialization's flat parameters: per layer the weights,
    then the bias, each uniform in +-1/sqrt(fan_in)."""
    rng = stream(cfg.seed, 0x1)
    hidden = cfg.hidden_units
    if hidden == 0:
        shapes = [((d, m), d), ((m,), d)]
    else:
        shapes = [((d, hidden), d), ((hidden,), d), ((hidden, m), hidden), ((m,), hidden)]
    parts = []
    for shape, fan_in in shapes:
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, size=shape).ravel())
    return np.concatenate(parts)


def reference_forward(layout, params, x):
    """(log-probabilities, hidden pre-activations or None), one fresh array per step."""
    if layout.hidden_units == 0:
        w, b = reference_unpack(layout, params)
        z = x @ w + b
        pre = None
    else:
        w1, b1, w2, b2 = reference_unpack(layout, params)
        pre = x @ w1 + b1
        z = np.maximum(pre, 0.0) @ w2 + b2
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return logp, pre


def reference_loss_and_grad(layout, params, x, y, zeta=0.0, weights=None):
    n = x.shape[0]
    logp, pre = reference_forward(layout, params, x)
    p = np.exp(logp)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    picked = logp[np.arange(n), y]
    ce = float(-(w * picked).mean())
    pen_rows = np.sum(p * logp, axis=1)
    total = float(ce + zeta * (w * pen_rows).mean())
    dz = p.copy()
    dz[np.arange(n), y] -= 1.0
    if zeta:
        dz += zeta * p * (logp - pen_rows[:, None])
    dz *= w[:, None] / n
    if layout.hidden_units == 0:
        return total, ce, np.concatenate([(x.T @ dz).ravel(), dz.sum(axis=0)])
    w1, b1, w2, b2 = reference_unpack(layout, params)
    h = np.maximum(pre, 0.0)
    gw2 = h.T @ dz
    gb2 = dz.sum(axis=0)
    dh = dz @ w2.T
    dh[pre <= 0] = 0.0
    gw1 = x.T @ dh
    gb1 = dh.sum(axis=0)
    return total, ce, np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])


def reference_train(train, cfg):
    """The train_predictor loop on reference_loss_and_grad; returns the parameters.

    layout only carries the shapes that reference_unpack reads."""
    layout = SimpleNamespace(m=train.m, d=train.d, hidden_units=cfg.hidden_units)
    params = reference_init(cfg, train.m, train.d)
    x, y, n = train.features, train.labels, train.n
    order_rng = stream(cfg.seed, 0x2)
    for _ in range(cfg.max_epochs):
        order = order_rng.permutation(n)
        ce_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, ce, grad = reference_loss_and_grad(layout, params, x[idx], y[idx], cfg.zeta)
            params -= cfg.learning_rate * grad
            ce_sum += ce * idx.size
        if ce_sum / n < cfg.loss_threshold:
            break
    return params


def reference_train_global(fed, weights, cfg):
    """The train_global loop for one (k, m) weight matrix on reference_loss_and_grad;
    returns (parameters, loss_trace).

    Every round visits every node in index order. A node's batches draw from
    stream(fed.seed, 0x5B, node index); one local step reports its gradient, more report
    the displacement of plain SGD steps divided by the model learning rate. The node mean
    then takes an SGD step, or an Adam step at betas (0.9, 0.999) and eps 1e-8.
    """
    gm, srv = cfg.global_model, cfg.server_optimizer
    first = fed.nodes[0].train
    layout = SimpleNamespace(m=first.m, d=first.d, hidden_units=gm.hidden_units)
    params = reference_init(gm, first.m, first.d)
    w = np.asarray(weights, dtype=np.float64)
    rngs = [stream(fed.seed, 0x5B, i) for i in range(len(fed.nodes))]
    adam_m, adam_v = np.zeros_like(params), np.zeros_like(params)
    trace = []
    for rnd in range(cfg.rounds):
        grads, node_losses = np.zeros_like(params), []
        for i, node in enumerate(fed.nodes):
            x, y, n = node.train.features, node.train.labels, node.train.n
            theta, losses = params.copy(), []
            for _ in range(cfg.local_steps):
                idx = rngs[i].choice(n, size=min(gm.batch_size, n), replace=False)
                loss, _, grad = reference_loss_and_grad(layout, theta, x[idx], y[idx],
                                                        weights=w[i][y[idx]])
                losses.append(loss)
                theta -= gm.learning_rate * grad
            grads += grad if cfg.local_steps == 1 else (params - theta) / gm.learning_rate
            node_losses.append(np.mean(losses))
        grads /= len(fed.nodes)
        if srv.kind == "sgd":
            params -= srv.learning_rate * grads
        else:
            adam_m = 0.9 * adam_m + (1 - 0.9) * grads
            adam_v = 0.999 * adam_v + (1 - 0.999) * grads**2
            mh = adam_m / (1 - 0.9 ** (rnd + 1))
            vh = adam_v / (1 - 0.999 ** (rnd + 1))
            params -= srv.learning_rate * mh / (np.sqrt(vh) + 1e-8)
        trace.append(float(np.mean(node_losses)))
    return params, tuple(trace)


def reference_em_step(p, t, r):
    """One plain EM step with the original allocating arithmetic: F(r)."""
    w = p * r
    w /= np.maximum(w.sum(axis=1, keepdims=True), PROB_FLOOR)
    return w.mean(axis=0) / t


def reference_load_idx(images_path, labels_path) -> LabeledDataset:
    """The float64 loader: the whole split scaled to [0, 1] up front."""
    with open(images_path, "rb") as f:
        magic, n, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, str(images_path)))
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(f"bad IDX image magic {magic} in {images_path}")
        raw = _read_exact(f, n * rows * cols, str(images_path))
    with open(labels_path, "rb") as f:
        magic, n_labels = struct.unpack(">ii", _read_exact(f, 8, str(labels_path)))
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(f"bad IDX label magic {magic} in {labels_path}")
        raw_labels = _read_exact(f, n_labels, str(labels_path))
    if n != n_labels:
        raise ValueError(f"count mismatch: {n} images vs {n_labels} labels")
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    if labels.size and labels.max() >= IDX_CLASSES:
        raise ValueError(f"label {int(labels.max())} out of range for {IDX_CLASSES} classes")
    feats = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols) / 255.0
    return LabeledDataset(feats, labels, IDX_CLASSES)


__all__ = [
    "GRID_STEP",
    "assert_feasible",
    "batch_objective",
    "central_diff",
    "counts_marginal",
    "grid_oracle_m2",
    "marginal",
    "random_marginal",
    "random_preds",
    "reference_em_step",
    "reference_forward",
    "reference_init",
    "reference_load_idx",
    "reference_loss_and_grad",
    "reference_train",
    "reference_train_global",
    "reference_unpack",
    "rel_err",
    "shifted_posteriors",
    "tight_em",
    "tiny_dataset",
    "tiny_mixture",
    "empirical_objective",
]
