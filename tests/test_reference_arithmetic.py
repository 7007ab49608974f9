"""The layer-list initialization, lean forward pass, SGD step, federated
training loop, EM map and uint8 IDX pixels give the same bits as the original
arithmetic kept in helpers.py."""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelshift import (
    PROB_FLOOR,
    DataSource,
    EstimatorOptions,
    FederationConfig,
    LabeledDataset,
    NodeSpec,
    PredictorConfig,
    ProbabilityMatrix,
    RelaxedShiftSpec,
    ServerOptimizer,
    estimate_mlls_em,
    init_predictor,
    load_idx,
    loss_and_grad,
    build_federation,
    make_marginal,
    perturb_relaxed,
    predict_labels,
    predict_proba,
    read_features,
    resample_by_marginal,
    train_global,
    train_predictor,
    train_predictors,
    uniform_marginal,
    weight_vectors,
)
from labelshift import data
from labelshift.estimators import _em_map

from .helpers import (
    marginal,
    random_preds,
    reference_em_step,
    reference_forward,
    reference_init,
    reference_load_idx,
    reference_loss_and_grad,
    reference_train,
    reference_train_global,
    reference_unpack,
    three_class_marginal,
    tiny_dataset,
    write_ink_corpus,
)

prop = settings(max_examples=40, derandomize=True, deadline=None)


def config(architecture, zeta, **over):
    """A linear config has no hidden units, whatever over says."""
    base = dict(hidden_units=24, learning_rate=0.1, batch_size=32, max_epochs=12,
                loss_threshold=0.0, zeta=zeta, seed=3)
    cfg = PredictorConfig(**{**base, **over})
    return replace(cfg, hidden_units=0) if architecture == "linear" else cfg


@pytest.mark.parametrize("architecture", ["linear", "mlp"])
def test_init_predictor_matches_reference(architecture):
    cfg = config(architecture, 1.0, hidden_units=7, seed=11)
    assert np.array_equal(init_predictor(cfg, 4, 5).parameters, reference_init(cfg, 4, 5))


@pytest.mark.parametrize(
    "architecture, zeta, over",
    [
        ("linear", 0.0, {}),
        ("linear", 1.0, {}),
        ("mlp", 0.0, {}),
        ("mlp", 1.0, {}),
        # stops early, after 10 of 200 epochs
        ("mlp", 0.5, {"max_epochs": 200, "loss_threshold": 0.7}),
    ],
    ids=["linear-0", "linear-1", "mlp-0", "mlp-1", "mlp-early-stop"],
)
def test_train_predictor_matches_reference(architecture, zeta, over):
    train = tiny_dataset(seed=1, n=300, m=3, d=4, separation=2.0)  # 300 = 9 batches + 12
    cfg = config(architecture, zeta, **over)
    assert np.array_equal(train_predictor(train, cfg).parameters, reference_train(train, cfg))


@pytest.mark.parametrize("architecture", ["linear", "mlp"])
@pytest.mark.parametrize("local_steps", [1, 2])
@pytest.mark.parametrize("server", ["adam", "sgd"])
def test_train_global_matches_reference(architecture, local_steps, server):
    # node 1 holds fewer rows than a batch, so its batch is all of its rows
    nodes = tuple(NodeSpec(marginal(*tr), marginal(0.1, 0.3, 0.6), n_tr, 40, seed=i)
                  for i, (tr, n_tr) in enumerate((((0.6, 0.3, 0.1), 90), ((0.2, 0.5, 0.3), 20),
                                                  ((0.3, 0.3, 0.4), 70))))
    cfg = FederationConfig(
        nodes=nodes, rounds=7, local_steps=local_steps,
        global_model=config(architecture, 0.0, hidden_units=6, batch_size=24, seed=2),
        server_optimizer=ServerOptimizer(kind=server, learning_rate=0.05))
    fed = build_federation(cfg, DataSource(m=3, d=4, separation=2.0), 6)
    weights = np.random.default_rng(8).uniform(0.0, 3.0, size=(3, 3))
    (result,) = train_global(fed, [weights], cfg)
    params, loss_trace = reference_train_global(fed, weights, cfg)
    assert np.array_equal(result.predictor.parameters, params)
    assert result.loss_trace == loss_trace


@pytest.mark.parametrize("architecture", ["linear", "mlp"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_loss_and_grad_matches_reference(architecture, weighted):
    rng = np.random.default_rng(7)
    data = tiny_dataset(seed=4, n=50, m=3, d=4)
    layout = init_predictor(config(architecture, 0.5), 3, 4)
    params = layout.parameters + rng.normal(scale=0.3, size=layout.parameters.size)
    weights = rng.uniform(0.0, 3.0, size=50) if weighted else None
    args = (layout, params, data.features, data.labels, 0.5, weights)
    total, ce, grad = loss_and_grad(*args)
    ref_total, ref_ce, ref_grad = reference_loss_and_grad(*args)
    assert (total, ce) == (ref_total, ref_ce)
    assert np.array_equal(grad, ref_grad)


def test_relu_mask_matches_reference_at_exact_zeros_and_nan():
    layout = init_predictor(config("mlp", 1.0, hidden_units=4), 3, 2)
    params = layout.parameters.copy()
    params[8:12] = 0.0  # b1: a zero input row gives pre-activations of exactly 0
    x = np.array([[0.0, 0.0], [1.0, -2.0], [np.nan, 1.0], [-0.5, 0.25]])
    y = np.array([0, 1, 2, 1])
    total, ce, grad = loss_and_grad(layout, params, x, y, 1.0)
    ref_total, ref_ce, ref_grad = reference_loss_and_grad(layout, params, x, y, 1.0)
    assert np.isnan(total) and np.isnan(ref_total)
    assert np.array_equal(grad, ref_grad, equal_nan=True)
    clean = [0, 1, 3]
    out = loss_and_grad(layout, params, x[clean], y[clean], 1.0)
    ref = reference_loss_and_grad(layout, params, x[clean], y[clean], 1.0)
    assert out[:2] == ref[:2] and np.array_equal(out[2], ref[2])


@pytest.mark.parametrize("architecture", ["linear", "mlp"])
def test_predict_proba_matches_reference(architecture):
    train = tiny_dataset(seed=5, n=300, m=3, d=4, separation=2.0)
    pred = train_predictor(train, config(architecture, 1.0, hidden_units=64))
    x = tiny_dataset(seed=6, n=2000, m=3, d=4, separation=2.0).features
    logp, _ = reference_forward(pred, pred.parameters, x)
    assert np.array_equal(predict_proba(pred, x).rows,
                          ProbabilityMatrix.from_rows(np.exp(logp)).rows)


@pytest.mark.parametrize("n", [1, 1000, 2000])
def test_predict_labels_of_a_linear_stack_matches_reference(n):
    rng = np.random.default_rng(n)
    layout = init_predictor(config("linear", 0.0), 3, 2)
    stack = layout.parameters + rng.normal(scale=0.5, size=(3, layout.parameters.size))
    x = rng.normal(scale=2.0, size=(n, 2))
    labels = predict_labels(replace(layout, parameters=stack), x)
    assert labels.shape == (3, n)
    for s, params in enumerate(stack):
        w, b = params[:6].reshape(2, 3), params[6:]
        assert np.array_equal(labels[s], np.argmax(x @ w + b, axis=1))


def test_predict_proba_of_pixels_matches_reference_on_scaled_rows():
    # Three classes: from 8, the reference sums a row's classes pairwise, but the
    # class-major scoring buffer sums them in class order.
    rng = np.random.default_rng(3)
    layout = init_predictor(config("mlp", 0.0, hidden_units=128), 3, 784)
    params = layout.parameters + rng.normal(scale=0.05, size=layout.parameters.size)
    pred = replace(layout, parameters=params)
    pixels = rng.integers(0, 256, size=(700, 784), dtype=np.uint8)  # 2 blocks and an overlap
    logp, _ = reference_forward(pred, params, pixels / 255.0)
    assert np.array_equal(predict_proba(pred, pixels).rows,
                          ProbabilityMatrix.from_rows(np.exp(logp)).rows)


def left_fold(ufunc, z):
    """ufunc over the columns of the (n, m) matrix z in class order, as an (n, 1) column."""
    out = z[:, :1]
    for c in range(1, z.shape[1]):
        out = ufunc(out, z[:, c : c + 1])
    return out


def test_predict_proba_of_ten_classes_folds_the_class_axis_left():
    # Scoring reduces along the strided class axis of a class-major buffer, so its max,
    # exp-sum and renormalization fold left at every m, also where a row-major sum of
    # 8 or more classes (reference_forward's) goes pairwise.
    rng = np.random.default_rng(10)
    layout = init_predictor(config("mlp", 0.0, hidden_units=128), 10, 784)
    params = layout.parameters + rng.normal(scale=0.05, size=layout.parameters.size)
    pred = replace(layout, parameters=params)
    pixels = rng.integers(0, 256, size=(700, 784), dtype=np.uint8)  # 2 blocks and an overlap
    w1, b1, w2, b2 = reference_unpack(pred, params)
    z = np.maximum(pixels / 255.0 @ w1 + b1, 0.0) @ w2 + b2
    z = z - left_fold(np.maximum, z)
    logp = z - np.log(left_fold(np.add, np.exp(z)))
    p = np.maximum(np.exp(logp), PROB_FLOOR)
    p = np.maximum(p / left_fold(np.add, p), PROB_FLOOR)
    assert np.array_equal(predict_proba(pred, pixels).rows, p)


@pytest.mark.parametrize(
    "seed, m, conc, tr, steps",
    [
        (0, 3, 1.5, (0.2, 0.3, 0.5), 1000),
        (1, 4, 20.0, (0.25, 0.25, 0.25, 0.25), 1000),  # flat posteriors: slow contraction
        (2, 3, 1.0, (0.6, 0.0, 0.4), 1000),  # a class without train mass
        (3, 5, 5.0, (0.1, 0.2, 0.3, 0.2, 0.2), 7),
    ],
    ids=["sharp", "flat", "zero_mass", "cap"],
)
def test_em_matches_reference(seed, m, conc, tr, steps):
    preds = random_preds(np.random.default_rng(seed), 400, m=m, conc=conc)
    sup = np.array(tr) > 0
    p, t = preds.rows[:, sup], np.array(tr)[sup]
    r = np.ones(t.size)
    for _ in range(steps):
        r_new, like = _em_map(p, t, r, p.shape[0])
        assert np.array_equal(r_new, reference_em_step(p, t, r))
        assert np.allclose(like, p @ r, rtol=1e-14, atol=0.0)  # the likelihoods at r
        r = r_new


@prop
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(2, 8),
    n=st.integers(5, 200),
    conc=st.floats(1.0, 10.0),
    max_iters=st.integers(1, 25),
)
def test_em_at_the_iteration_cap_reports_honestly(seed, m, n, conc, max_iters):
    rng = np.random.default_rng(seed)
    preds = random_preds(rng, n, m=m, conc=conc)
    tr = marginal(*rng.dirichlet(np.full(m, 5.0)))
    # A tolerance no step of flat posteriors reaches within 25 steps.
    report = estimate_mlls_em(preds, tr, EstimatorOptions(max_iters=max_iters, tol=1e-300))
    assert report.iterations_used == max_iters
    assert report.converged is False
    accepted = len(report.objective_trace) - 1  # each costs one to three map evaluations
    assert accepted <= report.iterations_used <= 3 * accepted
    assert report.objective_trace[-1] == report.final_objective
    assert np.all(np.diff(report.objective_trace) >= -1e-12)


def write_idx_pool(tmp_path, rows=4, cols=8, n=96):
    """An IDX pair in which every byte value 0-255 appears, spread over 3 classes;
    returned as the uint8 pool and its float64 twin, each as a 3-class dataset."""
    rng = np.random.default_rng(5)
    pixels = rng.permutation(np.tile(np.arange(256, dtype=np.uint8), -(-n * rows * cols // 256)))
    labels = np.arange(n, dtype=np.uint8) % 3
    img, lab = tmp_path / "images.idx", tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">iiii", 2051, n, rows, cols) + pixels[: n * rows * cols].tobytes())
    lab.write_bytes(struct.pack(">ii", 2049, n) + labels.tobytes())
    return tuple(LabeledDataset(ds.features, ds.labels, 3)
                 for ds in (load_idx(img, lab), reference_load_idx(img, lab)))


def test_resample_from_uint8_pool_matches_reference(tmp_path):
    pool, reference = write_idx_pool(tmp_path)
    assert pool.features.dtype == np.uint8
    assert np.array_equal(read_features(pool.features), reference.features)
    for counts in ([1, 1, 1], [8, 1, 1], [0, 3, 1]):
        for seed in (0, 1, 29):
            q = make_marginal(counts)
            got = resample_by_marginal(pool, q, 500, seed)
            want = resample_by_marginal(reference, q, 500, seed)
            assert got.features.dtype == np.uint8
            assert np.array_equal(read_features(got.features), want.features)
            assert np.array_equal(got.labels, want.labels)


def test_uint8_draws_train_score_and_perturb_to_the_bits_of_float_draws(tmp_path):
    pool, reference = write_idx_pool(tmp_path, n=480)
    u = uniform_marginal(3)
    train_u8, train_f = (resample_by_marginal(p, u, 300, 7) for p in (pool, reference))
    assert train_u8.features.dtype == np.uint8 and train_f.features.dtype == np.float64
    # One model, and a stack of a zeta 1/0 pair on one order plus a model on its own order.
    jobs = [config("mlp", 1.0), config("mlp", 1.0), config("mlp", 0.0),
            config("mlp", 0.0, seed=4)]
    got = train_predictors([(train_u8, c) for c in jobs])
    want = train_predictors([(train_f, c) for c in jobs])
    for g, w in zip(got, want):
        assert np.array_equal(g.parameters, w.parameters)
    # Same shapes but different dtypes never share a stack.
    mixed = train_predictors([(train_u8, jobs[0]), (train_f, jobs[3])])
    assert np.array_equal(mixed[0].parameters, got[0].parameters)
    assert np.array_equal(mixed[1].parameters, want[3].parameters)
    for n in (1500, 100):  # longer than the 1024-row block, and shorter (zero-padded)
        test_u8, test_f = (resample_by_marginal(p, make_marginal([5, 1, 2]), n, 11)
                           for p in (pool, reference))
        for pred in got:
            assert np.array_equal(predict_proba(pred, test_u8.features).rows,
                                  predict_proba(pred, test_f.features).rows)
            assert np.array_equal(predict_labels(pred, test_u8.features),
                                  predict_labels(pred, test_f.features))
        spec = RelaxedShiftSpec(0.3, (0.1, 0.5), 0.1)
        hit_u8, hit_f = perturb_relaxed(test_u8, spec, 3), perturb_relaxed(test_f, spec, 3)
        assert hit_u8.features.dtype == np.float64
        assert np.array_equal(hit_u8.features, hit_f.features)


@pytest.mark.parametrize("local_steps", [1, 2])
def test_pixel_federation_trains_to_the_bits_of_its_float_twin(tmp_path, monkeypatch, local_steps):
    source = DataSource(**write_ink_corpus(tmp_path, 3, n=400))
    nodes = tuple(NodeSpec(make_marginal(three_class_marginal(hot)),
                           make_marginal(three_class_marginal(2)), n_tr, 90, seed=i)
                  for i, (hot, n_tr) in enumerate(((0, 150), (0, 130), (1, 170))))
    cfg = FederationConfig(
        nodes=nodes, rounds=6, local_steps=local_steps,
        global_model=PredictorConfig(hidden_units=16, batch_size=32),
        ratio_predictor=PredictorConfig(hidden_units=8, zeta=0.25, max_epochs=3, seed=4))
    pixels = build_federation(cfg, source, 5)
    load = data.load_idx
    monkeypatch.setattr(data, "load_idx", lambda *paths: (lambda pool: LabeledDataset(
        read_features(pool.features), pool.labels, pool.m))(load(*paths)))
    floats = build_federation(cfg, source, 5)
    for a, b in zip(pixels.nodes, floats.nodes):
        assert a.train.features.dtype == np.uint8 and b.train.features.dtype == np.float64
        assert np.array_equal(read_features(a.train.features), b.train.features)
        assert np.array_equal(read_features(a.test.features), b.test.features)
    weightings = ("none", "true_ratios", "estimated_ratios")
    got, want = (train_global(fed, [weight_vectors(fed, w) for w in weightings], cfg)
                 for fed in (pixels, floats))
    for g, w in zip(got, want):
        assert np.array_equal(g.node_weights, w.node_weights)
        assert np.array_equal(g.predictor.parameters, w.predictor.parameters)
        assert g.loss_trace == w.loss_trace and g.accuracy_trace == w.accuracy_trace
        assert g.per_node_accuracy == w.per_node_accuracy
