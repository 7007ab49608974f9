"""Release gate: one test per headline guarantee, each printing a PASS/FAIL
verdict line. Everything here is seeded, so verdicts are reproducible
bit-for-bit; run with -s (or read captured output) to see the lines.

AC-8, and the federated run on an image corpus, exercise a real IDX corpus
and only run when LABELSHIFT_MNIST_DIR points at a directory holding the four
standard files.
"""

import os
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from labelshift import (
    DataSource,
    EstimatorOptions,
    FederationConfig,
    GaussianMixtureSpec,
    NodeSpec,
    PredictorConfig,
    ProbabilityMatrix,
    ServerOptimizer,
    build_federation,
    estimate_bbse,
    estimate_mlls_em,
    estimate_rlls,
    equidistant_means,
    gen_gaussian_mixture,
    init_predictor,
    load_idx,
    loglog_slope,
    loss_and_grad,
    make_marginal,
    predict_proba,
    ratio_from_marginals,
    ratio_mse,
    resample_by_marginal,
    sample_dirichlet_marginal,
    train_global,
    train_predictor,
    uniform_marginal,
    weight_vectors,
)
from labelshift import cli
from labelshift._rng import child_seed, stream
from labelshift.estimators import empirical_objective, empirical_objective_gradient

from .helpers import (
    central_diff,
    grid_oracle_m2,
    idx_federate_raw,
    rel_err,
    random_marginal,
    random_preds,
    tiny_dataset,
)


def _verdict(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{tag}: {detail}"


def _linf(a, b=0.0):
    return float(np.max(np.abs(np.asarray(a) - b)))


def test_ac1_solvers_match_grid_oracle():
    t0 = time.time()
    worst_em = worst_gap = 0.0
    for i in range(20):
        rng = stream(0xAC1, i)
        preds = ProbabilityMatrix.from_rows(rng.dirichlet((1.5, 1.5), size=120))
        tr = make_marginal(np.clip(rng.dirichlet((3.0, 3.0)), 0.05, 0.95))
        oracle, best_obj = grid_oracle_m2(preds, tr)
        em = estimate_mlls_em(preds, tr)
        worst_em = max(worst_em, _linf(em.ratio.ratios - oracle))
        # the grid's best objective minus EM's: positive only if the grid beats EM
        worst_gap = max(worst_gap, best_obj - empirical_objective(em.ratio, preds))
    took = time.time() - t0
    ok = worst_em < 1e-3 and worst_gap < 1e-6 and took < 10
    _verdict(
        "AC-1 solver agreement vs grid oracle",
        ok,
        f"em {worst_em:.2e} (tol 1e-3); grid objective above em {worst_gap:.2e} (tol 1e-6);"
        f" {took:.1f}s",
    )


def test_ac2_error_decays_inversely_with_test_size():
    seed, m, trials = 11, 3, 50
    sizes = (250, 500, 1000, 2000, 4000, 8000)
    mix = GaussianMixtureSpec(equidistant_means(m, 2, 3.0), 1.0)
    tr = uniform_marginal(m)
    train = gen_gaussian_mixture(mix, tr, 20000, seed=child_seed(seed, 0xD0))
    pcfg = PredictorConfig(
        architecture="linear", learning_rate=0.1, max_epochs=30,
        loss_threshold=0.0, zeta=0.0, seed=child_seed(seed, 0xD1),
    )
    pred = train_predictor(train, pcfg)
    means = []
    for ci, n_te in enumerate(sizes):
        vals = []
        for ti in range(trials):
            marg = sample_dirichlet_marginal(1.0, m, seed=child_seed(seed, 0xA0, ci, ti, 0))
            test = gen_gaussian_mixture(mix, marg, n_te, seed=child_seed(seed, 0xA0, ci, ti, 1))
            rep = estimate_mlls_em(predict_proba(pred, test.features), tr)
            vals.append(ratio_mse(rep.ratio, ratio_from_marginals(marg, tr)))
        means.append(float(np.mean(vals)))
    slope = loglog_slope(list(zip(sizes, means)))
    ok = -1.4 <= slope <= -0.6
    _verdict("AC-2 1/n error decay", ok, f"log-log slope {slope:.3f}, want [-1.4, -0.6]")


def test_ac3_entropy_term_helps_under_shift():
    seed, m, trials, n_te = 7, 3, 100, 5000
    mix = GaussianMixtureSpec(equidistant_means(m, 8, 2.0), 1.0)
    tr = uniform_marginal(m)
    train = gen_gaussian_mixture(mix, tr, 500, seed=child_seed(seed, 0xD0))
    # deliberately overparameterized: 500 points, width-128 net, long budget
    pcfg = PredictorConfig(
        architecture="mlp", hidden_units=128, learning_rate=0.1,
        max_epochs=1200, loss_threshold=0.05, zeta=1.0, seed=child_seed(seed, 0xD1),
    )
    pred_reg = train_predictor(train, pcfg)
    pred_base = train_predictor(train, replace(pcfg, zeta=0.0))
    means = {}
    for ci, alpha in enumerate((0.1, 1.0, 10.0)):
        reg_mses, base_mses = [], []
        for ti in range(trials):
            marg = sample_dirichlet_marginal(alpha, m, seed=child_seed(seed, 0xA0, ci, ti, 0))
            test = gen_gaussian_mixture(mix, marg, n_te, seed=child_seed(seed, 0xA0, ci, ti, 1))
            truth = ratio_from_marginals(marg, tr)
            for out, pred in ((reg_mses, pred_reg), (base_mses, pred_base)):
                rep = estimate_mlls_em(predict_proba(pred, test.features), tr)
                out.append(ratio_mse(rep.ratio, truth))
        means[alpha] = (float(np.mean(reg_mses)), float(np.mean(base_mses)))
    wins = sum(reg <= base for reg, base in means.values())
    strict = means[0.1][0] < means[0.1][1]
    ok = wins == 3 and strict
    detail = "; ".join(f"a={a}: {r:.4f} vs {b:.4f}" for a, (r, b) in means.items())
    _verdict("AC-3 regularized beats plain under shift", ok, f"{detail}; strict at a=0.1: {strict}")


def test_ac4_confusion_matrix_baselines():
    mix = GaussianMixtureSpec(equidistant_means(3, 2, 6.0), 1.0)
    train = gen_gaussian_mixture(mix, uniform_marginal(3), 10000, seed=child_seed(13, 0))
    pcfg = PredictorConfig(
        architecture="linear", learning_rate=0.1, max_epochs=20,
        loss_threshold=0.0, zeta=0.0, seed=child_seed(13, 1),
    )
    pred = train_predictor(train, pcfg)
    test = gen_gaussian_mixture(mix, make_marginal([0.5, 0.3, 0.2]), 10000, seed=child_seed(13, 2))
    tr = train.empirical_marginal()
    truth = ratio_from_marginals(test.empirical_marginal(), tr)
    preds_val = predict_proba(pred, train.features)
    preds_te = predict_proba(pred, test.features)
    bbse = estimate_bbse(preds_val, train.labels, preds_te, tr)
    rlls0 = estimate_rlls(preds_val, train.labels, preds_te, tr, 0.0)
    rlls_big = estimate_rlls(preds_val, train.labels, preds_te, tr, 1e9)
    err = _linf(bbse.ratio.ratios - truth.ratios)
    gap0 = _linf(rlls0.ratio.ratios - bbse.ratio.ratios)
    shrink = _linf(rlls_big.ratio.ratios, 1.0)
    ok = err < 0.05 and gap0 < 1e-6 and shrink < 1e-3
    _verdict(
        "AC-4 moment-matching baselines",
        ok,
        f"bbse err {err:.2e} (tol 5e-2); rlls(0)-bbse {gap0:.2e} (tol 1e-6); "
        f"rlls(1e9)->1 {shrink:.2e} (tol 1e-3)",
    )


def test_ac5_weighted_training_closes_the_gap():
    m = 3
    source = DataSource(m=m, d=2, separation=2.5)

    def node(hot_train, hot_test, seed):
        tr = [0.1] * m
        tr[hot_train] = 0.8
        te = [0.1] * m
        te[hot_test] = 0.8
        return NodeSpec(make_marginal(tr), make_marginal(te), 2000, 2000, seed=seed)

    gaps, offs = [], []
    for seed in range(5):
        nodes = (node(0, 2, 1), node(0, 2, 2), node(1, 2, 3))
        cfg = FederationConfig(
            nodes=nodes,
            global_model=PredictorConfig(architecture="linear", learning_rate=0.1,
                                         batch_size=64, seed=0),
            rounds=300, local_steps=1,
            server_optimizer=ServerOptimizer(kind="adam", learning_rate=0.05),
            ratio_predictor=PredictorConfig(architecture="mlp", hidden_units=32,
                                            learning_rate=0.1, max_epochs=120,
                                            loss_threshold=0.05, zeta=0.25, seed=0),
        )
        fed = build_federation(cfg, source, seed)
        names = ("none", "true_ratios", "estimated_ratios")
        results = train_global(fed, [weight_vectors(fed, w) for w in names], cfg)
        accs = {w: result.avg_accuracy for w, result in zip(names, results)}
        gaps.append(accs["true_ratios"] - accs["none"])
        offs.append(abs(accs["estimated_ratios"] - accs["true_ratios"]))
    med_gap = statistics.median(gaps)
    med_off = statistics.median(offs)
    ok = med_gap >= 0.05 and med_off <= 0.03
    _verdict(
        "AC-5 importance-weighted training",
        ok,
        f"median acc gain {med_gap:.4f} (need >= 0.05); "
        f"median |estimated - true| {med_off:.4f} (need <= 0.03)",
    )


def test_ac6_no_shift_consistency_and_inert_uniform_weights():
    # (a) every estimator should sit near ones when nothing shifted
    m = 3
    mix = GaussianMixtureSpec(equidistant_means(m, 2, 3.0), 1.0)
    u = uniform_marginal(m)
    train = gen_gaussian_mixture(mix, u, 8000, seed=child_seed(6, 0))
    test = gen_gaussian_mixture(mix, u, 5000, seed=child_seed(6, 1))
    pcfg = PredictorConfig(
        architecture="mlp", hidden_units=32, learning_rate=0.1,
        max_epochs=60, loss_threshold=0.05, zeta=1.0, seed=child_seed(6, 2),
    )
    pred_reg = train_predictor(train, pcfg)
    pred_base = train_predictor(train, replace(pcfg, zeta=0.0))
    emp = train.empirical_marginal()
    drift = {}
    for name, pred in (("vrls_em", pred_reg), ("mlls_em", pred_base)):
        rep = estimate_mlls_em(predict_proba(pred, test.features), emp, EstimatorOptions())
        drift[name] = _linf(rep.ratio.ratios, 1.0)
    preds_val = predict_proba(pred_base, train.features)
    preds_te = predict_proba(pred_base, test.features)
    drift["bbse"] = _linf(estimate_bbse(preds_val, train.labels, preds_te, emp).ratio.ratios, 1.0)
    drift["rlls"] = _linf(estimate_rlls(preds_val, train.labels, preds_te, emp, 0.0).ratio.ratios, 1.0)
    worst = max(drift.values())

    # (b) true weights on an unshifted federation are a constant, and once
    # normalized they reproduce the unweighted run bit for bit
    p = make_marginal([0.25, 0.25, 0.5])  # dyadic, so ratios are exactly 1.0
    nodes = tuple(NodeSpec(p, p, 1000, 500, seed=i) for i in range(3))
    base = FederationConfig(nodes=nodes, global_model=PredictorConfig(), rounds=40)
    fed = build_federation(base, DataSource(m=3, d=2, separation=2.5), 3)
    (plain,) = train_global(fed, [weight_vectors(fed, "none")], base)
    (trued,) = train_global(fed, [weight_vectors(fed, "true_ratios")],
                            replace(base, normalize_weights=True))
    weights_const = bool(np.all(weight_vectors(fed, "true_ratios") == 3.0))
    bitwise = (
        np.array_equal(plain.predictor.parameters, trued.predictor.parameters)
        and plain.per_node_accuracy == trued.per_node_accuracy
        and plain.loss_trace == trued.loss_trace
    )
    ok = worst < 0.05 and weights_const and bitwise
    _verdict(
        "AC-6 no-shift consistency",
        ok,
        f"worst drift from ones {worst:.4f} (tol 0.05); weights == k: {weights_const}; "
        f"normalized run bitwise equal: {bitwise}",
    )


def test_ac7_gradients_and_ascent_sanity():
    t0 = time.time()
    data = tiny_dataset(seed=5, n=8)
    worst_pred = 0.0
    for arch, hidden in (("linear", 1), ("mlp", 6)):
        cfg = PredictorConfig(architecture=arch, hidden_units=hidden, seed=6)
        pred = init_predictor(cfg, 3, 2)
        for zeta in (0.0, 1.0, 5.0):
            x, y = data.features, data.labels
            analytic = loss_and_grad(pred, pred.parameters, x, y, zeta)[2]
            numeric = central_diff(
                lambda theta: loss_and_grad(pred, theta, x, y, zeta)[0], pred.parameters
            )
            worst_pred = max(worst_pred, rel_err(analytic, numeric))

    rng = stream(0xAC7, 1000)
    preds = random_preds(rng, 50, 3)
    tr = random_marginal(rng, 3)
    raw = rng.dirichlet((2.0, 2.0, 2.0))
    r = raw / (raw @ tr.probs)
    obj_err = rel_err(
        empirical_objective_gradient(r, preds),
        central_diff(lambda v: empirical_objective(v, preds), r),
    )

    bad_traces = 0
    for i in range(100):
        rng = stream(0xAC7, i)
        m = (2, 3, 5)[i % 3]
        inst = random_preds(rng, 60, m, conc=1.2)
        tr_i = random_marginal(rng, m)
        rep = estimate_mlls_em(inst, tr_i)
        if np.any(np.diff(rep.objective_trace) < -1e-12):
            bad_traces += 1
    took = time.time() - t0
    ok = worst_pred < 1e-4 and obj_err < 1e-4 and bad_traces == 0 and took < 60
    _verdict(
        "AC-7 gradient checks and ascent",
        ok,
        f"loss grad rel err {worst_pred:.2e}, objective grad rel err {obj_err:.2e} (tol 1e-4); "
        f"non-monotone traces {bad_traces}/100; {took:.1f}s",
    )


IDX_FILES = (
    ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
)
needs_corpus = pytest.mark.skipif(
    not os.environ.get("LABELSHIFT_MNIST_DIR"),
    reason="set LABELSHIFT_MNIST_DIR to a directory with the four IDX files",
)


@pytest.mark.slow
@needs_corpus
def test_ac8_idx_corpus_sweep():
    root = Path(os.environ["LABELSHIFT_MNIST_DIR"])
    train_pool = load_idx(root / IDX_FILES[0][0], root / IDX_FILES[0][1])
    test_pool = load_idx(root / IDX_FILES[1][0], root / IDX_FILES[1][1])
    train = resample_by_marginal(train_pool, uniform_marginal(10), 10000, seed=child_seed(8, 0))
    pcfg = PredictorConfig(
        architecture="mlp", hidden_units=128, learning_rate=0.1,
        max_epochs=60, loss_threshold=0.05, zeta=1.0, seed=child_seed(8, 1),
    )
    pred_reg = train_predictor(train, pcfg)
    pred_base = train_predictor(train, replace(pcfg, zeta=0.0))
    tr = train.empirical_marginal()
    reg_mses, base_mses = [], []
    for ti in range(20):
        marg = sample_dirichlet_marginal(0.1, 10, seed=child_seed(8, 0xA0, ti, 0))
        test = resample_by_marginal(test_pool, marg, 5000, seed=child_seed(8, 0xA0, ti, 1))
        truth = ratio_from_marginals(test.empirical_marginal(), tr)
        for out, pred in ((reg_mses, pred_reg), (base_mses, pred_base)):
            rep = estimate_mlls_em(predict_proba(pred, test.features), tr)
            out.append(ratio_mse(rep.ratio, truth))
    reg, base = float(np.mean(reg_mses)), float(np.mean(base_mses))
    ok = reg <= base
    _verdict("AC-8 image corpus sweep", ok, f"regularized {reg:.4f} vs plain {base:.4f} at a=0.1")


@pytest.mark.slow
@needs_corpus
def test_federate_on_an_idx_corpus(tmp_path):
    """The end-to-end IDX federate config (helpers.idx_federate_raw) on the real
    corpus: classes 0-2 carry all the mass."""
    root = Path(os.environ["LABELSHIFT_MNIST_DIR"])
    paths = {}
    for split, (images, labels) in zip(("train", "test"), IDX_FILES):
        paths.update({f"{split}_images": str(root / images), f"{split}_labels": str(root / labels)})
    cfg = cli.resolve_config(idx_federate_raw(paths), "federate", out=str(tmp_path))
    acc = {w: v["avg_accuracy"] for w, v in cli.run_federate(cfg)["weightings"].items()}
    ok = min(acc.values()) > 0.9
    _verdict("IDX federate", ok, ", ".join(f"{w} {a:.4f}" for w, a in acc.items())
             + "; each needs > 0.9")
