import json
import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from labelshift import (
    DataSource,
    FederationConfig,
    NodeSpec,
    Predictor,
    PredictorConfig,
    ServerOptimizer,
    aggregate_ratios,
    build_federation,
    evaluate,
    exchange_marginals,
    crossnode_listing_ratios,
    gen_gaussian_mixture,
    init_predictor,
    loss_and_grad,
    make_marginal,
    posterior_matrix,
    predict_labels,
    predict_proba,
    estimate_mlls_em,
    train_global,
    train_predictor,
    uniform_marginal,
    weight_vectors,
)
from labelshift import cli, federated
from labelshift.data import open_split
from labelshift._rng import child_seed
from labelshift.types import LabelMarginal

from .helpers import (
    marginal,
    record_pool_loads,
    three_class_marginal,
    tiny_mixture,
    write_ink_corpus,
)

SRC3 = DataSource(m=3, d=2, separation=3.0)
SRC2 = DataSource(m=2, d=2, separation=3.0)
MIX3 = tiny_mixture(m=3, d=2, separation=3.0)  # SRC3's mixture, for posterior oracles
LINEAR = PredictorConfig(architecture="linear")


def skew_node(hot_train, hot_test, n_tr=400, n_te=300, seed=0, m=3, peak=0.8):
    base = (1.0 - peak) / (m - 1)
    tr = [base] * m
    tr[hot_train] = peak
    te = [base] * m
    te[hot_test] = peak
    return NodeSpec(marginal(*tr), marginal(*te), n_tr, n_te, seed=seed)


# ------------------------------------------------------------ configuration


def test_node_spec_validation():
    with pytest.raises(ValueError, match="different class counts"):
        NodeSpec(marginal(0.5, 0.5), marginal(0.2, 0.3, 0.5), 10, 10)
    with pytest.raises(ValueError, match="at least one"):
        NodeSpec(marginal(0.5, 0.5), marginal(0.5, 0.5), 0, 10)


def test_server_optimizer_validation():
    with pytest.raises(ValueError, match="unknown server optimizer"):
        ServerOptimizer(kind="rmsprop")


def test_federation_config_validation():
    node = NodeSpec(marginal(0.5, 0.5), marginal(0.5, 0.5), 10, 10)
    for k, sampled in ((1, 2), (3, 3), (3, -1)):  # 0, not k, samples every node
        with pytest.raises(ValueError, match=r"^sample_nodes_per_round must lie in \[0, node"
                                             r" count\); 0 samples every node$"):
            FederationConfig(nodes=(node,) * k, global_model=LINEAR,
                             sample_nodes_per_round=sampled)


def test_nodes_per_round_defaults_to_all():
    nodes = tuple(NodeSpec(marginal(0.5, 0.5), marginal(0.5, 0.5), 10, 10) for _ in range(4))
    cfg = FederationConfig(nodes=nodes, global_model=LINEAR)
    assert cfg.k == 4 and cfg.nodes_per_round == 4
    assert replace(cfg, sample_nodes_per_round=2).nodes_per_round == 2


# -------------------------------------------------------------------- build


def test_no_ls_accepts_matching_marginals_per_node():
    nodes = (
        NodeSpec(marginal(0.9, 0.1), marginal(0.9, 0.1), 20, 20),
        NodeSpec(marginal(0.1, 0.9), marginal(0.1, 0.9), 20, 20),
    )
    fed = build_federation(FederationConfig(nodes=nodes, global_model=LINEAR), SRC2)
    assert fed.cfg.m == 2
    assert [n.train.n for n in fed.nodes] == [20, 20]
    assert [n.test.n for n in fed.nodes] == [20, 20]


def test_build_is_deterministic_and_seed_sensitive():
    nodes = (NodeSpec(marginal(0.5, 0.5), marginal(0.5, 0.5), 50, 30, seed=4),)
    cfg = FederationConfig(nodes=nodes, global_model=LINEAR)
    a = build_federation(cfg, SRC2, 9)
    b = build_federation(cfg, SRC2, 9)
    assert np.array_equal(a.nodes[0].train.features, b.nodes[0].train.features)
    c = build_federation(cfg, SRC2, 10)
    assert (a.seed, c.seed) == (9, 10)
    assert not np.array_equal(a.nodes[0].train.features, c.nodes[0].train.features)


def test_build_rejects_marginals_of_another_class_count(tmp_path):
    u = uniform_marginal(3)
    cfg = FederationConfig(nodes=(NodeSpec(u, u, 20, 20),), global_model=LINEAR)
    with pytest.raises(ValueError, match="marginal has 3 classes but the mixture has 2"):
        build_federation(cfg, SRC2)
    idx = DataSource(source="idx", **write_ink_corpus(tmp_path, 1, n=50))
    with pytest.raises(ValueError, match="marginal has 3 classes but the pool has 10"):
        build_federation(cfg, idx)


def test_build_draws_every_node_from_an_idx_source_one_split_at_a_time(tmp_path, monkeypatch):
    paths = write_ink_corpus(tmp_path, 1, n=200)
    nodes = tuple(NodeSpec(marginal(*three_class_marginal(hot)), marginal(*three_class_marginal(2)),
                           40 + i, 30, seed=i) for i, hot in enumerate((0, 0, 1)))
    cfg = FederationConfig(nodes=nodes, global_model=LINEAR)
    loads = record_pool_loads(monkeypatch)
    fed = build_federation(cfg, DataSource(source="idx", **paths), 2)
    assert loads == [(paths["train_images"], 0), (paths["test_images"], 0)]
    assert fed.cfg.m == 10
    assert [(n.train.n, n.test.n) for n in fed.nodes] == [(40, 30), (41, 30), (42, 30)]
    assert all(n.train.features.dtype == np.uint8 and n.train.d == 64 for n in fed.nodes)
    assert all(set(n.test.labels.tolist()) <= {0, 1, 2} for n in fed.nodes)


# -------------------------------------------------------------- aggregation


def test_aggregate_two_node_hand_value():
    w1 = aggregate_ratios([marginal(0.6, 0.4), marginal(0.2, 0.8)], marginal(0.5, 0.5))
    assert np.allclose(w1, [1.6, 2.4])


def test_aggregate_single_node_no_shift():
    tr = marginal(0.3, 0.7)
    assert np.allclose(aggregate_ratios([tr], tr), 1.0)


def test_aggregate_uniform_three_nodes():
    u = uniform_marginal(4)
    w = aggregate_ratios([u, u, u], u)
    assert np.allclose(w, 3.0)


def test_aggregate_weight_sums_to_node_count():
    rng = np.random.default_rng(0)
    marginals = [make_marginal(rng.integers(1, 20, size=3)) for _ in range(5)]
    tr = make_marginal(rng.integers(1, 20, size=3))
    w = aggregate_ratios(marginals, tr)
    assert float(w @ tr.probs) == pytest.approx(5.0, abs=1e-9)


def test_aggregate_errors():
    tr = marginal(0.5, 0.5)
    with pytest.raises(ValueError, match="at least one test marginal"):
        aggregate_ratios([], tr)
    with pytest.raises(ValueError, match="class counts disagree"):
        aggregate_ratios([marginal(0.2, 0.3, 0.5)], tr)
    with pytest.raises(ValueError, match="unsupported class"):
        aggregate_ratios([marginal(0.5, 0.5)], marginal(0.0, 1.0))


def test_true_weights_uniform_two_nodes_all_twos():
    u = uniform_marginal(3)
    nodes = (NodeSpec(u, u, 10, 10), NodeSpec(u, u, 10, 10))
    cfg = FederationConfig(nodes=nodes, global_model=LINEAR)
    assert np.all(weight_vectors(build_federation(cfg, SRC3, 0), "true_ratios") == 2.0)


# ----------------------------------------------------- marginal exchange


def test_local_marginal_without_intra_node_shift():
    node = NodeSpec(marginal(0.5, 0.3, 0.2), marginal(0.5, 0.3, 0.2), 4000, 5000, seed=2)
    fed = build_federation(
        FederationConfig(
            nodes=(node,), global_model=LINEAR,
            ratio_predictor=PredictorConfig(architecture="mlp", hidden_units=32,
                                            learning_rate=0.1, max_epochs=120, zeta=0.25,
                                            seed=8)),
        SRC3, 7)
    (est,) = exchange_marginals(fed)
    assert float(est.probs.sum()) == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(est.probs - node.train_marginal.probs)) < 0.05


def test_local_marginal_with_oracle_posterior():
    node = NodeSpec(marginal(0.6, 0.3, 0.1), marginal(0.2, 0.2, 0.6), 2000, 5000, seed=9)
    fed = build_federation(
        FederationConfig(nodes=(node,), global_model=LINEAR), SRC3, 4)
    tr_emp = fed.nodes[0].train.empirical_marginal()
    (est,) = exchange_marginals(
        fed, posterior_fn=lambda feats: posterior_matrix(MIX3, tr_emp, feats))
    assert np.max(np.abs(est.probs - node.test_marginal.probs)) < 0.03


def test_exchange_publishes_one_marginal_per_node():
    # the entire pre-training communication: K length-m marginals, nothing else
    nodes = tuple(skew_node(i % 3, 2, n_tr=200, n_te=150, seed=i) for i in range(3))
    cfg = FederationConfig(nodes=nodes, global_model=LINEAR)
    fed = build_federation(cfg, SRC3, 1)
    tr_emp = [n.train.empirical_marginal() for n in fed.nodes]
    published = exchange_marginals(
        fed, posterior_fn=lambda feats: posterior_matrix(MIX3, tr_emp[0], feats))
    assert isinstance(published, tuple) and len(published) == 3
    assert all(isinstance(p, LabelMarginal) and p.m == 3 for p in published)


SMALL_RATIO = PredictorConfig(architecture="mlp", hidden_units=8, zeta=0.25, max_epochs=5,
                              seed=4)


def test_estimated_weights_recombine_exchanged_marginals():
    nodes = tuple(skew_node(i % 3, 2, n_tr=300, n_te=200, seed=i) for i in range(3))
    cfg = FederationConfig(nodes=nodes, global_model=LINEAR, ratio_predictor=SMALL_RATIO)
    fed = build_federation(cfg, SRC3, 5)
    w = weight_vectors(fed, "estimated_ratios")
    published = exchange_marginals(fed)
    assert w.shape == (3, 3)
    for k in range(3):
        expected = aggregate_ratios(published, fed.nodes[k].train.empirical_marginal())
        assert np.array_equal(w[k], expected)


def test_ratio_predictors_train_once_and_reproduce_local_estimates():
    nodes = tuple(skew_node(i, 2, n_tr=200, n_te=150, seed=i) for i in range(2))
    cfg = FederationConfig(nodes=nodes, global_model=LINEAR, ratio_predictor=SMALL_RATIO)
    fed = build_federation(cfg, SRC3, 1)
    assert fed.ratio_predictors is fed.ratio_predictors
    published = exchange_marginals(fed)
    base = cfg.ratio_predictor
    for i, node in enumerate(fed.nodes):
        pcfg = replace(base, seed=child_seed(base.seed, 1, i, node.spec.seed))
        alone = estimate_mlls_em(
            predict_proba(train_predictor(node.train, pcfg), node.test.features),
            node.train.empirical_marginal(), cfg.ratio_solver).ratio.implied_test_marginal()
        assert np.array_equal(published[i].probs, alone.probs)


def test_weight_vectors_per_weighting():
    nodes = tuple(skew_node(i, 2, n_tr=200, n_te=150, seed=i) for i in range(2))
    cfg = FederationConfig(nodes=nodes, global_model=LINEAR, ratio_predictor=SMALL_RATIO)
    fed = build_federation(cfg, SRC3, 1)
    assert np.array_equal(weight_vectors(fed, "none"), np.ones((2, 3)))
    assert np.array_equal(weight_vectors(fed, "true_ratios"), np.stack([
        aggregate_ratios([n.test_marginal for n in nodes], n.train_marginal) for n in nodes]))
    published = exchange_marginals(fed)
    expected = np.stack([aggregate_ratios(published, node.train.empirical_marginal())
                         for node in fed.nodes])
    assert np.array_equal(weight_vectors(fed, "estimated_ratios"), expected)
    with pytest.raises(ValueError, match="unknown weighting 'bogus'"):
        weight_vectors(fed, "bogus")


# ------------------------------------------------------------ training loop


def train_under(cfg, source, seed, weighting="none"):
    fed = build_federation(cfg, source, seed)
    (result,) = train_global(fed, [weight_vectors(fed, weighting)], cfg)
    return result


def small_no_shift_cfg(rounds=6, **kw):
    u = uniform_marginal(2)
    nodes = (NodeSpec(u, u, 120, 80, seed=1), NodeSpec(u, u, 120, 80, seed=2))
    return FederationConfig(nodes=nodes, global_model=LINEAR, rounds=rounds, **kw)


def test_weighting_none_equals_explicit_ones():
    cfg = small_no_shift_cfg()
    via_mode = train_under(cfg, SRC2, 3)
    fed = build_federation(cfg, SRC2, 3)
    (via_ones,) = train_global(fed, [np.ones((2, 2))], cfg)
    assert np.array_equal(via_mode.predictor.parameters, via_ones.predictor.parameters)
    assert via_mode.loss_trace == via_ones.loss_trace


def test_single_node_true_ratios_equals_plain_erm():
    u = uniform_marginal(2)
    nodes = (NodeSpec(u, u, 150, 100, seed=4),)
    cfg = FederationConfig(nodes=nodes, global_model=LINEAR, rounds=8)
    plain = train_under(cfg, SRC2, 6)
    weighted = train_under(cfg, SRC2, 6, "true_ratios")
    assert np.array_equal(plain.predictor.parameters, weighted.predictor.parameters)


def test_result_invariants():
    cfg = small_no_shift_cfg(rounds=5)
    result = train_under(cfg, SRC2, 3)
    assert len(result.loss_trace) == 5
    assert len(result.accuracy_trace) == 5
    assert all(0.0 <= a <= 1.0 for a in result.per_node_accuracy)
    assert result.avg_accuracy == pytest.approx(
        float(np.mean(result.per_node_accuracy)), abs=1e-12)


def test_training_deterministic_with_node_sampling():
    cfg = small_no_shift_cfg(rounds=10, sample_nodes_per_round=1)
    a = train_under(cfg, SRC2, 3)
    b = train_under(cfg, SRC2, 3)
    assert np.array_equal(a.predictor.parameters, b.predictor.parameters)
    assert a.loss_trace == b.loss_trace
    c = train_under(cfg, SRC2, 99)
    assert not np.array_equal(a.predictor.parameters, c.predictor.parameters)
    # the federation's seed also keys the node and batch draws on the same splits
    (d,) = train_global(replace(build_federation(cfg, SRC2, 3), seed=99), [np.ones((2, 2))], cfg)
    assert not np.array_equal(a.predictor.parameters, d.predictor.parameters)


@pytest.mark.parametrize("rounds", [0, 3])
def test_train_global_scores_the_final_model_once_per_round(monkeypatch, rounds):
    cfg = small_no_shift_cfg(rounds=rounds)
    fed = build_federation(cfg, SRC2, 3)
    calls = []
    monkeypatch.setattr(federated, "evaluate",
                        lambda pred, fed: calls.append(pred) or evaluate(pred, fed))
    results = train_global(fed, [np.ones((2, 2)), np.full((2, 2), 2.0)], cfg)
    assert len(calls) == max(rounds, 1)
    for s, result in enumerate(results):
        per_node, avg = evaluate(result.predictor, fed)
        assert result.per_node_accuracy == per_node and result.avg_accuracy == avg
        assert np.array_equal(calls[-1].parameters[s], result.predictor.parameters)
        assert result.accuracy_trace[-1:] == ((avg,) if rounds else ())


def test_train_global_rejects_bad_weights():
    cfg = small_no_shift_cfg(rounds=2)
    fed = build_federation(cfg, SRC2, 3)
    with pytest.raises(ValueError, match=r"weights must have shape \(2, 2\)"):
        train_global(fed, [np.ones((2, 2)), np.ones((3, 2))], cfg)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        train_global(fed, [np.ones((2, 2)), -np.ones((2, 2))], cfg)


def test_train_global_rejects_a_cfg_for_another_node_count():
    cfg = small_no_shift_cfg(rounds=2)
    fed = build_federation(cfg, SRC2, 3)
    u = uniform_marginal(2)
    three = replace(cfg, nodes=cfg.nodes + (NodeSpec(u, u, 120, 80, seed=3),))
    with pytest.raises(ValueError, match="cfg lists 3 nodes but the federation has 2"):
        train_global(fed, [np.ones((2, 2))], three)


def test_divergence_reports_round():
    u = uniform_marginal(2)
    cfg = FederationConfig(
        nodes=(NodeSpec(u, u, 200, 100),),
        global_model=PredictorConfig(architecture="mlp", hidden_units=8),
        rounds=10,
        server_optimizer=ServerOptimizer(kind="sgd", learning_rate=1e160))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="diverged at round 1"):
            train_under(cfg, SRC2, 0)


def test_local_steps_change_the_trajectory():
    cfg = small_no_shift_cfg(rounds=4)
    one = train_under(cfg, SRC2, 3)
    several = train_under(replace(cfg, local_steps=3), SRC2, 3)
    assert not np.array_equal(one.predictor.parameters, several.predictor.parameters)


# --------------------------------------------------------------- evaluation


def test_evaluate_random_model_near_chance():
    u = uniform_marginal(10)
    fed = build_federation(
        FederationConfig(nodes=(NodeSpec(u, u, 10, 2000),), global_model=LINEAR),
        DataSource(m=10, d=9, separation=1.0), 0)
    _, acc = evaluate(init_predictor(PredictorConfig(architecture="linear", seed=5), 10, 9), fed)
    assert abs(acc - 0.1) <= 0.03


def test_evaluate_constant_model_matches_class_share():
    skew = marginal(0.977, 0.023)
    fed = build_federation(
        FederationConfig(nodes=(NodeSpec(skew, skew, 10, 5000),), global_model=LINEAR), SRC2, 1)
    # zero weights, bias forces class 0 on every input
    const = Predictor(np.array([0.0, 0.0, 0.0, 0.0, 50.0, -50.0]), "linear", 0, 2, 2)
    per_node, acc = evaluate(const, fed)
    share = 1.0 - float(fed.nodes[0].test.labels.mean())
    assert per_node[0] == pytest.approx(share, abs=1e-12)
    assert abs(acc - 0.977) < 0.03


def test_evaluate_separable_mixture_near_perfect():
    u = uniform_marginal(3)
    fed = build_federation(
        FederationConfig(nodes=(NodeSpec(u, u, 4000, 3000),), global_model=LINEAR),
        DataSource(m=3, d=2, separation=6.0), 2)
    pred = train_predictor(
        fed.nodes[0].train,
        PredictorConfig(architecture="linear", max_epochs=30, loss_threshold=0.0,
                        zeta=0.0, seed=3))
    _, acc = evaluate(pred, fed)
    assert acc >= 0.99


@pytest.mark.parametrize("model", [LINEAR, PredictorConfig(architecture="mlp", hidden_units=128)],
                         ids=["linear", "mlp"])
def test_evaluate_scores_each_node_split_on_its_own(monkeypatch, model):
    # a product over stacked splits can round differently from the per-node
    # products, so each split keeps its own forward pass
    nodes = tuple(skew_node(i, 2, n_tr=20, n_te=n_te, seed=i) for i, n_te in enumerate((50, 7, 31)))
    fed = build_federation(
        FederationConfig(nodes=nodes, global_model=model), SRC3, 3)
    pred = init_predictor(replace(model, seed=2), 3, 2)
    one_by_one = [float((predict_labels(pred, node.test.features) == node.test.labels).mean())
                  for node in fed.nodes]
    calls = []
    original = federated.predict_labels
    monkeypatch.setattr(federated, "predict_labels",
                        lambda *args: calls.append(args) or original(*args))
    per_node, avg = evaluate(pred, fed)
    assert len(calls) == len(fed.nodes)
    assert all(features is node.test.features for (_, features), node in zip(calls, fed.nodes))
    assert list(per_node) == one_by_one
    assert avg == float(np.mean(one_by_one))


# -------------------------------------------------- risk-gap consistency


def prop_nodes(n_tr):
    return (
        skew_node(0, 2, n_tr=n_tr, n_te=10, seed=1, m=3),
        skew_node(0, 1, n_tr=n_tr, n_te=10, seed=2, m=3),
        skew_node(1, 0, n_tr=n_tr, n_te=10, seed=3, m=3),
    )


def weighted_risk_gap(source, fixed, n_tr, seed):
    cfg = FederationConfig(nodes=prop_nodes(n_tr), global_model=LINEAR)
    fed = build_federation(cfg, source, seed)
    mix = open_split(source, "test")
    w = weight_vectors(fed, "true_ratios") / cfg.k
    emp = float(np.mean([
        loss_and_grad(fixed, fixed.parameters, nd.train.features, nd.train.labels,
                      weights=w[k][nd.train.labels])[0]
        for k, nd in enumerate(fed.nodes)
    ]))
    true_risk = float(np.mean([
        loss_and_grad(fixed, fixed.parameters, test.features, test.labels)[0]
        for test in (gen_gaussian_mixture(mix, spec.test_marginal, 200_000, seed=0xBEEF + i)
                     for i, spec in enumerate(cfg.nodes))
    ]))
    return abs(emp - true_risk)


def test_weighted_empirical_risk_converges_to_true_risk():
    """The importance-weighted training risk approaches the aggregate test
    risk as per-node samples grow (fixed model, exact weights)."""
    source = DataSource(m=3, d=2, separation=2.5)
    fixed = init_predictor(PredictorConfig(architecture="linear", seed=123), 3, 2)
    medians = []
    for n_tr in (500, 2000, 8000):
        gaps = [weighted_risk_gap(source, fixed, n_tr, seed) for seed in range(5)]
        medians.append(statistics.median(gaps))
    assert medians[0] > medians[1] > medians[2]


# ----------------------------------------------------------- cross-node


def test_crossnode_listing_shape_and_flagged_nature():
    nodes = tuple(skew_node(i, (i + 1) % 3, n_tr=300, n_te=200, seed=i, m=3)
                  for i in range(2))
    cfg = FederationConfig(
        nodes=nodes, global_model=LINEAR,
        ratio_predictor=PredictorConfig(architecture="mlp", hidden_units=16,
                                        zeta=0.25, max_epochs=20))
    fed = build_federation(cfg, SRC3, 8)
    listing = crossnode_listing_ratios(fed)
    assert listing.shape == (2, 3)
    assert np.all(listing >= 0)


def test_crossnode_listing_reuses_the_local_estimates(monkeypatch):
    nodes = tuple(skew_node(i, (i + 1) % 3, n_tr=200, n_te=150, seed=i) for i in range(3))
    cfg = FederationConfig(
        nodes=nodes, global_model=LINEAR,
        ratio_predictor=PredictorConfig(architecture="mlp", hidden_units=8, zeta=0.25,
                                        max_epochs=5))
    fed = build_federation(cfg, SRC3, 8)
    fed.ratio_predictors  # trained before counting
    scored, solved = [], []
    for name, calls in (("predict_proba", scored), ("estimate_mlls_em", solved)):
        original = getattr(federated, name)
        monkeypatch.setattr(federated, name,
                            lambda *args, f=original, c=calls: c.append(args) or f(*args))
    published = exchange_marginals(fed)
    crossnode_listing_ratios(fed)
    assert len(scored) == len(solved) == 3 * 3  # one per (predictor, test split) pair
    for node, predictor, report, mg in zip(fed.nodes, fed.ratio_predictors,
                                           fed.local_estimates, published):
        alone = estimate_mlls_em(predict_proba(predictor, node.test.features),
                                 node.train.empirical_marginal(), cfg.ratio_solver)
        assert np.array_equal(report.ratio.ratios, alone.ratio.ratios)
        assert np.array_equal(mg.probs, alone.ratio.implied_test_marginal().probs)


def test_crossnode_listing_needs_full_class_support():
    nodes = (NodeSpec(marginal(1.0, 0.0), marginal(1.0, 0.0), 50, 50, seed=0),
             NodeSpec(marginal(0.5, 0.5), marginal(0.5, 0.5), 50, 50, seed=1))
    cfg = FederationConfig(nodes=nodes, global_model=LINEAR)
    fed = build_federation(cfg, SRC2, 2)
    with pytest.raises(ValueError, match="every class on every node"):
        crossnode_listing_ratios(fed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_crossnode_listing_matches_the_empirical_marginal_oracle(seed):
    """With well-separated classes every predictor labels every test row right,
    so each solve recovers the empirical test marginal it scores and row a of
    the listing is sum_b (node b's test marginal) / (node a's train marginal)."""
    shipped = Path(__file__).resolve().parent.parent / "configs" / "federate.json"
    nodes = cli.resolve_config(json.loads(shipped.read_text()), "federate").federation.nodes
    cfg = FederationConfig(nodes=nodes, global_model=LINEAR, ratio_predictor=PredictorConfig(
        architecture="linear", zeta=0.0, max_epochs=30, loss_threshold=0.0))
    fed = build_federation(cfg, DataSource(m=3, d=2, separation=20.0), seed)
    test_mass = sum(node.test.empirical_marginal().probs for node in fed.nodes)
    oracle = np.stack([test_mass / node.train.empirical_marginal().probs for node in fed.nodes])
    for got in (crossnode_listing_ratios(fed), weight_vectors(fed, "estimated_ratios")):
        np.testing.assert_allclose(got, oracle, rtol=0.02)
