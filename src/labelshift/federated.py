"""Multi-node importance-weighted training simulator.

Three phases mirror the deployment story:

1. Each node estimates its own test marginal from local data only
   (exchange_marginals). A node trains its ratio predictor once per
   Federation (ratio_predictors) and solves its estimate once
   (local_estimates).
2. The estimated marginals are shared once; node k turns them into per-class
   weights w_k(y) = sum_j p_j_te(y) / p_k_tr(y) (aggregate_ratios, through
   weight_vectors). The only values that ever cross a node boundary are these
   K vectors of length m.
3. A shared model is trained on weighted cross-entropy: every round visits
   every node and a server-side optimizer steps on their mean (train_global).
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._rng import child_seed, stream
from .data import DataSource, draw, open_split
from .estimators import EstimateReport, estimate_mlls_em
from .predictor import (
    Predictor,
    PredictorConfig,
    StepWorkspace,
    init_predictor,
    predict_labels,
    predict_proba,
    train_predictors,
)
from .types import LabeledDataset, LabelMarginal, ProbabilityMatrix, aggregate_ratios

WEIGHTINGS = ("none", "true_ratios", "estimated_ratios")


@dataclass(frozen=True)
class NodeSpec:
    train_marginal: LabelMarginal
    test_marginal: LabelMarginal
    n_tr: int
    n_te: int
    seed: int = 0

    def __post_init__(self):
        if self.train_marginal.m != self.test_marginal.m:
            raise ValueError("train and test marginals have different class counts")
        if self.n_tr < 1 or self.n_te < 1:
            raise ValueError("each node needs at least one train and test sample")


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ServerOptimizer:
    """The server's update rule: plain SGD, or Adam with _ADAM_BETAS and _ADAM_EPS."""

    kind: str = "adam"
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown server optimizer {self.kind!r}")
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class FederationConfig:
    """Node, schedule, and model settings for one simulated federation.

    The node marginals define the setting: no shift, shift within nodes, shift
    across nodes, or both.

    ratio_predictor drives the per-node estimation behind the "estimated_ratios"
    weighting, which solves with EM at its default options.
    """

    nodes: tuple[NodeSpec, ...]
    global_model: PredictorConfig = PredictorConfig()
    rounds: int = 100
    local_steps: int = 1
    server_optimizer: ServerOptimizer = ServerOptimizer()
    ratio_predictor: PredictorConfig = PredictorConfig(hidden_units=32)

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("need at least one node")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        if self.local_steps < 1:
            raise ValueError("local_steps must be at least 1")
        if any(n.train_marginal.m != self.m for n in self.nodes):
            raise ValueError("all nodes must share one class count")

    @property
    def k(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return self.nodes[0].train_marginal.m


@dataclass(frozen=True)
class FederationNode:
    spec: NodeSpec
    train: LabeledDataset
    test: LabeledDataset


@dataclass(frozen=True)
class Federation:
    cfg: FederationConfig
    nodes: tuple[FederationNode, ...]
    seed: int

    @cached_property
    def ratio_predictors(self) -> tuple[Predictor, ...]:
        """Each node's density-ratio predictor, trained on first use from the
        node's train split and then shared by every estimate that needs it.

        Node i trains cfg.ratio_predictor with its seed replaced by
        child_seed(ratio_predictor.seed, seed, i, node seed).
        """
        base, seed = self.cfg.ratio_predictor, self.seed
        return train_predictors(
            (node.train, replace(base, seed=child_seed(base.seed, seed, i, node.spec.seed)))
            for i, node in enumerate(self.nodes)
        )

    @cached_property
    def local_estimates(self) -> tuple[EstimateReport, ...]:
        """Each node's ratio estimate from its own ratio predictor on its own
        test split, solved once and shared by exchange_marginals and
        crossnode_listing_ratios."""
        return tuple(
            _estimate(node, predict_proba(predictor, node.test.features))
            for node, predictor in zip(self.nodes, self.ratio_predictors)
        )


@dataclass(frozen=True)
class FederationResult:
    """Outcome of one federated run.

    node_weights holds the per-class weight vectors actually used (the
    estimated ones under the "estimated_ratios" weighting). loss_trace and
    accuracy_trace both have one entry per round.
    """

    predictor: Predictor
    per_node_accuracy: tuple[float, ...]
    avg_accuracy: float
    node_weights: np.ndarray
    loss_trace: tuple[float, ...]
    accuracy_trace: tuple[float, ...]

    def __post_init__(self):
        w = np.array(self.node_weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "node_weights", w)


def build_federation(cfg: FederationConfig, source: DataSource, seed: int = 0) -> Federation:
    """Materialize every node's train and test split from the shared source;
    seed keys every draw, train_global's batches included, but the global
    model's start, which cfg.global_model.seed keys: node i's split s (0
    train, 1 test) draws with child_seed(seed, i, node seed, s)."""
    splits = []
    for s, split in enumerate(("train", "test")):
        population = open_split(source, split)
        splits.append([draw(population, (spec.train_marginal, spec.test_marginal)[s],
                            (spec.n_tr, spec.n_te)[s], child_seed(seed, i, spec.seed, s))
                       for i, spec in enumerate(cfg.nodes)])
        del population  # before the test split opens, so two IDX pools never coexist
    return Federation(cfg, tuple(map(FederationNode, cfg.nodes, *splits)), seed)


def _estimate(node: FederationNode, preds: ProbabilityMatrix):
    """The node's EM ratio estimate against its own empirical train marginal."""
    return estimate_mlls_em(preds, node.train.empirical_marginal())


def exchange_marginals(fed: Federation, posterior_fn=None) -> tuple[LabelMarginal, ...]:
    """The single communication round before training: every node publishes
    one length-m marginal estimate and nothing else.

    Each node publishes its estimate from fed.local_estimates. posterior_fn
    (features -> (n, m) posterior rows, the contract of predict_proba)
    substitutes an oracle for every node's ratio predictor, so tests can
    check the exchange against the true posterior.
    """
    if posterior_fn is None:
        reports = fed.local_estimates
    else:
        reports = [
            _estimate(node, ProbabilityMatrix.from_rows(posterior_fn(node.test.features)))
            for node in fed.nodes
        ]
    return tuple(report.ratio.implied_test_marginal() for report in reports)


def _local_pseudograd(step, params, node, w_vec, cfg: FederationConfig, rng):
    """One node's contribution this round to each stacked model (its row of w_vec),
    from the StepWorkspace step. Its gradient is step's buffer, read before the next call.

    With one local step this is exactly the weighted minibatch gradient;
    with more, the node takes SGD steps at the model learning rate and
    reports the parameter displacement divided by that rate.
    """
    gm = cfg.global_model
    x, y = node.train.features, node.train.labels
    b = min(gm.batch_size, node.train.n)

    def batch_grad(theta):
        idx = rng.choice(node.train.n, size=b, replace=False)
        labels = y[idx]
        total, _, grad = step(theta, step.gather(x, idx), labels, weights=w_vec.take(labels, 1))
        return total, grad

    if cfg.local_steps == 1:
        loss, grad = batch_grad(params)
        return grad, loss
    theta = params.copy()
    losses = []
    for _ in range(cfg.local_steps):
        loss, grad = batch_grad(theta)
        losses.append(loss)
        theta -= gm.learning_rate * grad
    return (params - theta) / gm.learning_rate, np.stack(losses, axis=-1).mean(axis=-1)


def train_global(fed: Federation, weights, cfg: FederationConfig) -> tuple[FederationResult, ...]:
    """Round-based training of the shared model under per-node label weights.

    One FederationResult per (k, m) matrix in weights, whose models step in
    lockstep: the batch draws never see the weights. Each round collects
    every node's (pseudo) gradient in node-index order, averages, and applies
    the server optimizer. cfg must list as many nodes as the federation has.
    """
    k = len(fed.nodes)
    if cfg.k != k:
        raise ValueError(f"cfg lists {cfg.k} nodes but the federation has {k}")
    m, d = fed.nodes[0].train.m, fed.nodes[0].train.d
    w_all = [np.array(w, dtype=np.float64) for w in weights]
    if any(w.shape != (k, m) for w in w_all):
        raise ValueError(f"weights must have shape ({k}, {m})")
    if any(np.any(w < 0) or not np.all(np.isfinite(w)) for w in w_all):
        raise ValueError("weights must be finite and nonnegative")
    if not w_all:
        return ()
    w_all = np.stack(w_all)

    layout = init_predictor(cfg.global_model, m, d)
    params = np.tile(layout.parameters, (len(w_all), 1))
    rngs = [stream(fed.seed, 0x5B, i) for i in range(k)]
    srv = cfg.server_optimizer
    step = StepWorkspace(layout)
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    traces = np.zeros((len(w_all), 2, cfg.rounds))  # per model: loss, then accuracy
    for rnd in range(cfg.rounds):
        grads = np.zeros_like(params)
        losses = []
        for i, node in enumerate(fed.nodes):
            g, loss = _local_pseudograd(step, params, node, w_all[:, i], cfg, rngs[i])
            grads += g
            losses.append(loss)
        grads /= k
        if not np.all(np.isfinite(grads)):
            raise RuntimeError(f"diverged at round {rnd}")
        if srv.kind == "sgd":
            params -= srv.learning_rate * grads
        else:
            b1, b2 = _ADAM_BETAS
            adam_m = b1 * adam_m + (1 - b1) * grads
            adam_v = b2 * adam_v + (1 - b2) * grads**2
            mh = adam_m / (1 - b1 ** (rnd + 1))
            vh = adam_v / (1 - b2 ** (rnd + 1))
            params -= srv.learning_rate * mh / (np.sqrt(vh) + _ADAM_EPS)
        traces[:, 0, rnd] = np.add.reduce(np.stack(losses, axis=-1), axis=-1) / len(losses)
        per_node, avg = evaluate(replace(layout, parameters=params), fed)
        traces[:, 1, rnd] = avg
    if not cfg.rounds:  # else the last round scored the final parameters
        per_node, avg = evaluate(replace(layout, parameters=params), fed)
    return tuple(
        FederationResult(
            predictor=replace(layout, parameters=params[s]),
            per_node_accuracy=tuple(per_node[s]),
            avg_accuracy=avg[s],
            node_weights=w_all[s],
            loss_trace=tuple(traces[s, 0].tolist()),
            accuracy_trace=tuple(traces[s, 1].tolist()),
        )
        for s in range(len(w_all))
    )


def evaluate(pred: Predictor, fed: Federation) -> tuple[tuple, float | list[float]]:
    """Top-1 accuracy on every node's test split, plus the unweighted mean;
    a stack of S models (parameters (S, P)) gets S rows and S means.

    Each split gets its own forward pass over the stack, for speed only:
    scoring is row-invariant, so one pass over all splits would give the same
    labels, but it ran slower inside a federate run.
    """
    # np.add.reduce(a, dtype=float) / n is the same float as a.mean(), without its overhead.
    accs = np.stack([np.add.reduce(predict_labels(pred, node.test.features) == node.test.labels,
                                   axis=-1, dtype=np.float64) / node.test.n
                     for node in fed.nodes], axis=-1)
    return tuple(accs.tolist()), (np.add.reduce(accs, axis=-1) / len(fed.nodes)).tolist()


def weight_vectors(fed: Federation, weighting: str) -> np.ndarray:
    """Per-node class weights under the named weighting, one row per node.

    true_ratios aggregates the configured marginals, estimated_ratios the
    exchanged ones against each node's empirical train marginal.
    """
    if weighting == "none":
        return np.ones((fed.cfg.k, fed.cfg.m))
    if weighting == "true_ratios":
        marginals = [spec.test_marginal for spec in fed.cfg.nodes]
        trains = [spec.train_marginal for spec in fed.cfg.nodes]
    elif weighting == "estimated_ratios":
        marginals = exchange_marginals(fed)
        trains = [node.train.empirical_marginal() for node in fed.nodes]
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    return np.stack([aggregate_ratios(marginals, tr) for tr in trains])


def crossnode_listing_ratios(fed: Federation) -> np.ndarray:
    """Cross-node aggregation variant for fidelity experiments, one row per node.

    Row a is aggregate_ratios(test marginals, node a's empirical train
    marginal), where node b's test marginal is the one node a's ratio
    predictor implies on node b's test features, solved against node a's
    train marginal. The diagonal is fed.local_estimates. Unlike the marginal
    exchange, this ships raw features across nodes, so it stays an opt-in
    diagnostic rather than a training path.
    """
    trains = [node.train.empirical_marginal() for node in fed.nodes]
    if any(np.any(tr.probs == 0) for tr in trains):
        raise ValueError("cross-node aggregation needs every class on every node")
    rows = []
    for a, (node, predictor) in enumerate(zip(fed.nodes, fed.ratio_predictors)):
        reports = [
            fed.local_estimates[a] if b == a else
            _estimate(node, predict_proba(predictor, other.test.features))
            for b, other in enumerate(fed.nodes)
        ]
        rows.append(aggregate_ratios([r.ratio.implied_test_marginal() for r in reports], trains[a]))
    return np.stack(rows)
