"""Experiment runner: seeded sweeps and federated runs emitting CSV and JSON.

Every artifact embeds the fully resolved configuration, so a result file is
reproducible from its own header. Identical configuration and seed produce
byte-identical CSV bodies and summary payloads regardless of thread count;
only the embedded threads and out_dir settings follow the run. Each trial's
marginal, test draw and perturbation corruption are keyed by (seed, cell
index, trial index), never by scheduling order.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, replace
from operator import attrgetter
from pathlib import Path
from types import NoneType, UnionType

import numpy as np

from ._rng import child_seed
from .data import (
    DataSource,
    RelaxedShiftSpec,
    draw,
    open_split,
    perturb_relaxed,
    sample_dirichlet_marginal,
    uniform_marginal,
)
from .estimators import (
    EstimatorOptions,
    confusion_matrix,
    estimate_bbse,
    estimate_mlls_em,
    estimate_rlls,
)
from .federated import (
    FederationConfig,
    WEIGHTINGS,
    build_federation,
    crossnode_listing_ratios,
    train_global,
    weight_vectors,
)
from .metrics import loglog_slope, ratio_mse, summarize
from .predictor import PredictorConfig, predict_proba, train_predictors
from .types import LabeledDataset, LabelMarginal, aggregate_ratios, ratio_from_marginals

SCHEMA_VERSION = 1

# Each estimator as (predictor, solve): its predictor's config, from the configured one, and
# its solve from a draw's scores. The solves look up the estimate_* functions among this
# module's globals when called, so rebinding one reaches every sweep.
_PLAIN = lambda p: replace(p, zeta=0.0)
_ESTIMATORS = {
    "vrls_em": (lambda p: p, lambda env, preds: estimate_mlls_em(preds, env.tr, env.solver)),
    "mlls_em": (_PLAIN, lambda env, preds: estimate_mlls_em(preds, env.tr, env.solver)),
    "bbse": (_PLAIN, lambda env, preds: estimate_bbse(env.confusion, preds, env.tr)),
    "rlls": (_PLAIN, lambda env, preds: estimate_rlls(env.confusion, preds, env.tr,
                                                      env.solver.rlls_lambda)),
}
DEFAULT_SIZE_GRID = (250, 500, 1000, 2000, 4000, 8000)

# The fields a run leaves at their defaults, as (who, paths, applies) rows: in a run where
# applies(cfg) holds, the paths (dotted for a section's field) take only their defaults. The
# kind rows come first; seed, data, out_dir and threads are run settings of every kind.
_UNREAD = (
    ("sweep_alpha runs", ("alpha", "size_grid", "federation", "weightings", "crossnode_listing"),
     lambda c: c.kind == "sweep_alpha"),
    ("sweep_size runs", ("n_te", "alpha_grid", "federation", "weightings", "crossnode_listing"),
     lambda c: c.kind == "sweep_size"),
    ("estimate_once runs", ("trials", "alpha_grid", "size_grid", "federation", "weightings",
                            "crossnode_listing"), lambda c: c.kind == "estimate_once"),
    ("federate runs", ("trials", "n_te", "alpha", "alpha_grid", "size_grid", "estimators",
                       "predictor", "solver", "split_fraction", "perturbation", "data.n_train",
                       "federation.global_model.zeta", "federation.global_model.max_epochs",
                       "federation.global_model.loss_threshold"),
     lambda c: c.kind == "federate"),
    ("runs without a vrls estimator", ("predictor.zeta",), lambda c: "vrls_em" not in c.estimators),
    ("runs without rlls", ("solver.rlls_lambda",), lambda c: "rlls" not in c.estimators),
    ("runs without a likelihood estimator", ("solver.max_iters", "solver.tol"),
     lambda c: set(c.estimators) <= {"bbse", "rlls"}),
    ("runs with one local step", ("federation.global_model.learning_rate",),
     lambda c: c.federation and c.federation.local_steps == 1),
    ("runs that estimate no ratios", ("federation.ratio_predictor",),
     lambda c: "estimated_ratios" not in c.weightings and not c.crossnode_listing),
)

# The JSON types each scalar field accepts. Matched by exact type, not
# isinstance, so JSON true/false never pass as numbers.
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "a boolean"),
    str: ((str,), "a string"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = 0
    trials: int = 100
    n_te: int = 5000
    alpha: float = 1.0
    alpha_grid: tuple[float, ...] = (0.1, 1.0, 10.0)
    size_grid: tuple[int, ...] = DEFAULT_SIZE_GRID
    estimators: tuple[str, ...] = ("vrls_em", "mlls_em")
    data: DataSource = DataSource()
    predictor: PredictorConfig = PredictorConfig(hidden_units=32)
    solver: EstimatorOptions = EstimatorOptions()
    split_fraction: float = 0.0
    perturbation: RelaxedShiftSpec | None = None
    federation: FederationConfig | None = None
    weightings: tuple[str, ...] = ("none", "estimated_ratios", "true_ratios")
    crossnode_listing: bool = False
    out_dir: str = "out"
    threads: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.n_te < 1:
            raise ValueError("n_te must be at least 1")
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")
        if not self.alpha_grid or any(a <= 0 for a in self.alpha_grid):
            raise ValueError("alpha_grid entries must be positive")
        if not self.size_grid or any(n < 1 for n in self.size_grid):
            raise ValueError("size_grid entries must be positive")
        for what, names, known in (("estimator", self.estimators, _ESTIMATORS),
                                   ("weighting", self.weightings, WEIGHTINGS)):
            if not names:
                raise ValueError(f"need at least one {what}")
            for i, name in enumerate(names):
                if name not in known:
                    raise ValueError(f"unknown {what} {name!r}")
                if name in names[:i]:
                    raise ValueError(f"duplicate {what} {name!r}")
        if not 0.0 <= self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie in [0, 1)")
        n_train = self.data.n_train
        if self.split_fraction and max(1, round(self.split_fraction * n_train)) >= n_train:
            raise ValueError(f"split_fraction {self.split_fraction} of data.n_train {n_train}"
                             " leaves no training rows")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.kind == "federate" and self.federation is None:
            raise ValueError("federate runs need a federation section")
        for who, paths, applies in _UNREAD:
            for path in paths if applies(self) else ():
                owner, _, leaf = path.rpartition(".")
                owner = attrgetter(owner)(self) if owner else self
                if getattr(owner, leaf) != getattr(type(owner), leaf):  # the field's default
                    raise ValueError(f"{who} take no {path} key")
        if self.kind == "federate":
            if self.federation.m != self.data.num_classes:
                raise ValueError(f"federation nodes have {self.federation.m} classes but the"
                                 f" data source has {self.data.num_classes}")
            # The marginals each weighting's weights aggregate, so that an unsupported class
            # fails before the build: each node's estimate lives on its own train support.
            nodes = self.federation.nodes
            aggregated = {"true_ratios": [node.test_marginal for node in nodes],
                          "estimated_ratios": [node.train_marginal for node in nodes]}
            for k, node in enumerate(nodes):
                for marginals in [aggregated[w] for w in self.weightings if w in aggregated]:
                    _build(f"federation.nodes[{k}]",
                           lambda: aggregate_ratios(marginals, node.train_marginal))
                if self.crossnode_listing and np.any(node.train_marginal.probs == 0):
                    raise ValueError(f"federation.nodes[{k}]: cross-node aggregation needs every"
                                     " class on every node")


def _build(where: str, make):
    """make(), with where prefixed to the ValueError it raises (the root's
    own checks name their keys already)."""
    try:
        return make()
    except ValueError as exc:
        if where == "experiment":
            raise
        raise ValueError(f"{where}: {exc}") from None


def _decode(tp, raw, where: str, default=MISSING):
    """Builds a value of type tp from the JSON value raw.

    A section (JSON object) overrides default, or else its dataclass's field
    defaults, key by key. where names raw in errors: "experiment" for the
    root, dotted paths such as federation.nodes[1] below it. Scalars must
    have their field's JSON type (_SCALARS). A number in a float field must
    be finite, so an integer must fit a float; it passes through as given, so
    the resolved config echoes the file's numbers. tuple[X, ...] takes a list
    of any length, tuple[X, Y] exactly one entry per type. A LabelMarginal,
    as a list or as the {"probs": list} that the echoed config prints, takes
    numbers. A value its dataclass rejects raises that ValueError prefixed by
    where.
    """
    if isinstance(tp, UnionType):  # X | None: null stays None
        if raw is None:
            return None
        (tp,) = [t for t in typing.get_args(tp) if t is not NoneType]
        default = MISSING if default is None else default
    if typing.get_origin(tp) is tuple:
        if not isinstance(raw, list):
            raise ValueError(f"{where} must be a list, got {raw!r}")
        elems = typing.get_args(tp)
        if elems[-1] is Ellipsis:
            elems = elems[:1] * len(raw)
        elif len(raw) != len(elems):
            raise ValueError(f"{where} must have {len(elems)} entries, got {len(raw)}")
        return tuple(_decode(t, x, f"{where}[{i}]") for i, (t, x) in enumerate(zip(elems, raw)))
    if tp is LabelMarginal and isinstance(raw, dict) and set(raw) == {"probs"}:
        probs = _decode(tuple[float, ...], raw["probs"], f"{where}.probs")
        return _build(where, lambda: LabelMarginal(np.asarray(probs, dtype=float)))
    if tp is LabelMarginal and isinstance(raw, list):
        probs = _decode(tuple[float, ...], raw, where)
        return _build(where, lambda: LabelMarginal(np.asarray(probs, dtype=float)))
    if dataclasses.is_dataclass(tp):
        if not isinstance(raw, dict):
            raise ValueError(f"{where} must be an object, got {raw!r}")
        fields = {f.name: f for f in dataclasses.fields(tp)}
        unknown = set(raw) - set(fields)
        if unknown:
            raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
        hints = typing.get_type_hints(tp)
        prefix = "" if where == "experiment" else f"{where}."
        values = {
            key: _decode(hints[key], value, prefix + key,
                         fields[key].default if default is MISSING else getattr(default, key))
            for key, value in raw.items()
        }
        if default is not MISSING:
            return _build(where, lambda: replace(default, **values))
        missing = [k for k, f in fields.items() if k not in values and f.default is MISSING]
        if missing:
            raise ValueError(f"missing {where} keys: {missing}")
        return _build(where, lambda: tp(**values))
    if tp in _SCALARS and type(raw) not in _SCALARS[tp][0]:
        raise ValueError(f"{where} must be {_SCALARS[tp][1]}, got {raw!r}")
    if tp is float and not abs(raw) <= sys.float_info.max:  # NaN, infinities, huge integers
        raise ValueError(f"{where} must be a finite number, got {raw!r}")
    return raw


def resolve_config(
    raw: dict,
    kind: str,
    out: str | None = None,
    seed: int | None = None,
    threads: int | None = None,
) -> ExperimentConfig:
    """Merge a raw JSON config with command-line overrides."""
    if isinstance(raw, dict):
        if raw.get("kind") not in (None, kind):
            raise ValueError(f"config is for kind {raw['kind']!r}, not {kind!r}")
        raw = {**raw, "kind": kind}
    cfg = _decode(ExperimentConfig, raw, "experiment")
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out is None:
        out = os.environ.get("LABELSHIFT_OUT")
    if out is not None:
        cfg = replace(cfg, out_dir=out)
    if threads is not None:
        cfg = replace(cfg, threads=threads)
    return cfg


class _SweepEnv:
    """What every cell of one sweep shares, built once because the training
    distribution is fixed; only the test draws vary across cells and trials.

    stack is one Predictor, an (S, P) stack of a model per distinct predictor config, and
    estimators lists each configured estimator as (name, member, solve), member indexing
    its model in stack. confusion is the holdout's confusion_matrix under that member of
    bbse and rlls alone, or None without them.
    """

    def __init__(self, cfg: ExperimentConfig):
        split = open_split(cfg.data, "train")
        self.tr = uniform_marginal(split.m)
        train = draw(split, self.tr, cfg.data.n_train, child_seed(cfg.seed, 0xD0))
        del split  # released before the test split opens, so two IDX pools never coexist
        self.test_split = open_split(cfg.data, "test")
        self.solver = cfg.solver

        if cfg.split_fraction > 0:
            n_val = max(1, int(round(cfg.split_fraction * train.n)))
            n_fit = train.n - n_val
            fit = LabeledDataset(train.features[:n_fit], train.labels[:n_fit], train.m)
            val = LabeledDataset(train.features[n_fit:], train.labels[n_fit:], train.m)
        else:
            fit = val = train

        pcfgs = [_ESTIMATORS[name][0](cfg.predictor) for name in cfg.estimators]
        needed = list(dict.fromkeys(pcfgs))
        models = train_predictors((fit, pcfg) for pcfg in needed)
        self.stack = replace(models[0], parameters=np.stack([p.parameters for p in models]))
        self.estimators = [(name, needed.index(pcfg), _ESTIMATORS[name][1])
                           for name, pcfg in zip(cfg.estimators, pcfgs)]
        moment = [member for name, member, _ in self.estimators if name in ("bbse", "rlls")]
        self.confusion = None
        if moment:
            preds_val = predict_proba(models[moment[0]], val.features)
            self.confusion = confusion_matrix(preds_val, val.labels)


def _estimate_draw(cfg: ExperimentConfig, env: _SweepEnv, ci: int, alpha: float, n_te: int,
                   ti: int):
    """Draw trial ti of cell ci, score it, and run every configured estimator.

    Returns (marginal, draw, true ratio, [(estimator, report, mse, error)]),
    where a failed estimator has report and mse None and error
    "ExceptionType: message". The stack scores the draw in one pass, on first use; a pass
    that raises stores nothing, so each later estimator retries it and records the error.
    """
    marginal = sample_dirichlet_marginal(alpha, env.tr.m, child_seed(cfg.seed, 0xA0, ci, ti, 0))
    ds = draw(env.test_split, marginal, n_te, seed=child_seed(cfg.seed, 0xA0, ci, ti, 1))
    if cfg.perturbation is not None:
        ds = perturb_relaxed(ds, cfg.perturbation, child_seed(cfg.seed, 0xA0, ci, ti, 2))
    truth = ratio_from_marginals(marginal, env.tr)
    scores, results = None, []
    for est, member, solve in env.estimators:
        try:
            if scores is None:
                scores = predict_proba(env.stack, ds.features)
            report = solve(env, scores[member])
            results.append((est, report, ratio_mse(report.ratio, truth), ""))
        except Exception as exc:  # recorded per cell; the run keeps going
            results.append((est, None, None, f"{type(exc).__name__}: {exc}"))
    return marginal, ds, truth, results


def _config_line(cfg: ExperimentConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"),
                      default=np.ndarray.tolist)


def _write_csv(path: Path, cfg: ExperimentConfig, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(f"# config={_config_line(cfg)}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_summary(cfg: ExperimentConfig, summary: dict) -> dict:
    with open(Path(cfg.out_dir) / f"{cfg.kind}_summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True, default=np.ndarray.tolist)
        f.write("\n")
    return summary


def _base_summary(cfg: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg),
    }


def _sweep(cfg: ExperimentConfig, cells: list[tuple[float, int]], cell_key: str) -> dict:
    """Runs every (alpha, n_te) cell, writes the results CSV, returns the summary."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    env = _SweepEnv(cfg)
    tasks = [(ci, ti) for ci in range(len(cells)) for ti in range(cfg.trials)]

    def trial(task):  # a trial's estimator results; its test draw is freed here
        ci, ti = task
        return _estimate_draw(cfg, env, ci, *cells[ci], ti)[3]

    # One thread runs the trials inline: a one-worker pool measured slower on sweep_alpha.
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(trial, tasks))
    else:
        results = list(map(trial, tasks))
    at = ("alpha", "n_te").index(cell_key)
    rows = [(cells[ci][at], est, ti, "" if mse is None else mse, err)
            for (ci, ti), trial_results in zip(tasks, results)
            for est, _, mse, err in trial_results]
    _write_csv(
        out / f"{cfg.kind}_results.csv", cfg, (cell_key, "estimator", "trial", "mse", "error"), rows
    )
    summary = _base_summary(cfg)
    summary["cells"] = []
    per_cell = cfg.trials * len(cfg.estimators)  # each trial writes one row per estimator
    for start in range(0, len(rows), per_cell):
        block = rows[start:start + per_cell]
        for est in cfg.estimators:
            mses = [mse for _, e, _, mse, err in block if e == est and not err]
            stats = summarize(mses) if mses else {"mean": None, "std": None, "count": 0}
            summary["cells"].append({cell_key: block[0][0], "estimator": est, **stats,
                                     "errors": cfg.trials - len(mses)})
    return summary


def run_sweep_alpha(cfg: ExperimentConfig) -> dict:
    """Ratio-estimation error across Dirichlet shift intensities."""
    return _write_summary(cfg, _sweep(cfg, [(a, cfg.n_te) for a in cfg.alpha_grid], "alpha"))


def run_sweep_size(cfg: ExperimentConfig) -> dict:
    """Ratio-estimation error across test-set sizes at one shift intensity, with
    the log-log slope of mean error against size per estimator (None below 3 cells)."""
    summary = _sweep(cfg, [(cfg.alpha, n) for n in cfg.size_grid], "n_te")
    summary["alpha"] = cfg.alpha
    points = {est: [(c["n_te"], c["mean"]) for c in summary["cells"]
                    if c["estimator"] == est and c["mean"] is not None] for est in cfg.estimators}
    summary["slopes"] = {est: loglog_slope(p) if len(p) >= 3 else None for est, p in points.items()}
    return _write_summary(cfg, summary)


def run_estimate_once(cfg: ExperimentConfig) -> dict:
    """One seeded draw, every configured estimator, full report detail."""
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    env = _SweepEnv(cfg)
    marginal, ds, truth, results = _estimate_draw(cfg, env, 0, cfg.alpha, cfg.n_te, 0)
    reports = {}
    for est, report, mse, err in results:
        reports[est] = {"error": err} if err else {**report.to_dict(), "mse": mse, "error": ""}
    summary = _base_summary(cfg)
    summary["drawn_marginal"] = marginal.probs.tolist()
    summary["empirical_counts"] = ds.class_counts().tolist()
    summary["true_ratio"] = truth.ratios.tolist()
    summary["estimates"] = reports
    return _write_summary(cfg, summary)


def run_federate(cfg: ExperimentConfig) -> dict:
    """Train the shared model under each requested weighting on one seed."""
    fed = build_federation(cfg.federation, cfg.data, cfg.seed)
    if "estimated_ratios" in cfg.weightings:  # resolve's check, on the drawn train marginals
        drawn = [node.train.empirical_marginal() for node in fed.nodes]
        for k, tr in enumerate(drawn):
            _build(f"federation.nodes[{k}]", lambda: aggregate_ratios(drawn, tr))
    # First, so that a federation it rejects fails before any training or output.
    crossnode = crossnode_listing_ratios(fed).tolist() if cfg.crossnode_listing else None
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    acc_rows = []
    trace_rows = []
    variants = {}
    weights = [weight_vectors(fed, weighting) for weighting in cfg.weightings]
    for weighting, result in zip(cfg.weightings, train_global(fed, weights, fed.cfg)):
        for i, acc in enumerate(result.per_node_accuracy):
            acc_rows.append((weighting, i, acc))
        for rnd, (loss, acc) in enumerate(zip(result.loss_trace, result.accuracy_trace)):
            trace_rows.append((weighting, rnd, loss, acc))
        variants[weighting] = {
            "avg_accuracy": result.avg_accuracy,
            "per_node_accuracy": list(result.per_node_accuracy),
            "node_weights": result.node_weights.tolist(),
            "final_loss": result.loss_trace[-1] if result.loss_trace else None,
        }
    _write_csv(out / "federate_accuracy.csv", cfg, ("weighting", "node", "accuracy"), acc_rows)
    _write_csv(
        out / "federate_trace.csv", cfg, ("weighting", "round", "mean_loss", "avg_accuracy"),
        trace_rows,
    )
    summary = _base_summary(cfg)
    summary["weightings"] = variants
    if cfg.crossnode_listing:
        summary["crossnode_listing_ratios"] = crossnode
    return _write_summary(cfg, summary)


RUNNERS = {
    "sweep_alpha": run_sweep_alpha,
    "sweep_size": run_sweep_size,
    "estimate_once": run_estimate_once,
    "federate": run_federate,
}
KINDS = tuple(RUNNERS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="labelshift",
        description="Label-shift estimation experiments and federated training runs.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=RUNNERS[kind].__doc__)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides config and env)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--threads", type=int, default=None, help="worker threads for trials")
    args = parser.parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        cfg = resolve_config(raw, args.kind, out=args.out, seed=args.seed, threads=args.threads)
        RUNNERS[cfg.kind](cfg)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
