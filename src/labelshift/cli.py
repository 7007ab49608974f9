"""Experiment runner: seeded sweeps and federated runs emitting CSV and JSON.

Every artifact embeds the fully resolved configuration, so a result file is
reproducible from its own header. Identical configuration and seed produce
byte-identical CSV bodies and summary payloads regardless of thread count;
only the embedded threads and out_dir settings follow the run. Per-trial
randomness is keyed by (seed, cell index, trial index), never by scheduling
order.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._rng import child_seed
from .data import (
    GaussianMixtureSpec,
    RelaxedShiftSpec,
    equidistant_means,
    gen_gaussian_mixture,
    load_idx,
    perturb_relaxed,
    relax_m_preset,
    relaxed_preset,
    resample_by_marginal,
    sample_dirichlet_marginal,
    uniform_marginal,
)
from .estimators import (
    EstimatorOptions,
    estimate_bbse,
    estimate_rlls,
    solve_mlls,
    unregularized,
)
from .federated import (
    FederationConfig,
    NodeSpec,
    ServerOptimizer,
    build_federation,
    crossnode_listing_ratios,
    train_global,
    weight_vectors,
)
from .metrics import loglog_slope, ratio_mse, summarize
from .predictor import PredictorConfig, predict_proba, train_predictor
from .types import LabeledDataset, LabelMarginal, ProbabilityMatrix, ratio_from_marginals

SCHEMA_VERSION = 1

KINDS = ("sweep_alpha", "sweep_size", "rate_check", "estimate_once", "federate", "relaxed_sweep")
ESTIMATOR_NAMES = ("vrls_em", "vrls_gd", "mlls_em", "mlls_gd", "bbse", "rlls")
DEFAULT_SIZE_GRID = (250, 500, 1000, 2000, 4000, 8000)

_PRESETS = {"relaxed": relaxed_preset, "relax_m": relax_m_preset}


@dataclass(frozen=True)
class DataSource:
    """Where sweep data comes from: a synthetic mixture or IDX file pairs."""

    source: str = "synthetic"
    m: int = 3
    d: int = 2
    separation: float = 3.0
    sigma: float = 1.0
    n_train: int = 20000
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""

    def __post_init__(self):
        if self.source not in ("synthetic", "idx"):
            raise ValueError(f"unknown data source {self.source!r}")
        if self.source == "synthetic":
            if self.m < 2 or self.d < 1:
                raise ValueError("synthetic source needs m >= 2 and d >= 1")
            if not (self.separation > 0 and self.sigma > 0):
                raise ValueError("separation and sigma must be positive")
        else:
            for name in ("train_images", "train_labels", "test_images", "test_labels"):
                if not getattr(self, name):
                    raise ValueError(f"idx source needs {name}")
        if self.n_train < 1:
            raise ValueError("n_train must be at least 1")


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
    predictor: PredictorConfig = PredictorConfig(architecture="mlp")
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
        for e in self.estimators:
            if e not in ESTIMATOR_NAMES:
                raise ValueError(f"unknown estimator {e!r}")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        if not 0.0 <= self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie in [0, 1)")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.kind == "federate" and self.federation is None:
            raise ValueError("federate runs need a federation section")
        if self.kind == "relaxed_sweep" and self.perturbation is None:
            raise ValueError("relaxed_sweep runs need a perturbation section")


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def resolved_config(cfg: ExperimentConfig) -> dict:
    return _jsonable(cfg)


def _take(raw: dict, allowed: set[str], where: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def _predictor_from(raw: dict | None, default: PredictorConfig) -> PredictorConfig:
    if raw is None:
        return default
    _take(raw, {f.name for f in dataclasses.fields(PredictorConfig)}, "predictor")
    return replace(default, **raw)


def _options_from(raw: dict | None) -> EstimatorOptions:
    if raw is None:
        return EstimatorOptions()
    _take(raw, {f.name for f in dataclasses.fields(EstimatorOptions)}, "solver")
    return EstimatorOptions(**raw)


def _perturbation_from(raw: dict | None) -> RelaxedShiftSpec | None:
    if raw is None:
        return None
    raw = dict(raw)
    preset = raw.pop("preset", None)
    if preset is not None:
        if preset not in _PRESETS:
            raise ValueError(f"unknown perturbation preset {preset!r}")
        base = _PRESETS[preset](seed=raw.pop("seed", 0))
        if raw:
            base = replace(base, **raw)
        return base
    if "noise_sigma_range" in raw:
        raw["noise_sigma_range"] = tuple(raw["noise_sigma_range"])
    _take(raw, {f.name for f in dataclasses.fields(RelaxedShiftSpec)}, "perturbation")
    return RelaxedShiftSpec(**raw)


def _node_from(raw: dict, where: str) -> NodeSpec:
    _take(raw, {f.name for f in dataclasses.fields(NodeSpec)}, where)
    return NodeSpec(
        train_marginal=LabelMarginal(np.asarray(raw["train_marginal"], dtype=float)),
        test_marginal=LabelMarginal(np.asarray(raw["test_marginal"], dtype=float)),
        n_tr=int(raw["n_tr"]),
        n_te=int(raw["n_te"]),
        seed=int(raw.get("seed", 0)),
    )


def _server_from(raw: dict | None) -> ServerOptimizer:
    if raw is None:
        return ServerOptimizer()
    raw = dict(raw)
    _take(raw, {f.name for f in dataclasses.fields(ServerOptimizer)}, "server_optimizer")
    if "betas" in raw:
        raw["betas"] = tuple(raw["betas"])
    return ServerOptimizer(**raw)


def _federation_from(raw: dict | None) -> FederationConfig | None:
    if raw is None:
        return None
    raw = dict(raw)
    nodes = tuple(
        _node_from(n, f"federation.nodes[{i}]") for i, n in enumerate(raw.pop("nodes"))
    )
    server = _server_from(raw.pop("server_optimizer", None))
    global_model = _predictor_from(raw.pop("global_model", None), PredictorConfig())
    ratio_predictor = _predictor_from(
        raw.pop("ratio_predictor", None), PredictorConfig(architecture="mlp", hidden_units=32)
    )
    ratio_solver = _options_from(raw.pop("ratio_solver", None))
    _take(
        raw,
        {"scenario", "rounds", "local_steps", "sample_nodes_per_round", "weighting",
         "normalize_weights", "seed"},
        "federation",
    )
    return FederationConfig(
        nodes=nodes,
        global_model=global_model,
        server_optimizer=server,
        ratio_predictor=ratio_predictor,
        ratio_solver=ratio_solver,
        **raw,
    )


def resolve_config(
    raw: dict,
    kind: str,
    out: str | None = None,
    seed: int | None = None,
    threads: int | None = None,
) -> ExperimentConfig:
    """Merge a raw JSON config with command-line overrides."""
    raw = dict(raw)
    file_kind = raw.pop("kind", None)
    if file_kind is not None and file_kind != kind:
        raise ValueError(f"config is for kind {file_kind!r}, not {kind!r}")
    data = raw.pop("data", {})
    _take(data, {f.name for f in dataclasses.fields(DataSource)}, "data")
    data = DataSource(**data)
    predictor = _predictor_from(raw.pop("predictor", None), PredictorConfig(architecture="mlp"))
    solver = _options_from(raw.pop("solver", None))
    perturbation = _perturbation_from(raw.pop("perturbation", None))
    federation = _federation_from(raw.pop("federation", None))
    for key in ("alpha_grid", "estimators", "weightings"):
        if key in raw:
            raw[key] = tuple(raw[key])
    if "size_grid" in raw:
        raw["size_grid"] = tuple(int(n) for n in raw["size_grid"])
    _take(
        raw,
        {"seed", "trials", "n_te", "alpha", "alpha_grid", "size_grid", "estimators",
         "split_fraction", "weightings", "crossnode_listing", "out_dir", "threads"},
        "experiment",
    )
    cfg = ExperimentConfig(
        kind=kind,
        data=data,
        predictor=predictor,
        solver=solver,
        perturbation=perturbation,
        federation=federation,
        **raw,
    )
    if seed is not None:
        cfg = replace(cfg, seed=seed)
        if cfg.federation is not None:
            cfg = replace(cfg, federation=replace(cfg.federation, seed=seed))
    if out is None:
        out = os.environ.get("LABELSHIFT_OUT")
    if out is not None:
        cfg = replace(cfg, out_dir=out)
    if threads is not None:
        cfg = replace(cfg, threads=threads)
    return cfg


class _SweepEnv:
    """Predictors and samplers shared by every cell of one sweep.

    Training happens once per sweep because the training distribution is
    fixed; only the test draws vary across cells and trials.
    """

    def __init__(self, cfg: ExperimentConfig):
        data = cfg.data
        self.tr = uniform_marginal(data.m if data.source == "synthetic" else 10)
        if data.source == "synthetic":
            self.mix = GaussianMixtureSpec(
                equidistant_means(data.m, data.d, data.separation), data.sigma
            )
            train = gen_gaussian_mixture(
                self.mix, self.tr, data.n_train, seed=child_seed(cfg.seed, 0xD0)
            )
            self._test_pool = None
        else:
            self.mix = None
            pool_tr = load_idx(data.train_images, data.train_labels)
            self._test_pool = load_idx(data.test_images, data.test_labels)
            self.tr = uniform_marginal(pool_tr.m)
            train = resample_by_marginal(
                pool_tr, self.tr, data.n_train, seed=child_seed(cfg.seed, 0xD0)
            )
        self.m = self.tr.m

        if cfg.split_fraction > 0:
            n_val = max(1, int(round(cfg.split_fraction * train.n)))
            n_fit = train.n - n_val
            fit = LabeledDataset(train.features[:n_fit], train.labels[:n_fit], train.m)
            val = LabeledDataset(train.features[n_fit:], train.labels[n_fit:], train.m)
        else:
            fit = val = train

        needs_reg = any(e.startswith("vrls") for e in cfg.estimators)
        needs_base = any(not e.startswith("vrls") for e in cfg.estimators)
        self.pred_reg = train_predictor(fit, cfg.predictor) if needs_reg else None
        self.pred_base = (
            train_predictor(fit, unregularized(cfg.predictor)) if needs_base else None
        )
        if any(e in ("bbse", "rlls") for e in cfg.estimators):
            self.preds_val = predict_proba(self.pred_base, val.features)
            self.labels_val = val.labels
        else:
            self.preds_val = None
            self.labels_val = None

    def sample_test(self, marginal: LabelMarginal, n: int, seed: int) -> LabeledDataset:
        if self._test_pool is not None:
            return resample_by_marginal(self._test_pool, marginal, n, seed)
        return gen_gaussian_mixture(self.mix, marginal, n, seed)


def _predictor_for(estimator: str) -> str:
    return "pred_reg" if estimator.startswith("vrls") else "pred_base"


def _score(env: _SweepEnv, test_features, estimators) -> dict[str, ProbabilityMatrix | Exception]:
    """One forward pass of the test draw per predictor the estimators need.

    Maps each predictor's attribute name on env to its ProbabilityMatrix, or
    to the exception its forward pass raised, so that every estimator that
    needed those scores records the failure as its own.
    """
    scores = {}
    for name in dict.fromkeys(map(_predictor_for, estimators)):
        try:
            scores[name] = predict_proba(getattr(env, name), test_features)
        except Exception as exc:  # charged to each estimator that needs it
            scores[name] = exc
    return scores


def _run_estimator(name: str, env: _SweepEnv, scores: dict, opts: EstimatorOptions):
    preds = scores[_predictor_for(name)]
    if isinstance(preds, Exception):
        raise preds
    if name in ("vrls_em", "vrls_gd"):
        return solve_mlls(preds, env.tr, replace(opts, method=name.replace("vrls", "mlls")))
    if name in ("mlls_em", "mlls_gd"):
        return solve_mlls(preds, env.tr, replace(opts, method=name))
    if name == "bbse":
        return estimate_bbse(env.preds_val, env.labels_val, preds, env.tr)
    return estimate_rlls(env.preds_val, env.labels_val, preds, env.tr, opts.rlls_lambda)


def _run_trial(cfg: ExperimentConfig, env: _SweepEnv, ci: int, alpha: float, n_te: int, ti: int):
    marginal = sample_dirichlet_marginal(alpha, env.m, seed=child_seed(cfg.seed, 0xA0, ci, ti, 0))
    ds = env.sample_test(marginal, n_te, seed=child_seed(cfg.seed, 0xA0, ci, ti, 1))
    if cfg.perturbation is not None:
        spec = replace(cfg.perturbation, seed=child_seed(cfg.perturbation.seed, ci, ti))
        ds = perturb_relaxed(ds, spec)
    truth = ratio_from_marginals(marginal, env.tr)
    scores = _score(env, ds.features, cfg.estimators)
    results = []
    for est in cfg.estimators:
        try:
            report = _run_estimator(est, env, scores, cfg.solver)
            results.append((est, ratio_mse(report.ratio, truth), ""))
        except Exception as exc:  # recorded per cell; the sweep keeps going
            results.append((est, None, f"{type(exc).__name__}: {exc}"))
    return results


def _run_cells(cfg: ExperimentConfig, cells: list[tuple[float, int]]):
    """cells is a list of (alpha, n_te) pairs; returns {(ci, ti): [(est, mse, err)]}."""
    env = _SweepEnv(cfg)
    tasks = [(ci, ti) for ci in range(len(cells)) for ti in range(cfg.trials)]
    results = {}
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            futures = {
                (ci, ti): pool.submit(_run_trial, cfg, env, ci, cells[ci][0], cells[ci][1], ti)
                for ci, ti in tasks
            }
            for key, fut in futures.items():
                results[key] = fut.result()
    else:
        for ci, ti in tasks:
            results[ci, ti] = _run_trial(cfg, env, ci, cells[ci][0], cells[ci][1], ti)
    return results


def _config_line(cfg: ExperimentConfig) -> str:
    return json.dumps(resolved_config(cfg), sort_keys=True, separators=(",", ":"))


def _write_csv(path: Path, cfg: ExperimentConfig, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(f"# config={_config_line(cfg)}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _summarize_cells(cfg, cells, cell_key, results):
    rows = []
    cell_summaries = []
    for ci, (alpha, n_te) in enumerate(cells):
        cell_value = alpha if cell_key == "alpha" else n_te
        per_est = {e: [] for e in cfg.estimators}
        errors = {e: 0 for e in cfg.estimators}
        for ti in range(cfg.trials):
            for est, mse, err in results[ci, ti]:
                rows.append((cell_value, est, ti, "" if mse is None else mse, err))
                if mse is None:
                    errors[est] += 1
                else:
                    per_est[est].append(mse)
        for est in cfg.estimators:
            if per_est[est]:
                s = summarize(per_est[est])
                mean, std, count = s.mean, s.std, s.count
            else:
                mean = std = None
                count = 0
            cell_summaries.append(
                {cell_key: cell_value, "estimator": est, "mean": mean, "std": std,
                 "count": count, "errors": errors[est]}
            )
    return rows, cell_summaries


def _base_summary(cfg: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "config": resolved_config(cfg),
    }


def run_sweep_alpha(cfg: ExperimentConfig) -> dict:
    """Ratio-estimation error across Dirichlet shift intensities."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = [(a, cfg.n_te) for a in cfg.alpha_grid]
    results = _run_cells(cfg, cells)
    rows, cell_summaries = _summarize_cells(cfg, cells, "alpha", results)
    _write_csv(
        out / f"{cfg.kind}_results.csv", cfg, ("alpha", "estimator", "trial", "mse", "error"), rows
    )
    summary = _base_summary(cfg)
    summary["cells"] = cell_summaries
    _write_json(out / f"{cfg.kind}_summary.json", summary)
    return summary


def run_relaxed_sweep(cfg: ExperimentConfig) -> dict:
    """sweep_alpha with per-sample feature corruption applied to test draws."""
    return run_sweep_alpha(cfg)


def _size_sweep(cfg: ExperimentConfig) -> dict:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = [(cfg.alpha, n) for n in cfg.size_grid]
    results = _run_cells(cfg, cells)
    rows, cell_summaries = _summarize_cells(cfg, cells, "n_te", results)
    _write_csv(
        out / f"{cfg.kind}_results.csv", cfg, ("n_te", "estimator", "trial", "mse", "error"), rows
    )
    summary = _base_summary(cfg)
    summary["alpha"] = cfg.alpha
    summary["cells"] = cell_summaries
    return summary


def run_sweep_size(cfg: ExperimentConfig) -> dict:
    """Ratio-estimation error across test-set sizes at one shift intensity."""
    summary = _size_sweep(cfg)
    _write_json(Path(cfg.out_dir) / f"{cfg.kind}_summary.json", summary)
    return summary


def run_rate_check(cfg: ExperimentConfig) -> dict:
    """Size sweep plus the log-log slope of mean error against size."""
    summary = _size_sweep(cfg)
    slopes = {}
    for est in cfg.estimators:
        points = [
            (c["n_te"], c["mean"])
            for c in summary["cells"]
            if c["estimator"] == est and c["mean"] is not None
        ]
        slopes[est] = loglog_slope(points) if len(points) >= 3 else None
    summary["slopes"] = slopes
    _write_json(Path(cfg.out_dir) / f"{cfg.kind}_summary.json", summary)
    return summary


def run_estimate_once(cfg: ExperimentConfig) -> dict:
    """One seeded draw, every configured estimator, full report detail."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    env = _SweepEnv(cfg)
    marginal = sample_dirichlet_marginal(cfg.alpha, env.m, seed=child_seed(cfg.seed, 0xA0, 0, 0, 0))
    ds = env.sample_test(marginal, cfg.n_te, seed=child_seed(cfg.seed, 0xA0, 0, 0, 1))
    truth = ratio_from_marginals(marginal, env.tr)
    scores = _score(env, ds.features, cfg.estimators)
    reports = {}
    for est in cfg.estimators:
        try:
            report = _run_estimator(est, env, scores, cfg.solver)
            entry = report.to_dict()
            entry["mse"] = ratio_mse(report.ratio, truth)
            entry["error"] = ""
        except Exception as exc:
            entry = {"error": f"{type(exc).__name__}: {exc}"}
        reports[est] = entry
    summary = _base_summary(cfg)
    summary["drawn_marginal"] = marginal.probs.tolist()
    summary["empirical_counts"] = ds.class_counts().tolist()
    summary["true_ratio"] = truth.ratios.tolist()
    summary["estimates"] = reports
    _write_json(out / "estimate_once_summary.json", summary)
    return summary


def run_federate(cfg: ExperimentConfig) -> dict:
    """Train the shared model under each requested weighting on one seed."""
    if cfg.data.source != "synthetic":
        raise ValueError("federate runs use the synthetic source")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mix = GaussianMixtureSpec(
        equidistant_means(cfg.data.m, cfg.data.d, cfg.data.separation), cfg.data.sigma
    )
    fed = build_federation(cfg.federation, mix)
    acc_rows = []
    trace_rows = []
    variants = {}
    for weighting in cfg.weightings:
        result = train_global(fed, weight_vectors(fed, weighting), fed.cfg)
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
        summary["crossnode_listing_ratios"] = crossnode_listing_ratios(fed).tolist()
    _write_json(out / "federate_summary.json", summary)
    return summary


RUNNERS = {
    "sweep_alpha": run_sweep_alpha,
    "sweep_size": run_sweep_size,
    "rate_check": run_rate_check,
    "estimate_once": run_estimate_once,
    "federate": run_federate,
    "relaxed_sweep": run_relaxed_sweep,
}


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
