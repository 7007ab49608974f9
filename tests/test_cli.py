import csv
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from labelshift import (
    build_federation,
    cli,
    estimators,
    federated,
    train_global,
    types,
    weight_vectors,
)

from .helpers import idx_federate_raw, record_pool_loads, write_ink_corpus

BASE_SWEEP = {
    "trials": 3,
    "n_te": 300,
    "alpha_grid": [0.5, 2.0],
    "estimators": ["vrls_em", "mlls_em", "bbse", "rlls"],
    "data": {"m": 3, "d": 2, "separation": 3.0, "n_train": 3000},
    "predictor": {"architecture": "linear", "max_epochs": 10, "zeta": 0.25,
                  "loss_threshold": 0.0},
}


def sweep_raw(**over):
    """BASE_SWEEP with over's keys, less predictor.zeta when no vrls estimator reads it."""
    raw = json.loads(json.dumps({**BASE_SWEEP, **over}))
    if not any(name.startswith("vrls_") for name in raw["estimators"]):
        raw["predictor"].pop("zeta", None)
    return raw


def read_rows(path):
    with open(path) as f:
        first = f.readline()
        assert first.startswith("# config=")
        json.loads(first[len("# config=") :])  # embedded config parses
        return list(csv.DictReader(f))


def body_lines(path):
    return Path(path).read_text().splitlines()[1:]  # drop the config line


# The BASE_SWEEP keys that a kind never reads, and so does not take.
BASE_SWEEP_UNREAD = {"sweep_size": ("n_te", "alpha_grid"),
                     "estimate_once": ("trials", "alpha_grid")}


def raw_for(kind, **over):
    """A fresh config that resolves for kind: FED_RAW for federate, else BASE_SWEEP less
    the keys the kind does not read."""
    base = FED_RAW if kind == "federate" else {
        key: value for key, value in BASE_SWEEP.items()
        if key not in BASE_SWEEP_UNREAD.get(kind, ())}
    return json.loads(json.dumps({**base, **over}))


def parent_of(raw, path):
    for step in path[:-1]:
        raw = raw[step]
    return raw


ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


# ----------------------------------------------------------- configuration


def test_resolve_rejects_kind_mismatch():
    with pytest.raises(ValueError, match="config is for kind 'sweep_size'"):
        cli.resolve_config({"kind": "sweep_size"}, "sweep_alpha")


def test_resolve_rejects_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown experiment keys: \['bogus'\]"):
        cli.resolve_config(sweep_raw(bogus=1), "sweep_alpha")
    with pytest.raises(ValueError, match="unknown predictor keys"):
        cli.resolve_config(sweep_raw(predictor={"architecture": "linear", "lr": 1}),
                           "sweep_alpha")


EXPLICIT_PERTURBATION = {"apply_prob": 0.1, "noise_sigma_range": [0.1, 0.2],
                         "brightness_delta": 0.1}


@pytest.mark.parametrize(
    "kind, path, section, key, where",
    [
        ("federate", ["data"], None, "mm", "data"),
        ("federate", ["federation", "nodes", 1], None, "n_trr", r"federation\.nodes\[1\]"),
        ("federate", ["federation", "server_optimizer"], None, "lr",
         r"federation\.server_optimizer"),
        ("sweep_alpha", ["solver"], {"tol": 1e-5}, "tl", "solver"),
        ("sweep_alpha", ["predictor"], {"zeta": 0.5}, "lr", "predictor"),
        ("sweep_alpha", ["perturbation"], EXPLICIT_PERTURBATION, "p", "perturbation"),
        ("sweep_alpha", ["perturbation"], {"preset": "relaxed"}, "preset", "perturbation"),
        # The experiment seed keys the corruption too.
        ("sweep_alpha", ["perturbation"], EXPLICIT_PERTURBATION, "seed", "perturbation"),
        ("federate", ["federation"], None, "round", "federation"),
        ("federate", ["federation"], None, "scenario", "federation"),
        ("federate", ["federation", "global_model"], None, "lr", r"federation\.global_model"),
        ("federate", ["federation", "ratio_predictor"], None, "lr",
         r"federation\.ratio_predictor"),
        ("federate", ["federation", "ratio_solver"], {"max_iters": 50}, "tl",
         r"federation\.ratio_solver"),
        # The experiment seed is the only one.
        ("federate", ["federation"], None, "seed", "federation"),
        # EM, the one likelihood solver, takes no step size.
        ("sweep_alpha", ["solver"], {"tol": 1e-5}, "step_size", "solver"),
        ("federate", ["federation", "ratio_solver"], {"max_iters": 50}, "step_size",
         r"federation\.ratio_solver"),
    ],
    ids=["data", "node", "server", "solver", "predictor", "perturbation", "perturbation_preset",
         "perturbation_seed", "federation", "federation_scenario", "global_model",
         "ratio_predictor", "ratio_solver", "federation_seed", "solver_step_size",
         "ratio_solver_step_size"],
)
def test_resolve_rejects_unknown_keys_in_every_section(tmp_path, capsys, kind, path, section,
                                                       key, where):
    raw = raw_for(kind)
    parent = parent_of(raw, path)
    if section is not None:
        parent[path[-1]] = json.loads(json.dumps(section))
    parent[path[-1]].setdefault(key, 1)
    message = rf"unknown {where} keys: \['{key}'\]"
    with pytest.raises(ValueError, match=message):
        cli.resolve_config(raw, kind)
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert re.search(rf"^error: {message}$", capsys.readouterr().err, re.M)
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, path, value, where",
    [
        ("federate", ["federation", "nodes", 0, "n_tr"], 2.5, r"federation\.nodes\[0\]\.n_tr"),
        ("sweep_size", ["size_grid"], [500, 2.5], r"size_grid\[1\]"),
        ("sweep_alpha", ["trials"], "3", "trials"),
        ("federate", ["seed"], True, "seed"),
        ("federate", ["federation", "rounds"], 8.0, r"federation\.rounds"),
        ("federate", ["federation", "global_model", "batch_size"], 32.0,
         r"federation\.global_model\.batch_size"),
    ],
    ids=["node_n_tr", "size_grid", "trials", "seed", "rounds", "batch_size"],
)
def test_resolve_accepts_only_json_integers_for_int_fields(kind, path, value, where):
    raw = raw_for(kind)
    parent_of(raw, path)[path[-1]] = value
    with pytest.raises(ValueError, match=rf"^{where} must be an integer, got "):
        cli.resolve_config(raw, kind)


@pytest.mark.parametrize(
    "kind, path, value, where, expected",
    [
        ("sweep_size", ["alpha"], "1", "alpha", "a number"),
        ("sweep_alpha", ["predictor", "zeta"], True, r"predictor\.zeta", "a number"),
        ("sweep_alpha", ["alpha_grid"], [0.5, "2"], r"alpha_grid\[1\]", "a number"),
        ("federate", ["crossnode_listing"], "yes", "crossnode_listing", "a boolean"),
        ("federate", ["federation", "normalize_weights"], "no",
         r"federation\.normalize_weights", "a boolean"),
        ("federate", ["out_dir"], 5, "out_dir", "a string"),
        ("sweep_alpha", ["estimators"], ["vrls_em", 3], r"estimators\[1\]", "a string"),
        ("federate", ["federation", "server_optimizer", "kind"], 1,
         r"federation\.server_optimizer\.kind", "a string"),
        ("sweep_alpha", ["predictor", "loss_threshold"], float("nan"),
         r"predictor\.loss_threshold", "a finite number"),
        ("sweep_alpha", ["alpha_grid"], [float("nan")], r"alpha_grid\[0\]", "a finite number"),
        ("sweep_alpha", ["alpha_grid"], [1.0, float("inf")], r"alpha_grid\[1\]",
         "a finite number"),
        ("sweep_alpha", ["alpha_grid"], [10**400], r"alpha_grid\[0\]", "a finite number"),
        ("sweep_alpha", ["predictor", "zeta"], float("nan"), r"predictor\.zeta",
         "a finite number"),
        ("sweep_alpha", ["predictor", "weight_decay"], float("nan"),
         r"predictor\.weight_decay", "a finite number"),
        ("sweep_alpha", ["solver"], {"rlls_lambda": float("-inf")}, r"solver\.rlls_lambda",
         "a finite number"),
        ("sweep_alpha", ["perturbation"],
         {**EXPLICIT_PERTURBATION, "brightness_delta": float("nan")},
         r"perturbation\.brightness_delta", "a finite number"),
    ],
    ids=["alpha", "zeta", "alpha_grid", "crossnode_listing", "normalize_weights", "out_dir",
         "estimators", "server_kind", "nan_loss_threshold", "nan_alpha_grid", "inf_alpha_grid",
         "huge_alpha_grid", "nan_zeta", "nan_weight_decay", "inf_rlls_lambda",
         "nan_brightness_delta"],
)
def test_resolve_type_checks_scalar_fields(kind, path, value, where, expected):
    raw = raw_for(kind)
    parent_of(raw, path)[path[-1]] = value
    with pytest.raises(ValueError, match=rf"^{where} must be {expected}, got "):
        cli.resolve_config(raw, kind)


@pytest.mark.parametrize(
    "kind, path, where",
    [
        ("federate", ["federation", "server_optimizer", "betas"],
         r"federation\.server_optimizer\.betas"),
        ("sweep_alpha", ["perturbation", "noise_sigma_range"], r"perturbation\.noise_sigma_range"),
    ],
    ids=["betas", "noise_sigma_range"],
)
def test_resolve_checks_the_length_of_fixed_pairs(kind, path, where):
    raw = raw_for(kind)
    if kind != "federate":
        raw["perturbation"] = json.loads(json.dumps(EXPLICIT_PERTURBATION))
    parent_of(raw, path)[path[-1]] = [0.1, 0.2, 0.3]
    with pytest.raises(ValueError, match=rf"^{where} must have 2 entries, got 3$"):
        cli.resolve_config(raw, kind)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["federation", "ratio_predictor", "zeta"], -1,
         r"federation\.ratio_predictor: zeta must be nonnegative$"),
        (["federation", "nodes", 1, "train_marginal"], [0.5, 0.6, 0.1],
         r"federation\.nodes\[1\]\.train_marginal: marginal sums to 1\.2"),
        (["federation", "nodes", 1, "train_marginal"], [0.5, "x", 0.1],
         r"federation\.nodes\[1\]\.train_marginal\[1\] must be a number, got 'x'$"),
        (["federation", "nodes", 1, "train_marginal"], {"probs": [0.5, "x", 0.1]},
         r"federation\.nodes\[1\]\.train_marginal\.probs\[1\] must be a number, got 'x'$"),
        (["federation", "nodes", 1, "train_marginal"], {"probs": [True, False, 0]},
         r"federation\.nodes\[1\]\.train_marginal\.probs\[0\] must be a number, got True$"),
        # four equidistant means need three dimensions
        (["data", "m"], 4, r"data: synthetic source needs m >= 2 and d >= m - 1$"),
    ],
    ids=["zeta", "marginal_sum", "marginal_entry", "marginal_probs_entry", "marginal_probs_bool",
         "too_few_dimensions"],
)
def test_resolve_names_the_path_of_a_value_its_section_rejects(path, value, message):
    raw = json.loads(json.dumps(FED_RAW))
    parent_of(raw, path)[path[-1]] = value
    with pytest.raises(ValueError, match=rf"^{message}"):
        cli.resolve_config(raw, "federate")


def test_resolve_keeps_float_fields_as_written():
    cfg = cli.resolve_config(raw_for("sweep_size", alpha=2, split_fraction=0), "sweep_size")
    assert '"alpha":2,' in cli._config_line(cfg)
    assert '"split_fraction":0,' in cli._config_line(cfg)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_round_trip(path):
    raw = json.loads(path.read_text())
    cfg = cli.resolve_config(raw, raw["kind"])
    line = cli._config_line(cfg)
    again = cli.resolve_config(json.loads(line), cfg.kind)
    assert cli._config_line(again) == line


@pytest.mark.parametrize(
    "kind, path, where",
    [("sweep_alpha", ["solver"], "solver"),
     ("federate", ["federation", "ratio_solver"], "federation.ratio_solver")],
    ids=["solver", "ratio_solver"],
)
def test_resolve_rejects_non_likelihood_solver(tmp_path, capsys, kind, path, where):
    raw = json.loads(next(p for p in CONFIGS if p.stem == kind).read_text())
    parent_of(raw, path)[path[-1]] = {"method": "bbse"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"error: unknown {where} keys: ['method']" in capsys.readouterr().err
    assert not out.exists()


def test_resolve_rejects_a_federation_weighting(tmp_path, capsys):
    raw = json.loads(next(p for p in CONFIGS if p.stem == "federate").read_text())
    raw["federation"]["weighting"] = "true_ratios"  # the weightings list decides
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["federate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "error: unknown federation keys: ['weighting']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "n_train, split_fraction, fits",
    [(1, 0.5, False), (3, 0.9999, False), (2, 0.5, True), (1, 0.0, True)],
)
def test_resolve_checks_that_the_split_leaves_training_rows(n_train, split_fraction, fits):
    raw = sweep_raw(split_fraction=split_fraction)
    raw["data"]["n_train"] = n_train
    if fits:
        assert cli.resolve_config(raw, "sweep_alpha").data.n_train == n_train
        return
    with pytest.raises(ValueError, match=rf"^split_fraction {split_fraction} of data\.n_train "
                                         rf"{n_train} leaves no training rows$"):
        cli.resolve_config(raw, "sweep_alpha")


def test_resolve_validates_estimator_names():
    with pytest.raises(ValueError, match="unknown estimator 'vrls'"):
        cli.resolve_config(sweep_raw(estimators=["vrls"]), "sweep_alpha")


def test_federate_requires_federation_section():
    with pytest.raises(ValueError, match="federate runs need a federation section"):
        cli.resolve_config({"data": {"m": 3, "d": 2}}, "federate")


def test_out_dir_precedence(monkeypatch, tmp_path):
    raw = sweep_raw(out_dir="from-config")
    assert cli.resolve_config(raw, "sweep_alpha").out_dir == "from-config"
    monkeypatch.setenv("LABELSHIFT_OUT", "from-env")
    assert cli.resolve_config(raw, "sweep_alpha").out_dir == "from-env"
    assert cli.resolve_config(raw, "sweep_alpha", out="from-flag").out_dir == "from-flag"


def test_seed_override_reaches_federation(tmp_path, monkeypatch):
    raw = {
        "seed": 5,
        "data": {"m": 2, "d": 2, "separation": 2.5},
        "federation": {
            "nodes": [{"train_marginal": [0.5, 0.5], "test_marginal": [0.5, 0.5],
                       "n_tr": 20, "n_te": 20}],
            "rounds": 2,
        },
    }
    cfg = cli.resolve_config(raw, "federate", out=str(tmp_path), seed=42)
    assert cfg.seed == 42
    builds = []
    _count_calls(monkeypatch, cli, "build_federation", builds)
    cli.run_federate(cfg)
    assert [args[2] for args in builds] == [42]


# ----------------------------------------------------------------- sweeps


def test_sweep_alpha_outputs_and_determinism(tmp_path):
    cfg = cli.resolve_config(sweep_raw(), "sweep_alpha", out=str(tmp_path / "a"), seed=3)
    summary = cli.run_sweep_alpha(cfg)
    csv_path = tmp_path / "a" / "sweep_alpha_results.csv"
    first_bytes = csv_path.read_bytes()
    rows = read_rows(csv_path)
    # 2 alphas x 4 estimators x 3 trials
    assert len(rows) == 24
    assert set(rows[0]) == {"alpha", "estimator", "trial", "mse", "error"}
    assert all(r["error"] == "" for r in rows)
    assert summary["schema_version"] == cli.SCHEMA_VERSION
    assert summary["kind"] == "sweep_alpha"
    assert len(summary["cells"]) == 8
    for cell in summary["cells"]:
        assert cell["count"] == 3 and cell["errors"] == 0
    json_path = tmp_path / "a" / "sweep_alpha_summary.json"
    assert json.loads(json_path.read_text())["seed"] == 3

    cli.run_sweep_alpha(cfg)  # same config, same directory
    assert csv_path.read_bytes() == first_bytes


def test_sweep_rows_identical_across_thread_counts(tmp_path):
    one = cli.resolve_config(sweep_raw(), "sweep_alpha", out=str(tmp_path / "t1"), seed=3)
    four = cli.resolve_config(sweep_raw(), "sweep_alpha", out=str(tmp_path / "t4"),
                              seed=3, threads=4)
    cli.run_sweep_alpha(one)
    cli.run_sweep_alpha(four)
    assert body_lines(tmp_path / "t1" / "sweep_alpha_results.csv") == body_lines(
        tmp_path / "t4" / "sweep_alpha_results.csv")


def test_sweep_alpha_near_uniform_recovers_ones(tmp_path):
    raw = sweep_raw(trials=3, n_te=5000, alpha_grid=[1e6], estimators=["mlls_em"],
                    data={"m": 3, "d": 2, "separation": 3.0, "n_train": 20000},
                    predictor={"architecture": "linear", "max_epochs": 30,
                               "loss_threshold": 0.0})
    cfg = cli.resolve_config(raw, "sweep_alpha", out=str(tmp_path), seed=5)
    summary = cli.run_sweep_alpha(cfg)
    assert summary["cells"][0]["mean"] < 0.01


def test_estimator_failures_recorded_not_fatal(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "estimate_mlls_em", boom)
    raw = sweep_raw(estimators=["mlls_em", "bbse"], trials=2, alpha_grid=[1.0])
    cfg = cli.resolve_config(raw, "sweep_alpha", out=str(tmp_path), seed=1)
    summary = cli.run_sweep_alpha(cfg)
    rows = read_rows(tmp_path / "sweep_alpha_results.csv")
    failed = [r for r in rows if r["estimator"] == "mlls_em"]
    assert all(r["error"] == "RuntimeError: synthetic failure" and r["mse"] == ""
               for r in failed)
    assert all(r["error"] == "" for r in rows if r["estimator"] == "bbse")
    by_est = {c["estimator"]: c for c in summary["cells"]}
    assert by_est["mlls_em"]["errors"] == 2 and by_est["mlls_em"]["count"] == 0
    assert by_est["bbse"]["errors"] == 0


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _count_jobs(monkeypatch, module, jobs):
    """Records each (train, cfg) job that module passes to train_predictors."""
    original = module.train_predictors

    def counted(batch):
        batch = list(batch)
        jobs.extend(batch)
        return original(batch)

    monkeypatch.setattr(module, "train_predictors", counted)


@pytest.mark.parametrize(
    "names, zeta, predictors, em_fails",
    [(["vrls_em", "mlls_em", "bbse", "rlls"], 0.25, 2, False),
     (["mlls_em", "bbse"], 0.25, 1, False), (["vrls_em"], 0.25, 1, False),
     (["vrls_em", "mlls_em", "bbse", "rlls"], 0, 1, False),
     (["vrls_em", "mlls_em", "bbse", "rlls"], 0.25, 2, True)],
    ids=["both", "base", "reg", "zeta0", "both_em_fails"],
)
def test_sweep_scores_each_draw_once_per_predictor(tmp_path, monkeypatch, names, zeta,
                                                   predictors, em_fails):
    calls, trained = [], []
    _count_calls(monkeypatch, cli, "predict_proba", calls)
    _count_jobs(monkeypatch, cli, trained)
    if em_fails:  # a solver failure after scoring leaves the draw's scores for the rest
        def fail(*args, **kwargs):
            raise RuntimeError("solver failed")

        monkeypatch.setattr(cli, "estimate_mlls_em", fail)
    raw = sweep_raw(estimators=names, trials=2, predictor={**BASE_SWEEP["predictor"], "zeta": zeta})
    cfg = cli.resolve_config(raw, "sweep_alpha", out=str(tmp_path), seed=3)
    cli.run_sweep_alpha(cfg)
    validation = 1 if {"bbse", "rlls"} & set(names) else 0
    draws = len(cfg.alpha_grid) * cfg.trials
    assert len(trained) == predictors
    assert len(calls) == validation + draws * predictors
    assert len({(id(pred), id(feats)) for pred, feats in calls}) == len(calls)
    rows = read_rows(tmp_path / "sweep_alpha_results.csv")
    assert len(rows) == draws * len(names)
    for r in rows:
        failed = em_fails and r["estimator"].endswith("_em")
        assert r["error"] == ("RuntimeError: solver failed" if failed else "")


def test_sweep_takes_each_probability_matrix_argmax_once(tmp_path, monkeypatch):
    calls = []
    _count_calls(monkeypatch, types, "argmax_last", calls)
    cfg = cli.resolve_config(sweep_raw(estimators=["vrls_em", "bbse", "rlls"], trials=2),
                             "sweep_alpha", out=str(tmp_path), seed=3)
    summary = cli.run_sweep_alpha(cfg)
    assert all(c["errors"] == 0 for c in summary["cells"])
    draws = len(cfg.alpha_grid) * cfg.trials
    assert len(calls) == 1 + draws  # the validation scores, then each draw's once


def test_sweep_picks_each_solver_by_the_estimator_name(tmp_path, monkeypatch):
    em = []
    _count_calls(monkeypatch, cli, "estimate_mlls_em", em)
    raw = sweep_raw(estimators=["vrls_em", "mlls_em"], trials=1, alpha_grid=[1.0])
    cfg = cli.resolve_config(raw, "sweep_alpha", out=str(tmp_path), seed=3)
    summary = cli.run_sweep_alpha(cfg)
    assert len(em) == 2
    assert all(opts is cfg.solver for *_, opts in em)
    assert all(c["count"] == 1 and c["errors"] == 0 for c in summary["cells"])


def test_scoring_failure_is_charged_to_each_estimator_needing_it(tmp_path, monkeypatch):
    trained = {}
    original_train, original_predict = cli.train_predictors, cli.predict_proba

    def train(jobs):
        jobs = list(jobs)
        preds = original_train(jobs)
        for (_, pcfg), pred in zip(jobs, preds):
            trained[pcfg.zeta] = pred
        return preds

    def predict(pred, features):
        if pred is trained[0.0] and len(features) == BASE_SWEEP["n_te"]:
            raise RuntimeError("scoring failed")
        return original_predict(pred, features)

    monkeypatch.setattr(cli, "train_predictors", train)
    monkeypatch.setattr(cli, "predict_proba", predict)
    cfg = cli.resolve_config(sweep_raw(), "sweep_alpha", out=str(tmp_path / "s"), seed=3)
    cli.run_sweep_alpha(cfg)
    rows = read_rows(tmp_path / "s" / "sweep_alpha_results.csv")
    assert len(rows) == 24
    for r in rows:
        if r["estimator"] == "vrls_em":
            assert r["error"] == "" and float(r["mse"]) >= 0
        else:
            assert r["error"] == "RuntimeError: scoring failed" and r["mse"] == ""

    cfg = cli.resolve_config(raw_for("estimate_once"), "estimate_once", out=str(tmp_path / "e"),
                             seed=3)
    estimates = cli.run_estimate_once(cfg)["estimates"]
    assert estimates["vrls_em"]["error"] == ""
    for name in ("mlls_em", "bbse", "rlls"):
        assert estimates[name] == {"error": "RuntimeError: scoring failed"}


def test_relaxed_with_zero_apply_prob_reproduces_sweep(tmp_path):
    plain = cli.resolve_config(sweep_raw(), "sweep_alpha", out=str(tmp_path / "p"), seed=3)
    cli.run_sweep_alpha(plain)
    raw = sweep_raw(perturbation={"apply_prob": 0.0, "noise_sigma_range": [0.1, 0.5],
                                  "brightness_delta": 0.1})
    relaxed = cli.resolve_config(raw, "sweep_alpha", out=str(tmp_path / "r"), seed=3)
    cli.run_sweep_alpha(relaxed)
    assert body_lines(tmp_path / "r" / "sweep_alpha_results.csv") == body_lines(
        tmp_path / "p" / "sweep_alpha_results.csv")


def test_seed_keys_which_rows_each_trial_corrupts(tmp_path, monkeypatch):
    hits = []
    original = cli.perturb_relaxed

    def recorded(data, *args):
        out = original(data, *args)
        hits[-1].append(np.flatnonzero(np.any(out.features != data.features, axis=1)).tolist())
        return out

    monkeypatch.setattr(cli, "perturb_relaxed", recorded)
    raw = sweep_raw(estimators=["mlls_em"], trials=2, perturbation=EXPLICIT_PERTURBATION)
    for seed in (3, 4):
        hits.append([])
        cli.run_sweep_alpha(cli.resolve_config(raw, "sweep_alpha", out=str(tmp_path / str(seed)),
                                               seed=seed))
    assert len(hits[0]) == len(hits[1]) == 4 and all(hits[0])
    assert all(rows3 != rows4 for rows3, rows4 in zip(*hits))


def test_heavier_corruption_degrades_estimates(tmp_path):
    medians = {}
    levels = {"mild": {"apply_prob": 0.3, "noise_sigma_range": [0.1, 0.5],
                       "brightness_delta": 0.1},
              "heavy": {"apply_prob": 0.5, "noise_sigma_range": [0.1, 0.7],
                        "brightness_delta": 0.2}}
    for level, perturbation in levels.items():
        raw = sweep_raw(trials=8, n_te=500, alpha_grid=[1.0], estimators=["mlls_em"],
                        data={"m": 3, "d": 2, "separation": 2.5, "n_train": 4000},
                        predictor={"architecture": "linear", "max_epochs": 15,
                                   "loss_threshold": 0.0},
                        perturbation=perturbation)
        cfg = cli.resolve_config(raw, "sweep_alpha", out=str(tmp_path / level), seed=11)
        cli.run_sweep_alpha(cfg)
        rows = read_rows(tmp_path / level / "sweep_alpha_results.csv")
        medians[level] = float(np.median([float(r["mse"]) for r in rows]))
    assert medians["heavy"] >= medians["mild"]


SIZE_RAW = {
    "trials": 10,
    "alpha": 1.0,
    "size_grid": [500, 8000],
    "estimators": ["vrls_em", "mlls_em"],
    "data": {"m": 3, "d": 2, "separation": 3.0, "n_train": 4000},
    "predictor": {"architecture": "linear", "max_epochs": 15, "zeta": 0.25,
                  "loss_threshold": 0.0},
}


def test_sweep_size_error_shrinks_with_samples(tmp_path):
    cfg = cli.resolve_config(json.loads(json.dumps(SIZE_RAW)), "sweep_size",
                             out=str(tmp_path), seed=9)
    summary = cli.run_sweep_size(cfg)
    for est in ("vrls_em", "mlls_em"):
        by_size = {c["n_te"]: c["mean"] for c in summary["cells"] if c["estimator"] == est}
        assert by_size[8000] < by_size[500]
    rows = read_rows(tmp_path / "sweep_size_results.csv")
    assert set(rows[0]) == {"n_te", "estimator", "trial", "mse", "error"}


def test_rate_check_reports_negative_slopes(tmp_path):
    # sweep_size reports the log-log slope per estimator; it needs 3 cells with a mean
    raw = json.loads(json.dumps(SIZE_RAW))
    raw["trials"] = 6
    for grid in ([250, 1000, 4000], [250, 4000]):
        raw["size_grid"] = grid
        out = tmp_path / str(len(grid))
        summary = cli.run_sweep_size(cli.resolve_config(raw, "sweep_size", out=str(out), seed=9))
        written = json.loads((out / "sweep_size_summary.json").read_text())
        assert written["slopes"] == summary["slopes"]
        assert set(summary["slopes"]) == {"vrls_em", "mlls_em"}
        if len(grid) >= 3:
            assert all(s < 0 for s in summary["slopes"].values())
        else:
            assert all(s is None for s in summary["slopes"].values())


def test_estimate_once_summary_fields(tmp_path):
    cfg = cli.resolve_config(raw_for("estimate_once"), "estimate_once", out=str(tmp_path), seed=3)
    summary = cli.run_estimate_once(cfg)
    written = json.loads((tmp_path / "estimate_once_summary.json").read_text())
    assert written["drawn_marginal"] == summary["drawn_marginal"]
    assert len(summary["true_ratio"]) == 3
    assert sum(summary["empirical_counts"]) == 300
    for name in ("vrls_em", "mlls_em", "bbse", "rlls"):
        entry = summary["estimates"][name]
        assert entry["error"] == ""
        assert len(entry["ratio"]) == 3 and entry["mse"] >= 0


# --------------------------------------------------------------- federate


FED_RAW = {
    "weightings": ["none", "true_ratios", "estimated_ratios"],
    "crossnode_listing": True,
    "data": {"m": 3, "d": 2, "separation": 2.5},
    "federation": {
        "nodes": [
            {"train_marginal": [0.8, 0.1, 0.1], "test_marginal": [0.1, 0.1, 0.8],
             "n_tr": 400, "n_te": 300, "seed": 1},
            {"train_marginal": [0.1, 0.8, 0.1], "test_marginal": [0.1, 0.1, 0.8],
             "n_tr": 400, "n_te": 300, "seed": 2},
        ],
        "rounds": 8,
        "global_model": {"architecture": "linear", "learning_rate": 0.1},
        "server_optimizer": {"kind": "adam", "learning_rate": 0.05},
        "ratio_predictor": {"architecture": "mlp", "hidden_units": 16, "zeta": 0.25,
                            "max_epochs": 20},
    },
}


def test_federate_emits_all_weighting_variants(tmp_path):
    cfg = cli.resolve_config(json.loads(json.dumps(FED_RAW)), "federate",
                             out=str(tmp_path), seed=2)
    summary = cli.run_federate(cfg)
    acc_rows = read_rows(tmp_path / "federate_accuracy.csv")
    assert len(acc_rows) == 3 * 2  # weightings x nodes
    assert {r["weighting"] for r in acc_rows} == {"none", "true_ratios", "estimated_ratios"}
    trace_rows = read_rows(tmp_path / "federate_trace.csv")
    assert len(trace_rows) == 3 * 8  # weightings x rounds
    assert set(trace_rows[0]) == {"weighting", "round", "mean_loss", "avg_accuracy"}
    for variant in summary["weightings"].values():
        assert len(variant["per_node_accuracy"]) == 2
        assert np.array(variant["node_weights"]).shape == (2, 3)
    assert np.array(summary["crossnode_listing_ratios"]).shape == (2, 3)


def test_federate_builds_once_and_trains_one_ratio_predictor_per_node(tmp_path, monkeypatch):
    builds, trainings = [], []
    _count_calls(monkeypatch, cli, "build_federation", builds)
    for module in (cli, federated, estimators):
        _count_jobs(monkeypatch, module, trainings)
    cfg = cli.resolve_config(json.loads(json.dumps(FED_RAW)), "federate",
                             out=str(tmp_path), seed=2)
    assert "estimated_ratios" in cfg.weightings and cfg.crossnode_listing
    cli.run_federate(cfg)
    assert len(builds) == 1
    assert len(trainings) == cfg.federation.k


def test_federate_solves_each_node_with_em_once(tmp_path, monkeypatch):
    solved = []
    _count_calls(monkeypatch, federated, "estimate_mlls_em", solved)
    raw = {**json.loads(json.dumps(FED_RAW)), "crossnode_listing": False}
    cfg = cli.resolve_config(raw, "federate", out=str(tmp_path), seed=2)
    cli.run_federate(cfg)
    assert len(solved) == cfg.federation.k
    assert all(opts is cfg.federation.ratio_solver for *_, opts in solved)


def test_federate_matches_train_global_per_weighting(tmp_path):
    cfg = cli.resolve_config(json.loads(json.dumps(FED_RAW)), "federate",
                             out=str(tmp_path), seed=2)
    summary = cli.run_federate(cfg)
    for weighting in cfg.weightings:
        fed = build_federation(cfg.federation, cfg.data, cfg.seed)  # a fresh build per weighting
        (direct,) = train_global(fed, [weight_vectors(fed, weighting)], cfg.federation)
        variant = summary["weightings"][weighting]
        assert variant["per_node_accuracy"] == list(direct.per_node_accuracy)
        assert variant["avg_accuracy"] == direct.avg_accuracy
        assert variant["node_weights"] == direct.node_weights.tolist()
        assert variant["final_loss"] == direct.loss_trace[-1]


def test_main_rejects_unknown_weighting_before_training(tmp_path, monkeypatch, capsys):
    raw = json.loads(next(p for p in CONFIGS if p.stem == "federate").read_text())
    raw["weightings"].append("bogus")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    builds = []
    _count_calls(monkeypatch, cli, "build_federation", builds)
    out = tmp_path / "out"
    assert cli.main(["federate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "unknown weighting 'bogus'" in capsys.readouterr().err
    assert builds == [] and not out.exists()


IDX_DATA = {"source": "idx", "train_images": "x", "train_labels": "x", "test_images": "x",
            "test_labels": "x"}
# A value other than the default for every data field that an IDX source does not read.
IDX_IGNORES = {"m": 10, "d": 784, "separation": 2.5, "sigma": 0.5}
# A value other than the default for every field that only the sweeps and estimate_once read.
FED_IGNORES = {"predictor": {"zeta": 0.5}, "solver": {"tol": 1e-5}, "estimators": ["bbse"],
               "alpha_grid": [0.5], "size_grid": [100], "trials": 3, "n_te": 300,
               "split_fraction": 0.1}


def federation_with(section, **over):
    """FED_RAW's federation section with over set in its section."""
    federation = json.loads(json.dumps(FED_RAW["federation"]))
    federation[section] = {**federation.get(section, {}), **over}
    return federation


# (kind, top-level key, value, dotted path) for a value other than the default of each
# remaining field that no run of the kind reads.
UNREAD = [
    ("sweep_alpha", "alpha", 2.0, "alpha"),
    ("sweep_alpha", "size_grid", [100], "size_grid"),
    ("sweep_size", "alpha_grid", [0.5], "alpha_grid"),
    ("sweep_size", "n_te", 300, "n_te"),
    ("estimate_once", "trials", 3, "trials"),
    ("estimate_once", "alpha_grid", [0.5], "alpha_grid"),
    ("estimate_once", "size_grid", [100], "size_grid"),
    ("federate", "alpha", 2.0, "alpha"),
    *[("federate", "federation", federation_with("global_model", **{key: value}),
       f"federation.global_model.{key}")
      for key, value in {"zeta": 0.5, "max_epochs": 5, "loss_threshold": 0.0}.items()],
    ("federate", "federation", federation_with("ratio_solver", rlls_lambda=0.1),
     "federation.ratio_solver.rlls_lambda"),
]

LINEAR_NO_ZETA = {"architecture": "linear", "max_epochs": 10, "loss_threshold": 0.0}
NO_RATIOS = {"weightings": ["none", "true_ratios"], "crossnode_listing": False}

# (kind, top-level overrides, who, dotted path) for a value other than the default of each
# field that a run reads only under a condition, in a run where the condition fails.
UNREAD_IF = [
    # BASE_SWEEP's zeta 0.25 without a vrls estimator
    ("sweep_alpha", {"estimators": ["mlls_em", "bbse"]}, "runs without a vrls estimator",
     "predictor.zeta"),
    ("sweep_size", {"predictor": {**BASE_SWEEP["predictor"], "hidden_units": 8}},
     "linear models", "predictor.hidden_units"),
    ("sweep_alpha", {"estimators": ["vrls_em", "mlls_em"], "solver": {"rlls_lambda": 0.1}},
     "runs without rlls", "solver.rlls_lambda"),
    *[("sweep_alpha", {"estimators": ["bbse", "rlls"], "predictor": LINEAR_NO_ZETA,
                       "solver": {key: value}},
       "runs without a likelihood estimator", f"solver.{key}")
      for key, value in {"max_iters": 50, "tol": 1e-5}.items()],
    ("federate", {"federation": federation_with("global_model", hidden_units=8)},
     "linear models", "federation.global_model.hidden_units"),
    ("federate", {"federation": federation_with("global_model", learning_rate=0.5)},
     "runs with one local step", "federation.global_model.learning_rate"),
    *[("federate", {"federation": federation_with("server_optimizer", kind="sgd", **{key: value})},
       "sgd optimizers", f"federation.server_optimizer.{key}")
      for key, value in {"betas": [0.8, 0.99], "eps": 1e-6}.items()],
    ("federate", {"federation": federation_with("ratio_predictor", architecture="linear")},
     "linear models", "federation.ratio_predictor.hidden_units"),
    # FED_RAW's ratio_predictor without a ratio weighting or the cross-node listing
    ("federate", NO_RATIOS, "runs that estimate no ratios", "federation.ratio_predictor"),
    ("federate", {**NO_RATIOS, "federation": {
        **{k: v for k, v in FED_RAW["federation"].items() if k != "ratio_predictor"},
        "ratio_solver": {"max_iters": 50}}},
     "runs that estimate no ratios", "federation.ratio_solver"),
]


@pytest.mark.parametrize(
    "kind, over, message",
    [
        ("sweep_alpha", {"federation": FED_RAW["federation"]},
         "sweep_alpha runs take no federation key"),
        ("estimate_once", {"federation": FED_RAW["federation"]},
         "estimate_once runs take no federation key"),
        ("federate", {"perturbation": EXPLICIT_PERTURBATION},
         "federate runs take no perturbation key"),
        *[("sweep_alpha", {"data": {**IDX_DATA, key: value}},
           f"data: idx sources take no {key} key") for key, value in IDX_IGNORES.items()],
        ("sweep_alpha", {"data": {"test_labels": "x"}},
         "data: synthetic sources take no test_labels key"),
        ("federate", {"data": {"n_train": 500}}, r"federate runs take no data\.n_train key"),
        *[("federate", {key: value}, f"federate runs take no {key} key")
          for key, value in FED_IGNORES.items()],
        ("sweep_alpha", {"weightings": ["none"]}, "sweep_alpha runs take no weightings key"),
        ("sweep_size", {"crossnode_listing": True},
         "sweep_size runs take no crossnode_listing key"),
        ("estimate_once", {"crossnode_listing": True},
         "estimate_once runs take no crossnode_listing key"),
        *[(kind, {key: value}, re.escape(f"{kind} runs take no {path} key"))
          for kind, key, value, path in UNREAD],
        *[(kind, over, re.escape(f"{who} take no {path} key"))
          for kind, over, who, path in UNREAD_IF],
    ],
    ids=["sweep_federation", "estimate_once_federation", "federate_perturbation",
         *[f"idx_{key}" for key in IDX_IGNORES], "synthetic_path", "federate_n_train",
         *[f"federate_{key}" for key in FED_IGNORES], "sweep_weightings",
         "sweep_size_crossnode_listing", "estimate_once_crossnode_listing",
         *[f"{kind}_{path.removeprefix('federation.').replace('.', '_')}"
           for kind, *_, path in UNREAD + UNREAD_IF]],
)
def test_resolve_rejects_a_section_the_kind_ignores(tmp_path, capsys, kind, over, message):
    raw = raw_for(kind, **over)
    with pytest.raises(ValueError, match=rf"^{message}$"):
        cli.resolve_config(raw, kind)
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert re.search(rf"^error: {message}$", capsys.readouterr().err, re.M)
    assert not out.exists()


@pytest.mark.parametrize("data, classes", [({"m": 4, "d": 3, "separation": 2.5}, 4),
                                           (IDX_DATA, 10)], ids=["synthetic", "idx"])
def test_resolve_rejects_a_federation_of_other_class_count(tmp_path, capsys, data, classes):
    raw = raw_for("federate", data=data)
    message = f"federation nodes have 3 classes but the data source has {classes}"
    with pytest.raises(ValueError, match=rf"^{message}$"):
        cli.resolve_config(raw, "federate")
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["federate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", cli.KINDS)
def test_every_kind_takes_the_run_settings(tmp_path, kind):
    raw = raw_for(kind, seed=4, out_dir="from-config", threads=3)
    cfg = cli.resolve_config(raw, kind, out=str(tmp_path), threads=2)
    assert (cfg.seed, cfg.out_dir, cfg.threads) == (4, str(tmp_path), 2)


@pytest.mark.parametrize(
    "kind, key, names, message",
    [
        ("sweep_alpha", "estimators", ["mlls_em", "mlls_em"], "duplicate estimator 'mlls_em'"),
        ("federate", "weightings", ["none", "true_ratios", "none"], "duplicate weighting 'none'"),
        ("federate", "weightings", [], "need at least one weighting"),
        ("sweep_alpha", "estimators", ["vrls_gd"], "unknown estimator 'vrls_gd'"),
    ],
    ids=["duplicate_estimator", "duplicate_weighting", "no_weighting", "retired_estimator"],
)
def test_main_rejects_repeated_or_missing_names_before_any_output(tmp_path, capsys, kind, key,
                                                                   names, message):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(raw_for(kind, **{key: names})))
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# Under ls_multi on the ink corpus, estimated_ratios must beat none on avg_accuracy by this
# much. Fixed before the test first ran.
IDX_FEDERATE_MARGIN = 0.01


@pytest.mark.parametrize("seed", [0, 1])
def test_federate_runs_end_to_end_on_an_idx_corpus(tmp_path, seed):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(idx_federate_raw(write_ink_corpus(tmp_path, 0))))
    assert cli.main(["federate", "--config", str(cfg_path), "--out", str(out),
                     "--seed", str(seed)]) == 0
    summary = json.loads((out / "federate_summary.json").read_text())
    variants = summary["weightings"]
    assert np.array(variants["estimated_ratios"]["node_weights"]).shape == (3, 10)
    acc = {w: v["avg_accuracy"] for w, v in variants.items()}
    assert acc["estimated_ratios"] >= acc["none"] + IDX_FEDERATE_MARGIN, acc


def test_federate_rejects_crossnode_listing_before_training(tmp_path, monkeypatch, capsys):
    raw = {**idx_federate_raw(write_ink_corpus(tmp_path, 0)), "crossnode_listing": True}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(raw))
    trained = []
    _count_calls(monkeypatch, cli, "train_global", trained)
    assert cli.main(["federate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert ("error: cross-node aggregation needs every class on every node"
            in capsys.readouterr().err)
    assert trained == [] and not list(out.glob("federate_*.csv"))


def test_sweep_frees_the_train_pool_before_the_test_split_loads(tmp_path, monkeypatch):
    paths = {}
    for split in ("train", "test"):
        (tmp_path / split).mkdir()
        img, lab = write_idx_dataset(tmp_path / split)
        paths.update({f"{split}_images": str(img), f"{split}_labels": str(lab)})
    raw = {"trials": 1, "n_te": 60, "alpha_grid": [1.0], "estimators": ["mlls_em"],
           "data": {"source": "idx", "n_train": 100, **paths},
           "predictor": {"architecture": "linear", "max_epochs": 1}}
    loads = record_pool_loads(monkeypatch)
    cli.run_sweep_alpha(cli.resolve_config(raw, "sweep_alpha", out=str(tmp_path / "out")))
    assert loads == [(paths["train_images"], 0), (paths["test_images"], 0)]


# ---------------------------------------------------------------- main()


def write_idx_dataset(dirpath, n=400):
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 10, size=n)
    pixels = rng.integers(0, 256, size=4 * n)
    img = dirpath / "images.idx"
    lab = dirpath / "labels.idx"
    img.write_bytes(struct.pack(">iiii", 2051, n, 2, 2) + bytes(pixels.tolist()))
    lab.write_bytes(struct.pack(">ii", 2049, n) + bytes(labels.tolist()))
    return img, lab


def test_main_runs_idx_sweep_end_to_end(tmp_path):
    img, lab = write_idx_dataset(tmp_path)
    raw = {
        "trials": 1,
        "n_te": 60,
        "alpha_grid": [1.0],
        "estimators": ["mlls_em"],
        "data": {"source": "idx", "n_train": 200,
                 "train_images": str(img), "train_labels": str(lab),
                 "test_images": str(img), "test_labels": str(lab)},
        "predictor": {"architecture": "linear", "max_epochs": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = cli.main(["sweep_alpha", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "1"])
    assert code == 0
    rows = read_rows(out / "sweep_alpha_results.csv")
    assert len(rows) == 1 and rows[0]["error"] == ""


def test_main_reports_errors_on_stderr(tmp_path, capsys):
    code = cli.main(["sweep_alpha", "--config", str(tmp_path / "missing.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(sweep_raw(estimators=["nope"])))
    code = cli.main(["sweep_alpha", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unknown estimator" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [(json.dumps(sweep_raw(predictor={"loss_threshold": float("nan")})),
      "error: predictor.loss_threshold must be a finite number, got nan\n"),
     # an integer no float can hold
     (json.dumps(sweep_raw(alpha_grid=[10**400])),
      f"error: alpha_grid[0] must be a finite number, got {10**400}\n"),
     ("[]", "error: experiment must be an object, got []\n")],
    ids=["literal_nan", "huge_integer", "top_level_list"],
)
def test_main_rejects_non_finite_numbers_and_non_objects_before_any_output(tmp_path, capsys,
                                                                           text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["sweep_alpha", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_main_honors_env_output_dir(tmp_path, monkeypatch, capsys):
    raw = sweep_raw(trials=1, alpha_grid=[1.0], estimators=["mlls_em"], n_te=50)
    raw["data"]["n_train"] = 500
    raw["predictor"]["max_epochs"] = 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    target = tmp_path / "env-out"
    monkeypatch.setenv("LABELSHIFT_OUT", str(target))
    assert cli.main(["sweep_alpha", "--config", str(cfg_path), "--seed", "1"]) == 0
    assert (target / "sweep_alpha_results.csv").exists()


def test_readme_lists_exactly_the_cli_kinds():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n## CLI\n"):readme.index("\n### Config anatomy\n")]
    commands = re.findall(r"^labelshift (\w+) +--config (configs/\w+\.json)$", section, re.M)
    table = re.findall(r"^\| `(\w+)` \|", section, re.M)
    assert [kind for kind, _ in commands] == list(cli.KINDS)
    assert table == list(cli.KINDS)
    count = ("One", "Two", "Three", "Four", "Five", "Six")[len(cli.KINDS) - 1]
    assert f"{count} subcommands" in section
    for kind, path in commands:
        assert json.loads((ROOT / path).read_text())["kind"] == kind
