"""Every config value a run accepts changes what the run writes.

Each base config below is resolved and echoed as its `# config=` line, so that
fields left at their defaults are spelled out too. Every field of the echo is
then set to another value, one at a time. The value must either fail to
resolve, or run and change the run's output: its CSV bodies, and its summary
apart from the echoed config. A value that resolves and then makes the run
raise fails the scan too, since resolving is where a bad config must fail.
Only kind, out_dir and threads are skipped: kind picks the runner, and out_dir
and threads are run settings that change no output byte by design.

The bases are tiny, and each binds the fields it reads: max_iters and
max_epochs end their loops (at the default tol and a loss_threshold of 0),
batch sizes lie below the row counts, and no marginal is uniform. Between
them they cover all four kinds, linear and MLP models, estimator lists with
and without vrls and rlls, a list of only bbse and rlls, perturbed sweeps,
one and two local steps, adam and sgd, and federations with and without a
ratio weighting.
"""

import json

from labelshift import cli

DATA = {"m": 3, "d": 2, "separation": 2.5}
LINEAR = {"architecture": "linear", "batch_size": 32, "max_epochs": 3, "loss_threshold": 0.0}
MLP = {**LINEAR, "architecture": "mlp", "hidden_units": 4, "zeta": 0.5}
WIDE = {**MLP, "hidden_units": 8, "learning_rate": 0.5}  # sharp enough for bbse and rlls
SWEEP = {"data": {**DATA, "n_train": 150}, "solver": {"max_iters": 3}}
ALPHA = {**SWEEP, "trials": 1, "n_te": 60, "alpha_grid": [0.5, 2.0]}  # sweep_alpha's cells
ONCE = {**SWEEP, "n_te": 200, "alpha": 0.5}  # estimate_once's one draw


def _federation(**over):
    """Three shifted nodes with over's keys; a key set to None is left out."""
    node = {"n_tr": 80, "n_te": 40}
    federation = {
        "nodes": [{**node, "train_marginal": [0.7, 0.2, 0.1], "test_marginal": [0.1, 0.2, 0.7],
                   "seed": 1},
                  {**node, "train_marginal": [0.2, 0.7, 0.1], "test_marginal": [0.1, 0.3, 0.6],
                   "seed": 2},
                  {**node, "train_marginal": [0.1, 0.3, 0.6], "test_marginal": [0.6, 0.3, 0.1],
                   "seed": 3}],
        "rounds": 3, "global_model": {"architecture": "linear", "batch_size": 16},
        "ratio_predictor": {**MLP, "batch_size": 16}, "ratio_solver": {"max_iters": 3},
        **over,
    }
    return {key: value for key, value in federation.items() if value is not None}


BASES = {
    "sweep_alpha_linear": ("sweep_alpha", {**ALPHA, "predictor": LINEAR,
                                           "estimators": ["vrls_em", "mlls_em", "bbse", "rlls"]}),
    "sweep_alpha_mlp_perturbed": ("sweep_alpha", {
        **ALPHA, "predictor": MLP, "split_fraction": 0.2, "estimators": ["vrls_em", "mlls_em"],
        "perturbation": {"apply_prob": 0.3, "noise_sigma_range": [0.1, 0.5],
                         "brightness_delta": 0.1}}),
    "sweep_size_no_vrls": ("sweep_size", {**SWEEP, "trials": 1, "alpha": 0.5,
                                          "size_grid": [40, 80], "predictor": LINEAR,
                                          "estimators": ["mlls_em", "bbse"]}),
    # zeta and the solver at their defaults, which bbse and rlls never read
    "estimate_once_moments": ("estimate_once", {
        **ONCE, "predictor": {**WIDE, "zeta": 1.0}, "solver": {}, "split_fraction": 0.3,
        "estimators": ["bbse", "rlls"]}),
    "estimate_once_vrls": ("estimate_once", {**ONCE, "predictor": WIDE,
                                             "estimators": ["vrls_em", "rlls"]}),
    "federate_adam": ("federate", {"data": DATA, "weightings": ["none", "estimated_ratios"],
                                   "federation": _federation()}),
    # d = 3 leaves room for a fourth class, so data.m + 1 passes the data section's own check
    "federate_sgd_two_steps": ("federate", {
        "data": {**DATA, "d": 3}, "weightings": ["none", "true_ratios"],
        "federation": _federation(
            local_steps=2, sample_nodes_per_round=2, normalize_weights=True,
            global_model={"architecture": "mlp", "hidden_units": 4, "batch_size": 16,
                          "learning_rate": 0.2},
            server_optimizer={"kind": "sgd"}, ratio_predictor=None, ratio_solver=None)}),
    "federate_listing": ("federate", {
        "data": DATA, "weightings": ["true_ratios", "none"], "crossnode_listing": True,
        "federation": _federation(ratio_predictor={**LINEAR, "batch_size": 16, "zeta": 0.5})}),
}

SKIPPED = {("kind",), ("out_dir",), ("threads",)}
# What an optional section left out (null) and each string field are set to.
EMPTY_SECTIONS = {"perturbation": {"apply_prob": 0.5, "noise_sigma_range": [0.1, 0.7],
                                   "brightness_delta": 0.2},
                  "federation": _federation()}
STRINGS = {"linear": "mlp", "mlp": "linear", "adam": "sgd", "sgd": "adam", "synthetic": "idx",
           "": "x"}


def _fields(value, path=()):
    """(path, value) for every field below value; sections and node lists recurse, and a
    marginal ({"probs": [...]}) is one field."""
    if isinstance(value, dict) and set(value) != {"probs"}:
        for key, v in value.items():
            yield from _fields(v, (*path, key))
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, v in enumerate(value):
            yield from _fields(v, (*path, i))
    elif path not in SKIPPED:
        yield path, value


def _another(key, value):
    """A valid value other than value for the field named key."""
    if value is None:
        return EMPTY_SECTIONS[key]
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return STRINGS[value]
    if isinstance(value, dict):  # a marginal
        return {"probs": value["probs"][1:] + value["probs"][:1]}
    if isinstance(value, list):  # drop a name, or change the last entry of a grid or pair
        return value[:-1] if isinstance(value[0], str) else [*value[:-1], _another(key, value[-1])]
    if key == "tol":  # stops every solver at once
        return 10.0
    if key == "loss_threshold":  # above every first-epoch loss on three classes
        return value + 2.0
    if isinstance(value, int):
        return value + 1
    return value / 2 if value else 0.5


def _setting(raw, path, value):
    raw = json.loads(json.dumps(raw))
    parent = raw
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return raw


def _outcome(raw, kind, out):
    """What a run of raw writes, None if raw does not resolve, or the error the run raises."""
    try:
        cfg = cli.resolve_config(raw, kind, out=str(out))
    except ValueError:
        return None
    try:
        summary = cli.RUNNERS[kind](cfg)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    del summary["config"]
    bodies = [p.read_text().split("\n", 1)[1] for p in sorted(out.glob("*.csv"))]
    return json.dumps(summary, sort_keys=True), bodies


def _name(path):
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)[1:]


def test_every_value_a_run_accepts_changes_its_output(tmp_path):
    unchanged = {}  # dotted path: the bases where setting it changed nothing
    raised = {}  # dotted path: "base: error" where it resolved and the run raised
    for base_name, (kind, raw) in BASES.items():
        cfg = cli.resolve_config(raw, kind, out=str(tmp_path / base_name))
        echo = json.loads(cli._config_line(cfg))
        expected = _outcome(echo, kind, tmp_path / base_name / "base")
        assert expected is not None and not isinstance(expected, str), (base_name, expected)
        fields = dict(_fields(echo))
        outcomes = {path: _outcome(_setting(echo, path, _another(path[-1], value)), kind,
                                   tmp_path / base_name / str(i))
                    for i, (path, value) in enumerate(fields.items())}
        for path, outcome in outcomes.items():
            if isinstance(outcome, str):
                raised.setdefault(_name(path), []).append(f"{base_name}: {outcome}")
        found = [path for path, outcome in outcomes.items() if outcome == expected]
        for path in found:  # a section whose settable fields all change nothing counts once
            section = next(path[:n] for n in range(1, len(path) + 1)
                           if all(outcomes[p] in (None, expected) for p in fields
                                  if p[:n] == path[:n]))
            unchanged.setdefault(_name(section), []).append(base_name)
    assert not unchanged and not raised, "\n".join(
        [f"changes nothing: {path} ({', '.join(dict.fromkeys(bases))})"
         for path, bases in sorted(unchanged.items())]
        + [f"resolves, then the run raises: {path} ({'; '.join(errors)})"
           for path, errors in sorted(raised.items())])
