"""Scoring: a row's output does not depend on the rows scored with it, the
class-major argmax is np.argmax exactly, and importing the package pins the
BLAS and OpenMP thread counts."""

import ast
import functools
import json
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelshift import (
    PredictorConfig, ProbabilityMatrix, init_predictor, predict_labels, predict_proba,
)
from labelshift import predictor
from labelshift.predictor import _block_rows, _logits
from labelshift.types import argmax_last

ROOT = Path(__file__).resolve().parent.parent
prop = settings(max_examples=30, derandomize=True, deadline=None)

SHAPES = {  # name: (d, hidden units, m)
    "linear 2->3": (2, 0, 3),
    "mlp 8->128->3": (8, 128, 3),
    "mlp 784->128->10": (784, 128, 10),
}
POOL_ROWS = 2048 + 255  # every prefix up to 2,048 rows at every offset up to 255


def _model(shape, seed=0):
    d, hidden, m = SHAPES[shape]
    cfg = PredictorConfig(hidden_units=hidden, seed=seed)
    return init_predictor(cfg, m, d)


def _stack(preds):
    return replace(preds[0], parameters=np.stack([p.parameters for p in preds]))


@functools.cache
def _pool(shape):
    """Seeded rows for the shape, with their probabilities and labels scored in one call."""
    pred = _model(shape)
    x = np.random.default_rng(sorted(SHAPES).index(shape)).normal(size=(POOL_ROWS, pred.d))
    return pred, x, predict_proba(pred, x).rows, predict_labels(pred, x)


def test_block_rows_depend_on_layer_widths_only():
    assert [_block_rows(_model(s)) for s in SHAPES] == [1024, 256, 256]
    two_32 = init_predictor(PredictorConfig(hidden_units=32), 3, 2)
    assert _block_rows(two_32) == 1024
    wide = init_predictor(PredictorConfig(hidden_units=1000), 3, 2)
    assert _block_rows(wide) == 256


@prop
@given(shape=st.sampled_from(sorted(SHAPES)), offset=st.integers(0, 255),
       n=st.integers(1, 2048))
# Lone rows whose classes numpy would sum pairwise, unlike the same rows scored among many.
@example(shape="mlp 784->128->10", offset=1, n=1)
@example(shape="mlp 784->128->10", offset=254, n=1)
def test_rows_do_not_depend_on_their_neighbours(shape, offset, n):
    pred, x, rows, labels = _pool(shape)
    part = x[offset : offset + n]
    assert np.array_equal(predict_proba(pred, part).rows, rows[offset : offset + n])
    assert np.array_equal(predict_labels(pred, part), labels[offset : offset + n])


@prop
@given(shape=st.sampled_from(sorted(SHAPES)), offset=st.integers(0, 255), data=st.data())
def test_inputs_shorter_than_one_block_match_the_long_call(shape, offset, data):
    pred, x, rows, labels = _pool(shape)
    n = data.draw(st.integers(1, _block_rows(pred) - 1))
    part = x[offset : offset + n]
    assert np.array_equal(predict_proba(pred, part).rows, rows[offset : offset + n])
    assert np.array_equal(predict_labels(pred, part), labels[offset : offset + n])


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("n", [1, 255, 1500])
def test_a_stack_scores_each_model_as_it_is_scored_alone(shape, n):
    preds = [_model(shape, seed) for seed in (1, 2, 3)]
    x = _pool(shape)[1][:n]
    z, labels = _logits(_stack(preds), x), predict_labels(_stack(preds), x)
    for s, pred in enumerate(preds):
        assert np.array_equal(z[s], _logits(pred, x))
        assert np.array_equal(labels[s], predict_labels(pred, x))


@pytest.mark.parametrize("stack", [1, 3])
@pytest.mark.parametrize("rows", ["short", "partial"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_predict_proba_of_a_stack_gives_each_model_its_own_matrix(shape, rows, stack):
    # A sweep scores each test draw with one stack of its predictors; a zeta = 0 sweep's has one.
    preds = [_model(shape, seed) for seed in range(1, stack + 1)]
    block = _block_rows(preds[0])
    n = block // 2 + 3 if rows == "short" else 2 * block + block // 3
    rng = np.random.default_rng(n)
    d = preds[0].d
    x = (rng.integers(0, 256, size=(n, d), dtype=np.uint8) if d == 784
         else rng.normal(scale=2.0, size=(n, d)))
    scored = predict_proba(_stack(preds), x)
    assert isinstance(scored, tuple) and len(scored) == stack
    for pred, member in zip(preds, scored):
        alone = predict_proba(pred, x)  # one model: one matrix
        assert isinstance(alone, ProbabilityMatrix) and np.array_equal(member.rows, alone.rows)


def test_logits_and_probabilities_are_class_major():
    pred, x, _, _ = _pool("mlp 8->128->3")
    z = _logits(pred, x[:1000])
    assert z.shape == (1000, 3) and z.T.flags.c_contiguous
    assert predict_proba(pred, x[:1000]).rows.flags.f_contiguous


# ------------------------------------------------------------------ argmax

SPECIALS = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan])


def _with_logits(monkeypatch, z):
    """predict_labels on a model whose logits are z, given class-major (..., m, n)."""
    monkeypatch.setattr(predictor, "_logits", lambda pred, features: z.copy().swapaxes(-1, -2))
    lead, (m, n) = z.shape[:-2], z.shape[-2:]
    pred = init_predictor(PredictorConfig(), m, 2)
    if lead:
        pred = replace(pred, parameters=np.tile(pred.parameters, lead + (1,)))
    return predict_labels(pred, np.zeros((n, 2)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 10), stack=st.sampled_from([0, 1, 3]),
       n=st.integers(1, 300), specials=st.sampled_from([SPECIALS, SPECIALS[:-1], SPECIALS[2:4]]))
def test_argmax_matches_numpy_on_ties_infinities_nan_and_signed_zeros(seed, m, stack, n, specials):
    with pytest.MonkeyPatch.context() as monkeypatch:
        rng = np.random.default_rng(seed)
        z = rng.choice(specials, size=((stack,) if stack else ()) + (m, n))
        labels = _with_logits(monkeypatch, z)
    expected = z.swapaxes(-1, -2).argmax(axis=-1)
    assert labels.dtype == np.intp and np.array_equal(labels, expected)
    assert np.array_equal(argmax_last(np.ascontiguousarray(z.swapaxes(-1, -2))), expected)


def test_argmax_edge_rows(monkeypatch):
    nan, inf = np.nan, np.inf
    rows = np.array([
        [1.0, 1.0, 1.0],  # tie: first index
        [0.0, 2.0, 2.0],
        [-0.0, 0.0, -0.0],  # signed zeros compare equal
        [0.0, -0.0, 0.0],
        [-inf, -inf, -inf],
        [-inf, -inf, -1.0],
        [inf, inf, 1.0],
        [1.0, inf, inf],
        [1.0, nan, nan],  # first NaN
        [nan, inf, nan],
        [inf, 1.0, nan],
        [-inf, nan, inf],
    ])
    expected = [0, 1, 0, 0, 0, 2, 0, 1, 1, 0, 2, 1]
    assert rows.argmax(axis=1).tolist() == expected
    assert _with_logits(monkeypatch, rows.T).tolist() == expected
    assert _with_logits(monkeypatch, np.stack([rows.T, rows[::-1].T])).tolist() == [
        expected, rows[::-1].argmax(axis=1).tolist()]


@pytest.mark.parametrize("m", range(2, 11))
def test_argmax_of_model_logits_matches_numpy(m):
    preds = [init_predictor(PredictorConfig(hidden_units=16, seed=s), m, 5)
             for s in (0, 1)]
    x = np.random.default_rng(m).normal(size=(700, 5))
    assert np.array_equal(predict_labels(preds[0], x), _logits(preds[0], x).argmax(axis=-1))
    stacked = _stack(preds)
    assert np.array_equal(predict_labels(stacked, x), _logits(stacked, x).argmax(axis=-1))


# ------------------------------------------------------------ thread pin


def _thread_vars():
    """THREAD_VARS as tools/reprocheck.py lists them."""
    tree = ast.parse((ROOT / "tools" / "reprocheck.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "THREAD_VARS":
            return ast.literal_eval(node.value)
    raise AssertionError("tools/reprocheck.py has no THREAD_VARS")


def _run(args, cwd, **env):
    """A fresh interpreter importing the package from this checkout, with every
    thread variable unset apart from those given."""
    clean = {k: v for k, v in os.environ.items() if k not in _thread_vars()}
    clean["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], cwd=cwd, env={**clean, **env},
                          capture_output=True, text=True, check=True).stdout


def test_import_pins_unset_thread_variables(tmp_path):
    show = "import os, json, labelshift; print(json.dumps({k: os.environ.get(k) for k in %r}))"
    pinned = json.loads(_run(["-c", show % (_thread_vars(),)], tmp_path))
    assert pinned == dict.fromkeys(_thread_vars(), "1")
    kept = json.loads(_run(["-c", show % (_thread_vars(),)], tmp_path, OPENBLAS_NUM_THREADS="2"))
    assert kept == {**dict.fromkeys(_thread_vars(), "1"), "OPENBLAS_NUM_THREADS": "2"}


def _write_idx(dirpath, n=500):
    """28x28 images (784 features) and labels of 10 classes, seeded."""
    rng = np.random.default_rng(0)
    img, lab = dirpath / "images.idx", dirpath / "labels.idx"
    img.write_bytes(struct.pack(">iiii", 2051, n, 28, 28)
                    + rng.integers(0, 256, size=n * 784, dtype=np.uint8).tobytes())
    lab.write_bytes(struct.pack(">ii", 2049, n)
                    + rng.integers(0, 10, size=n, dtype=np.uint8).tobytes())
    return img, lab


def test_784_feature_sweep_bytes_do_not_depend_on_the_thread_variables(tmp_path):
    img, lab = _write_idx(tmp_path)
    raw = {
        "trials": 2, "n_te": 300, "alpha_grid": [1.0], "estimators": ["vrls_em", "mlls_em"],
        "data": {"n_train": 300, "train_images": str(img),
                 "train_labels": str(lab), "test_images": str(img), "test_labels": str(lab)},
        "predictor": {"hidden_units": 128, "max_epochs": 2},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    outputs = []
    for env in ({}, dict.fromkeys(_thread_vars(), "1")):  # the config echo names --out
        _run(["-m", "labelshift.cli", "sweep_alpha", "--config", "cfg.json", "--out", "out",
              "--seed", "1"], tmp_path, **env)
        outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())})
    assert outputs[0].keys() == {"sweep_alpha_results.csv", "sweep_alpha_summary.json"}
    assert outputs[0] == outputs[1]
