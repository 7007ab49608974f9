"""Microseconds per SGD step of lockstep training, by model shape and stack size,
and milliseconds per predict_proba call on 5,000 rows, by model shape.

Run from the root of a checkout:

    python3 tools/steptime.py [--steps 640] [--repeats 5]

For each shipped shape (linear 2->3, MLP 2->32->3, 8->128->3 and 784->128->10)
and each stack size S in 1, 2 and 3, trains S models with distinct seeds in
lockstep (labelshift.train_predictors, batch 64, zeta 1) on seeded Gaussian
data and prints the median over repeats of the time per stacked step and per
model step. Every member draws its own batch order each epoch, so each step
gathers fresh rows: on a fixed batch the branch predictor learns the ReLU
pattern, and branching code (np.where) then times several times too fast.
Two more rows time the stacks the shipped runs step:
  - "twin": a sweep's zeta 1 predictor and its zeta 0 twin on one seed, so
    both members share one gathered batch (8->128->3, S = 2);
  - "weighted": train_global's step, three weightings of the linear 2->3
    model on one shared batch of 64 rows drawn afresh each step, with (3, 64)
    per-row weights, through one predictor.StepWorkspace and the SGD update.
Then it prints the median time of one predict_proba call on 5,000 seeded
rows for one freshly initialized model of each shape, and two scoring calls
of the federate run on 2,000 rows: predict_labels of a stack of three linear
2->3 models (one node of federated.evaluate) and predict_proba of one
2->32->3 ratio predictor.
The BLAS and OpenMP thread variables are set to 1 before numpy is imported,
as in tools/reprocheck.py and the benchmark.
"""

import argparse
import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy is first imported

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from labelshift import (  # noqa: E402
    LabeledDataset, PredictorConfig, init_predictor, predict_labels, predict_proba,
    train_predictors,
)
from labelshift.predictor import StepWorkspace  # noqa: E402

SHAPES = (  # name, d, hidden units (0: linear), m
    ("linear 2->3", 2, 0, 3),
    ("mlp 2->32->3", 2, 32, 3),
    ("mlp 8->128->3", 8, 128, 3),
    ("mlp 784->128->10", 784, 128, 10),
)
BATCH = 64
ROWS = 8 * BATCH  # eight steps per epoch
SCORED_ROWS = 5000
NODE_ROWS = 2000  # one federate node's test split


def step_seconds(d: int, hidden: int, m: int, stack: int, steps: int, twin: bool = False) -> float:
    rng = np.random.default_rng(d * 1000 + m)
    train = LabeledDataset(rng.normal(size=(ROWS, d)), rng.integers(0, m, ROWS), m)
    cfg = PredictorConfig(hidden_units=hidden, batch_size=BATCH, max_epochs=steps * BATCH // ROWS,
                          loss_threshold=0.0, zeta=1.0)
    if twin:
        jobs = [(train, cfg), (train, replace(cfg, zeta=0.0))]
    else:
        jobs = [(train, replace(cfg, seed=s)) for s in range(stack)]
    t = time.perf_counter()
    train_predictors(jobs)
    return (time.perf_counter() - t) / (cfg.max_epochs * ROWS // BATCH)


def weighted_step_seconds(steps: int, stack: int = 3) -> float:
    """train_global's step: a stack of weightings on one shared batch per step."""
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=(ROWS, 2)), rng.integers(0, 3, ROWS)
    w_vec = rng.uniform(0.0, 3.0, size=(stack, 3))
    layout = init_predictor(PredictorConfig(), 3, 2)
    params = np.tile(layout.parameters, (stack, 1))
    step = StepWorkspace(layout)
    t = time.perf_counter()
    for _ in range(steps):
        idx = rng.choice(ROWS, size=BATCH, replace=False)
        labels = y[idx]
        grad = step(params, x.take(idx, 0), labels, weights=w_vec.take(labels, 1))[2]
        params -= 0.1 * grad
    return (time.perf_counter() - t) / steps


def score_seconds(d: int, hidden: int, m: int, calls: int,
                  rows: int = SCORED_ROWS, stack: int = 1, score=predict_proba) -> float:
    cfg = PredictorConfig(hidden_units=hidden)
    pred = init_predictor(cfg, m, d)
    if stack > 1:
        pred = replace(pred, parameters=np.stack([init_predictor(replace(cfg, seed=s), m, d)
                                                  .parameters for s in range(stack)]))
    x = np.random.default_rng(d * 1000 + m).normal(size=(rows, d))
    t = time.perf_counter()
    for _ in range(calls):
        score(pred, x)
    return (time.perf_counter() - t) / calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=640, help="stacked steps per timing")
    parser.add_argument("--repeats", type=int, default=5, help="timings per cell; median kept")
    args = parser.parse_args()
    print(f"{'shape':<18} {'S':>2} {'us/step':>9} {'us/model-step':>14}")
    for name, d, hidden, m in SHAPES:
        for stack in (1, 2, 3):
            secs = statistics.median(
                step_seconds(d, hidden, m, stack, args.steps)
                for _ in range(args.repeats)
            )
            print(f"{name:<18} {stack:>2} {secs * 1e6:>9.1f} {secs * 1e6 / stack:>14.1f}")
    extra = (
        ("twin 8->128->3", 2, lambda: step_seconds(8, 128, 3, 2, args.steps, twin=True)),
        ("weighted 2->3", 3, lambda: weighted_step_seconds(args.steps)),
    )
    for name, stack, timed in extra:
        secs = statistics.median(timed() for _ in range(args.repeats))
        print(f"{name:<18} {stack:>2} {secs * 1e6:>9.1f} {secs * 1e6 / stack:>14.1f}")
    print(f"\n{'shape':<18} {'predict_proba ms per ' + str(SCORED_ROWS) + ' rows':>32}")
    for name, d, hidden, m in SHAPES:
        secs = statistics.median(score_seconds(d, hidden, m, 20)
                                 for _ in range(args.repeats))
        print(f"{name:<18} {secs * 1e3:>32.3f}")
    print(f"\n{'federate scoring, ' + str(NODE_ROWS) + ' rows':<32} {'ms per call':>18}")
    node_calls = (
        ("predict_labels linear 2->3 x3",
         lambda: score_seconds(2, 0, 3, 100, NODE_ROWS, 3, predict_labels)),
        ("predict_proba mlp 2->32->3", lambda: score_seconds(2, 32, 3, 100, NODE_ROWS)),
    )
    for name, timed in node_calls:
        secs = statistics.median(timed() for _ in range(args.repeats))
        print(f"{name:<32} {secs * 1e3:>18.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
