"""README's library quick start and multi-node training blocks run as written and
give the numbers their comments promise (`# ~ value`)."""

import re
from pathlib import Path

import numpy as np

import labelshift as ls

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# How far each result may lie from its promised value. Fixed before the first run.
RATIO_TOL, MSE_TOL, ACCURACY_TOL = 0.01, 0.001, 0.01


def _block(heading):
    """The first python block under the README heading."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _promised(block):
    """Per '# ~' comment, in order, the numbers up to its first ';'."""
    return [[float(x) for x in re.findall(r"\d+\.\d+", part.split(";")[0])]
            for part in re.findall(r"# ~ (.*)$", block, re.M)]


def _run(block):
    """The block's namespace after running it, and what it printed, one entry per call."""
    printed = []
    namespace = {"ls": ls, "print": lambda value: printed.append(value)}
    exec(compile(block, "README.md", "exec"), namespace)
    return namespace, printed


def test_quick_start_gives_the_ratios_and_error_it_promises():
    block = _block("## Library quick start")
    ratios, (mse,) = _promised(block)
    _, printed = _run(block)
    assert np.allclose(printed[0], ratios, rtol=0, atol=RATIO_TOL), printed[0]
    assert abs(printed[1] - mse) <= MSE_TOL, printed[1]


def test_moment_matcher_block_runs_on_a_labeled_holdout():
    block = _block("The moment matchers need a labeled holdout instead of calibration:")
    mix = ls.GaussianMixtureSpec(ls.equidistant_means(3, 2, 3.0), 1.0)
    train, holdout = (ls.gen_gaussian_mixture(mix, ls.uniform_marginal(3), 2000, seed=s)
                      for s in (0, 1))
    test = ls.gen_gaussian_mixture(mix, ls.make_marginal([0.6, 0.3, 0.1]), 2000, seed=2)
    pred = ls.train_predictor(train, ls.PredictorConfig(max_epochs=10, seed=3))
    namespace = {"ls": ls, "pred": pred, "holdout": holdout, "test": test}
    exec(compile(block, "README.md", "exec"), namespace)
    truth = ls.ratio_from_marginals(ls.make_marginal([0.6, 0.3, 0.1]),
                                    holdout.empirical_marginal())
    assert ls.ratio_mse(namespace["rep"].ratio, truth) < 0.01


def test_multi_node_training_gives_the_accuracies_it_promises():
    block = _block("### Multi-node training")
    ((estimated,),) = _promised(block)
    baseline = float(re.search(r"unweighted baseline lands ~ (\d+\.\d+)", block).group(1))
    namespace, _ = _run(block)
    fed, cfg = namespace["fed"], namespace["cfg"]
    (unweighted,) = ls.train_global(fed, [ls.weight_vectors(fed, "none")], cfg)
    assert abs(namespace["result"].avg_accuracy - estimated) <= ACCURACY_TOL
    assert abs(unweighted.avg_accuracy - baseline) <= ACCURACY_TOL
