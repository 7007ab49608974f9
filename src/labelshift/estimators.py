"""Label-shift ratio estimators on top of predictor outputs.

Two families:

* The likelihood maximizer estimate_mlls_em, which maximizes the mean log of
  predicted test likelihoods mean_j log(preds_j . r) over the feasible set
  {r >= 0, sum_c r_c p_tr(c) = 1} by accelerated EM.
* Moment matchers (estimate_bbse, estimate_rlls) that solve a hard-label
  confusion system, optionally with a ridge term. Their matrix comes from
  confusion_matrix, built once per labeled holdout and shared by every draw.

estimate_vrls composes predictor training with estimate_mlls_em, so the
penalty strength in the predictor config selects between plain and
confidence-regularized estimation.
"""

from dataclasses import dataclass

import numpy as np

from .predictor import PredictorConfig, predict_proba, train_predictors
from .types import LabeledDataset, LabelMarginal, PROB_FLOOR, ProbabilityMatrix, RatioVector

COND_LIMIT = 1e12


@dataclass(frozen=True)
class EstimatorOptions:
    max_iters: int = 1000
    tol: float = 1e-6
    rlls_lambda: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.rlls_lambda < 0:
            raise ValueError("rlls_lambda must be nonnegative")


@dataclass(frozen=True)
class EstimateReport:
    """Estimate plus solver diagnostics.

    final_objective is the mean log-likelihood for the maximizing methods and
    None for the moment matchers. objective_trace records the objective at
    the start and at every accepted iterate. For estimate_mlls_em,
    iterations_used counts EM-map evaluations and converged means that the
    ratio lies within tol of the optimum.
    """

    ratio: RatioVector
    iterations_used: int
    final_objective: float | None
    converged: bool
    objective_trace: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "ratio": self.ratio.ratios.tolist(),
            "train_marginal": self.ratio.train_marginal.probs.tolist(),
            "iterations_used": self.iterations_used,
            "final_objective": self.final_objective,
            "converged": self.converged,
        }


def _ratio_values(r) -> np.ndarray:
    return np.asarray(getattr(r, "ratios", r), dtype=np.float64)


def _mean_log(like) -> float:
    """The likelihood objective from the per-row likelihoods preds_j . r."""
    return float(np.log(np.maximum(like, PROB_FLOOR)).mean())


def empirical_objective(r, preds: ProbabilityMatrix) -> float:
    """Mean over test samples of log(preds_j . r), with floored arguments."""
    rv = _ratio_values(r)
    if rv.size != preds.m:
        raise ValueError("ratio length does not match prediction columns")
    if np.any(rv < 0) or not np.all(np.isfinite(rv)):
        raise ValueError("ratios must be finite and nonnegative")
    return _mean_log(preds.rows @ rv)


def empirical_objective_gradient(r, preds: ProbabilityMatrix) -> np.ndarray:
    """Gradient of empirical_objective in r: mean_j preds_j / (preds_j . r)
    over unfloored rows."""
    like = preds.rows @ _ratio_values(r)
    live = like > PROB_FLOOR  # floored rows have zero slope
    return (preds.rows * (live / np.maximum(like, PROB_FLOOR))[:, None]).mean(axis=0)


def _support(preds: ProbabilityMatrix, tr: LabelMarginal):
    if preds.m != tr.m:
        raise ValueError("prediction columns do not match the marginal")
    sup = tr.probs > 0
    return preds.rows[:, sup], tr.probs[sup], sup


def _embed(r_sup: np.ndarray, sup: np.ndarray, tr: LabelMarginal) -> RatioVector:
    full = np.zeros(sup.size)
    full[sup] = r_sup
    return RatioVector(full, tr)


def _em_map(p, t, r, n):
    """One fixed-point step of Saerens et al. (2002): (F(r), likelihoods at r).

    F(r) is the column mean of the responsibilities, proportional to preds * r,
    over t. The row sums of preds * r are the likelihoods at r, so _mean_log
    of the second value is the objective at r.
    """
    w = p * r
    like = np.maximum(w.sum(axis=1), PROB_FLOOR)
    w /= like[:, None]
    return np.add.reduce(w) / n / t, like


def _distance_to_optimum(p, t, r, r1, like) -> float:
    """max|r1 - r*| for r1 = F(r), to first order in r - r*, and never below
    the rounding of r1.

    F(r) - r* = J (r - r*) + O(|r - r*|^2) for the Jacobian J of F at r, so
    r - r* = (I - J)^{-1} (r - F(r)) to first order. J is
    diag(g / t) - diag(r / t) (P^T P / n), where P_jc = preds_jc / like_j and
    g = mean_j P_j is the gradient of the objective (g = t at r* on the
    classes with r*_c > 0). A fixed point r1 = r > 0 has g = t, so it is a
    maximum of the concave objective even where the optimum is not unique;
    elsewhere a singular I - J certifies no distance.
    """
    rounding = np.finfo(np.float64).eps * float(np.max(r1))
    if np.array_equal(r1, r):
        return rounding
    n = p.shape[0]
    w = p / like[:, None]
    jac = np.diag(np.add.reduce(w) / n / t) - (r / t)[:, None] * (w.T @ w / n)
    try:
        err = np.linalg.solve(np.eye(t.size) - jac, r - r1)
    except np.linalg.LinAlgError:
        return np.inf
    return float(np.max(np.abs(err + r1 - r))) + rounding


def estimate_mlls_em(
    preds_te: ProbabilityMatrix, tr: LabelMarginal, opts: EstimatorOptions = EstimatorOptions()
) -> EstimateReport:
    """Safeguarded SQUAREM-3 (Varadhan & Roland, 2008) over the EM map F.

    F is the fixed-point step of Saerens et al. (2002) (_em_map). From the
    all-ones ratio, each cycle computes r1 = F(r), r2 = F(r1), s = r1 - r,
    v = r2 - r1 - s, alpha = min(-|s|/|v|, -1) and the extrapolation
    rx = r - 2 alpha s + alpha^2 v. It accepts F(rx) when rx > 0 and the
    objective at rx is at least that at r, and r2 otherwise. EM never lowers
    the objective, so neither choice does and the trace is monotone. rx must
    be positive, not just nonnegative, because F keeps a zero class at zero.
    rx keeps sum(r t) = 1 only in exact arithmetic, so it is rescaled before
    F; otherwise rounding at a large |alpha| biases the safeguard's
    comparison. When fewer than three map evaluations remain, a cycle is a
    plain step r = F(r).

    The solver stops at r1 = F(r), converged, once max|r1 - r| < tol and
    twice the first-order distance of r1 to the optimum r*
    (_distance_to_optimum) is below tol. The factor two covers the
    second-order term: on the benchmark's sweep draws the true distance
    exceeded the first-order one by up to 7% at tol 1e-6 and 44% at tol 1e-2.
    So converged means max|r - r*| < tol. iterations_used counts map
    evaluations and never exceeds max_iters. objective_trace holds the
    objective at the start and at each accepted iterate; each entry but the
    last comes from the likelihoods that F computes, the last from preds @ r.
    Classes with zero training mass are excluded and reported with ratio zero.
    """
    p, t, sup = _support(preds_te, tr)
    n = p.shape[0]
    r = np.ones(t.size)
    trace = []
    converged = False
    iters = 0
    while iters < opts.max_iters:
        r1, like = _em_map(p, t, r, n)
        iters += 1
        obj = _mean_log(like)
        trace.append(obj)  # the objective at r, the start or an accepted iterate
        s = r1 - r
        if (float(np.max(np.abs(s))) < opts.tol
                and 2.0 * _distance_to_optimum(p, t, r, r1, like) < opts.tol):
            r, converged = r1, True
            break
        if opts.max_iters - iters < 2:
            r = r1
            continue
        r2, _ = _em_map(p, t, r1, n)
        iters += 1
        v = r2 - r1 - s
        nv = float(np.sqrt(v @ v))
        alpha = min(-float(np.sqrt(s @ s)) / nv, -1.0) if nv > 0 else -1.0
        rx = r - 2.0 * alpha * s + alpha * alpha * v
        r = r2
        if rx.min() > 0:
            r3, like_x = _em_map(p, t, rx / (rx @ t), n)
            iters += 1
            if _mean_log(like_x) >= obj:
                r = r3
    trace.append(_mean_log(p @ r))
    q = r * t
    r = (q / q.sum()) / t  # tidy feasibility against accumulated rounding
    return EstimateReport(
        ratio=_embed(r, sup, tr),
        iterations_used=iters,
        final_objective=trace[-1],
        converged=converged,
        objective_trace=tuple(trace),
    )


def confusion_matrix(preds_val: ProbabilityMatrix, labels_val) -> np.ndarray:
    """The moment matchers' A: A[j, c] is the joint frequency of (predicted j,
    actual c) over a labeled holdout, from the hard labels of preds_val."""
    m = preds_val.m
    labels_val = np.asarray(labels_val, dtype=np.int64)
    if labels_val.ndim != 1 or labels_val.size != preds_val.n:
        raise ValueError("labels_val must be one per validation row")
    if labels_val.size and (labels_val.min() < 0 or labels_val.max() >= m):
        raise ValueError(f"labels must lie in [0, {m})")
    a = np.zeros((m, m))
    np.add.at(a, (preds_val.hard_labels, labels_val), 1.0)
    a /= labels_val.size
    return a


def _moment_system(a, preds_te: ProbabilityMatrix, tr: LabelMarginal):
    """(A, b): the confusion matrix a, checked against tr, and the hard-label
    frequencies b of the test predictions."""
    m = tr.m
    if preds_te.m != m:
        raise ValueError("prediction columns do not match the marginal")
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (m, m):
        raise ValueError(f"confusion matrix must be {m} x {m}, got shape {a.shape}")
    if np.linalg.cond(a) > COND_LIMIT:
        raise ValueError("ill-conditioned confusion matrix")
    return a, np.bincount(preds_te.hard_labels, minlength=m) / preds_te.n


def _moment_report(w: np.ndarray, tr: LabelMarginal) -> EstimateReport:
    """A moment matcher's report: w clipped at zero and renormalized to feasibility."""
    w = np.maximum(w, 0.0)
    s = float(w @ tr.probs)
    if s <= 0:
        raise ValueError("degenerate ratio estimate: all components clipped")
    return EstimateReport(RatioVector(w / s, tr), iterations_used=1, final_objective=None,
                          converged=True)


def estimate_bbse(a, preds_te: ProbabilityMatrix, tr: LabelMarginal) -> EstimateReport:
    """Confusion-matrix inversion on hard labels.

    a is the holdout's confusion_matrix; b holds the hard-label frequencies on
    test. Solves A w = b, clips negatives, and renormalizes to feasibility.
    """
    a, b = _moment_system(a, preds_te, tr)
    return _moment_report(np.linalg.solve(a, b), tr)


def estimate_rlls(a, preds_te: ProbabilityMatrix, tr: LabelMarginal,
                  lam: float = 0.0) -> EstimateReport:
    """Ridge-regularized variant of the confusion-matrix system.

    Solves min_theta |A(1 + theta) - b|^2 + lam |theta|^2 through the normal
    equations, for the holdout's confusion_matrix a; lam = 0 reproduces
    estimate_bbse up to rounding, large lam shrinks toward the all-ones ratio.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    a, b = _moment_system(a, preds_te, tr)
    rhs = a.T @ (b - a.sum(axis=1))
    theta = np.linalg.solve(a.T @ a + lam * np.eye(tr.m), rhs)
    return _moment_report(1.0 + theta, tr)


def estimate_vrls(
    train: LabeledDataset,
    test_features,
    pcfg: PredictorConfig,
    opts: EstimatorOptions = EstimatorOptions(),
) -> EstimateReport:
    """Train a predictor on the labeled source data, score the unlabeled test
    features, and maximize the resulting likelihood with estimate_mlls_em
    against the empirical label distribution of the training set.
    """
    pred = train_predictors([(train, pcfg)])[0]
    return estimate_mlls_em(predict_proba(pred, test_features), train.empirical_marginal(), opts)
