"""Error metrics and small summary helpers for experiment sweeps."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrialSummary:
    mean: float
    std: float
    count: int


def ratio_mse(estimate, truth) -> float:
    """Mean over classes of the squared ratio error."""
    e = np.asarray(getattr(estimate, "ratios", estimate), dtype=np.float64)
    t = np.asarray(getattr(truth, "ratios", truth), dtype=np.float64)
    if e.shape != t.shape or e.ndim != 1 or e.size == 0:
        raise ValueError("estimate and truth must be equal-length vectors")
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(t))):
        raise ValueError("ratio vectors must be finite")
    return float(np.mean((e - t) ** 2))


def loglog_slope(points) -> float:
    """OLS slope of log(value) against log(size) for (size, value) pairs."""
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise ValueError("need at least three points")
    if any(n <= 0 or v <= 0 for n, v in pts):
        raise ValueError("sizes and values must be positive")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    return float(np.polyfit(x, y, 1)[0])


def summarize(values) -> TrialSummary:
    """Mean and sample standard deviation; a single value has std 0."""
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValueError("nothing to summarize")
    if not all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    arr = np.asarray(vals)
    std = 0.0 if arr.size == 1 else float(arr.std(ddof=1))
    return TrialSummary(mean=float(arr.mean()), std=std, count=arr.size)
