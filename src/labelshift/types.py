"""Shared value types with validated invariants.

Everything here is immutable after construction, and every array is
read-only, so downstream code can share them without defensive copies.
Construction adopts a read-only array of the right dtype that owns its
memory: that is how the package hands over an array it has just built and
frozen. Any other input, such as a caller's writable array or a view, is
copied first, so later writes by the caller cannot reach the value.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Floor applied to probabilities consumed inside logarithms.
PROB_FLOOR = 1e-12


def _frozen_array(values, dtype) -> np.ndarray:
    """values itself if it is a read-only dtype array owning its memory,
    else a read-only copy."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LabelMarginal:
    """A distribution over class labels: nonnegative, sums to one."""

    probs: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.probs, np.float64)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("marginal needs at least two classes")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ValueError("marginal entries must be finite and nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError(f"marginal sums to {float(p.sum())!r}, expected 1")
        object.__setattr__(self, "probs", p)

    @property
    def m(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class RatioVector:
    """Per-class density ratios r with r >= 0 and sum_c r_c * p_tr(c) = 1.

    The normalization ties the ratios to the training marginal they were
    estimated against, so a RatioVector always identifies a valid test
    marginal q = r * p_tr.
    """

    ratios: np.ndarray
    train_marginal: LabelMarginal

    def __post_init__(self):
        r = _frozen_array(self.ratios, np.float64)
        tr = self.train_marginal
        if r.ndim != 1 or r.size != tr.m:
            raise ValueError("ratio length must match the training marginal")
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise ValueError("ratios must be finite and nonnegative")
        gap = abs(float(r @ tr.probs) - 1.0)
        if gap > 1e-6:
            raise ValueError(f"ratios violate feasibility by {gap:.3e}")
        object.__setattr__(self, "ratios", r)

    @property
    def m(self) -> int:
        return int(self.ratios.size)

    def implied_test_marginal(self) -> LabelMarginal:
        q = self.ratios * self.train_marginal.probs
        return LabelMarginal(q / q.sum())


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus integer labels; the class count m is explicit so
    datasets with absent classes stay representable.

    features is float64, or uint8 for images: a uint8 feature matrix holds
    0-255 pixels and reads as value / 255.0 (read_features), so a corpus
    costs one byte per pixel and only the rows a consumer reads become floats.
    Any other input converts to float64.
    """

    features: np.ndarray
    labels: np.ndarray
    m: int

    def __post_init__(self):
        pixels = isinstance(self.features, np.ndarray) and self.features.dtype == np.uint8
        x = _frozen_array(self.features, np.uint8 if pixels else np.float64)
        y = _frozen_array(self.labels, np.int64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("features must be a nonempty (n, d) matrix")
        if not pixels and not np.all(np.isfinite(x)):
            raise ValueError("features contain non-finite values")
        if y.ndim != 1 or y.size != x.shape[0]:
            raise ValueError("labels must be one per row of features")
        if self.m < 2:
            raise ValueError("need at least two classes")
        if y.size and (y.min() < 0 or y.max() >= self.m):
            raise ValueError(f"labels must lie in [0, {self.m})")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def d(self) -> int:
        return int(self.features.shape[1])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.m)

    def empirical_marginal(self) -> LabelMarginal:
        return make_marginal(self.class_counts())


@dataclass(frozen=True)
class ProbabilityMatrix:
    """Row-stochastic matrix of per-sample class probabilities.

    Every entry is at least PROB_FLOOR, which keeps downstream logarithms
    finite without per-call guards. Use from_rows() to coerce raw softmax or
    posterior output that may contain exact zeros.
    """

    rows: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.rows, np.float64)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 2:
            raise ValueError("need a nonempty (n, m) matrix with m >= 2")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities contain non-finite values")
        if np.any(p < PROB_FLOOR):
            raise ValueError("entries must be at least the probability floor")
        gaps = np.abs(p.sum(axis=1) - 1.0)
        if np.any(gaps > 1e-6):
            raise ValueError(f"row sums deviate from 1 by up to {float(gaps.max()):.3e}")
        object.__setattr__(self, "rows", p)

    @classmethod
    def from_rows(cls, raw) -> "ProbabilityMatrix":
        """Floor tiny or zero entries and renormalize each row."""
        p = np.asarray(raw, dtype=np.float64)
        if p.ndim != 2:
            raise ValueError("need an (n, m) matrix")
        if not np.all(np.isfinite(p)) or np.any(p < -1e-9):
            raise ValueError("rows must be finite and nonnegative")
        p = np.maximum(p, PROB_FLOOR)  # a fresh array; raw is never written
        p /= p.sum(axis=1, keepdims=True)
        np.maximum(p, PROB_FLOOR, out=p)  # renormalization can dip a hair below the floor
        p.setflags(write=False)
        return cls(p)

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    @property
    def m(self) -> int:
        return int(self.rows.shape[1])

    @cached_property
    def hard_labels(self) -> np.ndarray:
        """Each row's most probable class (argmax_last), computed on first use."""
        labels = argmax_last(self.rows)
        labels.setflags(write=False)
        return labels


def read_features(x, out=None) -> np.ndarray:
    """Feature rows x as float64: a uint8 pixel reads as value / 255.0, a float64
    value as itself. The result is written to out when given, else to a fresh array."""
    if x.dtype == np.uint8:
        return np.divide(x, 255.0, out=out)
    if out is None:
        return np.array(x, dtype=np.float64)
    out[...] = x
    return out


def argmax_last(z) -> np.ndarray:
    """np.argmax(z, axis=-1) exactly, so a tie or a NaN goes to the first index,
    by a branch-free select per class: fast where each class is contiguous."""
    best, label = z[..., 0].copy(), np.zeros(z.shape[:-1], dtype=np.intp)
    step, (better, live) = np.empty_like(label), np.empty((2,) + label.shape, dtype=bool)
    for c in range(1, z.shape[-1]):
        np.less_equal(z[..., c], best, out=better)
        np.equal(best, best, out=live)  # no NaN so far
        np.greater(live, better, out=better)  # larger, or the first NaN
        label += np.multiply(np.subtract(c, label, out=step), better, out=step)
        np.maximum(best, z[..., c], out=best)  # NaN sticks
    return label


def make_marginal(counts) -> LabelMarginal:
    """Normalize nonnegative class counts into a LabelMarginal."""
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or np.any(c < 0) or not np.all(np.isfinite(c)):
        raise ValueError("counts must be a nonnegative vector")
    total = float(c.sum())
    if total <= 0:
        raise ValueError("empty distribution")
    probs = c / total
    probs.setflags(write=False)
    return LabelMarginal(probs)


def ratio_from_marginals(te: LabelMarginal, tr: LabelMarginal) -> RatioVector:
    """Exact per-class ratio te/tr; classes with zero train mass get ratio 0."""
    if te.m != tr.m:
        raise ValueError("marginals have different class counts")
    if np.any((tr.probs == 0) & (te.probs > 0)):
        raise ValueError("unsupported class: test mass where train mass is zero")
    safe = np.where(tr.probs > 0, tr.probs, 1.0)
    r = np.where(tr.probs > 0, te.probs / safe, 0.0)
    return RatioVector(r, tr)
