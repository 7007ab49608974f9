"""Synthetic Gaussian-mixture data with exact posteriors, label-shift samplers,
feature perturbations, IDX file ingestion, and the data source every run draws from."""

import os
import struct
from dataclasses import dataclass

import numpy as np

from ._rng import stream
from .types import LabeledDataset, LabelMarginal, make_marginal, read_features

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
IDX_CLASSES = 10
_IDX_PATHS = ("train_images", "train_labels", "test_images", "test_labels")


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """Isotropic Gaussian class conditionals sharing one scale.

    means: (m, d) matrix of class means, pairwise distinct.
    sigma: common standard deviation of every component.
    """

    means: np.ndarray
    sigma: float

    def __post_init__(self):
        mu = np.array(self.means, dtype=np.float64)
        if mu.ndim != 2 or mu.shape[0] < 2:
            raise ValueError("need an (m, d) mean matrix with m >= 2")
        if not np.all(np.isfinite(mu)):
            raise ValueError("means must be finite")
        diff = mu[:, None, :] - mu[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        if np.any(dist[~np.eye(mu.shape[0], dtype=bool)] == 0):
            raise ValueError("class means must be pairwise distinct")
        if not (self.sigma > 0 and np.isfinite(self.sigma)):
            raise ValueError("sigma must be positive")
        mu.setflags(write=False)
        object.__setattr__(self, "means", mu)

    @property
    def m(self) -> int:
        return int(self.means.shape[0])

    @property
    def d(self) -> int:
        return int(self.means.shape[1])


@dataclass(frozen=True)
class RelaxedShiftSpec:
    """Per-sample feature corruption: with probability apply_prob a sample
    gets additive Gaussian noise (scale drawn uniformly from
    noise_sigma_range) plus a constant brightness offset drawn uniformly
    from [-brightness_delta, +brightness_delta]."""

    apply_prob: float
    noise_sigma_range: tuple[float, float]
    brightness_delta: float

    def __post_init__(self):
        if not 0.0 <= self.apply_prob <= 1.0:
            raise ValueError("apply_prob must lie in [0, 1]")
        lo, hi = self.noise_sigma_range
        if not (0.0 <= lo <= hi):
            raise ValueError("noise_sigma_range must satisfy 0 <= lo <= hi")
        if self.brightness_delta < 0:
            raise ValueError("brightness_delta must be nonnegative")
        object.__setattr__(self, "noise_sigma_range", (float(lo), float(hi)))


def equidistant_means(m: int, d: int, separation: float) -> np.ndarray:
    """Vertices of a regular simplex in R^d with pairwise distance separation.

    Requires d >= m - 1. The construction centers the m standard basis
    vectors and rotates them into the first m - 1 coordinates.
    """
    if m < 2:
        raise ValueError("need at least two means")
    if d < m - 1:
        raise ValueError("dimension too small for equidistant means")
    if not (separation > 0):
        raise ValueError("separation must be positive")
    centered = np.eye(m) - 1.0 / m
    # Rows span an (m-1)-dimensional subspace; SVD exposes an orthonormal basis.
    _, _, vt = np.linalg.svd(centered)
    coords = centered @ vt[: m - 1].T
    coords *= separation / np.sqrt(2.0)
    means = np.zeros((m, d))
    means[:, : m - 1] = coords
    return means


def gen_gaussian_mixture(
    spec: GaussianMixtureSpec, marginal: LabelMarginal, n: int, seed: int
) -> LabeledDataset:
    """Draw n labeled samples: labels from the marginal, features from the
    matching component."""
    if marginal.m != spec.m:
        raise ValueError(f"marginal has {marginal.m} classes but the mixture has {spec.m}")
    if n < 1:
        raise ValueError("need at least one sample")
    rng = stream(seed)
    labels = rng.choice(spec.m, size=n, p=marginal.probs)
    feats = spec.means[labels] + spec.sigma * rng.standard_normal((n, spec.d))
    feats.setflags(write=False)  # handed over to the dataset without a copy
    return LabeledDataset(feats, labels, spec.m)


def posterior_matrix(
    spec: GaussianMixtureSpec, marginal: LabelMarginal, features
) -> np.ndarray:
    """Exact class posteriors for a batch of points, one row per sample."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != spec.d:
        raise ValueError("feature dimension does not match the mixture")
    sq = ((x[:, None, :] - spec.means[None, :, :]) ** 2).sum(axis=2)
    with np.errstate(divide="ignore"):
        logw = np.log(marginal.probs)[None, :] - sq / (2.0 * spec.sigma**2)
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    return w / w.sum(axis=1, keepdims=True)


def sample_dirichlet_marginal(alpha: float, m: int, seed: int) -> LabelMarginal:
    """Symmetric Dirichlet(alpha) draw via normalized Gamma variables."""
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ValueError("alpha must be positive")
    if m < 2:
        raise ValueError("need at least two classes")
    rng = stream(seed)
    g = rng.gamma(alpha, 1.0, size=m)
    while g.sum() <= 0:  # all-underflow is possible for very small alpha
        g = rng.gamma(alpha, 1.0, size=m)
    return LabelMarginal(g / g.sum())


def resample_by_marginal(
    pool: LabeledDataset, marginal: LabelMarginal, n: int, seed: int
) -> LabeledDataset:
    """Label-conditional bootstrap: draw labels from the marginal, then
    features uniformly (with replacement) from the pool rows of that class.
    Class conditionals are preserved exactly. The draw keeps the pool's
    feature dtype, so a uint8 pool gives uint8 rows.
    """
    if marginal.m != pool.m:
        raise ValueError(f"marginal has {marginal.m} classes but the pool has {pool.m}")
    if n < 1:
        raise ValueError("need at least one sample")
    counts = pool.class_counts()
    needed = np.nonzero(marginal.probs > 0)[0]
    missing = needed[counts[needed] == 0]
    if missing.size:
        raise ValueError(f"unsupported class: {int(missing[0])} absent from pool")
    rng = stream(seed)
    labels = rng.choice(pool.m, size=n, p=marginal.probs)
    rows = np.empty(n, dtype=np.int64)
    for c in range(pool.m):  # fixed class order keeps draws reproducible
        here = np.nonzero(labels == c)[0]
        if here.size == 0:
            continue
        members = np.nonzero(pool.labels == c)[0]
        rows[here] = rng.choice(members, size=here.size, replace=True)
    feats = pool.features[rows]
    feats.setflags(write=False)
    return LabeledDataset(feats, labels, pool.m)


def perturb_relaxed(data: LabeledDataset, spec: RelaxedShiftSpec, seed: int) -> LabeledDataset:
    """Apply the corruption in spec, drawn from seed, to a float64 copy of the
    dataset's features (read_features: uint8 pixels scale to [0, 1]).

    Rows that the coin flip skips are carried over bit for bit, so
    apply_prob = 0 returns the same floats.
    """
    rng = stream(seed)
    n, d = data.n, data.d
    hit = rng.random(n) < spec.apply_prob
    lo, hi = spec.noise_sigma_range
    sigmas = rng.uniform(lo, hi, size=n)
    offsets = rng.uniform(-spec.brightness_delta, spec.brightness_delta, size=n)
    noise = rng.standard_normal((n, d))
    feats = read_features(data.features)
    idx = np.nonzero(hit)[0]
    if idx.size:
        feats[idx] += noise[idx] * sigmas[idx, None] + offsets[idx, None]
    feats.setflags(write=False)
    return LabeledDataset(feats, data.labels, data.m)


def _read_exact(f, count: int, path: str) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise ValueError(f"truncated IDX file: {path}")
    return buf


def _check_header(path, **fields):
    for name, value in fields.items():
        if value < 1:
            raise ValueError(f"bad IDX header in {path}: {name} is {value}, expected >= 1")


def load_idx(images_path, labels_path, num_classes: int = IDX_CLASSES) -> LabeledDataset:
    """Read an IDX image/label file pair into a dataset of raw uint8 pixels.

    Images are flattened to one row of bytes each, read straight into the
    dataset's own array, so a split costs about its file size in memory; the
    code that reads rows scales them to [0, 1]. Big-endian headers per the
    classic format: magic 2051 for images (then n, rows, cols), magic 2049
    for labels (then n). A count, row or column number below 1, or more
    pixels than the file holds, is rejected before any pixel is read.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    with open(images_path, "rb") as f:
        magic, n, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, str(images_path)))
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(f"bad IDX image magic {magic} in {images_path}")
        _check_header(images_path, count=n, rows=rows, cols=cols)
        if n * rows * cols > os.fstat(f.fileno()).st_size - 16:
            raise ValueError(f"truncated IDX file: {images_path}")
        pixels = np.empty((n, rows * cols), dtype=np.uint8)
        if f.readinto(memoryview(pixels).cast("B")) != pixels.nbytes:
            raise ValueError(f"truncated IDX file: {images_path}")
    with open(labels_path, "rb") as f:
        magic, n_labels = struct.unpack(">ii", _read_exact(f, 8, str(labels_path)))
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(f"bad IDX label magic {magic} in {labels_path}")
        _check_header(labels_path, count=n_labels)
        raw_labels = _read_exact(f, n_labels, str(labels_path))
    if n != n_labels:
        raise ValueError(f"count mismatch: {n} images vs {n_labels} labels")
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    if labels.max() >= num_classes:
        raise ValueError(
            f"label {int(labels.max())} out of range for {num_classes} classes"
        )
    labels.setflags(write=False)
    pixels.setflags(write=False)  # handed over to the dataset without a copy
    return LabeledDataset(pixels, labels, num_classes)


def uniform_marginal(m: int) -> LabelMarginal:
    return make_marginal(np.ones(m))


@dataclass(frozen=True)
class DataSource:
    """Where a run's data comes from: a synthetic mixture of m equidistant
    classes (separation apart, sd sigma) in d dimensions, or IDX file pairs
    with load_idx's IDX_CLASSES (10) classes. A source takes only the keys it reads."""

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
        idx = self.source == "idx"
        for name in ("m", "d", "separation", "sigma") if idx else _IDX_PATHS:
            if getattr(self, name) != getattr(DataSource, name):  # the field's default
                raise ValueError(f"{self.source} sources take no {name} key")
        missing = [name for name in _IDX_PATHS if idx and not getattr(self, name)]
        if missing:
            raise ValueError(f"idx source needs {missing[0]}")
        if self.m < 2 or self.d < self.m - 1:  # equidistant_means needs d >= m - 1
            raise ValueError("synthetic source needs m >= 2 and d >= m - 1")
        if not (self.separation > 0 and self.sigma > 0):
            raise ValueError("separation and sigma must be positive")
        if self.n_train < 1:
            raise ValueError("n_train must be at least 1")

    @property
    def num_classes(self) -> int:
        return self.m if self.source == "synthetic" else IDX_CLASSES


def open_split(source: DataSource, split: str):
    """What split ("train" or "test") draws from: a synthetic source's mixture, or the
    load_idx pool of the split's files (drop the train pool before opening the test's)."""
    if source.source == "synthetic":
        return GaussianMixtureSpec(equidistant_means(source.m, source.d, source.separation),
                                   source.sigma)
    return load_idx(getattr(source, f"{split}_images"), getattr(source, f"{split}_labels"))


def draw(population, marginal: LabelMarginal, n: int, seed: int) -> LabeledDataset:
    """n rows of an open split: gen_gaussian_mixture or resample_by_marginal."""
    if isinstance(population, GaussianMixtureSpec):
        return gen_gaussian_mixture(population, marginal, n, seed)
    return resample_by_marginal(population, marginal, n, seed)
