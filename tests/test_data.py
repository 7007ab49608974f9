import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelshift import (
    DataSource,
    GaussianMixtureSpec,
    LabeledDataset,
    LabelMarginal,
    RelaxedShiftSpec,
    equidistant_means,
    gen_gaussian_mixture,
    load_idx,
    make_marginal,
    perturb_relaxed,
    posterior_matrix,
    resample_by_marginal,
    sample_dirichlet_marginal,
    read_features,
    uniform_marginal,
)

from labelshift._rng import stream
from labelshift.data import draw, open_split

from .helpers import marginal, three_class_marginal, tiny_mixture, write_ink_corpus

MIX2 = GaussianMixtureSpec(np.array([[-1.0], [1.0]]), 1.0)
UNIFORM2 = marginal(0.5, 0.5)

prop = settings(max_examples=40, derandomize=True, deadline=None)


# -------------------------------------------------------------------- specs


def test_mixture_spec_rejects_duplicate_means():
    with pytest.raises(ValueError, match="pairwise distinct"):
        GaussianMixtureSpec(np.array([[1.0], [1.0]]), 1.0)


def test_mixture_spec_rejects_nonpositive_sigma():
    with pytest.raises(ValueError, match="sigma must be positive"):
        GaussianMixtureSpec(np.array([[-1.0], [1.0]]), 0.0)


def test_relaxed_spec_validation():
    with pytest.raises(ValueError, match="apply_prob"):
        RelaxedShiftSpec(1.5, (0.1, 0.5), 0.1)
    with pytest.raises(ValueError, match="noise_sigma_range"):
        RelaxedShiftSpec(0.5, (0.5, 0.1), 0.1)


def test_equidistant_means_pairwise_distance():
    pts = equidistant_means(4, 5, 2.5)
    for i in range(4):
        for j in range(i + 1, 4):
            assert math.isclose(float(np.linalg.norm(pts[i] - pts[j])), 2.5, rel_tol=1e-9)


def test_equidistant_means_needs_enough_dimensions():
    with pytest.raises(ValueError, match="dimension too small"):
        equidistant_means(4, 2, 1.0)


# ---------------------------------------------------------------- sampling


def test_degenerate_marginal_yields_single_class():
    ds = gen_gaussian_mixture(MIX2, marginal(1.0, 0.0), 100, seed=0)
    assert np.all(ds.labels == 0)


def test_generator_deterministic():
    a = gen_gaussian_mixture(MIX2, UNIFORM2, 500, seed=42)
    b = gen_gaussian_mixture(MIX2, UNIFORM2, 500, seed=42)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = gen_gaussian_mixture(MIX2, UNIFORM2, 500, seed=43)
    assert not np.array_equal(a.features, c.features)


def test_empirical_frequencies_approach_marginal():
    ds = gen_gaussian_mixture(MIX2, UNIFORM2, 100_000, seed=7)
    freq = ds.class_counts() / ds.n
    assert np.all(np.abs(freq - 0.5) < 0.01)


def test_generator_rejects_empty_request():
    with pytest.raises(ValueError, match="at least one sample"):
        gen_gaussian_mixture(MIX2, UNIFORM2, 0, seed=0)


# --------------------------------------------------------------- posterior


def test_posterior_symmetry_at_midpoint():
    post = posterior_matrix(MIX2, UNIFORM2, np.array([[0.0]]))[0]
    assert np.allclose(post, [0.5, 0.5], atol=1e-12)


def test_posterior_degenerate_prior():
    post = posterior_matrix(MIX2, marginal(1.0, 0.0), np.array([[5.0]]))[0]
    assert post[0] == pytest.approx(1.0, abs=1e-12)


def test_posterior_matches_logistic_closed_form():
    # means -1/+1, sigma 1: p(y=1|x) = 1 / (1 + exp(-2x))
    post = posterior_matrix(MIX2, UNIFORM2, np.array([[0.5]]))[0]
    assert post[1] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_posterior_rows_sum_to_one():
    mix = tiny_mixture()
    rng = np.random.default_rng(0)
    for _ in range(20):
        post = posterior_matrix(mix, uniform_marginal(3), rng.normal(size=(1, 2)))[0]
        assert abs(float(post.sum()) - 1.0) <= 1e-12


def test_posterior_permutation_equivariance():
    mix = tiny_mixture()
    marg = marginal(0.5, 0.3, 0.2)
    x = np.array([0.3, -0.8])
    perm = np.array([2, 0, 1])
    permuted = GaussianMixtureSpec(mix.means[perm], mix.sigma)
    post = posterior_matrix(mix, marg, x[None])[0]
    post_p = posterior_matrix(permuted, marginal(*marg.probs[perm]), x[None])[0]
    assert np.allclose(post[perm], post_p, atol=1e-12)


def test_posterior_matrix_matches_pointwise():
    mix = tiny_mixture()
    feats = np.random.default_rng(1).normal(size=(8, 2))
    batch = posterior_matrix(mix, uniform_marginal(3), feats)
    for i in range(8):
        one = posterior_matrix(mix, uniform_marginal(3), feats[i : i + 1])
        assert np.allclose(batch[i], one[0])


# ---------------------------------------------------------------- dirichlet


def test_dirichlet_concentrates_at_large_alpha():
    for i in range(100):
        draw = sample_dirichlet_marginal(1e6, 10, seed=i)
        assert np.all(np.abs(draw.probs - 0.1) < 0.01)


def test_dirichlet_deterministic():
    a = sample_dirichlet_marginal(0.5, 5, seed=9)
    b = sample_dirichlet_marginal(0.5, 5, seed=9)
    assert np.array_equal(a.probs, b.probs)


def test_dirichlet_sparse_at_small_alpha():
    spiky = sum(sample_dirichlet_marginal(0.1, 10, seed=i).probs.max() > 0.3 for i in range(100))
    assert spiky > 50


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [1e-50, 1e-10, 5e-324])
def test_dirichlet_returns_a_marginal_where_every_gamma_draw_underflows(alpha):
    for seed in range(5):
        assert not stream(seed).gamma(alpha, 1.0, size=3).any()  # the plain draw sums to 0
        got = sample_dirichlet_marginal(alpha, 3, seed)
        assert isinstance(got, LabelMarginal) and got.m == 3
        assert np.array_equal(got.probs, sample_dirichlet_marginal(alpha, 3, seed).probs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [3, 10])
def test_dirichlet_returns_a_marginal_where_the_gamma_draws_overflow_their_sum(m):
    for seed in range(5):
        g = stream(seed).gamma(1.7e308, 1.0, size=m)
        assert np.all(np.isfinite(g))
        with np.errstate(over="ignore"):
            assert np.isinf(g.sum())  # the plain sum overflows
        got = sample_dirichlet_marginal(1.7e308, m, seed)
        assert np.allclose(got.probs, 1.0 / m, rtol=0, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0, 1e300])
def test_dirichlet_keeps_the_bits_of_a_plain_draw_that_sums_above_zero(alpha):
    for seed in range(20):
        g = stream(seed).gamma(alpha, 1.0, size=3)
        assert np.array_equal(sample_dirichlet_marginal(alpha, 3, seed).probs, g / g.sum())


def test_dirichlet_rejects_nonpositive_alpha():
    with pytest.raises(ValueError, match="alpha must be positive"):
        sample_dirichlet_marginal(0.0, 3, seed=0)


# --------------------------------------------------------------- resampling


def test_resample_counts_near_pool_marginal():
    pool = gen_gaussian_mixture(MIX2, marginal(0.3, 0.7), 4000, seed=5)
    out = resample_by_marginal(pool, pool.empirical_marginal(), pool.n, seed=6)
    slack = 4 * math.sqrt(pool.n)
    assert np.all(np.abs(out.class_counts() - pool.class_counts()) <= slack)


def test_resample_preserves_class_conditionals():
    pool = gen_gaussian_mixture(MIX2, UNIFORM2, 300, seed=1)
    out = resample_by_marginal(pool, marginal(1.0, 0.0), 50, seed=2)
    assert np.all(out.labels == 0)
    pool_rows = {r.tobytes() for r in pool.features[pool.labels == 0]}
    assert all(r.tobytes() in pool_rows for r in out.features)


def test_resample_rejects_missing_class():
    pool = gen_gaussian_mixture(MIX2, marginal(1.0, 0.0), 100, seed=0)
    with pytest.raises(ValueError, match="unsupported class: 1"):
        resample_by_marginal(pool, UNIFORM2, 10, seed=0)


def test_resample_rejects_empty_request():
    pool = gen_gaussian_mixture(MIX2, UNIFORM2, 100, seed=0)
    with pytest.raises(ValueError, match="at least one sample"):
        resample_by_marginal(pool, UNIFORM2, 0, seed=0)


# ------------------------------------------------------------- perturbation


def test_perturb_identity_when_never_applied():
    data = gen_gaussian_mixture(MIX2, UNIFORM2, 200, seed=3)
    out = perturb_relaxed(data, RelaxedShiftSpec(0.0, (0.1, 0.5), 0.1), 1)
    assert np.array_equal(out.features, data.features)
    assert np.array_equal(out.labels, data.labels)


def test_perturb_noise_scale_matches_spec():
    data = gen_gaussian_mixture(GaussianMixtureSpec(np.array([[-1.0] * 4, [1.0] * 4]), 1.0),
                                UNIFORM2, 10_000, seed=4)
    out = perturb_relaxed(data, RelaxedShiftSpec(1.0, (0.1, 0.1), 0.0), 2)
    deltas = out.features - data.features
    assert abs(float(deltas.std()) - 0.1) < 0.01


def test_perturb_untouched_rows_bitwise_identical():
    data = gen_gaussian_mixture(MIX2, UNIFORM2, 500, seed=8)
    spec = RelaxedShiftSpec(0.4, (0.2, 0.6), 0.1)
    out = perturb_relaxed(data, spec, 11)
    same = np.all(out.features == data.features, axis=1)
    assert 0 < same.sum() < data.n  # coin flips hit some rows, spare others
    again = perturb_relaxed(data, spec, 11)
    assert np.array_equal(out.features, again.features)


@prop
@given(apply_prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_perturb_always_preserves_labels(apply_prob, seed):
    data = gen_gaussian_mixture(MIX2, UNIFORM2, 64, seed=0)
    out = perturb_relaxed(data, RelaxedShiftSpec(apply_prob, (0.1, 0.3), 0.2), seed)
    assert np.array_equal(out.labels, data.labels)


# --------------------------------------------------------------------- idx


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2,
                   image_magic=2051, label_magic=2049, label_count=None):
    n = len(labels)
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">iiii", image_magic, n, rows, cols) + bytes(pixels))
    lab.write_bytes(struct.pack(">ii", label_magic, label_count if label_count is not None else n)
                    + bytes(labels))
    return img, lab


def test_load_idx_round_trip(tmp_path):
    pixels = [0, 255, 128, 64] * 3
    img, lab = write_idx_pair(tmp_path, pixels, [0, 5, 9])
    pool = load_idx(img, lab)
    assert (pool.n, pool.d, pool.m) == (3, 4, 10)
    assert pool.features.dtype == np.uint8
    assert pool.features[0, 0] == 0
    assert pool.features[0, 1] == 255
    assert pool.labels.tolist() == [0, 5, 9]
    assert pool.class_counts().tolist() == [1, 0, 0, 0, 0, 1, 0, 0, 0, 1]
    ds = resample_by_marginal(pool, make_marginal([1] + [0] * 9), 2, seed=0)
    assert ds.features.dtype == np.uint8
    assert read_features(ds.features)[0, 0] == 0.0
    assert read_features(ds.features)[0, 1] == 1.0


def test_load_idx_pool_is_read_only(tmp_path):
    img, lab = write_idx_pair(tmp_path, [0, 255, 128, 64], [3])
    pool = load_idx(img, lab)
    with pytest.raises(ValueError):
        pool.features[0, 0] = 1
    with pytest.raises(ValueError):
        pool.labels[0] = 1


@pytest.mark.parametrize(
    "which, header, message",
    [
        ("images", (2051, 0, 2, 2), "count is 0"),
        ("images", (2051, -3, 2, 2), "count is -3"),
        ("images", (2051, 1, 0, 2), "rows is 0"),
        ("images", (2051, 1, 2, -1), "cols is -1"),
        ("labels", (2049, 0), "count is 0"),
    ],
    ids=["count-zero", "count-negative", "rows", "cols", "label-count"],
)
def test_load_idx_rejects_bad_header(tmp_path, which, header, message):
    img, lab = write_idx_pair(tmp_path, [0] * 4, [1])
    path = img if which == "images" else lab
    path.write_bytes(struct.pack(">" + "i" * len(header), *header) + bytes(4))
    with pytest.raises(ValueError, match=f"bad IDX header in {re.escape(str(path))}: {message}"):
        load_idx(img, lab)


def test_load_idx_peak_memory_is_about_the_pixel_bytes(tmp_path):
    n, side = 20_000, 28
    pixels = np.random.default_rng(0).integers(0, 256, size=n * side * side, dtype=np.uint8)
    labels = np.arange(n) % 10
    img, lab = write_idx_pair(tmp_path, pixels.tobytes(), labels.astype(np.uint8).tobytes(),
                              rows=side, cols=side)
    del pixels
    tracemalloc.start()
    try:
        pool = load_idx(img, lab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pool.features.nbytes == n * side * side
    assert peak < 1.5 * pool.features.nbytes


def test_resample_from_a_uint8_pool_allocates_about_the_drawn_pixel_bytes():
    rng = np.random.default_rng(0)
    n_pool, n, d = 5_000, 10_000, 784
    pool = LabeledDataset(rng.integers(0, 256, size=(n_pool, d), dtype=np.uint8),
                          np.arange(n_pool) % 10, 10)
    tracemalloc.start()
    try:
        ds = resample_by_marginal(pool, uniform_marginal(10), n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.dtype == np.uint8 and ds.features.nbytes == n * d
    assert peak < 1.2 * n * d  # a float64 draw would be 8 * n * d


def test_load_idx_rejects_bad_image_magic(tmp_path):
    img, lab = write_idx_pair(tmp_path, [0] * 4, [1], image_magic=123)
    with pytest.raises(ValueError, match="bad IDX image magic 123"):
        load_idx(img, lab)


def test_load_idx_rejects_bad_label_magic(tmp_path):
    img, lab = write_idx_pair(tmp_path, [0] * 4, [1], label_magic=2051)
    with pytest.raises(ValueError, match="bad IDX label magic"):
        load_idx(img, lab)


def test_load_idx_rejects_truncated_images(tmp_path):
    img, lab = write_idx_pair(tmp_path, [0] * 3, [1])  # one pixel short
    with pytest.raises(ValueError, match="truncated IDX file"):
        load_idx(img, lab)


def test_load_idx_checks_the_header_against_the_file_size_before_allocating(tmp_path):
    img, lab = write_idx_pair(tmp_path, bytes(28 * 28), [1], rows=28, cols=28)
    img.write_bytes(struct.pack(">iiii", 2051, 10**8, 28, 28) + bytes(28 * 28))  # 73 GiB claimed
    with pytest.raises(ValueError, match=f"^truncated IDX file: {re.escape(str(img))}$"):
        load_idx(img, lab)


def test_load_idx_rejects_count_mismatch(tmp_path):
    img, lab = write_idx_pair(tmp_path, [0] * 8, [1, 2], label_count=2)
    (tmp_path / "labels.idx").write_bytes(struct.pack(">ii", 2049, 3) + bytes([1, 2, 3]))
    with pytest.raises(ValueError, match="count mismatch: 2 images vs 3 labels"):
        load_idx(img, tmp_path / "labels.idx")


def test_load_idx_rejects_out_of_range_label(tmp_path):
    img, lab = write_idx_pair(tmp_path, [0] * 4, [10])
    with pytest.raises(ValueError, match="label 10 out of range"):
        load_idx(img, lab)


# ------------------------------------------------------------- data source


def test_synthetic_source_opens_its_mixture_and_draws_through_it():
    source = DataSource(m=4, d=3, separation=2.0, sigma=0.5)
    mix = GaussianMixtureSpec(equidistant_means(4, 3, 2.0), 0.5)
    q = marginal(0.1, 0.2, 0.3, 0.4)
    for split in ("train", "test"):
        population = open_split(source, split)
        assert np.array_equal(population.means, mix.means) and population.sigma == 0.5
        got, want = draw(population, q, 300, 7), gen_gaussian_mixture(mix, q, 300, 7)
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)


def test_idx_source_opens_each_split_from_its_own_files(tmp_path):
    paths = write_ink_corpus(tmp_path, 2, n=120)
    source = DataSource(**paths)
    q = make_marginal(three_class_marginal(1))
    for split in ("train", "test"):
        pool = open_split(source, split)
        want = load_idx(paths[f"{split}_images"], paths[f"{split}_labels"])
        assert pool.m == 10 and np.array_equal(pool.features, want.features)
        got, ref = draw(pool, q, 80, 3), resample_by_marginal(want, q, 80, 3)
        assert got.features.dtype == np.uint8
        assert np.array_equal(got.features, ref.features)
        assert np.array_equal(got.labels, ref.labels)
