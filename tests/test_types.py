import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelshift import (
    PROB_FLOOR,
    LabeledDataset,
    LabelMarginal,
    ProbabilityMatrix,
    RatioVector,
    make_marginal,
    ratio_from_marginals,
    read_features,
)

from .helpers import marginal

prop = settings(max_examples=60, derandomize=True, deadline=None)


# ---------------------------------------------------------------- marginals


def test_make_marginal_normalizes_counts():
    assert np.allclose(make_marginal([30, 70]).probs, [0.3, 0.7])


def test_make_marginal_uniform_counts():
    assert np.allclose(make_marginal([1, 1, 1, 1]).probs, [0.25] * 4)


def test_make_marginal_rejects_all_zero():
    with pytest.raises(ValueError, match="empty distribution"):
        make_marginal([0, 0])


def test_make_marginal_rejects_negative_counts():
    with pytest.raises(ValueError, match="nonnegative"):
        make_marginal([3, -1])


@prop
@given(
    counts=st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=8).filter(
        lambda c: sum(c) > 0
    ),
    k=st.integers(min_value=1, max_value=1000),
)
def test_make_marginal_scale_invariant(counts, k):
    base = make_marginal(counts)
    scaled = make_marginal([k * c for c in counts])
    assert np.all(np.abs(base.probs - scaled.probs) <= 1e-12)


def test_marginal_needs_two_classes():
    with pytest.raises(ValueError, match="at least two classes"):
        LabelMarginal(np.array([1.0]))


def test_marginal_rejects_bad_sum():
    with pytest.raises(ValueError, match="expected 1"):
        LabelMarginal(np.array([0.6, 0.6]))


def test_marginal_rejects_negative_entries():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        LabelMarginal(np.array([1.2, -0.2]))


def test_marginal_is_read_only():
    m = marginal(0.25, 0.75)
    with pytest.raises(ValueError):
        m.probs[0] = 0.5


# ------------------------------------------------------------------ ratios


def test_ratio_from_marginals_elementwise():
    r = ratio_from_marginals(marginal(0.5, 0.5), marginal(0.25, 0.75))
    assert np.allclose(r.ratios, [2.0, 2.0 / 3.0])


def test_ratio_identity_at_no_shift():
    tr = marginal(0.3, 0.3, 0.4)
    assert np.allclose(ratio_from_marginals(tr, tr).ratios, 1.0)


def test_ratio_rejects_unsupported_class():
    with pytest.raises(ValueError, match="unsupported class"):
        ratio_from_marginals(marginal(0.5, 0.5), marginal(0.0, 1.0))


def test_ratio_zero_train_mass_gets_zero_ratio():
    r = ratio_from_marginals(marginal(0.0, 1.0), marginal(0.0, 1.0))
    assert r.ratios[0] == 0.0 and r.ratios[1] == 1.0


def test_ratio_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="different class counts"):
        ratio_from_marginals(marginal(0.5, 0.5), marginal(0.2, 0.3, 0.5))


@prop
@given(
    raw_te=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    raw_tr=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
)
def test_ratio_feasibility_machine_precision(raw_te, raw_tr):
    m = min(len(raw_te), len(raw_tr))
    te = make_marginal(raw_te[:m])
    tr = make_marginal(raw_tr[:m])
    r = ratio_from_marginals(te, tr)
    # sum_c r_c tr_c = sum_c te_c = 1 by construction
    assert abs(float(r.ratios @ tr.probs) - 1.0) <= 1e-12
    assert np.allclose(r.implied_test_marginal().probs, te.probs, atol=1e-12)


def test_ratio_vector_feasibility_gap_rejected():
    with pytest.raises(ValueError, match="violate feasibility"):
        RatioVector(np.array([2.0, 2.0]), marginal(0.5, 0.5))


def test_ratio_vector_rejects_negative():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        RatioVector(np.array([-0.5, 2.5]), marginal(0.5, 0.5))


def test_ratio_vector_rejects_length_mismatch():
    with pytest.raises(ValueError, match="match the training marginal"):
        RatioVector(np.array([1.0, 1.0, 1.0]), marginal(0.5, 0.5))


# ---------------------------------------------------------------- datasets


def test_dataset_shape_accessors():
    ds = LabeledDataset(np.zeros((5, 3)), np.array([0, 1, 2, 1, 0]), 3)
    assert (ds.n, ds.d, ds.m) == (5, 3, 3)
    assert ds.class_counts().tolist() == [2, 2, 1]
    assert np.allclose(ds.empirical_marginal().probs, [0.4, 0.4, 0.2])


def test_dataset_allows_absent_classes():
    ds = LabeledDataset(np.zeros((2, 1)), np.array([0, 0]), 4)
    assert ds.class_counts().tolist() == [2, 0, 0, 0]


def test_dataset_rejects_out_of_range_label():
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
        LabeledDataset(np.zeros((2, 1)), np.array([0, 2]), 2)


def test_dataset_rejects_nonfinite_features():
    with pytest.raises(ValueError, match="non-finite"):
        LabeledDataset(np.array([[np.nan], [0.0]]), np.array([0, 1]), 2)


def test_dataset_rejects_empty():
    with pytest.raises(ValueError, match="nonempty"):
        LabeledDataset(np.zeros((0, 2)), np.array([], dtype=int), 2)


def test_dataset_arrays_read_only():
    ds = LabeledDataset(np.zeros((2, 1)), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1


def test_dataset_keeps_uint8_pixels_and_reads_them_scaled():
    pixels = np.array([[0, 255], [128, 64]], dtype=np.uint8)
    pixels.setflags(write=False)
    ds = LabeledDataset(pixels, np.array([0, 1]), 2)
    assert ds.features is pixels  # adopted, not copied
    assert read_features(ds.features).tolist() == [[0.0, 1.0], [128 / 255.0, 64 / 255.0]]
    ints = LabeledDataset(np.array([[0, 255]]), np.array([1]), 2)
    assert ints.features.dtype == np.float64 and ints.features.tolist() == [[0.0, 255.0]]
    out = np.empty((2, 2))
    assert read_features(ints.features[[0, 0]], out) is out and out.tolist() == [[0.0, 255.0]] * 2


# ---------------------------------------------------- probability matrices


def test_probability_matrix_validates_rows():
    p = ProbabilityMatrix(np.array([[0.25, 0.75], [0.5, 0.5]]))
    assert (p.n, p.m) == (2, 2)


def test_probability_matrix_hard_labels_are_one_read_only_argmax():
    p = ProbabilityMatrix(np.array([[0.25, 0.75], [0.5, 0.5], [0.9, 0.1]]))
    assert p.hard_labels.tolist() == [1, 0, 0]  # a tie goes to the first class
    assert p.hard_labels is p.hard_labels and not p.hard_labels.flags.writeable


def test_probability_matrix_rejects_subfloor_entries():
    with pytest.raises(ValueError, match="probability floor"):
        ProbabilityMatrix(np.array([[0.0, 1.0]]))


def test_probability_matrix_rejects_bad_row_sum():
    with pytest.raises(ValueError, match="deviate from 1"):
        ProbabilityMatrix(np.array([[0.5, 0.6]]))


def test_from_rows_floors_and_renormalizes():
    p = ProbabilityMatrix.from_rows(np.array([[1.0, 0.0], [3.0, 1.0]]))
    assert p.rows[0, 1] >= PROB_FLOOR
    assert np.allclose(p.rows.sum(axis=1), 1.0)
    assert np.allclose(p.rows[1], [0.75, 0.25])


def test_from_rows_rejects_negative():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ProbabilityMatrix.from_rows(np.array([[1.0, -0.5]]))


@prop
@given(
    st.lists(
        st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3).filter(lambda r: sum(r) > 0.1),
        min_size=1,
        max_size=20,
    )
)
def test_from_rows_always_valid(raw):
    p = ProbabilityMatrix.from_rows(raw)
    assert np.all(p.rows >= PROB_FLOOR)
    assert np.all(np.abs(p.rows.sum(axis=1) - 1.0) <= 1e-6)


# ---------------------------------------------------------------- ownership


def _build_each(probs, ratios, feats, labels, rows):
    return [
        (lambda v: v.probs, LabelMarginal(probs)),
        (lambda v: v.ratios, RatioVector(ratios, marginal(0.5, 0.5))),
        (lambda v: v.features, LabeledDataset(feats, labels, 2)),
        (lambda v: v.labels, LabeledDataset(feats, labels, 2)),
        (lambda v: v.rows, ProbabilityMatrix(rows)),
    ]


def test_values_ignore_later_writes_to_a_callers_array():
    probs, ratios = np.array([0.25, 0.75]), np.array([0.5, 1.5])
    feats, labels = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1])
    rows = np.array([[0.25, 0.75], [0.5, 0.5]])
    built = _build_each(probs, ratios, feats, labels, rows)
    before = [get(v).copy() for get, v in built]
    for a in (probs, ratios, feats, labels, rows):
        a[...] = 7
    for (get, v), old in zip(built, before):
        assert np.array_equal(get(v), old)


def test_values_adopt_a_frozen_array_they_can_own():
    arrays = [np.array([0.25, 0.75]), np.array([0.5, 1.5]),
              np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1], dtype=np.int64),
              np.array([[0.25, 0.75], [0.5, 0.5]])]
    for a in arrays:
        a.setflags(write=False)
    for (get, v), a in zip(_build_each(*arrays), arrays):
        assert get(v) is a


def test_values_copy_a_read_only_view():
    base = np.array([[0.25, 0.75], [0.5, 0.5], [0.5, 0.5]])
    view = base[:2]
    view.setflags(write=False)
    p = ProbabilityMatrix(view)
    assert p.rows is not view and p.rows.flags.owndata
    base[0] = 0.5
    assert p.rows[0].tolist() == [0.25, 0.75]


def test_from_rows_leaves_its_input_alone_and_returns_an_owned_array():
    raw = np.array([[1.0, 0.0], [3.0, 1.0]])
    p = ProbabilityMatrix.from_rows(raw)
    assert raw.tolist() == [[1.0, 0.0], [3.0, 1.0]]
    assert p.rows.flags.owndata and not p.rows.flags.writeable
