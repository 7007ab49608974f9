import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelshift import loglog_slope, ratio_mse, summarize

prop = settings(max_examples=60, derandomize=True, deadline=None)


def test_mse_zero_at_identity():
    assert ratio_mse(np.array([1.0, 2.0, 0.5]), np.array([1.0, 2.0, 0.5])) == 0.0


def test_mse_hand_value():
    assert ratio_mse(np.array([1.0, 1.0]), np.array([2.0, 0.0])) == pytest.approx(1.0)


def test_mse_permutation_symmetric():
    est = np.array([0.5, 1.5, 2.0])
    truth = np.array([1.0, 1.2, 0.8])
    perm = np.array([2, 0, 1])
    assert ratio_mse(est, truth) == pytest.approx(ratio_mse(est[perm], truth[perm]))


def test_mse_rejects_length_mismatch():
    with pytest.raises(ValueError, match="equal-length"):
        ratio_mse(np.array([1.0, 1.0]), np.array([1.0, 1.0, 1.0]))


@prop
@given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=6))
def test_mse_positive_unless_equal(vals):
    truth = np.asarray(vals)
    assert ratio_mse(truth, truth) == 0.0
    bumped = truth.copy()
    bumped[0] += 0.5
    assert ratio_mse(bumped, truth) > 0.0


def test_slope_exact_inverse_law():
    pts = [(n, 4.0 / n) for n in (100, 400, 1600, 6400)]
    assert loglog_slope(pts) == pytest.approx(-1.0, abs=1e-9)


def test_slope_flat_curve():
    assert loglog_slope([(10, 3.0), (100, 3.0), (1000, 3.0)]) == pytest.approx(0.0, abs=1e-12)


def test_slope_half_power():
    pts = [(n, 9.0 / math.sqrt(n)) for n in (250, 1000, 4000)]
    assert loglog_slope(pts) == pytest.approx(-0.5, abs=1e-9)


def test_slope_needs_three_points():
    with pytest.raises(ValueError, match="three points"):
        loglog_slope([(10, 1.0), (100, 0.1)])


def test_slope_rejects_nonpositive_values():
    with pytest.raises(ValueError, match="positive"):
        loglog_slope([(10, 1.0), (100, 0.0), (1000, 0.1)])


@prop
@given(
    exponent=st.floats(-2.0, 2.0),
    scale=st.floats(0.1, 50.0),
)
def test_slope_recovers_any_power_law(exponent, scale):
    pts = [(n, scale * n**exponent) for n in (50, 200, 800, 3200)]
    assert abs(loglog_slope(pts) - exponent) < 1e-9


def test_summarize_singleton_has_zero_std():
    assert summarize([0.5]) == {"mean": 0.5, "std": 0.0, "count": 1}


def test_summarize_hand_values():
    s = summarize([1.0, 3.0])
    assert s["mean"] == pytest.approx(2.0)
    assert s["std"] == pytest.approx(math.sqrt(2.0))
    assert s["count"] == 2


def test_summarize_order_invariant():
    a = summarize([0.1, 0.4, 0.2])
    b = summarize([0.4, 0.2, 0.1])
    assert a["mean"] == pytest.approx(b["mean"])
    assert a["std"] == pytest.approx(b["std"])


def test_summarize_rejects_empty():
    with pytest.raises(ValueError, match="nothing to summarize"):
        summarize([])
