"""Unit and property tests for the clip operator and transmission policies."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from fedclip.clipping import (AUTO, ClippingPolicy, apply_policy, clip,
                              clip_factor, resolve_auto_threshold)

finite_vectors = arrays(np.float64, st.integers(1, 6),
                        elements=st.floats(-1e6, 1e6, allow_nan=False))
thresholds = st.floats(1e-6, 1e6, allow_nan=False)


def test_factor_hand_values():
    assert clip_factor(np.array([3.0, 4.0]), 10.0) == 1.0
    assert clip_factor(np.array([3.0, 4.0]), 5.0) == 1.0  # tie
    assert clip_factor(np.array([3.0, 4.0]), 2.5) == 0.5
    assert clip_factor(np.zeros(3), 1e-9) == 1.0


def test_factor_infinite_threshold():
    assert clip_factor(np.array([1e300]), math.inf) == 1.0
    v = np.array([5.0, -2.0])
    assert clip(v, math.inf) is v


def test_factor_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        clip_factor(np.ones(2), 0.0)
    with pytest.raises(ValueError):
        clip(np.ones(2), -1.0)


@given(finite_vectors, thresholds)
def test_clipped_norm_at_most_threshold(v, c):
    assert np.linalg.norm(clip(v, c)) <= c * (1 + 1e-12)


@given(finite_vectors, thresholds)
def test_factor_in_unit_interval(v, c):
    f = clip_factor(v, c)
    assert 0.0 < f <= 1.0


@given(finite_vectors, thresholds)
def test_clip_idempotent(v, c):
    once = clip(v, c)
    np.testing.assert_allclose(clip(once, c), once, rtol=1e-12, atol=1e-300)


@given(finite_vectors, thresholds, st.floats(1e-3, 1e3))
def test_clip_scale_equivariance(v, c, s):
    np.testing.assert_allclose(clip(s * v, s * c), s * np.asarray(clip(v, c)),
                               rtol=1e-9, atol=1e-250)


@given(finite_vectors, thresholds)
def test_clip_decomposes_as_factor_times_vector(v, c):
    np.testing.assert_allclose(clip(v, c), clip_factor(v, c) * v,
                               rtol=1e-12, atol=0.0)


def test_clip_preserves_direction():
    v = np.array([3.0, 4.0])
    out = clip(v, 1.0)
    np.testing.assert_allclose(out / np.linalg.norm(out), v / np.linalg.norm(v))


def test_policy_validation():
    with pytest.raises(ValueError):
        ClippingPolicy(mode="banana")
    with pytest.raises(ValueError):
        ClippingPolicy(mode="difference", threshold=None)
    with pytest.raises(ValueError):
        ClippingPolicy(mode="model", threshold=-2.0)
    with pytest.raises(ValueError):
        ClippingPolicy(mode="difference", threshold=math.nan)
    for rho in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ClippingPolicy(mode="difference", threshold=AUTO, rho=rho)
    ClippingPolicy(mode="none")  # threshold not needed
    ClippingPolicy(mode="difference", threshold=AUTO)


def test_finite_threshold():
    assert ClippingPolicy(mode="difference", threshold=0.5).finite_threshold == 0.5
    assert ClippingPolicy(mode="model", threshold=math.inf).finite_threshold is None
    assert ClippingPolicy(mode="none", threshold=2.0).finite_threshold is None


def test_auto_threshold_resolution():
    assert resolve_auto_threshold([1.0, 2.0, 3.0], 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        resolve_auto_threshold([], 0.5)
    with pytest.raises(ValueError):
        resolve_auto_threshold([1.0], 0.0)
    policy = ClippingPolicy(mode="difference", threshold=AUTO, rho=0.5)
    assert policy.is_auto
    resolved = policy.resolved(1.25)
    assert not resolved.is_auto and resolved.threshold == 1.25


def test_apply_policy_none_transmits_raw_difference():
    x0, x1 = np.array([1.0, 1.0]), np.array([4.0, 5.0])
    out, f = apply_policy(ClippingPolicy(mode="none"), x1, x0)
    np.testing.assert_allclose(out, [3.0, 4.0])
    assert f == 1.0


def test_apply_policy_difference_clips_update():
    x0, x1 = np.array([1.0, 1.0]), np.array([4.0, 5.0])  # delta norm 5
    out, f = apply_policy(ClippingPolicy(mode="difference", threshold=2.5), x1, x0)
    np.testing.assert_allclose(out, [1.5, 2.0])
    assert f == pytest.approx(0.5)


def test_apply_policy_model_clips_final_model():
    x0, x1 = np.zeros(2), np.array([3.0, 4.0])
    out, f = apply_policy(ClippingPolicy(mode="model", threshold=1.0), x1, x0)
    np.testing.assert_allclose(out, [0.6, 0.8])
    assert f == pytest.approx(0.2)


def test_apply_policy_rejects_unresolved_auto_and_shape_mismatch():
    with pytest.raises(ValueError):
        apply_policy(ClippingPolicy(mode="difference", threshold=AUTO),
                     np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        apply_policy(ClippingPolicy(mode="none"), np.ones(3), np.zeros(2))
