"""Tests for Gaussian noise calibration and injection."""

import json
import math

import numpy as np
import pytest

from fedclip import rng as rngmod
from fedclip.cli import write_artifacts
from fedclip.clipping import ClippingPolicy
from fedclip.engine import RunConfig, run_experiment
from fedclip.privacy import (CALIBRATION_NOTE, NoiseSpec, PrivacyConfig,
                             calibrate_noise, draw_noise, noise_term_in_bound)
from fedclip.problems import build_quadratic_ensemble


def test_config_validation():
    with pytest.raises(ValueError):
        PrivacyConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        PrivacyConfig(delta=1.0)
    with pytest.raises(ValueError):
        PrivacyConfig(v=-1.0)
    # NaN fails every comparison, so each check must be written to fail on it
    for bad in ({"epsilon": math.nan}, {"epsilon": math.inf}, {"delta": math.nan},
                {"u": math.nan}, {"v": math.inf}):
        with pytest.raises(ValueError):
            PrivacyConfig(**bad)
    # a quoted "false" is truthy: only a real bool is accepted
    for bad in ("false", "true", 1, None):
        with pytest.raises(ValueError, match="enabled"):
            PrivacyConfig(enabled=bad)
    cfg = PrivacyConfig(enabled=True, epsilon=2.0)
    assert cfg.u == 1.0 and cfg.v == 2.0


def test_variance_formula_hand_value():
    cfg = PrivacyConfig(enabled=True, epsilon=1.5, delta=1e-5, v=2.0)
    spec = calibrate_noise(cfg, c=1.0, P=80, N=1920, T=100)
    expected = 2.0 * 80 * 100 * math.log(1e5) / (1920 ** 2 * 1.5 ** 2)
    assert spec.sigma2 == pytest.approx(expected, rel=1e-15)


def test_variance_monotonicity():
    cfg = PrivacyConfig(enabled=True, epsilon=1.0, delta=1e-5)
    base = calibrate_noise(cfg, c=1.0, P=10, N=100, T=50).sigma2
    assert calibrate_noise(cfg, c=2.0, P=10, N=100, T=50).sigma2 > base
    assert calibrate_noise(cfg, c=1.0, P=20, N=100, T=50).sigma2 > base
    assert calibrate_noise(cfg, c=1.0, P=10, N=100, T=100).sigma2 > base
    assert calibrate_noise(cfg, c=1.0, P=10, N=200, T=50).sigma2 < base
    tighter = PrivacyConfig(enabled=True, epsilon=0.5, delta=1e-5)
    assert calibrate_noise(tighter, c=1.0, P=10, N=100, T=50).sigma2 > base
    smaller_delta = PrivacyConfig(enabled=True, epsilon=1.0, delta=1e-8)
    assert calibrate_noise(smaller_delta, c=1.0, P=10, N=100, T=50).sigma2 > base


def test_regime_flag():
    # epsilon = 1.5 exceeds u (P/N)^2 T = (80/1920)^2 * 100 ~ 0.1736
    cfg = PrivacyConfig(enabled=True, epsilon=1.5, delta=1e-5)
    spec = calibrate_noise(cfg, c=1.0, P=80, N=1920, T=100)
    assert not spec.in_regime


def test_regime_flag_boundary():
    cfg = PrivacyConfig(enabled=True, epsilon=0.1, delta=1e-5)
    spec = calibrate_noise(cfg, c=1.0, P=80, N=1920, T=100)
    assert spec.in_regime  # 0.1 <= 0.1736


def test_calibration_disclaimer_present(tmp_path):
    """A private run's bound.json carries the disclaimer; a run without
    noise does not."""
    ens = build_quadratic_ensemble([-1.0, 1.0])
    for enabled in (True, False):
        cfg = RunConfig(rounds=2, local_steps=1, n_clients=2, sampled_per_round=2,
                        eta_l=0.1, eta_g=1.0,
                        policy=ClippingPolicy(mode="difference", threshold=0.5),
                        privacy=PrivacyConfig(enabled=enabled), seed=0,
                        x0=np.array([1.0]))
        out = tmp_path / f"private_{enabled}"
        write_artifacts(run_experiment(cfg, ens), out)
        bound = json.loads((out / "bound.json").read_text())
        assert bound.get("calibration_note") == (CALIBRATION_NOTE if enabled else None)


def test_draw_noise_zero_variance_is_exact_zero():
    spec = NoiseSpec(sigma2=0.0, dim=5)
    out = draw_noise(spec, rngmod.stream(0, "noise-test"))
    np.testing.assert_array_equal(out, np.zeros(5))


def test_draw_noise_empirical_variance():
    spec = NoiseSpec(sigma2=0.09, dim=3)
    g = rngmod.stream(7, "noise-var")
    draws = np.stack([draw_noise(spec, g) for _ in range(30000)])
    np.testing.assert_allclose(draws.var(axis=0), 0.09, rtol=0.05)
    np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.01)


def test_noise_term_in_bound_formula():
    spec = NoiseSpec(sigma2=0.01, dim=4)
    val = noise_term_in_bound(spec, eta_g=0.5, eta_l=0.1, P=8, Q=2, L=3.0)
    assert val == pytest.approx(2.0 * 0.5 * 3.0 * 4 * 0.01 / (0.1 * 8 * 2))
    with pytest.raises(ValueError):
        noise_term_in_bound(spec, eta_g=0.0, eta_l=0.1, P=8, Q=2, L=3.0)


def test_calibrate_rejects_bad_arguments():
    cfg = PrivacyConfig(enabled=True)
    with pytest.raises(ValueError):
        calibrate_noise(cfg, c=-1.0, P=4, N=8, T=10)
    with pytest.raises(ValueError):
        calibrate_noise(cfg, c=1.0, P=0, N=8, T=10)
    with pytest.raises(ValueError):
        NoiseSpec(sigma2=-0.1, dim=1)
