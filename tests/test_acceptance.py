"""Acceptance gate: one test per headline behavior, each at its stated
tolerance and runtime budget. Every test prints a single pass line so the
gate reads as a checklist under ``pytest -v -s``."""

import math
import time

import numpy as np
import pytest

from fedclip import rng as rngmod
from fedclip.clipping import ClippingPolicy, clip
from fedclip.diagnostics import (bound_inputs_from_trace, clip_bias_terms,
                                 initial_gap, measured_stationarity,
                                 theorem1_bound, update_distribution)
from fedclip.engine import (Q_INF, RunConfig, record_to_json, run_experiment,
                            sample_clients)
from fedclip.fixedpoint import (difference_clip_map, huberized_loss,
                                make_model_clip_map, solve_fixed_point,
                                table1_grid)
from fedclip.privacy import (NoiseSpec, PrivacyConfig, calibrate_noise,
                             draw_noise)
from fedclip.problems import (build_linear_regression_ensemble,
                              build_mlp_synthetic_ensemble,
                              build_quadratic_ensemble)

NO_PRIVACY = PrivacyConfig(enabled=False)


def report(n, name):
    print(f"criterion {n} ({name}): PASS")


def test_criterion_01_stationary_point_grid():
    t0 = time.monotonic()
    grid = table1_grid()
    expected = {("1", "inf"): 0.0, ("1", "1"): 0.5,
                ("inf", "inf"): 13.0 / 9.0, ("inf", "1"): 2.0 / 3.0}
    for key, target in expected.items():
        assert abs(grid[key]["solver"] - target) < 1e-6, key
        assert abs(grid[key]["simulation"] - target) < 1e-3, key
    assert time.monotonic() - t0 < 5.0
    report(1, "stationary-point grid")


def test_criterion_02_model_clipping_counterexample():
    t0 = time.monotonic()
    c, k = 1.0, 5.0
    b_values = [-0.5 * c, -0.5 * c, k * c]
    x_star = (k - 1.0) * c / 3.0  # unclipped optimum, mean of b
    ens = build_quadratic_ensemble(b_values)
    for eta_l, Q in [(0.2, 3), (0.2, 5), (0.4, 3), (0.5, 1), (0.6, 2)]:
        lam = (1.0 - eta_l) ** Q
        target = lam * c / (3.0 - 2.0 * lam)
        m = make_model_clip_map(b_values, eta_l, Q, c)
        xf, _ = solve_fixed_point(m, np.array([0.0]), tol=1e-12)
        assert abs(xf[0] - target) < 1e-8
        assert abs(target - x_star) > 1.0
        cfg = RunConfig(rounds=120, local_steps=Q, n_clients=3,
                        sampled_per_round=3, eta_l=eta_l, eta_g=1.0,
                        policy=ClippingPolicy(mode="model", threshold=c),
                        privacy=NO_PRIVACY, seed=0, x0=np.array([0.0]))
        trace = run_experiment(cfg, ens)
        assert abs(trace.x[-1, 0] - target) < 1e-4
    assert time.monotonic() - t0 < 10.0
    report(2, "model-clipping non-convergence")


def test_criterion_03_preconditioned_recipe_recovers_optimum():
    t0 = time.monotonic()
    master = rngmod.stream(7, "recipe-ensembles")
    for case in range(20):
        d = int(master.integers(1, 4))
        N = int(master.integers(2, 6))
        x_base = master.uniform(-2, 2, size=d)
        A_list, b_list = [], []
        for _ in range(N):
            A = np.diag(master.uniform(0.6, 1.4, size=d)) * master.uniform(0.8, 2.0)
            A_list.append(A)
            b_list.append(A @ x_base + master.normal(0.0, 1.0, size=d))
        ens = build_linear_regression_ensemble(A_list, b_list)
        x_star = ens.global_optimum
        g_max = max(np.linalg.norm(obj.grad(x_star)) for obj in ens.clients)
        eta_l = 1.0 / g_max
        L_max = max(obj.lipschitz() for obj in ens.clients)
        cfg = RunConfig(rounds=250, local_steps=1, n_clients=N,
                        sampled_per_round=N, eta_l=eta_l,
                        eta_g=1.0 / (eta_l * L_max),
                        policy=ClippingPolicy(mode="difference", threshold=1.0),
                        privacy=NO_PRIVACY, seed=case,
                        x0=x_star + master.uniform(-1.0, 1.0, size=d))
        trace = run_experiment(cfg, ens)
        err = float(np.linalg.norm(trace.x[-1] - x_star))
        assert err <= 1e-8, (case, err)
    assert time.monotonic() - t0 < 30.0
    report(3, "single-step preconditioned recipe")


def test_criterion_04_closed_form_map_matches_engine_round():
    master = rngmod.stream(21, "map-equivalence")
    for trial in range(100):
        N = int(master.integers(2, 6))
        d = int(master.integers(1, 4))
        Q = int(master.integers(1, 6))
        A_list = [np.diag(master.uniform(0.5, 1.5, size=d)) for _ in range(N)]
        b_list = [master.normal(size=d) for _ in range(N)]
        ens = build_linear_regression_ensemble(A_list, b_list)
        eta_l = float(master.uniform(0.05, 0.5))
        c = float(master.uniform(0.1, 2.0))
        x = master.normal(size=d)
        mapped = difference_clip_map(x, ens, eta_l, Q, c)
        cfg = RunConfig(rounds=1, local_steps=Q, n_clients=N,
                        sampled_per_round=N, eta_l=eta_l, eta_g=1.0,
                        policy=ClippingPolicy(mode="difference", threshold=c),
                        privacy=NO_PRIVACY, seed=0, x0=x)
        trace = run_experiment(cfg, ens)
        gap = float(np.linalg.norm(trace.x[-1] - mapped))
        assert gap <= 1e-10, (trial, gap)
    report(4, "closed-form map vs engine round")


def test_criterion_05_huberized_gradient_identity():
    master = rngmod.stream(13, "huber-identity")
    h = 1e-6
    checked = 0
    while checked < 100:
        lam = float(master.uniform(0.05, 1.0))
        A = float(master.uniform(0.5, 3.0))
        b = float(master.normal())
        c = float(master.uniform(0.2, 2.0))
        x = float(master.normal(scale=2.0))
        inner = lam * A * (A * x - b)
        if abs(abs(inner) - c) < 1e-3:
            continue  # skip the kink at the clipping boundary
        num = (huberized_loss(lam, A, b, c, x + h)
               - huberized_loss(lam, A, b, c, x - h)) / (2 * h)
        expected = float(clip(np.array([inner]), c)[0])
        assert num == pytest.approx(expected, rel=1e-6, abs=1e-9)
        checked += 1
    report(5, "Huberized gradient identity")


def test_criterion_06_bound_dominates_measured_stationarity():
    configs = [(scale, N, Q)
               for scale in (0.5, 1.0, 2.0, 4.0)
               for N in (4, 8)
               for Q in (1, 2, 4)][:20]
    for scale, N, Q in configs:
        b = scale * np.linspace(-1.0, 1.0, N)
        x0 = 2.0 * scale + 1.0
        ens = build_quadratic_ensemble(b, g_bound=x0 + scale + 1.0)
        eta_l = 0.9 / (math.sqrt(60.0) * Q * ens.L)
        cap = min(N / (48.0 * Q), N / (6.0 * Q * ens.L * (N - 1)))
        cfg = RunConfig(rounds=30, local_steps=Q, n_clients=N,
                        sampled_per_round=N, eta_l=eta_l,
                        eta_g=0.9 * cap / eta_l,
                        policy=ClippingPolicy(mode="none"),
                        privacy=NO_PRIVACY, seed=1, x0=np.full(1, x0))
        trace = run_experiment(cfg, ens)
        bound = theorem1_bound(bound_inputs_from_trace(
            trace, initial_gap(trace)[0], clip_bias_terms(trace)))
        assert bound["certified"], (scale, N, Q)
        measured = measured_stationarity(trace)
        assert measured <= bound["total"], (scale, N, Q, measured, bound["total"])
    report(6, "convergence bound dominates measurement")


def test_criterion_07_bias_term_degeneracies():
    # deterministic oracles: realized and expected-path factors coincide
    ens = build_quadratic_ensemble([-3.0, 3.0])
    cfg = RunConfig(rounds=5, local_steps=2, n_clients=2, sampled_per_round=2,
                    eta_l=0.05, eta_g=1.0,
                    policy=ClippingPolicy(mode="difference", threshold=0.05),
                    privacy=NO_PRIVACY, seed=0, x0=np.array([2.0]))
    report_det = clip_bias_terms(run_experiment(cfg, ens))
    assert (report_det.mean_abs_realized_gap == 0.0).all()

    # identical clients: no cross-client factor spread (power-of-two client
    # count keeps the float mean of equal factors exact)
    same = build_quadratic_ensemble([2.0, 2.0, 2.0, 2.0])
    cfg = RunConfig(rounds=5, local_steps=2, n_clients=4, sampled_per_round=4,
                    eta_l=0.05, eta_g=1.0,
                    policy=ClippingPolicy(mode="difference", threshold=0.01),
                    privacy=NO_PRIVACY, seed=0, x0=np.array([0.0]))
    report_same = clip_bias_terms(run_experiment(cfg, same))
    assert (report_same.mean_abs_cross_gap == 0.0).all()

    # c >= eta_l Q G: clipping never activates, factors identically one
    wide = build_quadratic_ensemble([-1.0, 1.0], g_bound=5.0)
    c = 0.05 * 2 * wide.G
    cfg = RunConfig(rounds=5, local_steps=2, n_clients=2, sampled_per_round=2,
                    eta_l=0.05, eta_g=1.0,
                    policy=ClippingPolicy(mode="difference", threshold=c),
                    privacy=NO_PRIVACY, seed=0, x0=np.array([2.0]))
    trace = run_experiment(cfg, wide)
    assert trace.oracle_violations() == 0
    rep = clip_bias_terms(trace)
    assert rep.gamma1 == 1.0 and rep.gamma2 == 1.0
    assert rep.bias_abs_avg() == 0.0 and rep.bias_sq_sum(2) == 0.0
    report(7, "bias-term degeneracies")


def test_criterion_08_noise_calibration():
    cfg = PrivacyConfig(enabled=True, epsilon=1.0, delta=1e-5)
    base = calibrate_noise(cfg, c=1.0, P=10, N=100, T=50).sigma2
    assert calibrate_noise(cfg, c=2.0, P=10, N=100, T=50).sigma2 > base
    assert calibrate_noise(cfg, c=1.0, P=20, N=100, T=50).sigma2 > base
    assert calibrate_noise(cfg, c=1.0, P=10, N=100, T=100).sigma2 > base
    assert calibrate_noise(cfg, c=1.0, P=10, N=200, T=50).sigma2 < base
    tight = PrivacyConfig(enabled=True, epsilon=0.5, delta=1e-5)
    assert calibrate_noise(tight, c=1.0, P=10, N=100, T=50).sigma2 > base

    spec = NoiseSpec(sigma2=0.04, dim=2)
    g = rngmod.stream(17, "calibration-draws")
    draws = np.stack([draw_noise(spec, g) for _ in range(10 ** 5)])
    np.testing.assert_allclose(draws.var(axis=0), 0.04, rtol=0.05)

    paper_cfg = PrivacyConfig(enabled=True, epsilon=1.5, delta=1e-5, v=2.0)
    spec = calibrate_noise(paper_cfg, c=1.0, P=80, N=1920, T=100)
    assert spec.sigma2 == pytest.approx(0.022208575356809854, rel=1e-12)
    report(8, "noise calibration")


def test_criterion_09_with_replacement_resampling_identity():
    g = rngmod.stream(29, "resampling-values")
    N, P, R = 10, 4, 10 ** 4
    values = g.normal(0.0, 2.0, size=N)
    grand = 0.0
    for r in range(R):
        idx = sample_clients(N, P, rngmod.stream(29, "resample", r))
        grand += values[idx].mean()
    grand /= R
    pop_mean = values.mean()
    pop_var = values.var()
    stderr = math.sqrt(pop_var / (P * R))
    assert abs(grand - pop_mean) <= 4.0 * stderr
    report(9, "with-replacement resampling identity")


def test_criterion_10_byte_identical_reruns(tmp_path):
    ens = build_quadratic_ensemble([-2.0, 0.5, 3.0])

    def run_once():
        cfg = RunConfig(rounds=6, local_steps=2, n_clients=3,
                        sampled_per_round=2, eta_l=0.05, eta_g=1.0,
                        policy=ClippingPolicy(mode="difference", threshold=0.2),
                        privacy=PrivacyConfig(enabled=True, epsilon=0.8,
                                              delta=1e-5),
                        seed=11, x0=np.array([1.0]), noise_mode="gaussian")
        trace = run_experiment(cfg, ens)
        return "\n".join(record_to_json(r) for r in trace.records) + "\n"

    (tmp_path / "a.jsonl").write_text(run_once())
    (tmp_path / "b.jsonl").write_text(run_once())
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    report(10, "byte-identical reruns")


def test_criterion_11_heterogeneity_widens_update_spread():
    def magnitude_vars(seed, heterogeneity):
        ens = build_mlp_synthetic_ensemble(hidden_width=8, N=8,
                                           samples_per_client=40,
                                           heterogeneity=heterogeneity,
                                           seed=seed, n_classes=4)
        x0 = rngmod.stream(seed, "init").normal(0.0, 0.3, size=ens.dim)
        cfg = RunConfig(rounds=17, local_steps=2, n_clients=8,
                        sampled_per_round=8, eta_l=0.05, eta_g=1.0,
                        policy=ClippingPolicy(mode="none"),
                        privacy=NO_PRIVACY, seed=seed, x0=x0)
        trace = run_experiment(cfg, ens)
        return {row["t"]: row["magnitude_var"]
                for row in update_distribution(trace)}

    wins = 0
    for seed in range(10):
        skewed = magnitude_vars(seed, 1.0)
        uniform = magnitude_vars(seed, 0.0)
        if all(skewed[t] > uniform[t] for t in (2, 8, 16)):
            wins += 1
    assert wins >= 9, wins
    report(11, "heterogeneity widens update spread")
