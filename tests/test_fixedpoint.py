"""Tests for closed-form one-round maps, fixed-point solving, and the
Huberized surrogate."""

import math
import weakref

import numpy as np
import pytest

from fedclip import fixedpoint, rng as rngmod
from fedclip.clipping import ClippingPolicy, clip
from fedclip.engine import Q_INF, RunConfig, run_experiment
from fedclip.fixedpoint import (FixedPointError, difference_clip_map,
                                eq7_ensemble, huberized_loss,
                                lambda_map_matrix, make_difference_clip_map,
                                make_gradient_clip_map, make_local_min_clip_map,
                                make_model_clip_map, model_clip_map,
                                solve_fixed_point, table1_grid)
from fedclip.privacy import PrivacyConfig
from fedclip.problems import (build_linear_regression_ensemble,
                              build_mlp_synthetic_ensemble)


def test_preconditioner_hand_values():
    # scalar A = 1, eta_l = 0.1: Q = 2 -> 1 - 0.9^2 = 0.19
    np.testing.assert_allclose(lambda_map_matrix(1.0, 0.1, 2), [[0.19]])
    # Q = 1 collapses to eta_l * I
    np.testing.assert_allclose(lambda_map_matrix(1.0, 0.1, 1), [[0.1]])
    # Q = inf is the geometric limit (A^T A)^{-1}
    np.testing.assert_allclose(lambda_map_matrix(2.0, 0.1, Q_INF), [[0.25]])


def test_preconditioner_matrix_case():
    A = np.diag([2.0, 1.0])
    out = lambda_map_matrix(A, 0.1, 3)
    expected = np.diag([(1 - 0.6 ** 3) / 4.0, 1 - 0.9 ** 3])
    np.testing.assert_allclose(out, expected)


def test_preconditioner_validation():
    with pytest.raises(ValueError):
        lambda_map_matrix(np.zeros((2, 2)), 0.1, 1)  # singular
    with pytest.raises(ValueError):
        lambda_map_matrix(2.0, 0.6, 1)  # eta_l >= 2 / lambda_max


def test_model_clip_map_fixed_point_formula():
    # clients b = (-c/2, -c/2, k c): fixed point lam c / (3 - 2 lam) when the
    # heavy client saturates and the light clients stay unclipped
    c, k = 1.0, 5.0
    for eta_l, Q in [(0.2, 3), (0.5, 1), (0.6, 2)]:
        lam = (1 - eta_l) ** Q
        target = lam * c / (3 - 2 * lam)
        m = make_model_clip_map([-c / 2, -c / 2, k * c], eta_l, Q, c)
        x, res = solve_fixed_point(m, np.array([0.0]), tol=1e-12)
        assert abs(x[0] - target) < 1e-10
        assert res <= 1e-12


def test_model_clip_map_requires_unit_interval_lambda():
    with pytest.raises(ValueError):
        make_model_clip_map([0.0], 1.5, 2, 1.0)
    with pytest.raises(ValueError):
        model_clip_map(0.0, [0.0], 1.2, 1.0)


def test_difference_map_matches_one_engine_round():
    master = rngmod.stream(42, "map-vs-engine")
    for trial in range(25):
        N = int(master.integers(2, 5))
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
                        privacy=PrivacyConfig(enabled=False), seed=0, x0=x)
        trace = run_experiment(cfg, ens)
        np.testing.assert_allclose(trace.x[-1], mapped, atol=1e-12)


def test_difference_map_preconditioner_consistency():
    # with c = inf the map is plain preconditioned descent:
    # x - mean_i Lambda_i grad f_i(x)
    ens = eq7_ensemble()
    x = np.array([0.7])
    eta_l, Q = 0.02, 3
    out = difference_clip_map(x, ens, eta_l, Q, math.inf)
    manual = x.copy()
    for obj in ens.clients:
        lam = lambda_map_matrix(obj.A, eta_l, Q)
        manual = manual - (lam @ obj.grad(x)) / ens.n_clients
    np.testing.assert_allclose(out, manual)


def test_solver_raises_on_nonconvergent_vector_map():
    shift = lambda x: x + 1.0  # translation, no fixed point
    with pytest.raises(FixedPointError):
        solve_fixed_point(shift, np.array([1.0, 0.0]), tol=1e-12, max_iter=2000)


def test_solver_bisection_fallback_on_stalling_scalar_map():
    # clipped-gradient stationarity with a zero where the damped iteration
    # makes slow progress; bisection still nails it
    ens = eq7_ensemble()
    m = make_gradient_clip_map(ens, 1.0, step=0.01)
    x, res = solve_fixed_point(m, np.array([0.9]), tol=1e-11)
    assert abs(x[0] - 0.5) < 1e-8
    assert res <= 1e-11


def test_local_min_map_requires_minimizers():
    ens = eq7_ensemble()
    m = make_local_min_clip_map(ens, math.inf)
    x, _ = solve_fixed_point(m, np.array([0.0]), tol=1e-11)
    # unclipped: mean of client minimizers (4 + 1/2 - 1/6) / 3 = 13/9
    assert abs(x[0] - 13.0 / 9.0) < 1e-9
    mlp = build_mlp_synthetic_ensemble(hidden_width=2, N=2, samples_per_client=4,
                                       heterogeneity=0.5, seed=0)
    with pytest.raises(ValueError, match="closed-form local minimizers"):
        make_local_min_clip_map(mlp, math.inf)


def test_difference_map_requires_affine_clients():
    mlp = build_mlp_synthetic_ensemble(hidden_width=2, N=2, samples_per_client=4,
                                       heterogeneity=0.5, seed=0)
    with pytest.raises(ValueError, match="requires quadratic clients"):
        make_difference_clip_map(mlp, 0.1, 1, math.inf)


def test_huberized_loss_branches():
    lam, A, b, c = 0.19, 2.0, 1.0, 0.3
    k = lam * A * A
    m = b / A
    # inside: plain scaled quadratic
    x_in = m + 0.5 * c / k
    assert huberized_loss(lam, A, b, c, x_in) == pytest.approx(
        lam * 0.5 * (A * x_in - b) ** 2)
    # outside: linear with slope c, continuous at the boundary
    x_bd = m + c / k
    inside_val = lam * 0.5 * (A * x_bd - b) ** 2
    outside_val = c * abs(x_bd - m) - c * c / (2 * k)
    assert inside_val == pytest.approx(outside_val, rel=1e-12)


def test_huberized_gradient_is_clipped_gradient():
    master = rngmod.stream(8, "huber")
    h = 1e-6
    for _ in range(50):
        lam = float(master.uniform(0.05, 1.0))
        A = float(master.uniform(0.5, 3.0))
        b = float(master.normal())
        c = float(master.uniform(0.2, 2.0))
        x = float(master.normal(scale=2.0))
        inner = lam * A * (A * x - b)
        if abs(abs(inner) - c) < 1e-3:
            continue  # derivative kink at the threshold boundary
        num = (huberized_loss(lam, A, b, c, x + h)
               - huberized_loss(lam, A, b, c, x - h)) / (2 * h)
        expected = float(clip(np.array([inner]), c)[0])
        assert num == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_huberized_loss_validation():
    with pytest.raises(ValueError):
        huberized_loss(0.1, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        huberized_loss(-0.1, 1.0, 1.0, 1.0, 0.0)


def test_example_grid_values():
    grid = table1_grid()
    expected = {("1", "inf"): 0.0, ("1", "1"): 0.5,
                ("inf", "inf"): 13.0 / 9.0, ("inf", "1"): 2.0 / 3.0}
    for key, target in expected.items():
        assert abs(grid[key]["solver"] - target) < 1e-6
        assert abs(grid[key]["simulation"] - target) < 1e-3


def test_local_steps_inf_simulations_are_exact():
    """The Q = inf cells run to each client's exact local minimizer, so
    their simulations reach the closed-form stationary points to within a
    few ulps, not just to the step loop's stopping tolerance."""
    grid = table1_grid()
    assert abs(grid[("inf", "inf")]["simulation"] - 13.0 / 9.0) < 1e-13
    assert abs(grid[("inf", "1")]["simulation"] - 2.0 / 3.0) < 1e-13


def test_table1_grid_holds_no_earlier_cell_trace(monkeypatch):
    """Each cell keeps only its simulation's final iterate: when a cell's
    simulation starts, no earlier cell's trace is alive (the 80-round
    cell's, for one, during the 700-round one)."""
    traces = []

    def run(config, problem):
        assert all(ref() is None for ref in traces), len(traces)
        trace = run_experiment(config, problem)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(fixedpoint, "run_experiment", run)
    table1_grid()
    assert len(traces) == 4 and traces[-1]() is None


def test_eq7_ensemble_shape():
    ens = eq7_ensemble()
    assert ens.n_clients == 3
    np.testing.assert_allclose(ens.global_optimum, [0.0], atol=1e-14)
    np.testing.assert_allclose(ens.grad_mean(np.array([2.0])) * ens.n_clients, [82.0])


def reference_clipped_mean_step(vectors, c):
    s = np.zeros_like(vectors[0])
    for v in vectors:
        s = s + clip(v, c)
    return s


def test_maps_match_client_by_client_reference():
    g = rngmod.stream(11, "map-reference")
    A = [np.diag(g.uniform(0.5, 1.5, size=2)) + 0.1 * g.normal(size=(2, 2))
         for _ in range(9)]
    b = [g.normal(size=2) for _ in range(9)]
    ensembles = [eq7_ensemble(), build_linear_regression_ensemble(A, b)]
    for ens in ensembles:
        N, d = ens.n_clients, ens.dim
        minimizers = [obj.local_minimizer for obj in ens.clients]
        for c in (math.inf, 1.0, 0.05):
            grad_map = make_gradient_clip_map(ens, c, step=0.01)
            min_map = make_local_min_clip_map(ens, c, step=0.2)
            for Q in (1, 3, Q_INF):
                diff_map = make_difference_clip_map(ens, 0.05, Q, c)
                lams = [lambda_map_matrix(obj.A, 0.05, Q) for obj in ens.clients]
                for _ in range(40):
                    x = g.normal(0.0, 3.0, size=d)
                    grads = [obj.grad(x) for obj in ens.clients]
                    ref = x - reference_clipped_mean_step(
                        [lam @ gr for lam, gr in zip(lams, grads)], c) / N
                    assert np.array_equal(diff_map(x), ref)
                    assert np.array_equal(difference_clip_map(x, ens, 0.05, Q, c), ref)
            for _ in range(40):
                x = g.normal(0.0, 3.0, size=d)
                grads = [obj.grad(x) for obj in ens.clients]
                ref = x - 0.01 * reference_clipped_mean_step(grads, c) / N
                assert np.array_equal(grad_map(x), ref)
                ref = x - 0.2 * reference_clipped_mean_step(
                    [x - m for m in minimizers], c) / N
                assert np.array_equal(min_map(x), ref)


def test_model_clip_map_matches_client_by_client_reference():
    g = rngmod.stream(12, "model-map-reference")
    b = g.normal(0.0, 3.0, size=10).tolist()
    for x in g.normal(0.0, 3.0, size=200):
        ref = float(np.mean([clip(np.array([0.6 * x + (1.0 - 0.6) * bi]), 1.0)[0]
                             for bi in b]))
        assert model_clip_map(float(x), b, 0.6, 1.0) == ref
