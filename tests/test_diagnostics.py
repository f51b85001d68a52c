"""Tests for bound quantities, bias aggregates, and distribution diagnostics."""

import json
import math

import numpy as np
import pytest

from fedclip import rng as rngmod
from fedclip.clipping import ClippingPolicy
from fedclip.diagnostics import (BoundInputs, bound_inputs_from_trace,
                                 clip_bias_terms, corollary1_bound,
                                 drift_check, initial_gap,
                                 measured_stationarity, stepsize_regime,
                                 theorem1_bound, update_distribution)
from fedclip.engine import RunConfig, run_experiment
from fedclip.privacy import PrivacyConfig, calibrate_noise
from fedclip.problems import (build_linear_regression_ensemble,
                              build_quadratic_ensemble)

NO_PRIVACY = PrivacyConfig(enabled=False)


def run(b_values, rounds=5, local_steps=2, eta_l=0.05, eta_g=1.0,
        policy=None, x0=2.0, seed=0, noise_mode="deterministic",
        sampled=None, g_bound=None):
    ens = build_quadratic_ensemble(b_values, g_bound=g_bound)
    N = ens.n_clients
    cfg = RunConfig(rounds=rounds, local_steps=local_steps, n_clients=N,
                    sampled_per_round=N if sampled is None else sampled,
                    eta_l=eta_l, eta_g=eta_g,
                    policy=policy or ClippingPolicy(mode="none"),
                    privacy=NO_PRIVACY, seed=seed, x0=np.array([x0]),
                    noise_mode=noise_mode)
    return run_experiment(cfg, ens)


def test_bound_hand_arithmetic():
    inputs = BoundInputs(f_gap=1.0, L=1.0, sigma_l=1.0, sigma_g=0.5, G=2.0,
                         d=1, eta_l=0.05, eta_g=0.5, Q=2, T=10, P=4,
                         sigma2=0.01, gamma1=0.9, gamma2=0.85,
                         bias_abs_avg=0.1, bias_sq_sum=0.2)
    out = theorem1_bound(inputs)
    assert out["initial_gap"] == pytest.approx(8.0)
    assert out["drift"] == pytest.approx(0.225)
    assert out["sampling_variance"] == pytest.approx(0.031875)
    assert out["privacy_noise"] == pytest.approx(0.025)
    assert out["clipping_bias_abs"] == pytest.approx(1.6)
    assert out["clipping_bias_sq"] == pytest.approx(0.06)
    assert out["total"] == pytest.approx(9.941875)


def test_bound_rejects_degenerate_inputs():
    inputs = BoundInputs(f_gap=1.0, L=1.0, sigma_l=0.0, sigma_g=0.0, G=1.0, d=1,
                         eta_l=0.1, eta_g=1.0, Q=1, T=1, P=1)
    theorem1_bound(inputs)
    for bad in ({"eta_g": 0.0}, {"P": 0}, {"L": 0.0}, {"sigma2": -0.1}):
        with pytest.raises(ValueError):
            theorem1_bound(BoundInputs(**{**vars(inputs), **bad}))


def test_stepsize_regime_flags():
    ok = BoundInputs(f_gap=1.0, L=1.0, sigma_l=0.0, sigma_g=0.0, G=1.0, d=1,
                     eta_l=0.01, eta_g=1.0, Q=2, T=10, P=4)
    flags = stepsize_regime(ok)
    assert flags["eta_local_ok"]  # 0.01 <= 1/(sqrt(60) * 2)
    assert flags["eta_product_ok"]
    too_big = BoundInputs(f_gap=1.0, L=1.0, sigma_l=0.0, sigma_g=0.0, G=1.0,
                          d=1, eta_l=0.5, eta_g=1.0, Q=2, T=10, P=4)
    flags = stepsize_regime(too_big)
    assert not flags["eta_local_ok"]


def test_uncertified_when_regime_fails():
    bad = BoundInputs(f_gap=1.0, L=1.0, sigma_l=0.0, sigma_g=0.0, G=1.0, d=1,
                      eta_l=0.5, eta_g=2.0, Q=2, T=10, P=4)
    assert not theorem1_bound(bad)["certified"]
    flagged = BoundInputs(f_gap=1.0, L=1.0, sigma_l=0.0, sigma_g=0.0, G=1.0,
                          d=1, eta_l=0.01, eta_g=1.0, Q=2, T=10, P=4,
                          certified=False)
    assert not theorem1_bound(flagged)["certified"]


def test_bias_zero_without_clipping():
    trace = run([-1.0, 0.0, 1.0])
    report = clip_bias_terms(trace)
    assert report.gamma1 == 1.0 and report.gamma2 == 1.0
    assert report.bias_abs_avg() == 0.0
    assert report.bias_sq_sum(3) == 0.0


def test_realized_gap_zero_for_deterministic_oracles():
    trace = run([-3.0, 3.0], policy=ClippingPolicy(mode="difference",
                                                   threshold=0.05))
    report = clip_bias_terms(trace)
    assert (report.mean_abs_realized_gap == 0.0).all()


def test_cross_gap_zero_for_identical_clients():
    trace = run([2.0, 2.0, 2.0], policy=ClippingPolicy(mode="difference",
                                                       threshold=0.01))
    report = clip_bias_terms(trace)
    assert (report.mean_abs_cross_gap == 0.0).all()


def test_generous_threshold_recovers_unclipped_factors():
    # c >= eta_l Q G guarantees no update is ever clipped
    trace = run([-1.0, 1.0], policy=ClippingPolicy(mode="difference",
                                                   threshold=100.0),
                g_bound=10.0)
    report = clip_bias_terms(trace)
    assert report.gamma1 == 1.0 and report.gamma2 == 1.0
    assert report.bias_abs_avg() == 0.0


def test_bound_inputs_assembled_from_trace():
    trace = run([-1.0, 1.0], rounds=4)
    f_gap, method = initial_gap(trace)
    assert method == "analytic f_star"
    assert f_gap == trace.problem.loss_mean(trace.config.x0) - trace.problem.f_star
    report = clip_bias_terms(trace)
    inputs = bound_inputs_from_trace(trace, f_gap, report)
    assert inputs.T == 4 and inputs.P == 2 and inputs.Q == 2
    assert inputs.f_gap == f_gap
    assert (inputs.gamma1, inputs.gamma2) == (report.gamma1, report.gamma2)
    assert inputs.certified


def test_initial_gap_without_f_star_uses_the_lowest_observed_loss():
    # both clients see only x1 + x2: the normal matrix is singular, no f_star
    A = [np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]])]
    ens = build_linear_regression_ensemble(A, [np.array([1.0]), np.array([-1.0])])
    assert ens.f_star is None
    cfg = RunConfig(rounds=3, local_steps=2, n_clients=2, sampled_per_round=2,
                    eta_l=0.1, eta_g=1.0, policy=ClippingPolicy(mode="none"),
                    privacy=NO_PRIVACY, seed=0, x0=np.array([2.0, 0.0]))
    trace = run_experiment(cfg, ens)
    f_gap, method = initial_gap(trace)
    assert method == "min-observed-loss proxy"
    assert f_gap == ens.loss_mean(cfg.x0) - min(r.loss for r in trace.records)


def test_measured_stationarity_definition():
    trace = run([-1.0, 1.0], rounds=3)
    manual = np.mean([a * g ** 2 for a, g in zip(trace.alpha_bar.tolist(),
                                                 trace.global_grad_norm.tolist())])
    assert measured_stationarity(trace) == pytest.approx(manual)


def test_corollary_bound_terms_and_reference_scale():
    out = corollary1_bound(eta_g=1.0, eta_l=0.01, Q=2, T=100, P=8, d=4,
                           N=64, epsilon=1.0, delta=1e-5, L=1.0, f_gap=1.0,
                           sigma_l=1.0, sigma_g=0.5, c_prime=2.0)
    assert out["reference_scale"] == pytest.approx(math.sqrt(4) / 64.0)
    assert out["total"] == pytest.approx(sum(out[k] for k in
                                             ("initial_gap", "drift",
                                              "sampling_variance",
                                              "privacy_noise")))
    # noise term scales with c^2 = (eta_l Q c_prime)^2
    bigger = corollary1_bound(eta_g=1.0, eta_l=0.01, Q=2, T=100, P=8, d=4,
                              N=64, epsilon=1.0, delta=1e-5, L=1.0, f_gap=1.0,
                              sigma_l=1.0, sigma_g=0.5, c_prime=4.0)
    assert bigger["privacy_noise"] == pytest.approx(4.0 * out["privacy_noise"])
    # the shared terms are theorem1_bound's with gamma = 1 and no bias, and
    # equal the corollary's own closed forms bit for bit
    eta_g, eta_l, Q, T, P, d, L = 1.0, 0.01, 2, 100, 8, 4, 1.0
    spec = calibrate_noise(PrivacyConfig(enabled=True, epsilon=1.0, delta=1e-5),
                           eta_l * Q * 2.0, P, 64, T, dim=d)
    th = theorem1_bound(BoundInputs(f_gap=1.0, L=L, sigma_l=1.0, sigma_g=0.5,
                                    G=3.0, d=d, eta_l=eta_l, eta_g=eta_g, Q=Q,
                                    T=T, P=P, sigma2=spec.sigma2))
    closed = {
        "initial_gap": 4.0 * 1.0 / (eta_g * eta_l * Q * T),
        "drift": 12.5 * eta_l ** 2 * L * Q * (1.0 ** 2 + 6.0 * Q * 0.5 ** 2),
        "sampling_variance": 6.0 * eta_g * eta_l * L * 1.0 ** 2 / P,
        "privacy_noise": 2.0 * eta_g * L * d * spec.sigma2 / (eta_l * P * Q),
    }
    for k, v in closed.items():
        assert out[k] == th[k] == v, k
    assert out["clipping_bias_abs"] == out["clipping_bias_sq"] == 0.0


def test_bound_terms_growing_with_q_are_null_at_q_inf():
    inputs = BoundInputs(f_gap=1.0, L=1.0, sigma_l=0.0, sigma_g=0.5, G=1.0,
                         d=1, eta_l=0.1, eta_g=1.0, Q=math.inf, T=10, P=2,
                         bias_sq_sum=0.0)
    out = theorem1_bound(inputs)
    assert out["drift"] is None and out["clipping_bias_sq"] is None
    assert out["total"] is None
    assert out["null_reason"] == "not applicable for Q=inf"
    assert out["initial_gap"] == 0.0 and out["privacy_noise"] == 0.0
    assert not out["certified"]
    finite = theorem1_bound(BoundInputs(**{**vars(inputs), "Q": 2}))
    assert "null_reason" not in finite and finite["total"] > 0


def test_bound_terms_that_overflow_are_null():
    # sigma_g^2 = 1e240 times L = 1e120 overflows the drift term; the
    # second-order bias term is 0 * inf
    inputs = BoundInputs(f_gap=1.0, L=1e120, sigma_l=0.0, sigma_g=1e120, G=1e154,
                         d=1, eta_l=0.1, eta_g=1.0, Q=2, T=10, P=2,
                         bias_sq_sum=0.0)
    out = theorem1_bound(inputs)
    assert out["drift"] is None and out["clipping_bias_sq"] is None
    assert out["total"] is None and out["null_reason"] == "overflows float64"
    assert out["initial_gap"] == 4.0 * 1.0 / (1.0 * 0.1 * 2 * 10)
    json.dumps(out, allow_nan=False)
    at_inf = theorem1_bound(BoundInputs(**{**vars(inputs), "Q": math.inf}))
    assert at_inf["null_reason"] == "not applicable for Q=inf; overflows float64"


def test_bound_terms_whose_square_overflows_are_null():
    # G ** 2 on a float raised OverflowError at G = 1e308; the terms without
    # G keep their bits
    inputs = BoundInputs(f_gap=1.0, L=1.0, sigma_l=0.5, sigma_g=0.5, G=1e308,
                         d=1, eta_l=0.1, eta_g=1.0, Q=2, T=10, P=2,
                         bias_abs_avg=0.25, bias_sq_sum=0.5)
    out = theorem1_bound(inputs)
    assert out["clipping_bias_abs"] is None and out["clipping_bias_sq"] is None
    assert out["total"] is None and out["null_reason"] == "overflows float64"
    finite = theorem1_bound(BoundInputs(**{**vars(inputs), "G": 1.0}))
    for key in ("initial_gap", "drift", "sampling_variance", "privacy_noise"):
        assert out[key] == finite[key] and math.isfinite(out[key])
    json.dumps(out, allow_nan=False)


@pytest.mark.parametrize("f_gap", [1.0, 0.0])
def test_bound_terms_over_a_stepsize_product_that_underflows_are_null(f_gap):
    # eta_g * eta_l = 1e-400 underflows to 0.0: the initial gap over it
    # raised ZeroDivisionError, as 1 / 0 and as 0 / 0; the other terms keep
    # their values
    inputs = BoundInputs(f_gap=f_gap, L=1.0, sigma_l=0.5, sigma_g=0.5, G=1.0,
                         d=1, eta_l=1e-200, eta_g=1e-200, Q=3, T=6, P=9,
                         bias_abs_avg=0.25, bias_sq_sum=0.5)
    out = theorem1_bound(inputs)
    assert out["initial_gap"] is None and out["total"] is None
    assert out["null_reason"] == "divides by a stepsize product that underflows to 0"
    for key in ("drift", "sampling_variance", "privacy_noise", "clipping_bias_abs",
                "clipping_bias_sq"):
        assert math.isfinite(out[key])
    json.dumps(out, allow_nan=False)
    # at Q = inf the product is 0 * inf, NaN
    at_inf = theorem1_bound(BoundInputs(**{**vars(inputs), "Q": math.inf}))
    assert at_inf["initial_gap"] is None and at_inf["total"] is None
    assert at_inf["null_reason"] == ("not applicable for Q=inf; "
                                     "divides by a stepsize product that underflows to 0")
    json.dumps(at_inf, allow_nan=False)


def test_drift_lemma_holds_on_deterministic_runs():
    trace = run([-2.0, 0.0, 2.0], rounds=6, local_steps=4, eta_l=0.02)
    out = drift_check(trace)
    assert out["pass"]
    assert len(out["rows"]) == 6 * 4
    assert all(r["lhs"] <= r["rhs"] + 1e-15 for r in out["rows"])


def reference_drift_rows(trace):
    """The drift lemma's left side, client by client and step by step."""
    cfg, prob = trace.config, trace.problem
    Q, el = int(cfg.local_steps), cfg.eta_l
    out = []
    for t, x0 in enumerate(trace.x[:-1]):
        sq = np.zeros(Q)
        for obj in prob.clients:
            x = np.array(x0, copy=True)
            for q in range(Q):
                sq[q] += float(np.dot(x - x0, x - x0))
                x = x - el * obj.grad(x)
        sq /= prob.n_clients
        out.extend((t, q, float(sq[q])) for q in range(Q))
    return out


def test_drift_check_matches_client_by_client_reference():
    traces = [run([-3.0, -1.0, 0.5, 1.0, 2.0, 2.5, 4.0, 5.0, 7.0], rounds=4,
                  local_steps=5, eta_l=0.03,
                  policy=ClippingPolicy(mode="difference", threshold=0.05))]
    g = rngmod.stream(6, "drift-reference")
    for rows in ((6,) * 9, (4, 7, 5)):  # equal, unequal row counts
        A = [g.normal(size=(n, 3)) for n in rows]
        b = [g.normal(size=n) for n in rows]
        cfg = RunConfig(rounds=3, local_steps=4, n_clients=len(rows),
                        sampled_per_round=2, eta_l=0.01, eta_g=1.0,
                        policy=ClippingPolicy(mode="none"), privacy=NO_PRIVACY,
                        seed=2, x0=g.normal(size=3))
        traces.append(run_experiment(cfg, build_linear_regression_ensemble(A, b)))
    for trace in traces:
        got = [(r["t"], r["q"], r["lhs"]) for r in drift_check(trace)["rows"]]
        assert got == reference_drift_rows(trace)


def test_drift_check_rejects_stochastic_or_exhaustive_runs():
    trace = run([-1.0, 1.0], noise_mode="gaussian")
    with pytest.raises(ValueError):
        drift_check(trace)


def test_update_distribution_shapes_and_angles():
    trace = run([-2.0, 2.0], rounds=3)
    rows = update_distribution(trace)
    assert [row["t"] for row in rows] == [0, 1, 2]
    assert all(len(row["pairs"]) == 2 for row in rows)
    # round 0 has no previous mean update to compare against
    assert all(ang is None for _, ang in rows[0]["pairs"])
    assert all(ang is not None for _, ang in rows[1]["pairs"])
    for row in rows:
        mags = [m for m, _ in row["pairs"]]
        assert row["magnitude_mean"] == pytest.approx(np.mean(mags))
        assert row["magnitude_var"] == pytest.approx(np.var(mags))


def test_opposed_clients_produce_wide_angles():
    # symmetric clients pull in opposite directions: once a mean update
    # exists, one client's angle to it is near 0 and the other near 180
    trace = run([-2.0, 2.0], rounds=3, x0=1.0)
    rows = update_distribution(trace)
    angles = sorted(ang for _, ang in rows[1]["pairs"])
    assert angles[0] < 1.0 and angles[1] > 179.0
