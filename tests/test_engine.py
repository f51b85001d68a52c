"""Tests for the simulation engine: local phases, rounds, and full runs."""

import csv
import dataclasses
import io
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedclip import engine, fixedpoint, rng as rngmod
from fedclip.cli import load_config
from fedclip.clipping import ClippingPolicy, apply_policy, clip, clip_factor, norms
from fedclip.engine import (ALPHA_TILDE_EXACT, DivergenceError, Q_INF, RunConfig,
                            RoundRecord, Trace, alpha_tilde_method, local_phase,
                            local_update, render_record, run_experiment,
                            run_round, sample_clients)
from fedclip.privacy import NoiseSpec, PrivacyConfig, draw_noise
from fedclip.problems import (GradientOracle, LinearRegressionObjective,
                              ScalarQuadratic, StackedOracle,
                              build_linear_regression_ensemble,
                              build_mlp_synthetic_ensemble,
                              build_quadratic_ensemble)
from helpers import record_to_json
from record_golden import DIGESTS, version_mismatch

NO_PRIVACY = PrivacyConfig(enabled=False)


def make_config(**kw):
    base = dict(rounds=1, local_steps=1, n_clients=1, sampled_per_round=1,
                eta_l=0.1, eta_g=1.0, policy=ClippingPolicy(mode="none"),
                privacy=NO_PRIVACY, seed=0, x0=np.array([1.0]))
    base.update(kw)
    return RunConfig(**base)


def test_local_update_hand_values():
    # f(x) = 0.5 x^2, x0 = 1, eta_l = 0.1, Q = 2:
    # x1 = 0.9, x2 = 0.81, gradient sum 1 + 0.9 = 1.9
    obj = ScalarQuadratic(b=0.0)
    x_fin, gsum = local_update(obj, GradientOracle(obj), np.array([1.0]), 2, 0.1)
    np.testing.assert_allclose(x_fin, [0.81])
    np.testing.assert_allclose(gsum, [1.9])
    # invariant: x_final - x_start == -eta_l * gsum
    np.testing.assert_allclose(x_fin - 1.0, -0.1 * gsum)


def test_local_update_exhaustive_reaches_local_minimum():
    obj = ScalarQuadratic(b=3.0)
    x_fin, _ = local_update(obj, GradientOracle(obj), np.array([0.0]), Q_INF, 0.2)
    np.testing.assert_allclose(x_fin, [3.0], atol=1e-10)


def test_one_round_hand_value():
    # x1 = x0 + eta_g * (x_local_final - x0) = 1 + 2 * (0.81 - 1) = 0.62
    ens = build_quadratic_ensemble([0.0])
    cfg = make_config(local_steps=2, eta_g=2.0)
    trace = run_experiment(cfg, ens)
    np.testing.assert_allclose(trace.x[-1], [0.62])


def test_engine_matches_reference_fedavg():
    """Bit-exact agreement with an independently coded FedAvg loop."""
    master = rngmod.stream(100, "ref-configs")
    for trial in range(100):
        N = int(master.integers(2, 5))
        Q = int(master.integers(1, 4))
        T = int(master.integers(1, 5))
        eta_l = float(master.uniform(0.01, 0.3))
        eta_g = float(master.uniform(0.5, 1.5))
        b = master.uniform(-3, 3, size=N)
        mode = ("none", "difference")[trial % 2]
        c = float(master.uniform(0.05, 2.0))
        policy = (ClippingPolicy(mode="none") if mode == "none"
                  else ClippingPolicy(mode="difference", threshold=c))
        ens = build_quadratic_ensemble(b)
        x0 = np.array([float(master.uniform(-2, 2))])
        cfg = make_config(rounds=T, local_steps=Q, n_clients=N,
                          sampled_per_round=N, eta_l=eta_l, eta_g=eta_g,
                          policy=policy, seed=trial, x0=x0)
        trace = run_experiment(cfg, ens)

        x = x0.copy()
        for _ in range(T):
            updates = []
            for bi in b:
                xi = x.copy()
                for _ in range(Q):
                    xi = xi - eta_l * (xi - bi)
                delta = xi - x
                updates.append(delta if mode == "none" else clip(delta, c))
            agg = np.zeros_like(x)
            for u in updates:
                agg += u
            agg /= N
            x = x + eta_g * agg
        np.testing.assert_array_equal(trace.x[-1], x)


def test_single_client_single_step_equals_clipped_gd():
    """N = P = Q = 1 difference clipping is centralized clipped GD."""
    ens = build_quadratic_ensemble([4.0])
    cfg = make_config(rounds=30, policy=ClippingPolicy(mode="difference",
                                                       threshold=0.05),
                      x0=np.array([0.0]))
    trace = run_experiment(cfg, ens)
    x = np.array([0.0])
    for _ in range(30):
        x = x + clip(-0.1 * (x - 4.0), 0.05)
    np.testing.assert_array_equal(trace.x[-1], x)


def test_sampling_with_replacement_properties():
    g = rngmod.stream(0, "sample-test")
    draws = sample_clients(5, 8, g)
    assert len(draws) == 8
    assert np.all(draws[:-1] <= draws[1:])
    assert np.all((0 <= draws) & (draws < 5))
    np.testing.assert_array_equal(sample_clients(1, 3, g), [0, 0, 0])
    with pytest.raises(ValueError):
        sample_clients(0, 1, g)


def test_full_participation_uses_every_client_once():
    ens = build_quadratic_ensemble([-1.0, 0.0, 1.0])
    cfg = make_config(n_clients=3, sampled_per_round=3, rounds=2)
    trace = run_experiment(cfg, ens)
    for rec in trace.records:
        assert rec.sampled == [0, 1, 2]


def test_partial_participation_records_sampled_multiset():
    ens = build_quadratic_ensemble([-1.0, 0.0, 1.0, 2.0])
    cfg = make_config(n_clients=4, sampled_per_round=2, rounds=5)
    trace = run_experiment(cfg, ens)
    for rec in trace.records:
        assert len(rec.sampled) == 2
        assert all(0 <= i < 4 for i in rec.sampled)


# three rows, two unknowns, no exact fit: from a point off every row's
# hyperplane, a minibatch of one row never lets the step fall below the
# stopping tolerance, so the step loop never stops there; at the default step
# cap ``local_phase`` takes the closed form instead
NO_FIT_A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
NO_FIT_B = [np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.0, 3.0])]


def test_local_phase_step_cap_is_a_divergence(monkeypatch):
    # an MLP phase has no closed form, so local_steps: inf runs the step
    # loop, and its minibatch steps stay far above the stopping tolerance
    monkeypatch.setattr("fedclip.engine._LOCAL_MAX_STEPS", 200)
    ens = build_mlp_synthetic_ensemble(hidden_width=2, N=2, samples_per_client=6, seed=1)
    x = np.full(ens.dim, 0.5)
    oracle = StackedOracle(ens, noise_mode="minibatch", batch_size=2,
                           rngs=[rngmod.stream(0, "cap", i) for i in range(2)])
    with pytest.raises(DivergenceError, match="still moving after 200 steps") as err:
        local_phase(oracle, x, Q_INF, 0.1, 5)
    assert err.value.round_index == 5
    # a loop whose steps fall below the tolerance within the cap is
    # unaffected: a bound of 0 on the deterministic start keeps this affine
    # phase out of the closed form, and its steps contract by 0.7 each
    lin = build_linear_regression_ensemble([NO_FIT_A, NO_FIT_A], NO_FIT_B)
    X, _ = local_phase(StackedOracle(lin, grad_bound=0.0), np.array([5.0, -5.0]),
                       Q_INF, 0.3, 5)
    minimizers, _ = lin.local_minimizers(np.array([5.0, -5.0]))
    np.testing.assert_allclose(X, minimizers, atol=1e-10)


def test_gaussian_noise_refuses_local_steps_inf():
    ens = build_quadratic_ensemble([-1.0, 1.0])
    cfg = make_config(n_clients=2, sampled_per_round=2, local_steps=Q_INF,
                      noise_mode="gaussian")
    with pytest.raises(ValueError, match="sigma_l"):
        run_experiment(cfg, dataclasses.replace(ens, sigma_l=0.5))
    # with sigma_l = 0 the gaussian oracle adds nothing and the phases stop
    assert len(run_experiment(cfg, ens).loss) == 1


def test_noise_injection_changes_trajectory_only_when_enabled():
    ens = build_quadratic_ensemble([-1.0, 1.0])
    clean = make_config(rounds=4, n_clients=2, sampled_per_round=2,
                        policy=ClippingPolicy(mode="difference", threshold=0.5))
    noisy = make_config(rounds=4, n_clients=2, sampled_per_round=2,
                        policy=ClippingPolicy(mode="difference", threshold=0.5),
                        privacy=PrivacyConfig(enabled=True, epsilon=0.5,
                                              delta=1e-5))
    t_clean = run_experiment(clean, ens)
    t_noisy = run_experiment(noisy, ens)
    assert t_noisy.noise_spec is not None and t_noisy.noise_spec.sigma2 > 0
    assert not np.array_equal(t_clean.x[-1], t_noisy.x[-1])


def test_privacy_requires_finite_threshold():
    ens = build_quadratic_ensemble([0.0])
    cfg = make_config(privacy=PrivacyConfig(enabled=True))
    with pytest.raises(ValueError):
        run_experiment(cfg, ens)


def test_auto_threshold_two_phase_resolution():
    ens = build_quadratic_ensemble([-2.0, 2.0])
    cfg = make_config(rounds=3, n_clients=2, sampled_per_round=2,
                      policy=ClippingPolicy(mode="difference", threshold="auto",
                                            rho=0.5),
                      x0=np.array([1.0]))
    trace = run_experiment(cfg, ens)
    resolved = trace.config.policy.threshold
    assert isinstance(resolved, float) and resolved > 0
    assert trace.config.policy.finite_threshold == resolved
    # phase 1 is unclipped: threshold equals rho * mean unclipped update norm
    phase1 = run_experiment(make_config(rounds=3, n_clients=2,
                                        sampled_per_round=2,
                                        x0=np.array([1.0])), ens)
    norms = phase1.delta_norms.ravel().tolist()
    assert resolved == pytest.approx(0.5 * np.mean(norms))


def test_divergence_raises():
    ens = build_quadratic_ensemble([0.0])
    cfg = make_config(rounds=50, eta_l=2.5, eta_g=50.0, x0=np.array([1.0]))
    with pytest.raises(DivergenceError):
        run_experiment(cfg, ens)


def test_alpha_tilde_equals_alpha_for_deterministic_oracles():
    ens = build_quadratic_ensemble([-3.0, 3.0])
    cfg = make_config(rounds=4, n_clients=2, sampled_per_round=2,
                      policy=ClippingPolicy(mode="difference", threshold=0.1))
    trace = run_experiment(cfg, ens)
    for rec in trace.records:
        assert rec.alphas == rec.alpha_tildes


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(rounds=0)
    with pytest.raises(ValueError):
        make_config(local_steps=1.5)
    with pytest.raises(ValueError):
        make_config(sampled_per_round=2)  # exceeds n_clients
    with pytest.raises(ValueError):
        make_config(eta_l=0.0)
    # NaN fails every comparison; counts and seeds must be integers, not
    # values that int() would truncate
    for bad in ({"eta_l": math.nan}, {"eta_g": math.inf}, {"x0": np.array([math.nan])},
                {"rounds": 2.7}, {"rounds": True}, {"local_steps": 2.0},
                {"local_steps": math.nan}, {"sampled_per_round": 1.0},
                {"seed": 2.5}, {"seed": "3"}):
        with pytest.raises(ValueError):
            make_config(**bad)
    assert make_config(local_steps=Q_INF, seed=np.int64(-4)).seed == -4
    with pytest.raises(ValueError, match="noise mode"):
        make_config(noise_mode="laplace")
    for batch_size in (None, 0, 2.5, True):
        with pytest.raises(ValueError, match="batch_size"):
            make_config(noise_mode="minibatch", batch_size=batch_size)
    assert make_config(noise_mode="minibatch", batch_size=np.int64(3)).batch_size == 3
    for replay_count in (0, -1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="replay_count"):
            make_config(replay_count=replay_count)
    assert make_config(replay_count=np.int64(1)).replay_count == 1


def test_record_json_is_stable():
    ens = build_quadratic_ensemble([1.0])
    trace = run_experiment(make_config(), ens)
    line = record_to_json(trace.records[0])
    assert line.startswith('{"t":0,"x":[1.0],"sampled":[0],')
    assert '"angles":[null]' in line


def reference_json(record):
    """The record's line as ``json`` encodes it: the encoder ``render_record``
    replaced in ``rounds.jsonl``."""
    obj = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def reference_scatter(record):
    """The record's scatter file as ``csv.writer`` writes it."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["magnitude", "angle_degrees"])
    for mag, ang in zip(record.delta_norms, record.angles):
        w.writerow([mag, "" if ang is None else ang])
    return buf.getvalue()


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, 1e22, 0.1,
               1.7976931348623157e308, 2.2250738585072014e-308, 1.0, 90.0)
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def round_records(draw):
    n = draw(st.integers(1, 12))
    floats = st.lists(FINITE, min_size=n, max_size=n)
    alphas = draw(floats)
    # the realized method shares the alphas list; equal copies and other
    # lists must render the same way
    tildes = draw(st.sampled_from(("same", "copy", "other")))
    if tildes == "same":
        alpha_tildes = alphas
    elif tildes == "copy":
        alpha_tildes = list(alphas)
    else:
        alpha_tildes = draw(floats)
    return RoundRecord(
        t=draw(st.integers(0, 10 ** 6)),
        x=draw(st.lists(FINITE, min_size=1, max_size=4)),
        sampled=draw(st.lists(st.one_of(st.integers(0, 200),
                                        st.integers(-2 ** 80, 2 ** 80),
                                        st.just(10 ** 400)), max_size=n)),
        loss=draw(FINITE), global_grad_norm=draw(FINITE), alpha_bar=draw(FINITE),
        delta_norms=draw(floats), alphas=alphas, alpha_tildes=alpha_tildes,
        angles=draw(st.lists(st.one_of(st.none(), FINITE), min_size=n, max_size=n)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(round_records())
def test_render_record_matches_json_and_csv(record):
    line, scatter = render_record(record)
    assert line == reference_json(record) == record_to_json(record)
    assert scatter == reference_scatter(record)


def test_render_record_matches_json_and_csv_on_a_run():
    # a run's records: the realized alpha~ is the alphas list, and round 0
    # has no angles
    ens = build_quadratic_ensemble([-1.0, 0.5, 2.0])
    cfg = make_config(rounds=3, n_clients=3, sampled_per_round=2, local_steps=2,
                      policy=ClippingPolicy(mode="difference", threshold=0.1))
    for record in run_experiment(cfg, ens).records:
        line, scatter = render_record(record)
        assert line == reference_json(record)
        assert scatter == reference_scatter(record)


def valid_record():
    return RoundRecord(t=3, x=[1.5], sampled=[0, 1], loss=0.25, global_grad_norm=1.0,
                       alpha_bar=0.5, delta_norms=[0.5, 2.0], alphas=[1.0, 0.25],
                       alpha_tildes=[1.0, 0.25], angles=[None, 45.0])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["x", "loss", "global_grad_norm", "alpha_bar",
                                  "delta_norms", "alphas", "alpha_tildes", "angles"])
def test_render_record_refuses_non_finite_floats(name, value):
    record = valid_record()
    old = getattr(record, name)
    setattr(record, name, [*old[:-1], value] if isinstance(old, list) else value)
    with pytest.raises(ValueError):
        reference_json(record)
    with pytest.raises(ValueError, match="JSON compliant"):
        render_record(record)


@pytest.mark.parametrize("name, value", [("x", ["1.5"]), ("sampled", [np.int64(1)]),
                                         ("sampled", [True]), ("loss", "0.25"),
                                         ("angles", [None, [45.0]])])
def test_render_record_refuses_other_types(name, value):
    record = valid_record()
    setattr(record, name, value)
    with pytest.raises(TypeError, match="not JSON serializable"):
        render_record(record)


def reference_round(problem, cfg, x, t, noise_spec=None):
    """One difference-clipped round computed client by client from the
    public single-client pieces, with the engine's stream keys.

    The expected-path factor alpha~ clips eta_l times the gradient sum of a
    noise-free local phase when every client is a quadratic or a linear
    regression, at every Q, and the mean gradient sum of the replays
    otherwise. A linear regression's realized Q_INF phase ends at its
    minimizer nearest x, x + A^+ (b - A x), and draws nothing."""
    c = float(cfg.policy.threshold)
    exact = all(
        isinstance(obj, (ScalarQuadratic, LinearRegressionObjective))
        for obj in problem.clients)

    def oracle(obj, *key):
        return GradientOracle(obj, noise_mode=cfg.noise_mode, sigma_l=problem.sigma_l,
                              batch_size=cfg.batch_size, grad_bound=problem.G,
                              rng=rngmod.stream(cfg.seed, *key))

    deltas, norms, alphas, alpha_tildes, violations = [], [], [], [], 0
    for i, obj in enumerate(problem.clients):
        realized = oracle(obj, "grad", t, i)
        if exact and cfg.local_steps == Q_INF:
            x_fin = x + np.linalg.pinv(obj.A) @ (obj.b - obj.A @ x)
        else:
            x_fin, _ = local_update(obj, realized, x, cfg.local_steps, cfg.eta_l)
        violations += realized.violations
        delta = x_fin - x
        norm = float(np.linalg.norm(delta))
        alpha = c / max(c, norm)
        deltas.append(delta if alpha == 1.0 else delta * alpha)
        norms.append(norm)
        alphas.append(alpha)
        if exact:
            acc = local_update(obj, GradientOracle(obj), x, cfg.local_steps,
                               cfg.eta_l)[1]
        else:
            acc = np.zeros_like(x)
            for r in range(cfg.replay_count):
                acc += local_update(obj, oracle(obj, "replay", t, i, r), x,
                                    cfg.local_steps, cfg.eta_l)[1]
            acc /= cfg.replay_count
        alpha_tildes.append(c / max(c, float(np.linalg.norm(cfg.eta_l * acc))))
    sampled = np.arange(problem.n_clients)
    if cfg.sampled_per_round < problem.n_clients:
        sampled = sample_clients(problem.n_clients, cfg.sampled_per_round,
                                 rngmod.stream(cfg.seed, "sample", t))
    agg = np.zeros_like(x)
    for slot, i in enumerate(sampled):
        agg += deltas[i] + draw_noise(noise_spec, rngmod.stream(cfg.seed, "noise", t, slot))
    agg /= cfg.sampled_per_round
    return agg, x + cfg.eta_g * agg, norms, alphas, alpha_tildes, violations


def linreg_problem(rows, d, seed, consistent=False, g_bound=None, sigma_l=0.0):
    g = rngmod.stream(seed, "batched-linreg")
    A_list = [g.normal(size=(n, d)) for n in rows]
    x_true = [g.normal(size=d) for _ in rows]
    b_list = [A @ xt + (0.0 if consistent else g.normal(size=n))
              for A, xt, n in zip(A_list, x_true, rows)]
    return build_linear_regression_ensemble(A_list, b_list, g_bound=g_bound,
                                            sigma_l=sigma_l)


@pytest.mark.parametrize("rows, d, noise_mode, local_steps, consistent, P", [
    ((6, 6, 6, 6, 6), 3, "minibatch", 3, False, 3),  # stacked matmul path
    ((4, 7, 5, 9), 3, "minibatch", 3, False, 3),     # unequal rows: a stack per row count
    ((6, 6, 6, 6), 3, "gaussian", 4, False, 3),
    ((3, 8, 5), 3, "gaussian", 2, False, 2),
    ((8, 8, 8), 3, "minibatch", Q_INF, True, 3),     # rows stop on different steps
    ((5, 9, 7), 3, "minibatch", Q_INF, True, 3),
    ((5,) * 10, 1, "gaussian", 2, False, 9),         # a pairwise sum of slots would differ
])
def test_batched_round_matches_per_client_reference(rows, d, noise_mode,
                                                    local_steps, consistent, P):
    """Every field of a batched round equals the client-by-client reference
    bit for bit, including oracle-violation counts and the noise-free
    factors alpha~. At Q_INF the engine takes alpha~ from the closed-form
    minimizers where the reference runs each client's noise-free step loop,
    so alpha~ agrees there to 1e-12; the realized phases end at the
    minimizers and draw nothing, so they count no violation."""
    problem = linreg_problem(rows, d, seed=len(rows), consistent=consistent,
                             g_bound=2.0, sigma_l=0.7)
    eta_l = 0.3 / problem.L if local_steps == Q_INF else 0.02
    cfg = make_config(rounds=3, local_steps=local_steps, n_clients=len(rows),
                      sampled_per_round=P, eta_l=eta_l, eta_g=0.9,
                      policy=ClippingPolicy(mode="difference", threshold=0.05),
                      seed=5, x0=np.zeros(d), noise_mode=noise_mode,
                      batch_size=3, replay_count=3)
    spec = NoiseSpec(sigma2=0.01, dim=d)
    x = rngmod.stream(5, "batched-x").normal(size=d)
    trace = Trace.allocate(cfg, problem, spec)
    for t in range(3):  # fresh streams each round
        agg = run_round(x, t, cfg, problem, trace)
        x_next, violations, record = trace.x[t + 1], trace.violations[t], trace.record(t)
        ref_agg, ref_x, norms, alphas, alpha_tildes, ref_violations = reference_round(
            problem, cfg, x, t, noise_spec=spec)
        np.testing.assert_array_equal(agg, ref_agg)
        np.testing.assert_array_equal(x_next, ref_x)
        assert record.delta_norms == norms
        assert record.alphas == alphas
        if local_steps == Q_INF:
            np.testing.assert_allclose(record.alpha_tildes, alpha_tildes,
                                       rtol=0, atol=1e-12)
        else:
            assert record.alpha_tildes == alpha_tildes
        assert violations == ref_violations
        assert (violations > 0) == (local_steps != Q_INF)


def test_mlp_round_replays_match_per_client_reference():
    """On the nonlinear MLP, alpha~ is still the mean of R replays, equal bit
    for bit to replays run client by client on the ("replay", t, i, r)
    streams."""
    problem = build_mlp_synthetic_ensemble(hidden_width=3, N=3, samples_per_client=10,
                                           heterogeneity=0.5, seed=4)
    cfg = make_config(rounds=2, local_steps=2, n_clients=3, sampled_per_round=2,
                      eta_l=0.1, policy=ClippingPolicy(mode="difference", threshold=0.02),
                      seed=6, x0=np.zeros(problem.dim), noise_mode="minibatch",
                      batch_size=3, replay_count=3)
    assert alpha_tilde_method(cfg, problem) == "mean of 3 replays"
    spec = NoiseSpec(sigma2=0.01, dim=problem.dim)
    x = rngmod.stream(6, "mlp-x").normal(0.0, 0.5, size=problem.dim)
    trace = Trace.allocate(cfg, problem, spec)
    for t in range(2):
        agg = run_round(x, t, cfg, problem, trace)
        x_next, violations, record = trace.x[t + 1], trace.violations[t], trace.record(t)
        ref_agg, ref_x, norms, alphas, alpha_tildes, ref_violations = reference_round(
            problem, cfg, x, t, noise_spec=spec)
        np.testing.assert_array_equal(agg, ref_agg)
        np.testing.assert_array_equal(x_next, ref_x)
        assert record.delta_norms == norms
        assert record.alphas == alphas
        assert record.alpha_tildes == alpha_tildes
        assert max(alpha_tildes) < 1.0
        assert violations == ref_violations
        x = x_next


def replay_mean_factors(config, problem, x, t, replays):
    """alpha~ of round t from ``x`` as the mean gradient sum of ``replays``
    local phases on the ("replay", t, i, r) streams."""
    gsum = np.zeros((problem.n_clients, problem.dim))
    for r in range(replays):
        rep = engine._oracle(config, problem, "replay", t, r)
        gsum += local_phase(rep, x, config.local_steps, config.eta_l, t)[1]
    return clip_factor(config.eta_l * gsum / replays, float(config.policy.threshold))


def golden_inf_replays_run():
    cfg = load_config(DIGESTS.parent / "linreg_inf_replays.yaml")
    problem = cfg.build_problem()
    return cfg.build_run_config(problem), problem


def unequal_rows_exact_fit_run():
    problem = linreg_problem((3, 4, 5), 2, seed=11, consistent=True)
    return make_config(
        rounds=3, n_clients=3, sampled_per_round=3, local_steps=Q_INF, eta_l=0.15,
        policy=ClippingPolicy(mode="difference", threshold=0.3), seed=7,
        x0=np.array([2.0, -1.5]), noise_mode="minibatch", batch_size=2), problem


@pytest.mark.parametrize("run, replays", [(golden_inf_replays_run, 32),
                                          (unequal_rows_exact_fit_run, 16)],
                         ids=["golden-linreg-inf-replays", "unequal-rows"])
def test_exact_q_inf_alpha_tilde_matches_the_replay_mean(run, replays):
    """At local_steps: inf the exact alpha~ of affine clients, from each
    client's closed-form minimizer nearest x, agrees with the mean of
    stochastic replayed phases, which all end there."""
    config, problem = run()
    assert alpha_tilde_method(config, problem) == ALPHA_TILDE_EXACT
    trace = run_experiment(config, problem)
    assert trace.alpha_tildes.min() < 1.0
    for t in range(config.rounds):
        np.testing.assert_allclose(
            trace.alpha_tildes[t],
            replay_mean_factors(config, problem, trace.x[t], t, replays),
            rtol=0, atol=1e-10)


def test_a_spurious_stop_gets_the_exact_alpha_tilde():
    """A minibatch step can be zero away from the minimizer: client 0 draws
    its zero-residual row 0 first, where a step loop would stop at its
    start. The realized phase ends at x_0^* = b_0 = (1, 9) instead, where
    alpha~ is taken, so alpha equals alpha~ bit for bit, and both are
    c / max(c, ||x - x_i^*||)."""
    x, c = np.array([1.0, -1.0]), 0.5
    A = np.eye(2)
    problem = build_linear_regression_ensemble(
        [A, A], [np.array([1.0, 9.0]), np.array([3.0, 2.0])])
    seed = next(s for s in range(100)
                if rngmod.stream(s, "grad", 0, 0).integers(0, 2, size=1)[0] == 0)
    cfg = make_config(rounds=1, n_clients=2, sampled_per_round=2, local_steps=Q_INF,
                      eta_l=0.25, policy=ClippingPolicy(mode="difference", threshold=c),
                      seed=seed, x0=x, noise_mode="minibatch", batch_size=1)
    trace = run_experiment(cfg, problem)
    assert trace.alphas[0].tolist() == trace.alpha_tildes[0].tolist()
    assert trace.alphas[0, 0] < 1.0
    minimizers = np.array([[1.0, 9.0], [3.0, 2.0]])
    np.testing.assert_allclose(trace.alpha_tildes[0],
                               c / np.maximum(c, norms(x - minimizers)),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("run", [golden_inf_replays_run, unequal_rows_exact_fit_run],
                         ids=["golden-linreg-inf-replays", "unequal-rows"])
def test_minibatch_affine_q_inf_phases_never_enter_the_step_loop(monkeypatch, run):
    """Minibatch local_steps: inf phases of linear regressions that meet the
    closed-form conditions end at each client's minimizer: the run neither
    enters the step loop nor draws a gradient, counts no violation (the
    golden config's declared G is below some draws), and each alpha equals
    its alpha~ bit for bit."""
    def spy(*args, **kwargs):
        raise AssertionError("the phase ran the step loop or drew a gradient")

    monkeypatch.setattr(engine, "_exhaustive_phase", spy)
    monkeypatch.setattr(StackedOracle, "draw", spy)
    config, problem = run()
    trace = run_experiment(config, problem)
    assert trace.oracle_violations() == 0
    assert trace.alphas.tolist() == trace.alpha_tildes.tolist()
    assert trace.alphas.min() < 1.0


def test_unequal_rows_exact_q_inf_alpha_tilde_runs_no_diverging_phase():
    """Two d = 1 exact-fit clients of unequal row counts: nine rows a = 1 and
    one a = 4, b = 0.5 a; ten rows a = 0.9 and one a = 3.6, b = -0.3 a. The
    realized B = 1 phases converge, but a full-batch step of eta_l = 0.1
    has eta_l lambda = 2.5 and 2.11, where the noise-free step loop
    diverges. alpha~ is c / max(c, |x - x_i^*|) with x_i^* from each
    client's pseudo-inverse, and the run completes (it diverged at round 0)."""
    A = [np.array([1.0] * 9 + [4.0])[:, None], np.array([0.9] * 10 + [3.6])[:, None]]
    b = [0.5 * A[0][:, 0], -0.3 * A[1][:, 0]]
    problem = build_linear_regression_ensemble(A, b)
    c = 0.2
    cfg = make_config(rounds=3, n_clients=2, sampled_per_round=2, local_steps=Q_INF,
                      eta_l=0.1, policy=ClippingPolicy(mode="difference", threshold=c),
                      seed=3, x0=np.array([2.0]), noise_mode="minibatch", batch_size=1)
    assert alpha_tilde_method(cfg, problem) == ALPHA_TILDE_EXACT
    trace = run_experiment(cfg, problem)
    for t in range(cfg.rounds):
        x = trace.x[t]
        minimizers = np.array([x + np.linalg.pinv(Ai) @ (bi - Ai @ x)
                               for Ai, bi in zip(A, b)])
        expected = c / np.maximum(c, norms(x - minimizers))
        assert trace.alpha_tildes[t].tolist() == expected.tolist()


def chained_rounds(trace):
    """A new trace of ``trace``'s run, filled by ``run_round`` of each round
    from the last one's iterate and mean transmitted update, chained by
    hand."""
    hand = Trace.allocate(trace.config, trace.problem, trace.noise_spec)
    x, prev = trace.config.x0, None
    for t in range(trace.config.rounds):
        prev = run_round(x, t, trace.config, trace.problem, hand, prev_update=prev)
        x = hand.x[t + 1]
    return hand


def quadratic_auto_dp_run():
    cfg = make_config(rounds=4, n_clients=6, sampled_per_round=3, local_steps=3,
                      eta_l=0.1, seed=3,
                      policy=ClippingPolicy(mode="difference", threshold="auto"),
                      privacy=PrivacyConfig(enabled=True, epsilon=1.5, delta=1e-5))
    return cfg, build_quadratic_ensemble([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])


def linreg_minibatch_run():
    problem = linreg_problem((6, 6, 6), 3, seed=3, sigma_l=0.5)
    return make_config(
        rounds=3, n_clients=3, sampled_per_round=2, local_steps=3, eta_l=0.02,
        policy=ClippingPolicy(mode="difference", threshold=0.05), seed=4,
        x0=np.zeros(3), noise_mode="minibatch", batch_size=3), problem


def mlp_replays_run():
    problem = build_mlp_synthetic_ensemble(hidden_width=3, N=3, samples_per_client=10,
                                           heterogeneity=0.5, seed=4)
    return make_config(
        rounds=2, n_clients=3, sampled_per_round=2, local_steps=2, eta_l=0.1,
        policy=ClippingPolicy(mode="difference", threshold=0.02), seed=6,
        x0=np.zeros(problem.dim), noise_mode="minibatch", batch_size=3,
        replay_count=2), problem


def q_inf_exact_run():
    problem = linreg_problem((8, 8, 8), 3, seed=3, consistent=True)
    return make_config(
        rounds=2, n_clients=3, sampled_per_round=3, local_steps=Q_INF,
        eta_l=0.3 / problem.L, policy=ClippingPolicy(mode="difference", threshold=0.05),
        seed=5, x0=np.zeros(3), noise_mode="minibatch", batch_size=3), problem


def q_inf_deterministic_run():
    ens = build_linear_regression_ensemble(
        [np.array([[1.0]]), np.array([[2.0]]), np.array([[6.0]])],
        [np.array([4.0]), np.array([1.0]), np.array([-1.0])])
    return make_config(
        rounds=3, n_clients=3, sampled_per_round=3, local_steps=Q_INF, eta_l=0.05,
        policy=ClippingPolicy(mode="difference", threshold=1.0)), ens


@pytest.mark.parametrize("run, method", [
    (quadratic_auto_dp_run, engine.ALPHA_TILDE_REALIZED),
    (linreg_minibatch_run, ALPHA_TILDE_EXACT),
    (mlp_replays_run, "mean of 2 replays"),
    (q_inf_exact_run, ALPHA_TILDE_EXACT),
    (q_inf_deterministic_run, engine.ALPHA_TILDE_REALIZED),
], ids=["quadratic-auto-dp", "linreg-minibatch-exact", "mlp-replays",
        "q-inf-exact", "q-inf-deterministic"])
def test_hand_chained_trace_equals_run_experiment_trace(run, method):
    """A trace filled by chaining ``run_round`` by hand equals
    ``run_experiment``'s, column for column, and so do its records."""
    trace = run_experiment(*run())
    assert alpha_tilde_method(trace.config, trace.problem) == method
    realized = method == engine.ALPHA_TILDE_REALIZED
    assert (trace.alpha_tildes is trace.alphas) == realized
    hand = chained_rounds(trace)
    assert (hand.alpha_tildes is hand.alphas) == realized
    for f in dataclasses.fields(Trace):
        column = getattr(trace, f.name)
        if isinstance(column, np.ndarray):
            np.testing.assert_array_equal(getattr(hand, f.name), column, strict=True)
    for t in range(trace.config.rounds):
        record = trace.record(t)
        assert record == hand.record(t)
        assert (record.alpha_tildes is record.alphas) == realized
        assert (record.angles == [None] * trace.config.n_clients) == (t == 0)
    assert trace.records == [trace.record(t) for t in range(trace.config.rounds)]


@pytest.mark.parametrize("b, x0, angles", [
    # the updates of round 0 cancel, so round 1 has a zero reference
    ([-1.0, 0.0, 1.0], 0.0, [[None] * 3, [None] * 3]),
    # round 0 lands on the optimum 0.75 of clients 0 and 2: their round-1
    # updates are zero, and client 1's has the reference's direction
    ([0.75, 0.0, 0.75], 1.0, [[None] * 3, [None, 0.0, None]]),
])
def test_angles_are_null_without_a_reference_and_on_zero_updates(b, x0, angles):
    cfg = make_config(rounds=2, n_clients=3, sampled_per_round=3, eta_l=0.5,
                      x0=np.array([x0]))
    trace = run_experiment(cfg, build_quadratic_ensemble(b))
    hand = chained_rounds(trace)
    for t in range(trace.config.rounds):
        record = trace.record(t)
        assert record == hand.record(t)
        assert record.angles == angles[t]


def test_a_nan_angle_is_not_written_as_null():
    cfg = make_config(rounds=2, n_clients=3, sampled_per_round=3, eta_l=0.5)
    trace = run_experiment(cfg, build_quadratic_ensemble([0.75, 0.0, 0.75]))
    trace.angles[1, 1] = math.nan
    angles = trace.record(1).angles
    assert angles[0] is None and math.isnan(angles[1])
    with pytest.raises(ValueError, match="JSON compliant"):
        render_record(trace.record(1))


def slot_by_slot_aggregate(problem, cfg, x, t, noise_spec=None):
    """Round t's mean transmitted update, added slot by slot to a zero
    vector, each slot's row plus its own ("noise", t, slot) draw under
    privacy; and the round's sampled slots and transmitted rows."""
    X, _ = local_phase(engine._oracle(cfg, problem, "grad", t), x, cfg.local_steps,
                       cfg.eta_l, t)
    transmitted, _ = apply_policy(cfg.policy, X, x)
    if cfg.policy.mode == "model":
        transmitted = transmitted - x
    N, P = cfg.n_clients, cfg.sampled_per_round
    sampled = (np.arange(N) if P == N else
               sample_clients(N, P, rngmod.stream(cfg.seed, "sample", t)))
    agg = np.zeros_like(x)
    for slot, i in enumerate(sampled):
        v = transmitted[i]
        if noise_spec is not None:
            v = v + draw_noise(noise_spec, rngmod.stream(cfg.seed, "noise", t, slot))
        agg += v
    agg /= P
    return agg, sampled, transmitted


@pytest.mark.parametrize("case", ["repeated-slots", "model-clipping",
                                  "negative-zero-rows", "private"])
def test_aggregate_equals_the_slot_by_slot_sum(case):
    """``run_round``'s aggregate equals the slot-by-slot sum bit for bit, the
    sign of every zero included: over slots that repeat a client, under
    model clipping, on rows that are all -0.0 (a factor c / ||delta|| that
    underflows to 0 times a negative update; the loop's sum is +0.0), and
    with each slot's noise from its own stream."""
    problem = build_quadratic_ensemble([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
    kw = dict(rounds=3, n_clients=6, sampled_per_round=5, local_steps=2, eta_l=0.1,
              policy=ClippingPolicy(mode="difference", threshold=0.05), seed=2)
    spec = None
    if case == "model-clipping":
        problem = linreg_problem((4, 4, 4, 4), 3, seed=1)
        kw.update(n_clients=4, sampled_per_round=3, x0=np.zeros(3),
                  policy=ClippingPolicy(mode="model", threshold=0.5))
    elif case == "negative-zero-rows":
        problem = build_quadratic_ensemble([-10.0, -20.0, -30.0])
        kw.update(n_clients=3, sampled_per_round=3, eta_l=0.5,
                  policy=ClippingPolicy(mode="difference", threshold=5e-324))
    elif case == "private":
        spec = NoiseSpec(sigma2=0.01, dim=1)
    cfg = make_config(**kw)
    trace = Trace.allocate(cfg, problem, spec)
    x, repeats = np.zeros(problem.dim), 0
    for t in range(cfg.rounds):
        ref, sampled, transmitted = slot_by_slot_aggregate(problem, cfg, x, t, spec)
        agg = run_round(x, t, cfg, problem, trace)
        assert (agg == ref).all()
        assert (np.signbit(agg) == np.signbit(ref)).all()
        np.testing.assert_array_equal(trace.x[t + 1], x + cfg.eta_g * ref, strict=True)
        repeats += len(set(sampled.tolist())) < len(sampled)
        if case == "negative-zero-rows":
            assert (transmitted == 0.0).all() and np.signbit(transmitted).all()
            assert (ref == 0.0).all() and not np.signbit(ref).any()
        x = trace.x[t + 1]
    assert repeats > 0 or case == "negative-zero-rows"


def test_a_noise_free_round_makes_few_python_calls():
    """One noise-free round of the table1 grid's (Q = 1, c = 1) cell makes at
    most 50 Python-level calls (``sys.setprofile`` "call" events; numpy's
    Python wrappers count). numpy's wrappers change between versions, so the
    count is checked only under the Python and numpy that the golden digests
    were recorded with."""
    reason = version_mismatch(json.loads(DIGESTS.read_text()))
    if reason:
        pytest.skip(f"call count pinned to the golden versions: {reason}")
    cfg = RunConfig(rounds=2, local_steps=1, n_clients=3, sampled_per_round=3,
                    eta_l=0.02, eta_g=1.0,
                    policy=ClippingPolicy(mode="difference", threshold=0.02),
                    privacy=NO_PRIVACY, seed=0, x0=np.array([1.0]))
    problem = fixedpoint.eq7_ensemble()
    trace = Trace.allocate(cfg, problem)
    prev = run_round(cfg.x0, 0, cfg, problem, trace)
    run_round(trace.x[1], 1, cfg, problem, trace, prev)  # warm
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run_round(trace.x[1], 1, cfg, problem, trace, prev)
    finally:
        sys.setprofile(None)
    assert trace.referenced[1]  # the round computed its angles
    assert len(calls) <= 50, calls


@pytest.mark.parametrize("problem_kind, noise_mode", [
    ("linear_regression", "minibatch"),
    ("linear_regression", "gaussian"),
    ("quadratic", "gaussian"),
])
def test_exact_alpha_tilde_within_monte_carlo_error(problem_kind, noise_mode):
    """The engine's exact alpha~ lies within Monte Carlo error of the mean
    gradient sum of R = 2000 replays on the ("replay", t, i, r) streams.

    |‖m̂‖ - ‖m‖| <= ‖m̂ - m‖, whose root mean square is the standard error
    sqrt(trace(Cov) / R) of the mean m̂; alpha~ = c / max(c, eta_l ‖m‖) falls
    as ‖m‖ grows, so a band of four standard errors around eta_l ‖m̂‖ maps to
    a band of factors that must hold the exact one."""
    if problem_kind == "linear_regression":
        problem = linreg_problem((8, 8, 8), 3, seed=11, sigma_l=0.5)
    else:
        problem = dataclasses.replace(build_quadratic_ensemble([-2.0, 0.5, 3.0]),
                                      sigma_l=0.5)
    d, R, t, c = problem.dim, 2000, 1, 0.02
    cfg = make_config(rounds=2, local_steps=3, n_clients=3, sampled_per_round=3,
                      eta_l=0.05, policy=ClippingPolicy(mode="difference", threshold=c),
                      seed=8, x0=np.zeros(d), noise_mode=noise_mode, batch_size=4)
    assert alpha_tilde_method(cfg, problem) == ALPHA_TILDE_EXACT
    x = rngmod.stream(8, "mc-x").normal(size=d)
    trace = Trace.allocate(cfg, problem)
    run_round(x, t, cfg, problem, trace)
    exact = trace.record(t).alpha_tildes
    for i, obj in enumerate(problem.clients):
        sums = np.array([
            local_update(obj, GradientOracle(
                obj, noise_mode=noise_mode, sigma_l=problem.sigma_l, batch_size=4,
                rng=rngmod.stream(cfg.seed, "replay", t, i, r)), x, 3, cfg.eta_l)[1]
            for r in range(R)])
        assert sums.var(axis=0).sum() > 0  # the replays do differ
        norm = cfg.eta_l * np.linalg.norm(sums.mean(axis=0))
        band = 4 * cfg.eta_l * np.sqrt(sums.var(axis=0, ddof=1).sum() / R)
        low, high = c / max(c, norm + band), c / max(c, norm - band)
        assert low <= exact[i] <= high
        assert high < 1.0 and high - low < 0.2 * exact[i]


class CountingOracle(GradientOracle):
    steps = 0

    def sample(self, x):
        self.steps += 1
        self.last = super().sample(x)
        return self.last


def test_exhaustive_local_phase_stops_each_row_on_its_own_step():
    problem = linreg_problem((4, 4, 4), 2, seed=9, consistent=True)
    x, eta_l = np.array([3.0, -2.0]), 0.1 / problem.L
    # the step loop itself: local_phase takes the closed form here
    X, gsum = engine._exhaustive_phase(StackedOracle(problem), x, eta_l, 0)
    steps = set()
    for i, obj in enumerate(problem.clients):
        oracle = CountingOracle(obj)
        x_fin, ref_gsum = local_update(obj, oracle, x, Q_INF, eta_l)
        np.testing.assert_array_equal(X[i], x_fin)
        np.testing.assert_array_equal(gsum[i], ref_gsum)
        steps.add(oracle.steps)
    assert len(steps) == 3 and max(steps) < 10 ** 6


def test_stopped_rows_do_not_count_violations():
    """In the step loop, a row that stopped keeps drawing (unused)
    minibatches while others run; those draws must not count as violations.
    Client 0 stops on its first step when it draws its zero-residual row 0;
    its row 1 would give a gradient over the bound."""
    x = np.array([1.0, -1.0])
    A = np.eye(2)
    problem = build_linear_regression_ensemble(
        [A, A], [np.array([1.0, 9.0]), np.array([3.0, 2.0])], g_bound=1.0)
    seed = next(s for s in range(100)
                if rngmod.stream(s, "grad", 0, 0).integers(0, 2, size=1)[0] == 0)
    keys = [(seed, "grad", 0, i) for i in range(2)]
    oracle = StackedOracle(problem, noise_mode="minibatch", batch_size=1,
                           rngs=[rngmod.stream(*k) for k in keys], grad_bound=1.0)
    X, _ = engine._exhaustive_phase(oracle, x, 0.25, 0)
    violations = 0
    for i, (obj, key) in enumerate(zip(problem.clients, keys)):
        ref = CountingOracle(obj, noise_mode="minibatch", batch_size=1,
                             rng=rngmod.stream(*key), grad_bound=1.0)
        x_fin, _ = local_update(obj, ref, x, Q_INF, 0.25)
        np.testing.assert_array_equal(X[i], x_fin)
        violations += ref.violations
        if i == 0:
            assert ref.steps == 1
    assert oracle.violations == violations


class RecordingOracle(StackedOracle):
    """Counts its draws, and records for each step of a local_steps: inf
    phase which draws were over the bound and which rows were running."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.draws = 0
        self.steps = []

    def draw(self, X, out=None):
        self.draws += 1
        return super().draw(X, out)

    def count_violations(self, G, running=None):
        if self.grad_bound is not None:
            # a copy: the step loop's mask changes in place
            self.steps.append((norms(G) > self.grad_bound, np.copy(running)))
        super().count_violations(G, running)


def test_divergence_inside_a_block_matches_the_reference():
    """Two rows of the step loop diverge; the error names the row that
    fails on the earlier step, with its norm there. |1 - eta_l a^2| is 2
    for a = 2 and 1.43 for a = 1.8: row 2 passes the limit on step 40, row 0
    later; row 1 stops on its own before either."""
    problem = build_linear_regression_ensemble(
        [np.array([[a]]) for a in (1.8, 1.0, 2.0)],
        [np.array([b]) for b in (0.5, 1.0, 0.0)])
    x, eta_l = np.array([1.0]), 0.75
    with pytest.raises(DivergenceError) as err:
        engine._exhaustive_phase(StackedOracle(problem), x, eta_l, 4)
    refs = []
    for obj in problem.clients:
        oracle = CountingOracle(obj)
        try:
            local_update(obj, oracle, x, Q_INF, eta_l)
            refs.append((oracle.steps, None))
        except DivergenceError as ref:
            refs.append((oracle.steps, ref))
    (steps0, ref0), (steps1, ref1), (steps2, ref2) = refs
    assert ref1 is None and steps1 < steps2 < steps0
    assert ref0 is not None and ref2 is not None
    assert err.value.round_index == 4
    assert err.value.norm == ref2.norm
    assert str(err.value) == str(ref2).replace("round -1", "round 4")


def test_step_cap_inside_a_block_matches_the_reference(monkeypatch):
    """Under a cap of 200 steps the step loop draws 200 steps and names the
    largest last step of a row still moving, as the reference's 200th steps
    give it."""
    monkeypatch.setattr("fedclip.engine._LOCAL_MAX_STEPS", 200)
    ens = build_linear_regression_ensemble([NO_FIT_A, NO_FIT_A], NO_FIT_B)
    keys = [(0, "cap", i) for i in range(2)]
    oracle = RecordingOracle(ens, noise_mode="minibatch", batch_size=1,
                             rngs=[rngmod.stream(*k) for k in keys])
    x, eta_l = np.array([5.0, -5.0]), 0.1
    with pytest.raises(DivergenceError, match="still moving after 200 steps") as err:
        engine._exhaustive_phase(oracle, x, eta_l, 5)
    moving = []  # last step norms of the rows still moving after 200 steps
    for obj, key in zip(ens.clients, keys):
        ref = CountingOracle(obj, noise_mode="minibatch", batch_size=1,
                             rng=rngmod.stream(*key))
        local_update(obj, ref, x, Q_INF, eta_l)
        last = float(np.linalg.norm(eta_l * ref.last))
        if ref.steps == 200 and last > 1e-12:
            moving.append(last)
    assert moving and oracle.draws == 200
    assert err.value.round_index == 5 and err.value.norm == max(moving)


def test_rows_stopping_at_a_block_boundary_match_the_reference():
    """Rows stop on steps 63, 64 and 100 of the step loop; every row equals
    its single-client phase."""
    eta_l, x = 0.2, np.zeros(1)
    targets = [63, 64, 100]
    # from x = 0, step k of minimizer b has norm eta_l * b * (1 - eta_l)^(k - 1):
    # it falls below 1e-12 on step k for b half a step past the threshold
    b = [1e-12 / eta_l * (1 - eta_l) ** -(k - 1.5) for k in targets]
    problem = build_quadratic_ensemble(b)
    # the step loop itself: local_phase takes the closed form here
    X, gsum = engine._exhaustive_phase(StackedOracle(problem), x, eta_l, 0)
    for i, obj in enumerate(problem.clients):
        oracle = CountingOracle(obj)
        x_fin, ref_gsum = local_update(obj, oracle, x, Q_INF, eta_l)
        assert oracle.steps == targets[i]
        assert X[i].tolist() == x_fin.tolist()
        assert gsum[i].tolist() == ref_gsum.tolist()


def test_stopped_rows_over_the_bound_across_a_block_boundary_are_not_counted():
    """In the step loop, client 0 stops on step 4 on a zero step (it draws
    its zero-residual row 0); its later draws of row 1 are over the bound
    but not counted. Client 1 runs on for many steps."""
    x, eta_l = np.array([1.0, -1.0]), 0.25
    A = np.eye(2)
    problem = build_linear_regression_ensemble(
        [A, A], [np.array([1.0, 9.0]), np.array([3.0, 2.0])], g_bound=1.0)
    keys = [(11, "grad", 0, i) for i in range(2)]
    oracle = RecordingOracle(problem, noise_mode="minibatch", batch_size=1,
                             rngs=[rngmod.stream(*k) for k in keys], grad_bound=1.0)
    X, gsum = engine._exhaustive_phase(oracle, x, eta_l, 0)
    violations, steps = 0, []
    for i, (obj, key) in enumerate(zip(problem.clients, keys)):
        ref = CountingOracle(obj, noise_mode="minibatch", batch_size=1,
                             rng=rngmod.stream(*key), grad_bound=1.0)
        x_fin, ref_gsum = local_update(obj, ref, x, Q_INF, eta_l)
        assert X[i].tolist() == x_fin.tolist()
        assert gsum[i].tolist() == ref_gsum.tolist()
        violations += ref.violations
        steps.append(ref.steps)
    assert steps[0] == 4 and steps[1] > 8
    assert [running[0] for _, running in oracle.steps] == [True] * 4 + [False] * (steps[1] - 4)
    assert sum(over[0] and not running[0] for over, running in oracle.steps) > 0
    assert oracle.violations == violations > 0


def test_mlp_replay_run_peaks_below_twice_one_full_batch_gradient():
    """An MLP run with alpha~ from replays, at the mlp-build-replay
    benchmark's shape (h = 32, N = 8, n = 50, C = 4, minibatch B = 16,
    Q = 2, four sampled slots), peaks below twice one full-batch
    ``client_grads`` call (tracemalloc). It was 2.1 times while each local
    step allocated a gradient stack and a step stack, and the round's final
    iterates, gradient sums and transmitted stack stayed alive through the
    replays; it is 1.55 times now."""
    problem = build_mlp_synthetic_ensemble(hidden_width=32, N=8, samples_per_client=50,
                                           heterogeneity=0.5, seed=1, n_classes=4)
    x0 = rngmod.stream(1, "mlp-run-memory").normal(0.0, 0.5, size=problem.dim)
    cfg = RunConfig(rounds=2, local_steps=2, n_clients=8, sampled_per_round=4,
                    eta_l=0.05, eta_g=1.0,
                    policy=ClippingPolicy(mode="difference", threshold=0.5),
                    privacy=NO_PRIVACY, seed=1, x0=x0, noise_mode="minibatch",
                    batch_size=16)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_experiment(cfg, problem)  # the first run's one-time allocations are not measured
    one_call = peak(lambda: problem.client_grads(x0))
    run = peak(lambda: run_experiment(cfg, problem))
    assert run <= 2.0 * one_call, (run, one_call)


def test_mlp_replay_round_peaks_below_1_35_full_batch_gradients():
    """One MLP round with alpha~ from replays, at the mlp-build-replay
    benchmark's shape and with a previous update (so it forms angles), peaks
    below 1.35 times one full-batch ``client_grads`` call (tracemalloc). It
    was 1.44 times while the (N, d) update stack stayed alive through the
    replays; it is 1.27 times now."""
    problem = build_mlp_synthetic_ensemble(hidden_width=32, N=8, samples_per_client=50,
                                           heterogeneity=0.5, seed=1, n_classes=4)
    x0 = rngmod.stream(1, "mlp-round-memory").normal(0.0, 0.5, size=problem.dim)
    cfg = RunConfig(rounds=2, local_steps=2, n_clients=8, sampled_per_round=4,
                    eta_l=0.05, eta_g=1.0,
                    policy=ClippingPolicy(mode="difference", threshold=0.5),
                    privacy=NO_PRIVACY, seed=1, x0=x0, noise_mode="minibatch",
                    batch_size=16)
    trace = Trace.allocate(cfg, problem)
    prev = run_round(x0, 0, cfg, problem, trace)
    run_round(trace.x[1], 1, cfg, problem, trace, prev)  # one-time allocations

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_call = peak(lambda: problem.client_grads(x0))
    round_peak = peak(lambda: run_round(trace.x[1], 1, cfg, problem, trace, prev))
    assert trace.referenced[1]
    assert round_peak <= 1.35 * one_call, (round_peak, one_call)


def random_affine_problem(kind, seed):
    """A random quadratic, equal-row ("linear") or unequal-row ("unequal")
    linear-regression federation; the linear ones include rank-deficient
    clients: fewer rows than unknowns, and a repeated column. The unequal
    rows have a one-row client, and two clients share a row count."""
    g = rngmod.stream(seed, "closed-form")
    if kind == "quadratic":
        return build_quadratic_ensemble(g.normal(0.0, 3.0, size=4).tolist())
    if kind == "unequal":
        rows, d = (5, 1, 2, 5), 3
    else:
        rows, d = ((2,) if seed % 2 else (5,)) * 4, 3
    A_list = [g.normal(size=(n, d)) for n in rows]
    A_list[0][:, 2] = A_list[0][:, 0]
    return build_linear_regression_ensemble(A_list, [g.normal(size=n) for n in rows])


@pytest.mark.parametrize("kind, seed", [("quadratic", 1), ("quadratic", 2),
                                        ("linear", 1), ("linear", 2),
                                        ("linear", 3), ("linear", 4),
                                        ("unequal", 1), ("unequal", 2)])
def test_closed_form_phase_matches_the_step_loop(kind, seed):
    """A deterministic local_steps: inf phase on affine clients draws
    nothing from its oracle and returns each client's minimizer nearest the
    start, within the loop's stopping tolerance of where the step loop
    stops; the part of the start in a client's null space stays."""
    problem = random_affine_problem(kind, seed)
    x = rngmod.stream(seed, "closed-form-x").normal(0.0, 2.0, size=problem.dim)
    eta_l = 1.0 / problem.L
    oracle = RecordingOracle(problem, grad_bound=problem.G)
    X, gsum = local_phase(oracle, x, Q_INF, eta_l, 0)
    assert oracle.draws == 0 and oracle.violations == 0
    loop_X, _ = engine._exhaustive_phase(StackedOracle(problem), x, eta_l, 0)
    np.testing.assert_allclose(X, loop_X, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(gsum, (x - X) / eta_l)
    for obj, row in zip(problem.clients, X):
        assert np.linalg.norm(obj.grad(row)) < 1e-12
        if kind != "quadratic":  # the step from x lies in A_i's row space
            null = np.eye(problem.dim) - np.linalg.pinv(obj.A) @ obj.A
            np.testing.assert_allclose(null @ (row - x), 0.0, atol=1e-12)


def test_closed_form_is_exact_on_quadratics():
    problem = build_quadratic_ensemble([4.0, 0.5, -1.0 / 6.0])
    X, _ = local_phase(StackedOracle(problem), np.array([0.3]), Q_INF, 0.05, 0)
    assert X[:, 0].tolist() == [4.0, 0.5, -1.0 / 6.0]


def test_pseudo_inverses_are_computed_once_on_first_use():
    problem = random_affine_problem("unequal", 1)
    assert problem._spectrum is None  # not at build time
    x = np.zeros(problem.dim)
    local_phase(StackedOracle(problem), x, Q_INF, 0.5 / problem.L, 0)
    spectrum = problem._spectrum
    assert spectrum is not None
    local_phase(StackedOracle(problem), x + 1.0, Q_INF, 0.5 / problem.L, 1)
    assert problem._spectrum is spectrum
    np.testing.assert_allclose(spectrum[1].max(), problem.L, rtol=1e-12)
    # the one-row client's single eigenvalue, padded with zeros to min(5, 3)
    assert spectrum[1].shape == (4, 3) and spectrum[1][1, 1:].tolist() == [0.0, 0.0]


def test_rows_that_stop_on_their_first_step_take_that_step():
    """A row whose first step is at most 1e-12 ends after it, bit for bit
    as the loop does, not at its minimizer; the other rows reach theirs."""
    x, eta_l = np.array([1.0]), 0.1
    problem = build_quadratic_ensemble([1.0 + 2 ** -45, 3.0])
    X, _ = local_phase(StackedOracle(problem), x, Q_INF, eta_l, 0)
    first, _ = local_update(problem.clients[0], GradientOracle(problem.clients[0]),
                            x, Q_INF, eta_l)
    assert X[0].tolist() == first.tolist() != [1.0 + 2 ** -45]
    assert X[1].tolist() == [3.0]


def test_a_start_over_the_gradient_bound_takes_the_loop():
    """One row starts with a gradient over G: the phase runs the step loop,
    bit for bit as each client's step loop, and counts its violations."""
    A = [np.array([[1.0, 0.0], [0.5, 1.0]]), np.array([[2.0, 0.3], [0.0, 0.7]])]
    b = [np.array([0.5, -0.2]), np.array([1.0, 0.4])]
    problem = build_linear_regression_ensemble(A, b, g_bound=1.0)
    x, eta_l = np.array([1.0, -1.0]), 0.2
    oracle = RecordingOracle(problem, grad_bound=1.0)
    X, gsum = local_phase(oracle, x, Q_INF, eta_l, 0)
    assert oracle.draws > 1
    violations = 0
    for i, obj in enumerate(problem.clients):
        ref = GradientOracle(obj, grad_bound=1.0)
        x_fin, ref_gsum = local_update(obj, ref, x, Q_INF, eta_l)
        assert X[i].tolist() == x_fin.tolist()
        assert gsum[i].tolist() == ref_gsum.tolist()
        violations += ref.violations
    assert oracle.violations == violations > 0


def test_a_slow_contraction_takes_the_loop_under_a_small_step_cap(monkeypatch):
    """At eta_l = 0.01 a quadratic's steps shrink by 0.99 a step: they need
    about 2,300 steps to fall below 1e-12. Under a cap of 200 the phase runs
    the loop and is still moving; under the default cap it is exact."""
    problem = build_quadratic_ensemble([1.0, -1.0])
    x = np.array([0.0])
    monkeypatch.setattr("fedclip.engine._LOCAL_MAX_STEPS", 200)
    oracle = RecordingOracle(problem)
    with pytest.raises(DivergenceError, match="still moving after 200 steps") as err:
        local_phase(oracle, x, Q_INF, 0.01, 3)
    assert err.value.round_index == 3 and oracle.draws == 200
    monkeypatch.undo()
    X, _ = local_phase(StackedOracle(problem), x, Q_INF, 0.01, 3)
    assert X[:, 0].tolist() == [1.0, -1.0]


@pytest.mark.parametrize("eta_l", [2.0, 2.5])
def test_a_step_too_long_to_converge_takes_the_loop(monkeypatch, eta_l):
    """At eta_l >= 2 / lambda_max the loop never converges: it oscillates
    (eta_l = 2) or diverges, and the phase still raises."""
    monkeypatch.setattr("fedclip.engine._LOCAL_MAX_STEPS", 200)
    problem = build_quadratic_ensemble([1.0, -1.0])
    with pytest.raises(DivergenceError, match="still moving" if eta_l == 2.0
                       else "exceeded"):
        local_phase(StackedOracle(problem), np.array([0.0]), Q_INF, eta_l, 0)


def test_closed_form_reaches_a_minimizer_where_the_loop_stalls(monkeypatch):
    """A few ulps from b = 1e5, each step of 0.05 (x - b) is above 1e-12
    but rounds back to the same iterate, so the step loop never stops. The
    closed form returns b."""
    monkeypatch.setattr("fedclip.engine._LOCAL_MAX_STEPS", 5000)
    problem = build_quadratic_ensemble([1e5])
    x = np.array([0.0])
    with pytest.raises(DivergenceError, match="still moving after 5000 steps"):
        engine._exhaustive_phase(StackedOracle(problem), x, 0.05, 0)
    X, _ = local_phase(StackedOracle(problem), x, Q_INF, 0.05, 0)
    assert X.tolist() == [[1e5]]


@pytest.mark.parametrize("b, x, eta_l", [
    (1e13, 0.0, 0.5),        # the minimizer itself is past the limit
    (-9e11, 9e11, 1.9),      # both ends within it, but the first step overshoots
])
def test_a_path_past_the_divergence_limit_takes_the_loop(b, x, eta_l):
    """Where ||x*|| + ||x - x*|| exceeds the divergence limit, the phase runs
    the loop and raises its error: the first iterate past the limit."""
    problem = build_quadratic_ensemble([b])
    with pytest.raises(DivergenceError) as err:
        local_phase(StackedOracle(problem), np.array([x]), Q_INF, eta_l, 2)
    with pytest.raises(DivergenceError) as ref:
        local_update(problem.clients[0], GradientOracle(problem.clients[0]),
                     np.array([x]), Q_INF, eta_l)
    assert err.value.norm == ref.value.norm
    assert str(err.value) == str(ref.value).replace("round -1", "round 2")
