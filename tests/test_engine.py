"""Tests for the simulation engine: local phases, rounds, and full runs."""

import csv
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedclip import engine, rng as rngmod
from fedclip.clipping import ClippingPolicy, clip, norms
from fedclip.engine import (ALPHA_TILDE_EXACT, DivergenceError, Q_INF, RunConfig,
                            RoundRecord, Trace, alpha_tilde_method, local_phase,
                            local_update, record_to_json, render_record,
                            run_experiment, run_round, sample_clients)
from fedclip.privacy import NoiseSpec, PrivacyConfig, draw_noise
from fedclip.problems import (GradientOracle, LinearRegressionObjective,
                              ScalarQuadratic, StackedOracle,
                              build_linear_regression_ensemble,
                              build_mlp_synthetic_ensemble,
                              build_quadratic_ensemble)

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
# stopping tolerance
NO_FIT_A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
NO_FIT_B = [np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.0, 3.0])]


def test_local_phase_step_cap_is_a_divergence(monkeypatch):
    monkeypatch.setattr("fedclip.engine._LOCAL_MAX_STEPS", 200)
    ens = build_linear_regression_ensemble([NO_FIT_A, NO_FIT_A], NO_FIT_B)
    oracle = StackedOracle(ens, noise_mode="minibatch", batch_size=1,
                           rngs=[rngmod.stream(0, "cap", i) for i in range(2)])
    with pytest.raises(DivergenceError, match="still moving after 200 steps") as err:
        local_phase(oracle, np.array([5.0, -5.0]), Q_INF, 0.1, 5)
    assert err.value.round_index == 5
    # a phase that stops before the cap is unaffected
    X, _ = local_phase(StackedOracle(ens), np.array([5.0, -5.0]), Q_INF, 0.3, 5)
    assert np.isfinite(X).all()


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
    regression and Q is finite, and the mean gradient sum of the replays
    otherwise."""
    c = float(cfg.policy.threshold)
    exact = cfg.local_steps != Q_INF and all(
        isinstance(obj, (ScalarQuadratic, LinearRegressionObjective))
        for obj in problem.clients)

    def oracle(obj, *key):
        return GradientOracle(obj, noise_mode=cfg.noise_mode, sigma_l=problem.sigma_l,
                              batch_size=cfg.batch_size, grad_bound=problem.G,
                              rng=rngmod.stream(cfg.seed, *key))

    deltas, norms, alphas, alpha_tildes, violations = [], [], [], [], 0
    for i, obj in enumerate(problem.clients):
        realized = oracle(obj, "grad", t, i)
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
    ((4, 7, 5, 9), 3, "minibatch", 3, False, 3),     # unequal rows: per-client loop
    ((6, 6, 6, 6), 3, "gaussian", 4, False, 3),
    ((3, 8, 5), 3, "gaussian", 2, False, 2),
    ((8, 8, 8), 3, "minibatch", Q_INF, True, 3),     # rows stop on different steps
    ((5, 9, 7), 3, "minibatch", Q_INF, True, 3),
    ((5,) * 10, 1, "gaussian", 2, False, 9),         # a pairwise sum of slots would differ
])
def test_batched_round_matches_per_client_reference(rows, d, noise_mode,
                                                    local_steps, consistent, P):
    """Every field of a batched round equals the client-by-client reference
    bit for bit, including oracle-violation counts and replayed factors."""
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
        assert record.alpha_tildes == alpha_tildes
        assert violations == ref_violations > 0


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


def q_inf_replays_run():
    problem = linreg_problem((8, 8, 8), 3, seed=3, consistent=True)
    return make_config(
        rounds=2, n_clients=3, sampled_per_round=3, local_steps=Q_INF,
        eta_l=0.3 / problem.L, policy=ClippingPolicy(mode="difference", threshold=0.05),
        seed=5, x0=np.zeros(3), noise_mode="minibatch", batch_size=3,
        replay_count=2), problem


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
    (q_inf_replays_run, "mean of 2 replays"),
    (q_inf_deterministic_run, engine.ALPHA_TILDE_REALIZED),
], ids=["quadratic-auto-dp", "linreg-minibatch-exact", "mlp-replays",
        "q-inf-replays", "q-inf-deterministic"])
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
    X, gsum = local_phase(StackedOracle(problem), x, Q_INF, eta_l, 0)
    steps = set()
    for i, obj in enumerate(problem.clients):
        oracle = CountingOracle(obj)
        x_fin, ref_gsum = local_update(obj, oracle, x, Q_INF, eta_l)
        np.testing.assert_array_equal(X[i], x_fin)
        np.testing.assert_array_equal(gsum[i], ref_gsum)
        steps.add(oracle.steps)
    assert len(steps) == 3 and max(steps) < 10 ** 6


def test_stopped_rows_do_not_count_violations():
    """A row that stopped keeps drawing (unused) minibatches while others
    run; those draws must not count as violations. Client 0 stops on its
    first step when it draws its zero-residual row 0; its row 1 would give a
    gradient over the bound."""
    x = np.array([1.0, -1.0])
    A = np.eye(2)
    problem = build_linear_regression_ensemble(
        [A, A], [np.array([1.0, 9.0]), np.array([3.0, 2.0])], g_bound=1.0)
    seed = next(s for s in range(100)
                if rngmod.stream(s, "grad", 0, 0).integers(0, 2, size=1)[0] == 0)
    keys = [(seed, "grad", 0, i) for i in range(2)]
    oracle = StackedOracle(problem, noise_mode="minibatch", batch_size=1,
                           rngs=[rngmod.stream(*k) for k in keys], grad_bound=1.0)
    X, _ = local_phase(oracle, x, Q_INF, 0.25, 0)
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
    """Counts its draws, and records for each block of a local_steps: inf
    phase which draws were over the bound and which rows were running."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.draws = 0
        self.blocks = []

    def draw(self, X, out=None):
        self.draws += 1
        return super().draw(X, out)

    def count_violations(self, G, running=None):
        if self.grad_bound is not None:
            self.blocks.append((norms(G) > self.grad_bound, running))
        super().count_violations(G, running)


def block_first_steps(n_steps, N, d):
    """The first step of every block of a local_steps: inf phase on an
    (N, d) stack, through the block that holds step ``n_steps``."""
    cap = min(engine._LOCAL_BLOCK_STEPS, max(1, engine._LOCAL_BLOCK_ELEMENTS // (N * d)))
    first, size = [1], 1
    while first[-1] <= n_steps:
        first.append(first[-1] + min(size, cap))
        size *= 2
    return first[:-1]


def test_divergence_inside_a_block_matches_the_reference():
    """Two rows diverge, each after the first step of a block; the error
    names the row that fails on the earlier step, with its norm there.
    |1 - eta_l a^2| is 2 for a = 2 and 1.43 for a = 1.8: row 2 passes the
    limit on step 40, row 0 later; row 1 stops on its own before either."""
    problem = build_linear_regression_ensemble(
        [np.array([[a]]) for a in (1.8, 1.0, 2.0)],
        [np.array([b]) for b in (0.5, 1.0, 0.0)])
    x, eta_l = np.array([1.0]), 0.75
    with pytest.raises(DivergenceError) as err:
        local_phase(StackedOracle(problem), x, Q_INF, eta_l, 4)
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
    first = block_first_steps(steps0, 3, 1)
    assert steps2 not in first and steps0 not in first
    assert err.value.round_index == 4
    assert err.value.norm == ref2.norm
    assert str(err.value) == str(ref2).replace("round -1", "round 4")


def test_step_cap_inside_a_block_matches_the_reference(monkeypatch):
    """A cap of 200 steps cuts a block short: the phase draws 200 steps, not
    up to the block's end, and names the largest last step of a row still
    moving, as the reference's 200th steps give it."""
    monkeypatch.setattr("fedclip.engine._LOCAL_MAX_STEPS", 200)
    first = block_first_steps(200, 2, 2)
    assert 200 not in first and 201 not in first
    ens = build_linear_regression_ensemble([NO_FIT_A, NO_FIT_A], NO_FIT_B)
    keys = [(0, "cap", i) for i in range(2)]
    oracle = RecordingOracle(ens, noise_mode="minibatch", batch_size=1,
                             rngs=[rngmod.stream(*k) for k in keys])
    x, eta_l = np.array([5.0, -5.0]), 0.1
    with pytest.raises(DivergenceError, match="still moving after 200 steps") as err:
        local_phase(oracle, x, Q_INF, eta_l, 5)
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
    """One row stops on the last step of a block, one on the first step of
    the next, one later; every row equals its single-client phase."""
    eta_l, x = 0.2, np.zeros(1)
    boundary = block_first_steps(100, 3, 1)[-1]
    targets = [boundary - 1, boundary, 100]
    # from x = 0, step k of minimizer b has norm eta_l * b * (1 - eta_l)^(k - 1):
    # it falls below 1e-12 on step k for b half a step past the threshold
    b = [1e-12 / eta_l * (1 - eta_l) ** -(k - 1.5) for k in targets]
    problem = build_quadratic_ensemble(b)
    X, gsum = local_phase(StackedOracle(problem), x, Q_INF, eta_l, 0)
    for i, obj in enumerate(problem.clients):
        oracle = CountingOracle(obj)
        x_fin, ref_gsum = local_update(obj, oracle, x, Q_INF, eta_l)
        assert oracle.steps == targets[i]
        assert X[i].tolist() == x_fin.tolist()
        assert gsum[i].tolist() == ref_gsum.tolist()


def test_stopped_rows_over_the_bound_across_a_block_boundary_are_not_counted():
    """Client 0 stops on step 4, the first step of a block, on a zero step
    (it draws its zero-residual row 0); its later draws of row 1, in the rest
    of that block and in the next one, are over the bound but not counted.
    Client 1 runs on for many blocks."""
    x, eta_l = np.array([1.0, -1.0]), 0.25
    A = np.eye(2)
    problem = build_linear_regression_ensemble(
        [A, A], [np.array([1.0, 9.0]), np.array([3.0, 2.0])], g_bound=1.0)
    keys = [(11, "grad", 0, i) for i in range(2)]
    oracle = RecordingOracle(problem, noise_mode="minibatch", batch_size=1,
                             rngs=[rngmod.stream(*k) for k in keys], grad_bound=1.0)
    X, gsum = local_phase(oracle, x, Q_INF, eta_l, 0)
    violations, steps = 0, []
    for i, (obj, key) in enumerate(zip(problem.clients, keys)):
        ref = CountingOracle(obj, noise_mode="minibatch", batch_size=1,
                             rng=rngmod.stream(*key), grad_bound=1.0)
        x_fin, ref_gsum = local_update(obj, ref, x, Q_INF, eta_l)
        assert X[i].tolist() == x_fin.tolist()
        assert gsum[i].tolist() == ref_gsum.tolist()
        violations += ref.violations
        steps.append(ref.steps)
    assert steps[0] == 4 and 4 in block_first_steps(4, 2, 2)
    assert steps[1] > 2 * block_first_steps(steps[0], 2, 2)[-1]
    uncounted = [int(np.count_nonzero(over[:, 0] & ~running[:, 0]))
                 for over, running in oracle.blocks]
    stop_block = next(k for k, (_, running) in enumerate(oracle.blocks)
                      if not running[:, 0].all())
    assert uncounted[stop_block] > 0 and uncounted[stop_block + 1] > 0
    assert oracle.violations == violations > 0


def masked_exhaustive_phase(oracle, x_start, eta_l, round_index):
    """The step-by-step local_steps: inf loop that the block loop replaced:
    each step masks the stopped rows out of the update and checks every row."""
    N = oracle.problem.n_clients
    X = np.tile(np.asarray(x_start, dtype=float), (N, 1))
    gsum = np.zeros_like(X)
    active = np.ones(N, dtype=bool)
    running = active[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(engine._LOCAL_MAX_STEPS):
            G = oracle.draw(X)
            oracle.count_violations(G, active)
            step = eta_l * G
            np.subtract(X, step, out=X, where=running)
            np.add(gsum, G, out=gsum, where=running)
            engine._check_finite(X, round_index)
            active &= norms(step) > engine._LOCAL_TOL
            if not active.any():
                return X, gsum
    raise DivergenceError(
        round_index, float(norms(step)[active].max()),
        f"local phase still moving after {engine._LOCAL_MAX_STEPS} steps")


@pytest.mark.parametrize("noise_mode", ["deterministic", "minibatch"])
def test_block_phase_memory_stays_near_the_masked_loop(monkeypatch, noise_mode):
    """On an 8-client, h = 32 MLP stack a block holds one step; a capped
    local_steps: inf phase peaks within 10% of the masked loop's
    tracemalloc peak, and ends in the same error."""
    monkeypatch.setattr("fedclip.engine._LOCAL_MAX_STEPS", 12)
    problem = build_mlp_synthetic_ensemble(hidden_width=32, N=8, samples_per_client=50,
                                           heterogeneity=0.5, seed=3)
    x = rngmod.stream(1, "mlp-memory").normal(0.0, 0.5, size=problem.dim)

    def peak(phase):
        oracle = StackedOracle(problem, noise_mode=noise_mode, batch_size=16,
                               rngs=[rngmod.stream(2, "mlp-memory", i) for i in range(8)])
        tracemalloc.start()
        try:
            with pytest.raises(DivergenceError, match="still moving") as err:
                phase(oracle, x, 0.05, 0)
            return tracemalloc.get_traced_memory()[1], err.value.norm
        finally:
            tracemalloc.stop()

    def block_phase(oracle, x_start, eta_l, round_index):
        return local_phase(oracle, x_start, Q_INF, eta_l, round_index)

    peak(block_phase)  # the first call's one-time allocations are not measured
    block, block_norm = peak(block_phase)
    masked, masked_norm = peak(masked_exhaustive_phase)
    assert block_norm == masked_norm
    assert block <= 1.1 * masked, (block, masked)
