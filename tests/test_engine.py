"""Tests for the simulation engine: local phases, rounds, and full runs."""

import dataclasses
import math

import numpy as np
import pytest

from fedclip import rng as rngmod
from fedclip.clipping import ClippingPolicy, clip
from fedclip.engine import (ALPHA_TILDE_EXACT, DivergenceError, Q_INF, RunConfig,
                            alpha_tilde_method, local_phase, local_update,
                            record_to_json, run_experiment, run_round,
                            sample_clients)
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
    np.testing.assert_allclose(trace.rounds[-1].x_next, [0.62])


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
        np.testing.assert_array_equal(trace.rounds[-1].x_next, x)


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
    np.testing.assert_array_equal(trace.rounds[-1].x_next, x)


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
    assert len(run_experiment(cfg, ens).rounds) == 1


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
    assert not np.array_equal(t_clean.rounds[-1].x_next,
                              t_noisy.rounds[-1].x_next)


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
    norms = [n for rd in phase1.rounds for n in rd.record.delta_norms]
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
    cfg = make_config(local_steps=local_steps, n_clients=len(rows),
                      sampled_per_round=P, eta_l=eta_l, eta_g=0.9,
                      policy=ClippingPolicy(mode="difference", threshold=0.05),
                      seed=5, x0=np.zeros(d), noise_mode=noise_mode,
                      batch_size=3, replay_count=3)
    spec = NoiseSpec(sigma2=0.01, dim=d)
    x = rngmod.stream(5, "batched-x").normal(size=d)
    for t in range(3):  # fresh streams each round
        data = run_round(x, t, cfg, problem, noise_spec=spec)
        x_next, violations = data.x_next, data.violations
        ref_agg, ref_x, norms, alphas, alpha_tildes, ref_violations = reference_round(
            problem, cfg, x, t, noise_spec=spec)
        np.testing.assert_array_equal(data.mean_transmitted, ref_agg)
        np.testing.assert_array_equal(x_next, ref_x)
        assert data.record.delta_norms == norms
        assert data.record.alphas == alphas
        assert data.record.alpha_tildes == alpha_tildes
        assert violations == ref_violations > 0


def test_mlp_round_replays_match_per_client_reference():
    """On the nonlinear MLP, alpha~ is still the mean of R replays, equal bit
    for bit to replays run client by client on the ("replay", t, i, r)
    streams."""
    problem = build_mlp_synthetic_ensemble(hidden_width=3, N=3, samples_per_client=10,
                                           heterogeneity=0.5, seed=4)
    cfg = make_config(local_steps=2, n_clients=3, sampled_per_round=2, eta_l=0.1,
                      policy=ClippingPolicy(mode="difference", threshold=0.02),
                      seed=6, x0=np.zeros(problem.dim), noise_mode="minibatch",
                      batch_size=3, replay_count=3)
    assert alpha_tilde_method(cfg, problem) == "mean of 3 replays"
    spec = NoiseSpec(sigma2=0.01, dim=problem.dim)
    x = rngmod.stream(6, "mlp-x").normal(0.0, 0.5, size=problem.dim)
    for t in range(2):
        data = run_round(x, t, cfg, problem, noise_spec=spec)
        x_next, violations = data.x_next, data.violations
        ref_agg, ref_x, norms, alphas, alpha_tildes, ref_violations = reference_round(
            problem, cfg, x, t, noise_spec=spec)
        np.testing.assert_array_equal(data.mean_transmitted, ref_agg)
        np.testing.assert_array_equal(x_next, ref_x)
        assert data.record.delta_norms == norms
        assert data.record.alphas == alphas
        assert data.record.alpha_tildes == alpha_tildes
        assert max(alpha_tildes) < 1.0
        assert violations == ref_violations
        x = x_next


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
    cfg = make_config(local_steps=3, n_clients=3, sampled_per_round=3, eta_l=0.05,
                      policy=ClippingPolicy(mode="difference", threshold=c), seed=8,
                      x0=np.zeros(d), noise_mode=noise_mode, batch_size=4)
    assert alpha_tilde_method(cfg, problem) == ALPHA_TILDE_EXACT
    x = rngmod.stream(8, "mc-x").normal(size=d)
    exact = run_round(x, t, cfg, problem).record.alpha_tildes
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
        return super().sample(x)


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
