"""Tests for client objectives, ensemble builders, and gradient oracles."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from fedclip import problems, rng as rngmod
from fedclip.problems import (GradientOracle, LinearRegressionObjective,
                              MLPObjective, ProblemInstance, ScalarQuadratic,
                              StackedOracle, build_linear_regression_ensemble,
                              build_mlp_synthetic_ensemble,
                              build_quadratic_ensemble, sigmoid, softplus,
                              _probe_grid)


def central_diff(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def test_scalar_quadratic_basics():
    obj = ScalarQuadratic(b=2.0)
    x = np.array([5.0])
    assert obj.loss(x) == pytest.approx(4.5)
    np.testing.assert_allclose(obj.grad(x), [3.0])
    np.testing.assert_allclose(obj.local_minimizer, [2.0])
    assert obj.lipschitz() == 1.0


def test_linear_regression_gradient_matches_finite_differences():
    g = rngmod.stream(5, "test-linreg")
    A = g.normal(size=(4, 3))
    b = g.normal(size=4)
    obj = LinearRegressionObjective(A, b)
    x = g.normal(size=3)
    np.testing.assert_allclose(obj.grad(x), central_diff(obj.loss, x),
                               rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(obj.grad(obj.local_minimizer), np.zeros(3),
                               atol=1e-10)


def test_linear_regression_shape_check():
    with pytest.raises(ValueError):
        LinearRegressionObjective(np.ones((3, 2)), np.ones(4))


def test_mlp_gradient_matches_finite_differences():
    g = rngmod.stream(9, "test-mlp")
    X = g.normal(size=(12, 2))
    y = g.integers(0, 2, size=12)
    obj = MLPObjective(X=X, y=y, hidden=3, n_classes=2)
    x = g.normal(0.0, 0.5, size=obj.dim)
    np.testing.assert_allclose(obj.grad(x), central_diff(obj.loss, x),
                               rtol=1e-4, atol=1e-7)


def test_quadratic_ensemble_constants():
    ens = build_quadratic_ensemble([-1.0, 0.0, 4.0])
    np.testing.assert_allclose(ens.global_optimum, [1.0])
    assert ens.L == 1.0
    assert ens.sigma_g == pytest.approx(3.0)  # max |b_i - mean|
    # mean-objective gradient is x - mean(b)
    np.testing.assert_allclose(ens.grad_mean(np.array([2.0])), [1.0])
    np.testing.assert_allclose(ens.grad_mean(np.array([2.0])) * ens.n_clients, [3.0])
    assert ens.loss_mean(ens.global_optimum) == pytest.approx(ens.f_star)


def test_linear_regression_ensemble_optimum_is_normal_equation_solution():
    A = [np.array([[1.0]]), np.array([[2.0]]), np.array([[6.0]])]
    b = [np.array([4.0]), np.array([1.0]), np.array([-1.0])]
    ens = build_linear_regression_ensemble(A, b)
    # summed gradient is (1 + 4 + 36) x - (4 + 2 - 6) = 41 x
    np.testing.assert_allclose(ens.grad_mean(np.array([1.0])) * ens.n_clients, [41.0])
    np.testing.assert_allclose(ens.global_optimum, [0.0], atol=1e-12)
    np.testing.assert_allclose(
        [c.local_minimizer[0] for c in ens.clients], [4.0, 0.5, -1.0 / 6.0])
    assert ens.L == pytest.approx(36.0)


def test_ensemble_builder_validation():
    with pytest.raises(ValueError):
        build_quadratic_ensemble([])
    with pytest.raises(ValueError):
        build_linear_regression_ensemble([np.eye(2)], [])


def test_non_finite_constants_are_rejected():
    with pytest.raises(ValueError, match="finite"):
        build_quadratic_ensemble([0.0, 1.0], g_bound=float("inf"))
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        # L = A^2 overflows to inf
        build_linear_regression_ensemble([np.array([[1e155]]), np.eye(1)],
                                         [np.zeros(1), np.zeros(1)])


def test_declared_g_bound_is_recorded():
    ens = build_quadratic_ensemble([0.0, 1.0], g_bound=7.5)
    assert ens.G == 7.5
    assert ens.constant_methods["G"] == "declared"


def test_oracle_deterministic_is_exact():
    obj = ScalarQuadratic(b=1.0)
    oracle = GradientOracle(obj)
    np.testing.assert_allclose(oracle.sample(np.array([3.0])), [2.0])


def test_oracle_gaussian_mean_and_variance():
    obj = LinearRegressionObjective(np.eye(2), np.zeros(2))
    x = np.array([1.0, -2.0])
    sigma_l = 0.8
    oracle = GradientOracle(obj, noise_mode="gaussian", sigma_l=sigma_l,
                            rng=rngmod.stream(3, "test-gauss"))
    draws = np.stack([oracle.sample(x) for _ in range(20000)])
    np.testing.assert_allclose(draws.mean(axis=0), obj.grad(x), atol=0.02)
    # total injected second moment is sigma_l^2, split across coordinates
    total_var = np.sum(draws.var(axis=0))
    assert total_var == pytest.approx(sigma_l ** 2, rel=0.05)


def test_oracle_minibatch_is_unbiased():
    g = rngmod.stream(4, "test-minibatch")
    obj = LinearRegressionObjective(g.normal(size=(30, 2)), g.normal(size=30))
    x = g.normal(size=2)
    oracle = GradientOracle(obj, noise_mode="minibatch", batch_size=5,
                            rng=rngmod.stream(4, "test-minibatch-draws"))
    draws = np.stack([oracle.sample(x) for _ in range(20000)])
    np.testing.assert_allclose(draws.mean(axis=0), obj.grad(x),
                               rtol=0.05, atol=0.05)


def test_oracle_counts_bound_violations_without_projecting():
    obj = ScalarQuadratic(b=0.0)
    oracle = GradientOracle(obj, grad_bound=1.0)
    g = oracle.sample(np.array([5.0]))
    np.testing.assert_allclose(g, [5.0])  # not projected
    assert oracle.violations == 1
    oracle.sample(np.array([0.5]))
    assert oracle.violations == 1


def test_oracle_mode_validation():
    obj = ScalarQuadratic(b=0.0)
    with pytest.raises(ValueError):
        GradientOracle(obj, noise_mode="unknown")
    with pytest.raises(ValueError):
        GradientOracle(obj, noise_mode="gaussian")  # rng required
    with pytest.raises(ValueError):
        GradientOracle(obj, noise_mode="minibatch",
                       rng=rngmod.stream(0, "x"))  # no grad_batch


def test_stacked_oracle_deterministic_is_exact():
    ens = build_quadratic_ensemble([1.0, -2.0])
    G = StackedOracle(ens).sample(np.array([[3.0], [0.5]]))
    np.testing.assert_array_equal(G, [[2.0], [2.5]])


def test_stacked_oracle_gaussian_mean_and_variance():
    # four clients with gradient x - b_i; each row is one client's draw
    ens = build_linear_regression_ensemble([np.eye(2)] * 4,
                                           [np.full(2, float(i)) for i in range(4)])
    X = rngmod.stream(3, "test-stacked-x").normal(size=(4, 2))
    sigma_l = 0.8
    oracle = StackedOracle(ens, noise_mode="gaussian", sigma_l=sigma_l,
                           rngs=[rngmod.stream(3, "test-gauss", i) for i in range(4)])
    draws = np.stack([oracle.sample(X) for _ in range(5000)])
    np.testing.assert_allclose(draws.mean(axis=0), ens.grad_stack(X), atol=0.04)
    # total injected second moment is sigma_l^2, split across coordinates
    total_var = np.sum(draws.var(axis=0), axis=1)
    np.testing.assert_allclose(total_var, sigma_l ** 2, rtol=0.08)


def test_stacked_oracle_minibatch_is_unbiased():
    g = rngmod.stream(4, "test-stacked-minibatch")
    ens = build_linear_regression_ensemble([g.normal(size=(30, 2)) for _ in range(3)],
                                           [g.normal(size=30) for _ in range(3)])
    X = g.normal(size=(3, 2))
    oracle = StackedOracle(ens, noise_mode="minibatch", batch_size=5,
                           rngs=[rngmod.stream(4, "test-draws", i) for i in range(3)])
    draws = np.stack([oracle.sample(X) for _ in range(5000)])
    # each entry's mean lies within 4 standard errors of the full gradient
    stderr = draws.std(axis=0) / np.sqrt(len(draws))
    assert (np.abs(draws.mean(axis=0) - ens.grad_stack(X)) <= 4.0 * stderr).all()


def test_stacked_oracle_counts_bound_violations_without_projecting():
    ens = build_quadratic_ensemble([0.0, 0.0])
    oracle = StackedOracle(ens, grad_bound=1.0)
    G = oracle.sample(np.array([[5.0], [0.5]]))
    np.testing.assert_array_equal(G, [[5.0], [0.5]])  # not projected
    assert oracle.violations == 1
    # a draw counts nothing; rows outside the running mask are not counted
    G = oracle.draw(np.array([[5.0], [5.0]]))
    assert oracle.violations == 1
    oracle.count_violations(G, np.array([False, True]))
    assert oracle.violations == 2


def test_stacked_oracle_mode_validation():
    ens = build_quadratic_ensemble([0.0, 1.0])
    with pytest.raises(ValueError, match="unknown noise mode"):
        StackedOracle(ens, noise_mode="unknown")
    with pytest.raises(ValueError, match="rng stream"):
        StackedOracle(ens, noise_mode="gaussian")
    with pytest.raises(ValueError, match="minibatch"):  # quadratics have no rows
        StackedOracle(ens, noise_mode="minibatch",
                      rngs=[rngmod.stream(0, "x", i) for i in range(2)])


def masked_sigmoid(z):
    """The masked-scatter form ``sigmoid`` had before, kept as its reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_masked_form_bit_for_bit():
    g = rngmod.stream(8, "test-sigmoid")
    edge = np.array([np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0,
                     1e-320, -1e-320, 0.0, -0.0, 36.0, -36.0, 1e308, -1e308])
    for z in (g.normal(0.0, 5.0, size=(50, 32)), g.normal(0.0, 300.0, size=2000), edge):
        new, old = sigmoid(z), masked_sigmoid(z)
        # NaN stays NaN (its sign bit may differ); every other entry is equal
        # bit for bit, signed zeros included
        assert np.array_equal(new, old, equal_nan=True)
        finite = ~np.isnan(old)
        assert np.array_equal(new[finite].view(np.uint64), old[finite].view(np.uint64))


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of calling ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sigmoid_in_place_allocates_one_array_and_no_mask():
    g = rngmod.stream(8, "test-sigmoid-memory")
    z = g.normal(0.0, 5.0, size=(64, 64))
    expected = masked_sigmoid(z)
    got = []
    peak = traced_peak(lambda: got.append(sigmoid(z, out=z)))
    assert got[0] is z
    assert np.array_equal(z, expected)
    # the denominator is one array of z's size; a bool mask would add z.size
    # bytes more
    assert z.nbytes <= peak < z.nbytes + z.size // 2, (peak, z.nbytes)
    # with the denominator's buffer given too, nothing of z's size is allocated
    z = g.normal(0.0, 5.0, size=(64, 64))
    expected, work = masked_sigmoid(z), np.empty_like(z)
    assert traced_peak(lambda: sigmoid(z, out=z, work=work)) < z.size // 2
    assert np.array_equal(z, expected)


def test_mlp_ensemble_shapes_and_heterogeneity_validation():
    ens = build_mlp_synthetic_ensemble(hidden_width=4, N=3,
                                       samples_per_client=10,
                                       heterogeneity=0.5, seed=0)
    assert ens.n_clients == 3
    assert ens.dim == ens.clients[0].dim
    assert ens.L > 0 and ens.G > 0
    with pytest.raises(ValueError):
        build_mlp_synthetic_ensemble(hidden_width=4, N=3,
                                     samples_per_client=10,
                                     heterogeneity=1.5, seed=0)


def mlp_benchmark_federation():
    """The mlp-build-replay benchmark workload's federation: h = 32, N = 8,
    n = 50, C = 4."""
    return build_mlp_synthetic_ensemble(hidden_width=32, N=8, samples_per_client=50,
                                        heterogeneity=0.5, seed=1, n_classes=4)


def test_mlp_build_peaks_below_twice_one_full_batch_gradient():
    """At the benchmark's MLP shape the build's tracemalloc peak stays below
    twice that of one full-batch ``client_grads`` call: the build holds the
    client data, a gradient stack per L pair and the kernel's buffers. It
    was 2.6 times while the 50 G / sigma_g probe points were drawn as one
    (50, d) block and the kernel's bias add took a chunk-sized ufunc
    buffer; it is 1.8 times now."""
    prob = mlp_benchmark_federation()
    x = rngmod.stream(1, "test-mlp-build-memory").normal(0.0, 1.0, size=prob.dim)
    prob.client_grads(x)  # the first call's one-time allocations are not measured
    one_call = traced_peak(lambda: prob.client_grads(x))
    build = traced_peak(mlp_benchmark_federation)
    assert build <= 2.0 * one_call, (build, one_call)


@pytest.mark.parametrize("d", [1, 2, 7, 226, 227, 1001])
def test_successive_normal_draws_equal_one_block_draw(d):
    """The MLP builder draws its 50 G / sigma_g probe points one at a time;
    they are the rows of one (50, d) draw from the same stream, which then
    stands where the one-at-a-time draws leave theirs."""
    rows, block = rngmod.stream(1, "mlp-constants"), rngmod.stream(1, "mlp-constants")
    drawn = np.stack([rows.normal(0.0, 1.0, size=d) for _ in range(50)])
    expected = block.normal(0.0, 1.0, size=(50, d))
    assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))
    assert rows.normal() == block.normal()


def test_rng_streams_are_reproducible_and_distinct():
    a = rngmod.stream(1, "grad", 0, 0).normal(size=4)
    b = rngmod.stream(1, "grad", 0, 0).normal(size=4)
    c = rngmod.stream(1, "grad", 0, 1).normal(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# paths as the engine and the builders key their streams
STREAM_PATHS = [(0, "grad", 0, 0), (1, "grad", 0, 1), (7, "replay", 3, 2, 31),
                (12345, "probe"), (-3, "noise", 699, 99), (2 ** 40, "mlp-data"),
                (5, "sample", 12), (1, "mlp-memory"), (0, "")]


@pytest.mark.parametrize("path", STREAM_PATHS)
def test_rng_stream_is_philox_at_its_hashed_key(path):
    """A stream is the Generator that ``Philox(key=...)`` gives for the first
    16 bytes of the sha256 of its label: the same state and the same draws."""
    seed, *rest = path
    label = ":".join([str(seed)] + [str(p) for p in rest])
    key = np.frombuffer(hashlib.sha256(label.encode("utf-8")).digest()[:16],
                        dtype=np.uint64)
    streams = [rngmod.stream(*path), np.random.Generator(np.random.Philox(key=key))]
    # the state holds small uint64 arrays, which repr prints in full
    a, b = (repr(g.bit_generator.state) for g in streams)
    assert "'Philox'" in a and a == b
    draws = [(g.normal(size=5), g.integers(0, 1000, size=5), g.uniform(-2.0, 2.0, size=5),
              g.integers(0, 2 ** 31)) for g in streams]
    for x, y in zip(*draws):
        assert np.array_equal(x, y)


def reference_probe(clients, pts):
    """Max gradient norm and max gap to the client mean, client by client."""
    gmax = divmax = 0.0
    for x in pts:
        grads = [obj.grad(x) for obj in clients]
        mean = sum(grads) / len(grads)
        for g in grads:
            gmax = max(gmax, float(np.linalg.norm(g)))
            divmax = max(divmax, float(np.linalg.norm(g - mean)))
    return gmax, divmax


def test_quadratic_constants_match_client_by_client_reference():
    b = rngmod.stream(2, "ref-quad").normal(0.0, 2.0, size=11)
    ens = build_quadratic_ensemble(b.tolist())
    radius = max(2.0, 2.0 * float(np.max(np.abs(b - b.mean()))) + 1.0)
    gmax, _ = reference_probe(ens.clients, _probe_grid(ens.global_optimum, radius, 1))
    assert (ens.L, ens.G) == (1.0, gmax)
    assert ens.sigma_g == float(np.max(np.abs(b - b.mean())))


@pytest.mark.parametrize("rows", [(7,) * 9, (4, 9, 6, 5)])
def test_linear_regression_constants_match_client_by_client_reference(rows):
    g = rngmod.stream(len(rows), "ref-linreg")
    A = [g.normal(size=(n, 3)) for n in rows]
    b = [g.normal(size=n) for n in rows]
    ens = build_linear_regression_ensemble(A, b)
    spans = [np.linalg.norm(c.local_minimizer - ens.global_optimum)
             for c in ens.clients]
    radius = max(2.0, 2.0 * max(spans) + 1.0)
    gmax, divmax = reference_probe(ens.clients,
                                   _probe_grid(ens.global_optimum, radius, 3))
    L = max(float(np.linalg.eigvalsh(c.A.T @ c.A)[-1]) for c in ens.clients)
    assert (ens.L, ens.G, ens.sigma_g) == (L, gmax, divmax)


def test_mlp_constants_match_client_by_client_reference():
    ens = build_mlp_synthetic_ensemble(hidden_width=4, N=9, samples_per_client=12,
                                       heterogeneity=0.7, seed=5, n_classes=3)
    est = rngmod.stream(5, "mlp-constants")
    L = 0.0
    for _ in range(200):
        x1 = est.normal(0.0, 1.0, size=ens.dim)
        x2 = x1 + est.normal(0.0, 0.3, size=ens.dim)
        for obj in ens.clients:
            num = np.linalg.norm(obj.grad(x1) - obj.grad(x2))
            L = max(L, num / np.linalg.norm(x1 - x2))
    pts = [est.normal(0.0, 1.0, size=ens.dim) for _ in range(50)]
    gmax, divmax = reference_probe(ens.clients, pts)
    assert (ens.L, ens.G, ens.sigma_g) == (float(L * 1.5), 2.0 * gmax, divmax)


def reference_mlp_grad(obj, x, idx=None):
    """One client's MLP gradient by the two-dimensional formula that
    ``MLPObjective`` used before the batched kernel: the bit-exact reference
    of ``problems.mlp_grads``."""
    idx = np.arange(obj.n_samples) if idx is None else np.asarray(idx)
    X, y = obj.X[idx], obj.y[idx]
    din, h, C = X.shape[1], obj.hidden, obj.n_classes
    o1, o2, o3 = h * din, h * din + h, h * din + h + C * h
    W1, b1 = x[:o1].reshape(h, din), x[o1:o2]
    W2, b2 = x[o2:o3].reshape(C, h), x[o3:]
    Z1 = X @ W1.T + b1
    H = np.logaddexp(0.0, Z1)
    logits = H @ W2.T + b2
    logits = logits - logits.max(axis=1, keepdims=True)
    logZ = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    p = np.exp(logits - logZ)
    p[np.arange(len(y)), y] -= 1.0
    p /= len(y)
    dW2 = p.T @ H
    db2 = p.sum(axis=0)
    dH = p @ W2
    dZ1 = dH * masked_sigmoid(Z1)
    dW1 = dZ1.T @ X
    db1 = dZ1.sum(axis=0)
    return np.concatenate([dW1.ravel(), db1, dW2.ravel(), db2])


def mlp_federation(N, n, hidden, seed, n_classes=3, input_dim=2):
    """N MLP clients with n random samples each, without the builder's
    constant estimation."""
    g = rngmod.stream(seed, "test-mlp-federation")
    clients = tuple(MLPObjective(X=g.normal(0.0, 2.0, size=(n, input_dim)),
                                 y=g.integers(0, n_classes, size=n),
                                 hidden=hidden, n_classes=n_classes)
                    for _ in range(N))
    return ProblemInstance.from_clients(clients, L=1.0, G=0.0, sigma_l=0.0, sigma_g=0.0)


def reference_stack(prob, W, idx=None):
    """``reference_mlp_grad`` of client i at row i of ``W``."""
    picks = [None] * len(W) if idx is None else idx
    return np.stack([reference_mlp_grad(c, w, i)
                     for c, w, i in zip(prob.clients, W, picks)])


def test_mlp_objective_grads_match_reference():
    prob = mlp_federation(1, 13, 5, seed=1)
    obj = prob.clients[0]
    g = rngmod.stream(1, "test-mlp-x")
    x = g.normal(0.0, 1.5, size=obj.dim)
    assert np.array_equal(obj.grad(x), reference_mlp_grad(obj, x))
    for idx in ([4], [0, 0, 12, 3, 3, 3], g.integers(0, 13, size=40)):
        assert np.array_equal(obj.grad_batch(x, idx), reference_mlp_grad(obj, x, idx))


# ((client count,), rows the budget holds); None: the module's budget. 10
# rows in chunks of 3 end with a partial chunk; one row is fewer than a chunk;
# a budget below m * h still gives chunks of two rows: 2, 2 and 1.
CHUNKINGS = [((10,), 3), ((1,), 3), ((5,), 0), ((9,), 9), ((10,), None)]


@pytest.mark.parametrize("lead, budget_rows", CHUNKINGS)
@pytest.mark.parametrize("batch", [None, 1, 7, 30])
def test_mlp_grad_stack_matches_per_client_reference(monkeypatch, lead, budget_rows,
                                                     batch):
    n, h = 12, 6
    (N,) = lead
    prob = mlp_federation(N, n, h, seed=1 + (batch or 0))
    m = n if batch is None else batch
    if budget_rows is not None:
        # the largest budget that holds budget_rows rows of m * h
        monkeypatch.setattr(problems, "_MLP_CHUNK_ELEMENTS", (budget_rows + 1) * m * h - 1)
    step = max(2, problems._MLP_CHUNK_ELEMENTS // (m * h))
    # softplus runs once per chunk, on the chunk's (rows, m, h) pre-activations
    chunks = []
    monkeypatch.setattr(problems, "softplus",
                        lambda z, out=None: chunks.append(len(z)) or softplus(z, out))
    g = rngmod.stream(1, "test-mlp-stack")
    W = g.normal(0.0, 1.5, size=(N, prob.dim))
    # with replacement: a batch of 30 of 12 samples repeats some of them
    idx = None if batch is None else g.integers(0, n, size=(N, batch))
    assert np.array_equal(prob.grad_stack(W, idx), reference_stack(prob, W, idx))
    assert chunks == [min(step, N - lo) for lo in range(0, N, step)]


def test_mlp_grad_stack_memory_stays_near_per_client_reference():
    """A chunk of the batched gradient keeps two reused (rows, m, h) buffers
    and its transients live; the per-client loop keeps one client's pass,
    which peaks at about 6-7 activation-sized arrays. The batched peak stays
    within 25% of the per-client peak at h = 32: full-batch at n = 50 and
    n = 200, and at B = 16 (the minibatch of the mlp-build-replay benchmark
    workload) and B = 30."""
    for n, batch in ((50, None), (50, 16), (50, 30), (200, None)):
        prob = mlp_federation(8, n, 32, seed=3, n_classes=4)
        g = rngmod.stream(3, "test-mlp-memory")
        W = g.normal(0.0, 0.5, size=(8, prob.dim))
        idx = None if batch is None else g.integers(0, n, size=(8, batch))
        prob.grad_stack(W)  # the stacked client data is cached, not measured
        batched = traced_peak(lambda: prob.grad_stack(W, idx))
        per_client = traced_peak(lambda: reference_stack(prob, W, idx))
        assert batched <= 1.25 * per_client, (n, batch, batched, per_client)


# (0 - b) ** 2 for these b: the C library's pow rounds them one unit in the
# last place away from the correctly rounded square b * b
POW_IS_NOT_SQUARE = [2.1709470694003272, -2.6632322132477966, -1.7236710203663734,
                     -1.3639451977731007, 2.287392493016649, -4.047197915845636]


@pytest.mark.parametrize("b", POW_IS_NOT_SQUARE)
def test_stacked_quadratic_loss_rounds_as_the_client_loss(b):
    ens = build_quadratic_ensemble([b])
    x = np.zeros(1)
    assert ens.loss_mean(x) == ens.clients[0].loss(x)


@pytest.mark.parametrize("kind", ["quadratic", "linear", "mlp"])
def test_stacked_loss_mean_matches_per_client_sum(kind):
    g = rngmod.stream(11, "test-loss-mean", kind)
    for _ in range(60):
        N = int(g.integers(1, 14))
        scale = 10.0 ** g.uniform(-3, 3)
        if kind == "quadratic":
            ens = build_quadratic_ensemble(g.normal(0.0, scale, size=N).tolist())
            x = g.normal(0.0, scale, size=1)
        elif kind == "mlp":
            ens = mlp_federation(N, int(g.integers(1, 30)), int(g.integers(1, 6)),
                                 seed=int(g.integers(1000)), n_classes=int(g.integers(2, 5)))
            x = g.normal(0.0, 2.0, size=ens.dim)
        else:
            n, d = int(g.integers(1, 30)), int(g.integers(1, 6))
            ens = build_linear_regression_ensemble(
                list(g.normal(0.0, scale, size=(N, n, d))), list(g.normal(size=(N, n))))
            x = g.normal(0.0, 2.0, size=d)
        assert ens.kind == kind
        assert ens.loss_mean(x) == sum(c.loss(x) for c in ens.clients) / N


def assert_clients_view_the_stack(ens):
    """Each client's data is a view of the stacked client data (of its
    group's stack, for linear regressions of unequal row counts)."""
    kind, *groups = ens.stack
    names = ("X", "y") if kind == "mlp" else ("A", "b")
    if kind == "mlp":
        groups = [(slice(None), *groups)]
    for members, *data in groups:
        for name, stack in zip(names, data):
            for k, i in enumerate(np.arange(ens.n_clients)[members]):
                assert np.shares_memory(stack[k], getattr(ens.clients[i], name))


def test_a_directly_built_instance_holds_the_client_data_once():
    """``ProblemInstance`` built from client objects, without a builder,
    stacks their data and gives back clients that are views of its stack,
    and takes its dimension from the stack."""
    g = rngmod.stream(5, "test-direct-views")
    rows = (5, 3, 5)
    lin = ProblemInstance.from_clients(
        tuple(LinearRegressionObjective(g.normal(size=(n, 2)), g.normal(size=n))
              for n in rows), L=1.0, G=0.0, sigma_l=0.0, sigma_g=0.0)
    mlp = mlp_federation(3, 4, 2, seed=5)
    quad = ProblemInstance.from_clients((ScalarQuadratic(1.0), ScalarQuadratic(-2.0)),
                                        L=1.0, G=0.0, sigma_l=0.0, sigma_g=0.0)
    for ens in (lin, mlp):
        assert_clients_view_the_stack(ens)
    assert (lin.kind, lin.dim) == ("linear", 2)
    assert (mlp.kind, mlp.dim) == ("mlp", 15)  # W1 (2, 2), b1 (2), W2 (3, 2), b2 (3)
    assert (quad.kind, quad.dim) == ("quadratic", 1)


def test_builders_hold_the_client_data_once(monkeypatch):
    """Each build stacks the client data once (one stack per row count, for
    linear regressions of unequal row counts), and ``dataclasses.replace``
    keeps the stack. The MLP builder writes its stack without client
    objects, and an (N, n, d) array of A_i is the linear stack itself, not a
    copy. The client objects, built on first use, are views of the stack."""
    calls = []

    def counting(name):
        f = getattr(problems, name)
        return lambda *args: calls.append(name) or f(*args)

    for name in ("_stack_clients", "_client_views"):
        monkeypatch.setattr(problems, name, counting(name))
    mlp = build_mlp_synthetic_ensemble(hidden_width=3, N=4, samples_per_client=6,
                                       heterogeneity=0.5, seed=1)
    g = rngmod.stream(3, "test-stack-once")
    lin = build_linear_regression_ensemble(list(g.normal(size=(3, 5, 2))),
                                           list(g.normal(size=(3, 5))))
    rows = (5, 3, 5, 2)
    unequal = build_linear_regression_ensemble([g.normal(size=(n, 2)) for n in rows],
                                               [g.normal(size=n) for n in rows])
    A, b = g.normal(size=(3, 5, 2)), g.normal(size=(3, 5))
    stacked = build_linear_regression_ensemble(A, b)
    assert calls == ["_stack_clients"] * 2  # the lists, not the MLP or the arrays
    assert stacked.stack[1][1] is A and stacked.stack[1][2] is b
    assert not (A.flags.writeable or b.flags.writeable)
    # a group of consecutive clients is a slice, which indexes a stack as a view
    assert [group[0] for group in unequal.stack[2:]] == [slice(1, 2), slice(3, 4)]
    assert lin.stack[1][0] == slice(0, 3)
    assert [np.arange(4)[group[0]].tolist()
            for group in unequal.stack[1:]] == [[0, 2], [1], [3]]
    assert unequal.n_samples == rows and mlp.n_samples == (6,) * 4
    for ens in (mlp, lin, unequal, stacked):
        assert dataclasses.replace(ens, sigma_l=0.5).stack is ens.stack
        assert_clients_view_the_stack(ens)
    assert calls == ["_stack_clients"] * 2 + ["_client_views"] * 4


@pytest.mark.parametrize("clients, cause", [
    ((ScalarQuadratic(1.0), LinearRegressionObjective(np.eye(1), np.ones(1))),
     "one kind, not of LinearRegressionObjective and ScalarQuadratic"),
    ((MLPObjective(X=np.zeros((4, 2)), y=np.zeros(4), hidden=2, n_classes=2),
      MLPObjective(X=np.zeros((5, 2)), y=np.zeros(5), hidden=2, n_classes=2)),
     "one data shape"),
    ((LinearRegressionObjective(np.ones((2, 2)), np.ones(2)),
      LinearRegressionObjective(np.ones((3, 1)), np.ones(3))),
     "all A_i must share the same column dimension"),
], ids=["mixed-kinds", "mlp-data-shapes", "linear-column-counts"])
def test_a_federation_that_cannot_be_stacked_is_refused(clients, cause):
    with pytest.raises(ValueError, match=cause):
        ProblemInstance.from_clients(clients, L=1.0, G=0.0, sigma_l=0.0, sigma_g=0.0)


def out_federation(kind):
    """A small federation of ``kind`` and the row count every client has at
    least, for ``out=`` tests."""
    g = rngmod.stream(4, "test-out", kind)
    if kind == "quadratic":
        return build_quadratic_ensemble(g.normal(size=5).tolist()), None
    if kind == "linear":
        return build_linear_regression_ensemble(list(g.normal(size=(4, 6, 3))),
                                                list(g.normal(size=(4, 6)))), 6
    if kind == "unequal":  # unequal row counts: one stack per row count
        rows = (2, 6, 4)
        return build_linear_regression_ensemble([g.normal(size=(n, 3)) for n in rows],
                                                [g.normal(size=n) for n in rows]), 2
    return mlp_federation(5, 12, 6, seed=4), 12


@pytest.mark.parametrize("kind", ["quadratic", "linear", "unequal", "mlp"])
def test_grad_stack_writes_into_out(kind):
    """With ``out``, ``grad_stack`` returns ``out`` holding, bit for bit,
    what the allocating call returns, on all samples and on minibatches."""
    prob, n = out_federation(kind)
    assert (len(prob.stack) == 4) == (kind == "unequal")  # three groups
    g = rngmod.stream(4, "test-out-x", kind)
    X = g.normal(size=(prob.n_clients, prob.dim))
    picks = [None] if n is None else [None, g.integers(0, n, size=(prob.n_clients, 5))]
    for idx in picks:
        out = np.full(X.shape, np.nan)
        assert prob.grad_stack(X, idx, out) is out
        assert np.array_equal(out, prob.grad_stack(X, idx))


# quadratic clients have no rows to sample a minibatch of
@pytest.mark.parametrize("kind, noise_mode", [
    (kind, mode) for kind in ("quadratic", "linear", "mlp")
    for mode in ("deterministic", "gaussian", "minibatch")
    if (kind, mode) != ("quadratic", "minibatch")])
def test_stacked_oracle_draws_into_out(kind, noise_mode):
    """``draw`` with ``out`` returns ``out`` holding, bit for bit, what the
    allocating call draws from the same streams, step after step."""
    prob, _ = out_federation(kind)
    N = prob.n_clients
    X = rngmod.stream(4, "test-out-x", kind).normal(size=(N, prob.dim))

    def oracle():
        return StackedOracle(prob, noise_mode=noise_mode, sigma_l=0.7, batch_size=3,
                             rngs=[rngmod.stream(4, "test-out-draws", i) for i in range(N)])

    into, fresh = oracle(), oracle()
    for _ in range(2):
        out = np.full(X.shape, np.nan)
        assert into.draw(X, out) is out
        assert np.array_equal(out, fresh.draw(X))
