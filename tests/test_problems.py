"""Tests for client objectives, ensemble builders, and gradient oracles."""

import numpy as np
import pytest

from fedclip import rng as rngmod
from fedclip.problems import (GradientOracle, LinearRegressionObjective,
                              MLPObjective, ScalarQuadratic,
                              build_linear_regression_ensemble,
                              build_mlp_synthetic_ensemble,
                              build_quadratic_ensemble, sample_gradient,
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
    np.testing.assert_allclose(ens.grad_sum(np.array([2.0])), [3.0])
    assert ens.loss_mean(ens.global_optimum) == pytest.approx(ens.f_star)


def test_linear_regression_ensemble_optimum_is_normal_equation_solution():
    A = [np.array([[1.0]]), np.array([[2.0]]), np.array([[6.0]])]
    b = [np.array([4.0]), np.array([1.0]), np.array([-1.0])]
    ens = build_linear_regression_ensemble(A, b)
    # summed gradient is (1 + 4 + 36) x - (4 + 2 - 6) = 41 x
    np.testing.assert_allclose(ens.grad_sum(np.array([1.0])), [41.0])
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
    np.testing.assert_allclose(sample_gradient(oracle, np.array([3.0])), [2.0])


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


def test_rng_streams_are_reproducible_and_distinct():
    a = rngmod.stream(1, "grad", 0, 0).normal(size=4)
    b = rngmod.stream(1, "grad", 0, 0).normal(size=4)
    c = rngmod.stream(1, "grad", 0, 1).normal(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


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
