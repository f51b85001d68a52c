"""Closed-form one-round maps and fixed-point solvers for clipped averaging.

These maps reproduce, analytically, what the simulation engine does on
quadratic ensembles: model clipping averages clipped local models
(lambda-map), difference clipping is a clipped preconditioned gradient
step (Lambda-map), and the stationary-point grid for the three-client
example problem is obtained by solving each map's fixed-point condition.
The ``make_*`` functions return plain callables x -> map(x). Each map
stacks its per-client vectors, scales them row by row by their clip
factors and sums them in client order, as the engine does.
"""

import math

import numpy as np

from .clipping import ClippingPolicy, clip_factor
from .engine import Q_INF, RunConfig, run_experiment
from .privacy import PrivacyConfig
from .problems import build_linear_regression_ensemble, client_sum


class FixedPointError(RuntimeError):
    def __init__(self, residual):
        super().__init__(f"fixed-point iteration did not converge "
                         f"(last residual {residual:.3e})")
        self.residual = residual


def _clipped_sum(V, c):
    """Client-order sum of the rows of ``V``, each clipped to norm ``c``."""
    return client_sum(V * clip_factor(V, c)[:, None])


def model_clip_map(x, b_values, lam, c):
    """Mean of clip(lam * x + (1 - lam) * b_i, c) over scalar quadratic clients."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    v = lam * x + (1.0 - lam) * np.asarray(b_values, dtype=float)
    return float(np.mean(v * clip_factor(v[:, None], c)))


def make_model_clip_map(b_values, eta_l, Q, c):
    if not 0.0 < eta_l < 1.0:
        raise ValueError("lambda = (1 - eta_l)^Q in (0, 1) requires eta_l in (0, 1)")
    lam = (1.0 - eta_l) ** Q
    return lambda x: np.array([model_clip_map(float(x[0]), b_values, lam, c)])


def lambda_map_matrix(A, eta_l, Q):
    """Local-phase preconditioner (I - (I - eta_l A^T A)^Q)(A^T A)^{-1}.

    Q may be Q_INF, in which case the geometric limit (A^T A)^{-1} is
    returned. For scalar A this is (1 - (1 - eta_l A^2)^Q) / A^2.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M = A.T @ A
    evals = np.linalg.eigvalsh(M)
    if evals[0] <= 1e-14:
        raise ValueError("A^T A is singular")
    if eta_l >= 2.0 / evals[-1]:
        raise ValueError("eta_l must be below 2 / lambda_max(A^T A)")
    Minv = np.linalg.inv(M)
    if Q == Q_INF:
        return Minv
    I = np.eye(M.shape[0])
    return (I - np.linalg.matrix_power(I - eta_l * M, int(Q))) @ Minv


def _client_preconditioners(ensemble, eta_l, Q):
    if not ensemble.affine_grads:
        raise ValueError("closed-form map requires quadratic clients")
    if ensemble.kind == "quadratic":  # unit curvature: A = [[1]]
        return [lambda_map_matrix(np.eye(1), eta_l, Q)] * ensemble.n_clients
    return [lambda_map_matrix(obj.A, eta_l, Q) for obj in ensemble.clients]


def difference_clip_map(x, ensemble, eta_l, Q, c):
    """One closed-form round of difference-clipped averaging (eta_g = 1):
    x - mean_i clip(Lambda_i grad f_i(x), c).
    """
    return make_difference_clip_map(ensemble, eta_l, Q, c)(x)


def make_difference_clip_map(ensemble, eta_l, Q, c):
    lams = np.stack(_client_preconditioners(ensemble, eta_l, Q))

    def fn(x):
        V = np.matmul(lams, ensemble.client_grads(x)[:, :, None])[:, :, 0]
        return x - _clipped_sum(V, c) / ensemble.n_clients
    return fn


def make_gradient_clip_map(ensemble, c, step=0.01):
    """Single-local-step stationarity map: fixed points satisfy
    sum_i clip(grad f_i(x), c) = 0. The threshold applies to the raw
    per-client gradient, before any stepsize scaling.
    """
    def fn(x):
        return x - step * _clipped_sum(ensemble.client_grads(x), c) / ensemble.n_clients
    return fn


def make_local_min_clip_map(ensemble, c, step=0.2):
    """Exhaustive-local-phase stationarity map: fixed points satisfy
    sum_i clip(x - x_i^*, c) = 0, with x_i^* the client minimizers.
    """
    if not ensemble.affine_grads:
        raise ValueError("all clients need closed-form local minimizers")
    M = np.stack([obj.local_minimizer for obj in ensemble.clients])

    def fn(x):
        return x - step * _clipped_sum(x - M, c) / ensemble.n_clients
    return fn


def solve_fixed_point(map_fn, x_init, tol=1e-10, max_iter=10 ** 6):
    """Damped iteration x <- 0.5 x + 0.5 map(x) until the residual
    ||map(x) - x|| drops below tol.

    Scalar maps fall back to bisection on the residual when the damped
    iteration stalls. Raises FixedPointError instead of silently returning
    an unconverged point.
    """
    x = np.array(x_init, dtype=float, copy=True)
    prev_res = math.inf
    stalled = 0
    for _ in range(max_iter):
        fx = np.asarray(map_fn(x), dtype=float)
        res = float(np.linalg.norm(fx - x))
        if res <= tol:
            return x, res
        stalled = stalled + 1 if res >= prev_res * 0.999999 else 0
        if stalled >= 50 and x.size == 1:
            return _bisect_scalar(map_fn, float(x[0]), tol)
        prev_res = res
        x = 0.5 * x + 0.5 * fx
    raise FixedPointError(prev_res)


def _bisect_scalar(map_fn, x0, tol):
    def resid(v):
        return float(map_fn(np.array([v]))[0] - v)
    lo, hi = x0 - 1.0, x0 + 1.0
    span = 1.0
    for _ in range(200):
        if resid(lo) * resid(hi) <= 0:
            break
        span *= 2.0
        lo, hi = x0 - span, x0 + span
    else:
        raise FixedPointError(abs(resid(x0)))
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        r = resid(mid)
        if abs(r) <= tol:
            return np.array([mid]), abs(r)
        if resid(lo) * r <= 0:
            hi = mid
        else:
            lo = mid
    raise FixedPointError(abs(resid(0.5 * (lo + hi))))


def huberized_loss(lam, A, b, c, x):
    """Scalar surrogate whose gradient is clip(lam * grad f(x), c) for
    f(x) = 0.5 (A x - b)^2: quadratic inside the threshold, linear outside.
    """
    if A == 0:
        raise ValueError("A must be nonzero")
    if lam <= 0 or c <= 0:
        raise ValueError("lam and c must be positive")
    m = b / A
    k = lam * A * A  # curvature of lam * f
    inner = k * (x - m)  # = lam * A * (A x - b)
    if abs(inner) <= c:
        return lam * 0.5 * (A * x - b) ** 2
    return c * abs(x - m) - c * c / (2.0 * k)


def table1_grid():
    """Stationary points of the example ensemble for Q in {1, inf} and
    c in {inf, 1}, by fixed-point solving and by engine simulation.

    The threshold applies to the per-client direction before stepsize
    scaling, so the Q = 1 simulation clips at eta_l * c while the
    exhaustive-local-phase cells clip the update difference at c directly.
    """
    ens = eq7_ensemble()
    x_init = np.array([0.9])
    maps = {
        ("1", "inf"): make_gradient_clip_map(ens, math.inf, step=0.01),
        ("1", "1"): make_gradient_clip_map(ens, 1.0, step=0.01),
        ("inf", "inf"): make_local_min_clip_map(ens, math.inf, step=0.2),
        ("inf", "1"): make_local_min_clip_map(ens, 1.0, step=0.2),
    }
    sims = {
        ("1", "inf"): dict(rounds=80, local_steps=1, eta_l=0.02,
                           policy=ClippingPolicy(mode="none")),
        ("1", "1"): dict(rounds=700, local_steps=1, eta_l=0.02,
                         policy=ClippingPolicy(mode="difference", threshold=0.02)),
        ("inf", "inf"): dict(rounds=8, local_steps=Q_INF, eta_l=0.05,
                             policy=ClippingPolicy(mode="none")),
        ("inf", "1"): dict(rounds=30, local_steps=Q_INF, eta_l=0.05,
                           policy=ClippingPolicy(mode="difference", threshold=1.0)),
    }
    out = {}
    for key, m in maps.items():
        x_inf, res = solve_fixed_point(m, x_init)
        cfg = RunConfig(
            n_clients=3, sampled_per_round=3, eta_g=1.0,
            privacy=PrivacyConfig(enabled=False), seed=0, x0=np.array([1.0]),
            **sims[key])
        # only the final iterate is kept: no cell's trace outlives its run
        x_sim = float(run_experiment(cfg, ens).x[-1, 0])
        out[key] = {"solver": float(x_inf[0]), "solver_residual": res,
                    "simulation": x_sim}
    return out


def eq7_ensemble(g_bound=None):
    """The three-client scalar example with slopes (1, 2, 6), offsets
    (4, 1, -1): client minimizers (4, 1/2, -1/6), summed gradient 41 x,
    global optimum 0.
    """
    A_list = [np.array([[1.0]]), np.array([[2.0]]), np.array([[6.0]])]
    b_list = [np.array([4.0]), np.array([1.0]), np.array([-1.0])]
    return build_linear_regression_ensemble(A_list, b_list, g_bound=g_bound)
