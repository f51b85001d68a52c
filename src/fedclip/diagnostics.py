"""Convergence-bound quantities and update-distribution diagnostics.

Everything here is pure post-processing over an immutable simulation trace:
realized and expected-path clipping factors, the two clipping-bias
aggregates, the full bound breakdown, the client-drift lemma check, and the
per-round (magnitude, angle) scatter data.
"""

import math
from dataclasses import dataclass

import numpy as np

from .engine import Q_INF, Trace
from .privacy import PrivacyConfig, calibrate_noise
from .problems import client_sum


@dataclass
class BiasReport:
    """The clipping-bias gaps of each round, as (T,) arrays, and the
    averaged factors gamma1 and gamma2; each round's alpha_bar is the
    trace's ``alpha_bar`` column."""

    mean_abs_realized_gap: np.ndarray  # mean_i |alpha_i - alpha_tilde_i|
    mean_abs_cross_gap: np.ndarray     # mean_i |alpha_tilde_i - alpha_bar|
    mean_sq_realized_gap: np.ndarray
    mean_sq_cross_gap: np.ndarray
    gamma1: float
    gamma2: float

    def bias_abs_avg(self) -> float:
        """(1/T) sum_t mean_i (|a - a~| + |a~ - abar|)."""
        return float(np.mean(self.mean_abs_realized_gap + self.mean_abs_cross_gap))

    def bias_sq_sum(self, n_clients: int) -> float:
        """(1/T) sum_t sum_i (|a - a~|^2 + |a~ - abar|^2)."""
        return float(np.mean((self.mean_sq_realized_gap + self.mean_sq_cross_gap)
                             * n_clients))


def clip_bias_terms(trace: Trace) -> BiasReport:
    """Per-round clipping-bias gaps and the averaged factors gamma1, gamma2.

    The gaps are row means of (T, N) arrays: a mean along a row runs the
    same pairwise sum as the mean of that row alone, so each round's values
    are those of a per-round computation, bit for bit."""
    abars = trace.alpha_bar
    abs_realized, sq_realized = _row_gaps(trace.alphas - trace.alpha_tildes)
    abs_cross, sq_cross = _row_gaps(trace.alpha_tildes - abars[:, None])
    return BiasReport(mean_abs_realized_gap=abs_realized, mean_abs_cross_gap=abs_cross,
                      mean_sq_realized_gap=sq_realized, mean_sq_cross_gap=sq_cross,
                      gamma1=float(np.mean(abars)), gamma2=float(np.mean(abars ** 2)))


def _row_gaps(v):
    """The mean |v| and the mean v ** 2 of each row of the (T, N) array
    ``v``, which is overwritten: |v| squared rounds as v ** 2 does, so one
    array serves both."""
    mean_abs = np.mean(np.abs(v, out=v), axis=1)
    return mean_abs, np.mean(np.square(v, out=v), axis=1)


@dataclass
class BoundInputs:
    f_gap: float
    L: float
    sigma_l: float
    sigma_g: float
    G: float
    d: int
    eta_l: float
    eta_g: float
    Q: float
    T: int
    P: int
    sigma2: float = 0.0
    gamma1: float = 1.0
    gamma2: float = 1.0
    bias_abs_avg: float = 0.0
    bias_sq_sum: float = 0.0
    certified: bool = True  # False when oracle bound violations were recorded


def stepsize_regime(inputs: BoundInputs) -> dict:
    """Pass/fail flags for the stepsize conditions the bound assumes."""
    P, Q, L = inputs.P, inputs.Q, inputs.L
    cap = P / (48.0 * Q)
    if P > 1:
        cap = min(cap, P / (6.0 * Q * L * (P - 1)))
    return {
        "eta_product_ok": inputs.eta_g * inputs.eta_l <= cap,
        "eta_local_ok": inputs.eta_l <= 1.0 / (math.sqrt(60.0) * Q * L),
    }


def theorem1_bound(inputs: BoundInputs) -> dict:
    """Breakdown of the convergence bound on (1/T) sum_t abar^t ||grad f(x_t)||^2.

    Terms: initial gap, client drift, sampling variance, privacy noise, and
    the first / second order clipping-bias terms. The result is marked
    not-certified when the stepsize regime fails or oracle bound violations
    were recorded. At Q = Q_INF the terms that grow with Q, and the total,
    are None, and ``null_reason`` says why; so is a term (and the total)
    that overflows float64, as with very large problem constants.
    """
    if (inputs.eta_g <= 0 or inputs.eta_l <= 0 or inputs.Q <= 0 or inputs.T <= 0
            or inputs.P <= 0 or inputs.L <= 0 or inputs.sigma2 < 0):
        raise ValueError("bound needs eta_g, eta_l, Q, T, P, L > 0 and sigma2 >= 0")
    el, eg, Q, T, P = inputs.eta_l, inputs.eta_g, inputs.Q, inputs.T, inputs.P
    L, G = inputs.L, inputs.G
    terms = {
        "initial_gap": 4.0 * inputs.f_gap / (eg * el * Q * T),
        "drift": 12.5 * el ** 2 * L * Q * (inputs.sigma_l ** 2
                                           + 6.0 * Q * inputs.sigma_g ** 2) * inputs.gamma1,
        "sampling_variance": 6.0 * eg * el * L * inputs.sigma_l ** 2 * inputs.gamma2 / P,
        "privacy_noise": 2.0 * eg * L * inputs.d * inputs.sigma2 / (el * P * Q),
        "clipping_bias_abs": 4.0 * G ** 2 * inputs.bias_abs_avg,
        "clipping_bias_sq": 6.0 * eg * el * L * Q * G ** 2 * inputs.bias_sq_sum / P,
    }
    regime = stepsize_regime(inputs)
    out = dict(terms)
    if Q == Q_INF:
        # drift and the second-order bias term grow with Q: inf or 0 * inf
        out.update(drift=None, clipping_bias_sq=None, total=None,
                   null_reason="not applicable for Q=inf")
    else:
        out["total"] = sum(terms.values())
    overflow = [k for k in (*terms, "total")
                if out[k] is not None and not math.isfinite(out[k])]
    if overflow:
        out.update(dict.fromkeys(overflow + ["total"]),
                   null_reason="; ".join(filter(None, [out.get("null_reason"),
                                                       "overflows float64"])))
    out["regime"] = regime
    out["certified"] = inputs.certified and all(regime.values())
    return out


def initial_gap(trace: Trace) -> tuple[float, str]:
    """The bound's initial gap f(x0) - f*, and how f* was obtained: the
    problem's analytic ``f_star``, or else the lowest loss of any round."""
    prob = trace.problem
    f0 = prob.loss_mean(trace.config.x0)
    if prob.f_star is not None:
        return f0 - prob.f_star, "analytic f_star"
    return f0 - min(trace.loss.tolist()), "min-observed-loss proxy"


def bound_inputs_from_trace(trace: Trace, f_gap: float, report: BiasReport) -> BoundInputs:
    """Assemble BoundInputs from a trace, its initial gap (``initial_gap``)
    and its bias report (``clip_bias_terms``)."""
    cfg, prob = trace.config, trace.problem
    sigma2 = trace.noise_spec.sigma2 if trace.noise_spec is not None else 0.0
    return BoundInputs(
        f_gap=f_gap, L=prob.L, sigma_l=prob.sigma_l, sigma_g=prob.sigma_g,
        G=prob.G, d=prob.dim, eta_l=cfg.eta_l, eta_g=cfg.eta_g,
        Q=cfg.local_steps, T=cfg.rounds, P=cfg.sampled_per_round, sigma2=sigma2,
        gamma1=report.gamma1, gamma2=report.gamma2,
        bias_abs_avg=report.bias_abs_avg(),
        bias_sq_sum=report.bias_sq_sum(prob.n_clients),
        certified=trace.oracle_violations() == 0)


def measured_stationarity(trace: Trace) -> float:
    """(1/T) sum_t abar^t ||grad f(x_t)||^2, the quantity the bound dominates."""
    # float_power calls the C library's pow, as a float's ** 2 does; a
    # square would round differently
    return float(np.mean(trace.alpha_bar * np.float_power(trace.global_grad_norm, 2)))


def corollary1_bound(eta_g, eta_l, Q, T, P, d, N, epsilon, delta,
                     L, f_gap, sigma_l, sigma_g, c_prime, v=2.0) -> dict:
    """Bound under the no-clipping-bias regime c = eta_l Q c' with calibrated
    noise substituted in: ``theorem1_bound`` with gamma1 = gamma2 = 1 and
    zero bias terms. Also reports the sqrt(d)/(N eps) reference scale.
    """
    c = eta_l * Q * c_prime
    spec = calibrate_noise(PrivacyConfig(enabled=True, epsilon=epsilon, delta=delta,
                                         v=v), c, P, N, T, dim=d)
    out = theorem1_bound(BoundInputs(
        f_gap=f_gap, L=L, sigma_l=sigma_l, sigma_g=sigma_g, G=0.0, d=d,
        eta_l=eta_l, eta_g=eta_g, Q=Q, T=T, P=P, sigma2=spec.sigma2))
    out["reference_scale"] = math.sqrt(d) / (N * epsilon)
    return out


def drift_check(trace: Trace) -> dict:
    """Client-drift lemma check: for every round and local step q,
    (1/N) sum_i ||x^t - x_i^{t,q}||^2 <= 5 Q eta_l^2 (sigma_l^2 + 6 Q sigma_g^2)
    + 30 Q^2 eta_l^2 ||grad f(x_t)||^2.

    Trajectories are recomputed deterministically from the trace (the engine
    is counter-seeded, so the replay is exact). Deterministic oracles only.
    """
    cfg, prob = trace.config, trace.problem
    if cfg.noise_mode != "deterministic":
        raise ValueError("drift check requires deterministic oracles")
    Q = cfg.local_steps
    if Q == Q_INF:
        raise ValueError("drift check requires finite Q")
    Q = int(Q)
    el = cfg.eta_l
    rows = []
    ok = True
    # pow, as in measured_stationarity
    for t, gn2 in enumerate(np.float_power(trace.global_grad_norm, 2).tolist()):
        x0 = trace.x[t]
        rhs = (5.0 * Q * el ** 2 * (prob.sigma_l ** 2 + 6.0 * Q * prob.sigma_g ** 2)
               + 30.0 * Q ** 2 * el ** 2 * gn2)
        X = np.tile(x0, (prob.n_clients, 1))
        for q in range(Q):
            D = X - x0
            lhs = float(client_sum(np.vecdot(D, D))) / prob.n_clients
            passed = lhs <= rhs + 1e-15
            ok = ok and passed
            rows.append({"t": t, "q": q, "lhs": lhs,
                         "rhs": rhs, "pass": passed})
            X = X - el * prob.grad_stack(X)
    return {"rows": rows, "pass": ok}


def update_distribution(trace: Trace) -> list:
    """Per-round (magnitude, angle-degrees) pairs plus magnitude summary stats.

    Angles compare each client's raw update with the previous round's mean
    transmitted update; round 0 has no reference and is omitted from angle
    data (pairs carry None).
    """
    out = []
    for t, mags in enumerate(trace.delta_norms):
        out.append({
            "t": t,
            "pairs": list(zip(mags.tolist(), trace.record(t).angles)),
            "magnitude_mean": float(np.mean(mags)),
            "magnitude_var": float(np.var(mags)),
        })
    return out
