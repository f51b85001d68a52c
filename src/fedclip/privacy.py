"""Gaussian-mechanism noise calibration and per-client noise injection.

The calibration constants u and v are user-supplied (defaults u=1, v=2); no
formal privacy accounting is performed, as ``CALIBRATION_NOTE`` says.
"""

import math
from dataclasses import dataclass

import numpy as np

CALIBRATION_NOTE = ("calibration constants are user-supplied; "
                    "no formal accounting is performed")


@dataclass(frozen=True)
class PrivacyConfig:
    enabled: bool = False
    epsilon: float = 1.0
    delta: float = 1e-5
    u: float = 1.0
    v: float = 2.0

    def __post_init__(self):
        if not isinstance(self.enabled, bool):
            raise ValueError(f"privacy.enabled must be true or false, got {self.enabled!r}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not (0.0 < self.u < math.inf and 0.0 < self.v < math.inf):
            raise ValueError("calibration constants u, v must be positive and finite")


@dataclass(frozen=True)
class NoiseSpec:
    """Per-client, per-round Gaussian noise with per-coordinate variance sigma2."""

    sigma2: float
    dim: int
    in_regime: bool = True

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError("noise variance must be nonnegative")


def calibrate_noise(cfg: PrivacyConfig, c: float, P: int, N: int, T: int,
                    dim: int = 1) -> NoiseSpec:
    """Noise variance sigma2 = v c^2 P T ln(1/delta) / (N^2 epsilon^2).

    Also checks the validity regime epsilon <= u (P/N)^2 T; the result is
    flagged rather than rejected when the inequality fails.
    """
    if c < 0:
        raise ValueError("clipping threshold must be nonnegative")
    if P <= 0 or N <= 0 or T <= 0:
        raise ValueError("P, N, T must be positive")
    sigma2 = cfg.v * c * c * P * T * math.log(1.0 / cfg.delta) / (N * N * cfg.epsilon ** 2)
    q = P / N
    in_regime = cfg.epsilon <= cfg.u * q * q * T
    return NoiseSpec(sigma2=sigma2, dim=dim, in_regime=in_regime)


def draw_noise(spec: NoiseSpec, rng: np.random.Generator):
    """One i.i.d. Gaussian vector with per-coordinate variance sigma2."""
    if spec.sigma2 == 0.0:
        return np.zeros(spec.dim)
    return rng.normal(0.0, math.sqrt(spec.sigma2), size=spec.dim)


def noise_term_in_bound(spec: NoiseSpec, eta_g: float, eta_l: float,
                        P: int, Q: float, L: float) -> float:
    """Privacy-noise contribution 2 eta_g L d sigma2 / (eta_l P Q), d = spec.dim."""
    if eta_g <= 0 or eta_l <= 0 or P <= 0 or Q <= 0 or L <= 0:
        raise ValueError("all arguments must be positive")
    return 2.0 * eta_g * L * spec.dim * spec.sigma2 / (eta_l * P * Q)
