"""Norm clipping operator, clipping factors, and transmission policies."""

import math
from dataclasses import dataclass, replace

import numpy as np

AUTO = "auto"


def norms(v):
    """Euclidean norm of a vector, or of each row of a stack of vectors.

    ``sqrt(vecdot(v, v))`` rounds each row exactly like ``np.linalg.norm``
    of that row alone; ``np.linalg.norm(v, axis=-1)`` sums pairwise and can
    differ in the last bit.
    """
    return np.sqrt(np.vecdot(v, v))


def clip_factor(v, c: float):
    """Shrink factor c / max(c, ||v||), always in (0, 1].

    The max form is total: a zero vector (and any ||v|| <= c, including the
    tie ||v|| = c) gets factor exactly 1. For a stack of vectors (the rows
    of ``v``) the result holds one factor per row.
    """
    if c <= 0:
        raise ValueError("clipping threshold must be positive")
    if not math.isfinite(c):
        return _unit_factors(v)
    return c / np.maximum(c, norms(v))


def _unit_factors(v):
    """Factor 1 for every vector in ``v``: a scalar for one vector."""
    return np.ones(np.shape(v)[:-1])[()]


def clip(v, c: float):
    """Scale ``v`` to norm at most ``c``, preserving direction.

    Returns ``v`` unchanged (same values, fresh reference not required) when
    ||v|| <= c.
    """
    f = clip_factor(v, c)
    if f == 1.0:
        return v
    return v * f


@dataclass(frozen=True)
class ClippingPolicy:
    """How a client turns its local result into a transmission.

    mode: "none" | "model" | "difference".
    threshold: positive float, math.inf, or "auto" (resolved to
    rho * mean recorded update norm by a phase-1 run).
    """

    mode: str = "none"
    threshold: float | str | None = None
    rho: float = 0.5

    def __post_init__(self):
        if self.mode not in ("none", "model", "difference"):
            raise ValueError(f"unknown clipping mode {self.mode!r}")
        if self.mode != "none":
            if self.threshold == AUTO:
                if not 0 < self.rho < math.inf:  # False for NaN
                    raise ValueError("auto threshold needs a finite rho > 0")
            elif self.threshold is None or not float(self.threshold) > 0:
                raise ValueError("clipping threshold must be positive or 'auto'")

    @property
    def is_auto(self) -> bool:
        return self.threshold == AUTO

    @property
    def finite_threshold(self) -> float | None:
        """The threshold of a policy that clips, if finite; else None (an
        infinite threshold clips nothing, like mode "none")."""
        c = math.inf if self.mode == "none" else float(self.threshold)
        return c if math.isfinite(c) else None

    def resolved(self, c: float) -> "ClippingPolicy":
        return replace(self, threshold=float(c))


def resolve_auto_threshold(recorded_norms, rho: float) -> float:
    """Threshold rule c = rho * mean of recorded update magnitudes."""
    if len(recorded_norms) == 0:
        raise ValueError("no recorded update norms to resolve threshold from")
    if rho <= 0:
        raise ValueError("rho must be positive")
    return float(rho * np.mean(recorded_norms))


def apply_policy(policy: ClippingPolicy, x_local_final, x_round_start):
    """Produce the transmitted vector and its realized clip factor.

    "difference" clips the update x_final - x_start; "model" clips the final
    model itself (the server later subtracts x_start); "none" transmits the
    raw difference with factor 1. ``x_local_final`` may also be an (N, d)
    stack of client results from one shared start; the result is then an
    (N, d) stack and N factors, each row as the single-vector call gives it.
    """
    if x_local_final.shape[-1:] != x_round_start.shape:
        raise ValueError("vector dimensions do not match")
    if policy.mode == "none":
        delta = x_local_final - x_round_start
        return delta, _unit_factors(delta)
    if policy.is_auto:
        raise ValueError("auto threshold has not been resolved")
    v = x_local_final if policy.mode == "model" else x_local_final - x_round_start
    f = clip_factor(v, float(policy.threshold))
    return v * f[..., None], f
