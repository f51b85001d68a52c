"""Federated averaging loop with optional clipping and noise injection.

One parameterized round implements plain FedAvg (mode "none", no noise),
its difference-clipped variant, and the differentially private variant
(clipping plus per-client Gaussian perturbation). Rounds are strictly
sequential. Within a round, all N clients run their local phases together
as one (N, d) stack of iterates; every row is computed exactly as a
single-client phase would compute it, and the aggregate is a fixed-order
sum over the sampled slots, so the result is the same bit for bit.

A run's results live in one place, the columns of its ``Trace``:
``run_round`` writes round t's row, and ``Trace.record`` builds the
round's ``RoundRecord`` view from that row.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import clipping, privacy, rng as rngmod
from .problems import ProblemInstance, StackedOracle

Q_INF = math.inf

_DIVERGENCE_NORM = 1e12
_LOCAL_TOL = 1e-12
_LOCAL_MAX_STEPS = 10 ** 6
# A local_steps: inf block holds up to min(_LOCAL_BLOCK_STEPS,
# max(1, _LOCAL_BLOCK_ELEMENTS // (N * d))) steps of the (N, d) stack. A block
# runs on past a row's stopping step and throws those steps away, and each
# block ends in one pass over its history, so the step cap trades wasted
# steps against passes: 64 steps run the table1 grid fastest (32 and 128 are
# slower). The element budget caps the steps a block records at 2,048
# elements (16 KB) per history array, so a stack of more than 1,024 elements
# runs one-step blocks, whose two history arrays of two rows each hold as
# much as the step-by-step loop's four stacks.
_LOCAL_BLOCK_STEPS = 64
_LOCAL_BLOCK_ELEMENTS = 2048


class DivergenceError(RuntimeError):
    def __init__(self, round_index, norm, what=None):
        if what is None:
            what = ("iterate has a NaN entry" if math.isnan(norm) else
                    f"iterate norm {norm:.3e} exceeded {_DIVERGENCE_NORM:.0e}")
        super().__init__(f"{what} at round {round_index}")
        self.round_index = round_index
        self.norm = norm


def _check_finite(v, round_index):
    """Raise DivergenceError when ``v`` (a vector, or any row of a stack) has
    a norm above the divergence limit or a non-finite entry; NaN fails every
    comparison, so the test is written to fail on it."""
    n = clipping.norms(v)
    if not (n <= _DIVERGENCE_NORM).all():
        n = np.atleast_1d(n)
        raise DivergenceError(round_index, float(n[~(n <= _DIVERGENCE_NORM)][0]))


def _integer(v):
    return not isinstance(v, bool) and isinstance(v, (int, np.integer))


def _positive_int(v):
    return _integer(v) and v >= 1


@dataclass(frozen=True)
class RunConfig:
    rounds: int
    local_steps: float  # int, or Q_INF for run-to-convergence local phases
    n_clients: int
    sampled_per_round: int
    eta_l: float
    eta_g: float
    policy: clipping.ClippingPolicy
    privacy: privacy.PrivacyConfig
    seed: int
    x0: np.ndarray
    noise_mode: str = "deterministic"
    batch_size: int | None = None
    # local-phase replays averaged for the expected-path factor alpha~; used
    # only where alpha~ has no exact form: the MLP, and Q_INF with a
    # stochastic oracle (see alpha_tilde_method)
    replay_count: int = 32

    def __post_init__(self):
        if not _positive_int(self.rounds):
            raise ValueError("rounds must be a positive integer")
        if self.local_steps != Q_INF and not _positive_int(self.local_steps):
            raise ValueError("local_steps must be a positive integer or Q_INF")
        if not (_positive_int(self.sampled_per_round)
                and self.sampled_per_round <= self.n_clients):
            raise ValueError("sampled_per_round must be an integer with 1 <= P <= N")
        if not (0 < self.eta_l < math.inf and 0 < self.eta_g < math.inf):  # False for NaN
            raise ValueError("stepsizes must be positive and finite")
        if not _integer(self.seed):
            raise ValueError("seed must be an integer")
        if self.noise_mode not in ("deterministic", "gaussian", "minibatch"):
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")
        if self.noise_mode == "minibatch" and not _positive_int(self.batch_size):
            raise ValueError("minibatch noise needs a positive integer batch_size")
        if not _positive_int(self.replay_count):
            raise ValueError("replay_count must be a positive integer")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if not np.isfinite(self.x0).all():
            raise ValueError("x0 must be finite")


@dataclass
class RoundRecord:
    """One round's public telemetry, as its ``rounds.jsonl`` line holds it
    (``render_record``). A run keeps its rounds as the columns of a
    ``Trace``; a record is a view of one round, built from row t on demand
    (``Trace.record``) as plain Python lists and numbers."""

    t: int
    x: list
    sampled: list
    loss: float
    global_grad_norm: float
    alpha_bar: float
    delta_norms: list
    alphas: list
    alpha_tildes: list  # the alphas list itself when alpha~ is the realized factor
    angles: list  # degrees vs previous round's mean transmitted update; None at t=0


@dataclass
class Trace:
    """A run's rounds as columns: arrays with a leading round axis, row t
    written by ``run_round`` for round t. ``record(t)`` builds round t's
    RoundRecord, so a run holds no per-round Python objects.

    ``x`` has T + 1 rows: row t is the iterate that starts round t, and row
    T the final iterate. ``alpha_tildes`` is the ``alphas`` array itself when
    alpha~ is the realized factor. ``angles`` is NaN where a round has no
    reference update (``referenced`` False: round 0, or a zero mean
    transmitted update) and on a client whose update is zero; the record
    writes None there, and a NaN from any other cause stays NaN."""

    config: RunConfig
    problem: ProblemInstance
    x: np.ndarray                 # (T + 1, d)
    sampled: np.ndarray           # (T, P) client indices
    loss: np.ndarray              # (T,)
    global_grad_norm: np.ndarray  # (T,)
    alpha_bar: np.ndarray         # (T,)
    delta_norms: np.ndarray       # (T, N)
    alphas: np.ndarray            # (T, N)
    alpha_tildes: np.ndarray      # (T, N)
    angles: np.ndarray            # (T, N) degrees
    referenced: np.ndarray        # (T,) bool
    violations: np.ndarray        # (T,) oracle bound violations per round
    noise_spec: privacy.NoiseSpec | None = None

    @classmethod
    def allocate(cls, config: RunConfig, problem: ProblemInstance, noise_spec=None):
        """An unfilled trace with room for ``config.rounds`` rounds."""
        T, N = config.rounds, config.n_clients
        alphas = np.empty((T, N))
        realized = alpha_tilde_method(config, problem) == ALPHA_TILDE_REALIZED
        return cls(config=config, problem=problem, x=np.empty((T + 1, problem.dim)),
                   sampled=np.empty((T, config.sampled_per_round), dtype=np.intp),
                   loss=np.empty(T), global_grad_norm=np.empty(T),
                   alpha_bar=np.empty(T), delta_norms=np.empty((T, N)),
                   alphas=alphas, alpha_tildes=alphas if realized else np.empty((T, N)),
                   angles=np.empty((T, N)), referenced=np.empty(T, dtype=bool),
                   violations=np.empty(T, dtype=np.intp), noise_spec=noise_spec)

    def record(self, t: int) -> RoundRecord:
        """Round ``t``'s RoundRecord, built from row t. Every angle is None
        when the round has no reference update; otherwise an angle is None
        where its client's update is zero."""
        norms, alphas = self.delta_norms[t].tolist(), self.alphas[t].tolist()
        if self.referenced[t]:
            angles = [None if n == 0.0 else a
                      for n, a in zip(norms, self.angles[t].tolist())]
        else:
            angles = [None] * len(norms)
        return RoundRecord(
            t=t, x=self.x[t].tolist(), sampled=self.sampled[t].tolist(),
            loss=float(self.loss[t]), global_grad_norm=float(self.global_grad_norm[t]),
            alpha_bar=float(self.alpha_bar[t]), delta_norms=norms, alphas=alphas,
            alpha_tildes=(alphas if self.alpha_tildes is self.alphas
                          else self.alpha_tildes[t].tolist()),
            angles=angles)

    @property
    def records(self) -> list:
        """Every round's RoundRecord, built at once."""
        return [self.record(t) for t in range(self.config.rounds)]

    def oracle_violations(self) -> int:
        return int(self.violations.sum())


def local_update(objective, oracle, x_start, Q, eta_l):
    """Run Q local SGD steps of one client; return the final iterate and the
    gradient sum.

    With Q = Q_INF, iterate until the step norm falls below 1e-12 (capped at
    1e6 steps). For finite Q, x_final - x_start == -eta_l * grad_sum. The
    engine runs all clients at once (``local_phase``); this single-client
    form is the reference that the batched one must match bit for bit.
    """
    x = np.array(x_start, dtype=float, copy=True)
    gsum = np.zeros_like(x)
    if Q == Q_INF:
        for _ in range(_LOCAL_MAX_STEPS):
            g = oracle.sample(x)
            step = eta_l * g
            x -= step
            gsum += g
            _check_finite(x, -1)
            if np.linalg.norm(step) <= _LOCAL_TOL:
                break
    else:
        for _ in range(int(Q)):
            g = oracle.sample(x)
            x -= eta_l * g
            gsum += g
        _check_finite(x, -1)
    return x, gsum


def local_phase(oracle: StackedOracle, x_start, Q, eta_l, round_index):
    """Local phases of all N clients from ``x_start``, as one (N, d) stack.

    Returns the final iterates and the gradient sums, row i for client i,
    each bit-identical to ``local_update`` of that client with the same
    oracle stream. With Q = Q_INF each row stops on the step where its own
    step norm falls below 1e-12 (``_exhaustive_phase``). A row that
    diverges, or that is still moving after 1e6 steps, raises
    DivergenceError with ``round_index``.
    """
    # overflow and NaN are reported as a DivergenceError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if Q == Q_INF:
            return _exhaustive_phase(oracle, x_start, eta_l, round_index)
        X = np.tile(np.asarray(x_start, dtype=float), (oracle.problem.n_clients, 1))
        gsum = np.zeros_like(X)
        for _ in range(int(Q)):
            G = oracle.sample(X)
            X -= eta_l * G
            gsum += G
        _check_finite(X, round_index)
    return X, gsum


def _exhaustive_phase(oracle, x_start, eta_l, round_index):
    """Run every client's row from ``x_start`` to its own stopping step;
    return the rows' iterates and gradient sums there, as (N, d) stacks.

    The steps run in blocks of 1, 2, 4, ... steps, up to the cap set by
    ``_LOCAL_BLOCK_STEPS`` and ``_LOCAL_BLOCK_ELEMENTS``. Inside a block a
    step only draws the gradients straight into the block's history
    (``StackedOracle.draw`` with ``out``) and forms the iterates in place
    next to them, the step eta_l * g and then x - step, as ``local_update``
    rounds them. One pass over the history then finds each row's stopping
    step (the first whose step norm is at most 1e-12), checks every kept
    iterate for divergence, counts the violations of the kept draws, turns
    the gradients into running sums, added in step order, and keeps each
    row's iterate and gradient sum at its stopping step, as the step-by-step
    loop of ``local_update`` would. A row that stopped in an earlier block
    restarts each block from its kept iterate; its later steps, like the
    steps past its stop within a block, draw only from the phase's own
    streams and are thrown away.
    """
    N, d = oracle.problem.n_clients, len(x_start)
    cap = min(_LOCAL_BLOCK_STEPS, max(1, _LOCAL_BLOCK_ELEMENTS // (N * d)))
    # row 0 holds the block's starting iterates and gradient sums, row j the
    # iterates and gradients of its step j
    Xh = np.empty((cap + 1, N, d))
    Xh[0] = x_start
    Gh = np.zeros((cap + 1, N, d))
    # the rows' views, made once: the step loop then indexes a list
    x_rows, g_rows, draw = list(Xh), list(Gh), oracle.draw
    step_index = np.arange(1, cap + 1)[:, None]
    rows = np.arange(N)
    active = np.ones(N, dtype=bool)
    done, size = 0, 1
    while True:
        k = min(size, cap, _LOCAL_MAX_STEPS - done)
        for j in range(k):
            X, G = x_rows[j + 1], g_rows[j + 1]
            draw(x_rows[j], out=G)
            np.multiply(G, eta_l, out=X)  # the step, then the iterate
            np.subtract(x_rows[j], X, out=X)
        step_norms = clipping.norms(eta_l * Gh[1:k + 1])
        moving = step_norms > _LOCAL_TOL  # False for NaN
        still = moving.all(axis=0)
        # each row's last kept step: its first that did not move, or the
        # block's last; 0 (the start) for rows that stopped in an earlier block
        last = np.where(still, k, moving.argmin(axis=0) + 1) * active
        kept = step_index[:k] <= last
        _check_finite(Xh[1:k + 1][kept], round_index)  # step-major order
        oracle.count_violations(Gh[1:k + 1], kept)
        # the gradient sums, added in step order. accumulate runs one inner
        # loop per entry of a step; blocks of 8 or more steps hold at most
        # 256 entries a step. There it beats the row adds on table1-grid;
        # on the one-step blocks of big stacks it is about 30% slower
        # (BENCH_11.json)
        if k >= 8:
            np.add.accumulate(Gh[:k + 1], axis=0, out=Gh[:k + 1])
        else:
            for j in range(k):
                g_rows[j + 1] += g_rows[j]
        Xh[0], Gh[0] = Xh[last, rows], Gh[last, rows]
        active &= still
        done += k
        if not active.any():
            return Xh[0].copy(), Gh[0].copy()
        if done == _LOCAL_MAX_STEPS:
            raise DivergenceError(
                round_index, float(step_norms[-1][active].max()),
                f"local phase still moving after {_LOCAL_MAX_STEPS} steps")
        size *= 2


def sample_clients(N, P, rng):
    """P i.i.d. uniform draws from {0..N-1} with replacement, sorted."""
    if N < 1 or P < 1:
        raise ValueError("need N >= 1 and P >= 1")
    return np.sort(rng.integers(0, N, size=P))


def _oracle_mode(config, problem) -> str:
    """The noise mode the oracle runs in. A Gaussian oracle with sigma_l = 0
    draws nothing: it is the deterministic oracle, and needs no streams."""
    if config.noise_mode == "gaussian" and problem.sigma_l == 0:
        return "deterministic"
    return config.noise_mode


def _oracle(config, problem, tag, t, *replay):
    """Stacked oracle whose row i draws from stream (seed, tag, t, i, *replay)."""
    mode = _oracle_mode(config, problem)
    rngs = None
    if mode != "deterministic":
        rngs = [rngmod.stream(config.seed, tag, t, i, *replay)
                for i in range(problem.n_clients)]
    return StackedOracle(problem, noise_mode=mode,
                         sigma_l=problem.sigma_l, batch_size=config.batch_size,
                         rngs=rngs, grad_bound=problem.G)


ALPHA_TILDE_REALIZED = "realized (deterministic oracle or no difference clipping)"
ALPHA_TILDE_EXACT = "exact expected path (affine gradients)"


def alpha_tilde_method(config: RunConfig, problem: ProblemInstance) -> str:
    """How ``run_round`` obtains each client's expected-path clip factor
    alpha~, the difference-clip factor of eta_l * E[gradient sum]:

    - ``ALPHA_TILDE_REALIZED``: the realized factor, when the oracle draws
      nothing (the expectation is the realized sum; see ``_oracle_mode``) or
      the policy is not difference clipping;
    - ``ALPHA_TILDE_EXACT``: one noise-free local phase, when every client's
      gradient is affine and Q is finite, since then the expected path is the
      noise-free path (``ProblemInstance.affine_grads``);
    - "mean of R replays": otherwise (the MLP, or Q_INF, whose stopping step
      depends on the draws), the mean gradient sum of R local phases
      replayed on the ("replay", t, i, r) streams.
    """
    if (config.policy.mode != "difference"
            or _oracle_mode(config, problem) == "deterministic"):
        return ALPHA_TILDE_REALIZED
    if config.local_steps != Q_INF and problem.affine_grads:
        return ALPHA_TILDE_EXACT
    return f"mean of {config.replay_count} replays"


def run_round(x, t, config: RunConfig, problem: ProblemInstance, trace: Trace,
              prev_update=None):
    """Execute round t from ``x``: write row t of ``trace`` (and row t + 1 of
    its ``x``) and return the round's mean transmitted update, the next
    round's ``prev_update``. The noise spec is ``trace.noise_spec``.

    All N clients are evaluated (diagnostics average over the full
    federation); only the sampled multiset contributes to the aggregate.
    The expected-path passes draw only from their own streams, so they never
    change the realized trajectory, and their violations are not counted.
    """
    oracle = _oracle(config, problem, "grad", t)
    X, _ = local_phase(oracle, x, config.local_steps, config.eta_l, t)
    deltas = X - x
    transmitted, alphas = clipping.apply_policy(config.policy, X, x)
    method = alpha_tilde_method(config, problem)
    if method == ALPHA_TILDE_REALIZED:
        alpha_tildes = alphas
    else:
        if method == ALPHA_TILDE_EXACT:
            gsum = local_phase(StackedOracle(problem), x, config.local_steps,
                               config.eta_l, t)[1]
        else:
            gsum = np.zeros_like(X)
            for r in range(config.replay_count):
                rep = _oracle(config, problem, "replay", t, r)
                gsum += local_phase(rep, x, config.local_steps, config.eta_l, t)[1]
            gsum /= config.replay_count
        alpha_tildes = clipping.clip_factor(config.eta_l * gsum,
                                            float(config.policy.threshold))

    N = config.n_clients
    if config.sampled_per_round == N:
        # full participation: every client exactly once
        sampled = np.arange(N)
    else:
        sampled = sample_clients(N, config.sampled_per_round,
                                 rngmod.stream(config.seed, "sample", t))
    if config.policy.mode == "model":
        transmitted = transmitted - x
    noise_spec = trace.noise_spec
    agg = np.zeros_like(x)
    for slot, i in enumerate(sampled):
        v = transmitted[i]
        if noise_spec is not None and noise_spec.sigma2 > 0:
            # the aggregate only ever sees clipped-update-plus-noise
            v = v + privacy.draw_noise(noise_spec,
                                       rngmod.stream(config.seed, "noise", t, slot))
        agg += v
    agg /= config.sampled_per_round
    x_next = x + config.eta_g * agg
    _check_finite(x_next, t)

    # large data can overflow the loss or the gradient at a finite iterate
    with np.errstate(over="ignore", invalid="ignore"):
        loss = problem.loss_mean(x)
        grad_norm = float(np.linalg.norm(problem.grad_mean(x)))
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise DivergenceError(t, grad_norm, what="loss or gradient norm is not finite")

    trace.x[t], trace.x[t + 1] = x, x_next
    trace.sampled[t] = sampled
    trace.loss[t], trace.global_grad_norm[t] = loss, grad_norm
    trace.alpha_bar[t] = np.mean(alpha_tildes)
    delta_norms = trace.delta_norms[t] = clipping.norms(deltas)
    trace.alphas[t] = alphas
    if trace.alpha_tildes is not trace.alphas:
        trace.alpha_tildes[t] = alpha_tildes
    angles = _angles_degrees(deltas, delta_norms, prev_update)
    trace.referenced[t] = angles is not None
    trace.angles[t] = math.nan if angles is None else angles
    trace.violations[t] = oracle.violations
    return agg


def _angles_degrees(deltas, delta_norms, ref):
    """Angle in degrees between each row of ``deltas`` and ``ref``, NaN on a
    zero row; None when there is no reference (``ref`` None or zero)."""
    if ref is None:
        return None
    ref_norm = clipping.norms(ref)
    if ref_norm == 0.0:
        return None
    with np.errstate(invalid="ignore"):  # a zero row gives 0/0
        cos = np.vecdot(deltas, ref) / (delta_norms * ref_norm)
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))


def run_experiment(config: RunConfig, problem: ProblemInstance) -> Trace:
    """Run T rounds, resolving an "auto" threshold with a phase-1 pass.

    The phase-1 pass runs the same configuration unclipped, records all
    pre-clip update magnitudes, resolves c = rho * mean, then restarts from
    x0 with the resolved policy.
    """
    if config.n_clients != problem.n_clients:
        raise ValueError("config client count does not match problem")
    if (config.local_steps == Q_INF and config.noise_mode == "gaussian"
            and problem.sigma_l > 0):
        raise ValueError("local_steps inf with a gaussian oracle needs sigma_l = 0: "
                         "the noise keeps every step above the stopping tolerance")
    cfg = config
    if cfg.policy.is_auto:
        cfg = dataclasses.replace(
            cfg, policy=cfg.policy.resolved(_auto_threshold(cfg, problem)))

    noise_spec = None
    if cfg.privacy.enabled:
        c = cfg.policy.finite_threshold
        if c is None:
            raise ValueError("privacy requires a finite clipping threshold")
        noise_spec = privacy.calibrate_noise(
            cfg.privacy, c, cfg.sampled_per_round, cfg.n_clients, cfg.rounds,
            dim=problem.dim)

    trace = Trace.allocate(cfg, problem, noise_spec)
    x, prev = cfg.x0, None
    for t in range(cfg.rounds):
        prev = run_round(x, t, cfg, problem, trace, prev)
        x = trace.x[t + 1]
    return trace


def _auto_threshold(config, problem):
    """c = rho * mean pre-clip update norm of an unclipped, noise-free
    phase-1 run of the same configuration (its trace is dropped here)."""
    phase1 = dataclasses.replace(config, policy=clipping.ClippingPolicy(mode="none"),
                                 privacy=privacy.PrivacyConfig(enabled=False))
    norms = run_experiment(phase1, problem).delta_norms
    return clipping.resolve_auto_threshold(norms.ravel(), config.policy.rho)


# the JSON key of each RoundRecord field, in field order, with its separator
_RECORD_KEYS = tuple((f'"{f.name}":', f.name) for f in dataclasses.fields(RoundRecord))


def _json_text(v) -> str:
    """``v`` as ``json.dumps(v, allow_nan=False)`` writes a None, an int (not
    a bool) or a float."""
    if v is None:
        return "null"
    if type(v) is int:
        return int.__repr__(v)
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _json_texts(values) -> list:
    """``_json_text`` of each entry, with one C-level pass for a list of
    finite floats."""
    try:
        if all(map(math.isfinite, values)):
            return list(map(float.__repr__, values))
    except (TypeError, OverflowError):  # None, or an int beyond float range
        pass
    return [_json_text(v) for v in values]


def render_record(record: RoundRecord) -> tuple[str, str]:
    """One round's ``rounds.jsonl`` line (without its newline) and the text
    of its ``scatter/`` CSV file.

    Each list is turned into text once, and a list that two fields share (the
    realized alpha~ is the alphas list) once for both. A float is written as
    ``float.__repr__``, its shortest round-trip text, as ``json`` and ``csv``
    write it, so the scatter rows reuse the line's ``delta_norms`` and
    ``angles`` texts. The line is ``json.dumps(..., separators=(",", ":"),
    allow_nan=False)`` of the fields in field order, byte for byte. The CSV
    is what ``csv.writer`` writes for the header ``magnitude,angle_degrees``
    and each (magnitude, angle) pair, an angle of None as an empty field. A
    NaN or infinite float raises ValueError, and a value other than None, an
    int, a float or a list of them raises TypeError."""
    texts = {}  # id of each list -> the texts of its entries
    parts = []
    for key, name in _RECORD_KEYS:
        v = getattr(record, name)
        if isinstance(v, list):
            entries = texts.get(id(v))
            if entries is None:
                entries = texts[id(v)] = _json_texts(v)
            parts.append(f"{key}[{','.join(entries)}]")
        else:
            parts.append(key + _json_text(v))
    angles = texts[id(record.angles)]
    if None in record.angles:
        angles = ["" if a is None else s for a, s in zip(record.angles, angles)]
    # a CRLF after every row, as csv.writer ends them
    scatter = "\r\n".join(["magnitude,angle_degrees",
                            *map(",".join, zip(texts[id(record.delta_norms)], angles)), ""])
    return "{" + ",".join(parts) + "}", scatter


def record_to_json(record: RoundRecord) -> str:
    """The record's ``rounds.jsonl`` line, without its newline: strict JSON,
    keys in field order, no spaces, every float its shortest repr (see
    ``render_record``)."""
    return render_record(record)[0]
