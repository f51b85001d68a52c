"""Federated averaging loop with optional clipping and noise injection.

One parameterized round implements plain FedAvg (mode "none", no noise),
its difference-clipped variant, and the differentially private variant
(clipping plus per-client Gaussian perturbation). Rounds are strictly
sequential. Within a round, all N clients run their local phases together
as one (N, d) stack of iterates; every row is computed exactly as a
single-client phase would compute it, and the aggregate is a fixed-order
sum over the sampled slots, so the result is the same bit for bit. The
one exception is a run-to-convergence phase of quadratic or
linear-regression clients, which goes straight to each client's exact
local minimizer, under any oracle (``local_phase``).

A run's results live in one place, the columns of its ``Trace``:
``run_round`` writes round t's row, and ``Trace.record`` builds the
round's ``RoundRecord`` view from that row.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import clipping, privacy, rng as rngmod
from .problems import ProblemInstance, StackedOracle, client_sum

Q_INF = math.inf

_DIVERGENCE_NORM = 1e12
_LOCAL_TOL = 1e-12
_LOCAL_MAX_STEPS = 10 ** 6


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
    # only where alpha~ has no exact form: the MLP (see alpha_tilde_method)
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
        """An unfilled trace with room for ``config.rounds`` rounds. A round
        count whose columns cannot be allocated raises ValueError naming
        ``run.rounds``."""
        T, N = config.rounds, config.n_clients
        realized = alpha_tilde_method(config, problem) == ALPHA_TILDE_REALIZED
        try:
            alphas = np.empty((T, N))
            return cls(config=config, problem=problem, x=np.empty((T + 1, problem.dim)),
                       sampled=np.empty((T, config.sampled_per_round), dtype=np.intp),
                       loss=np.empty(T), global_grad_norm=np.empty(T),
                       alpha_bar=np.empty(T), delta_norms=np.empty((T, N)),
                       alphas=alphas, alpha_tildes=alphas if realized else np.empty((T, N)),
                       angles=np.empty((T, N)), referenced=np.empty(T, dtype=bool),
                       violations=np.empty(T, dtype=np.intp), noise_spec=noise_spec)
        except (MemoryError, ValueError) as exc:  # ValueError: "Maximum allowed dimension"
            raise ValueError(f"run.rounds is too large: its trace cannot be "
                             f"allocated ({exc})") from None

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
    1e6 steps), and, under a stochastic oracle, the full-batch step there
    too. For finite Q, x_final - x_start == -eta_l * grad_sum. The
    engine runs all clients at once (``local_phase``); this single-client
    form is the reference that the batched one must match bit for bit,
    except where ``local_phase`` solves a Q_INF phase in closed form.
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
            if np.linalg.norm(step) <= _LOCAL_TOL and (
                    oracle.noise_mode == "deterministic"
                    or np.linalg.norm(eta_l * objective.grad(x)) <= _LOCAL_TOL):
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
    oracle stream. Every step draws the gradients into one (N, d) buffer
    (``StackedOracle.draw`` with ``out``), counts their violations, adds
    them to the sums, and scales the buffer in place into the step
    eta_l * G, so a step allocates no stack of its own. With Q = Q_INF, a
    phase of quadratic or linear-regression clients, under any oracle, goes
    straight to each client's exact local minimizer when the noise-free step
    loop would converge there (``_closed_form_phase``); it draws nothing,
    and its gradient sums are (x_start - X) / eta_l, which no caller reads.
    Every other Q_INF phase runs each row until its own step norm falls
    below 1e-12 (``_exhaustive_phase``). A row that diverges, or that is
    still moving after ``_LOCAL_MAX_STEPS`` steps, raises DivergenceError
    with ``round_index``.
    """
    # overflow and NaN are reported as a DivergenceError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if Q == Q_INF:
            X = _closed_form_phase(oracle, x_start, eta_l, round_index)
            if X is not None:
                return X, (x_start - X) / eta_l
            return _exhaustive_phase(oracle, x_start, eta_l, round_index)
        X = np.empty((oracle.problem.n_clients, len(x_start)))
        X[...] = x_start
        gsum = np.zeros(X.shape)
        G = np.empty(X.shape)
        for _ in range(int(Q)):
            oracle.draw(X, out=G)
            oracle.count_violations(G)
            gsum += G
            G *= eta_l  # the step, rounded as eta_l * G
            X -= G
        _check_finite(X, round_index)
    return X, gsum


def _closed_form_phase(oracle, x_start, eta_l, round_index):
    """Where a local_steps: inf phase of clients with a closed-form
    minimizer (``ProblemInstance.local_minimizers``) ends, as an (N, d)
    stack; None where the step loop must run instead.

    Every step, deterministic or minibatch, moves in A_i's row space, so a
    converging phase ends at x_i^* = x + A_i^+ (b_i - A_i x). The closed
    form applies when the noise-free loop, whose gradient along a row's path
    is (I - eta_l A_i^T A_i)^k g_0, would end there without an error:

    - every row's steps fall below 1e-12 within the step cap:
      rho_i^(cap - 1) ||eta_l g_0|| <= 1e-12, with rho_i = max |1 - eta_l
      lambda| over the nonzero eigenvalues lambda of A_i^T A_i and
      ``_LOCAL_MAX_STEPS`` read now. This needs rho_i < 1, i.e. eta_l lambda
      < 2: every step then contracts the gradient and the iterate's
      distance to x_i^* by at least rho_i;
    - ||x_i^*|| + ||x_start - x_i^*|| is within the divergence limit, which
      bounds every iterate on the path;
    - under the deterministic oracle, no row's starting gradient is over
      ``grad_bound``, so no later one is. A stochastic phase that takes the
      closed form draws nothing, so it counts no violation.

    Under the deterministic oracle, a row whose first step, eta_l g_0, is
    already at most 1e-12 stops after it, as the loop does (the step's norm
    is computed as the loop computes it), and needs no step-cap test. The
    loop would reach x_i^* to within its stopping tolerance; where it stalls
    in rounding a few ulps from a large x_i^* (each step then rounds back to
    the same iterate), the closed form still returns x_i^*.
    """
    problem = oracle.problem
    solved = problem.local_minimizers(x_start)
    if solved is None:
        return None
    X, eigenvalues = solved
    deterministic = oracle.noise_mode == "deterministic"
    G = problem.grad_stack(np.tile(x_start, (problem.n_clients, 1)))
    if (deterministic and oracle.grad_bound is not None
            and (clipping.norms(G) > oracle.grad_bound).any()):
        return None
    step = eta_l * G
    first = clipping.norms(step)
    rho = np.where(eigenvalues > 0, np.abs(1 - eta_l * eigenvalues), 0.0).max(axis=1)
    stops = first <= _LOCAL_TOL
    if not (stops | (rho ** (_LOCAL_MAX_STEPS - 1) * first <= _LOCAL_TOL)).all():
        return None
    if not (clipping.norms(X) + clipping.norms(x_start - X) <= _DIVERGENCE_NORM).all():
        return None
    if deterministic and stops.any():
        X[stops] = x_start - step[stops]
    _check_finite(X, round_index)
    return X


def _exhaustive_phase(oracle, x_start, eta_l, round_index):
    """Run every row from ``x_start`` until its own step norm falls to
    1e-12, and, under a stochastic oracle, its full-batch step there too;
    return the rows' iterates and gradient sums there, as (N, d)
    stacks, each row bit-identical to ``local_update``. ``local_phase`` runs
    it for the local_steps: inf phases that ``_closed_form_phase`` refuses:
    the MLP's, and those of affine clients whose noise-free loop would not
    end at the minimizer. A stopped row is masked out of later updates and
    violation counts; its later draws come only from the phase's own
    streams.
    """
    N = oracle.problem.n_clients
    X = np.empty((N, len(x_start)))
    X[...] = x_start
    gsum = np.zeros(X.shape)
    G = np.empty(X.shape)
    active = np.ones(N, dtype=bool)
    running = active[:, None]  # a view: it follows active
    for _ in range(_LOCAL_MAX_STEPS):
        oracle.draw(X, out=G)
        oracle.count_violations(G, active)
        np.add(gsum, G, out=gsum, where=running)
        G *= eta_l  # the step, rounded as eta_l * G
        np.subtract(X, G, out=X, where=running)
        _check_finite(X, round_index)
        step_norms = clipping.norms(G)
        stops = active & ~(step_norms > _LOCAL_TOL)
        if stops.any() and oracle.noise_mode != "deterministic":
            # a drawn step can be zero away from the minimizer: stop only where
            # the full-batch step is small too (no draw: it counts no violation)
            stops &= ~(clipping.norms(eta_l * oracle.problem.grad_stack(X)) > _LOCAL_TOL)
        active &= ~stops
        if not active.any():
            return X, gsum
    raise DivergenceError(round_index, float(step_norms[active].max()),
                          f"local phase still moving after {_LOCAL_MAX_STEPS} steps")


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
    - ``ALPHA_TILDE_EXACT``: when every client's gradient is affine
      (``ProblemInstance.affine_grads``). At finite Q the expected path is
      the noise-free path, and one noise-free local phase runs it. At Q_INF
      every phase that converges ends at the same point, x_i^* = x + A_i^+
      (b_i - A_i x), and eta_l * E[gradient sum] = x - x_i^*. x_i^* comes
      from ``ProblemInstance.local_minimizers``, so no phase runs: the
      noise-free step loop may diverge where the realized phases converge.
      A realized phase that takes the closed form (``_closed_form_phase``)
      ends at the same x_i^*, so there alpha~ equals alpha bit for bit;
    - "mean of R replays": otherwise (the MLP), the mean gradient sum of R
      local phases replayed on the ("replay", t, i, r) streams.
    """
    if (config.policy.mode != "difference"
            or _oracle_mode(config, problem) == "deterministic"):
        return ALPHA_TILDE_REALIZED
    if problem.affine_grads:
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
    The aggregate is ``client_sum`` of the sampled slots' rows in slot order,
    each plus its own ("noise", t, slot) draw under privacy: bit for bit the
    sum that adds the slots one by one to a zero vector.

    An array lives only while it is read: the realized gradient sums are
    dropped as the local phase returns, and the sampled slots' rows, the
    update norms and the updates' dot products with ``prev_update`` are
    formed before the expected-path passes run, which then hold none of the
    final iterates, the transmitted stack and the update stack; their own
    gradient sums are freed once alpha~ is formed (``_expected_path_factors``).
    The passes still run before the aggregate and its divergence check.
    """
    oracle = _oracle(config, problem, "grad", t)
    X = local_phase(oracle, x, config.local_steps, config.eta_l, t)[0]
    N, P = config.n_clients, config.sampled_per_round
    # an overflow or a NaN is a DivergenceError, not a numpy warning: in an
    # update norm from an x0 that no check has bounded, in the iterate, or in
    # the loss or gradient of large data at a finite iterate; and a zero
    # update gives a 0/0 angle
    with np.errstate(over="ignore", invalid="ignore"):
        transmitted, alphas = clipping.apply_policy(config.policy, X, x)
        # unclipped, the transmitted stack is the update stack X - x itself
        deltas = transmitted if config.policy.mode == "none" else X - x
        sampled = (np.arange(N) if P == N else
                   sample_clients(N, P, rngmod.stream(config.seed, "sample", t)))
        if config.policy.mode == "model":
            transmitted = transmitted - x
        rows = transmitted[sampled]
        # the replays read no stack: keep what the trace needs of them, and
        # free them first
        delta_norms = clipping.norms(deltas)
        dots = None if prev_update is None else np.vecdot(deltas, prev_update)
        del X, transmitted, deltas
        alpha_tildes = alphas
        if trace.alpha_tildes is not trace.alphas:  # alpha~ is not the realized factor
            alpha_tildes = _expected_path_factors(x, t, config, problem)
        noise_spec = trace.noise_spec
        if noise_spec is not None and noise_spec.sigma2 > 0:
            for slot in range(P):
                rows[slot] += privacy.draw_noise(noise_spec,
                                                 rngmod.stream(config.seed, "noise", t, slot))
        # + 0.0 turns a sum of -0.0 rows into the zero vector's +0.0
        agg = client_sum(rows) + 0.0
        agg /= P
        x_next = x + config.eta_g * agg
        _check_finite(x_next, t)
        loss = problem.loss_mean(x)
        g = problem.grad_mean(x)
        grad_norm = math.sqrt(np.vecdot(g, g))
        if not (math.isfinite(loss) and math.isfinite(grad_norm)):
            raise DivergenceError(t, grad_norm, what="loss or gradient norm is not finite")
        trace.x[t], trace.x[t + 1] = x, x_next
        trace.sampled[t] = sampled
        trace.loss[t], trace.global_grad_norm[t] = loss, grad_norm
        trace.alpha_bar[t] = np.add.reduce(alpha_tildes) / N
        trace.delta_norms[t] = delta_norms
        trace.alphas[t] = alphas
        if alpha_tildes is not alphas:
            trace.alpha_tildes[t] = alpha_tildes
        angles = _angles_degrees(dots, delta_norms, prev_update)
    trace.referenced[t] = angles is not None
    trace.angles[t] = math.nan if angles is None else angles
    trace.violations[t] = oracle.violations
    return agg


def _expected_path_factors(x, t, config, problem):
    """Round t's alpha~, the clip factor of eta_l times each client's
    expected gradient sum from ``x``, by ``alpha_tilde_method``: x - x_i^*,
    one noise-free local phase, or the mean of R replays."""
    threshold = float(config.policy.threshold)
    if alpha_tilde_method(config, problem) == ALPHA_TILDE_EXACT:
        if config.local_steps == Q_INF:
            return clipping.clip_factor(x - problem.local_minimizers(x)[0], threshold)
        gsum = local_phase(StackedOracle(problem), x, config.local_steps,
                           config.eta_l, t)[1]
    else:
        gsum = np.zeros((problem.n_clients, len(x)))
        for r in range(config.replay_count):
            rep = _oracle(config, problem, "replay", t, r)
            gsum += local_phase(rep, x, config.local_steps, config.eta_l, t)[1]
        gsum /= config.replay_count
    gsum *= config.eta_l  # rounded as eta_l * gsum
    return clipping.clip_factor(gsum, threshold)


def _angles_degrees(dots, delta_norms, ref):
    """Angle in degrees between each update and ``ref``, from the updates'
    dot products with ``ref`` and their norms; NaN on a zero update (0/0, a
    warning the caller silences); None when there is no reference (``ref``
    None or zero)."""
    if ref is None:
        return None
    ref_norm = clipping.norms(ref)
    if ref_norm == 0.0:
        return None
    cos = dots / (delta_norms * ref_norm)
    np.minimum(cos, 1.0, out=cos)
    np.maximum(cos, -1.0, out=cos)
    return np.degrees(np.arccos(cos, out=cos), out=cos)


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

    # allocated first: a round count too large for it also overflows the noise
    # calibration's floats
    trace = Trace.allocate(cfg, problem)
    if cfg.privacy.enabled:
        c = cfg.policy.finite_threshold
        if c is None:
            raise ValueError("privacy requires a finite clipping threshold")
        trace.noise_spec = privacy.calibrate_noise(
            cfg.privacy, c, cfg.sampled_per_round, cfg.n_clients, cfg.rounds,
            dim=problem.dim)

    trace.x[0], prev = cfg.x0, None
    for t in range(cfg.rounds):
        prev = run_round(trace.x[t], t, cfg, problem, trace, prev)
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
