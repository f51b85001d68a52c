"""Client objective ensembles, gradient oracles, and their analytic constants.

The global objective is the *average* of the client losses,
f(x) = (1/N) sum_i f_i(x); all bound quantities use this convention.
Builders compute smoothness / heterogeneity constants from the data rather
than trusting caller-supplied values, and record how each constant was
obtained in ``ProblemInstance.constant_methods``. The estimates evaluate
every client at once on the (N, d) client stack (``grad_stack``) and sum
clients in a fixed order (``client_sum``), so they equal, bit for bit, a
client-by-client evaluation.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .clipping import norms


def client_sum(V):
    """Sum over the leading (client) axis of ``V`` in client order.

    ``np.sum`` reduces pairwise and rounds differently once there are eight
    or more clients; the running sum matches a client-by-client loop.
    """
    return np.add.accumulate(V, axis=0)[-1]


def softplus(z, out=None):
    # overflow-safe log(1 + exp(z))
    return np.logaddexp(0.0, z, out=out)


def sigmoid(z, out=None, work=None):
    # exp(min(z, 0)) / (1 + exp(-|z|)): for z >= 0 the numerator is 1 and for
    # z < 0 it equals exp(-|z|), so each entry is the one division of the
    # masked form where(z >= 0, 1 / (1 + e), e / (1 + e)), e = exp(-|z|), and
    # neither exp can overflow. The numerator is written into ``out`` (which
    # may be z) and the denominator into ``work``, each a new array if not
    # given; the result is ``out``.
    d = np.abs(z, out=work)
    e = np.minimum(z, 0.0, out=out)
    np.exp(e, out=e)
    np.negative(d, out=d)
    np.exp(d, out=d)
    d += 1.0
    return np.divide(e, d, out=e)


# Elements of one (rows, m, h) activation array in a chunk of the batched MLP
# gradient: a chunk holds max(2, _MLP_CHUNK_ELEMENTS // (m * h)) rows of m
# samples and h hidden units. The floor of two rows halves the chunk count at
# the full-batch shapes, whose m * h exceeds the budget, without leaving the
# memory of the per-client pass: that pass itself peaks at about 6-7
# activation-sized arrays, and a chunk keeps two (rows, m, h) buffers, reused
# by every chunk, plus transients. Measured with tracemalloc on eight shapes
# (m = 16 to 200, h = 8 to 64), two rows peak at 1.01-1.05x of the per-client
# pass, or below it; three rows reach 1.44x at m = 50, h = 32 (1.36x at
# m = 16). One transient is not avoidable: the broadcast ``Z1 += b1`` makes
# numpy's ufunc buffer (up to 8,192 elements) allocate one more chunk-sized
# array, so the budget gives only two rows at m = 16, h = 32.
_MLP_CHUNK_ELEMENTS = 1280


def mlp_grads(W, X, y, hidden, n_classes, idx=None, out=None):
    """Loss gradients of one-hidden-layer MLP clients, one per row of ``W``.

    Row i of the (N, d) parameter stack ``W`` is evaluated on client i of the
    data ``X`` (N, n, in) and labels ``y`` (N, n): on all n samples, or, with
    ``idx`` (N, m), on samples idx[i]. Rows run in chunks of at least two
    (see ``_MLP_CHUNK_ELEMENTS``), each one batched forward and backward pass
    on buffers allocated once per call; each row is what the pass would give
    for that row alone. The gradients are written into ``out`` (N, d) if it
    is given, else into a new array, which is returned.
    """
    N, d = W.shape
    n, din = X.shape[1:]
    h, C = hidden, n_classes
    m = n if idx is None else idx.shape[1]
    o1 = h * din
    o2 = o1 + h
    o3 = o2 + C * h
    if out is None:
        out = np.empty((N, d))
    step = max(2, _MLP_CHUNK_ELEMENTS // (m * h))
    rows = np.arange(min(step, N))[:, None]
    Z1_buf = np.empty((rows.size, m, h))
    H_buf = np.empty_like(Z1_buf)
    logits_buf = np.empty((rows.size, m, C))
    # flat offset of entry (row, sample, class 0) of a chunk's (r, m, C) logits
    base = np.arange(rows.size * m) * C
    for lo in range(0, N, step):
        hi = min(lo + step, N)
        r = hi - lo
        Xc, yc = X[lo:hi], y[lo:hi]
        if idx is not None:
            pick = (rows[:r], idx[lo:hi])
            Xc, yc = Xc[pick], yc[pick]
        Wc = W[lo:hi]
        Z1 = np.matmul(Xc, Wc[:, :o1].reshape(r, h, din).transpose(0, 2, 1),
                       out=Z1_buf[:r])
        Z1 += Wc[:, None, o1:o2]
        H = softplus(Z1, out=H_buf[:r])
        W2 = Wc[:, o2:o3].reshape(r, C, h)
        logits = np.matmul(H, W2.transpose(0, 2, 1), out=logits_buf[:r])
        logits += Wc[:, None, o3:]
        logits -= np.maximum.reduce(logits, axis=2, keepdims=True)
        logits -= np.log(np.add.reduce(np.exp(logits), axis=2, keepdims=True))
        p = np.exp(logits, out=logits)
        # p - one_hot(y), as one subtraction at the label entries; p is a
        # leading slice of a contiguous buffer, so its flat view writes through
        p.reshape(-1)[base[:r * m] + yc.reshape(-1)] -= 1.0
        p /= m
        out[lo:hi, o2:o3] = (p.transpose(0, 2, 1) @ H).reshape(r, -1)
        out[lo:hi, o3:] = np.add.reduce(p, axis=1)
        # H is free once dW2 is formed: the sigmoid's denominator, then dZ1
        s = sigmoid(Z1, out=Z1, work=H)
        dZ1 = np.matmul(p, W2, out=H)
        dZ1 *= s
        out[lo:hi, :o1] = (dZ1.transpose(0, 2, 1) @ Xc).reshape(r, -1)
        out[lo:hi, o1:o2] = np.add.reduce(dZ1, axis=1)
    return out


@dataclass(frozen=True)
class ScalarQuadratic:
    """Client loss 0.5 * (x - b)^2 on a one-dimensional iterate."""

    b: float

    # the gradient is affine in x (see ProblemInstance.affine_grads)
    affine_grad = True

    def loss(self, x) -> float:
        return 0.5 * float((x[0] - self.b) ** 2)

    def grad(self, x):
        return np.array([x[0] - self.b])

    @property
    def local_minimizer(self):
        return np.array([float(self.b)])

    def lipschitz(self) -> float:
        return 1.0


@dataclass(frozen=True)
class LinearRegressionObjective:
    """Client loss 0.5 * ||A x - b||^2."""

    A: np.ndarray
    b: np.ndarray

    affine_grad = True

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]} entries")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def loss(self, x) -> float:
        r = self.A @ x - self.b
        return 0.5 * float(r @ r)

    def grad(self, x):
        return self.A.T @ (self.A @ x - self.b)

    @property
    def n_samples(self) -> int:
        return self.A.shape[0]

    def grad_batch(self, x, indices):
        A = self.A[indices]
        return A.T @ (A @ x - self.b[indices]) * (self.A.shape[0] / len(indices))

    @property
    def local_minimizer(self):
        sol, *_ = np.linalg.lstsq(self.A, self.b, rcond=None)
        return sol

    def lipschitz(self) -> float:
        return float(np.linalg.eigvalsh(self.A.T @ self.A)[-1])


@dataclass(frozen=True)
class MLPObjective:
    """Softmax cross-entropy of a one-hidden-layer softplus network.

    Parameters are a flat vector: W1 (h, in), b1 (h), W2 (C, h), b2 (C).
    Softplus activations keep the loss smooth so the gradient Lipschitz
    constant is finite and estimable.
    """

    X: np.ndarray
    y: np.ndarray
    hidden: int
    n_classes: int

    affine_grad = False

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def dim(self) -> int:
        din = self.X.shape[1]
        return self.hidden * din + self.hidden + self.n_classes * self.hidden + self.n_classes

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    def loss(self, x) -> float:
        din, h, C = self.X.shape[1], self.hidden, self.n_classes
        o1, o2, o3 = h * din, h * din + h, h * din + h + C * h
        Z1 = self.X @ x[:o1].reshape(h, din).T + x[o1:o2]
        logits = softplus(Z1) @ x[o2:o3].reshape(C, h).T + x[o3:]
        logits = logits - logits.max(axis=1, keepdims=True)
        logZ = np.log(np.exp(logits).sum(axis=1, keepdims=True))
        ll = logits[np.arange(len(self.y)), self.y] - logZ[:, 0]
        return float(-ll.mean())

    def grad(self, x):
        return mlp_grads(x[None], self.X[None], self.y[None], self.hidden,
                         self.n_classes)[0]

    def grad_batch(self, x, indices):
        return mlp_grads(x[None], self.X[None], self.y[None], self.hidden,
                         self.n_classes, idx=np.asarray(indices)[None])[0]

    @property
    def local_minimizer(self):
        return None


def _stack_clients(clients):
    """Client data on a leading client axis for ``ProblemInstance.grad_stack``:
    the quadratics' b as (N, 1); or, when every client is a linear regression
    with the same row count n, A as (N, n, d) and b as (N, n), followed by the
    views A^T (N, d, n) and b (N, n, 1) that the gradient multiplies by; or,
    when every client is an MLP of one data shape, X as (N, n, in) and y as
    (N, n); else None, and clients are evaluated one by one."""
    if all(isinstance(c, ScalarQuadratic) for c in clients):
        return "quadratic", np.array([[c.b] for c in clients])
    if (all(isinstance(c, LinearRegressionObjective) for c in clients)
            and len({c.n_samples for c in clients}) == 1):
        A = np.stack([c.A for c in clients])
        b = np.stack([c.b for c in clients])
        return "linear", A, b, A.swapaxes(-1, -2), b[..., None]
    if (all(isinstance(c, MLPObjective) for c in clients)
            and len({(c.X.shape, c.hidden, c.n_classes) for c in clients}) == 1):
        return ("mlp", np.stack([c.X for c in clients]),
                np.stack([c.y for c in clients]))
    return None


@dataclass(frozen=True)
class ProblemInstance:
    """A federation of client objectives with known analytic constants.

    ``L`` is the per-client gradient Lipschitz bound, ``G`` the declared
    stochastic-gradient norm bound, ``sigma_l`` the intra-client gradient
    noise level and ``sigma_g`` the inter-client gradient divergence bound.
    """

    clients: tuple
    dim: int
    L: float
    G: float
    sigma_l: float
    sigma_g: float
    f_star: float | None = None
    global_optimum: np.ndarray | None = None
    constant_methods: dict = field(default_factory=dict)
    # the client data on a leading client axis (``_stack_clients``), computed
    # from ``clients`` when not given; ``dataclasses.replace`` carries it
    # over, so a replaced instance must keep its clients
    _stacked: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.clients) < 1 or self.dim < 1:
            raise ValueError("need at least one client and one dimension")
        if self.L <= 0 or self.sigma_l < 0 or self.sigma_g < 0:
            raise ValueError("invalid constants: require L > 0, sigma_l >= 0, sigma_g >= 0")
        if not np.isfinite([self.L, self.G, self.sigma_l, self.sigma_g]).all():
            raise ValueError("invalid constants: L, G, sigma_l and sigma_g must be finite")
        if self.f_star is not None and not np.isfinite(self.f_star):
            raise ValueError("invalid constants: f_star must be finite")
        if self._stacked is None:
            object.__setattr__(self, "_stacked", _stack_clients(self.clients))

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    @property
    def affine_grads(self) -> bool:
        """Whether every client's gradient is affine in x. Then a stochastic
        oracle's expected local path is the noise-free one: Gaussian noise has
        zero mean, and a minibatch, drawn independently of the iterate, gives
        an unbiased gradient, so E[grad(x_q)] = grad(E[x_q]) at every step."""
        return all(getattr(c, "affine_grad", False) for c in self.clients)

    def grad_stack(self, X, indices=None, out=None):
        """Gradient of client i at row i of the (N, d) stack ``X``, for all i.

        With ``indices``, an (N, B) array of sample indices, row i is client
        i's minibatch gradient on samples indices[i] instead. Quadratic
        clients, linear-regression clients with equal row counts, and MLP
        clients with equal data shapes are evaluated in one batched pass
        whose rows are bit-identical to the per-client ``grad`` /
        ``grad_batch``; the MLP pass runs in memory-bounded chunks of rows
        (``mlp_grads``). Other federations loop over clients. The stack is
        written into ``out`` (N, d) if it is given, else into a new array,
        which is returned; ``out`` must not overlap ``X``.
        """
        stacked = self._stacked
        if stacked is None:
            if indices is None:
                rows = [c.grad(x) for c, x in zip(self.clients, X)]
            else:
                rows = [c.grad_batch(x, idx)
                        for c, x, idx in zip(self.clients, X, indices)]
            return np.stack(rows, out=out)
        kind = stacked[0]
        if kind == "quadratic":
            return np.subtract(X, stacked[1], out=out)
        if kind == "mlp":
            c = self.clients[0]
            return mlp_grads(X, *stacked[1:], c.hidden, c.n_classes, indices, out)
        _, A, b, At, b_col = stacked
        if indices is not None:
            pick = (np.arange(len(A))[:, None], indices)
            A, b = A[pick], b[pick]
            At, b_col = A.swapaxes(-1, -2), b[..., None]
        r = np.matmul(A, X[..., None])
        r -= b_col
        if out is None:
            out = np.empty(X.shape)
        np.matmul(At, r, out=out[..., None])
        if indices is not None:
            # grad_batch scales by n / batch size after the product
            out *= stacked[1].shape[1] / indices.shape[1]
        return out

    def client_grads(self, x):
        """Every client's gradient at the one point ``x``, as an (N, d) stack."""
        return self.grad_stack(np.broadcast_to(x, (self.n_clients, len(x))))

    def grad_mean(self, x):
        return client_sum(self.client_grads(x)) / self.n_clients

    def loss_mean(self, x) -> float:
        """Mean client loss at ``x``. Quadratic clients, and linear-regression
        clients with equal row counts, are evaluated on the client stack and
        summed in client order, bit-identical to summing each ``loss``; other
        federations loop over clients."""
        kind, *data = self._stacked or (None,)
        if kind == "quadratic":
            # float_power calls the C library's pow on every entry, as the
            # scalar (x - b) ** 2 does; power and square round differently
            losses = 0.5 * np.float_power(x[0] - data[0][:, 0], 2)
        elif kind == "linear":
            A, b = data[:2]
            r = np.matmul(A, x) - b
            losses = 0.5 * np.vecdot(r, r)
        else:
            return sum(obj.loss(x) for obj in self.clients) / self.n_clients
        return float(client_sum(losses)) / self.n_clients


class GradientOracle:
    """Stochastic gradient source for one client.

    ``deterministic`` returns the exact gradient; ``gaussian`` adds isotropic
    noise with total second moment sigma_l^2 (per-coordinate variance
    sigma_l^2 / d); ``minibatch`` subsamples data rows. A draw whose norm
    exceeds the declared bound ``grad_bound`` is recorded as a violation
    instead of being projected, so unbiasedness is preserved and bound
    evaluators can refuse to certify.
    """

    def __init__(self, objective, noise_mode="deterministic", sigma_l=0.0,
                 batch_size=None, rng=None, grad_bound=None):
        if noise_mode not in ("deterministic", "gaussian", "minibatch"):
            raise ValueError(f"unknown noise mode {noise_mode!r}")
        if noise_mode != "deterministic" and rng is None:
            raise ValueError("stochastic oracle needs an rng stream")
        if noise_mode == "minibatch" and not hasattr(objective, "grad_batch"):
            raise ValueError("objective does not support minibatch sampling")
        self.objective = objective
        self.noise_mode = noise_mode
        self.sigma_l = float(sigma_l)
        self.batch_size = batch_size
        self.rng = rng
        self.grad_bound = grad_bound
        self.violations = 0

    def sample(self, x):
        if self.noise_mode == "deterministic":
            g = self.objective.grad(x)
        elif self.noise_mode == "gaussian":
            g = self.objective.grad(x)
            if self.sigma_l > 0:
                d = len(g)
                g = g + self.rng.normal(0.0, self.sigma_l / np.sqrt(d), size=d)
        else:
            n = self.objective.n_samples
            idx = self.rng.integers(0, n, size=self.batch_size)
            g = self.objective.grad_batch(x, idx)
        if self.grad_bound is not None and np.linalg.norm(g) > self.grad_bound:
            self.violations += 1
        return g


class StackedOracle:
    """``GradientOracle`` for every client of a problem at once.

    ``sample`` takes an (N, d) stack of iterates, one row per client. Row i
    draws from ``rngs[i]`` what a ``GradientOracle`` for client i would draw
    from the same stream, in the same step order, so each row of a sample is
    bit-identical to that per-client oracle's sample. The deterministic mode
    needs no streams. ``violations`` counts rows over ``grad_bound``: every
    row of a ``sample``, and the rows a caller keeps of a ``draw``, which it
    passes to ``count_violations``.
    """

    def __init__(self, problem, noise_mode="deterministic", sigma_l=0.0,
                 batch_size=None, rngs=None, grad_bound=None):
        if noise_mode not in ("deterministic", "gaussian", "minibatch"):
            raise ValueError(f"unknown noise mode {noise_mode!r}")
        if noise_mode != "deterministic" and rngs is None:
            raise ValueError("stochastic oracle needs one rng stream per client")
        if noise_mode == "minibatch" and not all(hasattr(c, "grad_batch")
                                                 for c in problem.clients):
            raise ValueError("objective does not support minibatch sampling")
        self.problem = problem
        self.noise_mode = noise_mode
        self.sigma_l = float(sigma_l)
        self.batch_size = batch_size
        self.rngs = rngs
        self.grad_bound = grad_bound
        self.violations = 0

    def draw(self, X, out=None):
        """One gradient per row of ``X``, row i for client i, counting no
        violations (see ``count_violations``). The stack is written into
        ``out`` if it is given, as ``ProblemInstance.grad_stack`` writes."""
        if self.noise_mode == "minibatch":
            idx = np.stack([rng.integers(0, c.n_samples, size=self.batch_size)
                            for rng, c in zip(self.rngs, self.problem.clients)])
            return self.problem.grad_stack(X, idx, out)
        G = self.problem.grad_stack(X, out=out)
        if self.noise_mode == "gaussian" and self.sigma_l > 0:
            d = G.shape[1]
            G += np.stack([rng.normal(0.0, self.sigma_l / np.sqrt(d), size=d)
                           for rng in self.rngs])
        return G

    def count_violations(self, G, running=None):
        """Add to ``violations`` the rows of the gradient stack ``G``
        (..., N, d) whose norm exceeds ``grad_bound``, among the rows where
        the boolean mask ``running`` (..., N) is true if it is given."""
        if self.grad_bound is not None:
            over = norms(G) > self.grad_bound
            if running is not None:
                over &= running
            self.violations += int(np.count_nonzero(over))

    def sample(self, X):
        """``draw``, with the violations of every row counted."""
        G = self.draw(X)
        self.count_violations(G)
        return G


def _probe_grid(center, radius, dim):
    if not np.isfinite(radius):
        raise ValueError("probe radius overflows: the client data is too large")
    g = rngmod.stream(12345, "probe")
    pts = center + g.uniform(-radius, radius, size=(64, dim))
    return np.vstack([pts, center.reshape(1, -1)])


def _probe_constants(problem, pts):
    """Max gradient norm and max client-vs-mean gradient gap over the points
    ``pts``, one client-stack evaluation per point."""
    gmax = 0.0
    divmax = 0.0
    for x in pts:
        G = problem.client_grads(x)
        gap = G - client_sum(G) / problem.n_clients
        gmax = max(gmax, float(norms(G).max()))
        divmax = max(divmax, float(norms(gap).max()))
    return gmax, divmax


def _provisional(clients, dim, L=1.0):
    """An instance to evaluate ``grad_stack`` on while a builder estimates its
    constants; the builder fills them in with ``dataclasses.replace``, which
    keeps the stacked client data. The clients are rebuilt as views of that
    data, so the federation holds it once."""
    stacked = _stack_clients(clients)
    if stacked is not None and stacked[0] != "quadratic":
        kind, *data = stacked
        names = ("A", "b") if kind == "linear" else ("X", "y")
        clients = tuple(replace(c, **dict(zip(names, rows)))
                        for c, rows in zip(clients, zip(*data[:2])))
    return ProblemInstance(clients=clients, dim=dim, L=L, G=0.0, sigma_l=0.0,
                           sigma_g=0.0, _stacked=stacked)


# The builders of user-supplied data run without numpy's overflow and
# invalid-value warnings: a constant that overflows comes out non-finite, and
# ProblemInstance rejects it. The MLP builder generates its own data and runs
# without: under errstate a small ufunc call costs about twice as much.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def build_quadratic_ensemble(b_values, g_bound=None, sigma_l=0.0) -> ProblemInstance:
    """Ensemble of scalar quadratics 0.5 * (x - b_i)^2."""
    if len(b_values) == 0:
        raise ValueError("b_values must be nonempty")
    b = np.asarray(b_values, dtype=float)
    clients = tuple(ScalarQuadratic(float(bi)) for bi in b)
    opt = np.array([b.mean()])
    # gradient gaps are constant in x for unit-curvature quadratics
    sigma_g = float(np.max(np.abs(b - b.mean()))) if len(b) > 1 else 0.0
    radius = max(2.0, 2.0 * float(np.max(np.abs(b - b.mean()))) + 1.0)
    prob = _provisional(clients, 1)
    gmax, _ = _probe_constants(prob, _probe_grid(opt, radius, 1))
    methods = {"L": "max eigenvalue (exact, unit curvature)",
               "sigma_g": "closed form (constant gradient gaps)",
               "G": "declared" if g_bound is not None else "probe-grid estimate"}
    return replace(
        prob, G=float(g_bound) if g_bound is not None else gmax,
        sigma_l=float(sigma_l), sigma_g=sigma_g, f_star=prob.loss_mean(opt),
        global_optimum=opt, constant_methods=methods)


@_quiet_overflow
def build_linear_regression_ensemble(A_list, b_list, g_bound=None,
                                     sigma_l=0.0) -> ProblemInstance:
    """Ensemble of least-squares clients 0.5 * ||A_i x - b_i||^2."""
    if len(A_list) != len(b_list) or len(A_list) == 0:
        raise ValueError("need matching nonempty A and b lists")
    clients = tuple(LinearRegressionObjective(A, b) for A, b in zip(A_list, b_list))
    dim = clients[0].dim
    if any(c.dim != dim for c in clients):
        raise ValueError("all A_i must share the same column dimension")
    L = max(c.lipschitz() for c in clients)
    M = sum(c.A.T @ c.A for c in clients)
    rhs = sum(c.A.T @ c.b for c in clients)
    opt = None
    if np.linalg.matrix_rank(M) == dim:
        opt = np.linalg.solve(M, rhs)
    center = opt if opt is not None else np.zeros(dim)
    spans = [np.linalg.norm(c.local_minimizer - center) for c in clients]
    radius = max(2.0, 2.0 * max(spans) + 1.0)
    prob = _provisional(clients, dim, L=L)
    gmax, divmax = _probe_constants(prob, _probe_grid(center, radius, dim))
    methods = {"L": "max eigenvalue of A_i^T A_i over clients",
               "sigma_g": "probe-grid estimate",
               "G": "declared" if g_bound is not None else "probe-grid estimate"}
    return replace(
        prob, G=float(g_bound) if g_bound is not None else gmax,
        sigma_l=float(sigma_l), sigma_g=divmax,
        f_star=None if opt is None else prob.loss_mean(opt),
        global_optimum=opt, constant_methods=methods)


def build_mlp_synthetic_ensemble(hidden_width, N, samples_per_client,
                                 heterogeneity, seed, n_classes=2,
                                 input_dim=2, g_bound=None,
                                 sigma_l=0.0) -> ProblemInstance:
    """Synthetic federation of one-hidden-layer classifiers.

    Each client draws Gaussian-mixture data; ``heterogeneity`` interpolates
    from identical label distributions (0) to fully skewed single-class
    partitions (1).
    """
    if hidden_width < 1:
        raise ValueError("hidden width must be >= 1")
    if not 0.0 <= heterogeneity <= 1.0:
        raise ValueError("heterogeneity must lie in [0, 1]")
    g = rngmod.stream(seed, "mlp-data")
    # well-separated class means
    angles = 2 * np.pi * np.arange(n_classes) / n_classes
    means = 4.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if input_dim > 2:
        means = np.hstack([means, np.zeros((n_classes, input_dim - 2))])
    means = means[:, :input_dim]
    clients = []
    uniform = np.full(n_classes, 1.0 / n_classes)
    for i in range(N):
        skew = np.zeros(n_classes)
        skew[i % n_classes] = 1.0
        p = (1.0 - heterogeneity) * uniform + heterogeneity * skew
        y = g.choice(n_classes, size=samples_per_client, p=p)
        X = means[y] + g.normal(0.0, 0.7, size=(samples_per_client, input_dim))
        clients.append(MLPObjective(X=X, y=y, hidden=hidden_width, n_classes=n_classes))
    clients = tuple(clients)
    dim = clients[0].dim
    prob = _provisional(clients, dim)
    # sampled estimates: random pairs for L, random points for G / sigma_g
    est = rngmod.stream(seed, "mlp-constants")
    L = 0.0
    for _ in range(200):
        x1 = est.normal(0.0, 1.0, size=dim)
        x2 = x1 + est.normal(0.0, 0.3, size=dim)
        num = norms(prob.client_grads(x1) - prob.client_grads(x2))
        L = max(L, float(num.max()) / np.linalg.norm(x1 - x2))
    L *= 1.5
    gmax, divmax = _probe_constants(prob, est.normal(0.0, 1.0, size=(50, dim)))
    methods = {"L": "sampled pair estimate (x1.5 margin)",
               "sigma_g": "sampled estimate",
               "G": "declared" if g_bound is not None else "sampled estimate"}
    return replace(
        prob, L=float(L), G=float(g_bound) if g_bound is not None else 2.0 * gmax,
        sigma_l=float(sigma_l), sigma_g=divmax, constant_methods=methods)
