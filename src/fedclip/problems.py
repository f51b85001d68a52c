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
from functools import cached_property

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
# by every chunk, plus transients. The broadcast bias add ``Z1 += b1`` makes
# numpy allocate a ufunc buffer (up to 8,192 elements) as large as the array
# it adds to, so the bias is added row by row: the buffer is one (m, h) row,
# not a chunk. Measured with tracemalloc at h = 32 and N = 8, two rows then
# peak at 0.87-0.96x of the per-client pass (m = 50, 200 and minibatches of
# 16 and 30). A budget of 1,536, three rows at m = 16, was measured and not
# taken (BENCH_22.json): it peaks at 1.18x, and on mlp-build-replay it won
# only 7 of 10 run_s pairs while its peak_alloc_mb rose by 0.009 MB.
_MLP_CHUNK_ELEMENTS = 1280


def mlp_grads(W, X, y, hidden, n_classes, idx=None, out=None):
    """Loss gradients of one-hidden-layer MLP clients, one per row of ``W``.

    Row i of the (N, d) parameter stack ``W`` is evaluated on client i of the
    data ``X`` (N, n, in) and labels ``y`` (N, n): on all n samples, or, with
    ``idx`` (N, m), on samples idx[i]. Rows run in chunks of at least two
    (see ``_MLP_CHUNK_ELEMENTS``), each one batched forward and backward pass
    on buffers allocated once per call; each row is what the pass would give
    for that row alone. The hidden bias is added one row of the chunk at a
    time, so numpy's ufunc buffer for that broadcast add is one row's size,
    not the chunk's. The gradients are written into ``out`` (N, d) if it is
    given, else into a new array, which is returned.
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
        for Z1_row, b1 in zip(Z1, Wc[:, o1:o2]):
            Z1_row += b1
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


def mlp_dim(input_dim, hidden, n_classes) -> int:
    """Parameter count of the MLP: W1 (h, in), b1 (h), W2 (C, h), b2 (C)."""
    return hidden * input_dim + hidden + n_classes * hidden + n_classes


def mlp_loss(x, X, y, hidden, n_classes) -> float:
    """``MLPObjective.loss`` of one client's data ``X`` and labels ``y``."""
    din, h, C = X.shape[1], hidden, n_classes
    o1, o2, o3 = h * din, h * din + h, h * din + h + C * h
    Z1 = X @ x[:o1].reshape(h, din).T + x[o1:o2]
    logits = softplus(Z1) @ x[o2:o3].reshape(C, h).T + x[o3:]
    logits = logits - logits.max(axis=1, keepdims=True)
    logZ = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    ll = logits[np.arange(len(y)), y] - logZ[:, 0]
    return float(-ll.mean())


@dataclass(frozen=True)
class ScalarQuadratic:
    """Client loss 0.5 * (x - b)^2 on a one-dimensional iterate."""

    b: float

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

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def dim(self) -> int:
        return mlp_dim(self.X.shape[1], self.hidden, self.n_classes)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    def loss(self, x) -> float:
        return mlp_loss(x, self.X, self.y, self.hidden, self.n_classes)

    def grad(self, x):
        return mlp_grads(x[None], self.X[None], self.y[None], self.hidden,
                         self.n_classes)[0]

    def grad_batch(self, x, indices):
        return mlp_grads(x[None], self.X[None], self.y[None], self.hidden,
                         self.n_classes, idx=np.asarray(indices)[None])[0]


def _stack_clients(clients):
    """The stack (``ProblemInstance.stack``) of the client objects
    ``clients``: linear regressions in one group per row count, in order of
    first appearance, a group of consecutive clients indexed by a slice (so
    that indexing a stack with it makes a view). Mixed kinds, unequal column
    counts or unequal MLP shapes raise ValueError."""
    if not clients:
        raise ValueError("need at least one client")
    kinds = {type(c) for c in clients}
    if len(kinds) > 1:
        raise ValueError("a federation holds clients of one kind, not of "
                         + " and ".join(sorted(k.__name__ for k in kinds)))
    if ScalarQuadratic in kinds:
        return "quadratic", np.array([[c.b] for c in clients])
    if LinearRegressionObjective in kinds:
        if len({c.dim for c in clients}) > 1:
            raise ValueError("all A_i must share the same column dimension")
        n = np.array([c.n_samples for c in clients])
        groups = []
        for rows in (np.flatnonzero(n == k) for k in dict.fromkeys(n.tolist())):
            data = (np.stack([clients[i].A for i in rows]),
                    np.stack([clients[i].b for i in rows]))
            if rows[-1] - rows[0] == len(rows) - 1:  # consecutive clients
                rows = slice(int(rows[0]), int(rows[-1]) + 1)
            groups.append((rows, *data))
        return ("linear", *groups)
    if len({(c.X.shape, c.hidden, c.n_classes) for c in clients}) > 1:
        raise ValueError("MLP clients of a federation need one data shape, "
                         "hidden width and class count")
    c = clients[0]
    return ("mlp", np.stack([c.X for c in clients]), np.stack([c.y for c in clients]),
            c.hidden, c.n_classes)


def _linear_clients(groups):
    """Each client's (A_i, b_i), views of the linear ``groups``, in client order."""
    pairs = [None] * sum(len(A) for _, A, _ in groups)
    for rows, A, b in groups:
        for i, pair in zip(np.arange(len(pairs))[rows].tolist(), zip(A, b)):
            pairs[i] = pair
    return pairs


def _client_views(stack):
    """The client objects of ``stack``, in client order, holding views of it."""
    kind, *data = stack
    if kind == "quadratic":
        return tuple(map(ScalarQuadratic, data[0][:, 0].tolist()))
    if kind == "mlp":
        return tuple(MLPObjective(X, y, *data[2:]) for X, y in zip(*data[:2]))
    return tuple(LinearRegressionObjective(A, b) for A, b in _linear_clients(data))


@dataclass(frozen=True)
class ProblemInstance:
    """A federation of client objectives with known analytic constants.

    ``L`` is the per-client gradient Lipschitz bound, ``G`` the declared
    stochastic-gradient norm bound, ``sigma_l`` the intra-client gradient
    noise level and ``sigma_g`` the inter-client gradient divergence bound.
    The federation is its read-only ``stack``: ("quadratic", b (N, 1));
    ("linear", *groups), one (rows, A (G, n, d), b (G, n)) per row count n,
    rows the group's client indices; or ("mlp", X (N, n, in), y (N, n),
    hidden, n_classes). The instance reads ``n_clients``, ``dim`` and each
    client's row count ``n_samples`` from it once; the client objects
    (``clients``) are views of it, built on first use.
    """

    stack: tuple = field(repr=False, compare=False)
    n_clients: int = field(init=False)
    dim: int = field(init=False)
    n_samples: tuple | None = field(init=False, repr=False, compare=False)  # None: quadratics
    L: float
    G: float
    sigma_l: float
    sigma_g: float
    f_star: float | None = None
    global_optimum: np.ndarray | None = None
    constant_methods: dict = field(default_factory=dict)
    # the linear kind's pseudo-inverses, one stack per group, and eigenvalue
    # stack (``local_minimizers``), computed on first use; an instance made
    # by ``dataclasses.replace`` starts without them
    _spectrum: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    @classmethod
    def from_clients(cls, clients, **constants):
        """The instance of the client objects ``clients``, stacked."""
        return cls(_stack_clients(clients), **constants)

    def __post_init__(self):
        kind, *data = self.stack
        if kind == "linear":
            pairs = _linear_clients(data)
            arrays = [v for _, *group in data for v in group]
            facts = len(pairs), pairs[0][0].shape[1], tuple(len(A) for A, _ in pairs)
        elif kind == "mlp":
            X, y, hidden, n_classes = data
            N, n, din = X.shape
            arrays, facts = (X, y), (N, mlp_dim(din, hidden, n_classes), (n,) * N)
        else:
            arrays, facts = data, (len(data[0]), 1, None)
        for v in arrays:
            v.setflags(write=False)
        for name, value in zip(("n_clients", "dim", "n_samples"), facts):
            object.__setattr__(self, name, value)
        if self.n_clients < 1 or self.dim < 1:
            raise ValueError("need at least one client and one dimension")
        if self.L <= 0 or self.sigma_l < 0 or self.sigma_g < 0:
            raise ValueError("invalid constants: require L > 0, sigma_l >= 0, sigma_g >= 0")
        if not np.isfinite([self.L, self.G, self.sigma_l, self.sigma_g]).all():
            raise ValueError("invalid constants: L, G, sigma_l and sigma_g must be finite")
        if self.f_star is not None and not np.isfinite(self.f_star):
            raise ValueError("invalid constants: f_star must be finite")

    @property
    def kind(self) -> str:
        """The clients' kind: "quadratic", "linear" or "mlp"."""
        return self.stack[0]

    @property
    def affine_grads(self) -> bool:
        """Whether every client's gradient is affine in x. Then a stochastic
        oracle's expected local path is the noise-free one: Gaussian noise has
        zero mean, and a minibatch, drawn independently of the iterate, gives
        an unbiased gradient, so E[grad(x_q)] = grad(E[x_q]) at every step.
        At local_steps: inf the expected endpoint is x_i^* = x + A_i^+ (b_i -
        A_i x), the noise-free endpoint: every step moves in A_i's row space,
        and a phase that converges stops where the full gradient is zero."""
        return self.kind != "mlp"

    @cached_property
    def clients(self) -> tuple:
        """The client objects, views of ``stack`` (``_client_views``), built
        on first use; nothing on the engine's round path reads them."""
        return _client_views(self.stack)

    def grad_stack(self, X, indices=None, out=None):
        """Gradient of client i at row i of the (N, d) stack ``X``, for all i.

        With ``indices``, an (N, B) array of sample indices, row i is client
        i's minibatch gradient on samples indices[i] instead. Quadratic
        clients and MLP clients are evaluated in one batched pass, and
        linear-regression clients in one pass per group of equal row count,
        scattered back to their rows; every row is bit-identical to the
        per-client ``grad`` / ``grad_batch``. The MLP pass runs in
        memory-bounded chunks of rows (``mlp_grads``). The stack is written
        into ``out`` (N, d) if it is given, else into a new array, which is
        returned; ``out`` must not overlap ``X``.
        """
        stacked = self.stack
        kind = stacked[0]
        if kind == "quadratic":
            return np.subtract(X, stacked[1], out=out)
        if kind == "mlp":
            return mlp_grads(X, *stacked[1:], indices, out)
        if out is None:
            out = np.empty(X.shape)
        for rows, A, b in stacked[1:]:
            n = A.shape[1]
            if indices is not None:
                pick = (np.arange(len(A))[:, None], indices[rows])
                A, b = A[pick], b[pick]
            r = np.matmul(A, X[rows, :, None])
            r -= b[..., None]
            G = np.matmul(A.swapaxes(-1, -2), r)
            if indices is not None:
                # grad_batch scales by n / batch size after the product
                G *= n / indices.shape[1]
            out[rows] = G[..., 0]
        return out

    def local_minimizers(self, x):
        """Every client's minimizer nearest ``x`` and the eigenvalues of its
        curvature, for a federation of quadratics or of linear regressions;
        None for the MLP.

        Row i of the (N, d) minimizer stack is x + A_i^+ (b_i - A_i x), the
        point where gradient descent on client i from ``x`` converges: the
        part of ``x`` in the null space of A_i stays. For a quadratic it is
        b_i. Row i of the eigenvalue stack holds the eigenvalues of A_i^T A_i
        that can be nonzero, the squared singular values of A_i, with those
        that the pseudo-inverse treats as zero (below 1e-15 of the largest
        singular value, ``np.linalg.pinv``'s cut) set to 0, and zeros up to
        the federation's largest min(n, d); a quadratic's is 1. The linear
        kind's pseudo-inverses, equal to ``np.linalg.pinv``'s, and eigenvalues
        come from one SVD per row count on the first call and are kept.
        """
        kind, *groups = self.stack
        if kind == "quadratic":
            return groups[0].copy(), np.ones((self.n_clients, 1))
        if kind != "linear":
            return None
        if self._spectrum is None:
            pinvs = []
            width = max(min(A.shape[1:]) for _, A, _ in groups)  # the largest min(n, d)
            eigenvalues = np.zeros((self.n_clients, width))
            for rows, A, _ in groups:
                # np.linalg.pinv's computation, keeping the singular values
                u, s, vt = np.linalg.svd(A, full_matrices=False)
                large = s > 1e-15 * s.max(axis=-1, keepdims=True)
                inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))[..., None]
                pinvs.append(np.matmul(vt.swapaxes(-1, -2), inv * u.swapaxes(-1, -2)))
                eigenvalues[rows, :s.shape[1]] = np.where(large, s * s, 0.0)
            object.__setattr__(self, "_spectrum", (pinvs, eigenvalues))
        pinvs, eigenvalues = self._spectrum
        X = np.empty((self.n_clients, len(x)))
        for (rows, A, b), pinv in zip(groups, pinvs):
            r = b - np.matmul(A, x)
            X[rows] = x + np.matmul(pinv, r[..., None])[..., 0]
        return X, eigenvalues

    def client_grads(self, x):
        """Every client's gradient at the one point ``x``, as an (N, d) stack."""
        return self.grad_stack(np.broadcast_to(x, (self.n_clients, len(x))))

    def grad_mean(self, x):
        return client_sum(self.client_grads(x)) / self.n_clients

    def loss_mean(self, x) -> float:
        """Mean client loss at ``x``. Quadratic clients are evaluated on the
        client stack, linear-regression clients on one stack per group of
        equal row count, and MLP clients one row of the stack at a time, so
        that one client's activations are held; the losses are summed in
        client order, bit-identical to summing each ``loss``."""
        stacked = self.stack
        kind = stacked[0]
        if kind == "quadratic":
            # float_power calls the C library's pow on every entry, as the
            # scalar (x - b) ** 2 does; power and square round differently
            losses = 0.5 * np.float_power(x[0] - stacked[1][:, 0], 2)
        elif kind == "linear":
            losses = np.empty(self.n_clients)
            for rows, A, b in stacked[1:]:
                r = np.matmul(A, x) - b
                losses[rows] = 0.5 * np.vecdot(r, r)
        else:
            X, y, hidden, n_classes = stacked[1:]
            return sum(mlp_loss(x, *data, hidden, n_classes)
                       for data in zip(X, y)) / self.n_clients
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
        if noise_mode == "minibatch" and problem.kind == "quadratic":
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
            idx = np.stack([rng.integers(0, n, size=self.batch_size)
                            for rng, n in zip(self.rngs, self.problem.n_samples)])
            return self.problem.grad_stack(X, idx, out)
        G = self.problem.grad_stack(X, out=out)
        if self.noise_mode == "gaussian" and self.sigma_l > 0:
            d = G.shape[1]
            G += np.stack([rng.normal(0.0, self.sigma_l / np.sqrt(d), size=d)
                           for rng in self.rngs])
        return G

    def count_violations(self, G, running=None):
        """Add to ``violations`` the rows of the gradient stack ``G`` (N, d)
        whose norm exceeds ``grad_bound``, among the rows where the boolean
        mask ``running`` (N,) is true if it is given."""
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
    ``pts`` (rows of an array, or any iterable of points), one client-stack
    evaluation per point."""
    gmax = 0.0
    divmax = 0.0
    for x in pts:
        G = problem.client_grads(x)
        gap = G - client_sum(G) / problem.n_clients
        gmax = max(gmax, float(norms(G).max()))
        divmax = max(divmax, float(norms(gap).max()))
    return gmax, divmax


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
    b = np.array(b_values, dtype=float)
    opt = np.array([b.mean()])
    # gradient gaps are constant in x for unit-curvature quadratics
    sigma_g = float(np.max(np.abs(b - b.mean()))) if len(b) > 1 else 0.0
    radius = max(2.0, 2.0 * float(np.max(np.abs(b - b.mean()))) + 1.0)
    prob = ProblemInstance(("quadratic", b[:, None]), L=1.0, G=0.0, sigma_l=0.0,
                           sigma_g=0.0)
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
    """Ensemble of least-squares clients 0.5 * ||A_i x - b_i||^2. An
    (N, n, d) float64 ``A_list`` with an (N, n) ``b_list`` is the stack's one
    group, not copied but made read-only; lists of the clients' arrays are
    stacked by ``_stack_clients``. L comes from one batched ``eigvalsh`` per
    group; the probe radius from each client's ``lstsq`` minimizer."""
    if len(A_list) != len(b_list) or len(A_list) == 0:
        raise ValueError("need matching nonempty A and b lists")
    if (isinstance(A_list, np.ndarray) and A_list.ndim == 3
            and isinstance(b_list, np.ndarray) and b_list.shape == A_list.shape[:2]):
        stack = ("linear", (slice(0, len(A_list)), np.ascontiguousarray(A_list, dtype=float),
                            np.ascontiguousarray(b_list, dtype=float)))
    else:
        stack = _stack_clients([LinearRegressionObjective(A, b)
                                for A, b in zip(A_list, b_list)])
    L = max(float(np.linalg.eigvalsh(np.matmul(A.swapaxes(-1, -2), A))[:, -1].max())
            for _, A, _ in stack[1:])
    prob = ProblemInstance(stack, L=L, G=0.0, sigma_l=0.0, sigma_g=0.0)
    clients, dim = _linear_clients(stack[1:]), prob.dim
    M = sum(A.T @ A for A, _ in clients)
    rhs = sum(A.T @ b for A, b in clients)
    opt = None
    if np.linalg.matrix_rank(M) == dim:
        opt = np.linalg.solve(M, rhs)
    center = opt if opt is not None else np.zeros(dim)
    spans = [np.linalg.norm(np.linalg.lstsq(A, b, rcond=None)[0] - center)
             for A, b in clients]
    radius = max(2.0, 2.0 * max(spans) + 1.0)
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
                                 heterogeneity=0.0, seed=0, n_classes=2,
                                 input_dim=2, g_bound=None,
                                 sigma_l=0.0) -> ProblemInstance:
    """Synthetic federation of one-hidden-layer classifiers.

    Each client draws Gaussian-mixture data; ``heterogeneity`` interpolates
    from identical label distributions (0) to fully skewed single-class
    partitions (1).
    """
    if hidden_width < 1:
        raise ValueError("hidden width must be >= 1")
    if n_classes < 2:  # one class makes every gradient zero
        raise ValueError(f"problem.n_classes must be at least 2, got {n_classes}")
    if not 0.0 <= heterogeneity <= 1.0:
        raise ValueError("heterogeneity must lie in [0, 1]")
    g = rngmod.stream(seed, "mlp-data")
    # well-separated class means
    angles = 2 * np.pi * np.arange(n_classes) / n_classes
    means = 4.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if input_dim > 2:
        means = np.hstack([means, np.zeros((n_classes, input_dim - 2))])
    means = means[:, :input_dim]
    X = np.empty((N, samples_per_client, input_dim))
    y = np.empty((N, samples_per_client), dtype=int)
    uniform = np.full(n_classes, 1.0 / n_classes)
    for i in range(N):
        skew = np.zeros(n_classes)
        skew[i % n_classes] = 1.0
        p = (1.0 - heterogeneity) * uniform + heterogeneity * skew
        y[i] = g.choice(n_classes, size=samples_per_client, p=p)
        X[i] = means[y[i]] + g.normal(0.0, 0.7, size=(samples_per_client, input_dim))
    prob = ProblemInstance(("mlp", X, y, hidden_width, n_classes), L=1.0, G=0.0,
                           sigma_l=0.0, sigma_g=0.0)
    dim = prob.dim
    # sampled estimates: random pairs for L, random points for G / sigma_g
    est = rngmod.stream(seed, "mlp-constants")
    L = 0.0
    for _ in range(200):
        x1 = est.normal(0.0, 1.0, size=dim)
        x2 = x1 + est.normal(0.0, 0.3, size=dim)
        num = norms(prob.client_grads(x1) - prob.client_grads(x2))
        L = max(L, float(num.max()) / np.linalg.norm(x1 - x2))
    L *= 1.5
    # one point at a time: the stream gives the rows of one (50, dim) draw
    gmax, divmax = _probe_constants(
        prob, (est.normal(0.0, 1.0, size=dim) for _ in range(50)))
    methods = {"L": "sampled pair estimate (x1.5 margin)",
               "sigma_g": "sampled estimate",
               "G": "declared" if g_bound is not None else "sampled estimate"}
    return replace(
        prob, L=float(L), G=float(g_bound) if g_bound is not None else 2.0 * gmax,
        sigma_l=float(sigma_l), sigma_g=divmax, constant_methods=methods)
