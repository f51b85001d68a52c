"""The four benchmark workloads, generated from the benchmark seed.

The program under test sees only what a user would give it: a YAML config
for ``fedclip run`` (written by the benchmark) or the ``fedclip table1``
arguments. Each workload records which layers it loads, which it bypasses
and what the open ROADMAP items should do to it, so a later performance
change can be checked against a prediction written before the change. Why
each workload exists is in BENCHMARK.json.

Shapes are sized so that one CLI invocation takes about 0.5-1.5 s on a
2-core machine: a run then holds a dozen or more timed invocations. Runtime
depends on the shapes, not on the seed, so every seed costs the same.
"""

from dataclasses import dataclass

import numpy as np

# Seed at which the iterate-trajectory digests in digests.json were recorded.
DEFAULT_SEED = 1

# Rounds of fixedpoint.table1_grid's four engine simulations (80 + 700 + 8 + 30)
# on its N=3 ensemble; table1 has no config to read them from.
TABLE1_CLIENT_UPDATES = 3 * (80 + 700 + 8 + 30)


@dataclass(frozen=True)
class Workload:
    name: str             # its ``why`` is in BENCHMARK.json
    loads: tuple          # layers this workload is built to load
    bypasses: tuple       # layers it does not reach, or reaches trivially
    predictions: dict     # planned change -> predicted metric movement
    make_config: object   # seed -> config dict; None for table1-grid

    def client_updates(self, config) -> int:
        """Client local phases simulated per invocation: N x rounds, counting
        the auto-threshold phase-1 pass. Replays are not client updates."""
        if config is None:
            return TABLE1_CLIENT_UPDATES
        p, r = config["problem"], config["run"]
        n = p["n_clients"] if p["kind"] == "mlp" else len(
            p["b"] if p["kind"] == "quadratic" else p["A"])
        passes = 2 if config.get("clipping", {}).get("threshold") == "auto" else 1
        return n * r["rounds"] * passes


def _rng(seed, tag):
    return np.random.default_rng([int(seed), tag])


def quad_fedavg_dp(seed):
    g = _rng(seed, 1)
    return {
        "problem": {"kind": "quadratic", "b": g.normal(0.0, 2.0, size=100).tolist()},
        "run": {"rounds": 40, "local_steps": 5, "sampled_per_round": 10,
                "eta_l": 0.05, "eta_g": 1.0, "seed": int(seed),
                "x0": float(g.uniform(2.0, 4.0))},
        "clipping": {"mode": "difference", "threshold": "auto", "rho": 0.5},
        "privacy": {"enabled": True, "epsilon": 1.5, "delta": 1.0e-5},
    }


def linreg_minibatch_replay(seed):
    g = _rng(seed, 2)
    n_clients, n, d = 20, 30, 10
    A = g.normal(0.0, 1.0, size=(n_clients, n, d))
    # heterogeneous client optima around a shared one
    x_true = g.normal(0.0, 1.0, size=d) + g.normal(0.0, 0.5, size=(n_clients, d))
    b = np.einsum("ind,id->in", A, x_true) + g.normal(0.0, 0.1, size=(n_clients, n))
    return {
        "problem": {"kind": "linear_regression", "A": A.tolist(), "b_list": b.tolist()},
        "run": {"rounds": 8, "local_steps": 5, "sampled_per_round": 5,
                "eta_l": 0.002, "eta_g": 1.0, "seed": int(seed), "x0": 0.0,
                "noise_mode": "minibatch", "batch_size": 8},
        "clipping": {"mode": "difference", "threshold": 1.0},
    }


def mlp_build_replay(seed):
    g = _rng(seed, 3)
    hidden, input_dim, n_classes = 32, 2, 4
    dim = hidden * input_dim + hidden + n_classes * hidden + n_classes
    return {
        "problem": {"kind": "mlp", "hidden_width": hidden, "n_clients": 8,
                    "samples_per_client": 50, "n_classes": n_classes,
                    "input_dim": input_dim, "heterogeneity": 0.5, "seed": int(seed)},
        "run": {"rounds": 8, "local_steps": 2, "sampled_per_round": 4,
                "eta_l": 0.05, "eta_g": 1.0, "seed": int(seed),
                "x0": g.normal(0.0, 0.5, size=dim).tolist(),
                "noise_mode": "minibatch", "batch_size": 16},
        "clipping": {"mode": "difference", "threshold": 0.5},
    }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="quad-fedavg-dp",
        loads=("engine", "clipping", "privacy", "diagnostics", "cli", "problems.oracle"),
        bypasses=("engine replays", "problems build (probe grid only)", "fixedpoint"),
        predictions={
            "item 2 (batch clients)": "run_s falls most here, client_updates_per_s "
                                      "rises; engine.local_update_s, problems.oracle_s, "
                                      "engine.round_self_s and engine.phase1_s fall",
            "item 3 (exact alpha~)": "no change: deterministic oracle, "
                                     "engine.replay_share is already 0",
            "MLP constant batching": "no change",
        },
        make_config=quad_fedavg_dp),
    Workload(
        name="linreg-minibatch-replay",
        loads=("engine replays", "rng", "problems.grad_batch", "clipping"),
        bypasses=("privacy", "auto threshold", "fixedpoint"),
        predictions={
            "item 2 (batch clients)": "run_s falls a little (equal row counts stack); "
                                      "replays still dominate",
            "item 3 (exact alpha~)": "run_s falls most here, client_updates_per_s "
                                     "rises; engine.replay_share 0.97 -> 0; "
                                     "rng.streams and problems.oracle_samples drop "
                                     "about 33x; the x trajectory is unchanged",
            "MLP constant batching": "no change",
        },
        make_config=linreg_minibatch_replay),
    Workload(
        name="mlp-build-replay",
        loads=("problems build (constant estimation)", "problems.grad_batch",
               "engine replays", "rng"),
        bypasses=("privacy", "auto threshold", "fixedpoint"),
        predictions={
            "item 2 (batch clients)": "run_s - setup_s falls (batched forward over "
                                      "clients); setup_s unchanged; peak_alloc_mb "
                                      "rises past its bound if the R*N*n*h hidden "
                                      "activations (0.8 MB) are built at once",
            "item 3 (exact alpha~)": "replays stay on the nonlinear kernel: "
                                     "engine.replay_share stays 0.97; run_s falls "
                                     "only if the replays are batched",
            "MLP constant batching": "setup_s and problems.build_s fall, "
                                     "problems.grad_evals drops; the trajectory is "
                                     "unchanged",
        },
        make_config=mlp_build_replay),
    Workload(
        name="table1-grid",
        loads=("fixedpoint", "engine per-step overhead (Q=inf)"),
        bypasses=("diagnostics", "cli.write_artifacts", "privacy", "engine replays"),
        predictions={
            "item 2 (batch clients)": "little change: N=3 and Q=inf, so per-step "
                                      "overhead dominates",
            "item 3 (exact alpha~)": "no change: deterministic, no replays",
            "MLP constant batching": "no change",
        },
        make_config=None),
)}
