"""Experiment runner: declarative configs in, JSONL/CSV/JSON artifacts out.

Exit codes: 0 success, 2 config error, 3 divergence. Errors are emitted as
one machine-readable JSON object per line on stderr.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import diagnostics, engine, fixedpoint, privacy
from .clipping import AUTO, ClippingPolicy
from .privacy import PrivacyConfig
from .problems import (build_linear_regression_ensemble,
                       build_mlp_synthetic_ensemble, build_quadratic_ensemble)


# libyaml's parser when PyYAML was built with it: same result, ~8x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    pass


def _check_keys(d, allowed, section):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {', '.join(unknown)}")


def _parse_threshold(v):
    if v is None:
        return None
    if v == AUTO:
        return AUTO
    if v in ("inf", ".inf"):
        return math.inf
    return float(v)


@dataclass
class ExperimentConfig:
    problem: dict
    run: dict
    clipping: dict = field(default_factory=dict)
    privacy: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    replicates: dict = field(default_factory=dict)

    PROBLEM_KEYS = ("kind", "b", "A", "b_list", "hidden_width", "n_clients",
                    "samples_per_client", "heterogeneity", "n_classes",
                    "input_dim", "seed", "g_bound")
    RUN_KEYS = ("rounds", "local_steps", "sampled_per_round", "eta_l", "eta_g",
                "seed", "x0", "noise_mode", "batch_size", "replay_count")
    CLIP_KEYS = ("mode", "threshold", "rho")
    PRIVACY_KEYS = ("enabled", "epsilon", "delta", "u", "v")
    OUTPUT_KEYS = ("directory",)
    REPLICATE_KEYS = ("seeds",)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        _check_keys(raw, ("problem", "run", "clipping", "privacy", "output",
                          "replicates"), "config")
        for section in ("problem", "run"):
            if section not in raw:
                raise ConfigError(f"missing required section {section!r}")
        _check_keys(raw["problem"], cls.PROBLEM_KEYS, "problem")
        _check_keys(raw["run"], cls.RUN_KEYS, "run")
        _check_keys(raw.get("clipping", {}), cls.CLIP_KEYS, "clipping")
        _check_keys(raw.get("privacy", {}), cls.PRIVACY_KEYS, "privacy")
        _check_keys(raw.get("output", {}), cls.OUTPUT_KEYS, "output")
        _check_keys(raw.get("replicates", {}), cls.REPLICATE_KEYS, "replicates")
        return cls(problem=dict(raw["problem"]), run=dict(raw["run"]),
                   clipping=dict(raw.get("clipping", {})),
                   privacy=dict(raw.get("privacy", {})),
                   output=dict(raw.get("output", {})),
                   replicates=dict(raw.get("replicates", {})))

    def build_problem(self):
        p = self.problem
        kind = p.get("kind")
        g_bound = p.get("g_bound")
        if kind == "quadratic":
            return build_quadratic_ensemble(p["b"], g_bound=g_bound)
        if kind == "linear_regression":
            A = [np.asarray(a, dtype=float) for a in p["A"]]
            b = [np.atleast_1d(np.asarray(v, dtype=float)) for v in p["b_list"]]
            return build_linear_regression_ensemble(A, b, g_bound=g_bound)
        if kind == "mlp":
            return build_mlp_synthetic_ensemble(
                hidden_width=p["hidden_width"], N=p["n_clients"],
                samples_per_client=p["samples_per_client"],
                heterogeneity=p.get("heterogeneity", 0.0),
                seed=p.get("seed", 0), n_classes=p.get("n_classes", 2),
                input_dim=p.get("input_dim", 2), g_bound=g_bound)
        raise ConfigError(f"unknown problem kind {kind!r}")

    def build_run_config(self, problem, seed=None) -> engine.RunConfig:
        r = self.run
        q = r["local_steps"]
        q = engine.Q_INF if q in ("inf", ".inf") else q
        x0 = r.get("x0", 0.0)
        if np.isscalar(x0):
            x0 = np.full(problem.dim, float(x0))
        else:
            x0 = np.asarray(x0, dtype=float)
        if x0.shape != (problem.dim,):
            raise ConfigError(f"x0 has dimension {x0.shape}, problem needs {problem.dim}")
        c = self.clipping
        policy = ClippingPolicy(mode=c.get("mode", "none"),
                                threshold=_parse_threshold(c.get("threshold")),
                                rho=float(c.get("rho", 0.5)))
        pv = self.privacy
        privacy_cfg = PrivacyConfig(
            enabled=pv.get("enabled", False),
            epsilon=float(pv.get("epsilon", 1.0)),
            delta=float(pv.get("delta", 1e-5)),
            u=float(pv.get("u", 1.0)), v=float(pv.get("v", 2.0)))
        # counts and seeds go unconverted, so RunConfig refuses a non-integer
        return engine.RunConfig(
            rounds=r["rounds"], local_steps=q,
            n_clients=problem.n_clients,
            sampled_per_round=r["sampled_per_round"],
            eta_l=float(r["eta_l"]), eta_g=float(r["eta_g"]),
            policy=policy, privacy=privacy_cfg,
            seed=r.get("seed", 0) if seed is None else seed, x0=x0,
            noise_mode=r.get("noise_mode", "deterministic"),
            batch_size=r.get("batch_size"),
            replay_count=r.get("replay_count", 32))

    def replicate_seeds(self):
        seeds = self.replicates.get("seeds")
        if seeds is None:
            return [self.run.get("seed", 0)]
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError("replicates.seeds must be a non-empty list")
        if len(set(seeds)) != len(seeds):
            raise ConfigError(f"replicates.seeds repeats a seed: {seeds}")
        return seeds


def load_config(path) -> ExperimentConfig:
    try:
        raw = yaml.load(Path(path).read_text(), Loader=_YAML_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def write_artifacts(trace: engine.Trace, outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "rounds.jsonl", "w") as fh:
        for rec in trace.records:
            fh.write(engine.record_to_json(rec) + "\n")

    report = diagnostics.clip_bias_terms(trace)
    with open(outdir / "bias.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "alpha_bar", "mean_abs_realized_gap", "mean_abs_cross_gap",
                    "mean_sq_realized_gap", "mean_sq_cross_gap"])
        for r in report.rounds:
            w.writerow([r.t, r.alpha_bar, r.mean_abs_realized_gap,
                        r.mean_abs_cross_gap, r.mean_sq_realized_gap,
                        r.mean_sq_cross_gap])

    prob = trace.problem
    last = trace.rounds[-1]
    f_gap, f_gap_method = diagnostics.initial_gap(trace)
    bound = diagnostics.theorem1_bound(
        diagnostics.bound_inputs_from_trace(trace, f_gap, report))
    bound["f_gap_method"] = f_gap_method
    bound["measured_stationarity"] = diagnostics.measured_stationarity(trace)
    bound["constant_methods"] = prob.constant_methods
    bound["alpha_tilde_method"] = engine.alpha_tilde_method(trace.config, prob)
    if trace.noise_spec is not None:
        bound["calibration_note"] = privacy.CALIBRATION_NOTE
    with open(outdir / "bound.json", "w") as fh:
        json.dump(bound, fh, indent=2, allow_nan=False)

    scatter = outdir / "scatter"
    scatter.mkdir(exist_ok=True)
    for row in diagnostics.update_distribution(trace):
        with open(scatter / f"round_{row['t']:04d}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["magnitude", "angle_degrees"])
            for mag, ang in row["pairs"]:
                w.writerow([mag, "" if ang is None else ang])

    threshold = trace.config.policy.finite_threshold
    summary = {
        "seed": trace.config.seed,
        "rounds": trace.config.rounds,
        "final_loss": last.record.loss,
        "final_grad_norm": last.record.global_grad_norm,
        "final_x_norm": float(np.linalg.norm(last.x_next)),
        "gamma1": report.gamma1,
        "gamma2": report.gamma2,
        "sigma2": 0.0 if trace.noise_spec is None else trace.noise_spec.sigma2,
        "threshold": "" if threshold is None else threshold,
        "oracle_violations": trace.oracle_violations(),
    }
    with open(outdir / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(summary))
        w.writerow(list(summary.values()))
    return summary


def _parse_seed_override(text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"--seed-override must be an integer, got {text!r}") from None


def cmd_run(config_path, out=None, seed_override=None) -> int:
    cfg = load_config(config_path)
    outdir = Path(out if out is not None else cfg.output.get("directory", "out"))
    try:
        problem = cfg.build_problem()
        seeds = (cfg.replicate_seeds() if seed_override is None
                 else [_parse_seed_override(seed_override)])
        # every seed is checked before the first run writes anything
        run_cfgs = [cfg.build_run_config(problem, seed=seed) for seed in seeds]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    summaries = []
    for run_cfg in run_cfgs:
        try:
            trace = engine.run_experiment(run_cfg, problem)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        dest = outdir if len(seeds) == 1 else outdir / f"rep_{run_cfg.seed}"
        summaries.append(write_artifacts(trace, dest))
    if len(seeds) > 1:
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "summary.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(list(summaries[0]))
            for s in summaries:
                w.writerow(list(s.values()))
    return 0


def cmd_table1(out) -> int:
    grid = fixedpoint.table1_grid()
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["local_steps", "threshold", "fixed_point", "solver_residual",
                    "simulation", "sim_gap"])
        for (q, c), cell in sorted(grid.items()):
            w.writerow([q, c, cell["solver"], cell["solver_residual"],
                        cell["simulation"],
                        abs(cell["simulation"] - cell["solver"])])
    return 0


def _load_runs(dirpath: Path):
    """Map seed -> list of round dicts for a completed run directory."""
    direct = dirpath / "rounds.jsonl"
    paths = [direct] if direct.exists() else sorted(dirpath.glob("rep_*/rounds.jsonl"))
    if not paths:
        raise ConfigError(f"no rounds.jsonl under {dirpath}")
    runs = {}
    for p in paths:
        rows = [json.loads(line) for line in p.read_text().splitlines()]
        with open(p.parent / "summary.csv") as fh:
            rows_csv = list(csv.DictReader(fh))
        runs[int(rows_csv[0]["seed"])] = rows
    return runs


def cmd_compare(dir_a, dir_b, out=None) -> int:
    runs_a = _load_runs(Path(dir_a))
    runs_b = _load_runs(Path(dir_b))
    if set(runs_a) != set(runs_b):
        raise ConfigError(f"seed sets differ: {sorted(runs_a)} vs {sorted(runs_b)}")
    per_seed = {}
    final_loss_deltas = []
    for seed in sorted(runs_a):
        a, b = runs_a[seed], runs_b[seed]
        if len(a) != len(b):
            raise ConfigError(f"round counts differ for seed {seed}: {len(a)} vs {len(b)}")
        loss_delta = [ra["loss"] - rb["loss"] for ra, rb in zip(a, b)]
        grad_delta = [ra["global_grad_norm"] - rb["global_grad_norm"]
                      for ra, rb in zip(a, b)]
        per_seed[seed] = {
            "per_round_loss_delta": loss_delta,
            "per_round_grad_norm_delta": grad_delta,
            "final_loss_delta": loss_delta[-1],
            "final_grad_norm_delta": grad_delta[-1],
        }
        final_loss_deltas.append(loss_delta[-1])
    result = {
        "seeds": sorted(runs_a),
        "per_seed": per_seed,
        "final_loss_delta_mean": float(np.mean(final_loss_deltas)),
        "final_loss_delta_std": float(np.std(final_loss_deltas)),
    }
    text = json.dumps(result, indent=2, allow_nan=False)
    if out is not None:
        Path(out).write_text(text)
    else:
        print(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="fedclip")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed-override", default=None)

    p_t1 = sub.add_parser("table1", help="emit the stationary-point grid CSV")
    p_t1.add_argument("--out", required=True)

    p_cmp = sub.add_parser("compare", help="paired deltas between two runs")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, out=args.out,
                           seed_override=args.seed_override)
        if args.command == "table1":
            return cmd_table1(args.out)
        if args.command == "compare":
            return cmd_compare(args.dir_a, args.dir_b, out=args.out)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except engine.DivergenceError as exc:
        print(json.dumps({"error": "divergence", "round": exc.round_index,
                          "message": str(exc)}), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
