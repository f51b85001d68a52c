"""End-to-end tests for the config loader, runner, and artifact writers."""

import csv
import gc
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import event, given, settings, strategies as st

import fedclip
from fedclip import cli, engine
from fedclip.cli import ConfigError, ExperimentConfig, load_config, load_yaml, main
from fedclip.clipping import ClippingPolicy
from fedclip.privacy import PrivacyConfig
from fedclip.problems import build_quadratic_ensemble
from record_golden import DIGESTS, configs, file_digest, version_mismatch

BASE_CONFIG = {
    "problem": {"kind": "quadratic", "b": [-1.0, 0.0, 1.0]},
    "run": {"rounds": 4, "local_steps": 2, "sampled_per_round": 3,
            "eta_l": 0.05, "eta_g": 1.0, "seed": 7, "x0": 1.5},
    "clipping": {"mode": "difference", "threshold": 0.1},
}


def write_config(tmp_path, overrides=None, name="config.yaml"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for section, values in (overrides or {}).items():
        cfg.setdefault(section, {}).update(values)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_unknown_key_is_rejected(tmp_path):
    path = write_config(tmp_path, {"run": {"learning_rate": 0.1}})
    with pytest.raises(ConfigError, match="learning_rate"):
        load_config(path)


def test_unknown_key_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"clipping": {"clip_norm": 1.0}})
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"


def test_missing_section_is_rejected():
    with pytest.raises(ConfigError, match="run"):
        ExperimentConfig.from_dict({"problem": {"kind": "quadratic", "b": [0.0]}})


def test_divergence_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {
        "run": {"eta_l": 2.5, "eta_g": 50.0, "rounds": 50, "local_steps": 1},
        "clipping": {"mode": "none", "threshold": None},
    })
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "divergence"


def test_run_writes_all_artifacts(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0

    lines = (out / "rounds.jsonl").read_text().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert list(first) == ["t", "x", "sampled", "loss", "global_grad_norm",
                           "alpha_bar", "delta_norms", "alphas",
                           "alpha_tildes", "angles"]

    with open(out / "bias.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "alpha_bar", "mean_abs_realized_gap",
                       "mean_abs_cross_gap", "mean_sq_realized_gap",
                       "mean_sq_cross_gap"]
    assert len(rows) == 5

    bound = json.loads((out / "bound.json").read_text())
    for key in ("initial_gap", "drift", "sampling_variance", "privacy_noise",
                "clipping_bias_abs", "clipping_bias_sq", "total", "regime",
                "certified", "f_gap_method", "measured_stationarity"):
        assert key in bound
    assert bound["f_gap_method"] == "analytic f_star"

    scatter = sorted((out / "scatter").glob("round_*.csv"))
    assert [p.name for p in scatter] == [f"round_{t:04d}.csv" for t in range(4)]

    with open(out / "summary.csv") as fh:
        srows = list(csv.reader(fh))
    assert srows[0][0] == "seed" and srows[1][0] == "7"


def quad_dp_run():
    """40 rounds of 100 clients, as the benchmark's quad-fedavg-dp runs them."""
    b = np.random.default_rng(0).normal(0.0, 2.0, size=100)
    cfg = engine.RunConfig(
        rounds=40, local_steps=5, n_clients=100, sampled_per_round=10, eta_l=0.05,
        eta_g=1.0, policy=ClippingPolicy(mode="difference", threshold="auto"),
        privacy=PrivacyConfig(enabled=True, epsilon=1.5, delta=1e-5), seed=11,
        x0=np.array([3.0]))
    return cfg, build_quadratic_ensemble(b)


def test_write_artifacts_peaks_below_the_rounds_file_it_writes(tmp_path):
    trace = engine.run_experiment(*quad_dp_run())
    cli.write_artifacts(trace, tmp_path / "warm")  # imports and caches
    tracemalloc.start()
    try:
        cli.write_artifacts(trace, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each round is rendered once and written at once: the file's text, and
    # the (magnitude, angle) pairs of every round, are never held whole
    assert peak < (tmp_path / "out" / "rounds.jsonl").stat().st_size
    assert len(list((tmp_path / "out" / "scatter").iterdir())) == 40
    # the CSV files are written as joined lines: a csv.writer alone would
    # allocate a 128 KiB record buffer on its first row
    assert peak < 128 * 1024


def test_trace_holds_its_columns_and_little_else():
    cfg, problem = quad_dp_run()
    engine.run_experiment(cfg, problem)  # imports and caches
    tracemalloc.start()
    try:
        trace = engine.run_experiment(cfg, problem)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # per round: four (N,) columns, the sampled clients, the iterate and four
    # scalars, 8 B each; a record of Python lists per round holds far more
    T, N, P, d = cfg.rounds, cfg.n_clients, cfg.sampled_per_round, problem.dim
    assert held <= 1.5 * 8 * T * (4 * N + P + d + 4)
    assert trace.loss.shape == (T,) and trace.x.shape == (T + 1, d)


@pytest.mark.parametrize("row", [
    ["t", "alpha_bar", "mean_abs_realized_gap"],
    [3, 0.1, 1e-7, -0.0, 5e-324, 1e22, math.inf, math.nan, np.float64(0.25)],
    [7, 40, 0.5, "", np.int64(2), 1.7976931348623157e308],
])
def test_csv_rows_match_csv_writer(row):
    buf = io.StringIO()
    csv.writer(buf).writerow(row)
    assert cli._csv_row(row) == buf.getvalue()


def test_main_leaves_less_cyclic_garbage_than_one_parser(tmp_path):
    path = write_config(tmp_path, {"run": {"rounds": 1}})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    main(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        cli.build_parser()
        parser_garbage = gc.collect()
        main(argv)
        main_garbage = gc.collect()
    finally:
        if enabled:
            gc.enable()
    # main parses with one parser built at import, not a new one per call
    assert main_garbage < parser_garbage


def test_replicates_write_per_seed_directories(tmp_path):
    path = write_config(tmp_path, {"replicates": {"seeds": [1, 2]}})
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "rep_1" / "rounds.jsonl").exists()
    assert (out / "rep_2" / "rounds.jsonl").exists()
    with open(out / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # header + one row per seed


def test_seed_override_wins(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--seed-override", "99"]) == 0
    with open(out / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "99"


def test_table1_subcommand(tmp_path):
    out = tmp_path / "table1.csv"
    assert main(["table1", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["local_steps", "threshold", "fixed_point",
                       "solver_residual", "simulation", "sim_gap"]
    assert len(rows) == 5
    values = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    assert values[("1", "1")] == pytest.approx(0.5, abs=1e-6)
    assert values[("inf", "inf")] == pytest.approx(13.0 / 9.0, abs=1e-6)
    golden = json.loads(DIGESTS.read_text())
    reason = version_mismatch(golden)
    if reason:
        pytest.skip(reason)
    assert file_digest(out) == golden["table1_grid"]


def test_compare_subcommand(tmp_path, capsys):
    path_a = write_config(tmp_path, name="a.yaml")
    path_b = write_config(tmp_path, {"clipping": {"threshold": 0.5}},
                          name="b.yaml")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(path_a), "--out", str(out_a)])
    main(["run", "--config", str(path_b), "--out", str(out_b)])
    assert main(["compare", str(out_a), str(out_b)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["seeds"] == [7]
    deltas = result["per_seed"]["7"]["per_round_loss_delta"]
    assert len(deltas) == 4
    assert "final_loss_delta_mean" in result


def test_compare_rejects_mismatched_seed_sets(tmp_path, capsys):
    path_a = write_config(tmp_path, name="a.yaml")
    path_b = write_config(tmp_path, {"replicates": {"seeds": [1]}},
                          name="b.yaml")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(path_a), "--out", str(out_a)])
    main(["run", "--config", str(path_b), "--out", str(out_b)])
    assert main(["compare", str(out_a), str(out_b)]) == 2
    capsys.readouterr()


def truncate_third_line(out):
    rounds = out / "rounds.jsonl"
    lines = rounds.read_text().splitlines()
    rounds.write_text("\n".join(lines[:2] + [lines[2][:40]]) + "\n")
    return f"{rounds} line 3 is not a round record: JSONDecodeError: "


def drop_first_line_key(out):
    rounds = out / "rounds.jsonl"
    lines = rounds.read_text().splitlines()
    rounds.write_text("\n".join([lines[0].replace('"loss"', '"lost"'), *lines[1:]]))
    return f"{rounds} line 1 is not a round record: KeyError: 'loss'"


def delete_summary(out):
    (out / "summary.csv").unlink()
    return f"cannot read {out / 'summary.csv'}: [Errno 2] No such file or directory"


def empty_rounds(out):
    (out / "rounds.jsonl").write_text("")
    return f"{out / 'rounds.jsonl'} holds no rounds"


@pytest.mark.parametrize("damage", [truncate_third_line, drop_first_line_key,
                                    delete_summary, empty_rounds])
def test_compare_reports_an_unreadable_run_directory(tmp_path, capsys, damage):
    """A run directory that compare cannot read is one JSON error line and
    exit 2, naming the file and, for a bad line, its line number."""
    path = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    message = damage(out_b)
    assert main(["compare", str(out_a), str(out_b)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    err = json.loads(err[0])
    assert err["error"] == "config" and err["message"].startswith(message)


@pytest.mark.parametrize("command", ["run", "table1", "compare"])
def test_unwritable_output_path_exits_4(tmp_path, capsys, command):
    """An output path under a regular file is one JSON error line and exit
    4, for every command that writes."""
    config, run_dir = write_config(tmp_path), tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(run_dir)]) == 0
    (tmp_path / "f").write_text("")
    target = tmp_path / "f" / "out"
    argv = {"run": ["run", "--config", str(config)], "table1": ["table1"],
            "compare": ["compare", str(run_dir), str(run_dir)]}[command]
    assert main([*argv, "--out", str(target)]) == 4
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0]) == {"error": "output", "path": str(target),
                                  "message": f"[Errno 20] Not a directory: '{target}'"}
    assert "4 output path that cannot be written" in " ".join(
        cli.build_parser().format_help().split())


def test_mlp_problem_kind_builds_and_runs(tmp_path):
    cfg = {
        "problem": {"kind": "mlp", "hidden_width": 3, "n_clients": 2,
                    "samples_per_client": 8, "heterogeneity": 0.5, "seed": 1},
        "run": {"rounds": 2, "local_steps": 1, "sampled_per_round": 2,
                "eta_l": 0.05, "eta_g": 1.0, "x0": 0.1},
    }
    path = tmp_path / "mlp.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    bound = json.loads((out / "bound.json").read_text())
    assert bound["f_gap_method"] == "min-observed-loss proxy"


def test_threshold_parsing_variants(tmp_path):
    cfg = load_config(write_config(tmp_path, {"clipping": {"threshold": "auto"}}))
    problem = cfg.build_problem()
    assert cfg.build_run_config(problem).policy.is_auto
    cfg = load_config(write_config(tmp_path, {"clipping": {"mode": "none",
                                                           "threshold": None}}))
    assert cfg.build_run_config(problem).policy.mode == "none"


def test_local_steps_inf_parsing(tmp_path):
    # the string "inf" and YAML's .inf; int(.inf) would overflow
    for q in ("inf", float("inf")):
        path = write_config(tmp_path, {"run": {"local_steps": q, "rounds": 2},
                                       "clipping": {"mode": "none",
                                                    "threshold": None}})
        cfg = load_config(path)
        problem = cfg.build_problem()
        run_cfg = cfg.build_run_config(problem)
        assert run_cfg.local_steps == float("inf")
    assert ".inf" in path.read_text()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_x0_dimension_mismatch(tmp_path):
    path = write_config(tmp_path, {"run": {"x0": [1.0, 2.0]}})
    cfg = load_config(path)
    problem = cfg.build_problem()
    with pytest.raises(ConfigError, match="x0"):
        cfg.build_run_config(problem)


def run_cli_error(tmp_path, capsys, cfg):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return code, json.loads(err[0])


def test_nan_iterate_is_divergence(tmp_path, capsys):
    # the local phase overflows to inf and then NaN; a NaN norm passes
    # "norm > limit", so the guard must reject non-finite values itself
    A = [[1.0, -3.0], [2.0, 5.0]]
    code, err = run_cli_error(tmp_path, capsys, {
        "problem": {"kind": "linear_regression", "A": [A, A],
                    "b_list": [[1.0, 0.0], [0.0, 1.0]]},
        "run": {"rounds": 3, "local_steps": 400, "sampled_per_round": 2,
                "eta_l": 1.0, "eta_g": 1.0, "x0": 0.0},
    })
    assert code == 3
    assert err["error"] == "divergence" and err["round"] == 0


def test_local_phase_divergence_reports_its_round(tmp_path, capsys):
    # |1 - eta_l|^Q = 1.5^60: round 0 stays below the limit, round 1's
    # local phase exceeds it
    code, err = run_cli_error(tmp_path, capsys, {
        "problem": {"kind": "quadratic", "b": [0.0, 0.0]},
        "run": {"rounds": 3, "local_steps": 60, "sampled_per_round": 2,
                "eta_l": 2.5, "eta_g": 1.0, "x0": 1.0},
    })
    assert code == 3
    assert err["error"] == "divergence" and err["round"] == 1


NO_FIT_PROBLEM = {"kind": "linear_regression",
                  "A": [[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]] * 2,
                  "b_list": [[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]}
INF_RUN = {"rounds": 2, "local_steps": "inf", "sampled_per_round": 2,
           "eta_l": 0.1, "eta_g": 1.0, "x0": 5.0}


def test_local_phase_step_cap_exits_3(tmp_path, capsys, monkeypatch):
    # minibatch B=1 on data with no exact fit never meets the stopping rule
    monkeypatch.setattr("fedclip.engine._LOCAL_MAX_STEPS", 200)
    code, err = run_cli_error(tmp_path, capsys, {
        "problem": NO_FIT_PROBLEM,
        "run": {**INF_RUN, "noise_mode": "minibatch", "batch_size": 1},
    })
    assert code == 3
    assert err["error"] == "divergence" and err["round"] == 0
    assert "still moving after 200 steps" in err["message"]


def test_gaussian_noise_with_local_steps_inf_exits_2(tmp_path, capsys, monkeypatch):
    # the small cap makes a missing refusal fail fast
    monkeypatch.setattr("fedclip.engine._LOCAL_MAX_STEPS", 200)
    code, err = run_cli_error(tmp_path, capsys, {
        "problem": {**NO_FIT_PROBLEM, "sigma_l": 0.5},
        "run": {**INF_RUN, "noise_mode": "gaussian"},
    })
    assert code == 2
    assert err["error"] == "config" and "sigma_l" in err["message"]


def test_gaussian_noise_level_reaches_the_oracle(tmp_path, monkeypatch):
    # problem.sigma_l is the gaussian oracle's noise; at 0 the oracle draws
    # nothing, so it builds no "grad" streams and follows the deterministic
    # trajectory
    tags = []
    stream = fedclip.rng.stream

    def counted(seed, *key):
        tags.append(key[0])
        return stream(seed, *key)

    monkeypatch.setattr("fedclip.engine.rngmod.stream", counted)

    def rounds(name, sigma_l, noise_mode):
        path = write_config(tmp_path, {"problem": {"sigma_l": sigma_l},
                                       "run": {"noise_mode": noise_mode}},
                            name=f"{name}.yaml")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "rounds.jsonl").read_text().splitlines()
        return [json.loads(line)["x"] for line in lines]

    deterministic = rounds("det", 0.0, "deterministic")
    quiet = rounds("quiet", 0.0, "gaussian")
    assert "grad" not in tags
    assert quiet == deterministic
    noisy = rounds("noisy", 0.5, "gaussian")
    assert tags.count("grad") == 4 * 3  # one stream per round and client
    assert noisy != deterministic


def test_noiseless_gaussian_oracle_runs_no_replays(tmp_path, monkeypatch):
    # at sigma_l = 0 the gaussian oracle draws nothing, so alpha~ is the
    # realized factor: a local_steps: inf run with difference clipping builds
    # no "replay" streams and writes the deterministic run's artifacts
    tags = []
    stream = fedclip.rng.stream

    def counted(seed, *key):
        tags.append(key[0])
        return stream(seed, *key)

    monkeypatch.setattr("fedclip.engine.rngmod.stream", counted)

    def artifacts(noise_mode):
        path = write_config(tmp_path, {"run": {"noise_mode": noise_mode,
                                               "local_steps": "inf", "eta_l": 0.2}},
                            name=f"{noise_mode}.yaml")
        out = tmp_path / noise_mode
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        return {p.relative_to(out): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    assert artifacts("gaussian") == artifacts("deterministic")
    assert "replay" not in tags


def test_threads_option_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(write_config(tmp_path)), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_malformed_yaml_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("problem: {kind: quadratic, b: [0.0\nrun: [")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "cannot read config" in err["message"]


@pytest.mark.parametrize("scalar", ["!!float 1.5.5", "!!bool x", "!!timestamp x"])
def test_refused_tagged_scalar_exit_code(tmp_path, capsys, scalar):
    # yaml's constructors refuse these with ValueError, KeyError and
    # AttributeError, not with a YAMLError
    path = tmp_path / "broken.yaml"
    path.write_text(f"problem: {{kind: quadratic, b: [{scalar}]}}\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "cannot read config" in err["message"]


def _same(a, b):
    """Equal values of equal types, with floats compared bit for bit (so
    -0.0 and the sign of a NaN count) and mappings in the same key order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return _same(list(a), list(b)) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def assert_loaders_agree(text):
    fast = load_yaml(text)
    assert _same(fast, yaml.load(text, Loader=yaml.SafeLoader)), text
    return fast


# the builder's fast path takes plain floats of the form -1.25 or 2.0e-05;
# every other scalar goes through yaml's resolver and constructor
SCALARS = ["1.5", "-0.0", "+1.5", "1_000.5", "1.", ".5", "1e5", "1.0e5",
           "1.0e+5", "1.0E+5", "2.5e-3", "-7.0e-400", ".inf", "-.inf", ".nan",
           "1:30.5", '"1.5"', "'-2.5'", "!!float 3", '!!float "1_0"',
           "!!float -nan", "!!float -_1", "!!str 4.5", "1.2.3", "1.5e5x",
           "0", "-7", "0x1F", "1_000", "true", "False", "yes", "null", "~"]


@pytest.mark.parametrize("scalar", SCALARS)
def test_loader_matches_safe_loader_on_scalars(scalar):
    loaded = assert_loaders_agree(
        f"a: {scalar}\nb:\n- {scalar}\n- [{scalar}, [{scalar}], []]\n")
    assert _same(loaded["b"][0], loaded["a"])


def test_loader_matches_safe_loader_on_anchors_and_aliases():
    loaded = assert_loaders_agree(
        "a: &x 1.5\nb: [*x, &y -2.0, *y, &z [0.5, *x]]\nc: *z\nd: {e: *y}\n")
    assert loaded["b"] == [1.5, -2.0, -2.0, [0.5, 1.5]]
    assert loaded["c"] is loaded["b"][3]


def test_loader_keeps_yaml_errors():
    for text in ("- !!float 1.5.5\n", "!!seq {a: 1.5}\n"):
        with pytest.raises((ValueError, yaml.YAMLError)) as fast:
            load_yaml(text)
        with pytest.raises((ValueError, yaml.YAMLError)) as slow:
            yaml.load(text, Loader=yaml.SafeLoader)
        assert type(fast.value) is type(slow.value)


class _CountingYAML:
    """The yaml module, counting the documents handed to ``yaml.load``."""

    def __init__(self):
        self.loads = 0

    def __getattr__(self, name):
        return getattr(yaml, name)

    def load(self, *args, **kwargs):
        self.loads += 1
        return yaml.load(*args, **kwargs)


def _outcome(load, text):
    """``load(text)`` and no exception type, or None and the type it raised."""
    try:
        return load(text), None
    except Exception as exc:  # yaml's constructors raise ValueError, KeyError...
        return None, type(exc)


@pytest.mark.parametrize("text, falls_back", [
    ("a: 1.5\n---\nb: 2.5\n", True),  # two documents: ComposerError
    ("", False),
    ("---\n", False),
    ("# only a comment\n", False),
    ("a: 1.5\n=: 2.5\n", True),  # the key "="
    ("a: 1.5\nb: =\n", True),  # no constructor for the value tag
    ("? [1]\n: 2.5\n", True),  # an unhashable key: ConstructorError
    ("? {a: 1}\n: 2.5\n", True),
    ("a: &x [1.5]\n? *x\n: 2.5\n", True),
    ("a: 1.5\nb: [2.5]\na: 3.5\nb: {c: 1}\n", False),  # the last value wins
    ("base: &b {x: 1.5, y: 2.5}\nc:\n  <<: *b\n  y: 3.5\n", True),
    ("!!set {a, b}\n", True),
    ("s: !!set {1.5, 2.5}\no: !!omap [a: 1.5, b: [2.5]]\n", True),
    ("a: &x 1.5\nb: &x 2.5\n", True),  # a repeated anchor: ComposerError
    ("a: *x\n", True),  # an undefined alias: ComposerError
    ("- !!seq 1.5\n", True),
    ("- !!timestamp x\n", True),  # AttributeError, as yaml raises it
    ("[1.5, {a: [2.5, 'x', !!float '3'], b: {}}, [[]], ! 4.5, ! 4]\n", False),
    ("a: [1.5\nb: ]\n", False),  # a parser error, raised from the first pass
])
def test_loader_matches_safe_loader_on_edge_cases(monkeypatch, text, falls_back):
    counting = _CountingYAML()
    monkeypatch.setattr(cli, "yaml", counting)
    fast, fast_error = _outcome(load_yaml, text)
    slow, slow_error = _outcome(lambda t: yaml.load(t, Loader=yaml.SafeLoader), text)
    assert fast_error is slow_error and _same(fast, slow), text
    assert counting.loads == falls_back


def test_loader_keeps_an_alias_to_a_list_the_same_object():
    text = "a: &x [1.5, [2.5]]\nb: *x\nc: [*x, &y 0.5, *y]\n"
    loaded = assert_loaders_agree(text)
    assert loaded["b"] is loaded["a"] and loaded["c"][0] is loaded["a"]
    # an alias inside the collection it names, as yaml builds it
    loaded = load_yaml("&x [1.5, *x]\n")
    assert loaded[1] is loaded and loaded[0] == 1.5


@pytest.mark.parametrize("config", configs(), ids=lambda p: p.stem)
def test_loader_matches_safe_loader_on_golden_configs(config):
    assert_loaders_agree(config.read_text())
    with open(config, "rb") as stream:  # as load_config reads it
        assert _same(load_yaml(stream), yaml.load(config.read_text(),
                                                  Loader=yaml.SafeLoader))


def test_loading_inline_floats_peaks_below_100_bytes_per_number(tmp_path):
    # yaml.load composes a node tree first, about 441 B per number
    values = [i / 7 for i in range(-30_000, 30_000)]
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"problem": {"kind": "quadratic", "b": values},
                                    "run": BASE_CONFIG["run"]}))
    load_config(path)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        cfg = load_config(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.problem["b"] == values
    assert peak / len(values) < 100


FLOAT64 = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308,
                     -1e308, math.inf, -math.inf, math.nan]),
    st.floats(width=64))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(FLOAT64, max_size=12))
def test_loader_matches_safe_loader_on_dumped_floats(values):
    assert_loaders_agree(yaml.safe_dump({"x": values, "y": [values, 2.5]}))


def readme_example():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.search(r"Example configuration:\s*```yaml\n(.*?)```", readme,
                     re.DOTALL).group(1)


def test_readme_example_config_runs(tmp_path):
    text = readme_example()
    assert_loaders_agree(text)
    path = tmp_path / "config.yaml"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


# two-client problems of the other kinds, for the rows below
LINREG_DATA = {"kind": "linear_regression", "A": [[[1.0, 0.0]], [[0.0, 1.0]]],
               "b_list": [[1.0], [-1.0]]}
MLP_DATA = {"kind": "mlp", "hidden_width": 2, "n_clients": 2, "samples_per_client": 6,
            "seed": 3}


@pytest.mark.parametrize("overrides, message", [
    ({"run": {"noise_mode": "minibatch", "batch_size": 2}},
     "does not support minibatch"),
    ({"privacy": {"enabled": True}, "clipping": {"mode": "none", "threshold": None}},
     "finite clipping threshold"),
    ({"run": {"noise_mode": "minibatch"}}, "batch_size"),
    ({"problem": {"g_bound": float("inf")}}, "must be finite"),
    # NaN passes "<= 0" checks; infinite epsilon means sigma^2 = 0
    ({"privacy": {"enabled": True, "epsilon": math.nan}}, "epsilon"),
    ({"privacy": {"enabled": True, "epsilon": math.inf}}, "epsilon"),
    ({"clipping": {"threshold": math.nan}}, "clipping threshold"),
    ({"clipping": {"threshold": "auto", "rho": math.nan}}, "rho"),
    ({"run": {"eta_l": math.nan}}, "stepsizes"),
    ({"run": {"eta_g": math.inf}}, "stepsizes"),
    ({"run": {"x0": math.nan}}, "x0 must be finite"),
    ({"privacy": {"enabled": True, "u": math.nan}}, "u, v"),
    # counts and seeds are refused, not truncated by int()
    ({"run": {"rounds": 2.7}}, "rounds"),
    ({"run": {"local_steps": 2.5}}, "local_steps"),
    ({"run": {"rounds": True}}, "rounds"),
    ({"replicates": {"seeds": [1, 2.5]}}, "seed must be an integer"),
    ({"replicates": {"seeds": 3}}, "non-empty list"),
    ({"replicates": {"seeds": []}}, "non-empty list"),
    # a quoted bool is truthy; a repeated seed would run twice into one rep_ dir
    ({"privacy": {"enabled": "false"}}, "privacy.enabled"),
    ({"replicates": {"seeds": [1, 1]}}, "repeats a seed"),
    # the gaussian oracle's noise level is a finite number >= 0
    ({"problem": {"sigma_l": -0.1}}, "problem.sigma_l"),
    ({"problem": {"sigma_l": math.nan}}, "problem.sigma_l"),
    ({"problem": {"sigma_l": math.inf}}, "problem.sigma_l"),
    ({"problem": {"sigma_l": True}}, "problem.sigma_l"),
    ({"problem": {"sigma_l": "loud"}}, "problem.sigma_l"),
    # the declared gradient bound is a finite number > 0: a bound <= 0 would
    # count every draw as a violation, and true would run as 1.0
    ({"problem": {"g_bound": -1.0}}, "problem.g_bound"),
    ({"problem": {"g_bound": 0.0}}, "problem.g_bound"),
    ({"problem": {"g_bound": True}}, "problem.g_bound"),
    ({"problem": {"g_bound": math.nan}}, "problem.g_bound"),
    ({"problem": {"g_bound": "tight"}}, "problem.g_bound"),
    # every other number is refused as a bool too, not read as 1.0 or 0.0
    ({"run": {"eta_l": True}}, "run.eta_l must be a number"),
    ({"run": {"eta_g": True}}, "run.eta_g must be a number"),
    ({"run": {"x0": True}}, "run.x0 must be a number"),
    ({"clipping": {"threshold": True}}, "clipping.threshold must be a number"),
    ({"clipping": {"rho": True}}, "clipping.rho must be a number"),
    ({"privacy": {"epsilon": True}}, "privacy.epsilon must be a number"),
    ({"privacy": {"delta": False}}, "privacy.delta must be a number"),
    ({"privacy": {"u": True}}, "privacy.u must be a number"),
    ({"privacy": {"v": True}}, "privacy.v must be a number"),
    # and so is a bool inside a data list
    ({"problem": {"b": [-1.0, True]}}, "problem.b must be a number, got True"),
    ({"run": {"x0": [True]}}, "run.x0 must be a number, got True"),
    ({"problem": {**LINREG_DATA, "A": [[[1.0, True]], [[0.0, 1.0]]]}},
     "problem.A must be a number, got True"),
    ({"problem": {**LINREG_DATA, "A": [[[1.0, 0.0]], [[False, 1.0]]]}},
     "problem.A must be a number, got False"),
    ({"problem": {**LINREG_DATA, "b_list": [[True], [1.0]]}},
     "problem.b_list must be a number, got True"),
    # MLP counts are positive integers and its seed an integer, as the run's
    # are. n_clients: true ran one client, seed: true and seed: 1.5 seed 1,
    # and heterogeneity: true 1.0; the other five exited with numpy's
    # message, which names no key
    ({"problem": {**MLP_DATA, "n_clients": True}},
     "problem.n_clients must be a positive integer, got True"),
    ({"problem": {**MLP_DATA, "seed": True}}, "problem.seed must be an integer, got True"),
    ({"problem": {**MLP_DATA, "heterogeneity": True}},
     "problem.heterogeneity must be a number, got True"),
    ({"problem": {**MLP_DATA, "hidden_width": True}},
     "problem.hidden_width must be a positive integer, got True"),
    ({"problem": {**MLP_DATA, "input_dim": True}},
     "problem.input_dim must be a positive integer, got True"),
    ({"problem": {**MLP_DATA, "n_classes": True}},
     "problem.n_classes must be a positive integer, got True"),
    ({"problem": {**MLP_DATA, "samples_per_client": 5.0}},
     "problem.samples_per_client must be a positive integer, got 5.0"),
    ({"problem": {**MLP_DATA, "n_clients": 2.0}},
     "problem.n_clients must be a positive integer, got 2.0"),
    ({"problem": {**MLP_DATA, "seed": 1.5}}, "problem.seed must be an integer, got 1.5"),
    # a null inside a data list is refused too: the float conversion read it
    # as NaN, and the run failed later with a message that named no key
    ({"problem": {"b": [None, 1.0]}}, "problem.b must be a number, got None"),
    ({"problem": {**LINREG_DATA, "A": [[[1.0, None]], [[0.0, 1.0]]]}},
     "problem.A must be a number, got None"),
    ({"problem": {**LINREG_DATA, "b_list": [[1.0], [None]]}},
     "problem.b_list must be a number, got None"),
    ({"run": {"x0": [None]}}, "run.x0 must be a number, got None"),
    # data of the wrong shape, and a seed that is a list, are named by key;
    # the messages were numpy's and Python's
    ({"problem": {"b": 3.0}}, "problem.b must be a list of numbers"),
    ({"problem": {**LINREG_DATA, "b_list": 3.0}}, "problem.b_list must be a list"),
    ({"problem": {"b": [-1.0, [1.0]]}}, "problem.b is ragged"),
    ({"replicates": {"seeds": [1, [2]]}}, "replicates.seeds: seed must be an integer"),
    # these exited 1 with a traceback, or 2 naming no key
    ({"run": {"eta_l": "fast"}}, "run.eta_l must be a number, got 'fast'"),
    ({"problem": {"b": [10**400, 1.0]}}, "problem.b overflows float64"),
    ({"problem": {1: 2.0}}, "unknown keys in problem: 1"),
    ({"problem": {**LINREG_DATA, "A": [[[[1.0]]], [[[0.0]]]]}},
     "problem.A must hold one matrix per client"),
    ({"problem": {**LINREG_DATA, "b_list": [[[1.0]], [[-1.0]]]}},
     "problem.b_list must hold one vector per client"),
    # a NaN or an infinity in a data list is refused by key, as a null is:
    # problem.A failed in LAPACK's least squares, and a NaN in b or b_list
    # failed with a message that named no key
    ({"problem": {"b": [math.nan, 1.0]}}, "problem.b must be finite, got nan"),
    ({"problem": {"b": [-1.0, -math.inf]}}, "problem.b must be finite, got -inf"),
    ({"problem": {**LINREG_DATA, "A": [[[1.0, math.inf]], [[0.0, 1.0]]]}},
     "problem.A must be finite, got inf"),
    ({"problem": {**LINREG_DATA, "A": [[[1.0, 0.0]], [[math.nan, 1.0]]]}},
     "problem.A must be finite, got nan"),
    ({"problem": {**LINREG_DATA, "b_list": [[1.0], [math.nan]]}},
     "problem.b_list must be finite, got nan"),
    ({"run": {"x0": [math.inf]}}, "run.x0 must be finite, got inf"),
])
def test_engine_config_errors_exit_2(tmp_path, capsys, overrides, message):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["problem"]["b"] = [-1.0, 1.0]
    cfg["run"]["sampled_per_round"] = 2
    for section, values in overrides.items():
        cfg.setdefault(section, {}).update(values)
    code, err = run_cli_error(tmp_path, capsys, cfg)
    assert code == 2
    assert err["error"] == "config" and message in err["message"]
    assert not (tmp_path / "out").exists()  # refused before any run writes


def test_infinite_matrix_entry_prints_nothing_on_stdout(tmp_path, capfd):
    """An infinite ``problem.A`` entry is refused before LAPACK sees it, so
    nothing is printed on the process's stdout, which C code writes to
    without going through ``sys.stdout``."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["problem"] = {**LINREG_DATA, "A": [[[1.0, math.inf]], [[0.0, 1.0]]]}
    cfg["run"]["sampled_per_round"] = 2
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    out, err = capfd.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "config",
                               "message": "problem.A must be finite, got inf"}


@pytest.mark.parametrize("section, value", [
    ("clipping", None), ("privacy", [1]), ("problem", [1]), ("run", 3.5),
])
def test_sections_that_are_not_mappings_exit_2(tmp_path, capsys, section, value):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg[section] = value
    code, err = run_cli_error(tmp_path, capsys, cfg)
    assert code == 2
    assert err == {"error": "config",
                   "message": f"section {section} must be a mapping, got {value!r}"}


def test_output_directory_must_be_a_string(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a run without --out would write
    path = write_config(tmp_path, {"output": {"directory": [1]}})
    assert main(["run", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "message": "output.directory must be a string, got [1]"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]
    # --out takes the place of output.directory
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = write_config(tmp_path)
    path.write_bytes(path.read_bytes() + b"# \xff\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and "cannot read config" in err["message"]


def test_numeric_strings_still_convert(tmp_path):
    # YAML 1.1 reads 1e-3 (no dot, unsigned exponent) as a string
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("eta_l: 0.05", "eta_l: 1e-3"))
    cfg = load_config(path)
    assert cfg.run["eta_l"] == "1e-3"
    assert cfg.build_run_config(cfg.build_problem()).eta_l == 1e-3
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_numeric_strings_in_data_lists_still_convert():
    cfg = ExperimentConfig.from_dict({
        "problem": {"kind": "linear_regression", "A": [[["1e-3", 0.0]], [[0.0, 1.0]]],
                    "b_list": [["2e0"], [1.0]]},
        "run": {**BASE_CONFIG["run"], "sampled_per_round": 2, "x0": ["1e-3", 1.0]}})
    problem = cfg.build_problem()
    assert problem.clients[0].A.tolist() == [[1e-3, 0.0]]
    assert problem.clients[0].b.tolist() == [2.0]
    assert cfg.build_run_config(problem).x0.tolist() == [1e-3, 1.0]


def test_seed_override_must_be_an_integer(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out),
                 "--seed-override", "abc"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(err) == 1
    assert json.loads(err[0]) == {
        "error": "config", "message": "--seed-override must be an integer, got 'abc'"}
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--seed-override", "-3"]) == 0
    with open(out / "summary.csv") as fh:
        assert next(csv.DictReader(fh))["seed"] == "-3"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_exhaustive_local_phase_artifacts_are_strict_json(tmp_path):
    path = write_config(tmp_path, {"problem": {"b": [-1.0, 1.0]},
                                   "run": {"local_steps": "inf",
                                           "sampled_per_round": 2}})
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    for line in (out / "rounds.jsonl").read_text().splitlines():
        json.loads(line, parse_constant=_reject_constant)
    bound = json.loads((out / "bound.json").read_text(),
                       parse_constant=_reject_constant)
    assert bound["drift"] is None and bound["clipping_bias_sq"] is None
    assert bound["total"] is None
    assert bound["null_reason"] == "not applicable for Q=inf"
    assert bound["initial_gap"] == 0.0 and not bound["certified"]
    main(["run", "--config", str(path), "--out", str(tmp_path / "again")])
    result = tmp_path / "compare.json"
    assert main(["compare", str(out), str(tmp_path / "again"),
                 "--out", str(result)]) == 0
    json.loads(result.read_text(), parse_constant=_reject_constant)


LINREG_PROBLEM = {"kind": "linear_regression",
                  "A": [[[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]] * 2,
                  "b_list": [[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]]}
# each client's system fits exactly, so minibatch local_steps: inf phases stop
FIT_PROBLEM = {**LINREG_PROBLEM, "b_list": [[1.0, 0.0, 1.0], [0.0, 1.0, 0.5]]}


@pytest.mark.parametrize("problem, run, method", [
    ({}, {}, "realized (deterministic oracle or no difference clipping)"),
    (LINREG_PROBLEM, {"noise_mode": "minibatch", "batch_size": 2},
     "exact expected path (affine gradients)"),
    (FIT_PROBLEM, {"noise_mode": "minibatch", "batch_size": 2, "local_steps": "inf",
                   "replay_count": 2}, "mean of 2 replays"),
    ({"kind": "mlp", "hidden_width": 2, "n_clients": 2, "samples_per_client": 6,
      "seed": 3}, {"noise_mode": "minibatch", "batch_size": 2, "replay_count": 3,
                   "x0": 0.1}, "mean of 3 replays"),
])
def test_bound_json_names_the_alpha_tilde_method(tmp_path, problem, run, method):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if problem.get("kind", "quadratic") != "quadratic":
        cfg["problem"] = {}
    cfg["problem"].update(problem)
    cfg["run"].update({"sampled_per_round": 2, **run})
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    bound = json.loads((out / "bound.json").read_text())
    assert bound["alpha_tilde_method"] == method
    assert list(bound).index("alpha_tilde_method") == list(bound).index(
        "constant_methods") + 1


@pytest.mark.parametrize("replay_count", [0, -1])
def test_replay_count_below_one_exits_2(tmp_path, capsys, replay_count):
    # minibatch linear regression no longer replays at finite Q, but the
    # count is still checked; at 0 the replay mean used to divide by zero
    code, err = run_cli_error(tmp_path, capsys, {
        "problem": LINREG_PROBLEM,
        "run": {"rounds": 2, "local_steps": 2, "sampled_per_round": 2,
                "eta_l": 0.05, "eta_g": 1.0, "x0": 0.0, "noise_mode": "minibatch",
                "batch_size": 2, "replay_count": replay_count},
        "clipping": {"mode": "difference", "threshold": 0.1},
    })
    assert code == 2
    assert err["error"] == "config" and "replay_count" in err["message"]


def test_overflowing_constants_print_one_json_line(tmp_path):
    # A^T A overflows: the constants are rejected as non-finite, and numpy's
    # overflow warnings must not reach stderr ahead of the error line
    cfg = {"problem": {"kind": "linear_regression",
                       "A": [[[1e155, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
                       "b_list": [[1.0, 0.0], [0.0, 1.0]]},
           "run": {"rounds": 2, "local_steps": 2, "sampled_per_round": 2,
                   "eta_l": 0.1, "eta_g": 1.0, "x0": 0.0}}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    env = dict(os.environ, PYTHONPATH=str(Path(fedclip.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "fedclip.cli", "run", "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    err = json.loads(lines[0])
    assert err["error"] == "config" and "must be finite" in err["message"]


@pytest.mark.parametrize("problem, code, message", [
    # the probe radius around the optimum is inf
    ({"A": [[[-2.0]], [[-2.0]]], "b_list": [[-2.0], [1e155]]}, 2,
     "probe radius overflows"),
    # the residual at the optimum overflows; the gradients do not
    ({"A": [[[1.0], [1.0]]], "b_list": [[1e155, -1e155]]}, 2,
     "f_star must be finite"),
    # rank-deficient, so no f_star, and the loss is inf at every iterate
    ({"A": [[[1.0, 0.0], [1.0, 0.0]]], "b_list": [[1e155, -1e155]]}, 3,
     "loss or gradient norm is not finite at round 0"),
])
def test_overflowing_data_exits_cleanly(tmp_path, capsys, problem, code, message):
    exit_code, err = run_cli_error(tmp_path, capsys, {
        "problem": {"kind": "linear_regression", **problem},
        "run": {"rounds": 2, "local_steps": 2, "sampled_per_round": 1,
                "eta_l": 0.1, "eta_g": 1.0, "x0": 0.0}})
    assert exit_code == code and message in err["message"]


def test_overflowing_bound_terms_are_null(tmp_path):
    # every constant is finite, but L * sigma_g^2 in the drift term is not
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({
        "problem": {"kind": "linear_regression", "A": [[[1e60]], [[1.0]]],
                    "b_list": [[0.0], [0.0]]},
        "run": {"rounds": 2, "local_steps": 2, "sampled_per_round": 2,
                "eta_l": 0.1, "eta_g": 1.0, "x0": 0.0}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    bound = json.loads((out / "bound.json").read_text(),
                       parse_constant=_reject_constant)
    assert bound["drift"] is None and bound["total"] is None
    assert bound["null_reason"] == "overflows float64"


def _finite_csv(path):
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), f"{path.name}: {cell!r}"


_ENTRIES = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])
# 1e60 keeps every problem constant finite but overflows bound terms;
# 1e155 and -1e200 overflow A^T A, the probe radius or f_star
_HUGE = st.sampled_from([1e60, 1e155, -1e200])


@st.composite
def small_configs(draw):
    """Small `fedclip run` configs over every problem kind, oracle, clipping
    mode and privacy switch, including replay counts below 1, overflowing
    data and divergent stepsizes. Q = inf is drawn only for quadratics: a stochastic
    linear regression never meets the 1e-12 stopping rule and would run its
    1e6-step cap."""
    kind = draw(st.sampled_from(["quadratic", "linear_regression", "mlp"]))
    n = draw(st.integers(1, 3))

    def entries(size):
        return draw(st.lists(_ENTRIES, min_size=size, max_size=size))

    if kind == "quadratic":
        problem = {"kind": kind, "b": entries(n)}
        data = problem["b"]
    elif kind == "linear_regression":
        rows, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        problem = {"kind": kind, "A": [[entries(d) for _ in range(rows)]
                                       for _ in range(n)],
                   "b_list": [entries(rows) for _ in range(n)]}
        data = problem["A"][-1][-1]
    else:
        problem = {"kind": kind, "hidden_width": draw(st.integers(1, 2)),
                   "n_clients": n, "samples_per_client": draw(st.integers(2, 4)),
                   "seed": draw(st.integers(0, 3))}
        data = None
    if data is not None and draw(st.integers(0, 3)) == 0:
        data[-1] = draw(_HUGE)
    noise_mode = draw(st.sampled_from(["deterministic", "gaussian", "minibatch"]
                                      if kind != "quadratic" else
                                      ["deterministic", "gaussian"]))
    run = {"rounds": draw(st.integers(1, 3)),
           "local_steps": draw(st.sampled_from(
               [1, 3, "inf"] if kind == "quadratic" else [1, 3])),
           "sampled_per_round": draw(st.integers(1, n)),
           "eta_l": draw(st.sampled_from([0.05, 0.5, 2.5])),
           "eta_g": draw(st.sampled_from([0.5, 1.0, 40.0])),
           "x0": draw(st.sampled_from([0.0, 1.5])),
           "seed": draw(st.integers(0, 5)), "noise_mode": noise_mode}
    if noise_mode == "minibatch":
        run["batch_size"] = draw(st.integers(1, 3))
    replay_count = draw(st.sampled_from([None, None, 3, 2, 1, 0, -1]))
    if replay_count is not None:
        run["replay_count"] = replay_count
    mode = draw(st.sampled_from(["none", "model", "difference"]))
    clipping = {"mode": mode, "threshold": None if mode == "none" else
                draw(st.sampled_from([0.05, 1.0, "auto", "inf"]))}
    privacy = {"enabled": draw(st.booleans())}
    return {"problem": problem, "run": run, "clipping": clipping, "privacy": privacy}


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(small_configs())
def test_generated_configs_exit_cleanly(cfg):
    """Every run exits 0 with strict JSON and finite CSV artifacts, or exits
    2 or 3 with exactly one JSON line on stderr; never a traceback, and no
    numpy warning (outside pytest it would print on stderr too)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out, err = Path(tmp) / "out", io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["run", "--config", str(path), "--out", str(out)])
        event(f"exit {code}")
        assert [str(w.message) for w in caught] == []
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            for artifact in sorted(out.rglob("*.csv")):
                _finite_csv(artifact)
            for line in (out / "rounds.jsonl").read_text().splitlines():
                json.loads(line, parse_constant=_reject_constant)
            json.loads((out / "bound.json").read_text(),
                       parse_constant=_reject_constant)
        else:
            assert code in (2, 3) and len(lines) == 1, err.getvalue()
            assert json.loads(lines[0])["error"] == {2: "config", 3: "divergence"}[code]
