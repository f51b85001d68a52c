"""The benchmark's tracer patches fedclip functions and methods by name
(``perfbench/spans.py``); a traced run must find every one of them."""

from pathlib import Path

import yaml

from fedclip.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_finds_every_name_the_tracer_patches(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "problem": {"kind": "quadratic", "b": [-1.0, 1.0]},
        "run": {"rounds": 3, "local_steps": 2, "sampled_per_round": 2,
                "eta_l": 0.05, "eta_g": 1.0, "seed": 1, "x0": 1.5},
        "clipping": {"mode": "difference", "threshold": "auto"},
        "privacy": {"enabled": True}}))
    rec = spans.SpanRecorder()
    counters = rec.begin_segment()
    with spans.instrument(rec, counters):
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    metrics = spans.layer_metrics(rec, 0)
    assert metrics["engine.rounds"] == 6  # the auto threshold's phase 1, then the run
    assert metrics["engine.phase1_s"] > 0
    assert metrics["privacy.noise_draws"] == 6  # two sampled slots per round
    assert metrics["clipping.apply_policy_calls"] == 6
    assert metrics["rng.streams"] > 0 and metrics["diagnostics.clip_bias_calls"] == 1
