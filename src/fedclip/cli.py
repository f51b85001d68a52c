"""Experiment runner: declarative configs in, JSONL/CSV/JSON artifacts out.

Exit codes: 0 success, 2 config error (a bad config, or a run directory that
``compare`` cannot read), 3 divergence, 4 output error (an output path that
cannot be written). Errors are emitted as one machine-readable JSON object
per line on stderr.
"""

import argparse
import csv
import json
import math
import re
import reprlib
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml
from yaml import (AliasEvent, DocumentEndEvent, MappingStartEvent, ScalarEvent,
                  SequenceEndEvent, SequenceStartEvent, StreamEndEvent)

from . import diagnostics, engine, fixedpoint, privacy
from .clipping import AUTO, ClippingPolicy
from .privacy import PrivacyConfig
from .problems import (build_linear_regression_ensemble,
                       build_mlp_synthetic_ensemble, build_quadratic_ensemble)


_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# a strict subset of YAML 1.1's float pattern, whose resolver is the first
# one tried for "-" and for every digit: yaml reads these as float() does
_PLAIN_FLOAT = re.compile(r"-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?\Z")
# the key tags SafeConstructor.flatten_mapping rewrites: << merges, = is "="
_FLATTENED_TAGS = ("tag:yaml.org,2002:merge", "tag:yaml.org,2002:value")
_NO_KEY = object()  # no mapping key waits for its value


class _Fallback(Exception):
    """Raised for a document the one-pass builder leaves to yaml's loader."""


def load_yaml(stream):
    """The YAML document in ``stream`` (a str, bytes or a seekable binary
    file) as ``yaml.load(stream, Loader=SafeLoader)`` builds it, bit for bit,
    from one pass over the parser's events (libyaml's parser when PyYAML has
    it), with no node tree.

    The one difference is in lists of numbers. A plain scalar that matches
    ``_PLAIN_FLOAT`` is read as ``float()`` reads it, bit for bit (-0.0
    included). A non-empty list whose entries are all such scalars comes
    back as a float64 array of those numbers, and a non-empty list of
    float64 arrays of one shape as their stack, so a config's data arrives
    as C doubles, never as Python floats. A list that gets any other entry
    (an int, a bool, a null, a string, a tagged or resolved scalar, a list
    that does not load as an array, a mapping) or arrays of two shapes is
    the list yaml builds, with each entry as it would load alone: a plain
    float as a ``float``, a list of them as an array. An empty list is a
    list.

    Every other scalar goes through a throwaway ``ScalarNode``, yaml's
    resolver and its constructor, so YAML 1.1's rules and explicit tags
    hold. Lists and mappings are filled as their events arrive. A document
    that yaml would build another way or refuse is loaded again by yaml
    itself, so it gets yaml's result or yaml's error, with lists for lists:
    an anchor or an alias, a merge key ``<<`` or a ``=``, an explicit tag on
    a list or mapping, an unhashable key, a scalar that yaml's constructor
    refuses, a second document.

    yaml.load first composes the whole node tree, one ``ScalarNode`` and two
    ``Mark`` objects per number, and only then builds the config. Reading a
    210,000-float config from its file, yaml.load with the plain-float fast
    path peaked at 502 B per number under tracemalloc, this builder with
    Python floats at 43 B, and with C doubles at 8.2 B. The linear-regression
    config of the benchmark (6,600 numbers) peaks at 80 KB, against 0.30 MB
    with Python floats and 3.33 MB with yaml.load."""
    loader = _SafeLoader(stream)
    try:
        return _build(loader)
    except _Fallback:
        pass
    finally:
        loader.dispose()
    if hasattr(stream, "seek"):
        stream.seek(0)
    return yaml.load(stream, Loader=_SafeLoader)


class _Run:
    """An open list that loads as a float64 array so far: its entries are
    plain floats, or arrays of one shape, and its numbers are ``buf[start:]``
    of ``_build``'s buffer of C doubles."""

    __slots__ = ("start", "count", "shape")

    def __init__(self, start):
        self.start = start
        self.count = 0  # the entries that are arrays
        self.shape = None  # their shape, once one is closed


def _build(loader):
    """``load_yaml``'s pass over the events of ``loader``'s stream."""
    get_event = loader.get_event
    is_float = _PLAIN_FLOAT.match
    get_event()  # StreamStartEvent
    if loader.check_event(StreamEndEvent):
        return None
    get_event()  # DocumentStartEvent
    document = []  # receives the root
    stack = [document]  # the open collections, innermost last
    top = document
    key = _NO_KEY  # the key of the next value of the innermost mapping
    # the numbers of the open runs, which are the innermost open lists; a run
    # is put into its list or mapping when it closes, under the waiting key
    buf = array("d")
    floats = None  # buf.append while top is a run that takes floats
    while True:
        event = get_event()
        kind = type(event)
        if kind is ScalarEvent:
            if event.anchor is not None:
                raise _Fallback
            value = event.value
            if event.tag is None and event.implicit[0] and is_float(value):
                if floats is not None:
                    floats(float(value))
                    continue
                value = float(value)
            else:
                value = _construct_scalar(loader, event)
        elif kind is SequenceStartEvent or kind is MappingStartEvent:
            if (event.tag is not None or event.anchor is not None
                    or (type(top) is dict and key is _NO_KEY)):
                raise _Fallback  # a tagged or anchored collection, or a key
            if kind is SequenceStartEvent:
                if type(top) is _Run and top.shape is None and len(buf) > top.start:
                    top, key, buf = _spill(stack, buf, key)  # a list after floats
                top = _Run(len(buf))
                stack.append(top)
                floats = buf.append
                continue
            value = {}
        elif kind is SequenceEndEvent and type(top) is _Run:
            run = stack.pop()
            top = stack[-1]
            floats = None
            size = len(buf) - run.start
            shape = (size,) if run.shape is None else (run.count, *run.shape)
            if type(top) is _Run:
                if size and top.shape in (None, shape):
                    top.shape = shape
                    top.count += 1
                    continue
                # an empty list, or an array of another shape than its siblings
                value = (np.frombuffer(buf, offset=buf.itemsize * run.start).reshape(shape)
                         if size else [])
                top, key, buf = _spill(stack, buf, key)
            elif size:
                value = np.frombuffer(buf).reshape(shape)
                buf = array("d")  # the array holds the old one
            else:
                value = []
        elif kind is DocumentEndEvent:
            break
        elif kind is AliasEvent:
            raise _Fallback
        else:  # the end of the innermost list or mapping
            stack.pop()
            top = stack[-1]
            continue
        if type(top) is _Run:  # an entry that a float64 array cannot hold
            top, key, buf = _spill(stack, buf, key)
            floats = None
        if type(top) is list:
            top.append(value)
        elif key is _NO_KEY:
            key = value
        else:
            key = _put(top, key, value)
        if kind is MappingStartEvent:
            stack.append(value)
            top = value
    if not loader.check_event(StreamEndEvent):
        raise _Fallback  # a second document
    return document[0]


def _put(mapping, key, value):
    """Set ``mapping[key]``; return ``_NO_KEY``, the key that waits now."""
    try:
        mapping[key] = value
    except TypeError:  # an unhashable key
        raise _Fallback from None
    return _NO_KEY


def _spill(stack, buf, key):
    """Turn the open runs at the top of ``stack`` into the lists yaml builds,
    with each entry as it would load on its own: a float as a ``float``, an
    array as a view of ``buf``. Each list goes into the list or mapping
    below it, under ``key`` for the outermost. Return the new top, the key
    that waits now and a new buffer for the runs to come."""
    first = len(stack)
    while type(stack[first - 1]) is _Run:
        first -= 1
    flat = np.frombuffer(buf)
    for i in range(first, len(stack)):
        run = stack[i]
        if run.shape is None:  # floats, or nothing before the list above it
            end = stack[i + 1].start if i + 1 < len(stack) else len(buf)
            entries = buf[run.start:end].tolist()
        else:
            size = math.prod(run.shape)
            entries = [flat[j:j + size].reshape(run.shape)
                       for j in range(run.start, run.start + run.count * size, size)]
        stack[i] = entries
        parent = stack[i - 1]
        if type(parent) is list:
            parent.append(entries)
        else:
            key = _put(parent, key, entries)
    return stack[-1], key, array("d")


def _construct_scalar(loader, event):
    """The object yaml builds for a scalar event, as a one-node document."""
    tag = event.tag
    if tag is None or tag == "!":
        tag = loader.resolve(yaml.ScalarNode, event.value, event.implicit)
    if tag in _FLATTENED_TAGS:
        raise _Fallback
    node = yaml.ScalarNode(tag, event.value, event.start_mark, event.end_mark,
                           style=event.style)
    try:
        return loader.construct_document(node)
    except Exception:  # yaml's constructors raise many types, in yaml's order
        raise _Fallback from None


class ConfigError(ValueError):
    pass


def _check_keys(d, allowed, section):
    unknown = sorted(map(str, set(d) - set(allowed)))
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {', '.join(unknown)}")


def _parse_float(v, name):
    """A number or a numeric string (YAML 1.1 reads ``1e-3`` as a string) as
    a float. A bool is refused, not read as 1.0."""
    if isinstance(v, bool):
        raise ConfigError(f"{name} must be a number, got {v!r}")
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {reprlib.repr(v)}") from None
    except OverflowError:  # an integer of more than 308 digits
        raise ConfigError(f"{name} overflows float64, got {reprlib.repr(v)}") from None


# entry types of a data list that the float conversion would not refuse but
# read as numbers: YAML's true and false (1.0 and 0.0) and its null (NaN)
_NOT_NUMBERS = frozenset({bool, type(None)})


def _as_lists(v):
    """``v`` with each float64 array in it as the nested list of floats that
    ``yaml.load`` builds where ``load_yaml`` builds the array."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, list):
        return [_as_lists(x) for x in v]
    if isinstance(v, dict):
        return {k: _as_lists(x) for k, x in v.items()}
    return v


def _quote(v):
    """``v`` as a message quotes it: shortened, with arrays as lists."""
    return reprlib.repr(_as_lists(v))


def _parse_floats(v, name):
    """``_parse_float`` for a number, a nested list of numbers or a float64
    array, as a float array of finite entries. An array is taken as it is.
    In a list, a bool, a null or any other entry that is not a number is
    refused, and so is a list whose siblings are not all lists of its
    length; and a NaN or an infinity is refused anywhere."""
    if isinstance(v, np.ndarray):
        values = v
    else:
        values = _object_floats(np.asarray(_as_lists(v), dtype=object), name)
    finite = np.isfinite(values)
    if finite.all():
        return values
    raise ConfigError(f"{name} must be finite, got {float(values[~finite][0])!r}")


def _object_floats(obj, name):
    """The float array of the object array ``obj`` of numbers; for any other
    ``obj``, a ConfigError that names the first entry at fault."""
    if _NOT_NUMBERS.isdisjoint(map(type, obj.flat)):
        try:
            return obj.astype(float)
        except (TypeError, ValueError, OverflowError):
            pass
    for x in obj.flat:  # name the entry at fault
        if isinstance(x, list):
            raise ConfigError(f"{name} is ragged: the entries of each list must be "
                              "all numbers or all lists of one length")
        if type(x) in _NOT_NUMBERS:
            raise ConfigError(f"{name} must be a number, got {x!r}")
        _parse_float(x, name)
    raise ConfigError(f"{name} must be a number or a nested list of numbers")


def _parse_count(v, name):
    """A positive integer, not a bool, as ``RunConfig`` takes its counts."""
    if not engine._positive_int(v):
        raise ConfigError(f"{name} must be a positive integer, got {v!r}")
    return v


def _parse_threshold(v, name):
    if v is None or v == AUTO:
        return v
    if v in ("inf", ".inf"):
        return math.inf
    return _parse_float(v, name)


def _parse_constant(v, name, positive=False):
    """A problem constant: a finite number, not a bool, that is > 0 if
    ``positive`` and >= 0 otherwise."""
    try:
        x = _parse_float(v, name)
        ok = x < math.inf and (x > 0.0 if positive else x >= 0.0)  # False for NaN
    except (TypeError, ValueError):
        ok = False
    if not ok:
        sign = ">" if positive else ">="
        raise ConfigError(f"{name} must be finite and {sign} 0, got {v!r}")
    return x


@dataclass
class ExperimentConfig:
    problem: dict
    run: dict
    clipping: dict = field(default_factory=dict)
    privacy: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    replicates: dict = field(default_factory=dict)

    # the sections and the keys each one may hold
    SECTIONS = {
        "problem": ("kind", "b", "A", "b_list", "hidden_width", "n_clients",
                    "samples_per_client", "heterogeneity", "n_classes",
                    "input_dim", "seed", "g_bound", "sigma_l"),
        "run": ("rounds", "local_steps", "sampled_per_round", "eta_l", "eta_g",
                "seed", "x0", "noise_mode", "batch_size", "replay_count"),
        "clipping": ("mode", "threshold", "rho"),
        "privacy": ("enabled", "epsilon", "delta", "u", "v"),
        "output": ("directory",),
        "replicates": ("seeds",),
    }
    # the inline data keys: the sections keep load_yaml's float64 arrays there
    DATA = {"problem": ("b", "A", "b_list"), "run": ("x0",)}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config of the mapping ``raw``, as ``load_yaml`` builds it. The
        float64 arrays it holds outside the ``DATA`` keys become lists, so
        every other key is converted, checked and quoted as ``yaml.load``
        would build it."""
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        _check_keys(raw, cls.SECTIONS, "config")
        for section in ("problem", "run"):
            if section not in raw:
                raise ConfigError(f"missing required section {section!r}")
        sections = {}
        for section, keys in cls.SECTIONS.items():
            values = raw.get(section, {})
            if not isinstance(values, dict):
                raise ConfigError(f"section {section} must be a mapping, "
                                  f"got {_quote(values)}")
            _check_keys(values, keys, section)
            data = cls.DATA.get(section, ())
            sections[section] = {k: v if k in data else _as_lists(v)
                                 for k, v in values.items()}
        return cls(**sections)

    def _given(self, section, *keys, **converters):
        """Keyword arguments for a dataclass or builder whose own defaults
        stand for the keys that config section ``section`` does not hold:
        each of ``keys`` that it holds as it is, then each key of
        ``converters`` that it holds as ``convert(value, "<section>.<key>")``."""
        values = getattr(self, section)
        return {**{k: values[k] for k in keys if k in values},
                **{k: f(values[k], f"{section}.{k}") for k, f in converters.items()
                   if k in values}}

    def build_problem(self):
        """The federation the problem section describes. Its inline data
        (``b``; each client's entry of ``A`` and ``b_list``) may be lists or
        the float64 arrays ``load_yaml`` makes of lists of plain floats. An
        ``A`` and a ``b_list`` that loaded as one (N, n, d) and one (N, n)
        array become the problem's stack, read-only, so the data is held
        once. Otherwise each entry is replaced by the float array
        ``_parse_floats`` makes of it, one client at a time, so an array is
        kept as it is and a list is freed at once. A message that quotes
        data quotes it as a list. From then on the config holds float64
        arrays, and a second call builds the same problem from them, bit for
        bit."""
        p = self.problem
        kind = p.get("kind")
        g_bound = p.get("g_bound")
        if g_bound is not None:  # absent: the builders estimate G
            g_bound = _parse_constant(g_bound, "problem.g_bound", positive=True)
        constants = dict(g_bound=g_bound, **self._given("problem", sigma_l=_parse_constant))
        if kind == "quadratic":
            b = _parse_floats(p["b"], "problem.b")
            if b.ndim != 1:
                raise ConfigError("problem.b must be a list of numbers, one per "
                                  f"client, got {_quote(p['b'])}")
            p["b"] = b
            return build_quadratic_ensemble(b, **constants)
        if kind == "linear_regression":
            A, b = p["A"], p["b_list"]
            if (isinstance(A, np.ndarray) and isinstance(b, np.ndarray)
                    and (A.ndim, b.ndim) == (3, 2)):  # one stack each
                return build_linear_regression_ensemble(
                    _parse_floats(A, "problem.A"), _parse_floats(b, "problem.b_list"), **constants)
            for key in ("A", "b_list"):
                if isinstance(p[key], np.ndarray):  # its clients' equal-shape arrays
                    p[key] = list(p[key])
                if not isinstance(p[key], list):
                    raise ConfigError(f"problem.{key} must be a list, one entry per "
                                      f"client, got {_quote(p[key])}")
            A, b = p["A"], p["b_list"]
            for i in range(len(A)):
                A[i] = _parse_floats(A[i], "problem.A")
            for i in range(len(b)):
                b[i] = _parse_floats(b[i], "problem.b_list")
            if any(a.ndim > 2 for a in A):
                raise ConfigError("problem.A must hold one matrix per client")
            if any(v.ndim > 1 for v in b):
                raise ConfigError("problem.b_list must hold one vector per client")
            return build_linear_regression_ensemble(A, b, **constants)
        if kind == "mlp":
            if "seed" in p and not engine._integer(p["seed"]):
                raise ConfigError(f"problem.seed must be an integer, got {p['seed']!r}")
            return build_mlp_synthetic_ensemble(
                hidden_width=_parse_count(p["hidden_width"], "problem.hidden_width"),
                N=_parse_count(p["n_clients"], "problem.n_clients"),
                samples_per_client=_parse_count(p["samples_per_client"],
                                                "problem.samples_per_client"),
                **self._given("problem", "seed", heterogeneity=_parse_float,
                              n_classes=_parse_count, input_dim=_parse_count),
                **constants)
        raise ConfigError(f"unknown problem kind {kind!r}")

    def _run_seed(self):
        return self.run.get("seed", 0)

    def build_run_config(self, problem, seed=None) -> engine.RunConfig:
        """The run section as an ``engine.RunConfig`` for ``problem``; an
        ``x0`` that is a list or an array is replaced in the config by its
        float array, as ``build_problem`` replaces the data lists."""
        r = self.run
        q = r["local_steps"]
        q = engine.Q_INF if q in ("inf", ".inf") else q
        x0 = r.get("x0", 0.0)
        if np.isscalar(x0):
            x0 = np.full(problem.dim, _parse_float(x0, "run.x0"))
        else:
            x0 = r["x0"] = _parse_floats(x0, "run.x0")
        if x0.shape != (problem.dim,):
            raise ConfigError(f"x0 has dimension {x0.shape}, problem needs {problem.dim}")
        policy = ClippingPolicy(**self._given("clipping", "mode", threshold=_parse_threshold,
                                              rho=_parse_float))
        privacy_cfg = PrivacyConfig(**self._given("privacy", "enabled", epsilon=_parse_float,
                                                  delta=_parse_float, u=_parse_float, v=_parse_float))
        # counts and seeds go unconverted, so RunConfig refuses a non-integer
        return engine.RunConfig(
            rounds=r["rounds"], local_steps=q,
            n_clients=problem.n_clients,
            sampled_per_round=r["sampled_per_round"],
            eta_l=_parse_float(r["eta_l"], "run.eta_l"),
            eta_g=_parse_float(r["eta_g"], "run.eta_g"),
            policy=policy, privacy=privacy_cfg,
            seed=self._run_seed() if seed is None else seed, x0=x0,
            **self._given("run", "noise_mode", "batch_size", "replay_count"))

    def replicate_seeds(self):
        seeds = self.replicates.get("seeds")
        if seeds is None:
            return [self._run_seed()]
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError("replicates.seeds must be a non-empty list")
        for seed in seeds:
            if not engine._integer(seed):
                raise ConfigError("replicates.seeds: seed must be an integer, "
                                  f"got {reprlib.repr(seed)}")
        if len(set(seeds)) != len(seeds):
            raise ConfigError(f"replicates.seeds repeats a seed: {seeds}")
        return seeds


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "rb") as stream:  # libyaml reads it chunk by chunk
            raw = load_yaml(stream)
    # yaml's constructors raise the last three for a scalar whose explicit tag
    # does not fit it: !!float 1.5.5, !!bool x, !!timestamp x
    except (OSError, yaml.YAMLError, ValueError, KeyError, AttributeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def _csv_row(values) -> str:
    """The line ``csv.writer`` writes for ``values``: a float as its repr,
    anything else as ``str``, comma-separated, ending in CRLF. It is for
    numbers and plain names only: it never quotes, so no value may hold a
    comma, a quote or a line break, and a row may not be one empty field."""
    return ",".join([float.__repr__(v) if isinstance(v, float) else str(v)
                     for v in values]) + "\r\n"


def write_artifacts(trace: engine.Trace, outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    scatter = outdir / "scatter"
    scatter.mkdir(exist_ok=True)
    # each round's record is built and rendered once, into its rounds.jsonl
    # line and its scatter file, and written before the next one is built
    with open(outdir / "rounds.jsonl", "w") as fh:
        for t in range(trace.config.rounds):
            line, csv_text = engine.render_record(trace.record(t))
            fh.write(line + "\n")
            with open(scatter / f"round_{t:04d}.csv", "w", newline="") as sc:
                sc.write(csv_text)

    report = diagnostics.clip_bias_terms(trace)
    with open(outdir / "bias.csv", "w", newline="") as fh:
        fh.write(_csv_row(["t", "alpha_bar", "mean_abs_realized_gap",
                           "mean_abs_cross_gap", "mean_sq_realized_gap",
                           "mean_sq_cross_gap"]))
        columns = (trace.alpha_bar, report.mean_abs_realized_gap,
                   report.mean_abs_cross_gap, report.mean_sq_realized_gap,
                   report.mean_sq_cross_gap)
        fh.writelines(map(_csv_row, zip(range(trace.config.rounds),
                                        *(c.tolist() for c in columns))))

    prob = trace.problem
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

    threshold = trace.config.policy.finite_threshold
    summary = {
        "seed": trace.config.seed,
        "rounds": trace.config.rounds,
        "final_loss": float(trace.loss[-1]),
        "final_grad_norm": float(trace.global_grad_norm[-1]),
        "final_x_norm": float(np.linalg.norm(trace.x[-1])),
        "gamma1": report.gamma1,
        "gamma2": report.gamma2,
        "sigma2": 0.0 if trace.noise_spec is None else trace.noise_spec.sigma2,
        "threshold": "" if threshold is None else threshold,
        "oracle_violations": trace.oracle_violations(),
    }
    with open(outdir / "summary.csv", "w", newline="") as fh:
        fh.write(_csv_row(summary) + _csv_row(summary.values()))
    return summary


def _parse_seed_override(text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"--seed-override must be an integer, got {text!r}") from None


def cmd_run(config_path, out=None, seed_override=None) -> int:
    cfg = load_config(config_path)
    directory = out if out is not None else cfg.output.get("directory", "out")
    if not isinstance(directory, str):
        raise ConfigError(f"output.directory must be a string, got {reprlib.repr(directory)}")
    outdir = Path(directory)
    try:
        problem = cfg.build_problem()
        seeds = (cfg.replicate_seeds() if seed_override is None
                 else [_parse_seed_override(seed_override)])
        # every seed is checked before the first run writes anything
        run_cfgs = [cfg.build_run_config(problem, seed=seed) for seed in seeds]
    except MemoryError as exc:  # numpy's "Unable to allocate ..."
        raise ConfigError(f"the problem is too large to allocate ({exc})") from None
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
        del trace  # not alive through the next seed's run
    if len(seeds) > 1:
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "summary.csv", "w", newline="") as fh:
            fh.write(_csv_row(summaries[0]))
            fh.writelines(_csv_row(s.values()) for s in summaries)
    return 0


def cmd_table1(out) -> int:
    grid = fixedpoint.table1_grid()
    with open(out, "w", newline="") as fh:
        fh.write(_csv_row(["local_steps", "threshold", "fixed_point",
                           "solver_residual", "simulation", "sim_gap"]))
        fh.writelines(_csv_row([q, c, cell["solver"], cell["solver_residual"],
                                cell["simulation"],
                                abs(cell["simulation"] - cell["solver"])])
                      for (q, c), cell in sorted(grid.items()))
    return 0


def _read_lines(path: Path) -> list:
    """The lines of a file of a run directory; one that cannot be read is a
    ConfigError that names it."""
    try:
        return path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _load_runs(dirpath: Path):
    """Map seed -> (per-round losses, per-round gradient norms) for a
    completed run directory. A file that is missing or holds no rounds or
    seed, and a line that is not a round record, are ConfigErrors that name
    the file and the line."""
    direct = dirpath / "rounds.jsonl"
    paths = [direct] if direct.exists() else sorted(dirpath.glob("rep_*/rounds.jsonl"))
    if not paths:
        raise ConfigError(f"no rounds.jsonl under {dirpath}")
    runs = {}
    for p in paths:
        losses, grad_norms = [], []
        for n, line in enumerate(_read_lines(p), 1):
            try:
                row = json.loads(line)
                losses.append(float(row["loss"]))
                grad_norms.append(float(row["global_grad_norm"]))
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"{p} line {n} is not a round record: "
                                  f"{type(exc).__name__}: {exc}") from None
        if not losses:
            raise ConfigError(f"{p} holds no rounds")
        summary = p.parent / "summary.csv"
        lines = _read_lines(summary)
        try:
            seed = int(next(csv.DictReader(lines))["seed"])
        except (StopIteration, KeyError, TypeError, ValueError):
            raise ConfigError(f"{summary} holds no seed") from None
        runs[seed] = losses, grad_norms
    return runs


def cmd_compare(dir_a, dir_b, out=None) -> int:
    runs_a = _load_runs(Path(dir_a))
    runs_b = _load_runs(Path(dir_b))
    if set(runs_a) != set(runs_b):
        raise ConfigError(f"seed sets differ: {sorted(runs_a)} vs {sorted(runs_b)}")
    per_seed = {}
    final_loss_deltas = []
    for seed in sorted(runs_a):
        (loss_a, grad_a), (loss_b, grad_b) = runs_a[seed], runs_b[seed]
        if len(loss_a) != len(loss_b):
            raise ConfigError(f"round counts differ for seed {seed}: "
                              f"{len(loss_a)} vs {len(loss_b)}")
        loss_delta = [a - b for a, b in zip(loss_a, loss_b)]
        grad_delta = [a - b for a, b in zip(grad_a, grad_b)]
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
    parser = argparse.ArgumentParser(
        prog="fedclip",
        epilog="exit codes: 0 success, 2 config error (or a run directory that "
               "compare cannot read), 3 divergence, 4 output path that cannot be "
               "written; each error is one JSON line on stderr")
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


# built once: a parser is cyclic garbage, which would outlive each invocation
# until the next collection
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
    except OSError as exc:  # an input that cannot be read is a ConfigError
        print(json.dumps({"error": "output", "path": exc.filename,
                          "message": str(exc)}), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
