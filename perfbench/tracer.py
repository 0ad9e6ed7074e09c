"""Span tracing around the public calls of each chaosnet module.

The tracer patches public functions and methods from outside the package:
every module attribute that is bound to a traced function (including
re-exports such as ``chaosnet.network.flatten_images``) is replaced by a
wrapper that records a span (name, layer, start, end, parent, attributes,
exception type) and, when asked, the ``tracemalloc`` peak inside the span.
Spans are kept in memory; :func:`layer_metrics` turns them into the
per-layer numbers after the run.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("mnist", "maps", "reservoir", "network", "rpso", "analysis", "cli")

# Per-layer metrics: (name, unit, end-to-end metric and workloads it should move).
# "computed" marks operation counts derived from arguments, not measured.
METRICS = (
    ("mnist.load_s", "s", "run_s on train, search"),
    ("reservoir.flatten_s", "s", "run_s, peak_rss_mb on train, search"),
    ("reservoir.flatten_calls", "count", "run_s, peak_rss_mb on train, search"),
    ("reservoir.flatten_peak_mb", "MB", "peak_rss_mb on train, search"),
    ("reservoir.preactivation_s", "s", "run_s on train, search"),
    ("reservoir.preactivation_calls", "count", "run_s on train, search"),
    ("reservoir.preactivation_rows", "count", "run_s on train, search"),
    ("reservoir.preactivation_gflop", "GFLOP", "computed; run_s on train, search"),
    ("reservoir.preactivation_bytes", "bytes", "computed; run_s on train, search"),
    ("reservoir.build_matrix_s", "s", "run_s on search (small share)"),
    ("reservoir.build_matrix_calls", "count", "run_s on search (small share)"),
    ("reservoir.stream_s", "s", "latency_tail_ms, run_s on stream"),
    ("reservoir.stream_peak_kb", "KB", "latency_tail_ms, peak_rss_mb on stream"),
    ("maps.orbit_steps", "count", "computed; latency_tail_ms, run_s on stream; run_s on analyze"),
    ("maps.orbit_steps_per_s", "1/s", "computed steps per second; latency_tail_ms on stream"),
    ("maps.steps_per_build", "count", "computed; run_s on search"),
    ("maps.steps_per_stream_input", "count", "computed; latency_tail_ms, run_s on stream"),
    ("network.sgd_epoch_s", "s", "run_s on train, search"),
    ("network.sgd_batches", "count", "computed; run_s on train, search"),
    ("network.evaluate_s", "s", "run_s on train, search"),
    ("network.predict_s", "s", "run_s on train, search; latency_tail_ms, run_s on stream"),
    ("rpso.eval_ok_s", "s", "run_s on search"),
    ("rpso.eval_fail_s", "s", "run_s on search"),
    ("rpso.evals", "count", "run_s on search"),
    ("rpso.evals_ok", "count", "run_s on search"),
    ("rpso.evals_overflow", "count", "run_s on search"),
    ("rpso.evals_diverged", "count", "run_s on search"),
    ("rpso.evals_error", "count", "run_s on search"),
    ("rpso.ok_ratio", "ratio", "run_s on search"),
    ("rpso.swarm_overhead_s", "s", "run_s on search"),
    ("rpso.checkpoint_s", "s", "run_s on search"),
    ("rpso.checkpoint_bytes", "bytes", "run_s on search"),
    ("analysis.apen_s", "s", "run_s on analyze"),
    ("analysis.apen_calls", "count", "run_s on analyze"),
    ("analysis.apen_comparisons", "count", "computed; run_s on analyze"),
    ("analysis.bifurcation_s", "s", "run_s on analyze"),
    ("analysis.poincare_s", "s", "run_s on analyze"),
    ("analysis.weight_series_s", "s", "run_s on analyze"),
    ("cli.self_s", "s", "run_s on search, train, analyze"),
    *((f"{layer}.peak_mb", "MB", "peak_rss_mb") for layer in LAYERS),
    ("trace.overhead_s", "s", "traced minus untraced round time (not a layer)"),
    # end-to-end figures too unsteady on a 2-vCPU VM to gate (see README)
    ("latency_p50_ms", "ms", "median request latency, untraced rounds (not a layer)"),
    ("evals_per_s", "1/s", "fitness evaluations per second on search, untraced (not a layer)"),
)


@dataclass
class Span:
    name: str
    layer: str
    parent: "Span | None"
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)
    error: str | None = None
    peak_bytes: int = 0
    # tracemalloc bookkeeping
    base_bytes: int = 0
    peak_seen: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``memory=True`` also takes tracemalloc peaks per span."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, parent, 0.0)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak_seen = max(parent.peak_seen, peak)
            tracemalloc.reset_peak()
            span.base_bytes = span.peak_seen = current
        self._stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self.memory:
            span.peak_seen = max(span.peak_seen, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = span.peak_seen - span.base_bytes
            if span.parent is not None:
                span.parent.peak_seen = max(span.parent.peak_seen, span.peak_seen)

    def wrap(self, fn, name: str, layer: str, describe=None):
        """Wrap ``fn`` in a span; ``describe(args, kwargs, result, exc)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                span.error = type(error).__name__
                raise
            finally:
                self.close(span)
                if describe is not None:
                    span.attrs.update(describe(args, kwargs, result, exc))

        return traced

    # -- patching --------------------------------------------------------------

    def patch_function(self, fn, name: str, layer: str, describe=None) -> None:
        """Replace ``fn`` wherever a chaosnet module binds it."""
        traced = self.wrap(fn, name, layer, describe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("chaosnet"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, traced)

    def patch_method(self, cls, attr: str, name: str, layer: str, describe=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, layer, describe))

    def install(self) -> None:
        from chaosnet import analysis, cli, maps, mnist, network, reservoir, rpso

        self.patch_function(cli.main, "cli.main", "cli")
        self.patch_function(mnist.load_mnist, "mnist.load_mnist", "mnist")
        self.patch_function(maps.iterate_series, "maps.iterate_series", "maps",
                            lambda a, k, r, e: _steps(a[0], a[3], e))
        self.patch_function(reservoir.flatten_images, "reservoir.flatten_images", "reservoir")
        self.patch_function(reservoir.build_matrix, "reservoir.build_matrix", "reservoir",
                            _build_steps)
        self.patch_method(reservoir.Reservoir, "preactivation", "reservoir.preactivation",
                          "reservoir", _preactivation_attrs)
        self.patch_function(network.train, "network.train", "network")
        self.patch_method(network.Classifier, "train_sgd", "network.train_sgd", "network",
                          _sgd_attrs)
        self.patch_function(network.evaluate, "network.evaluate", "network")
        self.patch_method(network.NetworkModel, "predict", "network.predict", "network")
        self.patch_function(network.save_model, "network.save_model", "network")
        self.patch_function(rpso.optimize, "rpso.optimize", "rpso")
        self.patch_function(rpso.save_checkpoint, "rpso.save_checkpoint", "rpso",
                            lambda a, k, r, e: {} if e else {"bytes": os.path.getsize(a[1])})
        self.patch_function(analysis.approximate_entropy, "analysis.approximate_entropy",
                            "analysis", _apen_attrs)
        self.patch_function(analysis.bifurcation_sweep, "analysis.bifurcation_sweep", "analysis")
        self.patch_function(analysis.poincare_pairs, "analysis.poincare_pairs", "analysis",
                            lambda a, k, r, e: _steps(a[0], a[1], e))
        self.patch_function(analysis.weight_series, "analysis.weight_series", "analysis")
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self.memory:
            tracemalloc.stop()


# -- attribute extractors (computed operation counts) ---------------------------


def _orbit_steps(warmup: int, entries: int, exc, per_iteration: int = 1) -> int:
    from chaosnet.maps import MapOverflowError

    if isinstance(exc, MapOverflowError):
        return exc.iteration * per_iteration
    return warmup + entries


def _steps(params, count: int, exc) -> dict:
    """Orbit steps of ``iterate_series`` / ``poincare_pairs`` (positional calls)."""
    return {"orbit_steps": _orbit_steps(params.preliminary_iterations, count, exc)}


def _config_steps(config, exc) -> int:
    params = config.effective_params
    entries = config.reservoir_size * config.input_dim
    if config.method.init_kind == "sine":
        # one vectorised step per row over all columns; overflow reports the row
        return _orbit_steps(0, entries, exc, config.input_dim)
    return _orbit_steps(params.preliminary_iterations, entries, exc)


def _build_steps(args, kwargs, result, exc):
    return {"orbit_steps": _config_steps(args[0], exc)}


def _preactivation_attrs(args, kwargs, result, exc):
    reservoir, inputs = args[0], np.asarray(args[1])
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "materialized")
    rows = 1 if inputs.ndim == 1 else inputs.shape[0]
    config = reservoir.config
    attrs = {"mode": mode, "rows": rows}
    if mode == "streaming":
        attrs["orbit_steps"] = _config_steps(config, exc)
    else:
        p, dim = config.reservoir_size, config.input_dim
        attrs["flop"] = 2 * rows * dim * p
        attrs["bytes"] = 8 * (rows * dim + p * dim + rows * p)
    return attrs


def _sgd_attrs(args, kwargs, result, exc):
    from chaosnet.network import DEFAULT_BATCH_SIZE, DEFAULT_EPOCHS

    rows = np.asarray(args[1]).shape[0]
    epochs = kwargs.get("epochs", DEFAULT_EPOCHS)
    batch = kwargs.get("batch_size", DEFAULT_BATCH_SIZE)
    return {"epochs": epochs, "batches": epochs * -(-rows // batch)}


def _apen_attrs(args, kwargs, result, exc):
    n = np.asarray(args[0]).size
    config = args[1] if len(args) > 1 else kwargs.get("config")
    if config is None:
        from chaosnet.analysis import DEFAULT_M as m
    else:
        m = config.m
    return {"comparisons": (n - m + 1) ** 2 + (n - m) ** 2}


# -- metrics --------------------------------------------------------------------


def _self_time(span: Span, children: dict) -> float:
    return span.duration - sum(c.duration for c in children.get(id(span), ()))


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _round_metrics(spans: list[Span]) -> dict[str, float]:
    """Totals and counts for the spans of one round."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    pre = [s for s in named("reservoir.preactivation") if s.attrs.get("mode") != "streaming"]
    pre_done = [s for s in pre if not s.error]
    evals = named("rpso.evaluate")
    outcomes = [s.attrs.get("outcome") for s in evals]
    orbit = _outermost_orbit_spans(spans)
    orbit_steps = sum(s.attrs.get("orbit_steps", 0) for s in orbit)
    orbit_time = sum(s.duration for s in orbit)
    builds = named("reservoir.build_matrix")
    streams = [s for s in named("reservoir.preactivation") if s.attrs.get("mode") == "streaming"]
    optimize_overhead = sum(
        s.duration - sum(e.duration for e in evals if _has_ancestor(e, s))
        for s in named("rpso.optimize")
    )
    checkpoints = named("rpso.save_checkpoint")
    out = {
        "mnist.load_s": total("mnist.load_mnist"),
        "reservoir.flatten_s": total("reservoir.flatten_images"),
        "reservoir.flatten_calls": len(named("reservoir.flatten_images")),
        "reservoir.preactivation_s": sum(_self_time(s, children) for s in pre),
        "reservoir.preactivation_calls": len(pre),
        "reservoir.preactivation_rows": sum(s.attrs["rows"] for s in pre_done),
        "reservoir.preactivation_gflop": sum(s.attrs["flop"] for s in pre_done) / 1e9,
        "reservoir.preactivation_bytes": sum(s.attrs["bytes"] for s in pre_done),
        "reservoir.build_matrix_s": total("reservoir.build_matrix"),
        "reservoir.build_matrix_calls": len(builds),
        "maps.orbit_steps": orbit_steps,
        "maps.orbit_steps_per_s": orbit_steps / orbit_time if orbit_time > 0 else 0.0,
        "maps.steps_per_build": _p50([s.attrs["orbit_steps"] for s in builds if not s.error]),
        "maps.steps_per_stream_input": _p50(
            [s.attrs["orbit_steps"] / s.attrs["rows"] for s in streams if not s.error]
        ),
        "network.sgd_batches": sum(s.attrs["batches"] for s in named("network.train_sgd")),
        "network.evaluate_s": total("network.evaluate"),
        "network.predict_s": total("network.predict"),
        "rpso.evals": len(evals),
        "rpso.evals_ok": outcomes.count("ok"),
        "rpso.evals_overflow": outcomes.count("overflow"),
        "rpso.evals_diverged": outcomes.count("diverged"),
        "rpso.evals_error": outcomes.count("error"),
        "rpso.ok_ratio": outcomes.count("ok") / len(evals) if evals else 0.0,
        "rpso.swarm_overhead_s": optimize_overhead,
        "rpso.checkpoint_s": total("rpso.save_checkpoint"),
        "rpso.checkpoint_bytes": checkpoints[-1].attrs.get("bytes", 0) if checkpoints else 0,
        "analysis.apen_calls": len(named("analysis.approximate_entropy")),
        "analysis.apen_comparisons": sum(
            s.attrs["comparisons"] for s in named("analysis.approximate_entropy")
        ),
        "analysis.bifurcation_s": total("analysis.bifurcation_sweep"),
        "analysis.poincare_s": total("analysis.poincare_pairs"),
        "analysis.weight_series_s": total("analysis.weight_series"),
        "cli.self_s": sum(_self_time(s, children) for s in named("cli.main")),
    }
    return out


def _has_ancestor(span: Span, ancestor: Span) -> bool:
    node = span.parent
    while node is not None:
        if node is ancestor:
            return True
        node = node.parent
    return False


ORBIT_SPANS = ("reservoir.build_matrix", "maps.iterate_series", "analysis.poincare_pairs")


def _is_orbit(span: Span) -> bool:
    return span.name in ORBIT_SPANS or (
        span.name == "reservoir.preactivation" and span.attrs.get("mode") == "streaming"
    )


def _outermost_orbit_spans(spans: list[Span]) -> list[Span]:
    out = []
    for s in spans:
        if not _is_orbit(s):
            continue
        node, nested = s.parent, False
        while node is not None:
            if _is_orbit(node):
                nested = True
                break
            node = node.parent
        if not nested:
            out.append(s)
    return out


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def layer_metrics(timed: Tracer, memory: Tracer, untraced_round_s: list[float],
                  traced_round_s: list[float]) -> dict[str, float]:
    """Per-layer metrics: per-round totals as medians over the traced rounds,
    per-call latencies as medians over every call, peaks from the memory pass."""
    rounds: dict[int, list[Span]] = {}
    for s in timed.spans:
        rounds.setdefault(id(_root(s)), []).append(s)
    per_round = [_round_metrics(spans) for spans in rounds.values()]
    metrics = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}

    spans = timed.spans
    evals = [s for s in spans if s.name == "rpso.evaluate"]
    streams = [s for s in spans if s.name == "reservoir.preactivation"
               and s.attrs.get("mode") == "streaming"]
    metrics["reservoir.stream_s"] = _p50([s.duration / s.attrs["rows"] for s in streams])
    metrics["network.sgd_epoch_s"] = _p50(
        [s.duration / s.attrs["epochs"] for s in spans
         if s.name == "network.train_sgd" and s.attrs["epochs"]]
    )
    metrics["rpso.eval_ok_s"] = _p50([s.duration for s in evals if s.attrs["outcome"] == "ok"])
    metrics["rpso.eval_fail_s"] = _p50(
        [s.duration for s in evals if s.attrs["outcome"] != "ok"]
    )
    metrics["analysis.apen_s"] = _p50(
        [s.duration for s in spans if s.name == "analysis.approximate_entropy"]
    )

    mem = memory.spans
    metrics["reservoir.flatten_peak_mb"] = max(
        (s.peak_bytes for s in mem if s.name == "reservoir.flatten_images"), default=0) / 1e6
    metrics["reservoir.stream_peak_kb"] = max(
        (s.peak_bytes for s in mem if s.name == "reservoir.preactivation"
         and s.attrs.get("mode") == "streaming"), default=0) / 1e3
    for layer in LAYERS:
        metrics[f"{layer}.peak_mb"] = max(
            (s.peak_bytes for s in mem if s.layer == layer), default=0) / 1e6
    metrics["trace.overhead_s"] = (
        statistics.median(traced_round_s) - statistics.median(untraced_round_s)
    )
    return metrics
