"""Set-up, timed rounds and output checks of the four workloads.

``run.py`` starts this file as a child process, once to set up and once to
measure, so that the measuring process's peak RSS covers only the timed
phase:

    python3 perfbench/worker.py setup   --workload W --seed N --size full --work DIR
    python3 perfbench/worker.py measure --workload W --seed N --size full --work DIR \\
        --seconds S --trace 0|1

Each prints one JSON object as its last line of standard output.  The
program under test is driven in-process through ``chaosnet.cli.main`` (or,
for ``stream``, ``network.load_model`` and ``NetworkModel.predict``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import checks
import synth
import tracer as tracing

WORKLOADS = ("search", "train", "stream", "analyze")

# Everything a workload's size changes.  "full" is the benchmark; "tiny" runs
# every workload and check in seconds for the smoke test.
SIZES = {
    "full": {
        "train_count": 60_000, "test_count": 10_000, "setup_reps": 3,
        "search": ["--set", "optimize.particles=8", "--set", "optimize.iterations=2"],
        "train": [],
        "stream": ["--subset", "10000"], "stream_block": 16,
        "analyze": [],
    },
    "tiny": {
        "train_count": 600, "test_count": 100, "setup_reps": 2,
        "search": ["--set", "optimize.particles=6", "--set", "optimize.iterations=1",
                   "--set", "train.max_epochs=2"],
        "train": ["--set", "architecture.P=10", "--set", "architecture.H=6",
                  "--set", "train.max_epochs=2"],
        "stream": ["--set", "architecture.P=5", "--set", "train.max_epochs=2"],
        "stream_block": 4,
        "analyze": ["--set", "sweep.series_length=300", "--set", "analysis.poincare_count=200"],
    },
}

# Fixed workload settings (the CLI defaults fill in the rest: map params
# a1=1.0 a2=1.0 a3=1.51 a4=0.74 A=-0.81 B=0.51, P=25, 20 epochs, seed 0).
SEARCH_FLAGS = ["--set", "method=1"]
TRAIN_FLAGS = ["--set", "method=4", "--set", "architecture.P=100", "--set", "architecture.H=60"]
STREAM_FLAGS = ["--set", "method=4"]
# a1 = 0.8 gives a chaotic weight stream (ApEn about 0.52); a1 = 2.0 overflows
ANALYZE_FLAGS = ["--set", "sweep.lo=0.8", "--set", "sweep.hi=2.0", "--set", "sweep.step=1.2"]


def _cli(argv: list[str]) -> tuple[int, str]:
    from chaosnet import cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    return code, captured.getvalue()


def _resolved(flags: list[str]) -> dict:
    """The CLI's resolved config for ``flags``, to record what a workload used."""
    from chaosnet import cli

    return cli.resolve_config(cli.build_parser().parse_args(["train", *flags]))


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- set-up ---------------------------------------------------------------------


def setup(workload: str, seed: int, size: str, work: Path) -> dict:
    """Write the synthetic IDX files (and for ``stream`` train and save the
    deployed model) several times; report the median wall time."""
    spec = SIZES[size]
    times = []
    for _ in range(spec["setup_reps"]):
        _fresh(work)
        start = time.perf_counter()
        synth.write_idx_dir(work / "data", seed, spec["train_count"], spec["test_count"])
        if workload == "stream":
            code, _ = _cli(["train", "--data-dir", str(work / "data"),
                            "--output-dir", str(work / "model"), *STREAM_FLAGS,
                            *spec["stream"]])
            if code != 0:
                raise RuntimeError(f"training the stream model exited with {code}")
        times.append(time.perf_counter() - start)
    return {"setup_s": statistics.median(times), "setup_reps_s": times}


# -- rounds ---------------------------------------------------------------------


@dataclass
class Evaluation:
    position: np.ndarray
    value: float | None
    error: str | None
    start: float
    end: float
    traced_outcome: str | None = None


class EvalRecorder:
    """Records every fitness evaluation of ``optimize``: position, value or
    exception, and its time.  It wraps the objective that
    ``rpso.make_accuracy_objective`` returns; with a tracer it also opens an
    ``rpso.evaluate`` span and classifies the outcome from the exceptions
    its child spans saw."""

    def __init__(self, trace: tracing.Tracer | None):
        self.trace = trace
        self.records: list[Evaluation] = []

    def __enter__(self):
        from chaosnet import rpso

        self._original = rpso.make_accuracy_objective
        rpso.make_accuracy_objective = self._make
        return self

    def __exit__(self, *exc):
        from chaosnet import rpso

        rpso.make_accuracy_objective = self._original

    def _make(self, *args, **kwargs):
        fitness = self._original(*args, **kwargs)

        def recorded(position):
            span = self.trace.open("rpso.evaluate", "rpso") if self.trace else None
            first_child = len(self.trace.spans) if self.trace else 0
            value = error = None
            start = time.perf_counter()
            try:
                value = float(fitness(position))
                return value
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                record = Evaluation(np.array(position, dtype=np.float64), value, error,
                                    start, end)
                if span is not None:
                    self.trace.close(span)
                    seen = {s.error for s in self.trace.spans[first_child:]}
                    record.traced_outcome = span.attrs["outcome"] = _outcome(
                        value, error, "MapOverflowError" in seen,
                        "TrainingDivergedError" in seen)
                self.records.append(record)

        return recorded


def _outcome(value, error, overflowed: bool, diverged: bool) -> str:
    if error is not None or value is None or not math.isfinite(value):
        return "error"  # rpso._evaluate scores this -inf: a failed operation
    if overflowed:
        return "overflow"
    if diverged:
        return "diverged"
    return "ok"


class Workload:
    def __init__(self, size: str, work: Path):
        self.work = work
        self.spec = SIZES[size]
        self.data = work / "data"
        self.rounds: list[dict] = []

    def prepare(self) -> None:
        """Untimed preparation inside the measuring process: import the
        package, so the first timed round does not pay for it."""
        import chaosnet.cli  # noqa: F401

    def requests(self, rounds: list[dict], round_s: list[float]) -> tuple[list[float], float]:
        """Latency of every request in ``rounds`` (here: each command) and
        fitness evaluations per second (0 without a swarm)."""
        return round_s, 0.0


class Search(Workload):
    """``chaosnet optimize``: method 1, P=25, 20 % split, 8 particles x 2 iterations."""

    def flags(self):
        return [*SEARCH_FLAGS, *self.spec["search"]]

    def info(self):
        config = _resolved(self.flags())
        return {"method": config["method"], "P": config["architecture"]["P"],
                "search_box": {"lower": config["optimize"]["lower"],
                               "upper": config["optimize"]["upper"]},
                "swarm": {k: config["optimize"][k] for k in ("particles", "iterations")},
                "swarm_seed": config["seed"]}

    def round(self, out: Path, trace) -> dict:
        with EvalRecorder(trace) as recorder:
            code, _ = _cli(["optimize", "--data-dir", str(self.data),
                            "--output-dir", str(out), *self.flags()])
        best = yaml.safe_load((out / "best_params.yaml").read_text()) if code == 0 else {}
        return {"code": code, "evals": recorder.records, "best": best}

    def requests(self, rounds, round_s):
        rates = [len(r["evals"]) / (r["evals"][-1].end - r["evals"][0].start)
                 for r in rounds if r["evals"]]
        return round_s, statistics.median(rates) if rates else 0.0

    def check(self):
        config = _resolved(self.flags())
        rows, method = config["architecture"]["P"], config["method"]
        attempted = failed = 0
        problems, observed = [], None
        oracle_cache: dict[tuple, bool] = {}
        for r in self.rounds:
            if r["code"] != 0:
                problems.append(f"optimize exited with {r['code']}")
                attempted, failed = attempted + 1, failed + 1
                continue
            outcomes = []
            for e in r["evals"]:
                key = tuple(float(v) for v in e.position)
                if key not in oracle_cache:
                    a, b, *coeffs = key
                    oracle_cache[key] = checks.matrix_overflows(method, a, b, coeffs, rows)
                overflow = oracle_cache[key]
                if e.value == 0.0:
                    outcome = _outcome(e.value, e.error, overflow, not overflow)
                else:
                    outcome = _outcome(e.value, e.error, False, False)
                    if overflow and outcome == "ok":
                        problems.append(f"particle {key} scored {e.value} but its map overflows")
                if e.traced_outcome is not None and e.traced_outcome != outcome:
                    problems.append(f"traced outcome {e.traced_outcome} != checked {outcome}")
                outcomes.append(outcome)
            attempted += len(outcomes)
            failed += outcomes.count("error")
            best = max((e.value for e in r["evals"] if e.value is not None), default=None)
            if r["best"].get("fitness") != best or r["best"].get("evaluations") != len(outcomes):
                problems.append(f"best_params.yaml {r['best']} disagrees with the "
                                f"{len(outcomes)} evaluations seen (best {best})")
            this = {"outcomes": outcomes, "best_fitness": r["best"].get("fitness"),
                    "evaluations": len(outcomes)}
            if observed is not None and this != observed:
                problems.append("optimize rounds on identical inputs gave different results")
            observed = observed or this
        return attempted, failed, problems, observed


class Train(Workload):
    """``chaosnet train``: 784:100:60:10, method 4, 60k train / 10k test rows."""

    def flags(self):
        return [*TRAIN_FLAGS, *self.spec["train"]]

    def info(self):
        config = _resolved(self.flags())
        return {"method": config["method"], "params": config["params"],
                "architecture": config["architecture"], "train": config["train"]}

    def round(self, out: Path, trace) -> dict:
        code, _ = _cli(["train", "--data-dir", str(self.data), "--output-dir", str(out),
                        *self.flags()])
        metrics = json.loads((out / "metrics.json").read_text()) if code == 0 else {}
        return {"code": code, "metrics": metrics}

    def check(self):
        problems, observed, failed = [], None, 0
        epochs = _resolved(self.flags())["train"]["max_epochs"]
        for r in self.rounds:
            m = r["metrics"]
            if r["code"] != 0:
                problems.append(f"train exited with {r['code']}")
                failed += 1
                continue
            confusion = np.asarray(m["confusion"])
            losses = m["epoch_losses"]
            bad = []
            if confusion.sum() != m["test_size"] or not math.isclose(
                    np.trace(confusion) / m["test_size"], m["test_accuracy"], abs_tol=1e-12):
                bad.append("confusion matrix disagrees with test accuracy")
            if len(losses) != epochs or not all(math.isfinite(v) for v in losses):
                bad.append(f"expected {epochs} finite epoch losses, got {losses}")
            elif losses[-1] >= losses[0]:
                bad.append(f"training loss did not fall: {losses[0]} -> {losses[-1]}")
            this = {"test_accuracy": m["test_accuracy"], "epoch_losses": losses}
            if observed is not None and this != observed:
                bad.append("train rounds on identical inputs gave different results")
            observed = observed or this
            problems += bad
            failed += bool(bad)
        return len(self.rounds), failed, problems, observed


class Stream(Workload):
    """Deployed model classifying test inputs one at a time in streaming mode."""

    def prepare(self):
        from chaosnet import mnist, network

        super().prepare()
        self.model = network.load_model(self.work / "model" / "model.json")
        _, self.test = mnist.load_mnist(self.data)
        self.next_input = 0

    def info(self):
        config = _resolved([*STREAM_FLAGS, *self.spec["stream"]])
        return {"method": config["method"], "params": config["params"],
                "P": config["architecture"]["P"], "inputs_per_round": self.spec["stream_block"],
                "loop": "closed, one client"}

    def round(self, out: Path, trace) -> dict:
        from chaosnet import reservoir

        classified = []
        for _ in range(self.spec["stream_block"]):
            index = self.next_input % len(self.test)
            self.next_input += 1
            x = reservoir.flatten_image(self.test.images[index])
            start = time.perf_counter()
            label = int(self.model.predict(x, "streaming")[0])
            classified.append((index, label, time.perf_counter() - start))
        return {"classified": classified}

    def requests(self, rounds, round_s):
        return [lat for r in rounds for _, _, lat in r["classified"]], 0.0

    def check(self):
        from chaosnet import reservoir

        done = [(i, label) for r in self.rounds for i, label, _ in r["classified"]]
        rows = reservoir.flatten_images(self.test.images[[i for i, _ in done]])
        materialized = self.model.predict(rows, "materialized")
        wrong = {n for n, (_, label) in enumerate(done) if label != materialized[n]}
        problems = [f"{len(wrong)} streamed classes differ from materialized"] if wrong else []
        # feature equality on the first round's inputs (criterion 4's tolerance)
        block = self.spec["stream_block"]
        streamed = np.array([self.model.features(row, "streaming") for row in rows[:block]])
        gap = float(np.abs(streamed - self.model.features(rows[:block], "materialized")).max())
        if not gap <= 1e-12:
            problems.append(f"streamed features differ from materialized by {gap:.3g}")
            wrong |= set(range(block))
        return len(done), len(wrong), problems, {"max_feature_gap": gap}


class Analyze(Workload):
    """``chaosnet analyze`` without a dataset on the sweep a1 in {0.8, 2.0}."""

    def flags(self):
        return [*ANALYZE_FLAGS, *self.spec["analyze"]]

    def info(self):
        config = _resolved(self.flags())
        return {"method": config["method"], "params": config["params"],
                "sweep": config["sweep"], "analysis": config["analysis"]}

    def round(self, out: Path, trace) -> dict:
        code, _ = _cli(["analyze", "--output-dir", str(out), *self.flags()])
        if code != 0:
            return {"code": code}
        return {"code": code, "table": _read_csv(out / "entropy_accuracy.csv"),
                "poincare": _read_csv(out / "poincare.csv"),
                "summary": (out / "summary.txt").read_text()}

    def check(self):
        config = _resolved(self.flags())
        params, sweep, method = config["params"], config["sweep"], config["method"]
        a_cfg = config["analysis"]
        problems, observed, failed = [], None, 0
        for r in self.rounds:
            if r["code"] != 0:
                problems.append(f"analyze exited with {r['code']}")
                failed += 1
                continue
            bad, points = [], []
            for row in r["table"]:
                apen = {k: v for k, v in row.items() if k.startswith("apen_")}
                flagged = all(math.isnan(v) for v in apen.values())
                p = dict(params, **{sweep["parameter"]: row["param"]})
                coeffs = (p["a1"], p["a2"], p["a3"], p["a4"])
                if flagged != checks.series_overflows(method, p["A"], p["B"], coeffs,
                                                      sweep["series_length"]):
                    bad.append(f"overflow flag at {row['param']} disagrees with the oracle")
                points.append({"param": row["param"], "overflowed": flagged, "apen": apen})
            if f"overflowed_points: {sum(p['overflowed'] for p in points)}" not in r["summary"]:
                bad.append("summary.txt overflow count disagrees with the table")
            coeffs = (params["a1"], params["a2"], params["a3"], params["a4"])
            expected = checks.poincare_pairs(params["A"], params["B"], coeffs,
                                             a_cfg["poincare_transient"], a_cfg["poincare_count"])
            if [(row["x"], row["y"]) for row in r["poincare"]] != expected:
                bad.append("poincare.csv differs from the oracle orbit")
            this = {"points": points}
            if observed is not None and json.dumps(this) != json.dumps(observed):
                bad.append("analyze rounds on identical inputs gave different results")
            observed = observed or this
            problems += bad
            failed += bool(bad)
        return len(self.rounds), failed, problems, observed


def _read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


CLASSES = {"search": Search, "train": Train, "stream": Stream, "analyze": Analyze}


# -- measuring ------------------------------------------------------------------


def _run_rounds(workload: Workload, seconds: float, trace=None) -> list[float]:
    """Timed rounds until ``seconds`` have passed (at least one)."""
    times = []
    begin = time.perf_counter()
    while True:
        out = _fresh(workload.work / "out")
        root = trace.open("bench.round", "bench") if trace else None
        start = time.perf_counter()
        result = workload.round(out, trace)
        times.append(time.perf_counter() - start)
        if root is not None:
            trace.close(root)
        workload.rounds.append(result)
        if time.perf_counter() - begin >= seconds:
            return times


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest sample with at least ten samples beyond it, and its percentile
    rank; the maximum (rank 100) when there are fewer than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded (None when it is not OpenBLAS)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine_info() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "python": platform.python_version(), "numpy": np.__version__}


def _request_metrics(workload: Workload, rounds: list[dict], round_s: list[float]) -> dict:
    """Per-request latencies (a streamed input, or a command) and evaluations per second."""
    latencies, evals_per_s = workload.requests(rounds, round_s)
    tail_s, tail_rank = tail(latencies)
    return {
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "latency_tail_percentile": (tail_rank, "%"),
        "latency_samples": (len(latencies), "count"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "evals_per_s": (evals_per_s, "1/s"),
    }


def measure(name: str, seed: int, size: str, work: Path, seconds: float, traced: bool) -> dict:
    workload = CLASSES[name](size, work)
    workload.prepare()
    # untimed warm-up round: later rounds reuse the heap the first one grew
    _run_rounds(workload, 0)
    warmup = len(workload.rounds)
    if not traced:
        round_s = _run_rounds(workload, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        request = _request_metrics(workload, workload.rounds[warmup:], round_s)
        metrics = {
            "run_s": (max(round_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "latency_tail_ms": request.pop("latency_tail_ms"),
        }
        extra = {"round_s": round_s, **{k: v for k, (v, _) in request.items()}}
    else:
        untraced = _run_rounds(workload, seconds / 2)
        request = _request_metrics(workload, workload.rounds[warmup:], untraced)
        timed = tracing.Tracer()
        timed.install()
        try:
            traced_s = _run_rounds(workload, seconds / 2, timed)
        finally:
            timed.uninstall()
        memory = tracing.Tracer(memory=True)
        memory.install()
        try:
            _run_rounds(workload, 0, memory)
        finally:
            memory.uninstall()
        values = tracing.layer_metrics(timed, memory, untraced, traced_s)
        values.update({k: v for k, (v, _) in request.items()})
        metrics = {name: (values[name], unit) for name, unit, _ in tracing.METRICS}
        extra = {"untraced_round_s": untraced, "traced_round_s": traced_s}
    attempted, failed, problems, observed = workload.check()
    reference = checks.load_reference(size, name, seed)
    if reference is not None and observed is not None:
        problems += checks.compare_reference(name, observed, reference)
    return {
        "correct": not problems and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "reference_checked": reference is not None,
        "info": {**workload.info(), **extra},
        "machine": machine_info(),
        "observed": observed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.phase == "setup":
        result = setup(args.workload, args.seed, args.size, args.work)
    else:
        result = measure(args.workload, args.seed, args.size, args.work, args.seconds,
                         bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
