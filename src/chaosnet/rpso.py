"""Particle swarm optimization with random immigrants.

Maximizes a scalar objective over a box-bounded search space.  Each
iteration moves every particle by

    v' = w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x)
    x' = x + v'

clamps it to the box (zeroing the velocity component on contact), refreshes
personal and global bests, then replaces a fixed fraction of the swarm with
random immigrants: fresh uniform positions, zero velocity, cleared personal
best.  The particle holding the global best is never replaced, so the best
fitness trace is monotone by construction.  Immigrants are first evaluated
when the next iteration moves them.

The module also fixes the six-dimensional search box used to tune the
weight-generation map, coordinate order (A, B, a1, a2, a3, a4), and builds
the accuracy objective for that search: train on the optimization subset,
score on the full training base, failed training scores 0.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from chaosnet.maps import MapOverflowError, MapParams
from chaosnet.network import TrainingDivergedError

DEFAULT_OMEGA = 0.5
DEFAULT_C1 = 2.0
DEFAULT_C2 = 2.0
DEFAULT_PARTICLES = 150
DEFAULT_ITERATIONS = 100
DEFAULT_IMMIGRANT_FRACTION = 0.7

# search box for map-parameter tuning, coordinate order (A, B, a1, a2, a3, a4)
MAP_PARAM_NAMES = ("A", "B", "a1", "a2", "a3", "a4")
MAP_LOWER_BOUNDS = np.array([0.01, 0.1, 0.0, 0.0, 0.0, 0.0])
MAP_UPPER_BOUNDS = np.array([1.5, 10.0, 1.5, 1.5, 1.5, 1.5])

FAILED_FITNESS = -math.inf


class OptimizationError(RuntimeError):
    """Raised when every particle of the initial round fails to evaluate."""


def params_from_position(position: Sequence[float]) -> MapParams:
    """Decode a 6-vector in search order into map parameters."""
    pos = np.asarray(position, dtype=np.float64)
    if pos.shape != (6,):
        raise ValueError(f"expected a 6-dimensional position, got shape {pos.shape}")
    a, b, a1, a2, a3, a4 = (float(v) for v in pos)
    return MapParams(a1=a1, a2=a2, a3=a3, a4=a4, A=a, B=b)


def position_from_params(params: MapParams) -> np.ndarray:
    return np.array([params.A, params.B, params.a1, params.a2, params.a3, params.a4])


@dataclass(frozen=True)
class SwarmConfig:
    lower: np.ndarray
    upper: np.ndarray
    particle_count: int = DEFAULT_PARTICLES
    iterations: int = DEFAULT_ITERATIONS
    omega: float = DEFAULT_OMEGA
    c1: float = DEFAULT_C1
    c2: float = DEFAULT_C2
    immigrant_fraction: float = DEFAULT_IMMIGRANT_FRACTION
    rng_seed: int = 0

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper bounds must be 1-d arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        if self.particle_count < 1:
            raise ValueError(f"particle_count must be >= 1, got {self.particle_count}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not 0.0 <= self.immigrant_fraction <= 1.0:
            raise ValueError(f"immigrant_fraction must be in [0, 1], got {self.immigrant_fraction}")

    def as_dict(self) -> dict:
        """Plain JSON-ready form; the checkpoint stores it and ``SwarmConfig(**d)``
        rebuilds the config."""
        return {
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
            "particle_count": self.particle_count,
            "iterations": self.iterations,
            "omega": self.omega,
            "c1": self.c1,
            "c2": self.c2,
            "immigrant_fraction": self.immigrant_fraction,
            "rng_seed": self.rng_seed,
        }

    @property
    def dimensions(self) -> int:
        return self.lower.size

    @property
    def immigrants_per_iteration(self) -> int:
        # floor of the fraction, capped so the global-best holder survives
        k = math.floor(self.immigrant_fraction * self.particle_count)
        return min(k, self.particle_count - 1)


@dataclass(frozen=True)
class FitnessRecord:
    position: np.ndarray
    fitness: float
    iteration: int
    wall_time: float


@dataclass
class Swarm:
    """Swarm state, stored as arrays with one row per particle."""

    config: SwarmConfig
    rng: np.random.Generator
    positions: np.ndarray  # (n, d)
    velocities: np.ndarray  # (n, d)
    pbest_positions: np.ndarray  # (n, d)
    pbest_fitness: np.ndarray  # (n,)
    gbest_position: np.ndarray  # (d,)
    gbest_fitness: float
    gbest_index: int
    iteration: int = 0
    evaluations: int = 0
    # run history, kept with the state so a checkpoint carries it
    trace: list[FitnessRecord] = field(default_factory=list)
    immigrant_counts: list[int] = field(default_factory=list)

    def record(self, wall_time: float = 0.0) -> FitnessRecord:
        return FitnessRecord(
            self.gbest_position.copy(), self.gbest_fitness, self.iteration, wall_time
        )


def _evaluate(objective: Callable[[np.ndarray], float], position: np.ndarray) -> float:
    """Objective value, demoted to the failure fitness on map overflow,
    training divergence or a non-finite value.  Any other exception is a
    fault in the objective, not a failed particle, and propagates."""
    try:
        value = float(objective(position))
    except (MapOverflowError, TrainingDivergedError):
        return FAILED_FITNESS
    return value if math.isfinite(value) else FAILED_FITNESS


def init_swarm(
    objective: Callable[[np.ndarray], float],
    config: SwarmConfig,
    rng: np.random.Generator | int | None = None,
) -> Swarm:
    """Uniform positions, zero velocities, first fitness round."""
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    elif not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n, d = config.particle_count, config.dimensions
    positions = rng.uniform(config.lower, config.upper, size=(n, d))
    fitness = np.array([_evaluate(objective, positions[i]) for i in range(n)])
    if not np.isfinite(fitness).any():
        raise OptimizationError("every particle of the initial round failed to evaluate")
    best = int(np.argmax(fitness))
    swarm = Swarm(
        config=config,
        rng=rng,
        positions=positions,
        velocities=np.zeros((n, d)),
        pbest_positions=positions.copy(),
        pbest_fitness=fitness,
        gbest_position=positions[best].copy(),
        gbest_fitness=float(fitness[best]),
        gbest_index=best,
        evaluations=n,
    )
    swarm.trace.append(swarm.record(0.0))
    return swarm


def pso_step(
    swarm: Swarm,
    objective: Callable[[np.ndarray], float],
    r1: np.ndarray | float | None = None,
    r2: np.ndarray | float | None = None,
) -> Swarm:
    """One velocity/position update, bound clamp, fitness refresh.

    ``r1`` and ``r2`` default to fresh uniform(0, 1) draws per particle and
    dimension; tests may inject fixed values.
    """
    config = swarm.config
    n, d = config.particle_count, config.dimensions
    if r1 is None:
        r1 = swarm.rng.uniform(size=(n, d))
    if r2 is None:
        r2 = swarm.rng.uniform(size=(n, d))
    swarm.velocities = (
        config.omega * swarm.velocities
        + config.c1 * np.asarray(r1) * (swarm.pbest_positions - swarm.positions)
        + config.c2 * np.asarray(r2) * (swarm.gbest_position - swarm.positions)
    )
    swarm.positions = swarm.positions + swarm.velocities
    out = (swarm.positions < config.lower) | (swarm.positions > config.upper)
    np.clip(swarm.positions, config.lower, config.upper, out=swarm.positions)
    swarm.velocities[out] = 0.0  # a particle pinned to the wall restarts its motion

    fitness = np.array([_evaluate(objective, swarm.positions[i]) for i in range(n)])
    swarm.evaluations += n
    improved = fitness > swarm.pbest_fitness
    swarm.pbest_positions[improved] = swarm.positions[improved]
    swarm.pbest_fitness[improved] = fitness[improved]
    best = int(np.argmax(swarm.pbest_fitness))
    if swarm.pbest_fitness[best] > swarm.gbest_fitness:
        swarm.gbest_index = best
        swarm.gbest_fitness = float(swarm.pbest_fitness[best])
        swarm.gbest_position = swarm.pbest_positions[best].copy()
    swarm.iteration += 1
    return swarm


def immigrate(swarm: Swarm) -> np.ndarray:
    """Replace floor(fraction * count) particles with random immigrants.

    The global-best holder is excluded from the draw.  Immigrants receive
    fresh uniform positions, zero velocity and a cleared personal best;
    they are scored when the next step moves them.  Returns the replaced
    indices (empty when the fraction rounds to zero).
    """
    config = swarm.config
    k = config.immigrants_per_iteration
    if k == 0:
        return np.empty(0, dtype=np.int64)
    candidates = np.delete(np.arange(config.particle_count), swarm.gbest_index)
    chosen = np.sort(swarm.rng.choice(candidates, size=k, replace=False))
    fresh = swarm.rng.uniform(config.lower, config.upper, size=(k, config.dimensions))
    swarm.positions[chosen] = fresh
    swarm.velocities[chosen] = 0.0
    swarm.pbest_positions[chosen] = fresh
    swarm.pbest_fitness[chosen] = FAILED_FITNESS
    return chosen


def optimize(
    objective: Callable[[np.ndarray], float],
    config: SwarmConfig,
    rng: np.random.Generator | int | None = None,
    callback: Callable[[int, Swarm], None] | None = None,
    checkpoint_path=None,
) -> Swarm:
    """Run ``iterations`` rounds of step + immigration; maximizes.

    Returns the final swarm.  Its trace records the global best after
    initialization and after each iteration (``iterations + 1`` entries) and
    never decreases.  When ``checkpoint_path`` is set the swarm is
    snapshotted after every iteration and an interrupted run can continue
    via :func:`resume`.
    """
    return resume(objective, init_swarm(objective, config, rng), callback, checkpoint_path)


def resume(
    objective: Callable[[np.ndarray], float],
    swarm: Swarm,
    callback: Callable[[int, Swarm], None] | None = None,
    checkpoint_path=None,
) -> Swarm:
    """Run ``swarm`` on until ``swarm.config.iterations`` and return it.

    Given the swarm :func:`load_checkpoint` read from an interrupted
    :func:`optimize` run, which carries the trace and immigrant counts
    recorded so far, the result equals the uninterrupted run's (wall times
    aside).  The swarm is snapshotted to ``checkpoint_path`` after every
    iteration when it is set.
    """
    # wall times continue from the last recorded one, so a resumed trace
    # reads as one run
    start = time.monotonic() - (swarm.trace[-1].wall_time if swarm.trace else 0.0)
    while swarm.iteration < swarm.config.iterations:
        pso_step(swarm, objective)
        swarm.immigrant_counts.append(immigrate(swarm).size)
        swarm.trace.append(swarm.record(time.monotonic() - start))
        if checkpoint_path is not None:
            save_checkpoint(swarm, checkpoint_path)
        if callback is not None:
            callback(swarm.iteration, swarm)
    return swarm


def save_checkpoint(swarm: Swarm, path) -> None:
    payload = {
        "config": swarm.config.as_dict(),
        "rng_state": swarm.rng.bit_generator.state,
        "positions": swarm.positions.tolist(),
        "velocities": swarm.velocities.tolist(),
        "pbest_positions": swarm.pbest_positions.tolist(),
        # fitness goes through repr(float) so -inf survives the JSON trip
        "pbest_fitness": [repr(float(v)) for v in swarm.pbest_fitness],
        "gbest_position": swarm.gbest_position.tolist(),
        "gbest_fitness": repr(float(swarm.gbest_fitness)),
        "gbest_index": swarm.gbest_index,
        "iteration": swarm.iteration,
        "evaluations": swarm.evaluations,
        "trace": [
            {
                "iteration": rec.iteration,
                "fitness": repr(float(rec.fitness)),
                "position": rec.position.tolist(),
                "wall_time": rec.wall_time,
            }
            for rec in swarm.trace
        ],
        "immigrant_counts": swarm.immigrant_counts,
    }
    # a write cut short leaves the previous checkpoint intact: only a complete
    # file, flushed to disk, is renamed over it
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(path) -> Swarm:
    with open(path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    config = SwarmConfig(**payload["config"])
    rng = np.random.default_rng()
    rng.bit_generator.state = payload["rng_state"]
    return Swarm(
        config=config,
        rng=rng,
        positions=np.asarray(payload["positions"], dtype=np.float64),
        velocities=np.asarray(payload["velocities"], dtype=np.float64),
        pbest_positions=np.asarray(payload["pbest_positions"], dtype=np.float64),
        pbest_fitness=np.array([float(v) for v in payload["pbest_fitness"]]),
        gbest_position=np.asarray(payload["gbest_position"], dtype=np.float64),
        gbest_fitness=float(payload["gbest_fitness"]),
        gbest_index=int(payload["gbest_index"]),
        iteration=int(payload["iteration"]),
        evaluations=int(payload["evaluations"]),
        trace=[
            FitnessRecord(
                np.asarray(rec["position"], dtype=np.float64),
                float(rec["fitness"]),
                int(rec["iteration"]),
                float(rec["wall_time"]),
            )
            for rec in payload["trace"]
        ],
        immigrant_counts=[int(k) for k in payload["immigrant_counts"]],
    )


def write_trace_csv(swarm: Swarm, path, comment: str | None = None) -> None:
    d = swarm.gbest_position.size
    with open(path, "w", encoding="ascii") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        cols = ",".join(f"best_x{i}" for i in range(d))
        fh.write(f"iteration,best_fitness,{cols}\n")
        for rec in swarm.trace:
            pos = ",".join(f"{v:.17g}" for v in rec.position)
            fh.write(f"{rec.iteration},{rec.fitness:.17g},{pos}\n")


def sphere(position: np.ndarray) -> float:
    """Negated sphere benchmark; the maximum is 0 at the origin."""
    pos = np.asarray(position, dtype=np.float64)
    return float(-(pos * pos).sum())


def make_accuracy_objective(
    method,
    architecture,
    subset_images,
    subset_labels,
    validation_images,
    validation_labels,
    train_config=None,
    input_dim: int = 785,
    mode: str = "materialized",
) -> Callable[[np.ndarray], float]:
    """Fitness of a search position for the map-parameter hunt.

    Trains on the optimization subset and scores accuracy on the full
    training base.  Both image sets are (N, 28, 28) uint8 grids and stay
    so: each evaluation projects them in chunks, so no float copy of the
    training base is held across the search.  A position whose map
    overflows or whose training diverges is worth 0.
    """
    from chaosnet.network import TrainConfig, evaluate, train
    from chaosnet.reservoir import ReservoirConfig

    if train_config is None:
        train_config = TrainConfig()

    def fitness(position: np.ndarray) -> float:
        params = params_from_position(position)
        config = ReservoirConfig(
            method=method,
            params=params,
            reservoir_size=architecture.reservoir_size,
            input_dim=input_dim,
        )
        try:
            model = train(
                subset_images, subset_labels, architecture, config, train_config, mode=mode
            )
            return evaluate(model, validation_images, validation_labels, mode=mode)
        except (MapOverflowError, TrainingDivergedError):
            return 0.0

    return fitness


__all__ = [
    "SwarmConfig",
    "Swarm",
    "FitnessRecord",
    "OptimizationError",
    "init_swarm",
    "pso_step",
    "immigrate",
    "optimize",
    "resume",
    "save_checkpoint",
    "load_checkpoint",
    "write_trace_csv",
    "sphere",
    "make_accuracy_objective",
    "params_from_position",
    "position_from_params",
    "MAP_PARAM_NAMES",
    "MAP_LOWER_BOUNDS",
    "MAP_UPPER_BOUNDS",
    "FAILED_FITNESS",
    "DEFAULT_OMEGA",
    "DEFAULT_C1",
    "DEFAULT_C2",
    "DEFAULT_PARTICLES",
    "DEFAULT_ITERATIONS",
    "DEFAULT_IMMIGRANT_FRACTION",
]
