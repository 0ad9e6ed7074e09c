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

The objective scores failed positions itself; an exception from it, or a
value that is not finite, is a fault and stops the run.

The module also fixes the six-dimensional search box used to tune the
weight-generation map, coordinate order (A, B, a1, a2, a3, a4), and builds
the accuracy objective for that search, the one place a map position is
trained and scored: a position whose map overflows or whose training
diverges scores 0.0.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from chaosnet.files import write_atomic
from chaosnet.maps import MAP_PARAM_NAMES, MapOverflowError, MapParams
from chaosnet.network import TrainConfig, TrainingDivergedError, evaluate, train
from chaosnet.reservoir import ReservoirConfig

# search box for map-parameter tuning, coordinate order MAP_PARAM_NAMES
MAP_LOWER_BOUNDS = np.array([0.01, 0.1, 0.0, 0.0, 0.0, 0.0])
MAP_UPPER_BOUNDS = np.array([1.5, 10.0, 1.5, 1.5, 1.5, 1.5])

# the personal best of a particle not scored yet: initial and immigrant ones
FAILED_FITNESS = -math.inf


def params_from_position(position: Sequence[float]) -> MapParams:
    """Decode a 6-vector in search order into map parameters."""
    pos = np.asarray(position, dtype=np.float64)
    if pos.shape != (6,):
        raise ValueError(f"expected a 6-dimensional position, got shape {pos.shape}")
    return MapParams(**dict(zip(MAP_PARAM_NAMES, pos)))


def position_from_params(params: MapParams) -> np.ndarray:
    return np.array([getattr(params, name) for name in MAP_PARAM_NAMES])


@dataclass(frozen=True)
class SwarmConfig:
    lower: np.ndarray
    upper: np.ndarray
    particle_count: int = 150
    iterations: int = 100
    omega: float = 0.5
    c1: float = 2.0
    c2: float = 2.0
    immigrant_fraction: float = 0.7
    rng_seed: int = 0

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper bounds must be 1-d arrays of equal length")
        if not np.isfinite([*lower, *upper, self.omega, self.c1, self.c2]).all():
            raise ValueError("the bounds, omega, c1 and c2 must be finite")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        if self.particle_count < 1:
            raise ValueError(f"particle_count must be >= 1, got {self.particle_count}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not 0.0 <= self.immigrant_fraction <= 1.0:
            raise ValueError(f"immigrant_fraction must be in [0, 1], got {self.immigrant_fraction}")

    def as_dict(self) -> dict:
        """Plain JSON-ready form, one key per field in field order; the
        checkpoint stores it and ``SwarmConfig(**d)`` rebuilds the config."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}

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
    wall_time: float


@dataclass
class Swarm:
    """Swarm state, stored as arrays with one row per particle.  The global
    best is the personal best of particle ``gbest_index``."""

    config: SwarmConfig
    rng: np.random.Generator
    positions: np.ndarray  # (n, d)
    velocities: np.ndarray  # (n, d)
    pbest_positions: np.ndarray  # (n, d)
    pbest_fitness: np.ndarray  # (n,)
    gbest_index: int
    iteration: int = 0
    # run history, kept with the state so a checkpoint carries it; record i
    # is the global best after iteration i (0 after initialization)
    trace: list[FitnessRecord] = field(default_factory=list)
    immigrant_counts: list[int] = field(default_factory=list)

    @property
    def gbest_position(self) -> np.ndarray:
        return self.pbest_positions[self.gbest_index].copy()

    @property
    def gbest_fitness(self) -> float:
        return float(self.pbest_fitness[self.gbest_index])

    @property
    def evaluations(self) -> int:
        # every particle is scored at initialization and in every iteration
        return self.config.particle_count * (self.iteration + 1)

    def record(self, wall_time: float = 0.0) -> FitnessRecord:
        return FitnessRecord(self.gbest_position, self.gbest_fitness, wall_time)


def _score(swarm: Swarm, objective: Callable[[np.ndarray], float]) -> None:
    """Evaluate every particle where it stands, then refresh the personal and
    global bests.  A value that is not a finite number raises ValueError."""
    n = swarm.config.particle_count
    fitness = np.empty(n)
    for i in range(n):
        fitness[i] = float(objective(swarm.positions[i]))
        if not math.isfinite(fitness[i]):
            raise ValueError(f"the objective returned {fitness[i]} at {swarm.positions[i]}")
    # the best as it stood before the round, since the holder's own personal
    # best may rise below; it moves only to a strictly greater one, the first
    gbest_fitness = swarm.gbest_fitness
    improved = fitness > swarm.pbest_fitness
    swarm.pbest_positions[improved] = swarm.positions[improved]
    swarm.pbest_fitness[improved] = fitness[improved]
    best = int(np.argmax(swarm.pbest_fitness))
    if swarm.pbest_fitness[best] > gbest_fitness:
        swarm.gbest_index = best


def init_swarm(objective: Callable[[np.ndarray], float], config: SwarmConfig) -> Swarm:
    """Uniform positions drawn from ``config.rng_seed``, zero velocities,
    first fitness round."""
    rng = np.random.default_rng(config.rng_seed)
    n, d = config.particle_count, config.dimensions
    positions = rng.uniform(config.lower, config.upper, size=(n, d))
    # every best starts unscored, so scoring the first round sets them
    swarm = Swarm(
        config=config,
        rng=rng,
        positions=positions,
        velocities=np.zeros((n, d)),
        pbest_positions=positions.copy(),
        pbest_fitness=np.full(n, FAILED_FITNESS),
        gbest_index=0,
    )
    _score(swarm, objective)
    swarm.trace.append(swarm.record(0.0))
    return swarm


def pso_step(swarm: Swarm, objective: Callable[[np.ndarray], float]) -> Swarm:
    """One velocity/position update, bound clamp, fitness refresh.

    ``r1`` and ``r2`` are fresh uniform(0, 1) draws from ``swarm.rng``, one
    per particle and dimension.
    """
    config = swarm.config
    n, d = config.particle_count, config.dimensions
    r1 = swarm.rng.uniform(size=(n, d))
    r2 = swarm.rng.uniform(size=(n, d))
    swarm.velocities = (
        config.omega * swarm.velocities
        + config.c1 * r1 * (swarm.pbest_positions - swarm.positions)
        + config.c2 * r2 * (swarm.gbest_position - swarm.positions)
    )
    swarm.positions = swarm.positions + swarm.velocities
    out = (swarm.positions < config.lower) | (swarm.positions > config.upper)
    np.clip(swarm.positions, config.lower, config.upper, out=swarm.positions)
    swarm.velocities[out] = 0.0  # a particle pinned to the wall restarts its motion
    _score(swarm, objective)
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
    objective: Callable[[np.ndarray], float], config: SwarmConfig, checkpoint_path=None
) -> Swarm:
    """Run ``iterations`` rounds of step + immigration; maximizes.

    Returns the final swarm.  Its trace records the global best after
    initialization and after each iteration (``iterations + 1`` entries) and
    never decreases.  When ``checkpoint_path`` is set the swarm is
    snapshotted after every iteration and an interrupted run can continue
    via :func:`resume`.
    """
    return resume(objective, init_swarm(objective, config), checkpoint_path)


def resume(objective: Callable[[np.ndarray], float], swarm: Swarm, checkpoint_path=None) -> Swarm:
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
    return swarm


def save_checkpoint(swarm: Swarm, path) -> None:
    """Snapshot ``swarm`` to ``path``; a write cut short keeps the previous one."""
    payload = {
        "config": swarm.config.as_dict(),
        "rng_state": swarm.rng.bit_generator.state,
        "positions": swarm.positions.tolist(),
        "velocities": swarm.velocities.tolist(),
        "pbest_positions": swarm.pbest_positions.tolist(),
        # fitness goes through repr(float) so -inf survives the JSON trip
        "pbest_fitness": [repr(float(v)) for v in swarm.pbest_fitness],
        "gbest_index": swarm.gbest_index,
        "iteration": swarm.iteration,
        "trace": [
            {
                "fitness": repr(float(rec.fitness)),
                "position": rec.position.tolist(),
                "wall_time": rec.wall_time,
            }
            for rec in swarm.trace
        ],
        "immigrant_counts": swarm.immigrant_counts,
    }
    write_atomic(path, json.dumps(payload))


def load_checkpoint(path) -> Swarm:
    """The swarm a checkpoint holds.  A payload that does not fit its own
    config raises ValueError, so a resumed run cannot go on from it.  The
    copies an older format also held (gbest, evaluations) are ignored."""
    with open(path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    config = SwarmConfig(**payload["config"])
    rng = np.random.default_rng()
    rng.bit_generator.state = payload["rng_state"]
    swarm = Swarm(
        config=config,
        rng=rng,
        positions=np.asarray(payload["positions"], dtype=np.float64),
        velocities=np.asarray(payload["velocities"], dtype=np.float64),
        pbest_positions=np.asarray(payload["pbest_positions"], dtype=np.float64),
        pbest_fitness=np.array([float(v) for v in payload["pbest_fitness"]]),
        gbest_index=int(payload["gbest_index"]),
        iteration=int(payload["iteration"]),
        trace=[
            FitnessRecord(
                np.asarray(rec["position"], dtype=np.float64),
                float(rec["fitness"]),
                float(rec["wall_time"]),
            )
            for rec in payload["trace"]
        ],
        immigrant_counts=[int(k) for k in payload["immigrant_counts"]],
    )
    _check_state(swarm)
    return swarm


def _check_state(swarm: Swarm) -> None:
    """Raise ValueError unless ``swarm`` is a state its own config can reach:
    arrays of (n, d), (n,) or (d,), a best index among the particles, a
    history as long as its iteration, finite best and trace fitness, and
    personal bests that are not NaN (-inf marks one not scored yet)."""
    config, k = swarm.config, swarm.iteration
    n, d = config.particle_count, config.dimensions
    shapes = [(name, getattr(swarm, name).shape, (n, d))
              for name in ("positions", "velocities", "pbest_positions")]
    shapes += [("pbest_fitness", swarm.pbest_fitness.shape, (n,))]
    shapes += [(f"trace[{i}].position", rec.position.shape, (d,))
               for i, rec in enumerate(swarm.trace)]
    for name, shape, wanted in shapes:
        if shape != wanted:
            raise ValueError(f"{name} has shape {shape}, the config needs {wanted}")
    if not 0 <= swarm.gbest_index < n:
        raise ValueError(f"gbest_index {swarm.gbest_index} is not one of the {n} particles")
    if not 0 <= k <= config.iterations:
        raise ValueError(f"iteration {k} is outside [0, {config.iterations}]")
    found = (len(swarm.trace), len(swarm.immigrant_counts))
    if found != (k + 1, k):
        raise ValueError(
            f"at iteration {k} the trace and immigrant counts must number "
            f"{k + 1} and {k}, found {found}"
        )
    fitness = [swarm.gbest_fitness, *(rec.fitness for rec in swarm.trace)]
    if not np.isfinite(fitness).all() or np.isnan(swarm.pbest_fitness).any():
        raise ValueError("gbest and trace fitness must be finite, and pbest_fitness not NaN")


def make_accuracy_objective(
    method,
    architecture,
    subset_images,
    subset_labels,
    validation_images,
    validation_labels,
    train_config=None,
    mode: str = "materialized",
) -> Callable[[np.ndarray], float]:
    """Fitness of a search position for the map-parameter hunt.

    Trains on the optimization subset and scores accuracy on the full
    training base.  Both image sets are (N, 28, 28) uint8 grids and stay
    so: each evaluation projects them in chunks, so no float copy of the
    training base is held across the search.  A position whose map
    overflows or whose training diverges is worth 0.
    """
    if train_config is None:
        train_config = TrainConfig()

    def fitness(position: np.ndarray) -> float:
        params = params_from_position(position)
        config = ReservoirConfig(
            method=method,
            params=params,
            reservoir_size=architecture.reservoir_size,
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
    "init_swarm",
    "pso_step",
    "immigrate",
    "optimize",
    "resume",
    "save_checkpoint",
    "load_checkpoint",
    "make_accuracy_objective",
    "params_from_position",
    "position_from_params",
    "MAP_PARAM_NAMES",
    "MAP_LOWER_BOUNDS",
    "MAP_UPPER_BOUNDS",
    "FAILED_FITNESS",
]
