"""Particle swarm with random immigrants: velocity update, bound handling,
immigrant replacement, checkpointing and the end-to-end optimize loop."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosnet import rpso
from chaosnet.maps import MapOverflowError, MapParams
from chaosnet.network import TrainingDivergedError
from chaosnet.rpso import (
    FAILED_FITNESS,
    MAP_PARAM_NAMES,
    Swarm,
    SwarmConfig,
    immigrate,
    init_swarm,
    load_checkpoint,
    make_accuracy_objective,
    optimize,
    params_from_position,
    position_from_params,
    pso_step,
    resume,
    save_checkpoint,
)

from conftest import STABLE_PARAMS, fail_writing, make_band_images, sphere


def box_config(**overrides):
    defaults = dict(
        lower=np.array([-5.0]),
        upper=np.array([5.0]),
        particle_count=10,
        iterations=20,
        rng_seed=0,
    )
    defaults.update(overrides)
    return SwarmConfig(**defaults)


# ---------------------------------------------------------------- positions


def test_position_round_trip_preserves_order():
    params = MapParams(a1=0.3, a2=0.4, a3=0.5, a4=0.6, A=0.1, B=0.2)
    vec = position_from_params(params)
    assert vec.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    assert params_from_position(vec) == params
    assert MAP_PARAM_NAMES == ("A", "B", "a1", "a2", "a3", "a4")


def test_params_from_position_rejects_wrong_length():
    with pytest.raises(ValueError):
        params_from_position(np.zeros(5))


# ---------------------------------------------------------------- config


def test_immigrant_count_floor():
    assert box_config(particle_count=150).immigrants_per_iteration == 105
    assert box_config(particle_count=30).immigrants_per_iteration == 21
    assert box_config(immigrant_fraction=0.0).immigrants_per_iteration == 0


def test_immigrant_count_never_replaces_whole_swarm():
    config = box_config(particle_count=10, immigrant_fraction=1.0)
    assert config.immigrants_per_iteration == 9


def test_config_as_dict_holds_each_field_once_and_rebuilds_the_config():
    config = box_config(lower=np.array([-5.0, 0.5]), upper=np.array([5.0, 1.5]))
    d = config.as_dict()
    assert list(d) == [f.name for f in dataclasses.fields(SwarmConfig)]
    assert d["lower"] == [-5.0, 0.5] and isinstance(d["lower"], list)
    assert json.loads(json.dumps(d)) == d
    assert SwarmConfig(**d).as_dict() == d


def test_config_validation():
    with pytest.raises(ValueError):
        box_config(particle_count=0)
    with pytest.raises(ValueError):
        box_config(iterations=-1)
    with pytest.raises(ValueError):
        box_config(immigrant_fraction=1.5)
    with pytest.raises(ValueError):
        SwarmConfig(lower=np.array([1.0]), upper=np.array([0.0]))


# ---------------------------------------------------------------- velocity update


class FixedDraws:
    """Stands in for ``swarm.rng`` in one pso_step: its first uniform draw
    is ``r1`` and its second ``r2``, for every particle and dimension."""

    def __init__(self, r1, r2):
        self._draws = iter((r1, r2))

    def uniform(self, size):
        return np.full(size, next(self._draws))


def manual_swarm(position, velocity, pbest, gbest, draws, lower=-5.0, upper=5.0):
    """Particle 0 at ``position`` with ``velocity`` and ``pbest``; particle 1
    rests at ``gbest`` and holds the global best."""
    config = SwarmConfig(
        lower=np.array([lower]),
        upper=np.array([upper]),
        particle_count=2,
        iterations=1,
        immigrant_fraction=0.0,
        rng_seed=0,
    )
    return Swarm(
        config=config,
        rng=FixedDraws(*draws),
        positions=np.array([[position], [gbest]]),
        velocities=np.array([[velocity], [0.0]]),
        pbest_positions=np.array([[pbest], [gbest]]),
        pbest_fitness=np.array([-1e9, -1e9]),
        gbest_index=1,
        iteration=0,
    )


def test_velocity_update_hand_example():
    """x=0.2, v=0.1, pbest=0.5, gbest=0.9, r1=0.3, r2=0.6 with the default
    omega=0.5, c1=c2=2 gives v' = 0.05 + 0.18 + 0.84 = 1.07 and x' = 1.27."""
    swarm = manual_swarm(0.2, 0.1, 0.5, 0.9, draws=(0.3, 0.6))
    pso_step(swarm, lambda p: 0.0)
    assert swarm.velocities[0, 0] == pytest.approx(1.07, abs=1e-12)
    assert swarm.positions[0, 0] == pytest.approx(1.27, abs=1e-12)


def test_velocity_decays_with_zero_random_draws():
    swarm = manual_swarm(0.2, 0.4, 0.5, 0.9, draws=(0.0, 0.0))
    pso_step(swarm, lambda p: 0.0)
    assert swarm.velocities[0, 0] == pytest.approx(0.2, abs=1e-15)


def test_particle_sitting_at_both_bests_only_keeps_inertia():
    swarm = manual_swarm(0.7, 0.4, 0.7, 0.7, draws=(1.0, 1.0))
    pso_step(swarm, lambda p: 0.0)
    assert swarm.velocities[0, 0] == pytest.approx(0.2, abs=1e-15)


def test_out_of_bounds_particle_is_clamped_with_zero_velocity():
    swarm = manual_swarm(4.9, 0.5, 5.0, 5.0, draws=(1.0, 1.0))
    pso_step(swarm, lambda p: 0.0)
    assert swarm.positions[0, 0] == 5.0
    assert swarm.velocities[0, 0] == 0.0


def test_pso_step_updates_personal_and_global_best():
    """Both particles start at 0.2, scored -(0.2 - 0.3)^2; particle 0 moves by
    its inertia 0.5 * 0.1 to 0.25, scores better and takes the global best."""
    swarm = manual_swarm(0.2, 0.1, 0.2, 0.2, draws=(0.0, 0.0))
    swarm.pbest_fitness[:] = -((0.2 - 0.3) ** 2)
    pso_step(swarm, lambda p: float(-((p[0] - 0.3) ** 2)))
    assert swarm.pbest_positions[:, 0].tolist() == [0.25, 0.2]
    assert swarm.pbest_fitness[0] == -((0.25 - 0.3) ** 2)
    assert swarm.gbest_index == 0
    assert swarm.gbest_fitness == swarm.pbest_fitness[0]
    assert swarm.gbest_position.tolist() == [0.25]
    assert swarm.evaluations == 2 * 2  # the initial round and this step


@pytest.mark.parametrize(
    "holder_best, gbest_index",
    [(1.0, 1), (0.5, 0)],
    ids=["a_tie_keeps_the_holder", "a_rise_goes_to_the_first_best"],
)
def test_global_best_moves_only_above_the_value_it_held(holder_best, gbest_index):
    """Both particles score 1.0.  When particle 1 already held 1.0, particle
    0 only ties it and particle 1 keeps the global best.  When it held 0.5,
    both rise to 1.0 and the first of them, particle 0, takes it."""
    swarm = manual_swarm(0.2, 0.0, 0.2, 0.7, draws=(0.0, 0.0))
    swarm.pbest_fitness[1] = holder_best
    pso_step(swarm, lambda p: 1.0)
    assert swarm.pbest_fitness.tolist() == [1.0, 1.0]
    assert swarm.gbest_index == gbest_index
    assert swarm.gbest_position.tolist() == [[0.2], [0.7]][gbest_index]


@pytest.mark.parametrize(
    "error",
    [MapOverflowError(16), TrainingDivergedError(2), ZeroDivisionError("1 / 0")],
    ids=lambda error: type(error).__name__,
)
def test_objective_error_escapes_the_swarm(error):
    """The objective scores a failed position itself (the accuracy objective
    gives it 0.0), so whatever it raises is a fault and stops the run, a map
    overflow or a divergence included."""

    def raising(position):
        raise error

    with pytest.raises(type(error)):
        init_swarm(raising, box_config())
    swarm = manual_swarm(0.2, 0.1, 0.5, 0.9, draws=(0.0, 0.0))
    with pytest.raises(type(error)):
        pso_step(swarm, raising)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_objective_value_raises(value):
    # the first particle of box_config() stands at x > 0 and scores; the
    # second, at x < 0, stops the round
    def objective(position):
        return value if position[0] < 0.0 else sphere(position)

    with pytest.raises(ValueError, match="the objective returned"):
        init_swarm(objective, box_config())
    swarm = manual_swarm(0.2, 0.1, 0.5, 0.9, draws=(0.0, 0.0))
    with pytest.raises(ValueError, match="the objective returned"):
        pso_step(swarm, lambda position: value)


def test_init_swarm_positions_respect_bounds():
    swarm = init_swarm(sphere, box_config(particle_count=40))
    assert swarm.positions.shape == (40, 1)
    assert np.all(swarm.positions >= -5.0)
    assert np.all(swarm.positions <= 5.0)
    assert np.all(swarm.velocities == 0.0)
    assert swarm.evaluations == 40


# ---------------------------------------------------------------- immigrants


def immigrant_test_swarm(n=10, seed=3):
    config = SwarmConfig(
        lower=np.array([-5.0, -5.0]),
        upper=np.array([5.0, 5.0]),
        particle_count=n,
        iterations=5,
        immigrant_fraction=0.7,
        rng_seed=seed,
    )
    return init_swarm(sphere, config)


def test_immigrate_replaces_the_configured_count():
    swarm = immigrant_test_swarm()
    chosen = immigrate(swarm)
    assert len(chosen) == 7
    assert len(set(chosen.tolist())) == 7


def test_immigrate_never_touches_global_best_holder():
    for seed in range(10):
        swarm = immigrant_test_swarm(seed=seed)
        chosen = immigrate(swarm)
        assert swarm.gbest_index not in chosen


def test_immigrants_get_fresh_state():
    swarm = immigrant_test_swarm()
    before = swarm.positions.copy()
    chosen = immigrate(swarm)
    assert np.all(swarm.velocities[chosen] == 0.0)
    assert np.all(swarm.pbest_fitness[chosen] == FAILED_FITNESS)
    assert np.all(swarm.positions[chosen] >= -5.0)
    assert np.all(swarm.positions[chosen] <= 5.0)
    moved = np.any(swarm.positions[chosen] != before[chosen], axis=1)
    assert moved.all()
    untouched = np.setdiff1d(np.arange(10), chosen)
    assert np.array_equal(swarm.positions[untouched], before[untouched])


def test_zero_fraction_swarm_is_left_alone():
    config = box_config(immigrant_fraction=0.0, particle_count=6)
    swarm = init_swarm(sphere, config)
    before = swarm.positions.copy()
    chosen = immigrate(swarm)
    assert chosen.size == 0
    assert np.array_equal(swarm.positions, before)


# ---------------------------------------------------------------- optimize


def test_optimize_finds_a_quadratic_peak():
    config = box_config(iterations=40, particle_count=15, immigrant_fraction=0.0)
    result = optimize(lambda p: float(-((p[0] - 0.3) ** 2)), config)
    assert abs(result.gbest_position[0] - 0.3) < 0.01
    assert result.gbest_fitness > -1e-4


def test_trace_has_one_record_per_iteration_plus_init():
    config = box_config(iterations=12)
    result = optimize(sphere, config)
    assert len(result.trace) == 13
    assert len(result.immigrant_counts) == 12


def test_trace_is_monotone_nondecreasing():
    config = box_config(iterations=30, particle_count=12)
    result = optimize(sphere, config)
    fits = [r.fitness for r in result.trace]
    assert all(b >= a for a, b in zip(fits, fits[1:]))
    assert result.gbest_fitness == fits[-1]


def test_constant_objective_keeps_flat_trace():
    config = box_config(iterations=5)
    result = optimize(lambda p: 1.25, config)
    assert all(r.fitness == 1.25 for r in result.trace)


def test_optimize_is_deterministic_for_a_seed():
    config = box_config(iterations=10, rng_seed=42)
    a = optimize(sphere, config)
    b = optimize(sphere, config)
    assert np.array_equal(a.gbest_position, b.gbest_position)
    assert [r.fitness for r in a.trace] == [r.fitness for r in b.trace]


def test_best_position_stays_inside_bounds():
    config = box_config(iterations=25, particle_count=20)
    result = optimize(sphere, config)
    assert np.all(result.gbest_position >= -5.0)
    assert np.all(result.gbest_position <= 5.0)


def test_evaluation_count_accounts_for_every_particle():
    config = box_config(iterations=4, particle_count=9, immigrant_fraction=0.0)
    result = optimize(sphere, config)
    assert result.evaluations == 9 * 5  # init plus four steps


# ---------------------------------------------------------------- checkpoints


class _Abort(Exception):
    pass


def assert_same_run(resumed, full):
    """Same best, trace and immigrant counts; wall times may differ."""
    assert resumed.gbest_fitness == full.gbest_fitness
    assert np.array_equal(resumed.gbest_position, full.gbest_position)
    assert resumed.evaluations == full.evaluations
    assert resumed.immigrant_counts == full.immigrant_counts
    assert len(resumed.trace) == len(full.trace)
    for got, want in zip(resumed.trace, full.trace):
        assert got.fitness == want.fitness
        assert np.array_equal(got.position, want.position)


def interrupt(config, stop, path):
    """Run ``optimize`` and stop it right after it saves the checkpoint of
    iteration ``stop``."""

    def save_then_abort(swarm, path):
        save_checkpoint(swarm, path)
        if swarm.iteration == stop:
            raise _Abort()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rpso, "save_checkpoint", save_then_abort)
        with pytest.raises(_Abort):
            optimize(sphere, config, checkpoint_path=path)


def interrupt_and_resume(config, stop, path):
    interrupt(config, stop, path)
    return resume(sphere, load_checkpoint(path))


def test_resume_matches_uninterrupted_run(tmp_path):
    config = box_config(iterations=12, particle_count=8, rng_seed=9)
    full = optimize(sphere, config)
    resumed = interrupt_and_resume(config, 3, tmp_path / "checkpoint.json")
    assert len(resumed.trace) == 13
    assert len(resumed.immigrant_counts) == 12
    assert_same_run(resumed, full)
    # wall times run on across the interruption
    walls = [rec.wall_time for rec in resumed.trace]
    assert walls == sorted(walls)


@settings(max_examples=40, deadline=None)
@given(
    iterations=st.integers(1, 8),
    particles=st.integers(2, 8),
    fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_resume_from_any_interruption_reproduces_the_run(
    iterations, particles, fraction, seed, data
):
    config = box_config(
        lower=np.array([-5.0, -2.0]),
        upper=np.array([5.0, 3.0]),
        iterations=iterations,
        particle_count=particles,
        immigrant_fraction=fraction,
        rng_seed=seed,
    )
    stop = data.draw(st.integers(1, iterations), label="stop after iteration")
    full = optimize(sphere, config)
    with tempfile.TemporaryDirectory() as tmp:
        resumed = interrupt_and_resume(config, stop, Path(tmp) / "checkpoint.json")
    assert_same_run(resumed, full)


def test_checkpoint_round_trip_preserves_swarm(tmp_path):
    swarm = immigrant_test_swarm()
    path = tmp_path / "swarm.json"
    save_checkpoint(swarm, path)
    back = load_checkpoint(path)
    assert np.array_equal(back.positions, swarm.positions)
    assert np.array_equal(back.velocities, swarm.velocities)
    assert np.array_equal(back.pbest_fitness, swarm.pbest_fitness)
    assert back.gbest_fitness == swarm.gbest_fitness
    assert back.gbest_index == swarm.gbest_index
    assert back.iteration == swarm.iteration
    # the restored generator continues the exact random stream
    assert back.rng.random() == swarm.rng.random()


def test_checkpoint_holds_each_fact_once(tmp_path):
    """The global best is the personal best of gbest_index, the evaluation
    count follows from the iteration, and a trace record's index is its
    place; none of them is stored beside what it copies."""
    swarm = optimize(sphere, box_config(iterations=2))
    path = tmp_path / "checkpoint.json"
    save_checkpoint(swarm, path)
    payload = json.loads(path.read_text())
    assert sorted(payload) == [
        "config", "gbest_index", "immigrant_counts", "iteration", "pbest_fitness",
        "pbest_positions", "positions", "rng_state", "trace", "velocities",
    ]
    assert [sorted(rec) for rec in payload["trace"]] == [["fitness", "position", "wall_time"]] * 3


def test_a_checkpoint_with_the_older_copies_resumes_the_same_run(tmp_path):
    """A checkpoint that also holds the global best's position and fitness,
    the evaluation count and each trace record's index, as an older format
    did, resumes as one without them."""
    config = box_config(iterations=6, particle_count=5, rng_seed=4)
    full = optimize(sphere, config)
    path = tmp_path / "checkpoint.json"
    interrupt(config, 2, path)
    payload = json.loads(path.read_text())
    best = payload["gbest_index"]
    payload |= {
        "gbest_position": payload["pbest_positions"][best],
        "gbest_fitness": payload["pbest_fitness"][best],
        "evaluations": 5 * 3,
    }
    for i, rec in enumerate(payload["trace"]):
        rec["iteration"] = i
    path.write_text(json.dumps(payload))
    assert_same_run(resume(sphere, load_checkpoint(path)), full)


def test_interrupted_checkpoint_write_keeps_the_previous_one(tmp_path, monkeypatch):
    swarm = immigrant_test_swarm()
    path = tmp_path / "checkpoint.json"
    save_checkpoint(swarm, path)
    before = path.read_bytes()

    positions = swarm.positions.copy()
    fail_writing(monkeypatch, "write", path.name)  # the new text is cut halfway
    immigrate(swarm)
    with pytest.raises(OSError):
        save_checkpoint(swarm, path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert np.array_equal(load_checkpoint(path).positions, positions)
    assert sorted(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------- objectives


def test_sphere_is_negated_square_sum():
    assert sphere(np.zeros(5)) == 0.0
    assert sphere(np.array([3.0, 4.0])) == -25.0


def test_accuracy_objective_scores_divergent_params_zero():
    images, labels = make_band_images(30, seed=2)
    from chaosnet.network import Architecture, TrainConfig
    from chaosnet.reservoir import FillMethod

    objective = make_accuracy_objective(
        FillMethod.from_id(6),
        Architecture(5),
        images[:20],
        labels[:20],
        images[20:],
        labels[20:],
        train_config=TrainConfig(max_epochs=1, batch_size=8),
    )
    exploding = np.array([1.5, 10.0, 1.5, 1.5, 1.5, 1.5])
    with np.errstate(over="ignore", invalid="ignore"):
        assert objective(exploding) == 0.0
    benign = position_from_params(STABLE_PARAMS)
    score = objective(benign)
    assert 0.0 <= score <= 1.0
