"""Particle swarm with random immigrants: velocity update, bound handling,
immigrant replacement, checkpointing and the end-to-end optimize loop."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosnet.maps import MapOverflowError, MapParams
from chaosnet.network import TrainingDivergedError
from chaosnet.rpso import (
    FAILED_FITNESS,
    MAP_PARAM_NAMES,
    OptimizationError,
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
    sphere,
    write_trace_csv,
)

from conftest import STABLE_PARAMS, make_band_images


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


def manual_swarm(position, velocity, pbest, gbest, lower=-5.0, upper=5.0):
    config = SwarmConfig(
        lower=np.array([lower]),
        upper=np.array([upper]),
        particle_count=1,
        iterations=1,
        immigrant_fraction=0.0,
        rng_seed=0,
    )
    return Swarm(
        config=config,
        rng=np.random.default_rng(0),
        positions=np.array([[position]]),
        velocities=np.array([[velocity]]),
        pbest_positions=np.array([[pbest]]),
        pbest_fitness=np.array([-1e9]),
        gbest_position=np.array([gbest]),
        gbest_fitness=-1e9,
        gbest_index=0,
        iteration=0,
        evaluations=0,
    )


def test_velocity_update_hand_example():
    """x=0.2, v=0.1, pbest=0.5, gbest=0.9, r1=0.3, r2=0.6 with the default
    omega=0.5, c1=c2=2 gives v' = 0.05 + 0.18 + 0.84 = 1.07 and x' = 1.27."""
    swarm = manual_swarm(0.2, 0.1, 0.5, 0.9)
    pso_step(swarm, lambda p: 0.0, r1=np.array([[0.3]]), r2=np.array([[0.6]]))
    assert swarm.velocities[0, 0] == pytest.approx(1.07, abs=1e-12)
    assert swarm.positions[0, 0] == pytest.approx(1.27, abs=1e-12)


def test_velocity_decays_with_zero_random_draws():
    swarm = manual_swarm(0.2, 0.4, 0.5, 0.9)
    pso_step(swarm, lambda p: 0.0, r1=0.0, r2=0.0)
    assert swarm.velocities[0, 0] == pytest.approx(0.2, abs=1e-15)


def test_particle_sitting_at_both_bests_only_keeps_inertia():
    swarm = manual_swarm(0.7, 0.4, 0.7, 0.7)
    pso_step(swarm, lambda p: 0.0, r1=1.0, r2=1.0)
    assert swarm.velocities[0, 0] == pytest.approx(0.2, abs=1e-15)


def test_out_of_bounds_particle_is_clamped_with_zero_velocity():
    swarm = manual_swarm(4.9, 0.5, 5.0, 5.0)
    pso_step(swarm, lambda p: 0.0, r1=1.0, r2=1.0)
    assert swarm.positions[0, 0] == 5.0
    assert swarm.velocities[0, 0] == 0.0


def test_pso_step_updates_personal_and_global_best():
    swarm = manual_swarm(0.2, 0.0, 0.2, 0.2)
    swarm.pbest_fitness = np.array([float(-(0.2 - 0.3) ** 2)])
    swarm.gbest_fitness = float(-(0.2 - 0.3) ** 2)
    pso_step(swarm, lambda p: float(-((p[0] - 0.3) ** 2)), r1=0.5, r2=0.5)
    assert swarm.evaluations == 1
    assert swarm.gbest_fitness >= -(0.2 - 0.3) ** 2


def test_failing_objective_scores_negative_infinity():
    for error in (MapOverflowError(16), TrainingDivergedError(2)):

        def bad(position):
            raise error

        swarm = manual_swarm(0.2, 0.1, 0.5, 0.9)
        swarm.pbest_fitness = np.array([-4.0])
        swarm.gbest_fitness = -4.0
        pso_step(swarm, bad, r1=0.0, r2=0.0)
        # the failed evaluation must not displace the existing bests
        assert swarm.pbest_fitness[0] == -4.0
        assert swarm.gbest_fitness == -4.0


def test_unexpected_objective_error_escapes_the_swarm():
    def buggy(position):
        return 1 / 0

    with pytest.raises(ZeroDivisionError):
        init_swarm(buggy, box_config())
    swarm = manual_swarm(0.2, 0.1, 0.5, 0.9)
    with pytest.raises(ZeroDivisionError):
        pso_step(swarm, buggy, r1=0.0, r2=0.0)


def test_init_swarm_raises_when_everything_fails():
    with pytest.raises(OptimizationError):
        init_swarm(lambda p: float("nan"), box_config())


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
    return init_swarm(sphere, config, rng=seed)


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
    assert [r.iteration for r in result.trace] == list(range(13))
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
        assert got.iteration == want.iteration
        assert got.fitness == want.fitness
        assert np.array_equal(got.position, want.position)


def interrupt_and_resume(config, stop, path):
    def abort(iteration, swarm):
        if iteration == stop:
            raise _Abort()

    with pytest.raises(_Abort):
        optimize(sphere, config, callback=abort, checkpoint_path=path)
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


def test_interrupted_checkpoint_write_keeps_the_previous_one(tmp_path, monkeypatch):
    swarm = immigrant_test_swarm()
    path = tmp_path / "checkpoint.json"
    save_checkpoint(swarm, path)
    before = path.read_bytes()

    def dump_half_then_fail(payload, fh):
        fh.write('{"config": ')
        raise OSError("disk full")

    positions = swarm.positions.copy()
    monkeypatch.setattr(json, "dump", dump_half_then_fail)
    immigrate(swarm)
    with pytest.raises(OSError):
        save_checkpoint(swarm, path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert np.array_equal(load_checkpoint(path).positions, positions)
    assert sorted(tmp_path.iterdir()) == [path]


def test_trace_csv_contains_all_iterations(tmp_path):
    config = box_config(iterations=6)
    result = optimize(sphere, config)
    path = tmp_path / "trace.csv"
    write_trace_csv(result, path, comment="run notes")
    lines = path.read_text().splitlines()
    assert lines[0] == "# run notes"
    header = lines[1].split(",")
    assert header[0] == "iteration"
    assert len(lines) == 2 + 7


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
