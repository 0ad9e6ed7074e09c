"""Time the rows of the hand-timed table in ROADMAP item 1 on synthetic data.

    PYTHONPATH=src python3 perfbench/roadmap_table.py

Map parameters are the CLI defaults with fill method 4.  Each row gives the
first timed call (colder: fewer pages reused) and the
median of three more.  Prints a markdown table.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

import synth
from chaosnet import mnist, network, reservoir, rpso
from chaosnet.maps import MapParams
from chaosnet.network import Architecture, TrainConfig
from chaosnet.reservoir import FillMethod, Reservoir, ReservoirConfig

PARAMS = MapParams(a1=1.0, a2=1.0, a3=1.51, a4=0.74, A=-0.81, B=0.51)
METHOD = FillMethod.from_id(4)


def timed(fn, reps: int = 3) -> tuple[float, float]:
    times = []
    for _ in range(reps + 1):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times[0], statistics.median(times[1:])


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        synth.write_idx_dir(Path(tmp), 0, 60_000, 10_000)
        train_ds, _ = mnist.load_mnist(tmp)
    subset = train_ds.subset(mnist.split_indices(train_ds.labels, mnist.SplitPlan()), "12k")
    config = ReservoirConfig(METHOD, PARAMS, reservoir_size=25)
    rows = reservoir.flatten_images(train_ds.images)
    res = Reservoir(config)
    res.matrix()

    def objective():
        return rpso.make_accuracy_objective(METHOD, Architecture(25), subset.images,
                                            subset.labels, train_ds.images, train_ds.labels)

    fitness = objective()
    table = [
        ("`flatten_images` on 60k images", timed(lambda: reservoir.flatten_images(train_ds.images))),
        ("materialized pre-activation, 60k rows, P=25", timed(lambda: res.preactivation(rows))),
        ("streaming pre-activation, one input, P=25",
         timed(lambda: res.preactivation(rows[0], "streaming"))),
        ("`build_matrix`, method 4, P=200",
         timed(lambda: reservoir.build_matrix(ReservoirConfig(METHOD, PARAMS, 200)))),
        ("`train` on 12k rows, 20 epochs, P=25",
         timed(lambda: network.train(rows[:12_000], train_ds.labels[:12_000], Architecture(25),
                                     config, TrainConfig()))),
        ("one swarm fitness evaluation (method 4, default params)",
         timed(lambda: fitness(rpso.position_from_params(PARAMS)))),
        ("`optimize` setup: split, flatten 12k + 60k", timed(objective)),
    ]
    print("| what | first timed call | median of next 3 |\n|---|---|---|")
    for what, (first, warm) in table:
        print(f"| {what} | {first * 1e3:.0f} ms | {warm * 1e3:.0f} ms |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
