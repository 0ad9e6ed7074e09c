"""Run the benchmark over several seeds and write a baseline file.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BENCH_baseline.json

For every workload: one untraced run per seed (end-to-end metrics), then
one traced run on the first seed (per-layer metrics).  Each end-to-end
metric gets its median, quartiles and spread, the quartile distance as a
share of the median, as ``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from record_reference import _seeds
from run import HERE, ROOT, WORKLOADS


def bench(workload: str, seed: int, trace: int, seconds: float) -> dict:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    result["notes"] = [line for line in lines if line.startswith("# ")]
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=list(range(1, 11)))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    report = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result = bench(workload, seed, 0, args.seconds)
            print(workload, seed, f"{result['wall_s']:.1f}s", result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
            runs.append({"seed": seed, **result})
        traced = bench(workload, args.seeds[0], 1, args.seconds)
        names = list(runs[0]["metrics"])
        machine = next(n for n in runs[0]["notes"] if n.startswith("# machine "))
        report["machine"] = json.loads(machine[len("# machine "):])
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs + [traced]),
            "summary": {n: summary([r["metrics"][n]["value"] for r in runs]) for n in names},
            "runs": runs,
            "traced": traced,
        }
        for name, s in report["workloads"][workload]["summary"].items():
            print(f"  {name:20s} median {s['median']:.5g} spread {s['spread']:.4f}", flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
