"""Record reference outputs for seeds that have none yet.

    python3 perfbench/record_reference.py --size full --workload search --seeds 0-19

Each seed is set up and measured for one round; its outputs are written to
``reference.json`` only when every other check passed.  Existing entries are
never overwritten: a reference is the output of the commit that recorded it.
``analyze`` reads no seeded input, so its entry is stored under ``"*"``.
"""

from __future__ import annotations

import argparse
import json
import sys

from checks import REFERENCE_PATH
from run import run


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "train", "analyze"))
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seeds", type=_seeds, default=[0])
    args = parser.parse_args(argv)
    store = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    entries = store.setdefault(args.size, {}).setdefault(args.workload, {})
    for seed in args.seeds:
        key = "*" if args.workload == "analyze" else str(seed)
        if key in entries:
            continue
        result = run(args.workload, seed, 0, False, args.size)
        if not result["correct"]:
            print(f"seed {seed}: checks failed, not recorded: {result['problems']}",
                  file=sys.stderr)
            return 1
        entries[key] = result["observed"]
        REFERENCE_PATH.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
        print(f"recorded {args.size} {args.workload} seed {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
