"""Output checks: independent map oracles and the recorded reference outputs.

The oracles re-derive, in plain Python floats, facts the benchmark checks
against the program's outputs: whether a map orbit overflows (a search
particle scores 0 for that reason, an analyze sweep point is flagged) and
the Poincare pairs written by ``analyze``.  ``reference.json`` holds outputs
recorded for fixed seeds; a seed without an entry is checked by the
oracles and self-consistency checks alone.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

INPUT_DIM = 785
WARMUP = 10_000
SINE_Y0 = 0.51
# fill methods: id -> (sine initial conditions, 10k warm-up, |y| > 10 clamp)
FILL = {1: (True, False, False), 2: (True, False, True), 3: (False, True, True),
        4: (False, True, False), 5: (False, False, True), 6: (False, False, False)}

LOSS_RTOL = 1e-9
VALUE_ATOL = 1e-12


def _diverges(coeffs, x: float, y: float, steps: int) -> bool:
    a1, a2, a3, a4 = coeffs
    for _ in range(steps):
        x, y = y, x + a1 * x * x + a2 * y * y - a3 * x * y - a4
        if not math.isfinite(y):
            return True
    return False


def matrix_overflows(method_id: int, A: float, B: float, coeffs, rows: int) -> bool:
    """Whether building the ``rows`` x 785 weight matrix overflows."""
    sine, warm, clamp = FILL[method_id]
    if clamp:
        return False  # the guard replaces every non-finite iterate
    if sine:
        return any(
            _diverges(coeffs, A * math.sin(i / (INPUT_DIM - 1) * (math.pi / B)), SINE_Y0,
                      rows - 1)
            for i in range(INPUT_DIM)
        )
    return _diverges(coeffs, A, B, (WARMUP if warm else 0) + rows * INPUT_DIM)


def series_overflows(method_id: int, A: float, B: float, coeffs, length: int) -> bool:
    """Whether the first ``length`` values of a constant-init weight stream overflow."""
    sine, warm, clamp = FILL[method_id]
    if sine:
        raise ValueError("series oracle covers constant-init methods only")
    return not clamp and _diverges(coeffs, A, B, (WARMUP if warm else 0) + length)


def poincare_pairs(A: float, B: float, coeffs, transient: int, count: int):
    """(x, y) states after ``transient`` steps, no clamp, as plain floats."""
    a1, a2, a3, a4 = coeffs
    x, y, out = A, B, []
    for i in range(transient + count):
        x, y = y, x + a1 * x * x + a2 * y * y - a3 * x * y - a4
        if i >= transient:
            out.append((x, y))
    return out


def load_reference(size: str, workload: str, seed: int) -> dict | None:
    """Recorded outputs for this size, workload and seed (``"*"``: any seed)."""
    if not REFERENCE_PATH.exists():
        return None
    entries = json.loads(REFERENCE_PATH.read_text()).get(size, {}).get(workload, {})
    return entries.get(str(seed), entries.get("*"))


def compare_reference(workload: str, observed: dict, reference: dict) -> list[str]:
    """Differences between observed outputs and the recorded reference."""
    problems = []
    if workload == "search":
        if observed["outcomes"] != reference["outcomes"]:
            problems.append(f"particle outcomes {observed['outcomes']} != {reference['outcomes']}")
        if abs(observed["best_fitness"] - reference["best_fitness"]) > VALUE_ATOL:
            problems.append(
                f"best fitness {observed['best_fitness']!r} != {reference['best_fitness']!r}"
            )
    elif workload == "train":
        if abs(observed["test_accuracy"] - reference["test_accuracy"]) > VALUE_ATOL:
            problems.append(
                f"test accuracy {observed['test_accuracy']!r} != {reference['test_accuracy']!r}"
            )
        got, want = observed["epoch_losses"], reference["epoch_losses"]
        if len(got) != len(want) or any(
            not math.isclose(g, w, rel_tol=LOSS_RTOL, abs_tol=0.0) for g, w in zip(got, want)
        ):
            problems.append(f"epoch losses {got} != {want}")
    elif workload == "analyze":
        got, want = observed["points"], reference["points"]
        if [p["overflowed"] for p in got] != [p["overflowed"] for p in want]:
            problems.append("overflow flags differ from the reference")
        for g, w in zip(got, want):
            for key, value in w["apen"].items():
                other = g["apen"].get(key)
                same = (math.isnan(value) and other is not None and math.isnan(other)) or (
                    other is not None and math.isclose(other, value, rel_tol=VALUE_ATOL)
                )
                if not same:
                    problems.append(f"ApEn {key} at {w['param']}: {other!r} != {value!r}")
    return problems
