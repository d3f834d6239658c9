"""The benchmark's checks on itself.

Run from the repository root::

    python3 perfbench/selfcheck.py

It checks that ``BENCHMARK.json`` is well formed and names exactly the
workloads and metrics the harness produces, proves that the oracle notices
a single perturbed, reordered or missing estimate, and runs every workload
end to end (and its layer table) at a tiny size.  Exits 0 when every check
passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
SEED = 5


def check_benchmark_json(doc: dict) -> list[str]:
    """Format problems of ``BENCHMARK.json`` (an empty list when it is valid)."""
    from perfbench.inputs import WORKLOADS

    problems = []
    if set(doc) != TOP_KEYS:
        problems.append(f"top-level keys {sorted(doc)} != {sorted(TOP_KEYS)}")
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in doc.get(key, [])]
    problems += [f"bad name {name!r}" for name in names if not NAME.fullmatch(name)]
    problems += [f"name used twice: {name!r}" for name in set(names) if names.count(name) > 1]
    for entry in doc.get("end_to_end", []) + doc.get("per_layer", []):
        if not UNIT.fullmatch(entry.get("unit", "")):
            problems.append(f"bad unit {entry.get('unit')!r} of {entry['name']}")
        if entry.get("better") not in ("higher", "lower"):
            problems.append(f"bad 'better' of {entry['name']}")
    for entry in doc.get("end_to_end", []):
        if set(entry) != {"name", "unit", "better", "bound"} or not 0 < entry["bound"] <= 0.25:
            problems.append(f"bad end_to_end entry {entry}")
    bounds = {entry["name"]: entry["bound"] for entry in doc.get("end_to_end", [])}
    setup = next((e for e in doc.get("end_to_end", []) if e["name"] == "setup_s"), None)
    if setup is None or setup["unit"] != "s" or setup["better"] != "lower":
        problems.append("setup_s (unit s, better lower) is missing")
    elif setup["bound"] < max(bounds.values()):
        problems.append("setup_s must have the largest bound")
    if [w["name"] for w in doc.get("workloads", [])] != list(WORKLOADS):
        problems.append("workloads differ from perfbench.inputs.WORKLOADS")
    for workload in doc.get("workloads", []):
        if set(workload) != {"name", "why"} or "\n" in workload["why"] or len(workload["why"]) > 200:
            problems.append(f"bad workload entry {workload['name']}")
    if not isinstance(doc.get("run_seconds"), int) or not 1 <= doc["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number from 1 to 60")
    for path in doc.get("paths", []):
        if not re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) or path.startswith("/") or ".." in path:
            problems.append(f"bad path {path!r}")
    return problems


def check_oracle() -> list[str]:
    """The oracle must count a perturbed, a swapped and a missing estimate."""
    import numpy as np

    from perfbench.oracle import Reference, canonical
    from repro.core.pipeline import PipelineEstimate
    from repro.core.streaming import StreamEstimate

    items = [
        StreamEstimate(flow=None, estimate=PipelineEstimate(float(k), 25.0, 900.0, 3.5, None, "heuristic"))
        for k in range(6)
    ]
    ref = Reference([canonical(item) for item in items])
    est = items[2].estimate
    nudged = PipelineEstimate(
        est.window_start, float(np.nextafter(est.frame_rate, np.inf)), est.bitrate_kbps,
        est.frame_jitter_ms, est.resolution, est.source,
    )
    perturbed = [canonical(item) for item in items]
    perturbed[2] = canonical(StreamEstimate(flow=None, estimate=nudged))
    swapped = [canonical(item) for item in items]
    swapped[1], swapped[2] = swapped[2], swapped[1]
    cases = {
        "identical": (ref.lines, 0),
        "one value one ulp off": (perturbed, 1),
        "two estimates swapped": (swapped, 2),
        "last estimate missing": (ref.lines[:-1], 1),
        "one estimate extra": (ref.lines + ref.lines[:1], 1),
    }
    return [
        f"oracle counted {ref.count_failed(lines)} failures for '{case}', expected {expected}"
        for case, (lines, expected) in cases.items()
        if ref.count_failed(lines) != expected
    ]


def check_tiny_runs() -> list[str]:
    """Every workload end to end and traced at tiny size: correct, finite, reconciled."""
    from perfbench.inputs import WORKLOADS, open_input, tiny
    from perfbench.layers import measure_layers
    from perfbench.measure import measure_end_to_end

    problems = []
    for workload in WORKLOADS.values():
        with open_input(tiny(workload), SEED) as data:
            records = (("end_to_end", measure_end_to_end(data, 0.1)), ("per_layer", measure_layers(data)))
        for mode, record in records:
            label = f"{workload.name} {mode}"
            if not record["correct"] or record["failed"] or record["attempted"] < 1:
                problems.append(f"{label}: not correct ({record['failed']}/{record['attempted']} failed)")
            bad = [name for name, metric in record["metrics"].items() if not math.isfinite(metric["value"])]
            if bad:
                problems.append(f"{label}: non-finite {bad}")
            if mode == "end_to_end":
                zero = [name for name, metric in record["metrics"].items() if metric["value"] == 0]
                if zero:
                    problems.append(f"{label}: end-to-end metrics read 0: {zero}")
            else:
                problems += check_stages(label, record)
    return problems


def check_stages(label: str, record: dict) -> list[str]:
    """No stage time or unattributed remainder may be negative.

    A negative remainder means top-level spans overlapped, or a stage
    counted time outside the run; frame assembly must also fit inside the
    ``push_block`` spans that contain it.
    """
    value = {name: metric["value"] for name, metric in record["metrics"].items()}
    problems = [
        f"{label}: {name} = {seconds} < 0"
        for name, seconds in value.items()
        if name.startswith("stage.") and seconds < 0
    ]
    if value["stage.frame_assembly_s"] > value["stage.push_block_s"]:
        problems.append(f"{label}: frame assembly outside push_block")
    return problems


def main() -> int:
    import atexit

    from perfbench.run import stop_resource_tracker

    atexit.register(stop_resource_tracker)  # before anything imports multiprocessing
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_benchmark_json(doc) + check_oracle()
    if not problems:
        problems = check_tiny_runs()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
