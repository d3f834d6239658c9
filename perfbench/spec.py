"""What ``BENCHMARK.json`` declares, read in one place.

The harness takes workload names and metric units from the file itself
rather than keeping copies of them.
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@cache
def spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def units(section: str) -> dict[str, str]:
    """Metric name -> unit, for ``section`` ``"end_to_end"`` or ``"per_layer"``."""
    return {entry["name"]: entry["unit"] for entry in spec()[section]}


def with_units(section: str, values: dict[str, float]) -> dict[str, dict]:
    """``values`` as result metrics, each with the unit ``BENCHMARK.json`` gives it.

    Raises ``KeyError`` unless ``values`` names exactly the section's metrics.
    """
    declared = units(section)
    if set(values) != set(declared):
        raise KeyError(f"{section} metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
