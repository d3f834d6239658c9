"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sharded-8-flows --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with observability off,
repeating runs for ``--seconds``; ``--trace 1`` measures the per-layer
table instead (layer microbenchmarks, the ``push_block`` fixed-cost fit and
an obs-on run whose stage spans are reconciled against wall time), a fixed
amount of work whose length ``--seconds`` does not change.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full record (spreads, sample counts, environment), and a
readable table goes to standard error.

The program under test is built from ``src/`` of the checkout this file
sits in; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import atexit
import json
import math
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# Spawned shard workers re-run this module's top level as ``__mp_main__``:
# keep it to path setup, everything else happens under ``main``.
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    atexit.register(stop_resource_tracker)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench.inputs import WORKLOADS, open_input
    from perfbench.oracle import prepare

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    started = perf_counter()
    try:
        prepare(workload, args.seed)
        with open_input(workload, args.seed) as data:
            input_setup_s = perf_counter() - started
            if args.trace:
                from perfbench.layers import measure_layers

                record = measure_layers(data)
            else:
                from perfbench.measure import measure_end_to_end

                record = measure_end_to_end(data, args.seconds)
    finally:
        join_children()
    record["input_setup_s"] = input_setup_s
    record["environment"] = environment(args.seed)
    for metric in record["metrics"].values():
        if not math.isfinite(metric["value"]):
            # Only a broken run leaves a metric without samples; keep the
            # result line valid JSON and mark the run incorrect.
            metric["value"] = 0.0
            record["correct"] = False
    print(json.dumps(record, default=float))
    print_table(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def join_children(timeout: float = 10.0) -> None:
    """Wait for every process this one started; kill any that hangs."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Left alone it exits only after this process does, as an orphan.
    Registered with ``atexit`` before ``multiprocessing`` is imported, so it
    runs after multiprocessing's own exit handler has released the
    semaphores the tracker watches.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def environment(seed: int) -> dict:
    import numpy

    from perfbench.inputs import source_digest
    from perfbench.measure import n_workers, nproc

    return {
        "seed": seed,
        "nproc": nproc(),
        "n_workers": n_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_digest": source_digest(),
    }


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_table(record: dict) -> None:
    env = record["environment"]
    print(
        f"# {record['workload']} ({record['mode']}): seed={env['seed']} nproc={env['nproc']} "
        f"n_workers={env['n_workers']} python={env['python']} numpy={env['numpy']} "
        f"commit={env['commit'][:12]} source={env['source_digest'][:12]}",
        file=sys.stderr,
    )
    if "failed_share" in record:
        print(
            f"#   runs={record['runs']} failed_share={record['failed_share']:.6g} "
            f"emit_lag_samples_per_run={record['emit_lag_samples_per_run']}",
            file=sys.stderr,
        )
    spread = record.get("spread", {})
    for name, metric in record["metrics"].items():
        extra = f"  (IQR/median {spread[name]:.3f})" if name in spread else ""
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}{extra}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
