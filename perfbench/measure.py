"""End-to-end measurement: closed-loop replay, timing sink, RSS, metrics.

Load is a closed loop.  One :class:`ReplaySource` in the benchmark process
hands blocks to the monitor as fast as the monitor pulls them and stamps
each hand-out, so back-pressure from the monitor paces the reads.  A
:class:`TimingSink` stamps each estimate as it arrives.  From the two sets
of stamps come

* ``throughput_pps`` -- rows per second over the middle half of the
  pulls, when spawn is over, drain has not begun and back-pressure paces
  the source;
* ``setup_s`` -- from constructing the monitor (``run()`` included) to the
  first estimate at the sink;
* ``emit_lag_*`` -- per estimate, from the hand-out of the first block
  whose stream time reaches the window's end to the estimate's arrival.
  Estimates arriving after the source ran dry belong to the end-of-capture
  flush and drain, not to live monitoring, and are not sampled.

Sharded workloads use ``n_workers = max(1, nproc - 1)`` so the parent and
its workers never outnumber the CPUs.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.cluster.monitor import ShardedQoEMonitor
from repro.obs.config import ObsConfig
from repro.sinks.base import EstimateSink
from repro.sinks.files import JSONLinesSink
from repro.sources.base import PcapSource

from perfbench.inputs import WorkloadInput
from perfbench.oracle import Reference, canonical, reference
from perfbench.spec import with_units

#: Stream seconds a setup probe replays: enough for the first windows to
#: close while the source is still being read.
PROBE_STREAM_S = 1.5
#: Setup probes per measurement, after one untimed probe as the warm-up.
SETUP_PROBES = 11


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def n_workers() -> int:
    return max(1, nproc() - 1)


class ReplaySource:
    """Hands out the input's blocks on demand and stamps every hand-out.

    ``until_s`` ends the replay after the first block that reaches that
    many stream seconds past the capture's start (a setup probe replays
    such a prefix).  Synthetic inputs are sliced into blocks before the
    run; the simulated capture is decoded from its pcap as it is pulled.
    """

    def __init__(self, data: WorkloadInput, until_s: float | None = None) -> None:
        self.data = data
        self.chunk_size = chunk_size = data.workload.chunk_size
        self.until_s = until_s
        self.pulls: list[float] = []
        #: When the monitor asked past the last block (``None`` until then).
        self.exhausted: float | None = None
        self.rows: list[int] = []
        self.stream_time: list[float] = []
        self._slices = None
        if data.block is not None:
            block = data.block
            self._slices = [block[lo : lo + chunk_size] for lo in range(0, len(block), chunk_size)]
            self.rows = [len(part) for part in self._slices]
            self.stream_time = [float(part.timestamps[-1]) for part in self._slices]

    def __iter__(self):
        raise TypeError("ReplaySource feeds block-mode monitors only")

    def blocks(self, chunk_size: int):
        if chunk_size != self.chunk_size:
            raise ValueError(f"replay sliced for {self.chunk_size}-row blocks, asked for {chunk_size}")
        stamp = self.pulls.append
        end = None
        if self._slices is not None:
            parts = self._slices
        else:
            parts = PcapSource(self.data.pcap_path).blocks(chunk_size)
        for part in parts:
            stamp(perf_counter())
            if self._slices is None:
                self.rows.append(len(part))
                self.stream_time.append(float(part.timestamps.max()))
            yield part
            if self.until_s is not None:
                if end is None:
                    end = float(part.timestamps.min()) + self.until_s
                if self.stream_time[len(self.pulls) - 1] >= end:
                    break
        self.exhausted = perf_counter()


class TimingSink(EstimateSink):
    """Keeps every estimate with its arrival time."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.items: list = []

    def emit(self, item) -> None:
        self.times.append(perf_counter())
        self.items.append(item)


class RssSampler:
    """Samples the summed RSS of this process and its children.

    RSS is read every ``INTERVAL_S``; the child list is refreshed every
    ``RESCAN`` samples, because listing ``/proc`` costs about a millisecond
    that the sampler thread would otherwise take from the monitor's loop.
    """

    INTERVAL_S = 0.05
    RESCAN = 5

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._pid = os.getpid()
        self._children: list[int] = []

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        tick = 0
        while True:
            if tick % self.RESCAN == 0:
                self._children = self._list_children()
            self.sample()
            tick += 1
            if self._stop.wait(self.INTERVAL_S):
                self.sample()
                return

    def sample(self) -> None:
        total = self._rss(self._pid) + sum(self._rss(pid) for pid in self._children)
        self.peak_bytes = max(self.peak_bytes, total)

    def _rss(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm") as statm:
                return int(statm.read().split()[1]) * self._page
        except (OSError, IndexError, ValueError):
            return 0  # the process exited between listing and reading

    def _list_children(self) -> list[int]:
        children = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if int(fields[1]) == self._pid:
                children.append(int(entry))
        return children


@dataclass
class RunResult:
    """What one measured ``run()`` produced."""

    wall_s: float
    setup_s: float
    throughput_pps: float
    lags_ms: list[float]
    peak_rss_mb: float
    fps_mae: float
    n_expected: int
    failed: int
    report: object = None
    error: str | None = None
    #: The estimates as the sink received them.
    items: list = field(default_factory=list)


def make_monitor(data: WorkloadInput, source, sinks, obs: ObsConfig | None = None):
    """The monitor a workload runs, built through the public API only."""
    if data.model_path is not None:
        return ShardedQoEMonitor.from_model(
            data.model_path, source, sinks, n_workers=n_workers(), transport="shm", obs=obs
        )
    return ShardedQoEMonitor(
        data.pipeline(), source, sinks, n_workers=n_workers(), transport="shm", obs=obs
    )


def run_once(
    data: WorkloadInput,
    ref: Reference | None,
    until_s: float | None = None,
    obs: ObsConfig | None = None,
    keep_items: bool = False,
) -> RunResult:
    """One monitor run over the input; ``ref=None`` skips the check.

    The clock starts before the monitor is constructed, so work a
    constructor takes over from ``run()`` still counts as set-up.  The
    estimates are dropped unless ``keep_items``: a measured run must not
    carry the previous runs' output in the RSS it reports.
    """
    source = ReplaySource(data, until_s=until_s)
    timing = TimingSink()
    jsonl_path = data.cache_dir / f"run-{os.getpid()}.jsonl"
    report = None
    error = None
    try:
        with RssSampler() as rss:
            started = perf_counter()
            try:
                monitor = make_monitor(data, source, [JSONLinesSink(jsonl_path), timing], obs=obs)
                report = monitor.run()
            except Exception as exc:  # a failed run is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            finished = perf_counter()
    finally:
        jsonl_path.unlink(missing_ok=True)
    n_expected = len(ref) if ref is not None else 0
    if error is not None:
        failed = n_expected
    elif ref is not None:
        failed = ref.count_failed([canonical(item) for item in timing.items])
    else:
        failed = 0
    return RunResult(
        wall_s=finished - started,
        setup_s=(timing.times[0] - started) if timing.times else finished - started,
        throughput_pps=middle_half_pps(source),
        lags_ms=emit_lags_ms(source, timing, data.pipeline().config.window_s),
        peak_rss_mb=rss.peak_bytes / 2**20,
        fps_mae=fps_mae(timing.items, data.truth),
        n_expected=n_expected,
        failed=failed,
        report=report,
        error=error,
        items=timing.items if keep_items else [],
    )


def middle_half_pps(source: ReplaySource) -> float:
    """Rows per second between the pulls at 25% and 75% of the run."""
    n = len(source.pulls)
    lo, hi = n // 4, (3 * n) // 4
    if hi <= lo:
        lo, hi = 0, n - 1
    elapsed = source.pulls[hi] - source.pulls[lo] if hi > lo else 0.0
    return sum(source.rows[lo:hi]) / elapsed if elapsed > 0 else 0.0


def emit_lags_ms(source: ReplaySource, timing: TimingSink, window_s: float) -> list[float]:
    """Per live estimate: hand-out of the first block past the window's end -> arrival."""
    if not timing.items or not source.pulls:
        return []
    reached = np.maximum.accumulate(np.asarray(source.stream_time[: len(source.pulls)]))
    ends = np.array([item.estimate.window_start + window_s for item in timing.items])
    times = np.asarray(timing.times)
    index = np.searchsorted(reached, ends, side="left")
    live = times < (source.exhausted if source.exhausted is not None else np.inf)
    sampled = (index < len(reached)) & live
    lags = times[sampled] - np.asarray(source.pulls)[index[sampled]]
    return (lags * 1000.0).tolist()


def fps_mae(items, truth: dict) -> float:
    """Mean |estimated - true| frame rate over windows the generator knows."""
    errors = []
    for item in items:
        frames = truth.get(item.flow)
        second = int(item.estimate.window_start)
        if frames is None or not 0 <= second < len(frames):
            continue
        rate = item.estimate.frame_rate
        if math.isfinite(rate):
            errors.append(abs(rate - frames[second]))
    return statistics.fmean(errors) if errors else math.nan


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else math.nan


def measure_end_to_end(data: WorkloadInput, seconds: float) -> dict:
    """Warm up, probe set-up, then repeat full runs within ``seconds``; report medians.

    ``setup_s`` is the median over :data:`SETUP_PROBES` setup probes: short
    runs over the first :data:`PROBE_STREAM_S` stream seconds, which set up
    as a full run does and end soon after.  Every other metric is the
    median over the full runs, each checked against the reference.
    """
    workload = data.workload
    setup_started = perf_counter()
    ref = reference(data)
    prepared_s = perf_counter() - setup_started

    started = perf_counter()
    run_once(data, None, until_s=PROBE_STREAM_S)  # the warm-up: the first run in a process is slow
    probes: list[RunResult] = []
    runs: list[RunResult] = []
    while not runs or perf_counter() - started + statistics.median(run.wall_s for run in runs) <= seconds:
        # The probes are spread over the measurement, so that they meet the
        # same host conditions as the full runs.
        while len(probes) < SETUP_PROBES * min(1.0, (perf_counter() - started) / seconds):
            probes.append(run_once(data, None, until_s=PROBE_STREAM_S))
        runs.append(run_once(data, ref))
    while len(probes) < SETUP_PROBES:
        probes.append(run_once(data, None, until_s=PROBE_STREAM_S))
    measured_s = perf_counter() - started
    attempted = sum(run.n_expected for run in runs)
    failed = sum(run.failed for run in runs)
    errors = [run.error for run in probes + runs if run.error is not None]
    per_run = {
        "throughput_pps": [run.throughput_pps for run in runs],
        "setup_s": [probe.setup_s for probe in probes],
        "wall_s": [run.wall_s for run in runs],
        # Lag percentiles are taken per run, so one slow run's tail cannot
        # decide the p99 on its own.
        "emit_lag_p50_ms": [percentile(run.lags_ms, 50) for run in runs],
        "emit_lag_p99_ms": [percentile(run.lags_ms, 99) for run in runs],
        "peak_rss_mb": [run.peak_rss_mb for run in runs],
        "fps_mae": [run.fps_mae for run in runs],
    }
    values = {name: statistics.median(samples) for name, samples in per_run.items()}
    # End-to-end metrics in BENCHMARK.json must never read 0, and
    # failed_share does on correct code, so the reported metric is its
    # complement.
    values["match_share"] = 1.0 - failed / attempted
    return {
        "workload": workload.name,
        "mode": "end_to_end",
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": with_units("end_to_end", values),
        "runs": len(runs),
        "setup_probes": len(probes),
        "measured_s": measured_s,
        "per_run": per_run,
        "full_run_setup_s": [run.setup_s for run in runs],
        "spread": {name: relative_iqr(samples) for name, samples in per_run.items()},
        "emit_lag_samples_per_run": [len(run.lags_ms) for run in runs],
        "errors": errors,
        "n_packets": data.n_packets,
        "reference_estimates": len(ref),
        "reference_setup_s": prepared_s,
    }


def relative_iqr(values: list[float]) -> float:
    """Quartile distance over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0
