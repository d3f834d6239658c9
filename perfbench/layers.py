"""The per-layer table, timed from outside through each layer's public calls.

Nothing here adds a span inside the program.  Three kinds of numbers:

* **microbenchmarks** -- each public call is repeated on this workload's own
  blocks and estimates for a fixed time budget; the record keeps the call
  count, the units of work and the total time next to the per-unit figure;
* **the push_block fixed-cost fit** -- ``push_block`` time per call is
  fitted by least squares to ``a + b * flow_runs + c * rows`` over blocks of
  8, 64 and 1,000 synthetic flows at several block sizes;
* **stage reconciliation** -- one obs-off and one obs-on run of the
  workload.  The obs-on registry's ``qoe_stage_seconds`` sums become
  ``stage.<name>_s`` as recorded, each inclusive of the spans nested in it.
  The parent process's top-level stages (see :data:`TOP_LEVEL`), whose
  spans never overlap, plus ``stage.unattributed_s`` add up to the run's
  wall time; the workers' top-level stages plus
  ``stage.worker_unattributed_s`` add up to ``n_workers`` times it.  Both
  remainders must come out non-negative, which only holds while the
  top-level spans really are disjoint.

A metric that does not apply to a workload (no pcap on a synthetic input,
no model on a heuristic pipeline, no flat encoding for RTP columns) reads 0 and is listed under ``not_applicable`` in the record.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import statistics
from contextlib import ExitStack
from time import perf_counter

import numpy as np

from repro.cluster.fanin import FanInSink
from repro.cluster.router import FlowShardRouter
from repro.cluster.shm import BlockRing
from repro.core.frame_assembly import FrameAssembler
from repro.core.pipeline import QoEPipeline
from repro.core.streaming import StreamingQoEPipeline
from repro.net.block import PacketBlock
from repro.net.estwire import EstimateBatch
from repro.net.packet import RTP_FIXED_HEADER_LEN
from repro.obs.config import ObsConfig
from repro.obs.registry import STAGE_HISTOGRAM
from repro.sinks.base import CollectorSink
from repro.sinks.files import JSONLinesSink
from repro.sources.base import PcapSource

from perfbench.inputs import WorkloadInput, synthetic_capture
from perfbench.measure import PROBE_STREAM_S, ReplaySource, n_workers, run_once
from perfbench.oracle import reference
from perfbench.spec import with_units

#: Every ``qoe_stage_seconds`` stage the program records.
STAGES = (
    "source_read", "router_partition", "forward_push", "push_block", "push_chunk",
    "frame_assembly", "predict", "ring_return", "fanin_release", "sink_emit",
    "migration_cut",
)
#: Per process side, the stages whose spans never overlap one another.
#: The others nest in them or run between them: ``frame_assembly`` inside
#: ``push_block``; ``predict`` inside ``push_block`` or in the
#: end-of-capture flush; ``fanin_release`` (and the ``sink_emit`` inside
#: it) in the back-pressure pumping of ``forward_push`` and
#: ``migration_cut``, or between blocks and in the drain.  Time outside the
#: top-level spans is the side's unattributed time.
TOP_LEVEL = {
    "parent": ("source_read", "router_partition", "forward_push", "migration_cut"),
    "worker": ("push_block", "push_chunk", "ring_return"),
}

#: Seconds each microbenchmark repeats its call.
MICRO_BUDGET_S = 0.25
#: Estimates per batch in the estimate-codec and fan-in microbenchmarks.
ESTIMATE_BATCH = 64
#: Blocks the pcap-read microbenchmark decodes per call.
PCAP_BLOCKS = 100
FIT_FLOWS = (8, 64, 1000)
FIT_BLOCK_SIZES = (64, 128, 512, 1024)
FIT_MIN_BLOCKS = 12
FIT_MAX_BLOCKS = 80
FIT_POINT_BUDGET_S = 0.2


def measure_layers(data: WorkloadInput) -> dict:
    workload, seed = data.workload, data.seed
    ref = reference(data)
    run_once(data, None, until_s=PROBE_STREAM_S)  # the warm-up
    plain = run_once(data, ref)
    traced = run_once(data, ref, obs=ObsConfig(enabled=True), keep_items=True)
    blocks = list(ReplaySource(data).blocks(workload.chunk_size))
    items = traced.items

    metrics: dict[str, float] = {}
    calls: dict[str, dict] = {}
    not_applicable: list[str] = []
    metrics.update(push_block_fit(seed))
    metrics.update(flow_shape(blocks))
    with ExitStack() as stack:
        # name -> (seconds-to-unit scale, factory of a bench returning units done)
        micro = {
            "core.frame_assembly.push_rows_us_run8": (1e6, lambda: _assembler(seed, 8, per_row=False)),
            "core.frame_assembly.push_rows_ns_per_row_run1024": (1e9, lambda: _assembler(seed, 1024, per_row=True)),
            "net.block.encode_us": (1e6, lambda: _encode(blocks)),
            "net.block.decode_us": (1e6, lambda: _decode(blocks)),
            "cluster.router.partition_us": (1e6, lambda: _partition(blocks)),
            "cluster.shm.slot_roundtrip_us": (1e6, lambda: _slot_roundtrip(blocks, stack)),
            "core.estimators.predict_many_us_per_row": (1e6, lambda: _predict(data)),
            "sources.pcap_read_us_per_block": (1e6, lambda: _pcap_read(data)),
            "net.estwire.encode_us_per_estimate": (1e6, lambda: _est_encode(items)),
            "net.estwire.decode_us_per_estimate": (1e6, lambda: _est_decode(items)),
            "cluster.fanin.accept_us_per_estimate": (1e6, lambda: _fanin(items)),
            "sinks.jsonl_emit_us_per_estimate": (1e6, lambda: _jsonl(items, data.cache_dir, stack)),
        }
        for name, (scale, make) in micro.items():
            bench = make()
            if bench is None:
                metrics[name] = 0.0
                not_applicable.append(name)
                continue
            n, total, units = _repeat(bench)
            metrics[name] = total / units * scale
            calls[name] = {"calls": n, "units": units, "seconds": total}
    flat = _wire_blocks(blocks)
    metrics["net.block.bytes_per_row"] = (
        sum(block.byte_size() for block in flat) / sum(len(block) for block in flat) if flat else 0.0
    )
    if not flat:
        not_applicable.append("net.block.bytes_per_row")

    forward = traced.report.transport.get("forward") if traced.report is not None else None
    if forward:
        ring, fallbacks = forward["segments_written"], forward["queue_fallbacks"]
        metrics["cluster.forward_ring_share"] = ring / (ring + fallbacks) if ring + fallbacks else 0.0
        metrics["cluster.queue_fallbacks"] = float(fallbacks)
    else:
        metrics["cluster.forward_ring_share"] = 0.0
        metrics["cluster.queue_fallbacks"] = 0.0
        not_applicable += ["cluster.forward_ring_share", "cluster.queue_fallbacks"]
    metrics.update(stage_table(traced))
    metrics["obs.overhead_ratio"] = traced.wall_s / plain.wall_s

    failed = plain.failed + traced.failed
    return {
        "workload": workload.name,
        "mode": "per_layer",
        "correct": failed == 0 and plain.error is None and traced.error is None,
        "attempted": plain.n_expected + traced.n_expected,
        "failed": failed,
        "metrics": with_units("per_layer", metrics),
        "calls": calls,
        "not_applicable": not_applicable,
        "wall_s": {"obs_off": plain.wall_s, "obs_on": traced.wall_s},
    }


def stage_table(traced) -> dict[str, float]:
    """Inclusive seconds per stage, plus the unattributed remainder per process side."""
    histograms = traced.report.metrics.get("histograms", {}) if traced.report is not None else {}
    table = {
        f"stage.{stage}_s": histograms.get(f'{STAGE_HISTOGRAM}{{stage="{stage}"}}', {}).get("sum", 0.0)
        for stage in STAGES
    }

    def top_level(side: str) -> float:
        return sum(table[f"stage.{stage}_s"] for stage in TOP_LEVEL[side])

    table["stage.unattributed_s"] = traced.wall_s - top_level("parent")
    table["stage.worker_unattributed_s"] = n_workers() * traced.wall_s - top_level("worker")
    return table


# -- push_block fixed-cost fit ----------------------------------------------------


def push_block_fit(seed: int) -> dict[str, float]:
    """Least-squares ``push_block`` cost: per block, per flow run, per row.

    One point per (flows, block size): the median call time over up to
    ``FIT_MAX_BLOCKS`` blocks, or as many as ``FIT_POINT_BUDGET_S`` allows
    (at least ``FIT_MIN_BLOCKS``).  Each equation is divided by its own
    time, so the fit minimises relative error and the small blocks, where
    the fixed cost shows, weigh as much as the large ones.
    """
    points = []
    for n_flows in FIT_FLOWS:
        for block_size in FIT_BLOCK_SIZES:
            # Enough stream time that every flow is live before timing starts.
            warm_rows = n_flows * 25
            duration = (warm_rows + block_size * FIT_MAX_BLOCKS) / (n_flows * 70) + 2
            block, _ = synthetic_capture(seed + n_flows, n_flows, duration)
            engine = StreamingQoEPipeline(QoEPipeline.for_vca("teams"))
            engine.push_block(block[:warm_rows])
            times, runs, rows = [], [], []
            started = perf_counter()
            for i in range(FIT_MAX_BLOCKS):
                if i >= FIT_MIN_BLOCKS and perf_counter() - started > FIT_POINT_BUDGET_S:
                    break
                part = block[warm_rows + i * block_size : warm_rows + (i + 1) * block_size]
                runs.append(len(np.unique(part.flow_codes)))
                rows.append(len(part))
                call = perf_counter()
                engine.push_block(part)
                times.append(perf_counter() - call)
            points.append((1.0, statistics.fmean(runs), statistics.fmean(rows), statistics.median(times)))
    samples = np.asarray(points)
    weights = 1.0 / samples[:, 3]
    coef, *_ = np.linalg.lstsq(samples[:, :3] * weights[:, None], np.ones(len(samples)), rcond=None)
    return {
        "core.streaming.push_block_fixed_us": coef[0] * 1e6,
        "core.streaming.flow_run_us": coef[1] * 1e6,
        "core.streaming.row_ns": coef[2] * 1e9,
    }


def flow_shape(blocks: list[PacketBlock]) -> dict[str, float]:
    """Rows per flow run and flow runs per block, as the shard engines receive them."""
    router = FlowShardRouter(n_workers())
    blocks = [sub for block in blocks for _, sub in router.partition_block(block)]
    runs = [len(np.unique(block.flow_codes)) for block in blocks if len(block)]
    return {
        "core.streaming.rows_per_flow_run": sum(len(block) for block in blocks) / sum(runs),
        "core.streaming.flow_runs_per_block": statistics.fmean(runs),
    }


# -- microbenchmarks ----------------------------------------------------------------


def _repeat(bench) -> tuple[int, float, float]:
    """Run ``bench()`` (returns units of work done) until the budget is spent."""
    calls, units, started = 0, 0.0, perf_counter()
    while perf_counter() - started < MICRO_BUDGET_S or calls == 0:
        units += bench()
        calls += 1
    return calls, perf_counter() - started, units


def _assembler(seed: int, run: int, per_row: bool):
    """``FrameAssembler.push_rows`` over consecutive ``run``-row runs of one flow."""
    pipeline = QoEPipeline.for_vca("teams")
    delta, lookback = pipeline.config.resolve_assembly(pipeline.profile)
    block, _ = synthetic_capture(seed, 1, 600)
    sizes, timestamps = block.sizes, block.timestamps
    media = np.maximum(sizes - RTP_FIXED_HEADER_LEN, 0)
    starts = itertools.cycle(range(0, len(sizes) - run + 1, run))
    assembler = None

    def bench():
        nonlocal assembler
        lo = next(starts)
        if lo == 0:  # the capture starts over: so does the assembler's state
            assembler = FrameAssembler(delta_size=delta, lookback=lookback)
        assembler.push_rows(sizes[lo : lo + run], media[lo : lo + run], timestamps[lo : lo + run])
        return run if per_row else 1

    return bench


def _wire_blocks(blocks) -> list[PacketBlock]:
    """The flat-encodable blocks, compacted as the router ships them."""
    flat = []
    for block in blocks:
        try:
            block.byte_size()
        except ValueError:
            continue  # RTP object columns have no flat encoding
        flat.append(block.compact())
    return flat


def _encode(blocks):
    flat = _wire_blocks(blocks)
    if not flat:
        return None
    buf = memoryview(bytearray(max(block.byte_size() for block in flat)))
    cycle = itertools.cycle(flat)

    def bench():
        next(cycle).write_into(buf)
        return 1

    return bench


def _decode(blocks):
    encoded = []
    for block in _wire_blocks(blocks):
        buf = bytearray(block.byte_size())
        block.write_into(memoryview(buf))
        encoded.append(memoryview(buf))
    if not encoded:
        return None
    cycle = itertools.cycle(encoded)

    def bench():
        PacketBlock.read_from(next(cycle))
        return 1

    return bench


def _partition(blocks):
    router = FlowShardRouter(n_workers())
    cycle = itertools.cycle(blocks)

    def bench():
        router.partition_block(next(cycle))
        return 1

    return bench


def _slot_roundtrip(blocks, stack: ExitStack):
    """Encode a block into a ring slot, decode it from a second mapping, release."""
    flat = _wire_blocks(blocks)
    if not flat:
        return None
    producer = BlockRing.create(multiprocessing.get_context("spawn"), 2)
    stack.callback(producer.unlink)
    stack.callback(producer.close)
    consumer = producer.handle().attach()
    stack.callback(consumer.close)
    cycle = itertools.cycle(flat)

    def bench():
        if not producer.try_push(next(cycle), timeout=1.0):
            raise RuntimeError("slot round trip: ring unexpectedly full")
        block = consumer.pop(timeout=1.0)
        if block is None:
            raise RuntimeError("slot round trip: pushed slot not visible")
        len(block)
        block = None  # the slot's views must be gone before release
        consumer.release()
        return 1

    return bench


def _predict(data: WorkloadInput):
    if data.model_path is None:
        return None
    ml = data.pipeline().ml
    rng = np.random.default_rng(data.seed)
    rows = list(rng.uniform(0.0, 1500.0, size=(256, len(ml.feature_names))))
    starts = [float(i) for i in range(len(rows))]

    def bench():
        ml.predict_many(rows, starts)
        return len(rows)

    return bench


def _pcap_read(data: WorkloadInput):
    if data.pcap_path is None:
        return None

    def bench():
        blocks = PcapSource(data.pcap_path).blocks(data.workload.chunk_size)
        return sum(1 for _ in itertools.islice(blocks, PCAP_BLOCKS))

    return bench


def _estimate_batches(items) -> list:
    return [items[lo : lo + ESTIMATE_BATCH] for lo in range(0, len(items), ESTIMATE_BATCH)]


def _est_encode(items):
    cycle = itertools.cycle(_estimate_batches(items))
    buf = memoryview(bytearray(1 << 20))

    def bench():
        batch = next(cycle)
        EstimateBatch.from_estimates(batch, 0.0).write_into(buf)
        return len(batch)

    return bench


def _est_decode(items):
    encoded = []
    for batch in _estimate_batches(items):
        wire = EstimateBatch.from_estimates(batch, 0.0)
        buf = bytearray(wire.byte_size())
        wire.write_into(memoryview(buf))
        encoded.append((memoryview(buf), len(batch)))
    cycle = itertools.cycle(encoded)

    def bench():
        buf, n = next(cycle)
        EstimateBatch.read_from(buf).to_estimates()
        return n

    return bench


def _fanin(items):
    batches = _estimate_batches(items)

    def bench():
        fan_in = FanInSink(CollectorSink(), n_shards=1)
        for batch in batches:
            fan_in.accept(0, batch, batch[-1].estimate.window_start)
        fan_in.close()
        return len(items)

    return bench


def _jsonl(items, cache_dir, stack: ExitStack):
    path = cache_dir / f"micro-{os.getpid()}.jsonl"
    stack.callback(path.unlink, missing_ok=True)

    def bench():
        sink = JSONLinesSink(path)
        for item in items:
            sink.emit(item)
        sink.close()
        return len(items)

    return bench
