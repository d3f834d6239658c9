"""Seeded workload inputs, built once per seed outside every timed region.

Synthetic flows are generated directly as :class:`~repro.net.block.PacketBlock`
columns (no ``Packet`` objects: a harness holding hundreds of thousands of
them adds garbage-collector noise to every timed run), together with the
generator's true per-window frame counts.  The simulated capture is a pcap
of concurrent ``simulate_call`` teams calls under lab schedules, cached on
disk per seed under ``.perfbench_cache/`` at the repository root together
with the reference digests of :mod:`perfbench.oracle`; the forest pipeline
it is scored with is trained once per cache on a fixed lab dataset.  The
cache is keyed by a digest of the program's and the benchmark's source, so
a change to either rebuilds the capture, the model and the reference.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path

import numpy as np

from repro.core.pipeline import QoEPipeline
from repro.net.block import PacketBlock
from repro.net.flows import FlowKey

ROOT = Path(__file__).resolve().parent.parent
#: Per-seed input and reference cache, inside the checkout the benchmark runs in.
CACHE_ROOT = ROOT / ".perfbench_cache"

#: Seed of the lab environment shared by every workload seed: the NDT
#: corpus the simulated calls replay and the dataset the model learns from.
LAB_SEED = 7

#: Server side of every synthetic flow (the VCA relay a vantage point sees).
_SERVER_IP = "192.0.2.10"
_SERVER_PORT = 3478
_UDP = 17
_IP_UDP_HEADER_BYTES = 28


@dataclass(frozen=True)
class Workload:
    """One named workload: what the sharded monitor runs and how big the input is."""

    name: str
    #: Synthetic flows (0 for the simulated capture).
    n_flows: int = 0
    #: Stream seconds per synthetic flow.
    duration_s: float = 0
    #: Simulated calls and their length (simulated capture only).
    n_calls: int = 0
    call_s: int = 0
    #: Rows per block the monitor pulls: ``ShardedQoEMonitor``'s default
    #: ``chunk_size``.
    chunk_size: int = 256

    @property
    def trained(self) -> bool:
        return self.n_calls > 0


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # 900k rows, about five times what the forward ring buffers, so the
        # middle half of the pulls is paced by back-pressure.
        Workload(name="sharded-8-flows", n_flows=8, duration_s=1500),
        Workload(name="sharded-sim-pcap", n_calls=20, call_s=40),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload at a size that runs end to end in seconds.

    The synthetic input stays longer than the rings buffer, so some
    estimates still arrive while the source is being read.
    """
    if workload.trained:
        return replace(workload, n_calls=2, call_s=8)
    return replace(workload, duration_s=400)


@dataclass
class WorkloadInput:
    """Everything one workload run consumes, built from one seed."""

    workload: Workload
    seed: int
    cache_dir: Path
    #: The whole capture as one block (synthetic workloads).
    block: PacketBlock | None = None
    #: The on-disk capture and the saved model (simulated workload).
    pcap_path: Path | None = None
    model_path: Path | None = None
    #: True frames per 1 s window, per flow (index = window start second).
    truth: dict[FlowKey, np.ndarray] = field(default_factory=dict)
    n_packets: int = 0

    def release(self) -> None:
        """Remove this process's expanded copy of the capture."""
        if self.pcap_path is not None:
            self.pcap_path.unlink(missing_ok=True)

    def pipeline(self) -> QoEPipeline:
        """A fresh pipeline for one run (loaded from disk when trained)."""
        if self.model_path is not None:
            return QoEPipeline.load(self.model_path)
        return QoEPipeline.for_vca("teams")


@contextmanager
def open_input(workload: Workload, seed: int):
    """The inputs of ``workload`` for ``seed``, released on exit."""
    data = _build_input(workload, seed)
    try:
        yield data
    finally:
        data.release()


@cache
def source_digest() -> str:
    """SHA-256 over the program's source tree and the benchmark's own files.

    Both decide what the cache holds: the program computes the reference
    and trains the model, the benchmark generates the inputs.
    """
    sha = hashlib.sha256()
    for tree in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(tree.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                sha.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
                sha.update(path.read_bytes() + b"\0")
    return sha.hexdigest()


def cache_dir_of(workload: Workload, seed: int) -> Path:
    """Where the inputs and reference of ``workload`` at ``seed`` are cached."""
    size_tag = f"{workload.n_flows}x{workload.duration_s}" if not workload.trained else (
        f"{workload.n_calls}x{workload.call_s}"
    )
    return CACHE_ROOT / source_digest()[:16] / workload.name / f"seed-{seed}-{size_tag}"


def _build_input(workload: Workload, seed: int) -> WorkloadInput:
    """Generate (or load from the per-seed cache) the inputs of ``workload``."""
    cache_dir = cache_dir_of(workload, seed)
    cache_dir.mkdir(parents=True, exist_ok=True)
    if workload.trained:
        return _simulated_input(workload, seed, cache_dir)
    block, truth = synthetic_capture(seed, workload.n_flows, workload.duration_s)
    return WorkloadInput(
        workload=workload, seed=seed, cache_dir=cache_dir, block=block, truth=truth,
        n_packets=len(block),
    )


# -- synthetic flows -------------------------------------------------------------


def synthetic_capture(
    seed: int, n_flows: int, duration_s: float
) -> tuple[PacketBlock, dict[FlowKey, np.ndarray]]:
    """``n_flows`` VCA-like downlink flows as one timestamp-ordered block.

    Each flow sends about 25 frames per second (frame gaps ~ N(40 ms, 4 ms)),
    every frame a burst of 2-4 equal-size packets 0.8 ms apart.  Flow and
    address codes are interned in first-seen order, exactly as
    :meth:`PacketBlock.from_packets` would intern them.  Returns the block
    and, per flow, the true number of frames starting in each 1 s window.
    """
    rng = np.random.default_rng(seed)
    max_frames = int(duration_s / 0.028) + 2
    first = rng.uniform(0.0, 0.04, n_flows)
    gaps = rng.normal(0.04, 0.004, (n_flows, max_frames))
    frame_t = first[:, None] + np.concatenate(
        (np.zeros((n_flows, 1)), np.cumsum(gaps[:, :-1], axis=1)), axis=1
    )
    frame_size = rng.integers(700, 1200, (n_flows, max_frames))
    frame_packets = rng.integers(2, 5, (n_flows, max_frames))
    flow_of_frame, frame_index = np.nonzero(frame_t < duration_s)
    start = frame_t[flow_of_frame, frame_index]
    per_frame = frame_packets[flow_of_frame, frame_index]
    packet_frame = np.repeat(np.arange(len(start)), per_frame)
    offset = np.arange(len(packet_frame)) - np.repeat(np.cumsum(per_frame) - per_frame, per_frame)
    timestamps = start[packet_frame] + offset * 0.0008
    order = np.argsort(timestamps, kind="stable")
    timestamps = timestamps[order]
    flow_of_packet = flow_of_frame[packet_frame][order]
    sizes = frame_size[flow_of_frame, frame_index][packet_frame][order].astype("<i8")

    # First-seen interning: flow code = rank of the flow's first packet.
    first_seen = np.full(n_flows, len(order))
    np.minimum.at(first_seen, flow_of_packet, np.arange(len(order)))
    code_of_flow = np.empty(n_flows, dtype="<i4")
    code_of_flow[np.argsort(first_seen, kind="stable")] = np.arange(n_flows, dtype="<i4")
    clients = [f"10.{1 + i // 250}.{i % 250}.1" for i in range(n_flows)]
    by_code = np.argsort(code_of_flow)
    flows = tuple(
        FlowKey(src=_SERVER_IP, src_port=_SERVER_PORT, dst=clients[i], dst_port=50000 + i, protocol=_UDP)
        for i in by_code.tolist()
    )
    flow_codes = code_of_flow[flow_of_packet]
    n = len(timestamps)
    block = PacketBlock(
        timestamps=timestamps.astype("<f8"),
        sizes=sizes,
        src_codes=np.zeros(n, dtype="<i4"),
        dst_codes=(flow_codes + 1).astype("<i4"),
        src_ports=np.full(n, _SERVER_PORT, dtype="<i4"),
        dst_ports=(50000 + flow_of_packet).astype("<i4"),
        protocols=np.full(n, _UDP, dtype="<i2"),
        ttls=np.full(n, 64, dtype="<i2"),
        total_lengths=(sizes + _IP_UDP_HEADER_BYTES).astype("<i4"),
        udp_lengths=(sizes + 8).astype("<i4"),
        flow_codes=flow_codes,
        addresses=(_SERVER_IP, *(clients[i] for i in by_code.tolist())),
        flows=flows,
    )
    n_windows = int(np.ceil(duration_s))
    windows = np.bincount(
        flow_of_frame * n_windows + start.astype(np.int64), minlength=n_flows * n_windows
    ).reshape(n_flows, n_windows)
    truth = {
        FlowKey(src=_SERVER_IP, src_port=_SERVER_PORT, dst=clients[i], dst_port=50000 + i, protocol=_UDP):
        windows[i].astype(float)
        for i in range(n_flows)
    }
    return block, truth


# -- simulated teams capture + trained model --------------------------------------


def _simulated_input(workload: Workload, seed: int, cache_dir: Path) -> WorkloadInput:
    # The pcap is mostly zero-filled payload: it is cached gzipped and
    # expanded per process, and the expanded copy is removed on release.
    pcap_path = cache_dir / f"capture-{os.getpid()}.pcap"
    packed_path = cache_dir / "capture.pcap.gz"
    truth_path = cache_dir / "truth.json"
    if not truth_path.exists():
        _build_capture(workload, seed, pcap_path, truth_path)
    else:
        with gzip.open(packed_path, "rb") as packed, open(pcap_path, "wb") as plain:
            shutil.copyfileobj(packed, plain, 1 << 20)
    saved = json.loads(truth_path.read_text())
    truth = {FlowKey(*row["flow"]): np.asarray(row["frames"], dtype=float) for row in saved["flows"]}
    return WorkloadInput(
        workload=workload, seed=seed, cache_dir=cache_dir, pcap_path=pcap_path,
        model_path=_lab_model(cache_dir.parent), truth=truth, n_packets=saved["n_packets"],
    )


def _lab_model(cache_dir: Path) -> Path:
    """The deployed teams forest, trained once on the lab dataset of ``LAB_SEED``.

    The model is the program's configuration, not the traffic: training it
    per workload seed made ``fps_mae`` swing by a third between seeds.
    """
    from repro.datasets.lab import LabDatasetConfig, build_lab_dataset

    path = cache_dir / "model.json"
    if not path.exists():
        lab = build_lab_dataset(
            LabDatasetConfig(calls_per_vca=8, call_duration_s=30, vcas=("teams",), seed=LAB_SEED)
        )
        _atomic(path, QoEPipeline.for_vca("teams").train(lab["teams"]).save)
    return path


def _build_capture(workload: Workload, seed: int, pcap_path: Path, truth_path: Path) -> None:
    """Simulate the calls, write the pcap (plain and gzipped) and the truth.

    Call ``i`` replays test ``i`` of a fixed NDT corpus, the lab
    conditions; the seed draws each second's throughput around the test's
    mean and seeds the calls.  Fixing the tests keeps the capture's size and
    difficulty alike across seeds.  The truth file is written last
    (atomically), so it marks a complete cache entry.
    """
    from repro.net.pcap import write_pcap
    from repro.netem.ndt import generate_ndt_corpus, schedule_from_ndt
    from repro.webrtc.session import SessionConfig, simulate_call

    corpus = generate_ndt_corpus(workload.n_calls, rng=np.random.default_rng(LAB_SEED), duration_s=10)
    rng = np.random.default_rng(seed)
    packets = []
    flows = []
    for i, test in enumerate(corpus):
        schedule = schedule_from_ndt(test, duration_s=workload.call_s, rng=rng)
        config = SessionConfig(
            vca="teams",
            duration_s=workload.call_s,
            seed=int(rng.integers(0, 2**31 - 1)),
            call_id=f"bench-{i:03d}",
            client_ip=f"10.2.{i // 250}.{i % 250 + 1}",
            client_port=40000 + i,
        )
        call = simulate_call(config, schedule)
        packets.extend(call.trace)
        flow = (config.remote_ip, config.remote_port, config.client_ip, config.client_port, _UDP)
        frames = np.zeros(workload.call_s)
        for row in call.ground_truth:
            second = int(row.second - call.ground_truth.start_time)
            if 0 <= second < workload.call_s:
                frames[second] = row.frames_received
        flows.append({"flow": list(flow), "frames": frames.tolist()})
    packets.sort(key=lambda packet: packet.timestamp)
    write_pcap(pcap_path, packets)
    with open(pcap_path, "rb") as plain:
        _atomic(pcap_path.with_name("capture.pcap.gz"), lambda tmp: _gzip(plain, tmp))
    _atomic(
        truth_path,
        lambda tmp: Path(tmp).write_text(json.dumps({"n_packets": len(packets), "flows": flows})),
    )


def _gzip(plain, path: Path) -> None:
    with gzip.open(path, "wb", compresslevel=1) as packed:
        shutil.copyfileobj(plain, packed, 1 << 20)


def _atomic(path: Path, write) -> None:
    """Write ``path`` through a temporary sibling and an atomic rename."""
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)
