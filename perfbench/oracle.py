"""The correctness oracle: a reference estimate stream per workload and seed.

The reference comes from the per-packet :class:`~repro.monitor.QoEMonitor`
(the ``push`` path, the engine's original and simplest execution mode) over
the same input.  Sharded monitors deliver estimates in fan-in order
``(window_start, flow)``; their reference goes through a
:class:`~repro.cluster.fanin.FanInSink`, which sorts a single stream into
that same order.  The reference is cached per seed as one canonical line
per estimate plus its SHA-256 digest; a measured run matches when its own
digest is equal, and otherwise is compared position by position.  The cache
is keyed by workload, size, seed and a digest of the program's and the
benchmark's source (:func:`perfbench.inputs.source_digest`), so the
reference always comes from the code being measured.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from repro.cluster.fanin import FanInSink
from repro.monitor import QoEMonitor
from repro.net.packet import IPv4Header, Packet, UDPHeader
from repro.sinks.base import CollectorSink
from repro.sources.base import IteratorSource, PcapSource

from perfbench.inputs import WORKLOADS, Workload, WorkloadInput, cache_dir_of, open_input


def canonical(item) -> str:
    """One estimate as an exact text line (floats in hex, so bit-exact)."""
    flow = item.flow
    key = "-" if flow is None else f"{flow.src}:{flow.src_port}>{flow.dst}:{flow.dst_port}/{flow.protocol}"
    est = item.estimate
    return (
        f"{key} {float(est.window_start).hex()} {float(est.frame_rate).hex()} "
        f"{float(est.bitrate_kbps).hex()} {float(est.frame_jitter_ms).hex()} "
        f"{est.resolution} {est.source}"
    )


def digest(lines: list[str]) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode())
        sha.update(b"\n")
    return sha.hexdigest()


class Reference:
    """The expected ordered stream of one workload input."""

    def __init__(self, lines: list[str]) -> None:
        self.lines = lines
        self.digest = digest(lines)

    def __len__(self) -> int:
        return len(self.lines)

    def count_failed(self, lines: list[str]) -> int:
        """Expected estimates that are missing, extra, or differ in value or position."""
        if digest(lines) == self.digest:
            return 0
        expected = self.lines
        common = min(len(expected), len(lines))
        failed = sum(1 for i in range(common) if expected[i] != lines[i])
        return failed + abs(len(expected) - len(lines))


def prepare(workload: Workload, seed: int) -> None:
    """Fill the seed's input and reference cache in a child interpreter.

    Simulating a capture or running the per-packet reference allocates
    hundreds of thousands of Python objects; done in the measuring process,
    the heap they leave behind would inflate ``peak_rss_mb`` on cold seeds
    only.  A plain subprocess (not ``multiprocessing``) starts no resource
    tracker that would outlive it as a child of this process.  The
    reference digest is written last, so its presence means the cache is
    complete.
    """
    if (cache_dir_of(workload, seed) / "reference.sha256").exists():
        return
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root), str(root / "src"))))
    subprocess.run(
        [sys.executable, "-m", "perfbench.oracle", workload.name, str(seed)], cwd=root, env=env, check=True
    )


def reference(data: WorkloadInput) -> Reference:
    """Load the cached reference of ``data``, computing it on first use."""
    path = data.cache_dir / "reference.txt"
    digest_path = data.cache_dir / "reference.sha256"
    if path.exists() and digest_path.exists():
        lines = path.read_text().splitlines()
        ref = Reference(lines)
        if ref.digest == digest_path.read_text().strip():
            return ref
    ref = Reference(compute_reference(data))
    _write(path, "".join(line + "\n" for line in ref.lines))
    _write(digest_path, ref.digest + "\n")
    return ref


def compute_reference(data: WorkloadInput) -> list[str]:
    """Run the per-packet monitor over the input and canonicalize its output."""
    collector = CollectorSink()
    sink = FanInSink(collector)
    if data.pcap_path is not None:
        source = PcapSource(data.pcap_path)
    else:
        source = IteratorSource(_packets(data.block))
    QoEMonitor(data.pipeline(), source, [sink]).run()
    return [canonical(item) for item in collector.items]


def _packets(block):
    """The block's rows as ``Packet`` objects, built straight from its columns.

    Rows with equal header fields share one (frozen) header pair, which
    makes this several times cheaper than building every header anew.
    """
    headers: dict[tuple, tuple[IPv4Header, UDPHeader]] = {}
    rows = zip(
        block.timestamps.tolist(), block.flow_codes.tolist(), block.sizes.tolist(),
        block.total_lengths.tolist(), block.udp_lengths.tolist(), block.ttls.tolist(),
    )
    for timestamp, code, size, total_length, udp_length, ttl in rows:
        key = (code, total_length, udp_length, ttl)
        pair = headers.get(key)
        if pair is None:
            flow = block.flows[code]
            pair = headers[key] = (
                IPv4Header(src=flow.src, dst=flow.dst, ttl=ttl, protocol=flow.protocol, total_length=total_length),
                UDPHeader(src_port=flow.src_port, dst_port=flow.dst_port, length=udp_length),
            )
        yield Packet(timestamp=timestamp, ip=pair[0], udp=pair[1], payload_size=size)


def _write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


if __name__ == "__main__":
    # python -m perfbench.oracle <workload> <seed>: what prepare() runs.
    with open_input(WORKLOADS[sys.argv[1]], int(sys.argv[2])) as data:
        reference(data)
