"""Steady-state benchmark of the QoE monitor.

One command (``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``) runs a named workload through the public
monitor API, checks every run's estimate stream against a per-packet
reference, and prints the end-to-end metrics (``--trace 0``) or the
per-layer table (``--trace 1``).  ``BENCHMARK.json`` at the repository root
names the workloads and metrics.

Modules:

* :mod:`perfbench.inputs` -- seeded workload inputs (columnar synthetic
  flows, a simulated teams pcap cached per seed) and the lab-trained model;
* :mod:`perfbench.oracle` -- the reference estimate stream and the
  bit-for-bit comparison that yields ``failed_share``;
* :mod:`perfbench.measure` -- the closed-loop replay source, the timing
  sink, the RSS sampler and the end-to-end metrics;
* :mod:`perfbench.layers` -- the per-layer table, timed from outside by
  calling each layer's public functions, and the stage reconciliation;
* :mod:`perfbench.spec` -- what ``BENCHMARK.json`` declares (names, units);
* :mod:`perfbench.selfcheck` -- the harness's own checks at tiny size.
"""
