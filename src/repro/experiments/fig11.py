"""Figure 11 — intra-enclave (MEE-protected outer-enclave ring) vs
enclave-to-enclave AES-GCM communication throughput.

Sweeps chunk size × total communication footprint.  Expected shape
(paper §VI-C):

* the ring ("MEE") beats AES-GCM ("GCM") everywhere, by the largest
  factor (~30x in the paper) at small chunk sizes;
* the gap is widest while the footprint fits the LLC — the ring then
  never touches the MEE at all, while GCM still pays per byte ("AES-GCM
  needs to perform encryption even if the footprint size fits in the
  cache");
* large chunks amortize GCM's fixed costs, shrinking (not closing) the
  gap.

Scaling note: the paper's machine has an 8 MB LLC and sweeps footprints
around it.  Moving 2× a 64 MB footprint through a pure-Python simulator
is infeasible, so this harness scales the *machine* instead: the
simulated LLC defaults to 512 KiB and the footprints to (LLC/8, LLC,
8×LLC) — the same ratios to the cache boundary as the paper's 1/8/64 MB
against 8 MB.  Cache residency is a ratio property, so the crossover
shape is preserved exactly.

Execution note: every (footprint, chunk, channel) leg runs on its own
freshly built host, so legs share no simulator state and their
simulated results are independent of execution order.  The legs run
serially in this process: parallelism belongs to the runner
(``python -m repro.runner -j N``), whose workers are daemonic and may
not spawn processes of their own.
"""

from __future__ import annotations

from repro.apps.ports.fastcomm import (GcmChannelDeployment,
                                       NestedChannelDeployment)
from repro.experiments.common import nested_host
from repro.experiments.report import ExperimentResult

LLC_BYTES = 512 << 10
CHUNKS = (64, 256, 1024, 8192, 65536)
#: Footprints relative to the LLC: comfortably-resident, boundary, 8x.
FOOTPRINT_RATIOS = (0.125, 1.0, 8.0)


def _leg_ns(kind: str, footprint: int, chunk: int, total: int,
            llc_bytes: int) -> float:
    """Run one (channel kind, footprint, chunk, total, llc) leg on a
    fresh host and return the simulated ns it took."""
    host = nested_host(llc_bytes=llc_bytes)
    if kind == "mee":
        dep = NestedChannelDeployment(host, footprint_bytes=footprint)
    else:
        dep = GcmChannelDeployment(host, footprint_bytes=footprint)
    return dep.transfer(chunk, total)


def run_fig11(chunks=CHUNKS, footprint_ratios=FOOTPRINT_RATIOS,
              llc_bytes: int = LLC_BYTES) -> ExperimentResult:
    result = ExperimentResult(
        "Figure 11",
        "Intra-enclave (MEE) vs enclave-to-enclave AES-GCM channel "
        "throughput",
        ("Footprint", "Chunk", "MEE (MB/s)", "GCM (MB/s)", "Speedup"))
    for ratio in footprint_ratios:
        footprint = int(llc_bytes * ratio)
        total = max(2 * footprint, 128 << 10)
        label = f"{ratio:g}x LLC ({footprint >> 10} KiB)"

        def to_mbps(ns: float) -> float:
            return (total / (1 << 20)) / (ns / 1e9)

        for chunk in chunks:
            if chunk > footprint // 4:
                continue
            mee_ns = _leg_ns("mee", footprint, chunk, total, llc_bytes)
            gcm_ns = _leg_ns("gcm", footprint, chunk, total, llc_bytes)
            result.add(label, chunk, to_mbps(mee_ns), to_mbps(gcm_ns),
                       gcm_ns / mee_ns)
    speedups = [row[4] for row in result.rows]
    result.metric("max_speedup", max(speedups))
    result.metric("min_speedup", min(speedups))
    result.note(f"machine LLC scaled to {llc_bytes >> 10} KiB; "
                f"footprints keep the paper's ratios to the cache "
                f"boundary (1/8, 1, 8 MB-per-MB equivalents)")
    result.note("paper: MEE wins everywhere, up to 29.9x at small "
                "chunks; the gap is widest while the footprint is "
                "cache-resident")
    return result
