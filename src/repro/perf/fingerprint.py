"""Determinism-fingerprint harness for the simulated memory system.

The fast paths (dict-backed LLC sets, aggregated memory-side cost
charging, the per-core TLB fast path, bulk transfers) are only
legal if they change *host* wall-clock and nothing else.  This module
pins that down: a handful of fixed workloads run on fresh machines, and
everything an optimization could corrupt — the simulated clock, every
event counter, the per-event cost breakdown, the MEE integrity-tree
root, and the exact ciphertext a physical DRAM attacker would read — is
folded into one SHA-256 hex fingerprint per workload.
``tests/perf/test_fingerprint.py`` asserts the checked-in golden values
(recorded on the pre-optimization memory system), so any observable
drift fails CI even if every behavioural test still passes.

The workloads deliberately cover the paths the fast-path work touches:
the in-EPC ring channel (LLC + MEE ciphertext), the AES-GCM software
channel (crypto byte-for-byte), EPC eviction under live inner threads
(EWB/ELDB, IPIs, TLB shootdown), a transition storm (EENTER/EEXIT/
NEENTER/NEEXIT/AEX/ERESUME flush discipline, which the TLB fast path
must honour), and a bulk same-mode memcpy through a nested pair
(``bulk_copy``) — the exact multi-page contiguous shape the fast path
fuses into page runs, pinned independently of the Fig. 11 sweep.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.sgx.machine import Machine

_OUTER_EDL = """
enclave {
    trusted {
        public int poke(int offset, int value);
        public int peek(int offset);
        public int storm(int rounds);
        public int interrupted(int offset);
    };
    untrusted {
        void host_log(int value);
    };
};
"""

_INNER_EDL = """
enclave {
    nested_trusted {
        public int inner_sum(int base, int count);
    };
    nested_untrusted {
        int poke(int offset, int value);
    };
};
"""

_BULK_OUTER_EDL = """
enclave {
    trusted {
        public int fill(int offset, int nbytes, int seed);
        public int blast(int src, int dst, int nbytes, int reps);
        public int delegate(int src, int dst, int nbytes);
        public int checksum(int offset, int nbytes);
    };
};
"""

_BULK_INNER_EDL = """
enclave {
    nested_trusted {
        public int inner_blast(int src, int dst, int nbytes);
    };
};
"""


def result_fingerprint(result) -> str:
    """SHA-256 over every value of an experiment result.

    The companion to :func:`machine_fingerprint` one level up: where
    that digests a machine's observables, this digests what a harness
    *reports* — experiment id, title, columns, every typed row cell,
    every headline metric, every note.  Floats are folded in as exact
    ``float.hex`` so two results agree iff they are bit-identical, which
    is what lets :mod:`repro.runner` assert that worker count, retry
    scheduling, and process boundaries never change a result.

    Accepts an :class:`~repro.experiments.report.ExperimentResult` or
    its ``to_dict()`` form (workers ship dicts across the pipe).
    """
    if not isinstance(result, dict):
        result = result.to_dict()

    def fold(value) -> str:
        if isinstance(value, float):
            return value.hex()
        return repr(value)

    h = hashlib.sha256()
    h.update(f"{result['experiment']};{result['title']}".encode())
    for column in result["columns"]:
        h.update(f";col={column}".encode())
    for row in result["rows"]:
        h.update((";row=" + ",".join(fold(v) for v in row)).encode())
    for name in sorted(result.get("metrics", {})):
        h.update(
            f";metric={name}={fold(result['metrics'][name])}".encode())
    for note in result.get("notes", ()):
        h.update(f";note={note}".encode())
    return h.hexdigest()


def machine_fingerprint(machine: Machine) -> str:
    """SHA-256 over every simulated-time observable of ``machine``.

    Folded in, in order: the simulated clock (exact ``float.hex``), all
    event counters, the per-event cost breakdown, the DRAM image digest
    (ciphertext for MEE-protected lines) and the MEE root MAC.
    """
    h = hashlib.sha256()
    h.update(machine.clock.now_ns.hex().encode())
    for name, value in sorted(machine.counters.snapshot().items()):
        h.update(f";{name}={value}".encode())
    for event, ns in sorted(machine.cost.snapshot().items()):
        h.update(f";{event}={ns.hex()}".encode())
    h.update(machine.phys.digest())
    h.update(machine.mee.root_mac())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Fixed workloads
# ---------------------------------------------------------------------------

def _wl_ring_channel() -> Machine:
    """In-EPC ring transfer with real MEE ciphertext, cache-resident and
    cache-thrashing chunk sizes."""
    from repro.apps.ports.fastcomm import NestedChannelDeployment
    from repro.experiments.common import nested_host

    host = nested_host(mee_bytes=True, llc_bytes=64 << 10)
    deployment = NestedChannelDeployment(host, footprint_bytes=16 << 10)
    for chunk in (64, 1024):
        deployment.transfer(chunk, 16 << 10)
    return host.machine


def _wl_gcm_channel() -> Machine:
    """Enclave-to-enclave AES-GCM channel: the genuine sealed path and
    the cost-model path the Fig. 11 sweep uses."""
    from repro.apps.ports.fastcomm import GcmChannelDeployment
    from repro.experiments.common import nested_host

    host = nested_host(llc_bytes=64 << 10)
    deployment = GcmChannelDeployment(host, footprint_bytes=4 << 10)
    deployment.transfer(96, 960, model_only=False)
    deployment.transfer(256, 2048)
    return host.machine


def nested_pair(**config_overrides):
    """An outer enclave with one associated inner, with entries that
    exercise heap traffic, every nested call kind, and AEX/ERESUME.

    Public because the differential fuzzer
    (:mod:`repro.analysis.difffuzz`) drives the same constellation under
    random schedules — ``config_overrides`` pass through to
    :class:`~repro.sgx.constants.MachineConfig` (e.g.
    ``reference_paths=True`` for the reference replay).
    Returns ``(host, outer, inner)``.
    """
    from repro.experiments.common import nested_host
    from repro.sdk import EnclaveBuilder, parse_edl
    from repro.sdk.builder import developer_key
    from repro.sgx import isa
    from repro.sgx.constants import PAGE_SIZE

    def poke(ctx, offset, value):
        ctx.write(ctx.handle.heap.base + offset,
                  value.to_bytes(8, "little"))
        return 0

    def peek(ctx, offset):
        return int.from_bytes(
            ctx.read(ctx.handle.heap.base + offset, 8), "little")

    def inner_sum(ctx, base, count):
        total = 0
        for i in range(count):
            total += int.from_bytes(ctx.read(base + 8 * i, 8), "little")
        # n_ocall back into the outer enclave, then report via ocall-free
        # return (the outer's storm entry ocalls on our behalf).
        ctx.n_ocall("poke", 8 * count, total & 0xFFFF)
        return total

    def storm(ctx, rounds):
        # handles[1] is the inner enclave: load order is fixed below.
        inner = ctx.host.handles[1]
        total = 0
        for _ in range(rounds):
            total += ctx.n_ecall(inner, "inner_sum",
                                 ctx.handle.heap.base, 8)
        ctx.ocall("host_log", total)
        return total

    def interrupted(ctx, offset):
        machine = ctx.host.machine
        secs = ctx.handle.secs
        tcs = ctx.core.tcs_stack[0]
        isa.aex(machine, ctx.core)
        isa.eresume(machine, ctx.core, secs, tcs)
        return peek(ctx, offset)

    host = nested_host(mee_bytes=True, **config_overrides)
    key = developer_key("fingerprint")
    outer_builder = EnclaveBuilder(
        "fp-outer", parse_edl(_OUTER_EDL, name="fp-outer"),
        signing_key=key, heap_bytes=6 * PAGE_SIZE)
    outer_builder.add_entry("poke", poke)
    outer_builder.add_entry("peek", peek)
    outer_builder.add_entry("storm", storm)
    outer_builder.add_entry("interrupted", interrupted)
    outer_probe = outer_builder.build()

    inner_builder = EnclaveBuilder(
        "fp-inner", parse_edl(_INNER_EDL, name="fp-inner"),
        signing_key=key)
    inner_builder.add_entry("inner_sum", inner_sum)
    inner_builder.expect_peer(outer_probe.sigstruct.expected_mrenclave,
                              outer_probe.sigstruct.mrsigner)
    inner_image = inner_builder.build()
    outer_builder.expect_peer(inner_image.sigstruct.expected_mrenclave,
                              inner_image.sigstruct.mrsigner)

    outer = host.load(outer_builder.build())
    inner = host.load(inner_image)
    host.associate(inner, outer)
    host.register_untrusted("host_log", lambda host_, value: None)
    return host, outer, inner


def _wl_transitions() -> Machine:
    """Transition storm: ecall/ocall/n_ecall/n_ocall plus AEX/ERESUME,
    interleaved with heap traffic so the flush discipline is visible."""
    host, outer, inner = nested_pair()
    for i in range(16):
        outer.ecall("poke", 8 * i, i * 0x1111)
    for _ in range(4):
        outer.ecall("storm", 4)
    for i in range(16):
        outer.ecall("interrupted", 8 * i)
    return host.machine


def _wl_eviction_pressure() -> Machine:
    """Outer-enclave pages evicted and reloaded while an inner enclave
    is associated: EWB/ELDB, IPIs, version arrays, shootdown flushes."""
    from repro.sgx.constants import PAGE_SIZE

    host, outer, inner = nested_pair()
    driver = host.kernel.driver
    for page in range(4):
        outer.ecall("poke", page * PAGE_SIZE, 0xBEEF00 + page)
    heap_page0 = outer.heap.base & ~(PAGE_SIZE - 1)
    for page in range(3):
        driver.evict_page(outer.secs, heap_page0 + page * PAGE_SIZE)
    for page in range(3):
        driver.reload_page(outer.secs, heap_page0 + page * PAGE_SIZE)
    for page in range(4):
        assert outer.ecall("peek", page * PAGE_SIZE) == 0xBEEF00 + page
    return host.machine


def bulk_pair(**config_overrides):
    """An outer/inner pair whose entries move *large contiguous spans*:
    the hot shape the TLB fast path fuses into page runs.

    A separate constellation from :func:`nested_pair` on purpose — its
    entries are measured into MRENCLAVE, so extending ``nested_pair``
    would shift every existing golden.  ``config_overrides`` pass
    through to :class:`~repro.sgx.constants.MachineConfig`
    (``reference_paths=True`` replays the same spans page by page
    through ``_translate`` and the per-line memside path).  Returns
    ``(host, outer, inner)``.
    """
    from repro.experiments.common import nested_host
    from repro.sdk import EnclaveBuilder, parse_edl
    from repro.sdk.builder import developer_key
    from repro.sgx.constants import PAGE_SIZE

    def fill(ctx, offset, nbytes, seed):
        pattern = bytes((seed + i) & 0xFF for i in range(256))
        data = (pattern * ((nbytes + 255) // 256))[:nbytes]
        ctx.write(ctx.handle.heap.base + offset, data)
        return nbytes

    def blast(ctx, src, dst, nbytes, reps):
        base = ctx.handle.heap.base
        for _ in range(reps):
            ctx.write(base + dst, ctx.read(base + src, nbytes))
        return nbytes * reps

    def delegate(ctx, src, dst, nbytes):
        # handles[1] is the inner enclave: load order is fixed below.
        inner = ctx.host.handles[1]
        base = ctx.handle.heap.base
        return ctx.n_ecall(inner, "inner_blast", base + src, base + dst,
                           nbytes)

    def checksum(ctx, offset, nbytes):
        data = ctx.read(ctx.handle.heap.base + offset, nbytes)
        return sum(data) & 0xFFFFFFFF

    def inner_blast(ctx, src, dst, nbytes):
        # Inner-mode copy over the *outer* heap: the nested validator
        # admits the whole span, so the run batches identically.
        ctx.write(dst, ctx.read(src, nbytes))
        return nbytes

    host = nested_host(mee_bytes=True, llc_bytes=32 << 10,
                       **config_overrides)
    key = developer_key("fingerprint")
    outer_builder = EnclaveBuilder(
        "bulk-outer", parse_edl(_BULK_OUTER_EDL, name="bulk-outer"),
        signing_key=key, heap_bytes=16 * PAGE_SIZE)
    outer_builder.add_entry("fill", fill)
    outer_builder.add_entry("blast", blast)
    outer_builder.add_entry("delegate", delegate)
    outer_builder.add_entry("checksum", checksum)
    outer_probe = outer_builder.build()

    inner_builder = EnclaveBuilder(
        "bulk-inner", parse_edl(_BULK_INNER_EDL, name="bulk-inner"),
        signing_key=key)
    inner_builder.add_entry("inner_blast", inner_blast)
    inner_builder.expect_peer(outer_probe.sigstruct.expected_mrenclave,
                              outer_probe.sigstruct.mrsigner)
    inner_image = inner_builder.build()
    outer_builder.expect_peer(inner_image.sigstruct.expected_mrenclave,
                              inner_image.sigstruct.mrsigner)

    outer = host.load(outer_builder.build())
    inner = host.load(inner_image)
    host.associate(inner, outer)
    return host, outer, inner


def _wl_bulk_copy() -> Machine:
    """Large same-mode memcpy through a nested pair: multi-page
    contiguous spans copied in outer mode, then in inner mode over the
    outer heap, with real MEE ciphertext and an LLC small enough that
    the spans thrash it."""
    from repro.sgx.constants import PAGE_SIZE

    host, outer, inner = bulk_pair()
    span = 6 * PAGE_SIZE
    dst = 8 * PAGE_SIZE
    outer.ecall("fill", 0, span, 0x5A)
    outer.ecall("blast", 0, dst, span, 2)
    outer.ecall("delegate", dst, 0, span)
    assert outer.ecall("checksum", 0, span) \
        == outer.ecall("checksum", dst, span)
    return host.machine


#: name -> workload constructor; iteration order is the report order.
WORKLOADS: dict[str, Callable[[], Machine]] = {
    "ring_channel": _wl_ring_channel,
    "gcm_channel": _wl_gcm_channel,
    "transitions": _wl_transitions,
    "eviction_pressure": _wl_eviction_pressure,
    "bulk_copy": _wl_bulk_copy,
}


def compute_fingerprints() -> dict[str, str]:
    """Run every fixed workload on a fresh machine; return hex digests."""
    return {name: machine_fingerprint(build())
            for name, build in WORKLOADS.items()}


def transition_digest(machine: Machine) -> str:
    """Canonical digest of the machine's transition event log.

    The companion observable to :func:`machine_fingerprint`: where that
    folds *how much* simulated work happened, this folds the exact
    *sequence* of lifecycle/transition/AEX/eviction events the run
    performed (see :mod:`repro.sgx.transitions`).  The runner ships it
    per experiment, chaos mode asserts benign-fault invariance over it,
    and the differential fuzzer diffs it between the fast and reference
    memory paths.
    """
    return machine.transitions.digest()


def compute_transition_digests() -> dict[str, str]:
    """Run every fixed workload on a fresh machine; return the digest of
    each machine's transition log."""
    return {name: transition_digest(build())
            for name, build in WORKLOADS.items()}


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for _name, _digest in compute_fingerprints().items():
        print(f"{_name}: {_digest}")
    for _name, _digest in compute_transition_digests().items():
        print(f"{_name} [transitions]: {_digest}")
