"""Property tests for the per-core TLB fast path.

Validation runs once, on a TLB miss (paper Fig. 6), and the entry the
fill inserts records the page's access plan (:class:`TlbEntry` ``base``,
``prm``, ``crypto``, ``direct``).  A hit on a ``direct`` entry is served
by :meth:`Core._serve` / :meth:`Core._span` without re-walking the
automaton, so the validate-once security argument of paper §II-B holds
*iff* every event that can change a validation outcome drops the entry:
transition flushes (EENTER/NEENTER/NEEXIT/EEXIT/AEX), explicit flushes,
IPI shootdowns and the EWB/ELDB eviction protocol.  (A NASSO *grant* is
monotone — it only adds rights, so entries validated before it stay
valid; the teardown path, ``disassociate``, performs a full shootdown.)

These tests drive directed and random transition/eviction/flush walks
with single-page and multi-page accesses and audit, after every step,

* the four §VII-A invariants via :mod:`repro.core.invariants`, and
* the plan invariant: every TLB entry's plan fields are exactly what a
  fresh fill of its frame would derive.

Run-boundary equivalence is pinned separately: runs crossing cache-line
and page boundaries must return per-byte-identical data, and runs
crossing into an EWB'd page must fault, recharge and reload exactly like
the per-page reference path (``MachineConfig.reference_paths``).
"""

import random

import pytest

from repro.core import NestedValidator, audit_machine, neenter, neexit
from repro.errors import PageFault
from repro.os import Kernel
from repro.perf.fingerprint import machine_fingerprint
from repro.sdk import EnclaveBuilder, EnclaveHost, developer_key, parse_edl
from repro.sgx import Machine, isa
from repro.sgx.constants import PAGE_SHIFT, PAGE_SIZE, SmallMachineConfig

EDL = """
enclave {
    trusted {
        public int bump(int addr);
    };
};
"""


def _bump(ctx, addr):
    value = int.from_bytes(ctx.read(addr, 8), "little") + 1
    ctx.write(addr, value.to_bytes(8, "little"))
    return value


def plan_violations(machine, core) -> list[str]:
    """Audit one core's TLB entries against what a fresh fill derives."""
    cfg = machine.config
    prm_hi = cfg.prm_base + cfg.prm_bytes
    errs = []
    for entry in core.tlb.entries():
        base = entry.pfn << PAGE_SHIFT
        prm = cfg.prm_base <= base < prm_hi
        expected = (base, prm, cfg.mee_encrypt_bytes and prm,
                    not cfg.reference_paths and base >= 0
                    and base + PAGE_SIZE <= cfg.dram_bytes)
        got = (entry.base, entry.prm, entry.crypto, entry.direct)
        if got != expected:
            errs.append(f"core{core.core_id}: entry {entry.vpn:#x} plan "
                        f"{got} != fresh fill {expected}")
    return errs


def _audit(machine) -> None:
    assert audit_machine(machine) == []
    for core in machine.cores:
        assert plan_violations(machine, core) == []


def _assert_flushed(core) -> None:
    """No entry — hence no access plan — survived the event."""
    assert len(core.tlb) == 0, (
        f"core{core.core_id}: TLB entries survived a flush")


def _assert_served(core, vaddr: int, size: int) -> None:
    """Every page of the access is now a fast-path-servable entry."""
    for vpn in range(vaddr >> PAGE_SHIFT,
                     ((vaddr + size - 1) >> PAGE_SHIFT) + 1):
        entry = core.tlb._entries.get(vpn)
        assert entry is not None and entry.direct, (
            f"core{core.core_id}: page {vpn:#x} is not a direct entry")


def _translations(core, access) -> int:
    """``_translate`` calls ``access()`` makes: zero means the fast path
    served it straight from the TLB entries."""
    calls = []
    real = core._translate

    def counting(vaddr, write):
        calls.append(vaddr)
        return real(vaddr, write)

    core._translate = counting
    try:
        access()
    finally:
        del core._translate
    return len(calls)


def _warm(core, vaddr: int, size: int, write: bool = False) -> None:
    """Refill after a flush (validated again), then hit the fast path
    with a read and, if ``write``, a write."""
    assert _translations(core, lambda: core.read(vaddr, size)) > 0
    assert _translations(core, lambda: core.read(vaddr, size)) == 0
    if write:
        assert _translations(
            core, lambda: core.write(vaddr, bytes(size))) == 0
    _assert_served(core, vaddr, size)


def _build_world(**config_overrides):
    machine = Machine(SmallMachineConfig(num_cores=2, **config_overrides),
                      validator_cls=NestedValidator)
    host = EnclaveHost(machine, Kernel(machine))
    key = developer_key("tlb-fastpath")
    outer_builder = EnclaveBuilder("fp-outer", parse_edl(EDL),
                                   signing_key=key, num_tcs=4,
                                   heap_bytes=8 * PAGE_SIZE)
    outer_builder.add_entry("bump", _bump)
    outer_probe = outer_builder.build()

    inner_builder = EnclaveBuilder("fp-inner", parse_edl(EDL),
                                   signing_key=key, num_tcs=4)
    inner_builder.add_entry("bump", _bump)
    inner_builder.expect_peer(outer_probe.sigstruct.expected_mrenclave,
                              outer_probe.sigstruct.mrsigner)
    inner_image = inner_builder.build()
    outer_builder.expect_peer(inner_image.sigstruct.expected_mrenclave,
                              inner_image.sigstruct.mrsigner)

    outer = host.load(outer_builder.build())
    inner = host.load(inner_image)
    host.associate(inner, outer)
    for core in machine.cores:
        core.address_space = host.proc.space
    return machine, host, outer, inner


@pytest.fixture
def world():
    return _build_world()


# Access shapes the directed tests warm the fast path with, as (start
# offset from the page under test, length): one 8-byte access inside the
# page, and a run spanning that page and the one before it.
ACCESS_SHAPES = {
    "single-page": (128, 8),
    "multi-page": (-PAGE_SIZE, 2 * PAGE_SIZE),
}
_shapes = pytest.mark.parametrize("shape", list(ACCESS_SHAPES))


class TestDirectedInvalidation:
    """One explicit warm → event → flushed check per invalidation
    source, for single-page accesses and multi-page runs alike."""

    @_shapes
    def test_every_transition_invalidates(self, world, shape):
        machine, host, outer, inner = world
        core = machine.cores[0]
        offset, size = ACCESS_SHAPES[shape]
        vaddr = (outer.heap.base & ~(PAGE_SIZE - 1)) + 2 * PAGE_SIZE + offset

        def warm(write=True):
            _warm(core, vaddr, size, write)

        isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        _assert_flushed(core)
        warm()
        _audit(machine)

        neenter(machine, core, inner.secs, inner.idle_tcs())
        _assert_flushed(core)
        warm(write=False)                       # inner over outer heap

        neexit(machine, core)
        _assert_flushed(core)
        warm()

        tcs_vaddr = core.tcs_stack[0]
        isa.aex(machine, core)
        _assert_flushed(core)
        isa.eresume(machine, core, outer.secs, tcs_vaddr)
        _assert_flushed(core)
        warm()

        core.flush_tlb()
        _assert_flushed(core)
        warm()

        machine.flush_all_tlbs()
        for c in machine.cores:
            _assert_flushed(c)
        warm()

        isa.eexit(machine, core)
        _assert_flushed(core)
        _audit(machine)

    @_shapes
    def test_ewb_shootdown_invalidates_all_cores(self, world, shape):
        machine, host, outer, inner = world
        target = (outer.heap.base & ~(PAGE_SIZE - 1)) + 2 * PAGE_SIZE
        offset, size = ACCESS_SHAPES[shape]
        outer.ecall("bump", target)
        core0, core1 = machine.cores

        tcs0_vaddr = outer.idle_tcs()
        isa.eenter(machine, core0, outer.secs, tcs0_vaddr)
        _warm(core0, target + offset, size)
        tcs_vaddr = inner.idle_tcs()
        isa.eenter(machine, core1, inner.secs, tcs_vaddr)
        _warm(core1, target + offset, size)

        host.kernel.driver.evict_page(outer.secs, target)
        for core in machine.cores:
            _assert_flushed(core)
        _audit(machine)

        assert host.kernel.driver.handle_page_fault(outer.secs, target)
        # ELDB mints a fresh frame: no entry from before the round trip
        # may survive, even though the page is resident again.
        for core in machine.cores:
            _assert_flushed(core)
        # Both cores were AEX'd by the eviction; resume, finish, exit.
        assert not core0.in_enclave_mode
        assert not core1.in_enclave_mode
        isa.eresume(machine, core1, inner.secs, tcs_vaddr)
        isa.eexit(machine, core1)
        isa.eresume(machine, core0, outer.secs, tcs0_vaddr)
        assert core0.read(target, 8) == (1).to_bytes(8, "little")
        _assert_served(core0, target, 8)
        isa.eexit(machine, core0)
        _audit(machine)

    def test_reference_cores_never_serve_direct(self):
        machine, host, outer, inner = _build_world(reference_paths=True)
        core = machine.cores[0]
        isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        heap = outer.heap.base
        for size in (8, 2 * PAGE_SIZE):
            core.read(heap, size)
            pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
            assert _translations(core, lambda: core.read(heap, size)) \
                == pages
        assert core.tlb.entries()
        assert not any(e.direct for e in core.tlb.entries())
        _audit(machine)
        isa.eexit(machine, core)


class TestRandomWalk:
    """Random transition/access/eviction/flush sequences, audited per
    step."""

    @pytest.mark.parametrize("seed", range(10))
    def test_sequence(self, world, seed):
        machine, host, outer, inner = world
        rng = random.Random(0xC0FFEE + seed)
        heap_page = outer.heap.base & ~(PAGE_SIZE - 1)
        targets = [heap_page + PAGE_SIZE * i for i in range(1, 5)]
        sizes = (1, 8, 16, 96, PAGE_SIZE, 2 * PAGE_SIZE + 24)
        flushers = ("enter", "neenter", "neexit", "eexit", "aex",
                    "flush", "shootdown")

        for _ in range(120):
            core = rng.choice(machine.cores)
            op = rng.choice(("enter", "neenter", "neexit", "eexit",
                             "aex", "flush", "shootdown",
                             "touch", "touch", "touch", "evict"))
            if op == "enter" and not core.in_enclave_mode:
                handle = rng.choice((outer, inner))
                isa.eenter(machine, core, handle.secs, handle.idle_tcs())
            elif op == "neenter" and core.current_eid == outer.secs.eid:
                neenter(machine, core, inner.secs, inner.idle_tcs())
            elif op == "neexit" and len(core.enclave_stack) >= 2:
                neexit(machine, core)
            elif op == "eexit" and len(core.enclave_stack) == 1:
                isa.eexit(machine, core)
            elif op == "aex" and len(core.enclave_stack) == 1:
                eid = core.enclave_stack[0]
                tcs_vaddr = core.tcs_stack[0]
                isa.aex(machine, core)
                _assert_flushed(core)
                _audit(machine)
                isa.eresume(machine, core, machine.enclave(eid),
                            tcs_vaddr)
            elif op == "flush":
                core.flush_tlb()
            elif op == "shootdown":
                machine.flush_all_tlbs()
                for c in machine.cores:
                    _assert_flushed(c)
            elif op == "touch" and core.current_eid == outer.secs.eid:
                addr = rng.choice(targets) + rng.randrange(64)
                size = rng.choice(sizes)
                if rng.random() < 0.5:
                    core.read(addr, size)
                else:
                    core.write(addr, bytes(size))
                _assert_served(core, addr, size)
            elif (op == "touch" and core.enclave_stack
                  and core.current_eid == inner.secs.eid):
                # Inner reading the associated outer's heap (inv. 4)
                # fills entries across the association edge.
                addr = rng.choice(targets)
                size = rng.choice(sizes)
                core.read(addr, size)
                _assert_served(core, addr, size)
            elif op == "evict" and all(len(c.enclave_stack) <= 1
                                       for c in machine.cores):
                target = rng.choice(targets)
                suspended = [(c, c.enclave_stack[0], c.tcs_stack[0])
                             for c in machine.cores if c.in_enclave_mode]
                host.kernel.driver.evict_page(outer.secs, target)
                for c in machine.cores:
                    _assert_flushed(c)
                _audit(machine)
                assert host.kernel.driver.handle_page_fault(outer.secs,
                                                            target)
                for c, eid, tcs_vaddr in suspended:
                    if not c.in_enclave_mode:   # AEX'd by the shootdown
                        isa.eresume(machine, c, machine.enclave(eid),
                                    tcs_vaddr)
            else:
                continue
            if op in flushers:
                _assert_flushed(core)
            _audit(machine)

        # Unwind whatever the walk left running.
        for core in machine.cores:
            while core.enclave_stack:
                if len(core.enclave_stack) >= 2:
                    neexit(machine, core)
                else:
                    isa.eexit(machine, core)
        _audit(machine)


#: Spans (offset into the heap, size) crossing every run boundary the
#: fast path must charge exactly: inside one line, across a cache line,
#: across a page, multi-page unaligned, multi-page aligned.
BOUNDARY_SPANS = (
    (3, 5),
    (64 - 3, 6),
    (PAGE_SIZE - 5, 10),
    (17, 2 * PAGE_SIZE + 31),
    (0, 4 * PAGE_SIZE),
)


class TestRunEquivalence:
    def _sequence(self, machine, core, outer):
        """The fixed boundary-crossing access sequence both paths run."""
        heap = outer.heap.base
        pattern = bytes(i & 0xFF for i in range(5 * PAGE_SIZE))
        isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        core.write(heap, pattern)
        out = []
        for offset, size in BOUNDARY_SPANS:
            out.append(core.read(heap + offset, size))
        core.flush_tlb()              # force a refill mid-sequence
        for offset, size in BOUNDARY_SPANS:
            out.append(core.read(heap + offset, size))
        isa.eexit(machine, core)
        return out

    def test_bulk_reads_equal_per_byte_reads(self, world):
        machine, host, outer, inner = world
        core = machine.cores[0]
        heap = outer.heap.base
        runs = self._sequence(machine, core, outer)
        isa.eenter(machine, core, outer.secs, outer.idle_tcs())
        for (offset, size), data in zip(BOUNDARY_SPANS, runs):
            per_byte = b"".join(core.read(heap + offset + i, 1)
                                for i in range(size))
            assert per_byte == data
        isa.eexit(machine, core)
        _audit(machine)

    def test_boundary_runs_match_reference_bit_for_bit(self):
        """Same sequence, fast path vs ``reference_paths``: data, clock,
        counters, breakdown, ciphertext, and MEE root all identical."""
        fast_m, _h, fast_outer, _i = _build_world()
        ref_m, _h2, ref_outer, _i2 = _build_world(reference_paths=True)
        fast = self._sequence(fast_m, fast_m.cores[0], fast_outer)
        ref = self._sequence(ref_m, ref_m.cores[0], ref_outer)
        assert fast == ref
        assert machine_fingerprint(fast_m) == machine_fingerprint(ref_m)

    def test_run_into_an_ewbed_page_matches_reference(self):
        """EPC-section boundary: a run whose tail page was EWB'd must
        abort with the same #PF, charge the same partial work, and
        complete identically after ELDB — on both paths."""
        outcomes = []
        for overrides in ({}, {"reference_paths": True}):
            machine, host, outer, _inner = _build_world(**overrides)
            core = machine.cores[0]
            heap_page = outer.heap.base & ~(PAGE_SIZE - 1)
            target = heap_page + PAGE_SIZE          # second heap page
            isa.eenter(machine, core, outer.secs, outer.idle_tcs())
            core.write(outer.heap.base, bytes(range(256)) * 32)
            isa.eexit(machine, core)

            host.kernel.driver.evict_page(outer.secs, target)
            isa.eenter(machine, core, outer.secs, outer.idle_tcs())
            with pytest.raises(PageFault) as excinfo:
                core.read(outer.heap.base, 2 * PAGE_SIZE)
            assert host.kernel.driver.handle_page_fault(outer.secs,
                                                        target)
            data = core.read(outer.heap.base, 2 * PAGE_SIZE)
            isa.eexit(machine, core)
            outcomes.append((excinfo.value.vaddr, data,
                             machine_fingerprint(machine)))
        assert outcomes[0] == outcomes[1]
