"""The fault-injection engine: deterministic triggers, transparent bubbles.

One :class:`FaultEngine` attaches to a :class:`~repro.sgx.machine.Machine`
and fires the plan's memory-triggered faults from the per-core access hook
(:attr:`repro.sgx.cpu.Core.access_hook`): the engine counts every
``read``/``write`` a core issues and, on the ``at``-th access, injects the
head fault.  IPC faults are driven separately by a
:class:`~repro.faults.ipc.LossyIpcRouter` installed when a kernel attaches.

Transparency argument (benign faults)
-------------------------------------
Benign injections run *real* protocol sequences — a genuine ``isa.aex`` +
``isa.eresume``, a genuine EBLOCK/ETRACK/IPI/EWB/ELDB round trip through
the driver — and then restore every piece of state the sequence perturbed
that a fault-free run would not have perturbed:

* simulated clock, counter slots and cost breakdown (snapshotted as plain
  values, restored in place so the machine's hot-path aliases stay valid);
* each core's TLB contents **and** ``flush_count`` (restoring contents
  without rewinding the count would let a later EWB epoch-check pass while
  restored translations exist — since the contents are back, the flush
  semantically did not happen, so both are rewound together);
* the LLC replacement state (eviction bubbles only — AEX/ERESUME perform
  no memory traffic).

The TLB restore is exact — each entry comes back with the access plan its
fill recorded, in the same LRU order — so later hits are served and
charged exactly as in a fault-free run; simulated time is unchanged.  What
deliberately *persists* is the architectural bookkeeping a real fault leaves behind: ``Tcs.aex_count``
and MEE version/ciphertext churn (neither is folded into any experiment's
``result_fingerprint``).  After every injection the engine audits
:func:`repro.core.invariants.audit_machine` and raises
:class:`~repro.errors.FaultInjectionError` on any violation.

Malicious faults (DRAM bit flips) tamper the physical line right before
the triggering read, so the MEE MAC check fails *in that access* with a
typed :class:`~repro.errors.IntegrityViolation`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import FaultInjectionError
from repro.faults.plan import FaultPlan
from repro.sgx import isa
from repro.sgx.constants import PAGE_SHIFT, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.os.kernel import Kernel
    from repro.sgx.cpu import Core
    from repro.sgx.machine import Machine

#: ``_next_fire`` sentinel when no memory fault is pending — larger than
#: any realistic access count, so the hot-path compare never fires.
_UNSET = 1 << 62

#: Plans parsed once per worker process: chaos replays build many
#: machines with the same REPRO_FAULT_PLAN value.
_PLAN_CACHE: dict[str, FaultPlan] = {}


def attach_engine(machine: "Machine", plan_json: str) -> "FaultEngine":
    """Parse (with caching) and attach a plan to a freshly built machine."""
    plan = _PLAN_CACHE.get(plan_json)
    if plan is None:
        plan = FaultPlan.from_json(plan_json)
        _PLAN_CACHE[plan_json] = plan
    engine = FaultEngine(machine, plan)
    engine.attach()
    return engine


class FaultEngine:
    """Fires one plan's faults against one machine."""

    def __init__(self, machine: "Machine", plan: FaultPlan) -> None:
        self.machine = machine
        self.plan = plan
        self.kernel: "Kernel | None" = None
        #: Memory-triggered specs still to fire, sorted by trigger point.
        self._pending = plan.memory_faults()
        self._next_fire = self._pending[0].at if self._pending else _UNSET
        self.access_count = 0
        #: Specs that actually fired (same objects as in the plan).
        self.injected: list = []
        # Reentrancy guard: injection sequences themselves perform no
        # hooked accesses (they use machine-level epc_read/epc_write),
        # but belt-and-braces against future seams.
        self._busy = False

    # -- wiring --------------------------------------------------------------
    def attach(self) -> None:
        self.machine.fault_engine = self
        for core in self.machine.cores:
            core.access_hook = self._on_access
        if self.plan.has_bitflip:
            # Bit-flip detection needs byte-accurate MEE ciphertext in
            # simulated DRAM.  Timing-invariant to force on: memside
            # charges happen before the plaintext/ciphertext branch.
            self.machine._mee_bytes = True

    def attach_kernel(self, kernel: "Kernel") -> None:
        """Called from Kernel.__init__; installs the lossy IPC router."""
        self.kernel = kernel
        if self.plan.ipc_faults():
            from repro.faults.ipc import LossyIpcRouter, plan_policy
            kernel.ipc = LossyIpcRouter(
                kernel, plan_policy(self.plan), base=kernel.ipc)

    # -- the hot path --------------------------------------------------------
    def _on_access(self, core: "Core", vaddr: int, is_write: bool) -> None:
        n = self.access_count + 1
        self.access_count = n
        if n < self._next_fire or self._busy:
            return
        self._fire(core, vaddr, is_write)

    def _fire(self, core: "Core", vaddr: int, is_write: bool) -> None:
        """Try the head spec; on unmet preconditions leave it at the head
        (its ``at`` is already <= the access count, so every later access
        retries with two cheap compares until it can fire)."""
        spec = self._pending[0]
        self._busy = True
        try:
            if spec.kind == "aex":
                done = self._inject_aex(core)
            elif spec.kind == "evict":
                done = self._inject_evict()
            else:
                done = self._inject_bitflip(core, vaddr, is_write, spec)
        finally:
            self._busy = False
        if done:
            self._pending.pop(0)
            self.injected.append(spec)
            self._next_fire = (self._pending[0].at if self._pending
                               else _UNSET)
            self._audit(spec.kind)

    # -- perf snapshot/restore ------------------------------------------------
    def _perf_capture(self) -> tuple:
        machine = self.machine
        counters = machine.counters
        return (machine.clock._now_ns, counters.slots[:],
                dict(counters._extra), dict(machine.cost.breakdown))

    def _perf_restore(self, snapshot: tuple) -> None:
        machine = self.machine
        now_ns, slots, extra, breakdown = snapshot
        machine.clock._now_ns = now_ns
        # In-place: cores and the machine alias these containers.
        machine.counters.slots[:] = slots
        machine.counters._extra.clear()
        machine.counters._extra.update(extra)
        machine.cost.breakdown.clear()
        machine.cost.breakdown.update(breakdown)

    @staticmethod
    def _tlb_capture(core: "Core") -> tuple:
        return (core.tlb.capture(), core.tlb.flush_count)

    @staticmethod
    def _tlb_restore(core: "Core", snapshot: tuple) -> None:
        contents, flush_count = snapshot
        core.tlb.restore(contents)
        core.tlb.flush_count = flush_count  # see module docstring

    # -- injections -----------------------------------------------------------
    def _inject_aex(self, core: "Core") -> bool:
        """Interrupt + immediate resume at this instruction boundary."""
        if not core.in_enclave_mode:
            return False
        if len(core.tcs_stack) != len(core.enclave_stack):
            # Synthetic enclave mode (micro-benchmarks hand-set the
            # enclave stack without EENTER): no TCS to park, so the
            # AEX/ERESUME round trip cannot be replayed here.
            return False
        machine = self.machine
        perf = self._perf_capture()
        tlb = self._tlb_capture(core)
        log_mark = machine.transitions.mark()
        root_eid = core.enclave_stack[0]
        root_tcs_vaddr = core.tcs_stack[0]
        isa.aex(machine, core)
        isa.eresume(machine, core, machine.enclave(root_eid),
                    root_tcs_vaddr)
        # The injected AEX/ERESUME pair is a transparency bubble: roll
        # its events out of the transition log so the log digest of a
        # benign-faulted run is byte-identical to the fault-free run.
        machine.transitions.rollback(log_mark)
        self._tlb_restore(core, tlb)
        self._perf_restore(perf)
        return True

    def _inject_evict(self) -> bool:
        """Force one heap page through the full EWB/ELDB round trip."""
        kernel = self.kernel
        if kernel is None:
            return False
        machine = self.machine
        driver = kernel.driver
        target = None
        for eid in sorted(driver.loaded):
            entry = driver.loaded[eid]
            heap_base = entry.base_addr + entry.image.heap_offset
            heap_end = heap_base + entry.image.heap_bytes
            pages = [v for v in entry.resident if heap_base <= v < heap_end]
            if pages:
                target = (entry, max(pages))
                break
        if target is None:
            return False
        entry, vaddr = target
        frame_before = entry.resident[vaddr]
        va_before = driver._va
        needs_va = (va_before is None
                    or all(s is not None for s in va_before.slots))
        if needs_va and machine.epc_alloc.free_pages == 0:
            return False
        perf = self._perf_capture()
        llc = machine.llc.capture()
        tlbs = [self._tlb_capture(c) for c in machine.cores]
        stacks = [(list(c.enclave_stack), list(c.tcs_stack))
                  for c in machine.cores]
        log_mark = machine.transitions.mark()
        driver.evict_page(entry.secs, vaddr)
        interrupted = driver._interrupted
        driver.reload_page(entry.secs, vaddr)
        for core in interrupted:
            stack, tcs_stack = stacks[core.core_id]
            isa.eresume(machine, core, machine.enclave(stack[0]),
                        tcs_stack[0])
        if entry.resident.get(vaddr) != frame_before:
            raise FaultInjectionError(
                f"eviction bubble did not restore frame {frame_before:#x} "
                f"for page {vaddr:#x} (LIFO allocator assumption broken)")
        if needs_va and driver._va is not va_before:
            # The bubble allocated a fresh version array; undo it so the
            # EPC allocator's hand-out order is exactly the fault-free
            # one (the VA frame came off the end of the order list and
            # free() puts it back at the end).
            va_new = driver._va
            machine.epcm.clear(va_new.frame)
            machine.epc_alloc.free(va_new.frame)
            driver._va = va_before
        # Transparency bubble (see _inject_aex): the EVICT/EWB/RELOAD/
        # ELDB round trip and any AEX/ERESUME it forced must not leave
        # transition-log events behind.
        machine.transitions.rollback(log_mark)
        for core, snapshot in zip(machine.cores, tlbs):
            self._tlb_restore(core, snapshot)
        machine.llc.restore(llc)
        self._perf_restore(perf)
        return True

    def _inject_bitflip(self, core: "Core", vaddr: int, is_write: bool,
                        spec) -> bool:
        """Flip bits in the DRAM line the triggering *read* is about to
        fetch; the in-flight access then fails the MEE MAC check with a
        typed IntegrityViolation.  Writes are skipped: a full-line write
        would legitimately overwrite the tampered ciphertext undetected.
        """
        if is_write or core.address_space is None:
            return False
        pte = core.address_space.walk(vaddr)
        if pte is None or not pte.present:
            return False
        paddr = (pte.pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))
        machine = self.machine
        if not machine.phys.in_epc(paddr):
            return False
        if not machine.phys.frame_exists(paddr >> PAGE_SHIFT):
            return False
        line_addr = paddr - (paddr % 64)
        machine.llc.invalidate_line(line_addr)
        from repro.os.malicious import dram_tamper
        dram_tamper(machine, line_addr, flip_mask=spec.flip_mask)
        return True

    # -- safety net -----------------------------------------------------------
    def _audit(self, kind: str) -> None:
        from repro.core.invariants import audit_machine
        violations = audit_machine(self.machine)
        if violations:
            raise FaultInjectionError(
                f"machine invariants violated after {kind} injection: "
                + "; ".join(violations))
