"""CPU core model.

A :class:`Core` holds the security-relevant per-core state SGX cares about:
whether the core is in enclave mode, which enclave it is executing
(``current_eid``), the *stack* of nested enclave contexts (for NEENTER —
the outer enclave's context is suspended, not exited), its private TLB,
and a tiny architectural register file whose only job is to let NEEXIT's
"set 0s for all registers" scrubbing be observable in tests.

The core also exposes the two operations everything above builds on:
:meth:`read` / :meth:`write`, which run the full TLB → page-walk →
access-validation pipeline against the machine.  Validation runs once,
on a TLB miss (paper Fig. 6); the entry it fills records the page's
access plan (:class:`~repro.sgx.tlb.TlbEntry`), so every later hit on
that page is served by one fast path until a flush or shootdown drops
the entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import AccessViolation, PageFault
from repro.perf import counters as ctr
from repro.sgx.access import ABORT, INSERT, PAGE_FAULT
from repro.sgx.constants import PAGE_SHIFT, PAGE_SIZE, PERM_R, PERM_W
from repro.sgx.paging import AddressSpace
from repro.sgx.tlb import Tlb, TlbEntry

# Hot-path copies of the counter slot indices: a module-global load is
# cheaper than an attribute load on ``ctr`` in the per-access fast path.
_SLOT_TLB_HIT = ctr.SLOT_TLB_HIT
_SLOT_LLC_HIT = ctr.SLOT_LLC_HIT
_SLOT_LLC_MISS = ctr.SLOT_LLC_MISS
_SLOT_MEE_LINE_DEC = ctr.SLOT_MEE_LINE_DEC
_SLOT_MEE_LINE_ENC = ctr.SLOT_MEE_LINE_ENC
_PAGE_MASK = PAGE_SIZE - 1

if TYPE_CHECKING:  # pragma: no cover
    from repro.sgx.machine import Machine

#: Architectural registers scrubbed on enclave exit (subset, for tests).
REGISTER_NAMES = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi",
                  "r8", "r9", "r10", "r11", "rflags")


class Core:
    """One simulated hardware thread."""

    def __init__(self, machine: "Machine", core_id: int) -> None:
        self.machine = machine
        self.core_id = core_id
        self.tlb = Tlb(machine.config.tlb_entries)
        #: Enclave-context stack: empty = non-enclave mode; one element =
        #: ordinary enclave execution; deeper = nested (NEENTER) frames.
        #: Each frame is an EID.
        self.enclave_stack: list[int] = []
        self.address_space: AddressSpace | None = None
        self.registers: dict[str, int] = {r: 0 for r in REGISTER_NAMES}
        #: TCS vaddr per active enclave frame (parallel to enclave_stack).
        self.tcs_stack: list[int] = []
        #: Optional ``hook(core, vaddr, is_write)`` observed before every
        #: read/write — the fault-injection seam (repro.faults.engine).
        #: None in normal runs, so the hot path pays one attribute load
        #: and an is-None test per access.
        self.access_hook = None
        # Reference mode fills no entry as ``direct``, so every access
        # takes the per-page ``_translate`` + memside path, which charges
        # the identical tlb_hit cost and counter.  difffuzz relies on
        # this to keep a trustworthy slow oracle.
        self._direct_ok = not machine.config.reference_paths
        # Hot-path aliases (see Machine.__init__: these objects are never
        # rebound, and Counters.reset clears the slot list in place).
        self._slots = machine.counters.slots
        self._counters = machine.counters
        self._cost = machine.cost
        self._memside_read = machine.memside_read
        self._memside_write = machine.memside_write
        self._llc_range = machine._llc_range
        self._frames = machine.phys._frames
        self._prm_lo = machine._prm_lo
        self._prm_hi = machine._prm_hi
        self._mee_bytes = machine._mee_bytes
        self._dram_bytes = machine._dram_bytes
        # Single-line LLC probe, inlined into the fast path: the model's
        # internals (set list, geometry) and the memory-system unit
        # costs, plus the three possible fused single-line charges
        # precomputed with the exact association the generic charge
        # uses (tlb, then +llc, then +mee — each partial sum is an exact
        # dyadic float, see CostModel.charge_run).
        llc = machine.llc
        self._llc = llc
        self._llc_sets = llc._sets
        self._llc_nsets = llc.num_sets
        self._llc_ways = llc.ways
        self._llc_lb = llc.line_bytes
        cost = machine.cost
        self._breakdown = cost.breakdown
        self._clock = cost.clock
        self._tlb_hit_ns = cost._tlb_hit_ns
        self._cache_hit_ns = cost._cache_hit_ns
        self._dram_access_ns = cost._dram_access_ns
        self._mee_line_ns = cost._mee_line_ns
        self._chg_hit = cost._tlb_hit_ns + cost._cache_hit_ns
        self._chg_miss = cost._tlb_hit_ns + cost._dram_access_ns
        self._chg_miss_mee = (cost._tlb_hit_ns + cost._dram_access_ns
                              + cost._mee_line_ns)

    # -- mode queries ----------------------------------------------------------
    @property
    def in_enclave_mode(self) -> bool:
        return bool(self.enclave_stack)

    @property
    def current_eid(self) -> int:
        if not self.enclave_stack:
            return 0
        return self.enclave_stack[-1]

    # -- register scrubbing ------------------------------------------------------
    def scrub_registers(self) -> None:
        """Zero all registers and flags (NEEXIT/EEXIT hygiene, §V)."""
        for name in self.registers:
            self.registers[name] = 0

    # -- TLB management ------------------------------------------------------
    def flush_tlb(self) -> None:
        self.tlb.flush()
        self.machine.cost.charge_event("tlb_flush")
        self.machine.counters.bump(ctr.TLB_FLUSH)

    # -- the memory pipeline ------------------------------------------------------
    def _translate(self, vaddr: int, write: bool) -> TlbEntry:
        """TLB lookup; on miss, page walk + access validation + fill.

        The fill is where the page's access plan is derived, once: its
        physical base, whether it lies in the PRM (MEE lines on miss),
        whether its DRAM bytes are ciphertext, and whether the fast path
        may move its bytes itself (``direct``).  A PRM-straddling page
        cannot occur — ``MachineConfig`` enforces page-aligned PRM
        bounds — so one ``prm`` flag covers the whole page.
        """
        vpn = vaddr >> PAGE_SHIFT
        tlb = self.tlb
        entry = tlb.lookup(vpn)
        if entry is not None:
            self._slots[_SLOT_TLB_HIT] += 1
            self._cost.charge_event("tlb_hit")
        else:
            machine = self.machine
            self._slots[ctr.SLOT_TLB_MISS] += 1
            self._cost.charge_event("tlb_miss_walk")
            if self.address_space is None:
                raise PageFault("core has no address space", vaddr)
            pte = self.address_space.walk(vaddr)
            if pte is None or not pte.present:
                raise PageFault(f"no present mapping for {vaddr:#x}", vaddr)
            decision = machine.validator.validate(self, vaddr, pte)
            if decision.action == PAGE_FAULT:
                machine.trace("PAGE_FAULT", self.core_id,
                              vaddr=hex(vaddr), reason=decision.reason)
                raise PageFault(
                    f"#PF at {vaddr:#x}: {decision.reason}", vaddr)
            if decision.action == ABORT:
                machine.trace("ACCESS_VIOLATION", self.core_id,
                              vaddr=hex(vaddr), reason=decision.reason)
                raise AccessViolation(
                    f"access violation at {vaddr:#x}: {decision.reason}",
                    vaddr)
            assert decision.action == INSERT
            base = pte.pfn << PAGE_SHIFT
            prm = self._prm_lo <= base < self._prm_hi
            entry = TlbEntry(
                vpn=vpn, pfn=pte.pfn, perms=decision.perms,
                context_eid=self.current_eid, base=base, prm=prm,
                crypto=self._mee_bytes and prm,
                direct=(self._direct_ok and base >= 0
                        and base + PAGE_SIZE <= self._dram_bytes))
            tlb.insert(entry)
        needed = PERM_W if write else PERM_R
        if not entry.perms & needed:
            kind = "write" if write else "read"
            raise PageFault(f"{kind} permission denied at {vaddr:#x}", vaddr)
        return entry

    def read(self, vaddr: int, size: int) -> bytes:
        """Read ``size`` bytes of virtual memory with full protection."""
        hook = self.access_hook
        if hook is not None:
            hook(self, vaddr, False)
        if 0 < size <= PAGE_SIZE - (vaddr & _PAGE_MASK):
            return self._serve(vaddr, size, None)
        return self._span(vaddr, size, None)

    def write(self, vaddr: int, data: bytes) -> None:
        hook = self.access_hook
        if hook is not None:
            hook(self, vaddr, True)
        size = len(data)
        if 0 < size <= PAGE_SIZE - (vaddr & _PAGE_MASK):
            self._serve(vaddr, size, data)
        else:
            self._span(vaddr, size, data)

    def _serve(self, vaddr: int, size: int, data: bytes | None):
        """One non-empty access inside a single page (``data`` None =
        read, returning the bytes).

        A TLB hit on a ``direct`` entry with the needed permission is
        served here: the LRU promotion ``Tlb.lookup`` would perform
        (promoting the MRU entry is a no-op), one fused charge (see
        CostModel.charge_run for the FP-exactness argument; single-line
        accesses probe the LLC inline) and the byte movement of the
        memside accessors.  Anything else — a miss, a non-direct entry,
        a missing permission — takes ``_translate`` + memside, which
        validates, faults or charges exactly as the reference path.
        """
        vpn = vaddr >> PAGE_SHIFT
        entries = self.tlb._entries
        entry = entries.get(vpn)
        if (entry is None or not entry.direct
                or not entry.perms & (PERM_R if data is None else PERM_W)):
            entry = self._translate(vaddr, data is not None)
            paddr = (entry.pfn << PAGE_SHIFT) | (vaddr & _PAGE_MASK)
            if data is None:
                return self._memside_read(paddr, size)
            self._memside_write(paddr, data)
            return None
        del entries[vpn]
        entries[vpn] = entry
        paddr = entry.base | (vaddr & _PAGE_MASK)
        slots = self._slots
        slots[_SLOT_TLB_HIT] += 1
        breakdown = self._breakdown
        breakdown["tlb_hit"] += self._tlb_hit_ns
        clock = self._clock
        mee_slot = _SLOT_MEE_LINE_DEC if data is None else _SLOT_MEE_LINE_ENC
        lb = self._llc_lb
        first = paddr - (paddr % lb)
        if paddr + size - first <= lb:
            # Single-line access: the LLC probe and fused charge inlined
            # (the same state transitions and charge association as
            # LlcModel.access_range + the generic branch below).
            llc = self._llc
            lru = self._llc_sets[(first // lb) % self._llc_nsets]
            if first in lru:
                del lru[first]
                lru[first] = None
                llc.hits += 1
                slots[_SLOT_LLC_HIT] += 1
                breakdown["cache_hit"] += self._cache_hit_ns
                clock._now_ns = clock._now_ns + self._chg_hit
            else:
                llc.misses += 1
                if len(lru) >= self._llc_ways:
                    del lru[next(iter(lru))]
                    llc.evictions += 1
                lru[first] = None
                slots[_SLOT_LLC_MISS] += 1
                breakdown["dram"] += self._dram_access_ns
                if entry.prm:
                    slots[mee_slot] += 1
                    breakdown["mee"] += self._mee_line_ns
                    clock._now_ns = clock._now_ns + self._chg_miss_mee
                else:
                    clock._now_ns = clock._now_ns + self._chg_miss
        else:
            # CostModel.charge_run's association for one page, inlined.
            total = self._tlb_hit_ns
            hits, misses = self._llc_range(paddr, size)
            if hits:
                slots[_SLOT_LLC_HIT] += hits
                ns = hits * self._cache_hit_ns
                breakdown["cache_hit"] += ns
                total += ns
            if misses:
                slots[_SLOT_LLC_MISS] += misses
                ns = misses * self._dram_access_ns
                breakdown["dram"] += ns
                total += ns
                if entry.prm:
                    slots[mee_slot] += misses
                    ns = misses * self._mee_line_ns
                    breakdown["mee"] += ns
                    total += ns
            clock._now_ns = clock._now_ns + total
        if data is None:
            if entry.crypto:
                return self.machine._read_prm_plaintext(paddr, size)
            frame = self._frames.get(entry.pfn)
            if frame is None:
                return bytes(size)
            off = paddr & _PAGE_MASK
            return bytes(frame[off:off + size])
        if entry.crypto:
            self.machine._write_prm_plaintext(paddr, data)
            return None
        frame = self._frames.get(entry.pfn)
        if frame is None:
            frame = self._frames[entry.pfn] = bytearray(PAGE_SIZE)
        off = paddr & _PAGE_MASK
        frame[off:off + size] = data
        return None

    def _span(self, vaddr: int, size: int, data: bytes | None):
        """An access crossing a page boundary (or an empty one).

        When every page of the span is a ``direct`` TLB hit with the
        needed permission, the whole span is one fused run: pages are
        promoted and their LLC lines touched in ascending VA order
        (identical to the per-page loop, so LRU and LLC state cannot
        diverge) and the run is charged once at the end.  Runs are
        all-or-nothing — a mid-run miss or fault must reproduce the
        reference path's partial charging and partial writes exactly —
        so any other span takes the reference per-page ``_translate`` +
        memside loop, which is also the differential fuzzer's oracle.
        """
        if size <= 0:
            return b"" if data is None else None  # flow: charged — empty
        entries = self.tlb._entries
        needed = PERM_R if data is None else PERM_W
        run = []
        for vpn in range(vaddr >> PAGE_SHIFT,
                         ((vaddr + size - 1) >> PAGE_SHIFT) + 1):
            entry = entries.get(vpn)
            if entry is None or not entry.direct \
                    or not entry.perms & needed:
                return self._reference_span(vaddr, size, data)
            run.append(entry)
        llc_range = self._llc_range
        frames = self._frames
        machine = self.machine
        out = bytearray()
        hits = misses = mee = 0
        off = vaddr & _PAGE_MASK
        pos = 0
        for entry in run:
            vpn = entry.vpn
            del entries[vpn]
            entries[vpn] = entry
            chunk = min(PAGE_SIZE - off, size - pos)
            paddr = entry.base | off
            h, m = llc_range(paddr, chunk)
            hits += h
            misses += m
            if entry.prm:
                mee += m
            if data is None:
                if entry.crypto:
                    out += machine._read_prm_plaintext(paddr, chunk)
                else:
                    frame = frames.get(entry.pfn)
                    out += (bytes(chunk) if frame is None
                            else frame[off:off + chunk])
            else:
                piece = data[pos:pos + chunk]
                if entry.crypto:
                    machine._write_prm_plaintext(paddr, piece)
                else:
                    frame = frames.get(entry.pfn)
                    if frame is None:
                        frame = frames[entry.pfn] = bytearray(PAGE_SIZE)
                    frame[off:off + chunk] = piece
            pos += chunk
            off = 0
        if data is None:
            self._counters.charge_run(len(run), hits, misses, mee, 0)
        else:
            self._counters.charge_run(len(run), hits, misses, 0, mee)
        self._cost.charge_run(len(run), hits, misses, mee)
        return bytes(out) if data is None else None

    def _reference_span(self, vaddr: int, size: int, data: bytes | None):
        """The per-page ``_translate`` + memside loop (non-empty span)."""
        out = bytearray()
        pos = 0
        while pos < size:  # flow: charged — callers pass size > 0
            entry = self._translate(vaddr, data is not None)
            off = vaddr & _PAGE_MASK
            chunk = min(size - pos, PAGE_SIZE - off)
            paddr = (entry.pfn << PAGE_SHIFT) | off
            if data is None:
                out += self._memside_read(paddr, chunk)
            else:
                self._memside_write(paddr, data[pos:pos + chunk])
            vaddr += chunk
            pos += chunk
        return bytes(out) if data is None else None

    # convenience accessors used heavily by enclave application code
    def read_u64(self, vaddr: int) -> int:
        return int.from_bytes(self.read(vaddr, 8), "little")

    def write_u64(self, vaddr: int, value: int) -> None:
        self.write(vaddr, (value & (2**64 - 1)).to_bytes(8, "little"))
