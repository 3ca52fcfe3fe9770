"""Per-core TLB model.

SGX's entire software-attack-surface defence for EPC memory hangs on one
invariant (paper §II-B): **the TLB must only ever contain validated
translations**.  Validation happens once, at fill time (TLB miss); after
that, hits are trusted.  Consequently every transition that changes the
security context (EENTER, EEXIT, NEENTER, NEEXIT, AEX) must flush the TLB,
and EPC eviction must shoot down TLBs on every core that may cache a
translation for the victim page.

The model is a capacity-bounded LRU map from virtual page number to a
:class:`TlbEntry`.  Entries additionally record which enclave context they
were validated under — not because real hardware tags them (it flushes
instead), but so the *simulator can detect* any violation of the
flush-on-transition discipline: reading through an entry validated under a
different context raises immediately in :meth:`lookup` assertions inside
tests (see ``repro.core.invariants``).

Each entry also carries the access plan its fill derived — physical base,
PRM/crypto flags and whether the core may move the frame's bytes itself
(:class:`TlbEntry`) — so a TLB hit *is* a plan hit.  There is no cache
beside the TLB: whatever flushes or shoots down an entry drops its plan
with it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

#: ``slots=True`` needs Python 3.10; on 3.9 the entry keeps a __dict__.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTS)
class TlbEntry:
    """One validated translation, which doubles as its access plan.

    The last four fields are filled in once, at fill time, by
    :meth:`repro.sgx.cpu.Core._translate`: a TLB hit on a ``direct``
    entry is served by the core's fast path without re-deriving any of
    them.  The plan holds addresses and flags only; the frame's bytes
    are looked up at serve time, because EREMOVE drops frames without
    flushing TLBs.  Entries built with the defaults (tests that forge
    TLB contents) are never ``direct``, so their hits take the reference
    ``lookup`` + memside path, which charges identically.
    """

    vpn: int
    pfn: int
    perms: int
    #: Enclave ID the validation ran under (0 = non-enclave mode).  Used
    #: only by invariant checking, never by lookup logic.
    context_eid: int
    #: Physical address of the page (``pfn << PAGE_SHIFT``).
    base: int = 0
    #: The page lies in the PRM (its LLC misses pass through the MEE).
    prm: bool = False
    #: PRM page whose DRAM bytes are genuine MEE ciphertext.
    crypto: bool = False
    #: The fast path may move this frame's bytes itself: the frame lies
    #: wholly inside DRAM (a PTE is OS-controlled input; other frames
    #: must reach the memside ``SgxFault`` check) and the machine is not
    #: in ``reference_paths`` mode.
    direct: bool = False


class Tlb:
    """Bounded LRU TLB."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        # Insertion-ordered dict, most-recently-used last: delete+reinsert
        # is the LRU promotion, ``next(iter(...))`` the LRU victim.
        self._entries: dict[int, TlbEntry] = {}
        self.flush_count = 0

    def lookup(self, vpn: int) -> TlbEntry | None:
        entries = self._entries
        ent = entries.get(vpn)
        if ent is not None:
            del entries[vpn]
            entries[vpn] = ent
        return ent

    def insert(self, entry: TlbEntry) -> None:
        entries = self._entries
        entries.pop(entry.vpn, None)
        entries[entry.vpn] = entry
        if len(entries) > self.capacity:
            del entries[next(iter(entries))]

    def flush(self) -> None:
        self._entries.clear()
        self.flush_count += 1

    def invalidate_pfn(self, pfn: int) -> int:
        """Drop every entry mapping to ``pfn``. Returns #dropped.

        Real x86 cannot do this (no reverse index), which is exactly why
        SGX eviction uses full flushes via IPIs; the method exists so tests
        can prove that *partial* invalidation would be insufficient.
        """
        victims = [vpn for vpn, e in self._entries.items() if e.pfn == pfn]
        for vpn in victims:
            del self._entries[vpn]
        return len(victims)

    def entries(self) -> list[TlbEntry]:
        return list(self._entries.values())

    # -- snapshot / restore (bounded model checking) -------------------------
    def capture(self) -> tuple:
        """Every entry, access plan included, as plain tuples (LRU first,
        MRU last) — an exact image :meth:`restore` rebuilds."""
        return tuple((e.vpn, e.pfn, e.perms, e.context_eid,
                      e.base, e.prm, e.crypto, e.direct)
                     for e in self._entries.values())

    def restore(self, snapshot: tuple) -> None:
        """Rebuild contents and recency from :meth:`capture`."""
        self._entries.clear()
        for fields in snapshot:
            self._entries[fields[0]] = TlbEntry(*fields)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries
