"""Snapshot/restore and canonical hashing of world states.

Two distinct representations:

* A **snapshot** is an exact, restorable image of every piece of mutable
  state a transition can touch: per-core stacks and TLB contents, EPCM,
  EPC allocator, the (shared) page table, per-SECS association lists, TCS
  states, the driver's resident/evicted maps and version-array slots.
  Restoring a snapshot and re-applying a transition reproduces the
  original decision exactly.

* A **canonical key** quotients snapshots by everything that provably
  cannot influence any future access decision, so that behaviourally
  identical states dedupe:

  - Physical EPC frame numbers are renamed to (owner index, page ordinal)
    via the EPCM, and ordinary frames via a pfn->index map fixed at build
    time: ELDB mints a fresh frame on every reload, so raw pfns are
    trace-dependent while the logical page they back is not.
  - EWB blobs, version-array slot values and the clock/cost/counter state
    are excluded: seal versions derive from the simulated clock, and none
    of them feed back into the validation automaton.
  - TLB recency (LRU order) is dropped (sorted): scope TLBs never reach
    capacity, so recency cannot influence future contents.
  - Association lists are sorted: the validator's chain walk and NASSO's
    gating are set-like over ``outer_eids``.
  - EPCM/page-table/resident maps are derived from the per-enclave
    evicted sets at quiescent states (transitions are applied
    transactionally), so only the evicted page ordinals are keyed.
"""

from __future__ import annotations

import hashlib

from repro.sgx.constants import PAGE_SHIFT

from repro.analysis.modelcheck.world import World


# -- exact snapshots ---------------------------------------------------------

def snapshot(world: World) -> tuple:
    m = world.machine
    cores = tuple((tuple(c.enclave_stack), tuple(c.tcs_stack),
                   c.tlb.capture()) for c in m.cores)
    secs = tuple((h.secs.outer_eid, tuple(h.secs.outer_eids),
                  tuple(h.secs.inner_eids)) for h in world.handles)
    tcs = tuple(t.state for _key, t in sorted(m.tcs_registry.items()))
    drv = tuple((tuple(world.driver.loaded[h.eid].resident.items()),
                 tuple(world.driver.loaded[h.eid].evicted.items()))
                for h in world.handles)
    va = world.driver._va
    va_slots = tuple(va.slots) if va is not None else None
    return (cores, secs, tcs, m.epcm.capture(), m.epc_alloc.capture(),
            world.space.capture(), drv, va_slots)


def restore(world: World, snap: tuple) -> None:
    cores, secs, tcs, epcm, alloc, space, drv, va_slots = snap
    for core, (stack, tstack, tlb) in zip(world.machine.cores, cores):
        core.enclave_stack[:] = stack
        core.tcs_stack[:] = tstack
        core.tlb.restore(tlb)
    for h, (outer_eid, outer_eids, inner_eids) in zip(world.handles, secs):
        h.secs.outer_eid = outer_eid
        h.secs.outer_eids[:] = outer_eids
        h.secs.inner_eids[:] = inner_eids
    for (_key, t), state in zip(sorted(world.machine.tcs_registry.items()),
                                tcs):
        t.state = state
    world.machine.epcm.restore(epcm)
    world.machine.epc_alloc.restore(alloc)
    world.space.restore(space)
    for h, (resident, evicted) in zip(world.handles, drv):
        entry = world.driver.loaded[h.eid]
        entry.resident.clear()
        entry.resident.update(resident)
        entry.evicted.clear()
        entry.evicted.update(evicted)
    if va_slots is not None:
        world.driver._va.slots[:] = list(va_slots)


# -- canonical keys ----------------------------------------------------------

def _logical_frame(world: World, pfn: int) -> tuple:
    cfg = world.machine.config
    paddr = pfn << PAGE_SHIFT
    if cfg.epc_base <= paddr < cfg.epc_base + cfg.epc_bytes:
        entry = world.machine.epcm.entry(paddr)
        if entry.valid and entry.eid in world.eid_index:
            idx = world.eid_index[entry.eid]
            base = world.handles[idx].base_addr
            return ("E", idx, (entry.vaddr - base) >> PAGE_SHIFT)
        return ("E", -1, pfn)
    return ("U", world.unsecure_frame_index.get(pfn, pfn), 0)


def canonical_key(world: World) -> tuple:
    assoc = tuple(
        tuple(sorted(world.eid_index[e] for e in h.secs.outer_eids))
        for h in world.handles)
    evicted = tuple(
        tuple(sorted((v - h.base_addr) >> PAGE_SHIFT
                     for v in world.driver.loaded[h.eid].evicted))
        for h in world.handles)
    idx = world.eid_index
    cores = tuple(
        (tuple(idx[e] for e in c.enclave_stack),
         tuple(c.tcs_stack),
         tuple(sorted((e.vpn, _logical_frame(world, e.pfn), e.perms,
                       idx.get(e.context_eid, -1))
                      for e in c.tlb.entries())))
        for c in world.machine.cores)
    return (assoc, evicted, cores)


def space_digest(keys) -> str:
    """Order-independent digest of a set of canonical keys."""
    h = hashlib.sha256()
    for text in sorted(repr(k) for k in keys):
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()
