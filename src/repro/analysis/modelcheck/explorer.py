"""BFS state-space exploration over the real transition relation.

Every transition label is applied by calling the real ISA / driver entry
point against a restored snapshot; a transition that faults produces no
successor (the faulting call either pre-checks before mutating or its
partial effects are discarded with the snapshot).  States deduplicate via
:func:`repro.analysis.modelcheck.state.canonical_key`.

At every dequeued state the §VII-A audit and the MLS probes run; each
violation is minimized (greedy single-label removal with full replay) and
reported as an ``MC00x`` finding whose message embeds the counterexample
trace.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.core import nested_isa
from repro.errors import SgxFault
from repro.sgx import isa
from repro.sgx.constants import TCS_IDLE
from repro.sgx.eviction import inner_closure

from repro.analysis.findings import Finding
from repro.analysis.modelcheck import properties
from repro.analysis.modelcheck.minimize import minimize_trace
from repro.analysis.modelcheck.state import (canonical_key, restore,
                                             snapshot, space_digest)
from repro.analysis.modelcheck.world import World

#: Anchor for MC findings: the file whose automaton a counterexample
#: indicts (the nested validation logic under test).
FINDING_PATH = "repro/core/access.py"

#: Cap on reported findings per run so a badly broken validator produces
#: a readable report instead of thousands of counterexamples.
MAX_FINDINGS = 10


@dataclass
class CheckResult:
    scope: str
    state_count: int
    transition_count: int
    digest: str
    findings: list = field(default_factory=list)
    exhausted: bool = True


# -- transition enumeration and application ---------------------------------

def _idle_tcs(world: World, handle):
    machine = world.machine
    for offset in handle.image.tcs_offsets:
        vaddr = handle.base_addr + offset
        if machine.tcs(handle.eid, vaddr).state == TCS_IDLE:
            return vaddr
    return None


def _evictable(world: World, e: int) -> bool:
    """EWB preconditions: no core is executing inside the owner or any
    of its (transitive) inner enclaves, so no TLB can hold a validated
    translation for the page and the tracking epoch is already clean."""
    closure = inner_closure(world.machine, world.handles[e].secs)
    return not any(set(core.enclave_stack) & closure
                   for core in world.machine.cores)


def enabled_labels(world: World) -> list:
    labels = []
    for i, o in world.scope.edges:
        inner = world.handles[i].secs
        outer = world.handles[o].secs
        if outer.eid in inner.outer_eids:
            continue
        if inner.outer_eids and not world.scope.allow_lattice:
            continue
        labels.append(("nasso", i, o))
    touch_targets = [("E", e, p)
                     for e, h in enumerate(world.handles)
                     for p in range(world.scope.data_pages)
                     if world.data_vaddrs[e][p]
                     in world.driver.loaded[h.eid].resident]
    touch_targets += [("U", u)
                      for u in range(world.scope.unsecure_pages)]
    for c, core in enumerate(world.machine.cores):
        depth = len(core.enclave_stack)
        if depth == 0:
            for e, h in enumerate(world.handles):
                if _idle_tcs(world, h) is not None:
                    labels.append(("eenter", c, e))
        else:
            cur = core.enclave_stack[-1]
            for e, h in enumerate(world.handles):
                if cur in h.secs.outer_eids and \
                        _idle_tcs(world, h) is not None:
                    labels.append(("neenter", c, e))
            labels.append(("eexit", c) if depth == 1 else ("neexit", c))
        if len(core.tlb):
            labels.append(("flush", c))
        labels.extend(("touch", c, t) for t in touch_targets)
    if world.scope.num_cores > 1 and \
            any(len(core.tlb) for core in world.machine.cores):
        labels.append(("shootdown",))
    for e, h in enumerate(world.handles):
        entry = world.driver.loaded[h.eid]
        for p in range(world.scope.data_pages):
            vaddr = world.data_vaddrs[e][p]
            if vaddr in entry.evicted:
                labels.append(("reload", e, p))
            elif vaddr in entry.resident and _evictable(world, e):
                labels.append(("evict", e, p))
    return labels


def apply_label(world: World, label: tuple) -> None:
    """Apply one transition through the real entry points (may raise)."""
    kind = label[0]
    machine = world.machine
    if kind == "nasso":
        _, i, o = label
        world.driver.associate(world.handles[i].secs, world.handles[o].secs,
                               allow_lattice=world.scope.allow_lattice)
    elif kind == "eenter":
        _, c, e = label
        handle = world.handles[e]
        isa.eenter(machine, machine.cores[c], handle.secs,
                   _idle_tcs(world, handle))
    elif kind == "neenter":
        _, c, e = label
        handle = world.handles[e]
        nested_isa.neenter(machine, machine.cores[c], handle.secs,
                           _idle_tcs(world, handle))
    elif kind == "eexit":
        isa.eexit(machine, machine.cores[label[1]])
    elif kind == "neexit":
        nested_isa.neexit(machine, machine.cores[label[1]])
    elif kind == "flush":
        machine.cores[label[1]].flush_tlb()
    elif kind == "shootdown":
        machine.flush_all_tlbs()
    elif kind == "touch":
        _, c, target = label
        if target[0] == "E":
            vaddr = world.data_vaddrs[target[1]][target[2]]
        else:
            vaddr = world.unsecure_vaddrs[target[1]]
        machine.cores[c].read(vaddr, 8)
    elif kind == "evict":
        _, e, p = label
        world.driver.evict_page(world.handles[e].secs,
                                world.data_vaddrs[e][p])
    elif kind == "reload":
        _, e, p = label
        world.driver.reload_page(world.handles[e].secs,
                                 world.data_vaddrs[e][p])
    else:
        raise ValueError(f"unknown transition {kind!r}")


# -- trace / finding formatting ---------------------------------------------

def format_label(label: tuple) -> str:
    kind = label[0]
    if kind in ("eenter", "neenter"):
        return f"{kind}(core{label[1]}, E{label[2]})"
    if kind in ("eexit", "neexit", "flush"):
        return f"{kind}(core{label[1]})"
    if kind == "shootdown":
        return "shootdown"
    if kind == "nasso":
        return f"nasso(E{label[1]} -> outer E{label[2]})"
    if kind == "touch":
        _, c, target = label
        page = (f"E{target[1]}.data{target[2]}" if target[0] == "E"
                else f"U{target[1]}")
        return f"touch(core{c}, {page})"
    if kind in ("evict", "reload"):
        return f"{kind}(E{label[1]}.data{label[2]})"
    return repr(label)


def format_probe(probe: tuple) -> str:
    kind = probe[0]
    if kind == "audit":
        return "audit"
    if kind == "walk-budget":
        return f"probe walk-budget(core{probe[1]})"
    _, c, e, p = probe
    return f"probe {kind}(core{c}, E{e}.data{p})"


def format_trace(trace: list, probe: tuple) -> str:
    steps = [format_label(label) for label in trace]
    steps.append(format_probe(probe))
    return " -> ".join(steps)


# -- the explorer ------------------------------------------------------------

def explore(world: World, *, shuffle_seed=None,
            stop_on_violation: bool = False,
            max_states=None) -> CheckResult:
    """Exhaust the reachable state space of ``world``.

    ``shuffle_seed`` permutes the per-state transition enumeration order
    (seeded, deterministic); the reached state set and digest must be
    invariant under it.
    """
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    init_snap = snapshot(world)
    init_key = canonical_key(world)
    visited = {init_key: init_snap}
    parents = {init_key: None}
    queue = deque([init_key])
    transition_count = 0
    findings = []
    exhausted = True

    def trace_of(key) -> list:
        trace = []
        while parents[key] is not None:
            key, label = parents[key]
            trace.append(label)
        trace.reverse()
        return trace

    def report(key, violation) -> None:
        trace = minimize_trace(world, init_snap, trace_of(key),
                               violation.probe)
        findings.append(Finding(
            path=FINDING_PATH, line=1, rule=violation.rule,
            symbol=violation.probe[0],
            message=(f"{violation.detail}; trace: "
                     f"{format_trace(trace, violation.probe)}")))

    while queue:
        if (findings and stop_on_violation) or len(findings) >= MAX_FINDINGS:
            exhausted = False
            break
        if max_states is not None and len(visited) > max_states:
            exhausted = False
            break
        key = queue.popleft()
        snap = visited[key]
        restore(world, snap)
        for violation in properties.audit_violations(world):
            report(key, violation)
        restore(world, snap)  # minimization replays mutate the world
        for probe in properties.enumerate_probes(world):
            restore(world, snap)
            violation = properties.run_probe(world, probe)
            if violation is not None:
                report(key, violation)
        restore(world, snap)
        labels = enabled_labels(world)
        if rng is not None:
            rng.shuffle(labels)
        for label in labels:
            restore(world, snap)
            try:
                apply_label(world, label)
            except SgxFault:
                continue  # no successor; partial effects are discarded
            transition_count += 1
            succ_key = canonical_key(world)
            if succ_key not in visited:
                visited[succ_key] = snapshot(world)
                parents[succ_key] = (key, label)
                queue.append(succ_key)

    return CheckResult(scope=world.scope.name, state_count=len(visited),
                       transition_count=transition_count,
                       digest=space_digest(visited),
                       findings=sorted(set(findings)), exhausted=exhausted)
