"""Named single-edit weakenings (the mutation kill-list).

Most mutations are subclasses of the real :class:`NestedValidator`
overriding exactly one check; ``stale-tlb`` instead weakens the *memory
fast path*: each TLB entry is its page's access plan, so a TLB whose
flushes and shootdowns keep their entries serves translations validated
under a dead context.  ``--mutate`` builds a world with the mutant
installed and requires the explorer to kill it with a minimized
counterexample of the expected rule.  A surviving mutant means the
checker lost discrimination — the self-validation the paper-style
security argument needs before trusting "zero findings".

Every validator mutant is killed by a probe (``MC002``–``MC004``).  The
stale-TLB mutant is killed by ``MC001``, the bare-state invariant audit:
probes empty the TLB before they attempt an access, so a stale entry is
visible only as reachable state that breaks a §VII-A invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core import NestedValidator
from repro.sgx.access import ABORT, BaselineValidator, Decision, INSERT
from repro.sgx.tlb import Tlb


class DropVaMatch(NestedValidator):
    """Fig. 6 step 5: skip the EPCM VA comparison in the EID-mismatch
    fallback, so a lying page table can alias outer pages at wrong VAs."""

    def _va_matches(self, entry, vaddr: int) -> bool:
        return True


class SkipOutsideElrangePf(NestedValidator):
    """Fig. 6 steps 1-2: fall back to the baseline outside-ELRANGE
    behaviour (plain unsecure insert), losing the outer-ELRANGE #PF."""

    def on_outside_elrange(self, core, secs, vaddr, pte) -> Decision:
        return BaselineValidator.on_outside_elrange(
            self, core, secs, vaddr, pte)


class UnboundedOuterWalk(NestedValidator):
    """Drop both the seen-set and the depth bound from the outer-chain
    walk: terminates on every well-formed graph, hangs on a cycle."""

    def outer_chain(self, secs):
        chain = []
        frontier = list(secs.outer_eids)
        while frontier:
            next_frontier = []
            for eid in frontier:
                outer = self.machine.enclaves.get(eid)
                if outer is None:
                    continue
                chain.append(outer)
                next_frontier.extend(outer.outer_eids)
            frontier = next_frontier
        return chain


class AcceptUnrelatedOwner(NestedValidator):
    """Turn the unrelated-owner abort into an insert (a validator that
    forgot the automaton's default-deny arm)."""

    def on_eid_mismatch(self, core, secs, vaddr, paddr_page,
                        entry) -> Decision:
        decision = NestedValidator.on_eid_mismatch(
            self, core, secs, vaddr, paddr_page, entry)
        if decision.action == ABORT and "unrelated" in decision.reason:
            return Decision(INSERT, perms=entry.perms,
                            reason="mutant: accept unrelated owner")
        return decision


class StaleTlb(Tlb):
    """The TLB invalidation bug under test: ``flush`` and
    ``invalidate_pfn`` count the event but *keep every entry*.  Each TLB
    entry is its page's access plan, so a translation validated under a
    dead context keeps being served across transition flushes and
    shootdowns without ever re-running the Fig. 6 automaton."""

    def flush(self) -> None:
        self.flush_count += 1

    def invalidate_pfn(self, pfn: int) -> int:
        return 0


def _install_stale_tlb(world) -> None:
    """Swap every core's (empty, post-build) TLB for the stale mutant.
    ``build_world`` ends with a flush of all TLBs, so no contents need
    carrying over."""
    for core in world.machine.cores:
        core.tlb = StaleTlb(core.tlb.capacity)


@dataclass(frozen=True)
class Mutation:
    name: str
    validator_cls: type
    expected_rule: str
    description: str
    #: Optional post-build hook installing non-validator mutants.
    apply: Optional[Callable] = None


MUTATIONS = {
    "drop-va-match": Mutation(
        "drop-va-match", DropVaMatch, "MC002",
        "drop the VA-match check in the EID-mismatch fallback"),
    "skip-outside-elrange-pf": Mutation(
        "skip-outside-elrange-pf", SkipOutsideElrangePf, "MC003",
        "skip the outside-ELRANGE page-fault step"),
    "unbounded-outer-walk": Mutation(
        "unbounded-outer-walk", UnboundedOuterWalk, "MC004",
        "unbounded outer-chain walk (no seen-set, no depth cap)"),
    "accept-unrelated-owner": Mutation(
        "accept-unrelated-owner", AcceptUnrelatedOwner, "MC002",
        "accept EPC pages owned by unrelated enclaves"),
    "stale-tlb": Mutation(
        "stale-tlb", NestedValidator, "MC001",
        "TLB flushes and shootdowns keep their entries, so validated "
        "translations outlive the context they were validated under",
        apply=_install_stale_tlb),
}
