"""Seeded single-file defects for the flow-analysis workload.

Each edit targets the frozen corpus in ``corpus/repro.tar.xz`` (a copy
of ``src/repro``, analysed and never imported), so its anchor cannot
drift as ``src/`` changes.  An edit injects one defect that the flow
engine must report under ``rule``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Edit:
    path: str            # corpus-relative file
    rule: str            # FLOW rule the defect must trip
    before: str = ""     # unique snippet to replace ...
    after: str = ""      # ... with this
    append: str = ""     # text appended to the same file

    def apply(self, root: Path) -> None:
        target = root / self.path
        text = target.read_text()
        if self.before:
            if text.count(self.before) != 1:
                raise ValueError(f"{self.path}: edit anchor is not unique")
            text = text.replace(self.before, self.after)
        target.write_text(text + self.append)


EDITS: dict[str, Edit] = {
    # A transition flush that no longer charges simulated time.
    "uncharged-tlb-flush": Edit(
        "src/repro/sgx/cpu.py", "FLOW002",
        before=("        self.tlb.flush()\n"
                "        self.machine.cost.charge_event(\"tlb_flush\")\n"),
        after="        self.tlb.flush()\n"),
    # The cost-model-only line charger forgets to advance the clock.
    "uncharged-line-charger": Edit(
        "src/repro/sgx/machine.py", "FLOW002",
        before=("        clock = self.clock\n"
                "        clock._now_ns = clock._now_ns + total\n\n"
                "    # The memside accessors"),
        after="\n    # The memside accessors"),
    # A tenant key shipped to an ocall through two fresh helpers.
    "tenant-key-to-ocall": Edit(
        "src/repro/apps/ports/dbservice.py", "FLOW001",
        append=("\n\n"
                "def _forward_blob(ctx, blob):\n"
                "    ctx.ocall(\"audit\", blob)\n"
                "\n\n"
                "def _audit_tenant(ctx, tenant_key):\n"
                "    _forward_blob(ctx, tenant_key)\n")),
    # Admission control consults the host clock, so shed decisions
    # (and the serving fingerprints) would depend on host speed.
    "host-clock-in-admission": Edit(
        "src/repro/host/admission.py", "FLOW003",
        before=("    def try_take(self, now_ns: float) -> bool:\n"
                "        self._refill(now_ns)\n"),
        after=("    def try_take(self, now_ns: float) -> bool:\n"
               "        _host_now()\n"
               "        self._refill(now_ns)\n"),
        append=("\n\n"
                "def _host_now():\n"
                "    import time\n"
                "    return time.monotonic()\n")),
    # The driver retires an enclave through a helper outside the ISA.
    "driver-helper-retires-secs": Edit(
        "src/repro/os/driver.py", "FLOW004",
        before=("            entry.proc.space.unmap_page(vaddr)\n"
                "        isa.eremove(self.machine, secs)\n"),
        after=("            entry.proc.space.unmap_page(vaddr)\n"
               "        _retire(secs)\n"
               "        isa.eremove(self.machine, secs)\n"),
        append=("\n\n"
                "def _retire(secs):\n"
                "    secs.state = \"RETIRED\"\n")),
}
