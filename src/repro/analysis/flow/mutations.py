"""Mutation corpus proving the flow engine catches what it claims to.

Each :class:`FlowMutation` is one named, surgical defect — a dropped
charge, a key laundered through fresh helpers, a host-clock read above
a fingerprint fold, a lifecycle write smuggled into the driver —
applied to a throwaway copy of ``src/repro`` (the mutant is only ever
*analyzed*, never imported or executed).  A mutation is **killed** when
the engine reports a *new* finding of the expected rule whose message
carries a call-path witness (the ``→`` chain).  ``--mutate all`` must
kill 100% — a surviving mutant means a soundness regression in the
graph or a summary rule, and the kill list is pinned by the test suite.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.findings import AnalysisError
from repro.analysis.flow.config import DEFAULT_CONFIG
from repro.analysis.flow.engine import run_flow


@dataclass(frozen=True)
class FlowMutation:
    """One named single-edit defect."""

    name: str
    path: str                 # repo-relative file to mutate
    expected_rule: str
    description: str
    before: str | None = None   # exact unique snippet to replace …
    after: str | None = None    # … with this
    append: str | None = None   # and/or text appended to the same file


MUTATIONS: tuple = (
    FlowMutation(
        name="drop-plan-run-charge",
        path="src/repro/sgx/cpu.py",
        expected_rule="FLOW002",
        description="delete the fused charge_run cost seam on the TLB "
                    "fast path's multi-page runs",
        before=("            self._counters.charge_run("
                "len(run), hits, misses, 0, mee)\n"
                "        self._cost.charge_run("
                "len(run), hits, misses, mee)\n"),
        after=("            self._counters.charge_run("
               "len(run), hits, misses, 0, mee)\n")),
    FlowMutation(
        name="drop-memside-read-charge",
        path="src/repro/sgx/machine.py",
        expected_rule="FLOW002",
        description="delete the clock advance in Machine.memside_read",
        before=("        clock = self.clock\n"
                "        clock._now_ns = clock._now_ns + total\n"
                "        if self._mee_bytes and in_prm:\n"
                "            return self._read_prm_plaintext(paddr, size)\n"),
        after=("        clock = self.clock\n"
               "        if self._mee_bytes and in_prm:\n"
               "            return self._read_prm_plaintext(paddr, size)\n")),
    FlowMutation(
        name="helper-chain-key-ocall",
        path="src/repro/os/kernel.py",
        expected_rule="FLOW001",
        description="launder a secret-named key through a fresh helper "
                    "into an ocall payload",
        append=("\n\n"
                "def _ship_key(ctx, blob):\n"
                "    ctx.ocall(\"debug_key\", blob)\n"
                "\n\n"
                "def _debug_key_probe(ctx, session_key):\n"
                "    _ship_key(ctx, session_key)\n")),
    FlowMutation(
        name="egetkey-chain-transition-log",
        path="src/repro/sdk/attest.py",
        expected_rule="FLOW001",
        description="pass EGETKEY material through a helper into a "
                    "transition-log payload",
        append=("\n\n"
                "def _record_quote(machine, material):\n"
                "    machine.log_transition(\"QUOTE_AUDIT\", "
                "material=material)\n"
                "\n\n"
                "def _audit_quote(machine, core):\n"
                "    _record_quote(machine, "
                "isa.egetkey(machine, core, \"seal\"))\n")),
    FlowMutation(
        name="clock-above-fingerprint-fold",
        path="src/repro/sgx/eviction.py",
        expected_rule="FLOW003",
        description="read the host clock inside ewb(), which is "
                    "reachable from the eviction-pressure workload",
        before="    tag = mac(key, meta + ciphertext)\n",
        after=("    import time\n"
               "    time.time()\n"
               "    tag = mac(key, meta + ciphertext)\n")),
    FlowMutation(
        name="clock-under-attested-handshake",
        path="src/repro/sdk/attest.py",
        expected_rule="FLOW003",
        description="launder a host-clock read through a helper under "
                    "mutual_attest — reachable from the serving "
                    "layer's gateway enrollment, whose admit/shed "
                    "decisions feed the chaos fingerprints",
        before="    if replay_guard is not None:\n"
               "        replay_guard.consume(nonce)\n",
        after=("    _wall_probe()\n"
               "    if replay_guard is not None:\n"
               "        replay_guard.consume(nonce)\n"),
        append=("\n\n"
                "def _wall_probe():\n"
                "    import time\n"
                "    time.time()\n")),
    FlowMutation(
        name="driver-helper-parks-tcs",
        path="src/repro/os/driver.py",
        expected_rule="FLOW004",
        description="mutate Secs.state through a driver-local helper "
                    "outside the ISA allowlist",
        before=("        blob = eviction.ewb(self.machine, frame, "
                "self._version_array(),\n"),
        after=("        _park_enclave_state(secs)\n"
               "        blob = eviction.ewb(self.machine, frame, "
               "self._version_array(),\n"),
        append=("\n\n"
                "def _park_enclave_state(secs):\n"
                "    secs.state = \"PARKED\"\n")),
)


@dataclass
class MutationOutcome:
    """Result of analyzing one mutant."""

    name: str
    expected_rule: str
    killed: bool
    witness: str = ""           # the killing finding's rendered form


def _apply(mutation: FlowMutation, root: Path) -> None:
    target = root / mutation.path
    text = target.read_text()
    if mutation.before is not None:
        count = text.count(mutation.before)
        if count != 1:
            raise AnalysisError(
                f"mutation {mutation.name}: anchor occurs {count} times "
                f"in {mutation.path} (need exactly 1) — the corpus is "
                "stale, update its before/after snippets")
        text = text.replace(mutation.before, mutation.after)
    if mutation.append is not None:
        text += mutation.append
    target.write_text(text)


def run_mutation(mutation: FlowMutation, repo_root: Path,
                 baseline: frozenset) -> MutationOutcome:
    """Copy the tree, apply one defect, analyze, judge the kill."""
    with tempfile.TemporaryDirectory(prefix="flow-mutate-") as tmp:
        scratch = Path(tmp)
        shutil.copytree(repo_root / "src" / "repro",
                        scratch / "src" / "repro")
        _apply(mutation, scratch)
        result = run_flow(scratch, DEFAULT_CONFIG)
    for finding in result.report.findings:
        if finding.rule != mutation.expected_rule:
            continue
        if finding.fingerprint in baseline:
            continue
        if "→" not in finding.message:
            continue
        return MutationOutcome(name=mutation.name,
                               expected_rule=mutation.expected_rule,
                               killed=True, witness=finding.render())
    return MutationOutcome(name=mutation.name,
                           expected_rule=mutation.expected_rule,
                           killed=False)


def run_flow_mutations(repo_root: Path, names=None) -> list:
    """Run the corpus (or the named subset) against ``repo_root``."""
    selected = [m for m in MUTATIONS if names is None or m.name in names]
    if names is not None:
        known = {m.name for m in MUTATIONS}
        unknown = set(names) - known
        if unknown:
            raise AnalysisError(
                f"unknown flow mutation(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}")
    pristine = run_flow(repo_root, DEFAULT_CONFIG)
    baseline = frozenset(f.fingerprint for f in pristine.report.findings)
    return [run_mutation(m, repo_root, baseline) for m in selected]
