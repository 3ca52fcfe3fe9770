"""FLOW002 — charge coverage of the memory-touch entry points.

Property: every *successful* (non-raising) path from a declared entry
point (``FlowConfig.charge_entry_points``: the Core read/write leaves,
whose fast-path helpers are covered through their callee summaries, the
memside accessors and the flush broadcasts) to a return passes through
at least one clock-advancing charge seam.  The TLB fast path fuses what
used to be per-access charges into one ``charge_run`` per serve —
golden fingerprints catch a missed charge only if a workload happens to
cover that path; this check proves it per path, statically.

A *charge seam* is recognised syntactically — no resolution needed for
the canonical spellings:

* ``<…cost|_cost>.charge*(…)`` method calls on a CostModel receiver;
* direct clock advances: ``clock._now_ns = …`` / ``+=`` assignments
  and ``*.clock.advance(…)`` calls (the hot paths write the clock
  attribute directly, see ``CostModel.charge``);

or through the call graph: a statement calling a function whose own
summary proves it always charges.  ``counters.*`` bumps are *not*
seams: counter increments are conditional bookkeeping, only the clock
is the property.  Intentionally charge-free paths carry a
``# flow: charged`` declared-intent annotation (zero-length accesses,
decline-and-fall-back returns, loops over non-empty-by-construction
collections); the annotation satisfies the obligation at that line and
is itself grep-able intent documentation.

The per-function summary (does it always charge before completing?) is
computed to fixpoint over the call graph, path-sensitively inside each
function: branches fork the charged-state, loops contribute their
zero-iteration fallthrough, raises exit without obligation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding
from repro.analysis.flow.graph import CallGraph, FunctionInfo

RULE = "FLOW002"

#: CostModel charging methods (see repro.perf.costmodel.CostModel).
_CHARGE_METHODS = frozenset({
    "charge", "charge_event", "charge_bytes", "charge_gcm",
    "charge_mee_lines", "charge_lines", "charge_run", "charge_work"})
#: Receiver tails that denote the cost model / its clock.
_COST_RECEIVERS = frozenset({"cost", "_cost"})
_CLOCK_RECEIVERS = frozenset({"clock", "_clock"})


def _receiver_tail(expr) -> str:
    """Last component of the receiver expression: ``self._cost`` →
    ``_cost``, ``machine.cost`` → ``cost``, bare ``cost`` → ``cost``."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


def _is_seam(node) -> bool:
    """Is this AST node (not a statement — any node) a charge seam?"""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) \
                    and target.attr == "_now_ns":
                return True
        return False
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        tail = _receiver_tail(node.func.value)
        if attr in _CHARGE_METHODS and tail in _COST_RECEIVERS:
            return True
        if attr == "advance" and tail in _CLOCK_RECEIVERS:
            return True
    return False


@dataclass
class ChargeSummary:
    """Fixpoint fact for one function."""

    always_charges: bool = False
    #: (line, description) of every statically-uncharged completion.
    uncharged_exits: tuple = ()


_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


class _ChargeAnalysis:
    """Path-sensitive abstract interpretation of one function body.

    The abstract state is the set of possible ``charged`` booleans on
    the live paths; statements map incoming state sets to outgoing
    ones.  Monotone (charging is never undone), so unions are sound.
    """

    def __init__(self, info: FunctionInfo, graph: CallGraph,
                 summaries: dict) -> None:
        self.info = info
        self.graph = graph
        self.summaries = summaries
        self.exits: list = []        # (line, charged: bool, what)

    def _annotated(self, stmt) -> bool:
        return stmt.lineno in self.info.module.charged

    def _bump(self, states: frozenset, node) -> frozenset:
        """Push one (non-compound) statement or expression through."""
        for sub in ast.walk(node):
            if isinstance(sub, _SKIP):
                continue
            if _is_seam(sub):
                return frozenset({True})
            if isinstance(sub, ast.Call):
                strong, weak = self.graph.resolve_call(self.info, sub)
                target = strong
                if target is None and len(weak) == 1:
                    # Unambiguous name match may contribute charge.
                    target = next(iter(weak))
                summary = self.summaries.get(target)
                if summary is not None and summary.always_charges:
                    return frozenset({True})
        return states

    def _block(self, stmts, states: frozenset) -> frozenset:
        for stmt in stmts:
            if not states:
                break
            states = self._stmt(stmt, states)
        return states

    def _stmt(self, stmt, states: frozenset) -> frozenset:
        annotated = self._annotated(stmt)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                states = self._bump(states, stmt.value)
            for charged in states:
                if not charged and not annotated:
                    self.exits.append(
                        (stmt.lineno, False, f"return at line {stmt.lineno}"))
            return frozenset()
        if isinstance(stmt, ast.Raise):
            return frozenset()   # error paths carry no charge obligation
        if isinstance(stmt, (ast.Break, ast.Continue)):
            # Loop-exit states are covered by the zero-iteration
            # fallthrough the loop rule already contributes.
            return frozenset()
        if isinstance(stmt, ast.If):
            states = self._bump(states, stmt.test)
            out = self._block(stmt.body, states) \
                | self._block(stmt.orelse, states)
            return frozenset({True}) if annotated and out else out
        if isinstance(stmt, (ast.While, ast.For)):
            head = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            states = self._bump(states, head)
            body_out = self._block(stmt.body, states)
            out = states | body_out \
                | self._block(stmt.orelse, states | body_out)
            return frozenset({True}) if annotated and out else out
        if isinstance(stmt, ast.Try):
            body_out = self._block(stmt.body, states)
            handler_out: frozenset = frozenset()
            for handler in stmt.handlers:
                # The exception may fire before any charge: enter the
                # handler with the pre-try states.
                handler_out |= self._block(handler.body, states)
            out = self._block(stmt.orelse, body_out) \
                if stmt.orelse else body_out
            out |= handler_out
            if stmt.finalbody:
                out = self._block(stmt.finalbody, out)
            return frozenset({True}) if annotated and out else out
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                states = self._bump(states, item.context_expr)
            out = self._block(stmt.body, states)
            return frozenset({True}) if annotated and out else out
        if isinstance(stmt, _SKIP):
            return states        # a def/class stmt executes no body
        out = self._bump(states, stmt)
        return frozenset({True}) if annotated else out

    def run(self) -> ChargeSummary:
        final = self._block(self.info.node.body, frozenset({False}))
        end = getattr(self.info.node, "end_lineno", self.info.node.lineno)
        for charged in final:
            if not charged:
                self.exits.append((end, False, "implicit return"))
        uncharged = tuple(sorted(
            (line, what) for line, charged, what in self.exits
            if not charged))
        return ChargeSummary(always_charges=not uncharged,
                             uncharged_exits=uncharged)


def check_charge_coverage(graph: CallGraph, entry_points,
                          max_rounds: int = 6):
    """Fixpoint summaries, then findings for entry-point violations.

    Returns ``(findings, summaries)``.
    """
    summaries: dict = {fid: ChargeSummary() for fid in graph.functions}
    for _ in range(max_rounds):
        changed = False
        for fid, info in graph.functions.items():
            summary = _ChargeAnalysis(info, graph, summaries).run()
            if (summary.always_charges,
                    summary.uncharged_exits) != \
                    (summaries[fid].always_charges,
                     summaries[fid].uncharged_exits):
                changed = True
            summaries[fid] = summary
        if not changed:
            break
    findings: list = []
    for fid in entry_points:
        info = graph.functions.get(fid)
        if info is None:
            findings.append(Finding(
                path="", line=0, rule=RULE,
                message=f"configured charge entry point {fid} does not "
                        "exist — update FlowConfig.charge_entry_points",
                symbol=fid))
            continue
        summary = summaries[fid]
        for line, what in summary.uncharged_exits:
            if info.module.suppressed(line, RULE):
                continue
            findings.append(Finding(
                path=info.module.path, line=line, rule=RULE,
                message=(f"memory-touch entry point completes without a "
                         f"CostModel charge seam: {info.qualname} → "
                         f"{what} (annotate '# flow: charged' if this "
                         "path provably touches no memory)"),
                symbol=info.qualname))
    return sorted(set(findings)), summaries
