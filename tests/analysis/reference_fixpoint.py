"""Round-robin summary fixpoints for FLOW001 and FLOW002.

The differential oracle for the worklist solver in
:mod:`repro.analysis.flow.fixpoint`: every round re-analyses *every*
function against the previous round's summaries, and the loop stops
only when a whole round changes nothing.  There is no round cap, so a
helper chain of any depth is followed to the end.  It is slow (one
round per level of the deepest chain) but has no dependency tracking
to get wrong.  Only the per-function transfer functions are shared
with the production checks; each analysis here gets a fresh per-node
memo table, so a memo shared across one run's analyses is checked too.
"""

from __future__ import annotations

from repro.analysis.flow.charges import (ChargeSummary, _ChargeAnalysis,
                                         entry_point_findings)
from repro.analysis.flow.secret import Summary, _FunctionTaint


def reference_secret_flow(graph):
    """→ ``(findings, summaries)`` of FLOW001 by round-robin."""
    summaries = {fid: Summary() for fid in graph.functions}
    while True:
        changed = False
        findings: list = []
        for fid, info in graph.functions.items():
            analysis = _FunctionTaint(info, graph, summaries, {}, {})
            analysis.run()
            if summaries[fid].merge_key() != analysis.summary.merge_key():
                changed = True
            summaries[fid] = analysis.summary
            findings.extend(analysis.findings)
        if not changed:
            return sorted(set(findings)), summaries


def reference_charge_coverage(graph, entry_points):
    """→ ``(findings, summaries)`` of FLOW002 by round-robin."""
    summaries = {fid: ChargeSummary() for fid in graph.functions}
    while True:
        changed = False
        for fid, info in graph.functions.items():
            summary = _ChargeAnalysis(info, graph, summaries, {}).run()
            if (summary.always_charges, summary.uncharged_exits) != \
                    (summaries[fid].always_charges,
                     summaries[fid].uncharged_exits):
                changed = True
            summaries[fid] = summary
        if not changed:
            return entry_point_findings(graph, entry_points,
                                        summaries), summaries
