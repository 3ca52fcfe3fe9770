"""Dependency-driven worklist for per-function summaries.

FLOW001 and FLOW002 each learn one summary per call-graph node, and a
function's summary depends only on the callee summaries its analysis
looked up.  :func:`solve` seeds a queue with every function in
``graph.functions`` order, collects from each analysis the callee fids
it looked up, and, when a summary changes in a way its readers can
observe, re-queues exactly the functions that read it.  The cost grows
with what changes, not with the depth of the deepest helper chain, and
there is no round cap to cut a chain short.

Convergence is each check's business (FLOW002's summaries only ever
flip from "may skip a charge" to "always charges"; FLOW001's sink
chains never revisit a (function, parameter) pair).  The work bound
below is a tripwire for a check that loses that property: exceeding it
raises :class:`AnalysisError` rather than returning unconverged
summaries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.analysis.findings import AnalysisError
from repro.analysis.flow.graph import CallGraph

#: Analyses allowed per function before the solver gives up.
MAX_ANALYSES_PER_FUNCTION = 64


@dataclass
class Fixpoint:
    """Converged summaries plus the work it took to reach them."""

    summaries: dict              # fid -> summary
    analyses: int                # function analyses run


def solve(graph: CallGraph, initial: Callable, analyse: Callable,
          changed: Callable) -> Fixpoint:
    """Run ``analyse(info, summaries) -> (summary, reads)`` to a
    fixpoint, where ``reads`` iterates over the fids whose summaries the
    analysis looked up (in a deterministic order: it sets re-queue
    order).

    ``initial()`` makes the starting summary of every function, and
    ``changed(old, new)`` says whether a new summary differs in a way
    that the functions which read the old one could observe.
    """
    summaries = {fid: initial() for fid in graph.functions}
    readers: dict = {}           # callee fid -> {reader fid: None}
    queue = deque(graph.functions)
    queued = set(queue)
    limit = MAX_ANALYSES_PER_FUNCTION * len(summaries)
    analyses = 0
    while queue:
        fid = queue.popleft()
        queued.discard(fid)
        analyses += 1
        if analyses > limit:
            raise AnalysisError(
                f"flow summaries did not converge within {limit} "
                f"function analyses (last: {fid})")
        summary, reads = analyse(graph.functions[fid], summaries)
        for callee in reads:
            readers.setdefault(callee, {})[fid] = None
        old, summaries[fid] = summaries[fid], summary
        if changed(old, summary):
            for reader in readers.get(fid, ()):
                if reader not in queued:
                    queued.add(reader)
                    queue.append(reader)
    return Fixpoint(summaries=summaries, analyses=analyses)
