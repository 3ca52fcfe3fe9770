"""Flow-engine entry point: build the graph, run the four checks.

``run_flow(root)`` loads every module under ``src/repro`` (reusing the
:mod:`repro.analysis.pysource` loader, so suppressions and ``# flow:
charged`` annotations come along), builds the call graph, and runs
FLOW001–FLOW004, returning a :class:`FlowResult` whose ``report`` slots
into the existing findings/baseline/SARIF pipeline and whose ``stats``
are pinned by the test suite as a drift tripwire for the graph builder.
The checks report every finding; :func:`apply_suppressions` then drops
the ones an inline ``# flow: disable=RULE`` directive silences and
counts them in ``Report.suppressed``, like the simlint directives.
``stats`` also counts the function analyses the FLOW001/FLOW002
worklists ran (``secret_analyses``, ``charge_analyses``), the work
tripwire for the summary solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import AnalysisError, Report
from repro.analysis.flow.charges import check_charge_coverage
from repro.analysis.flow.config import DEFAULT_CONFIG, FlowConfig
from repro.analysis.flow.determinism import check_determinism_reachability
from repro.analysis.flow.graph import CallGraph, build_graph
from repro.analysis.flow.lifecycle import check_lifecycle_escape
from repro.analysis.flow.secret import check_secret_flow
from repro.analysis.pysource import iter_modules


@dataclass
class FlowResult:
    """Findings plus the engine's self-describing statistics."""

    report: Report
    graph: CallGraph
    stats: dict = field(default_factory=dict)


def apply_suppressions(graph: CallGraph, findings) -> tuple:
    """``(kept, suppressed)``: the distinct findings no inline directive
    on their line silences, and how many distinct findings were
    silenced."""
    modules = {module.path: module for module in graph.modules.values()}
    kept: list = []
    suppressed = 0
    for finding in sorted(set(findings)):
        module = modules.get(finding.path)
        if module is not None and module.suppressed(finding.line,
                                                    finding.rule):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def analyze_graph(graph: CallGraph,
                  config: FlowConfig = DEFAULT_CONFIG) -> FlowResult:
    """Run the four checks over an already-built graph."""
    secret_findings, secret = check_secret_flow(graph)
    charge_findings, charges = check_charge_coverage(
        graph, config.charge_entry_points)
    kept, suppressed = apply_suppressions(
        graph, secret_findings + charge_findings
        + check_determinism_reachability(graph, config)
        + check_lifecycle_escape(graph, config))
    report = Report(findings=kept, suppressed=suppressed, passes=["flow"])
    report.dedupe()
    stats = dict(graph.stats())
    stats["secret_summaries"] = sum(
        1 for summary in secret.summaries.values() if summary.nontrivial())
    stats["always_charging"] = sum(
        1 for summary in charges.summaries.values()
        if summary.always_charges)
    stats["secret_analyses"] = secret.analyses
    stats["charge_analyses"] = charges.analyses
    return FlowResult(report=report, graph=graph, stats=stats)


def run_flow(root: Path, config: FlowConfig = DEFAULT_CONFIG) -> FlowResult:
    """Analyze the ``src/repro`` tree under repo root ``root``."""
    package = root / "src" / "repro"
    if not package.is_dir():
        raise AnalysisError(f"no src/repro package under {root}")
    graph = build_graph(iter_modules(package, root / "src"))
    return analyze_graph(graph, config)
