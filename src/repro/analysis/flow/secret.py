"""FLOW001 — whole-repo secret flow into ocall / transition-log sinks.

The taint pass (:mod:`repro.analysis.taint`) proves the property for a
hand-maintained allowlist of boundary modules; FLOW001 supersedes that
allowlist by computing the same per-function summaries over *every*
function in the tree, resolving helper calls through the call graph's
strong edges so a key laundered through helpers in any module is still
caught — and the finding message carries the full call path.

Sources, sanitizers and sink shapes are identical to the taint pass
(EGETKEY results, secret-named parameters/attributes; seal/encrypt
declassify; ``*.ocall(…)`` arguments and transition-log payloads sink).
Cross-function flow facts: which parameters reach the return value,
whether the return is tainted regardless of arguments, and which
parameters reach a sink — the last carrying the *call chain*, so a
caller several hops above the sink reports ``via helper → shipper →
sink`` (deeper than the taint pass, whose summaries stop one hop above
a sink).

Summaries are solved by the dependency-driven worklist of
:mod:`repro.analysis.flow.fixpoint`: every function is analysed once,
and a function is analysed again only when the summary of a callee it
looked up changes (its ``merge_key()``), so a helper stack of any depth
converges and the findings are those of each function's latest
analysis.  A sink fact records the (function, parameter) pairs it was
lifted through and is never lifted into a pair it already passed, so a
recursive helper that reaches a sink after its recursive call keeps its
direct fact instead of growing an ever longer chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.flow.fixpoint import solve
from repro.analysis.flow.graph import CallGraph, FunctionInfo
from repro.analysis.taint import (_SANITIZER_CALLS, _SOURCE_CALLS,
                                  _is_secret_name)

RULE = "FLOW001"

Labels = frozenset


@dataclass(frozen=True)
class SinkFact:
    """A parameter-to-sink fact with its interprocedural witness."""

    line: int                    # call/sink line in *this* function
    kind: str                    # "ocall" | "transition-log"
    via: tuple = ()              # (callee fid, param index) walked to it
    sink_line: int = 0           # line of the innermost sink


@dataclass
class Summary:
    """What one function does with taint, learned to fixpoint."""

    param_to_return: set = field(default_factory=set)
    return_labels: Labels = frozenset()
    param_to_sink: dict = field(default_factory=dict)  # index -> SinkFact

    def merge_key(self):
        return (frozenset(self.param_to_return), self.return_labels,
                tuple(sorted((i, f.line, f.kind, f.via, f.sink_line)
                             for i, f in self.param_to_sink.items())))

    def nontrivial(self) -> bool:
        return bool(self.param_to_return or self.return_labels
                    or self.param_to_sink)


def _is_transition_sink(func: ast.Attribute) -> bool:
    if func.attr == "log_transition":
        return True
    return (func.attr == "record"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "transitions")


def _sink_calls(expr) -> tuple:
    """``(call, kind)`` for every sink call in ``expr``, in walk order."""
    out = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            if node.func.attr == "ocall":
                out.append((node, "ocall"))
            elif _is_transition_sink(node.func):
                out.append((node, "transition-log"))
    return tuple(out)


class _FunctionTaint(ast.NodeVisitor):
    """One intraprocedural pass with call-graph-resolved summaries."""

    def __init__(self, info: FunctionInfo, graph: CallGraph,
                 summaries: dict, sinks: dict) -> None:
        self.info = info
        self.graph = graph
        self.summaries = summaries
        #: expr node -> its sink calls; shared by one run's analyses.
        self.sinks = sinks
        #: fids whose summaries this analysis looked up (ordered set).
        self.reads: dict = {}
        self.env: dict = {}
        self.param_names = list(info.params)
        self.param_labels: dict = {}
        for name in self.param_names:
            labels = {f"param:{info.qualname}:{name}"}
            if _is_secret_name(name):
                labels.add(f"secret-param:{name}")
            self.param_labels[name] = frozenset(labels)
        self.env.update(self.param_labels)
        self.summary = Summary()
        self.findings: list = []

    def _param_index(self, label: str):
        for index, pname in enumerate(self.param_names):
            if label in self.param_labels[pname]:
                return index
        return None

    # -- expression taint ---------------------------------------------------
    def taint_of(self, node) -> Labels:
        if node is None:
            return frozenset()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            labels = set(self.taint_of(node.value))
            if _is_secret_name(node.attr):
                labels.add(f"secret-attr:{node.attr}")
            return frozenset(labels)
        if isinstance(node, ast.Call):
            return self._taint_of_call(node)
        if isinstance(node, ast.Compare):
            return frozenset()      # booleans declassify
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return frozenset()      # separate nodes of the graph
        out: set = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.taint_of(child)
        return frozenset(out)

    def _taint_of_call(self, node: ast.Call) -> Labels:
        func = node.func
        bare = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if bare in _SANITIZER_CALLS:
            return frozenset()
        if bare in _SOURCE_CALLS:
            return frozenset({f"egetkey:{self.info.qualname}"})
        target, _weak = self.graph.resolve_call(self.info, node)
        summary = None
        if target:
            self.reads[target] = None
            summary = self.summaries.get(target)
        if summary is not None:
            labels = set(summary.return_labels)
            for index, arg in enumerate(node.args):
                if index in summary.param_to_return:
                    labels |= self.taint_of(arg)
                fact = summary.param_to_sink.get(index)
                if fact is None:
                    continue
                lifted = SinkFact(
                    line=node.lineno, kind=fact.kind,
                    via=((target, index),) + fact.via,
                    sink_line=fact.sink_line)
                arg_labels = self.taint_of(arg)
                # Only *secret* labels indict this caller; a plain param
                # label means a further caller's value reaches the sink,
                # which is that caller's report — so lift the fact into
                # our own summary with the callee prepended.
                secret = frozenset(label for label in arg_labels
                                   if not label.startswith("param:"))
                if secret:
                    self._report(node.lineno, secret, lifted)
                for label in arg_labels:
                    pindex = self._param_index(label)
                    if pindex is not None and \
                            (self.info.fid, pindex) not in lifted.via:
                        self.summary.param_to_sink.setdefault(
                            pindex, lifted)
            return frozenset(labels)
        # Unknown callee: conservative, taint flows through (the
        # receiver of a method call counts as an argument).
        out: set = set()
        for arg in list(node.args) + [k.value for k in node.keywords]:
            out |= self.taint_of(arg)
        if isinstance(func, ast.Attribute):
            out |= self.taint_of(func.value)
        return frozenset(out)

    # -- statements ---------------------------------------------------------
    def _assign(self, target, labels: Labels) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = labels
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, labels)

    def visit_FunctionDef(self, node) -> None:
        return None             # nested defs are their own graph nodes

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        labels = self.taint_of(node.value)
        for target in node.targets:
            self._assign(target, labels)
        self._scan_expr_for_sinks(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._assign(node.target, self.taint_of(node.value))
            self._scan_expr_for_sinks(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            self.env[node.target.id] = \
                self.env.get(node.target.id, frozenset()) \
                | self.taint_of(node.value)
        self._scan_expr_for_sinks(node.value)

    def visit_Return(self, node: ast.Return) -> None:
        for label in self.taint_of(node.value):
            index = self._param_index(label)
            if index is not None:
                self.summary.param_to_return.add(index)
            else:
                self.summary.return_labels |= {label}
        self._scan_expr_for_sinks(node.value)

    def visit_Expr(self, node: ast.Expr) -> None:
        self._scan_expr_for_sinks(node.value)

    def generic_visit(self, node) -> None:
        if isinstance(node, (ast.If, ast.While)):
            self._scan_expr_for_sinks(node.test)
        elif isinstance(node, ast.For):
            self._scan_expr_for_sinks(node.iter)
        super().generic_visit(node)

    # -- sinks --------------------------------------------------------------
    def _scan_expr_for_sinks(self, expr) -> None:
        if expr is None:
            return
        self.taint_of(expr)     # triggers summary-based reporting
        sinks = self.sinks.get(expr)
        if sinks is None:
            sinks = self.sinks[expr] = _sink_calls(expr)
        for node, kind in sinks:
            self._check_sink(node, kind)

    def _check_sink(self, node: ast.Call, kind: str) -> None:
        # First positional argument names the interface/event, not data.
        payload = node.args[1:] + [k.value for k in node.keywords]
        fact = SinkFact(line=node.lineno, kind=kind,
                        sink_line=node.lineno)
        for arg in payload:
            labels = self.taint_of(arg)
            if not labels:
                continue
            secret = {label for label in labels
                      if not label.startswith("param:")}
            if secret:
                self._report(node.lineno, frozenset(secret), fact)
            for label in labels:
                index = self._param_index(label)
                if index is not None:
                    self.summary.param_to_sink.setdefault(index, fact)

    def _report(self, line: int, labels: Labels, fact: SinkFact) -> None:
        chain = tuple(self.graph.functions[fid].qualname
                      for fid, _index in fact.via)
        path = " → ".join(
            (self.info.qualname,) + chain
            + (f"{fact.kind} sink at line {fact.sink_line}",))
        origin = ", ".join(sorted(labels))
        message = (f"key material ({origin}) reaches a {fact.kind} "
                   f"payload outside enclave trust: {path}")
        if not self.info.module.suppressed(line, RULE):
            self.findings.append(Finding(
                path=self.info.module.path, line=line, rule=RULE,
                message=message, symbol=self.info.qualname))

    def run(self) -> None:
        # Two rounds stabilise taint through loops / use-before-def.
        for _ in range(2):
            self.findings.clear()
            for stmt in self.info.node.body:
                self.visit(stmt)


def check_secret_flow(graph: CallGraph):
    """Worklist fixpoint over all function summaries.

    Returns ``(findings, fixpoint)``; ``fixpoint.summaries`` maps every
    fid to its :class:`Summary`.
    """
    findings: dict = {}          # fid -> findings of its latest analysis
    sinks: dict = {}

    def analyse(info: FunctionInfo, summaries: dict):
        analysis = _FunctionTaint(info, graph, summaries, sinks)
        analysis.run()
        findings[info.fid] = analysis.findings
        return analysis.summary, analysis.reads

    fixpoint = solve(graph, Summary, analyse,
                     lambda old, new: old.merge_key() != new.merge_key())
    return sorted({f for fs in findings.values() for f in fs}), fixpoint
