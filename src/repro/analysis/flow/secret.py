"""FLOW001 — whole-repo secret flow into ocall / transition-log sinks.

The nested layouts exist to keep key material inside the inner enclave;
an ``ocall`` argument leaves enclave mode entirely, and a transition-log
payload is folded into digests that ship in results documents.  FLOW001
proves key material reaches neither: it computes per-function taint
summaries over *every* function in the tree, resolving helper calls
through the call graph's strong edges, so a key laundered through
helpers in any module is caught — and the finding carries the full
call path.

Sources
    ``get_key``/``egetkey``/``nereport_key`` results (EGETKEY), and
    parameters or attributes named like key material (``key``,
    ``*_key``, ``psk``, ``secret*``, ``priv*``); see
    :mod:`repro.analysis.flow.config`.
Sanitizers
    ``seal``/``seal_record``/``encrypt``/``seal_out`` results are
    ciphertext; comparisons declassify (a verdict is not the key).
Sinks
    The payload arguments of ``*.ocall(name, …)`` (the first argument
    names the interface) and of ``*.log_transition(…)`` /
    ``*.transitions.record(…)`` (the first argument is the event kind).
    When the module embeds ``*_EDL`` constants that declare ``name`` in
    an ``untrusted`` section, the finding names the declared parameter
    the key lands in.  ``n_ocall`` lands in the outer enclave, a trusted
    sibling, and is not a sink (EDL003 covers secret-named parameters
    on that boundary).

Cross-function flow facts: which parameters reach the return value,
whether the return is tainted regardless of arguments, and which
parameters reach a sink — the last carrying the *call chain*, so a
caller several hops above the sink reports ``via helper → shipper →
sink``.

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

from repro.analysis.edl_lint import scan_edl_constants
from repro.analysis.findings import Finding
from repro.analysis.flow.config import (SANITIZER_CALLS, SOURCE_CALLS,
                                        is_secret_name)
from repro.analysis.flow.fixpoint import solve
from repro.analysis.flow.graph import CallGraph, FunctionInfo
from repro.analysis.pysource import Module

RULE = "FLOW001"

Labels = frozenset


@dataclass(frozen=True)
class SinkFact:
    """A parameter-to-sink fact with its interprocedural witness."""

    line: int                    # call/sink line in *this* function
    kind: str                    # "ocall" | "transition-log"
    via: tuple = ()              # (callee fid, param index) walked to it
    sink_line: int = 0           # line of the innermost sink
    #: EDL-declared untrusted parameter the value lands in, if any.
    param: str | None = None


@dataclass
class Summary:
    """What one function does with taint, learned to fixpoint."""

    param_to_return: set = field(default_factory=set)
    return_labels: Labels = frozenset()
    param_to_sink: dict = field(default_factory=dict)  # index -> SinkFact

    def merge_key(self):
        return (frozenset(self.param_to_return), self.return_labels,
                tuple(sorted((i, f.line, f.kind, f.via, f.sink_line,
                              f.param or "")
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


def _untrusted_ocalls(module: Module) -> dict:
    """Interface name → EdlFunction for every ``untrusted`` declaration
    in the module's embedded ``*_EDL`` constants.

    Only the plain ``untrusted`` section is the host boundary;
    ``nested_untrusted`` names land in the outer enclave via ``n_ocall``.
    Parse errors are the EDL linter's EDL000 business, so they are
    dropped here.
    """
    specs, _parse_errors = scan_edl_constants(module.tree, module.path)
    table: dict = {}
    for _const_name, spec, _offset in specs:
        for func in spec.section("untrusted").values():
            table.setdefault(func.name, func)
    return table


def _declared_params(node: ast.Call, declared) -> list:
    """For each payload argument of an ocall, the EDL parameter it is
    passed for (positionally or by keyword), or None."""
    names = [pname for _ptype, pname in declared.params] \
        if declared is not None else []
    positional = node.args[1:]
    params = [names[pos] if pos < len(names) else None
              for pos in range(len(positional))]
    params += [k.arg if k.arg in names else None for k in node.keywords]
    return params


class _FunctionTaint(ast.NodeVisitor):
    """One intraprocedural pass with call-graph-resolved summaries."""

    def __init__(self, info: FunctionInfo, graph: CallGraph,
                 summaries: dict, sinks: dict, edl_tables: dict) -> None:
        self.info = info
        self.graph = graph
        self.summaries = summaries
        #: expr node -> its sink calls; shared by one run's analyses.
        self.sinks = sinks
        #: module name -> its untrusted ocall declarations, filled
        #: lazily at ocall sinks; shared by one run's analyses.
        self.edl_tables = edl_tables
        #: fids whose summaries this analysis looked up (ordered set).
        self.reads: dict = {}
        self.env: dict = {}
        self.param_names = list(info.params)
        self.param_labels: dict = {}
        for name in self.param_names:
            labels = {f"param:{info.qualname}:{name}"}
            if is_secret_name(name):
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
            if is_secret_name(node.attr):
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
        if bare in SANITIZER_CALLS:
            return frozenset()
        if bare in SOURCE_CALLS:
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
                    sink_line=fact.sink_line, param=fact.param)
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

    def _declared(self, node: ast.Call):
        """The EDL ``untrusted`` declaration an ocall's interface name
        resolves to in this module, or None."""
        first = node.args[0] if node.args else None
        if not (isinstance(first, ast.Constant)
                and isinstance(first.value, str)):
            return None
        module = self.info.module
        table = self.edl_tables.get(module.name)
        if table is None:
            table = self.edl_tables[module.name] = _untrusted_ocalls(module)
        return table.get(first.value)

    def _check_sink(self, node: ast.Call, kind: str) -> None:
        # First positional argument names the interface/event, not data.
        payload = node.args[1:] + [k.value for k in node.keywords]
        params = _declared_params(node, self._declared(node)) \
            if kind == "ocall" else [None] * len(payload)
        for arg, param in zip(payload, params):
            labels = self.taint_of(arg)
            if not labels:
                continue
            fact = SinkFact(line=node.lineno, kind=kind,
                            sink_line=node.lineno, param=param)
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
        where = (f"the EDL-declared untrusted ocall parameter {fact.param!r}"
                 if fact.param else f"a {fact.kind} payload")
        self.findings.append(Finding(
            path=self.info.module.path, line=line, rule=RULE,
            message=(f"key material ({origin}) reaches {where} outside "
                     f"enclave trust: {path}"),
            symbol=self.info.qualname))

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
    edl_tables: dict = {}

    def analyse(info: FunctionInfo, summaries: dict):
        analysis = _FunctionTaint(info, graph, summaries, sinks,
                                  edl_tables)
        analysis.run()
        findings[info.fid] = analysis.findings
        return analysis.summary, analysis.reads

    fixpoint = solve(graph, Summary, analyse,
                     lambda old, new: old.merge_key() != new.merge_key())
    return sorted({f for fs in findings.values() for f in fs}), fixpoint
