"""FLOW004 — lifecycle mutation outside the ISA allowlist.

Tcs/Secs lifecycle fields (``state``, ``saved_context``, ``aex_count``)
may only be assigned by the ISA microcode, so every lifecycle change
flows through a leaf the transition log and the orderliness automaton
see.  *Any* assignment to one of them — plain, augmented or annotated;
in a function, a class body or at module level — is an offender unless
its module is in ``FlowConfig.lifecycle_allowed``.  When the offending
function is reachable from the lifecycle drivers (the ISA leaves or the
OS driver), the finding carries the witness call chain showing how
driver code reaches the mutation, so a write smuggled into a helper
names the route that runs it.
"""

from __future__ import annotations

import ast
from collections import deque

from repro.analysis.findings import Finding
from repro.analysis.flow.graph import CallGraph

RULE = "FLOW004"

#: Tcs/Secs fields only the ISA leaves may assign: a mutation anywhere
#: else changes the enclave state machine behind the transition log.
_LIFECYCLE_FIELDS = frozenset({"state", "saved_context", "aex_count"})

_ASSIGNS = (ast.Assign, ast.AugAssign, ast.AnnAssign)
#: Statement-list fields: assignments are statements, and statements
#: only nest through these (``handlers``/``cases`` hold the except and
#: match-case clauses), so expression subtrees need no scanning.
_BLOCKS = ("body", "orelse", "finalbody", "handlers", "cases")


def _mutations(stmts, symbol: str, classes: bool = False) -> list:
    """(line, field, symbol) for every lifecycle-field assignment in the
    statement list ``stmts``, not descending into defs (each is its own
    graph node).  With ``classes``, a class body's assignments carry the
    class's qualname as their symbol (the module-level scan)."""
    hits: list = []
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, _ASSIGNS):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else (stmt.target,)
            hits.extend((stmt.lineno, target.attr, symbol)
                        for target in targets
                        if isinstance(target, ast.Attribute)
                        and target.attr in _LIFECYCLE_FIELDS)
            continue
        inner = symbol
        if classes and isinstance(stmt, ast.ClassDef):
            inner = stmt.name if symbol == "<module>" \
                else f"{symbol}.{stmt.name}"
        for block in _BLOCKS:
            hits.extend(_mutations(getattr(stmt, block, ()), inner, classes))
    return hits


def check_lifecycle_escape(graph: CallGraph, config) -> list:
    """Offenders anywhere, witness chains from the lifecycle drivers."""
    roots = [info.fid for module in config.lifecycle_entry_modules
             for info in graph.in_module(module)]
    parent: dict = {fid: None for fid in roots}
    queue = deque(roots)
    while queue:
        fid = queue.popleft()
        for succ in sorted(graph.strong.get(fid, ())
                           | graph.weak.get(fid, ())):
            if succ not in parent:
                parent[succ] = fid
                queue.append(succ)

    # Function bodies, then once per module its module-level and
    # class-body statements (class-level defs are graph nodes).
    allowed = config.lifecycle_allowed
    sites = [(info.module, fid, hit)
             for fid, info in sorted(graph.functions.items())
             if info.module.name not in allowed
             for hit in _mutations(info.node.body, info.qualname)]
    sites += [(module, None, hit)
              for name, module in sorted(graph.modules.items())
              if name not in allowed
              for hit in _mutations(module.tree.body, "<module>",
                                     classes=True)]
    findings: list = []
    for module, fid, (line, field_name, symbol) in sites:
        if fid in parent:
            chain: list = []
            cursor = fid
            while cursor is not None:
                chain.append(graph.functions[cursor].qualname)
                cursor = parent[cursor]
            route = " → ".join(reversed(chain))
            detail = (f"reached from lifecycle drivers via {route} → "
                      f".{field_name} assignment at line {line}")
        else:
            detail = (f"{symbol} → .{field_name} assignment (not reachable "
                      "from the ISA/driver roots, still outside the "
                      "lifecycle allowlist)")
        findings.append(Finding(
            path=module.path, line=line, rule=RULE,
            message=(f"enclave lifecycle field .{field_name} mutated "
                     f"outside the ISA allowlist: {detail}"),
            symbol=symbol))
    return sorted(set(findings))
