"""Flow engine: call-graph pins, repo cleanliness, suppression
directives, the mutation kill-list, and CLI integration."""

import textwrap

import pytest

from repro.analysis.cli import main
from repro.analysis.findings import AnalysisError
from repro.analysis.flow import (MUTATIONS, analyze_graph, run_flow,
                                 run_flow_mutations)
from repro.analysis.flow.charges import check_charge_coverage
from repro.analysis.flow.config import DEFAULT_CONFIG
from repro.analysis.flow.engine import apply_suppressions
from repro.analysis.flow.fixpoint import solve
from repro.analysis.flow.graph import build_graph
from repro.analysis.flow.lifecycle import check_lifecycle_escape
from repro.analysis.flow.secret import check_secret_flow
from repro.analysis.pysource import load_module
from repro.analysis.runner import repo_root
from tests.analysis.reference_fixpoint import (reference_charge_coverage,
                                               reference_secret_flow)


@pytest.fixture(scope="module")
def repo_result():
    """One analysis of the real tree, shared by the read-only tests."""
    return run_flow(repo_root())


def _graph_of(tmp_path, source, name="mod"):
    file = tmp_path / f"{name}.py"
    file.write_text(textwrap.dedent(source))
    return build_graph([load_module(file, tmp_path)])


class TestCallGraph:
    def test_pinned_stats(self, repo_result):
        """Drift tripwire: adding/removing functions or changing the
        resolver shows up here first.  Update deliberately."""
        pinned = ("modules", "functions", "call_edges", "weak_edges",
                  "secret_summaries", "always_charging")
        assert {key: repo_result.stats[key] for key in pinned} == {
            "modules": 145,
            "functions": 1025,
            "call_edges": 926,
            "weak_edges": 2754,
            "secret_summaries": 454,
            "always_charging": 152,
        }

    def test_strong_edge_import_resolved(self, repo_result):
        """driver.evict_page calls eviction.ewb through an import."""
        graph = repo_result.graph
        caller = "repro.os.driver:SgxDriver.evict_page"
        assert "repro.sgx.eviction:ewb" in graph.strong[caller]

    def test_weak_edge_by_method_name(self, repo_result):
        """The eviction-pressure workload reaches the driver only
        through an untyped receiver — the weak tier must carry it."""
        graph = repo_result.graph
        caller = "repro.perf.fingerprint:_wl_eviction_pressure"
        assert "repro.os.driver:SgxDriver.evict_page" in graph.weak[caller]

    def test_self_method_edge(self, repo_result):
        graph = repo_result.graph
        caller = "repro.sgx.machine:Machine.epc_read"
        assert "repro.sgx.machine:Machine.memside_read" \
            in graph.strong[caller]

    def test_nested_defs_are_nodes(self, repo_result):
        fids = repo_result.graph.functions
        assert "repro.perf.fingerprint:nested_pair.<locals>.poke" in fids


class TestWorklist:
    def test_work_is_bounded_by_changes_not_rounds(self, repo_result):
        """Work-count tripwire: round-robin re-ran every function once
        per level of the deepest helper chain (5x and 6x the function
        count); the worklist re-runs a function only when a summary it
        read changed."""
        functions = repo_result.stats["functions"]
        assert repo_result.stats["secret_analyses"] <= 2 * functions
        assert repo_result.stats["charge_analyses"] <= 2 * functions

    def test_non_converging_analysis_is_loud(self, tmp_path):
        """The solver never hands back unconverged summaries."""
        graph = _graph_of(tmp_path, """
            def f():
                f()
        """)
        with pytest.raises(AnalysisError, match="did not converge"):
            solve(graph, int,
                  lambda info, summaries: (summaries[info.fid] + 1,
                                           [info.fid]),
                  lambda old, new: old != new)


def _chain_source(head: str, sink: str, depth: int = 10) -> str:
    """``head`` → h1 → … → h``depth`` → ``sink``, written caller first,
    so each round-robin round only learns one more level."""
    lines = [head.format(first="h1"), ""]
    for level in range(1, depth + 1):
        callee = f"h{level + 1}(ctx, data)" if level < depth else sink
        lines += [f"def h{level}(ctx, data):", f"    {callee}", ""]
    return "\n".join(lines)


class TestDeepChains:
    """A helper chain is followed to the end however deep it is; a
    fixed round count (8 for FLOW001, 6 for FLOW002) cuts these off."""

    def test_key_leak_eleven_calls_deep_is_reported(self, tmp_path):
        graph = _graph_of(tmp_path, _chain_source(
            "def probe(ctx, session_key):\n    {first}(ctx, session_key)",
            'ctx.ocall("send", data)'))
        findings, _ = check_secret_flow(graph)
        assert len(findings) == 1
        assert findings[0].symbol == "probe"
        chain = " → ".join(f"h{level}" for level in range(1, 11))
        assert f"probe → {chain} → ocall sink" in findings[0].message

    def test_charge_eleven_calls_deep_satisfies(self, tmp_path):
        graph = _graph_of(tmp_path, _chain_source(
            "def touch(ctx):\n    {first}(ctx, 0)\n    return 1",
            'ctx.cost.charge_event("x")'))
        findings, fixpoint = check_charge_coverage(graph, ("mod:touch",))
        assert findings == []
        assert fixpoint.summaries["mod:touch"].always_charges


_CYCLES = """
    def walk(ctx, node, data):
        for child in node.children:
            walk(ctx, child, data)
        ctx.ocall("send", data)


    def swap(ctx, a, b, n):
        if n:
            swap(ctx, b, a, n - 1)
        ctx.ocall("send", a)


    def ping(ctx, data, n):
        if n:
            pong(ctx, data, n - 1)
        ctx.log_transition("ping", data)


    def pong(ctx, data, n):
        if n:
            ping(ctx, data, n - 1)


    def launder_a(value, n):
        if n:
            return launder_b(value, n - 1)
        return value


    def launder_b(value, n):
        return launder_a(value, n)


    def probe_walk(ctx, root, session_key):
        walk(ctx, root, session_key)


    def probe_swap(ctx, session_key):
        swap(ctx, 0, session_key, 3)


    def probe_pong(ctx, session_key):
        pong(ctx, session_key, 2)


    def probe_launder(ctx, session_key):
        clean = launder_a(session_key, 4)
        ctx.ocall("send", clean)


    def drain(cost, n):
        if n:
            return drain(cost, n - 1)
        cost.charge_event("x")


    def tick(cost, n):
        if n:
            return tock(cost, n - 1)
        cost.charge_event("x")


    def tock(cost, n):
        cost.charge_event("y")
        return tick(cost, n)
"""


class TestWorklistMatchesReference:
    """Differential oracle: the worklist and the uncapped round-robin
    reference give identical findings and per-function summaries."""

    @staticmethod
    def _assert_identical(graph, entry_points):
        findings, secret = check_secret_flow(graph)
        ref_findings, ref_secret = reference_secret_flow(graph)
        assert findings == ref_findings
        assert {fid: s.merge_key() for fid, s in secret.summaries.items()} \
            == {fid: s.merge_key() for fid, s in ref_secret.items()}
        findings, charges = check_charge_coverage(graph, entry_points)
        ref_findings, ref_charges = reference_charge_coverage(
            graph, entry_points)
        assert findings == ref_findings

        def facts(summaries):
            return {fid: (s.always_charges, s.uncharged_exits)
                    for fid, s in summaries.items()}
        assert facts(charges.summaries) == facts(ref_charges)

    def test_live_tree(self, repo_result):
        self._assert_identical(repo_result.graph,
                               DEFAULT_CONFIG.charge_entry_points)

    def test_recursion_and_laundering_cycles(self, tmp_path):
        graph = _graph_of(tmp_path, _CYCLES)
        self._assert_identical(graph, ("mod:drain", "mod:tick", "mod:tock"))

    def test_cycles_converge_to_the_expected_findings(self, tmp_path):
        graph = _graph_of(tmp_path, _CYCLES)
        messages = sorted(f.message.split(": ", 1)[1]
                          for f in check_secret_flow(graph)[0])
        assert messages == [
            "probe_launder → ocall sink at line 49",
            "probe_pong → pong → ping → transition-log sink at line 17",
            "probe_swap → swap → swap → ocall sink at line 11",
            "probe_walk → walk → ocall sink at line 5",
        ]
        # tick is analysed before tock proves it charges, so only the
        # re-queue on tock's flip clears it.  Self-recursion alone never
        # proves a charge: summaries start from "may skip".
        findings, charges = check_charge_coverage(
            graph, ("mod:drain", "mod:tick", "mod:tock"))
        assert [f.symbol for f in findings] == ["drain"]
        assert "drain → return at line 54" in findings[0].message
        assert charges.summaries["mod:tick"].always_charges


class TestRepoClean:
    def test_no_findings_on_the_real_tree(self, repo_result):
        assert repo_result.report.findings == []
        assert repo_result.report.passes == ["flow"]

    def test_charge_entry_points_all_exist(self, repo_result):
        """A rename would silently drop coverage; the engine reports
        missing entry points as findings, so clean == all present."""
        from repro.analysis.flow.config import DEFAULT_CONFIG
        for fid in DEFAULT_CONFIG.charge_entry_points:
            assert fid in repo_result.graph.functions, fid


_LEAK = """
    def ship(ctx, blob):
        ctx.ocall("dump", blob)


    def probe(ctx, session_key):
        ship(ctx, session_key){suffix}
"""


class TestSuppression:
    def _findings(self, tmp_path, suffix):
        graph = _graph_of(tmp_path, _LEAK.format(suffix=suffix))
        findings, _ = apply_suppressions(graph, check_secret_flow(graph)[0])
        return findings

    def test_unsuppressed_leak_is_reported_with_chain(self, tmp_path):
        findings = self._findings(tmp_path, "")
        assert len(findings) == 1
        assert findings[0].rule == "FLOW001"
        assert "probe → ship → ocall sink" in findings[0].message

    def test_flow_disable_rule_silences(self, tmp_path):
        assert self._findings(
            tmp_path, "  # flow: disable=FLOW001") == []

    def test_flow_disable_all_silences(self, tmp_path):
        assert self._findings(tmp_path, "  # flow: disable=all") == []

    def test_simlint_disable_all_does_not_silence_flow(self, tmp_path):
        """The two directive families are scoped to their own rules."""
        findings = self._findings(tmp_path, "  # simlint: disable=all")
        assert len(findings) == 1

    def test_flow_disable_all_keeps_simlint_rules(self, tmp_path):
        from repro.analysis.pysource import parse_suppressions
        table = parse_suppressions("x = 1  # flow: disable=all\n")
        assert table[1] == frozenset({"flow:all"})

    def test_suppressed_findings_are_counted(self, tmp_path):
        """Like simlint's, flow's inline disables show up in the
        report's suppressed count, so the repo gate can cap them."""
        graph = _graph_of(tmp_path, _LEAK.format(
            suffix="  # flow: disable=FLOW001"))
        report = analyze_graph(graph).report
        assert [f for f in report.findings if f.rule == "FLOW001"] == []
        assert report.suppressed == 1

    def test_real_tree_counts_the_ewb_disable(self, repo_result):
        """eviction.py's EWB transition-log line is the one sanctioned
        flow disable in the tree."""
        assert repo_result.report.suppressed == 1


def _lifecycle_findings(tmp_path, source):
    """FLOW004 over one non-allowlisted module, ``pkg.victim``."""
    file = tmp_path / "pkg" / "victim.py"
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(source))
    graph = build_graph([load_module(file, tmp_path)])
    return check_lifecycle_escape(graph, DEFAULT_CONFIG)


class TestLifecycleShapes:
    """FLOW004 sees every assignment shape wherever it sits, not just
    plain and augmented assignments inside function bodies."""

    @pytest.mark.parametrize("source, line, symbol", [
        ("tcs = make_tcs()\ntcs.state = 1\n", 2, "<module>"),
        ("class Patch:\n    tcs.aex_count = 0\n\n"
         "    def method(self):\n        return 1\n", 2, "Patch"),
        ("def reset(t):\n    t.state: int = 0\n", 2, "reset"),
    ], ids=["module-level", "class-body", "annotated-in-function"])
    def test_assignment_shape_is_reported(self, tmp_path, source, line,
                                          symbol):
        findings = _lifecycle_findings(tmp_path, source)
        assert [(f.rule, f.line, f.symbol) for f in findings] == [
            ("FLOW004", line, symbol)]
        assert f"{symbol} → ." in findings[0].message

    def test_assignments_inside_nested_blocks(self, tmp_path):
        findings = _lifecycle_findings(tmp_path, """
            def churn(tcs, items):
                if items:
                    tcs.state = 1
                else:
                    for item in items:
                        tcs.aex_count += 1
                while items:
                    with lock:
                        tcs.saved_context = None
                try:
                    pass
                except Fault:
                    tcs.state = 2
                finally:
                    tcs.state = 3
                lambda: tcs.state
        """)
        assert [f.line for f in findings] == [4, 7, 10, 14, 16]

    def test_function_bodies_are_not_scanned_twice(self, tmp_path):
        findings = _lifecycle_findings(tmp_path, """
            class Driver:
                def park(self, tcs):
                    tcs.state = 2
        """)
        assert [(f.line, f.symbol) for f in findings] == [
            (4, "Driver.park")]


class TestChargeCoverage:
    def test_uncharged_branch_is_reported(self, tmp_path):
        graph = _graph_of(tmp_path, """
            def touch(cost, n):
                if n:
                    cost.charge_event("x")
                return n
        """)
        findings, _ = check_charge_coverage(graph, ("mod:touch",))
        assert len(findings) == 1
        assert findings[0].rule == "FLOW002"
        assert "touch → return" in findings[0].message

    def test_charged_annotation_declares_intent(self, tmp_path):
        graph = _graph_of(tmp_path, """
            def touch(cost, n):
                if n:
                    cost.charge_event("x")
                return n  # flow: charged
        """)
        findings, _ = check_charge_coverage(graph, ("mod:touch",))
        assert findings == []

    def test_always_charging_callee_satisfies(self, tmp_path):
        graph = _graph_of(tmp_path, """
            def helper(cost):
                cost.charge_event("x")


            def touch(cost):
                helper(cost)
                return 1
        """)
        findings, _ = check_charge_coverage(graph, ("mod:touch",))
        assert findings == []

    def test_counters_receiver_is_not_a_seam(self, tmp_path):
        """Counter bumps are bookkeeping; only the cost clock counts."""
        graph = _graph_of(tmp_path, """
            def touch(machine):
                machine.counters.charge_run(1, 0, 1, 0, 0)
                return 1
        """)
        findings, _ = check_charge_coverage(graph, ("mod:touch",))
        assert len(findings) == 1

    def test_missing_entry_point_is_loud(self, tmp_path):
        graph = _graph_of(tmp_path, "def f():\n    return 1\n")
        findings, _ = check_charge_coverage(graph, ("mod:gone",))
        assert len(findings) == 1
        assert "does not exist" in findings[0].message


class TestMutationCorpus:
    def test_corpus_names_are_pinned(self):
        assert sorted(m.name for m in MUTATIONS) == [
            "clock-above-fingerprint-fold",
            "clock-under-attested-handshake",
            "driver-helper-parks-tcs",
            "drop-memside-read-charge",
            "drop-plan-run-charge",
            "egetkey-chain-transition-log",
            "helper-chain-key-ocall",
        ]

    def test_every_mutation_is_killed_with_a_witness(self):
        outcomes = run_flow_mutations(repo_root())
        assert len(outcomes) == len(MUTATIONS)
        for outcome in outcomes:
            assert outcome.killed, outcome.name
            assert "→" in outcome.witness, outcome.name

    def test_unknown_mutation_name_is_loud(self):
        from repro.analysis.findings import AnalysisError
        with pytest.raises(AnalysisError, match="unknown flow mutation"):
            run_flow_mutations(repo_root(), ["bogus"])


class TestCli:
    def test_only_flow_runs_clean(self, capsys):
        assert main(["--only", "flow", "--format", "json"]) == 0
        import json
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == ["flow"]
        assert payload["findings"] == []

    def test_only_flow_mutate_single(self, capsys):
        assert main(["--only", "flow", "--mutate",
                     "helper-chain-key-ocall"]) == 0
        out = capsys.readouterr().out
        assert "KILLED   helper-chain-key-ocall [FLOW001]" in out
        assert "1/1 flow mutation(s) killed" in out

    def test_only_flow_mutate_unknown_is_usage_error(self, capsys):
        assert main(["--only", "flow", "--mutate", "bogus"]) == 2
        assert "unknown flow mutation" in capsys.readouterr().err
