"""Flow engine: call-graph pins, repo cleanliness, suppression
directives, the mutation kill-list, and CLI integration."""

import textwrap

import pytest

from repro.analysis.cli import main
from repro.analysis.flow import MUTATIONS, run_flow, run_flow_mutations
from repro.analysis.flow.charges import check_charge_coverage
from repro.analysis.flow.graph import build_graph
from repro.analysis.flow.secret import check_secret_flow
from repro.analysis.pysource import load_module
from repro.analysis.runner import repo_root


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
        assert repo_result.stats == {
            "modules": 145,
            "functions": 1041,
            "call_edges": 955,
            "weak_edges": 2799,
            "secret_summaries": 455,
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
        findings, _ = check_secret_flow(graph)
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
