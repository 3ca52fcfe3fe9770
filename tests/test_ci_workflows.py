"""The GitHub Actions workflows are checked-in executable config;
parse them and assert the contract the repo depends on.

Tier-1 guarantees: the YAML is schema-valid (loadable, jobs/steps
shaped correctly), the CI gate runs the same commands ROADMAP.md's
tier-1 line names, the host-budget escape hatch is set for shared
runners, and the nightly pipeline runs the parallel runner with the
docs drift check and uploads the results artifacts.
"""

from __future__ import annotations

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOWS = REPO_ROOT / ".github" / "workflows"


def _load(name: str) -> dict:
    workflow = yaml.safe_load((WORKFLOWS / name).read_text())
    assert isinstance(workflow, dict), f"{name}: not a mapping"
    return workflow


def _triggers(workflow: dict) -> dict:
    # YAML 1.1 parses the bare key `on` as boolean True.
    return workflow.get("on", workflow.get(True))


def _runs(workflow: dict) -> "list[str]":
    return [step["run"]
            for job in workflow["jobs"].values()
            for step in job["steps"] if "run" in step]


def _assert_schema_valid(name: str, workflow: dict) -> None:
    assert _triggers(workflow), f"{name}: no `on:` triggers"
    assert workflow.get("jobs"), f"{name}: no jobs"
    for job_name, job in workflow["jobs"].items():
        assert "runs-on" in job, f"{name}:{job_name}: no runs-on"
        steps = job.get("steps")
        assert steps, f"{name}:{job_name}: no steps"
        for index, step in enumerate(steps):
            assert ("run" in step) != ("uses" in step), (
                f"{name}:{job_name} step {index}: need exactly one "
                f"of run/uses")


class TestSchemaValidity:
    @pytest.mark.parametrize("name", ["ci.yml", "nightly.yml"])
    def test_workflow_parses_and_is_well_formed(self, name):
        _assert_schema_valid(name, _load(name))

    def test_no_other_workflows_sneak_in_unchecked(self):
        assert sorted(p.name for p in WORKFLOWS.glob("*.yml")) == \
            ["ci.yml", "nightly.yml"]


class TestTier1Gate:
    def test_triggers_every_push_and_pr(self):
        triggers = _triggers(_load("ci.yml"))
        assert "push" in triggers
        assert "pull_request" in triggers

    def test_job_set_is_pinned(self):
        assert set(_load("ci.yml")["jobs"]) == \
            {"tests", "ruff", "analysis", "modelcheck", "chaos",
             "orderliness", "bench-smoke", "flow", "host",
             "quick-suite", "difffuzz"}

    def test_python_matrix_is_39_and_312(self):
        tests = _load("ci.yml")["jobs"]["tests"]
        assert tests["strategy"]["matrix"]["python-version"] == \
            ["3.9", "3.12"]

    def test_runs_the_roadmap_tier1_command(self):
        # ROADMAP.md: PYTHONPATH=src python -m pytest -x -q
        tests = _load("ci.yml")["jobs"]["tests"]
        assert tests["env"]["PYTHONPATH"] == "src"
        assert any(run.strip() == "python -m pytest -x -q"
                   for step in tests["steps"]
                   for run in [step.get("run", "")])

    def test_host_budget_skipped_on_shared_runners(self):
        tests = _load("ci.yml")["jobs"]["tests"]
        assert tests["env"]["REPRO_SKIP_HOST_BUDGET"] == "1"

    def test_ruff_job_matches_local_gate(self):
        # Same target set as tests/test_ruff_clean.py.
        assert any("ruff check src tests" in run
                   for run in _runs(_load("ci.yml")))

    def test_analysis_gate_enforces_checked_in_baseline(self):
        assert any(
            "python -m repro.analysis --baseline analysis-baseline.json"
            in run for run in _runs(_load("ci.yml")))

    def test_analysis_gate_publishes_sarif(self):
        workflow = _load("ci.yml")
        analysis = workflow["jobs"]["analysis"]
        assert any("--sarif" in step.get("run", "")
                   for step in analysis["steps"])
        uploads = [step for step in analysis["steps"]
                   if "upload-sarif" in step.get("uses", "")]
        assert uploads, "analysis job must upload the SARIF report"
        assert analysis["permissions"]["security-events"] == "write"

    def test_chaos_job_runs_seeded_fault_injection(self):
        chaos = _load("ci.yml")["jobs"]["chaos"]
        assert chaos["env"]["PYTHONPATH"] == "src"
        assert chaos["env"]["REPRO_SKIP_HOST_BUDGET"] == "1"
        assert any("python -m repro.runner" in run
                   and "--chaos 3" in run
                   for step in chaos["steps"]
                   for run in [step.get("run", "")])

    def test_host_job_runs_serving_layer_under_chaos(self):
        host = _load("ci.yml")["jobs"]["host"]
        assert host["env"]["PYTHONPATH"] == "src"
        assert host["env"]["REPRO_SKIP_HOST_BUDGET"] == "1"
        assert any(
            run.strip() == "python -m repro.runner -j 2 --chaos 2 host"
            for step in host["steps"]
            for run in [step.get("run", "")])

    def test_quick_suite_job_runs_whole_registry_in_workers(self):
        quick = _load("ci.yml")["jobs"]["quick-suite"]
        assert quick["env"]["PYTHONPATH"] == "src"
        assert quick["env"]["REPRO_SKIP_HOST_BUDGET"] == "1"
        assert any(
            run.strip() == "python -m repro.runner -j 2 --quiet"
            for step in quick["steps"]
            for run in [step.get("run", "")])

    def test_orderliness_job_replays_workload_logs(self):
        orderliness = _load("ci.yml")["jobs"]["orderliness"]
        assert orderliness["env"]["PYTHONPATH"] == "src"
        assert any(
            "python -m repro.analysis --only orderliness" in run
            for step in orderliness["steps"]
            for run in [step.get("run", "")])

    def test_bench_smoke_checks_the_budget_with_escape_hatch(self):
        smoke = _load("ci.yml")["jobs"]["bench-smoke"]
        assert smoke["env"]["PYTHONPATH"] == "src"
        # The escape hatch must be declared (flippable without a
        # workflow rewrite), but the job only bites while it is off.
        assert smoke["env"]["REPRO_SKIP_HOST_BUDGET"] == "0"
        assert any(
            run.strip() ==
            "python -m repro.perf.bench_memsys --rounds 1 --check"
            for step in smoke["steps"]
            for run in [step.get("run", "")])

    def test_flow_job_runs_the_dataflow_engine(self):
        flow = _load("ci.yml")["jobs"]["flow"]
        assert flow["env"]["PYTHONPATH"] == "src"
        assert any(
            run.strip() == "python -m repro.analysis --only flow"
            for step in flow["steps"]
            for run in [step.get("run", "")])

    def test_difffuzz_job_diffs_240_schedules_with_faults(self):
        """Every pull request diffs the TLB fast path against the
        reference replay; the nightly job adds depth and artifacts."""
        difffuzz = _load("ci.yml")["jobs"]["difffuzz"]
        assert difffuzz["env"]["PYTHONPATH"] == "src"
        runs = [step.get("run", "") for step in difffuzz["steps"]]
        fuzz_runs = [run for run in runs
                     if "python -m repro.analysis.difffuzz" in run]
        assert fuzz_runs
        tokens = fuzz_runs[0].split()
        assert int(tokens[tokens.index("--schedules") + 1]) >= 240
        assert "--with-faults" in tokens

    def test_modelcheck_job_exhausts_default_scope(self):
        modelcheck = _load("ci.yml")["jobs"]["modelcheck"]
        assert modelcheck["env"]["PYTHONPATH"] == "src"
        assert any(
            "python -m repro.analysis --check modelcheck" in run
            and "--scope default" in run
            for step in modelcheck["steps"]
            for run in [step.get("run", "")])


class TestNightlyPipeline:
    def test_scheduled_and_dispatchable(self):
        triggers = _triggers(_load("nightly.yml"))
        assert "schedule" in triggers
        assert any("cron" in entry for entry in triggers["schedule"])
        assert "workflow_dispatch" in triggers

    def test_runs_the_parallel_runner(self):
        runs = _runs(_load("nightly.yml"))
        assert any("python -m repro.runner" in run
                   and "--json" in run and "--timings" in run
                   for run in runs)

    def test_checks_docs_drift(self):
        assert any("--check-docs" in run
                   for run in _runs(_load("nightly.yml")))

    def test_uploads_results_and_regenerated_tables(self):
        workflow = _load("nightly.yml")
        uploads = [step for job in workflow["jobs"].values()
                   for step in job["steps"]
                   if "upload-artifact" in step.get("uses", "")]
        assert uploads, "nightly must publish artifacts"
        quick_paths = " ".join(
            step["with"]["path"] for step in uploads)
        for artifact in ("results.json", "timings.json",
                         "EXPERIMENTS.md"):
            assert artifact in quick_paths

    def test_deep_modelcheck_and_mutation_kill_list(self):
        runs = _runs(_load("nightly.yml"))
        assert any("--check modelcheck" in run and "--scope deep" in run
                   for run in runs)
        assert any("--mutate all" in run and "--only flow" not in run
                   for run in runs)

    def test_flow_mutate_job_kills_the_corpus_and_uploads_log(self):
        flow = _load("nightly.yml")["jobs"]["flow-mutate"]
        assert flow["env"]["PYTHONPATH"] == "src"
        runs = [run for step in flow["steps"]
                for run in [step.get("run", "")]]
        mutate_runs = [run for run in runs
                       if "--only flow --mutate all" in run]
        assert mutate_runs
        # The kill-list output is tee'd to the artifact; a pipe must
        # not swallow a survivor's exit code.
        assert "pipefail" in mutate_runs[0]
        uploads = [step for step in flow["steps"]
                   if "upload-artifact" in step.get("uses", "")]
        assert uploads and uploads[0].get("if") == "always()"
        assert "flow-mutate.log" in uploads[0]["with"]["path"]

    def test_deep_chaos_sweep_uploads_replayable_plans(self):
        workflow = _load("nightly.yml")
        chaos = workflow["jobs"]["chaos-deep"]
        assert any("--chaos 20" in run and "--chaos-dir" in run
                   for step in chaos["steps"]
                   for run in [step.get("run", "")])
        uploads = [step for step in chaos["steps"]
                   if "upload-artifact" in step.get("uses", "")]
        assert uploads and uploads[0].get("if") == "always()"

    def test_host_soak_runs_benchmark_scale_chaos_and_uploads(self):
        """Nightly soak: the serving layer at 100k sessions under 10
        benign plans + bitflip, with SLO numbers published."""
        soak = _load("nightly.yml")["jobs"]["host-soak"]
        assert soak["env"]["PYTHONPATH"] == "src"
        assert soak["env"]["REPRO_SKIP_HOST_BUDGET"] == "1"
        runs = [run for step in soak["steps"]
                for run in [step.get("run", "")]]
        chaos_runs = [run for run in runs
                      if "--chaos 10" in run and "--full" in run
                      and run.rstrip().endswith("host")]
        assert chaos_runs
        assert "--chaos-dir" in chaos_runs[0]
        assert any("--json results-host.json" in run for run in runs)
        uploads = [step for step in soak["steps"]
                   if "upload-artifact" in step.get("uses", "")]
        assert uploads and uploads[0].get("if") == "always()"
        assert "results-host.json" in uploads[0]["with"]["path"]

    def test_difffuzz_deep_job_fuzzes_200_schedules(self):
        """Nightly depth: at least 200 seeded schedules with fault
        plans threaded through, reproducers published as artifacts."""
        difffuzz = _load("nightly.yml")["jobs"]["difffuzz-deep"]
        assert difffuzz["env"]["PYTHONPATH"] == "src"
        runs = [run for step in difffuzz["steps"]
                for run in [step.get("run", "")]]
        fuzz_runs = [run for run in runs
                     if "python -m repro.analysis.difffuzz" in run]
        assert fuzz_runs
        tokens = fuzz_runs[0].split()
        assert int(tokens[tokens.index("--schedules") + 1]) >= 200
        assert "--with-faults" in tokens
        assert "--artifacts" in tokens
        uploads = [step for step in difffuzz["steps"]
                   if "upload-artifact" in step.get("uses", "")]
        assert uploads and uploads[0].get("if") == "always()"

    def test_full_scale_is_opt_in(self):
        full = _load("nightly.yml")["jobs"]["full-suite"]
        assert "workflow_dispatch" in full.get("if", "")
        assert any("--full" in run
                   for step in full["steps"]
                   for run in [step.get("run", "")])
