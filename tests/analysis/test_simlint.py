"""Simulation-integrity lint: synthetic violations for SIM001–SIM008,
suppression syntax, allowlists, and the JSON report shape."""

import json
import textwrap

from repro.analysis.findings import Report
from repro.analysis.pysource import Module, load_module, parse_suppressions
from repro.analysis.simlint import (DEFAULT_CONFIG, SimlintConfig,
                                    lint_module, lint_tree)


def _lint(tmp_path, source, name="pkg/victim.py",
          config=DEFAULT_CONFIG):
    file = tmp_path / name
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(source))
    return lint_module(load_module(file, tmp_path), config)


def _rules(result):
    return sorted(f.rule for f in result.findings)


class TestSim001:
    def test_phys_read_write_drop_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        def attack(machine):
            data = machine.phys.read(0x1000, 64)
            machine.phys.write(0x1000, data)
            machine.phys.drop_frame(1)
        """)
        assert _rules(result) == ["SIM001"] * 3
        assert all("validation automaton" in f.message
                   for f in result.findings)

    def test_geometry_queries_not_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        def check(machine, paddr):
            return machine.phys.in_prm(paddr) and machine.phys.in_epc(paddr)
        """)
        assert result.findings == []

    def test_frames_and_constructor_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        from repro.sgx.memory import PhysicalMemory

        def rogue(config, mem):
            shadow = PhysicalMemory(config)
            return mem._frames
        """)
        assert _rules(result) == ["SIM001", "SIM001"]

    def test_allowlisted_module_passes(self, tmp_path):
        config = SimlintConfig(sim001_allowed=frozenset({"pkg.victim"}))
        result = _lint(tmp_path, """
        def mover(machine):
            return machine.phys.read(0, 64)
        """, config=config)
        assert result.findings == []


class TestSim002:
    def test_wallclock_calls_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        import time
        from time import perf_counter
        from datetime import datetime

        def bench():
            a = time.time()
            b = perf_counter()
            c = time.monotonic_ns()
            d = datetime.now()
            return a, b, c, d
        """)
        assert _rules(result) == ["SIM002"] * 4

    def test_datetime_now_with_args_not_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        from datetime import datetime, timezone

        def stamp():
            return datetime.now(timezone.utc)
        """)
        assert result.findings == []

    def test_wallclock_helper_module_allowlisted(self, tmp_path):
        config = SimlintConfig(sim002_allowed=frozenset({"pkg.victim"}))
        result = _lint(tmp_path, """
        import time

        def now_s():
            return time.time()
        """, config=config)
        assert result.findings == []


class TestSim003:
    def test_module_level_random_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        import random

        def roll():
            random.seed(4)
            return random.randint(1, 6) + random.random()
        """)
        assert _rules(result) == ["SIM003"] * 3

    def test_unseeded_constructors_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        import random
        import numpy as np

        def make():
            return random.Random(), np.random.default_rng()
        """)
        assert _rules(result) == ["SIM003", "SIM003"]

    def test_seeded_constructions_pass(self, tmp_path):
        result = _lint(tmp_path, """
        import random
        import numpy as np
        from numpy.random import default_rng

        def make(seed):
            return random.Random(seed), np.random.default_rng(1), \\
                default_rng(seed=seed)
        """)
        assert result.findings == []

    def test_legacy_numpy_random_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        import numpy as np

        def noise(n):
            return np.random.normal(size=n)
        """)
        assert _rules(result) == ["SIM003"]

    def test_unrelated_random_attribute_not_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        def sample(rng):
            return rng.random()
        """)
        assert result.findings == []


class TestSim004:
    def test_bare_and_broad_except_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        def risky():
            try:
                return 1
            except:
                pass
            try:
                return 2
            except Exception:
                pass
            try:
                return 3
            except (ValueError, BaseException):
                pass
        """)
        assert _rules(result) == ["SIM004"] * 3

    def test_specific_except_passes(self, tmp_path):
        result = _lint(tmp_path, """
        def careful():
            try:
                return 1
            except (ValueError, IndexError):
                return 0
        """)
        assert result.findings == []


class TestSim005:
    def test_module_and_class_level_latency_constants(self, tmp_path):
        result = _lint(tmp_path, """
        NET_NS = 22_000.0
        WAKE_LATENCY = 100

        class Engine:
            STATEMENT_NS: float = 55_000.0
            ROW_CYCLES = -1_500
        """)
        assert _rules(result) == ["SIM005"] * 4

    def test_function_locals_and_derived_values_pass(self, tmp_path):
        result = _lint(tmp_path, """
        BASE = 10.0
        TOTAL_NS = BASE  # derived, not hard-coded

        def accumulate(items):
            total_ns = 0.0
            for item in items:
                total_ns += item
            return total_ns
        """)
        assert result.findings == []

    def test_costmodel_allowlisted(self, tmp_path):
        config = SimlintConfig(sim005_allowed=frozenset({"pkg.victim"}))
        result = _lint(tmp_path, "ECALL_NS = 1250.0\n", config=config)
        assert result.findings == []


class TestSim006:
    def test_time_sleep_flagged_in_fault_modules(self, tmp_path):
        """``time.sleep`` is not wall-clock (SIM002 ignores it) but it
        still breaks seed-replay determinism on a fault path."""
        result = _lint(tmp_path, """
        import time

        def backoff():
            time.sleep(0.01)
        """, name="repro/faults/victim.py")
        assert _rules(result) == ["SIM006"]

    def test_unseeded_random_flagged_twice(self, tmp_path):
        result = _lint(tmp_path, """
        import random

        def jitter():
            return random.random()
        """, name="repro/sdk/secure_channel.py")
        assert _rules(result) == ["SIM003", "SIM006"]

    def test_seeded_generator_ctor_allowed(self, tmp_path):
        result = _lint(tmp_path, """
        import random

        def make(seed):
            return random.Random(seed)
        """, name="repro/faults/plan.py")
        assert result.findings == []

    def test_unseeded_ctor_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        import random

        def make():
            return random.Random()
        """, name="repro/faults/plan.py")
        assert _rules(result) == ["SIM003", "SIM006"]

    def test_same_code_outside_fault_modules_passes(self, tmp_path):
        result = _lint(tmp_path, """
        import time

        def backoff():
            time.sleep(0.01)
        """)
        assert result.findings == []

    def test_recovery_path_prefixes_covered(self, tmp_path):
        for name in ("repro/sdk/runtime.py", "repro/os/ipc.py"):
            result = _lint(tmp_path, """
            import time

            def wait():
                time.sleep(1)
            """, name=name)
            assert _rules(result) == ["SIM006"], name

    def test_host_serving_layer_covered(self, tmp_path):
        """The serving layer's admit/shed/breaker decisions feed the
        chaos fingerprints, so repro.host.* is held to the same
        seed-replay contract as the fault paths."""
        for name in ("repro/host/service.py", "repro/host/breaker.py",
                     "repro/host/loadgen.py"):
            result = _lint(tmp_path, """
            import random
            import time

            def decide():
                time.sleep(0.001)
                return random.random() < 0.5
            """, name=name)
            assert _rules(result) == ["SIM003", "SIM006", "SIM006"], name

    def test_host_seeded_generator_allowed(self, tmp_path):
        result = _lint(tmp_path, """
        import random

        def workload(seed):
            return random.Random(seed)
        """, name="repro/host/loadgen.py")
        assert result.findings == []

    def test_suppression_applies(self, tmp_path):
        result = _lint(tmp_path, """
        import time

        def wait():
            time.sleep(1)  # simlint: disable=SIM006
        """, name="repro/faults/victim.py")
        assert result.findings == []
        assert result.suppressed == 1


class TestSim007:
    def test_lifecycle_assignments_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        from repro.sgx.constants import TCS_ACTIVE

        def shortcut(machine, tcs):
            tcs.state = TCS_ACTIVE
            tcs.saved_context = None
            tcs.aex_count += 1
        """)
        assert _rules(result) == ["SIM007"] * 3
        assert all("transition log" in f.message
                   for f in result.findings)

    def test_annotated_assignment_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        def reset(tcs):
            tcs.state: int = 0
        """)
        assert _rules(result) == ["SIM007"]

    def test_reads_and_unrelated_attributes_pass(self, tmp_path):
        result = _lint(tmp_path, """
        def observe(tcs, job):
            state = tcs.state
            job.status = "done"
            count = 0
            count += 1
            return state, count
        """)
        assert result.findings == []

    def test_isa_leaves_allowlisted_by_default(self, tmp_path):
        result = _lint(tmp_path, """
        def eenter(machine, tcs):
            tcs.state = 1
        """, name="repro/sgx/isa.py")
        assert result.findings == []

    def test_custom_allowlist(self, tmp_path):
        config = SimlintConfig(sim007_allowed=frozenset({"pkg.victim"}))
        result = _lint(tmp_path, """
        def restore(tcs, snapshot):
            tcs.saved_context = snapshot
        """, config=config)
        assert result.findings == []

    def test_suppression_applies(self, tmp_path):
        result = _lint(tmp_path, """
        def patch(tcs):
            tcs.aex_count = 0  # simlint: disable=SIM007
        """)
        assert result.findings == []
        assert result.suppressed == 1


class TestSim008:
    def test_validator_call_in_bulk_path_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        def bulk_read(self, vaddr, size):
            entry = self.machine.validator.validate(self, vaddr)
            return entry
        """)
        assert _rules(result) == ["SIM008"]
        finding = result.findings[0]
        assert "recorded at TLB fill" in finding.message
        assert finding.symbol == "bulk_read:validator.validate"

    def test_module_level_call_flagged(self, tmp_path):
        result = _lint(tmp_path, """
        ENTRY = MACHINE.validator.validate(CORE, 0x1000)
        """)
        assert _rules(result) == ["SIM008"]
        assert result.findings[0].symbol == "<module>:validator.validate"

    def test_translate_leaf_allowlisted_by_default(self, tmp_path):
        result = _lint(tmp_path, """
        def _translate(self, vaddr):
            return self.machine.validator.validate(self, vaddr)
        """, name="repro/sgx/cpu.py")
        assert result.findings == []

    def test_other_function_in_allowlisted_module_still_flagged(
            self, tmp_path):
        """The allowlist is per-leaf (module:function), not per-module:
        a *new* validator call site inside repro.sgx.cpu validates
        outside the TLB fill, where no flush can revoke the verdict, and
        must be flagged."""
        result = _lint(tmp_path, """
        def _span(self, vaddr):
            return self.machine.validator.validate(self, vaddr)
        """, name="repro/sgx/cpu.py")
        assert _rules(result) == ["SIM008"]

    def test_unrelated_validate_calls_pass(self, tmp_path):
        result = _lint(tmp_path, """
        def check(schema, doc, core, vaddr):
            schema.validate(doc)
            return core.validator.revalidate(vaddr)
        """)
        assert result.findings == []

    def test_custom_allowlist(self, tmp_path):
        config = SimlintConfig(
            sim008_allowed=frozenset({"pkg.victim:fast_path"}))
        result = _lint(tmp_path, """
        def fast_path(self, vaddr):
            return self.machine.validator.validate(self, vaddr)
        """, config=config)
        assert result.findings == []

    def test_suppression_applies(self, tmp_path):
        result = _lint(tmp_path, """
        def probe(core, vaddr):
            return core.machine.validator.validate(core, vaddr)  # simlint: disable=SIM008
        """)
        assert result.findings == []
        assert result.suppressed == 1


class TestSuppression:
    def test_disable_comment_silences_and_counts(self, tmp_path):
        result = _lint(tmp_path, """
        import time

        def bench():
            return time.time()  # simlint: disable=SIM002
        """)
        assert result.findings == []
        assert result.suppressed == 1

    def test_disable_is_rule_specific(self, tmp_path):
        result = _lint(tmp_path, """
        import time

        def bench():
            return time.time()  # simlint: disable=SIM001
        """)
        assert _rules(result) == ["SIM002"]
        assert result.suppressed == 0

    def test_disable_multiple_rules_and_all(self, tmp_path):
        result = _lint(tmp_path, """
        import time
        import random

        def both():
            a = time.time()  # simlint: disable=SIM002,SIM003
            b = random.random()  # simlint: disable=all
            return a, b
        """)
        assert result.findings == []
        assert result.suppressed == 2

    def test_parse_suppressions_table(self):
        table = parse_suppressions(
            "x = 1\ny = 2  # simlint: disable=SIM004, SIM005\n")
        assert table == {2: frozenset({"SIM004", "SIM005"})}


class TestTreeAndReport:
    def test_lint_tree_walks_and_sorts(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "b.py").write_text("import time\nT = time.time()\n")
        (pkg / "a.py").write_text("LATE_NS = 5.0\n")
        report = lint_tree(pkg, tmp_path)
        assert [f.path for f in report.findings] == ["pkg/a.py", "pkg/b.py"]
        assert report.passes == ["simlint"]

    def test_json_report_is_machine_readable(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("import time\nT = time.time()\n")
        report = lint_tree(pkg, tmp_path)
        payload = json.loads(report.render_json())
        assert payload["ok"] is False
        finding = payload["findings"][0]
        assert finding["rule"] == "SIM002"
        assert finding["path"] == "pkg/a.py"
        assert finding["line"] == 2
        assert finding["fingerprint"].startswith("SIM002:pkg/a.py")

    def test_module_dotted_names(self, tmp_path):
        pkg = tmp_path / "pkg" / "sub"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("")
        init = load_module(pkg / "__init__.py", tmp_path)
        mod = load_module(pkg / "mod.py", tmp_path)
        assert init.name == "pkg.sub"
        assert mod.name == "pkg.sub.mod"
