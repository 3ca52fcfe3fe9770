"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src:. python3 -m pytest hostbench/tests -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from hostbench import metrics, run, tracing, workloads
from hostbench.workloads import DEFAULT_SEED

ROOT = Path(__file__).resolve().parents[2]
PINS = json.loads((ROOT / "hostbench" / "pins.json").read_text())


def _load(name):
    workload = workloads.WORKLOADS[name]()
    workload.load()
    return workload


# -- self time -----------------------------------------------------------

def test_self_time_subtracts_children_only():
    # root [0, 10) has children a [1, 4) and b [5, 9); a has a child
    # c [2, 3); d [10, 12) is a second root.
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 10.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    assert tracing.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0,
                                                      2.0]


def test_wrapped_calls_nest_and_aggregate():
    log = tracing.SpanLog()

    def leaf():
        return 7

    inner = tracing._wrap(leaf, "x.leaf", log, None)

    def middle():
        return inner() + inner()

    outer = tracing._wrap(middle, "x.middle", log, None)
    assert log.span("bench.step", outer) == 14
    assert list(log.parent) == [-1, 0, 1, 1]
    calls, self_s = tracing.aggregate(log)
    assert calls == {"bench.step": 1, "x.middle": 1, "x.leaf": 2}
    total = log.end[0] - log.start[0]
    assert math.isclose(sum(self_s.values()), total, rel_tol=1e-9)


# -- pins ----------------------------------------------------------------

def test_pinned_round_matches_and_one_ulp_trips_the_pin(monkeypatch):
    workload = _load("attested-serving")
    clean = run.run_round(workload, DEFAULT_SEED)
    assert clean.problems == []
    assert run.pin_problems(workload.name, clean.digests, PINS) == []

    original = workloads.sim_digests

    def perturbed(machines, result):
        p50 = result.metrics["p50_us"]
        result.metrics["p50_us"] = math.nextafter(p50, math.inf)
        return original(machines, result)

    monkeypatch.setattr(workloads, "sim_digests", perturbed)
    bumped = run.run_round(workload, DEFAULT_SEED)
    assert run.pin_problems(workload.name, bumped.digests, PINS) == [
        "attested-serving: result_fingerprint differs from the pin"]


# -- seeds ---------------------------------------------------------------

def _inputs(name, seed, index):
    workload = _load(name)
    if name == "flow-analysis":
        return workload.schedule(seed)
    state = workload.setup(seed, index)
    return {"ycsb-sealed-db": lambda: (state.load, state.phases),
            "mee-ring": lambda: state.legs,
            "attested-serving": lambda: state.arrivals}[name]()


@pytest.mark.parametrize("name", ["ycsb-sealed-db", "mee-ring",
                                  "attested-serving", "flow-analysis"])
def test_inputs_follow_the_seed(name):
    assert _inputs(name, 5, 0) == _inputs(name, 5, 0)
    assert _inputs(name, 5, 0) != _inputs(name, 6, 0)


def test_ring_model_counts_messages():
    cap = 64 << 10
    assert workloads.ring_messages(64, cap * 8, cap) == cap * 8 // 64
    image, tail = workloads.ring_image([(8192, 8192 * 3)], cap)
    assert tail == 3 * (8192 + 4)
    assert image[:4] == (8192).to_bytes(4, "little")
    assert image[4:8196] == b"\xA5" * 8192


# -- tracing guard -------------------------------------------------------

def test_alias_bound_before_install_fails_the_guard():
    from repro.experiments.common import nested_host
    early = nested_host()
    log = tracing.SpanLog()
    installation = tracing.install(log)
    try:
        late = nested_host()
        early.machine._charge_lines(0x1000, 64, writeback=False)
        early_calls, _ = tracing.aggregate(log)
        log.clear()
        late.machine._charge_lines(0x1000, 64, writeback=False)
        late_calls, _ = tracing.aggregate(log)
    finally:
        installation.remove()
    assert "perf.cache.access_range" in tracing.check_coverage(
        early_calls, "mee-ring")
    assert late_calls == {"perf.cache.access_range": 1}


def test_install_keeps_measurements_and_remove_restores():
    from repro.apps.ports import fastcomm
    from repro.sdk import EnclaveBuilder, parse_edl
    from repro.sdk.builder import developer_key
    from repro.sgx.cpu import Core

    def image():
        builder = EnclaveBuilder(
            "probe", parse_edl(fastcomm.PEER_EDL, name="probe"),
            signing_key=developer_key("hostbench-test"))
        for name in ("produce", "consume", "init_ring"):
            builder.add_entry(name, getattr(fastcomm, "_" + name))
        return builder.build().sigstruct.expected_mrenclave

    read = Core.read
    plain = image()
    installation = tracing.install(tracing.SpanLog())
    try:
        assert Core.read is not read
        traced = image()
    finally:
        installation.remove()
    assert traced == plain
    assert Core.read is read


# -- the declared metric set ---------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == metrics.PER_LAYER
    computed = metrics.layer_metrics({}, {}, {}, 0, {}, {})
    assert set(computed) | {"sim.ns", "sim.host_ns_per_access",
                            "trace.overhead_ratio"} == set(metrics.PER_LAYER)
