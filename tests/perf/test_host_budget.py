"""Host-time budget guards for the memory-system hot path.

Fail when one ``run_fig11`` sweep (or one EPC-pressure leg) takes more
than ``budget_factor`` (2x) the host time recorded in the checked-in
``BENCH_memsys.json`` snapshot — the canary for accidentally reverting
the aggregated charging and the TLB fast path (hits served from the
access plan each entry records, fused page runs) to per-line,
per-lookup work.

Wall-clock tests are inherently noisy; set ``REPRO_SKIP_HOST_BUDGET=1``
to skip (e.g. on heavily loaded CI boxes or under coverage/profiling
harnesses, which inflate call overhead several-fold).  Regenerate the
snapshot on a new reference box with::

    PYTHONPATH=src python -m repro.perf.bench_memsys
"""

import json
import os

import pytest

from repro.perf.bench_memsys import snapshot_path
from repro.perf.wallclock import Stopwatch

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_HOST_BUDGET") == "1",
    reason="REPRO_SKIP_HOST_BUDGET=1")


def test_fig11_within_host_budget():
    path = snapshot_path()
    if not path.exists():
        pytest.skip(f"no {path.name} snapshot in this checkout")
    snapshot = json.loads(path.read_text())
    budget_s = snapshot["run_fig11_s"] * snapshot["budget_factor"]

    from repro.experiments import run_fig11
    with Stopwatch() as watch:
        run_fig11()
    assert watch.elapsed_s <= budget_s, (
        f"run_fig11 took {watch.elapsed_s:.2f}s host time, over the "
        f"{budget_s:.2f}s budget ({snapshot['budget_factor']}x the "
        f"{snapshot['run_fig11_s']}s snapshot in {path.name}); if the "
        f"box is simply slower, regenerate the snapshot with "
        f"`PYTHONPATH=src python -m repro.perf.bench_memsys`")


def test_epc_pressure_within_host_budget():
    path = snapshot_path()
    if not path.exists():
        pytest.skip(f"no {path.name} snapshot in this checkout")
    snapshot = json.loads(path.read_text())
    if "epc_pressure_s" not in snapshot:
        pytest.skip("snapshot predates the EPC-pressure leg")
    budget_s = snapshot["epc_pressure_s"] * snapshot["budget_factor"]

    from repro.perf.bench_memsys import run_epc_pressure
    with Stopwatch() as watch:
        run_epc_pressure()
    assert watch.elapsed_s <= budget_s, (
        f"the EPC-pressure leg took {watch.elapsed_s:.2f}s host time, "
        f"over the {budget_s:.2f}s budget "
        f"({snapshot['budget_factor']}x the "
        f"{snapshot['epc_pressure_s']}s snapshot in {path.name}); if "
        f"the box is simply slower, regenerate the snapshot with "
        f"`PYTHONPATH=src python -m repro.perf.bench_memsys`")
