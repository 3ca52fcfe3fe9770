"""Host-time snapshot of the memory-system hot path.

The simulator's *results* are deterministic (see
:mod:`repro.perf.fingerprint`); its *host* cost is not, and the Fig. 11
sweep is the workload most sensitive to it — millions of validated
accesses through TLB → LLC → MEE per run.  This module times that sweep,
the fingerprint workloads, and an EPC-pressure leg (bulk copies whose
working set is EWB'd out of the EPC and ELDB'd back between rounds, so
the TLB fast path never gets a warm TLB to lean on) on the host
clock and writes the numbers to ``BENCH_memsys.json`` at the repository
root, so a checked-in snapshot documents the expected cost on the
reference box and ``tests/perf/test_host_budget.py`` can flag
order-of-magnitude regressions (it fails when a leg exceeds
``budget_factor`` times the snapshot).

Regenerate (from the repository root, on an otherwise idle machine)::

    PYTHONPATH=src python -m repro.perf.bench_memsys

CI smoke mode (the ``bench-smoke`` job)::

    python -m repro.perf.bench_memsys --rounds 1 --check

``--check`` re-times the budgeted legs and exits non-zero if any
exceeds its snapshot budget instead of writing a new snapshot;
``REPRO_SKIP_HOST_BUDGET=1`` turns it into a no-op for noisy boxes.
``--json`` prints the collected numbers to stdout without touching the
checked-in snapshot.

All timing goes through :mod:`repro.perf.wallclock` — the single
sanctioned host-clock access point (simlint rule SIM002).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

from repro.perf.fingerprint import WORKLOADS
from repro.perf.wallclock import Stopwatch

#: Allowed slowdown over the snapshot before the budget test fails.
#: Generous on purpose: it must absorb box-to-box variance and CI
#: jitter while still catching an accidental return to per-line
#: charging (a >3x regression).
BUDGET_FACTOR = 2.0

#: Snapshot location: repository root, next to analysis-baseline.json.
SNAPSHOT_NAME = "BENCH_memsys.json"

#: Timing repetitions; the minimum is recorded (least-noise estimate).
ROUNDS = 3

#: EPC-pressure leg shape: rounds of a 6-page bulk copy with the whole
#: 16-page heap EWB'd and (all but one page) ELDB'd between rounds; the
#: page left evicted refaults through the ecall retry path, so every
#: round pays EBLOCK/ETRACK/EWB, ELDB, an IPI shootdown, and a #PF.
EPC_PRESSURE_ROUNDS = 8

#: Legs ``--check`` holds against the snapshot (the budgeted hot paths).
BUDGETED_LEGS = ("run_fig11_s", "epc_pressure_s")


def _repo_root() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parents[3]


def snapshot_path() -> pathlib.Path:
    return _repo_root() / SNAPSHOT_NAME


def _best_of(fn, rounds: int) -> float:
    best = None
    for _ in range(rounds):
        with Stopwatch() as watch:
            fn()
        if best is None or watch.elapsed_s < best:
            best = watch.elapsed_s
    return best


def time_fig11_s(rounds: int = ROUNDS) -> float:
    """Best-of-``rounds`` host seconds for one full Fig. 11 sweep."""
    from repro.experiments import run_fig11
    return _best_of(run_fig11, rounds)


def run_epc_pressure() -> None:
    """One EPC-pressure leg: bulk same-mode copies under forced
    EWB/ELDB churn of the whole working set (see
    :data:`EPC_PRESSURE_ROUNDS`)."""
    from repro.perf.fingerprint import bulk_pair
    from repro.sgx.constants import PAGE_SIZE

    host, outer, _inner = bulk_pair(epc_bytes=2 << 20)
    driver = host.kernel.driver
    span, dst = 6 * PAGE_SIZE, 8 * PAGE_SIZE
    heap_page0 = outer.heap.base & ~(PAGE_SIZE - 1)
    heap_pages = 16
    outer.ecall("fill", 0, span, 0x3C)
    for _ in range(EPC_PRESSURE_ROUNDS):
        outer.ecall("blast", 0, dst, span, 1)
        for page in range(heap_pages):
            driver.evict_page(outer.secs,
                              heap_page0 + page * PAGE_SIZE)
        # Reload all but the first span page: the next blast refaults
        # on it and takes the driver's #PF -> ELDB -> retry path.
        for page in range(1, heap_pages):
            driver.reload_page(outer.secs,
                               heap_page0 + page * PAGE_SIZE)
    assert outer.ecall("checksum", 0, span) \
        == outer.ecall("checksum", dst, span)


def time_epc_pressure_s(rounds: int = ROUNDS) -> float:
    """Best-of-``rounds`` host seconds for the EPC-pressure leg."""
    return _best_of(run_epc_pressure, rounds)


def time_fingerprint_workloads_s(rounds: int = ROUNDS) -> dict[str, float]:
    """Best-of-``rounds`` host seconds per fingerprint workload."""
    return {name: round(_best_of(workload, rounds), 4)
            for name, workload in WORKLOADS.items()}


def collect(rounds: int = ROUNDS) -> dict:
    return {
        "description": "Host-time snapshot of the memory-system hot "
                       "path; regenerate with "
                       "`PYTHONPATH=src python -m repro.perf.bench_memsys`.",
        "machine": platform.machine(),
        "python": platform.python_version(),
        "rounds": rounds,
        "budget_factor": BUDGET_FACTOR,
        "run_fig11_s": round(time_fig11_s(rounds), 4),
        "epc_pressure_s": round(time_epc_pressure_s(rounds), 4),
        "fingerprint_workloads_s": time_fingerprint_workloads_s(rounds),
    }


def check(rounds: int = ROUNDS) -> int:
    """Re-time the budgeted legs against the checked-in snapshot.

    Returns a process exit code: 0 when every leg is inside
    ``budget_factor`` times its snapshot value (or when the check is
    skipped), 1 on a budget breach.
    """
    if os.environ.get("REPRO_SKIP_HOST_BUDGET") == "1":
        print("bench-smoke skipped (REPRO_SKIP_HOST_BUDGET=1)")
        return 0
    path = snapshot_path()
    if not path.exists():
        print(f"no {path.name} snapshot in this checkout; nothing to "
              f"check")
        return 0
    snapshot = json.loads(path.read_text())
    timers = {"run_fig11_s": time_fig11_s,
              "epc_pressure_s": time_epc_pressure_s}
    status = 0
    for leg in BUDGETED_LEGS:
        recorded = snapshot.get(leg)
        if recorded is None:
            print(f"  {leg}: not in snapshot, skipped")
            continue
        budget_s = recorded * snapshot["budget_factor"]
        elapsed_s = timers[leg](rounds)
        verdict = "ok" if elapsed_s <= budget_s else "OVER BUDGET"
        print(f"  {leg}: {elapsed_s:.2f}s (budget {budget_s:.2f}s = "
              f"{snapshot['budget_factor']}x {recorded}s) {verdict}")
        if elapsed_s > budget_s:
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench_memsys",
        description="Time the memory-system hot paths; write (or check "
                    "against) the BENCH_memsys.json snapshot.")
    parser.add_argument("--rounds", type=int, default=ROUNDS, metavar="N",
                        help=f"timing repetitions, best-of-N "
                             f"(default: {ROUNDS})")
    parser.add_argument("--check", action="store_true",
                        help="compare the budgeted legs against the "
                             "checked-in snapshot instead of writing "
                             "one; exit 1 on a budget breach "
                             "(REPRO_SKIP_HOST_BUDGET=1 skips)")
    parser.add_argument("--json", action="store_true",
                        help="print the collected numbers as JSON to "
                             "stdout without writing the snapshot")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.check:
        return check(args.rounds)
    data = collect(args.rounds)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    path = snapshot_path()
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    for key, value in sorted(data.items()):
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
