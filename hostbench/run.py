"""Host-time benchmark of the nested-enclave simulator.

Usage, from the repository root::

    python3 hostbench/run.py --workload mee-ring --seed 1 --seconds 15 \
        --trace 0

prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (host time, tracing off); ``--trace 1`` reports the
per-layer metrics from a traced run and writes a Chrome trace to
``hostbench/out/``.  ``--write-pins`` re-records ``pins.json``.

Simulated results are the correctness check, not metrics: every round
must pass its workload's semantic checks, and round 0 of the default
seed must reproduce the pinned digests.  Any failure marks every
operation failed and exits 1.  See README.md.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
OUT = HERE / "out"


@dataclass
class Round:
    ops: int
    setup_s: float      # speed-scaled seconds (see speed.py)
    ops_s: float        # speed-scaled seconds of the timed steps
    raw_ops_s: float    # the same, unscaled
    digests: dict
    problems: list
    extra: dict
    #: Kept alive until the run ends: the simulator's app registries
    #: key state by ``id()``, which a freed round would let a later
    #: round reuse.
    state: object

    @property
    def machines(self) -> list:
        return self.state.machines

    @property
    def sim_ns(self) -> float:
        return sum(m.clock.now_ns for m in self.machines)


def run_round(workload, seed: int, index: int = 0, log=None) -> Round:
    """One fresh set-up, the timed steps, then the output checks."""
    from hostbench.speed import Meter
    from hostbench.tracing import STEP
    # A traced run reports raw host time: the probe would land inside
    # whichever span the timer interrupts.
    with Meter(probing=log is None) as setup:
        state = workload.setup(seed, index)
    ops = 0
    with Meter(probing=log is None) as steps:
        for n, step in workload.steps(state):
            if log is None:
                step()
            else:
                log.op_id += 1
                log.span(STEP, step)
            ops += n
    digests, problems, extra = workload.finish(state)
    return Round(ops, setup.scaled_s, steps.scaled_s, steps.raw_s,
                 digests, problems, extra, state)


def pin_problems(name: str, digests: dict, pins: dict) -> list:
    pinned = pins[name]
    return [f"{name}: {key} differs from the pin"
            for key in sorted(digests) if digests[key] != pinned.get(key)]


def verify(workload, rounds: list, seed: int, pins: dict,
           log=None) -> list:
    """Semantic checks of every round, and the pins on round 0 of the
    default seed (run here if ``seed`` is not the default one)."""
    from hostbench.workloads import DEFAULT_SEED, SIMULATED
    problems = [p for r in rounds for p in r.problems]
    if workload.name not in SIMULATED:
        # The corpus is frozen, so every round's findings are pinned.
        return problems + [p for r in rounds for p in
                           pin_problems(workload.name, r.digests, pins)]
    pinned = rounds[0] if seed == DEFAULT_SEED \
        else run_round(workload, DEFAULT_SEED, log=log)
    problems += pinned.problems
    problems += pin_problems(workload.name, pinned.digests, pins)
    return problems


def counters_of(machines) -> dict:
    total: dict = {}
    for machine in machines:
        for name, value in machine.counters.snapshot().items():
            total[name] = total.get(name, 0) + value
    return total


def load_workload(name: str):
    """Import the workload's modules; returns the workload, the pins
    and the speed-scaled seconds from process start to here."""
    from hostbench.speed import Meter
    from hostbench.workloads import WORKLOADS
    started_s = time.perf_counter() - PROCESS_T0
    with Meter() as imports:
        pins = json.loads(PINS.read_text())
        workload = WORKLOADS[name]()
        workload.load()
    return workload, pins, started_s + imports.scaled_s


def measure(name: str, seed: int, seconds: float) -> dict:
    workload, pins, import_s = load_workload(name)
    rounds: list = []
    while not rounds or sum(r.raw_ops_s for r in rounds) < seconds:
        rounds.append(run_round(workload, seed, len(rounds)))
        if len(rounds) == 1:
            # Peak memory of one round's work: later rounds only add
            # the kept-alive states, whose count depends on host speed.
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = verify(workload, rounds, seed, pins)
    raw = sum(r.ops for r in rounds) / sum(r.raw_ops_s for r in rounds)
    print(f"hostbench: {len(rounds)} rounds, unscaled {raw:.6g} ops/s",
          file=sys.stderr)
    return {
        "problems": problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.extra.get("failed", 0) for r in rounds),
        "metrics": {
            "ops_per_s": sum(r.ops for r in rounds)
            / sum(r.ops_s for r in rounds),
            "setup_s": import_s + statistics.median(r.setup_s
                                                    for r in rounds),
            "peak_rss_mb": rss_kb / 1024.0,
        }}


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    from hostbench import tracing
    from hostbench.metrics import layer_metrics
    workload, pins, _ = load_workload(name)
    log = tracing.SpanLog()
    rounds: list = []
    plain: list = []
    per_round: list = []
    problems: list = []
    # Each traced round is paired with an untraced round of the same
    # inputs right after it: the pair shares the host's momentary
    # speed, so their ratio is the tracing overhead, and equal digests
    # show that tracing leaves simulated results alone.
    while not rounds or sum(r.raw_ops_s for r in rounds) < seconds:
        index = len(rounds)
        installation = tracing.install(log)  # before any Machine is built
        try:
            r = run_round(workload, seed, index, log)
        finally:
            installation.remove()
        calls, self_s = tracing.aggregate(log)
        per_round.append(layer_metrics(
            calls, self_s, log.counts, len(log.keys),
            counters_of(r.machines), r.extra))
        if not rounds:
            first_calls = calls
            OUT.mkdir(parents=True, exist_ok=True)
            tracing.chrome_trace(log, OUT / f"trace-{name}.json")
        log.clear()
        rounds.append(r)
        plain.append(run_round(workload, seed, index))
        if (plain[-1].digests, plain[-1].sim_ns) != (r.digests, r.sim_ns):
            problems.append(f"round {index}: tracing changed simulated "
                            f"results")
    installation = tracing.install(log)
    try:
        problems += verify(workload, rounds, seed, pins, log)
    finally:
        installation.remove()
    missing = tracing.check_coverage(first_calls, name)
    if missing:
        problems.append("declared spans did not fire (bypassed by an "
                        "alias bound before install?): "
                        + ", ".join(missing))
    values = {key: statistics.fmean(m[key] for m in per_round)
              for key in per_round[0]}
    accesses = values["sgx.cpu.read.calls"] + values["sgx.cpu.write.calls"]
    values["sim.ns"] = rounds[0].sim_ns
    plain_ops_s = statistics.fmean(p.ops_s for p in plain)
    values["sim.host_ns_per_access"] = (
        plain_ops_s * 1e9 / accesses if accesses else 0.0)
    values["trace.overhead_ratio"] = statistics.median(
        r.raw_ops_s / p.raw_ops_s for r, p in zip(rounds, plain))
    return {"problems": problems,
            "attempted": sum(r.ops for r in rounds),
            "failed": sum(r.extra.get("failed", 0) for r in rounds),
            "metrics": values}


def write_pins() -> None:
    from hostbench.workloads import DEFAULT_SEED, SIMULATED, WORKLOADS
    pins = {}
    for name in SIMULATED:
        workload = WORKLOADS[name]()
        workload.load()
        r = run_round(workload, DEFAULT_SEED)
        if r.problems:
            raise SystemExit(f"{name}: {r.problems}")
        pins[name] = r.digests
    flow = WORKLOADS["flow-analysis"]()
    flow.load()
    pins["flow-analysis"] = {}
    for index in range(len(flow.schedule(DEFAULT_SEED))):
        r = run_round(flow, DEFAULT_SEED, index)
        if r.problems:
            raise SystemExit(f"flow-analysis: {r.problems}")
        pins["flow-analysis"].update(r.digests)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"hostbench: no src/repro under {ROOT}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.write_pins:
        write_pins()
        return 0
    from hostbench.metrics import END_TO_END, PER_LAYER
    from hostbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    run = measure_traced if args.trace else measure
    out = run(args.workload, args.seed, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    correct = not out["problems"]
    for problem in out["problems"]:
        print(f"hostbench: {problem}", file=sys.stderr)
    attempted = out["attempted"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": out["failed"] if correct else attempted,
        "metrics": {name: {"value": out["metrics"][name],
                           "unit": units[name][0]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
