"""The four benchmark workloads.

Each workload is a fixed-size, seeded slice of a registry experiment
(or of the analysis gate) that runs in one process on one thread and
calls only public functions of the ``repro`` package.  A *round* is one
fresh set-up followed by the workload's operations; the benchmark
repeats rounds until its measuring time is spent, so set-up is timed
several times per run and every round re-checks the outputs.

A workload's interface:

* ``load()`` imports what it needs (timed as part of set-up);
* ``setup(seed, index)`` generates every input from the seed and
  builds the simulated system for round ``index``, returning a state
  object;
* ``steps(state)`` yields ``(operations, callable)`` pairs, the timed
  part of the round;
* ``finish(state)`` returns ``(digests, problems, extra)``: the
  outputs to compare against the pins, the semantic checks that
  failed, and workload-owned per-layer values.
"""

from __future__ import annotations

import hashlib
import random
import re
import shutil
import tarfile
from pathlib import Path
from types import SimpleNamespace as State

HERE = Path(__file__).resolve().parent
WORK = HERE / "out" / "work"

#: The seed the pins in ``pins.json`` were recorded with.
DEFAULT_SEED = 1
#: A seed never used while the benchmark or a change was tuned; gain
#: claims are re-checked on it.
HELD_OUT_SEED = 104729


def derive(seed: int, label: str) -> int:
    """An independent 32-bit sub-seed per generated input.  Labels
    carry the round index, so a run measures many input sets and a
    seed's result does not hang on one draw."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def sim_digests(machines, result) -> dict:
    """The pinned simulated outputs of one round."""
    from repro.perf.fingerprint import (machine_fingerprint,
                                        result_fingerprint,
                                        transition_digest)
    return {
        "result_fingerprint": result_fingerprint(result),
        "machine_fingerprint": [machine_fingerprint(m) for m in machines],
        "transition_digest": [transition_digest(m) for m in machines],
    }


# ---------------------------------------------------------------------------
# ycsb-sealed-db
# ---------------------------------------------------------------------------

_UPDATE = re.compile(r"^UPDATE usertable SET field0 = '([a-z]*)' "
                     r"WHERE ycsb_key = '(user\d+)'$")
_SELECT = re.compile(r"^SELECT \* FROM usertable WHERE ycsb_key = "
                     r"'(user\d+)'$")
_INSERT = re.compile(r"^INSERT INTO usertable VALUES "
                     r"\('(user\d+)', '([a-z]*)'\)$")


class YcsbSealedDb:
    """One tenant on ``NestedDbService``: a YCSB record load (set-up),
    then a 50/50 read/update phase and a read-only phase over the same
    table.  One operation is one SQL statement."""

    name = "ycsb-sealed-db"
    RECORDS = 30
    OPS_PER_PHASE = 40
    PHASES = ("50% SELECT & 50% UPDATE", "100% SELECT")

    def load(self) -> None:
        from repro.apps import ycsb
        from repro.apps.ports import dbservice
        from repro.experiments import common, report
        self.ycsb, self.dbservice = ycsb, dbservice
        self.common, self.report = common, report

    def setup(self, seed: int, index: int) -> State:
        ycsb = self.ycsb
        load = ycsb.load_statements(
            self.RECORDS, seed=derive(seed, f"ycsb.load.{index}"))
        phases = [[op.sql for op in ycsb.workload(
            mix, self.OPS_PER_PHASE, self.RECORDS,
            seed=derive(seed, f"ycsb.{mix}.{index}"))]
            for mix in self.PHASES]
        host = self.common.nested_host()
        service = self.dbservice.NestedDbService(host)
        session = service.add_tenant(
            hashlib.sha256(b"hostbench-tenant").digest()[:16])
        for statement in load:
            session.execute(statement)
        return State(host=host, machines=[host.machine], service=service,
                     session=session, load=load, phases=phases,
                     loaded_ns=host.machine.clock.now_ns, results=[])

    def steps(self, state: State):
        execute = state.session.execute
        clock = state.host.machine.clock
        results = state.results

        def run(sql):
            return lambda: results.append((execute(sql), clock.now_ns))

        for phase in state.phases:
            for sql in phase:
                yield 1, run(sql)

    def finish(self, state: State):
        problems = []
        table = {}
        for statement in state.load[1:]:
            key, value = _INSERT.match(statement).groups()
            table[key] = value
        result = self.report.ExperimentResult(
            "hostbench ycsb-sealed-db",
            "sealed minidb under YCSB, simulated throughput per phase",
            ("Workload", "Operations", "Simulated ops/s"))
        outcomes = iter(state.results)
        phase_start = state.loaded_ns
        for mix, phase in zip(self.PHASES, state.phases):
            end_ns = phase_start
            for sql in phase:
                rows, end_ns = next(outcomes)
                update = _UPDATE.match(sql)
                if update:
                    value, key = update.groups()
                    table[key] = value
                    continue
                key = _SELECT.match(sql).group(1)
                if rows != [(key, table[key])]:
                    problems.append(f"{sql!r} read {rows!r}, last "
                                    f"written {table[key]!r}")
            result.add(mix, len(phase),
                       len(phase) / ((end_ns - phase_start) / 1e9))
            phase_start = end_ns
        return sim_digests(state.machines, result), problems, {}


# ---------------------------------------------------------------------------
# mee-ring
# ---------------------------------------------------------------------------

_FRAME_HDR = 4
_RING_DATA_OFF = 64
_PAYLOAD = 0xA5


def ring_messages(chunk: int, total: int, capacity: int) -> int:
    """Messages ``NestedChannelDeployment.transfer`` sends for one
    leg: bursts of at most half the ring, each drained before the
    next, as many framed messages per burst as fit."""
    need = _FRAME_HDR + chunk
    moved = messages = 0
    while moved < total:
        burst = min(total - moved, capacity // 2)
        sent = used = 0
        while sent < burst and used + need <= capacity:
            used += need
            sent += chunk
            messages += 1
        moved += max(sent, chunk)
    return messages


def ring_image(legs, capacity: int) -> tuple[bytes, int]:
    """The ring's data region and tail after the given legs, modelled
    from the framing alone: each message is a u32 length and
    ``chunk`` payload bytes of 0xA5, written at tail mod capacity."""
    data = bytearray(capacity)
    tail = 0
    for chunk, total in legs:
        frame = chunk.to_bytes(_FRAME_HDR, "little") \
            + bytes([_PAYLOAD]) * chunk
        for _ in range(ring_messages(chunk, total, capacity)):
            off = tail % capacity
            first = min(len(frame), capacity - off)
            data[off:off + first] = frame[:first]
            data[:len(frame) - first] = frame[first:]
            tail += len(frame)
    return bytes(data), tail


class MeeRing:
    """``NestedChannelDeployment.transfer`` on a 512 KiB-LLC nested host
    at 64 B and 8 KiB chunks, footprints 1/8x and 8x the LLC.  One
    operation is one ring message."""

    name = "mee-ring"
    LLC = 512 << 10
    #: (footprint, chunk, total bytes) per leg.
    LEGS = ((LLC // 8, 64, LLC), (LLC // 8, 8192, LLC),
            (8 * LLC, 64, 8 * LLC), (8 * LLC, 8192, 16 * LLC))

    def load(self) -> None:
        from repro.apps.ports import fastcomm
        from repro.experiments import common, report
        self.fastcomm, self.common, self.report = fastcomm, common, report

    def setup(self, seed: int, index: int) -> State:
        legs = list(self.LEGS)
        random.Random(derive(seed, f"ring.order.{index}")).shuffle(legs)
        deployments = {}
        for footprint in sorted({leg[0] for leg in self.LEGS}):
            host = self.common.nested_host(llc_bytes=self.LLC)
            deployments[footprint] = self.fastcomm.NestedChannelDeployment(
                host, footprint_bytes=footprint)
        return State(legs=legs, deployments=deployments,
                     machines=[d.machine for d in deployments.values()],
                     sim_ns={})

    def steps(self, state: State):
        for footprint, chunk, total in state.legs:
            dep = state.deployments[footprint]

            def leg(dep=dep, key=(footprint, chunk, total)):
                state.sim_ns[key] = dep.transfer(key[1], key[2])

            yield ring_messages(chunk, total, dep.ring_cap), leg

    def finish(self, state: State):
        result = self.report.ExperimentResult(
            "hostbench mee-ring", "in-EPC ring channel, simulated MB/s",
            ("Footprint", "Chunk", "Simulated MB/s"))
        for key in self.LEGS:
            result.add(key[0], key[1],
                       (key[2] / (1 << 20)) / (state.sim_ns[key] / 1e9))
        digests = sim_digests(state.machines, result)
        # The audit reads simulated DRAM directly, so it runs after the
        # fingerprints are taken.
        problems = []
        for footprint, dep in state.deployments.items():
            legs = [(c, t) for f, c, t in state.legs if f == footprint]
            problems += self._audit(dep, legs)
        return digests, problems, {}

    @staticmethod
    def _audit(dep, legs) -> list:
        """Ring payload check: the ring memory must hold exactly
        the frames the legs sent, and the consumer must have drained
        them all."""
        from repro.sgx.constants import PAGE_SIZE
        space = dep.host.proc.space
        phys = dep.machine.phys

        def read(vaddr, size):
            out = bytearray()
            while size:
                n = min(size, PAGE_SIZE - vaddr % PAGE_SIZE)
                out += phys.read(space.translate(vaddr), n)
                vaddr += n
                size -= n
            return bytes(out)

        expected, tail = ring_image(legs, dep.ring_cap)
        header = read(dep.ring_base, 16)
        head = int.from_bytes(header[:8], "little")
        got_tail = int.from_bytes(header[8:], "little")
        actual = read(dep.ring_base + _RING_DATA_OFF, dep.ring_cap)
        problems = []
        if (head, got_tail) != (tail, tail):
            problems.append(f"ring {dep.footprint}: head/tail "
                            f"{head}/{got_tail}, expected {tail}/{tail}")
        if actual != expected:
            problems.append(f"ring {dep.footprint}: ring memory differs "
                            f"from the frames sent")
        return problems


# ---------------------------------------------------------------------------
# attested-serving
# ---------------------------------------------------------------------------

class AttestedServing:
    """``HostService`` over the echo, minidb and minisvm backends:
    zipfian tenants, open-loop arrivals in simulated time, served by
    one batch caller.  Tenants enroll during set-up.  One operation is
    one offered session."""

    name = "attested-serving"
    TENANTS = 16
    SESSIONS = 1200
    BATCH = 100

    def load(self) -> None:
        from repro.experiments import common, report
        from repro.host import backends, loadgen, service
        self.common, self.report = common, report
        self.backends, self.loadgen, self.service = backends, loadgen, \
            service

    def setup(self, seed: int, index: int) -> State:
        loadgen = self.loadgen
        arrivals = loadgen.generate_arrivals(loadgen.LoadProfile(
            sessions=self.SESSIONS, tenants=self.TENANTS,
            rate_per_s=8_000.0, db_tenants=1, svm_tenants=1,
            seed=derive(seed, f"serving.arrivals.{index}")))
        host = self.common.nested_host()
        service = self.service.HostService(
            host, self.backends.make_backends(
                host, ("echo", "minidb", "minisvm")),
            self.service.HostConfig(workers=4, queue_depth=128,
                                    rate_per_s=100_000.0, burst=64.0))
        service.run([loadgen.Arrival(0.0, tenant, "echo", bytes(32))
                     for tenant in range(self.TENANTS)])
        return State(host=host, machines=[host.machine], service=service,
                     arrivals=arrivals, warm=service.stats.served)

    def steps(self, state: State):
        run = state.service.run
        arrivals = state.arrivals
        for i in range(0, len(arrivals), self.BATCH):
            batch = arrivals[i:i + self.BATCH]
            yield len(batch), (lambda batch=batch: run(batch))

    def finish(self, state: State):
        service = state.service
        stats = service.stats
        offered = stats.offered - self.TENANTS
        served = stats.served - state.warm
        problems = []
        if stats.accounted() != stats.offered:
            problems.append(f"offered {stats.offered} != accounted "
                            f"{stats.accounted()}")
        if offered != len(state.arrivals):
            problems.append(f"offered {offered} of "
                            f"{len(state.arrivals)} sessions")
        result = self.report.ExperimentResult(
            "hostbench attested-serving",
            "attested multi-tenant serving, simulated latency",
            ("backend", "served"))
        for backend in sorted(service.backends):
            result.add(backend, stats.backend_served.get(backend, 0))
        result.metric("served", stats.served)
        result.metric("p50_us", stats.percentile_ns(0.50) / 1e3)
        result.metric("p99_us", stats.percentile_ns(0.99) / 1e3)
        result.metric("throughput_rps", stats.throughput_rps())
        digests = sim_digests(state.machines, result)
        service.close()
        return digests, problems, {
            "host.served_ratio": served / offered,
            "failed": offered - served}


# ---------------------------------------------------------------------------
# flow-analysis
# ---------------------------------------------------------------------------

CORPUS = HERE / "corpus" / "repro.tar.xz"


class FlowAnalysis:
    """``run_flow`` over a frozen copy of ``src/repro``: a baseline run,
    then one run per seeded single-file edit, each injecting a defect
    the flow engine must report under the edit's rule.  One operation
    is one whole-tree analysis."""

    name = "flow-analysis"

    def load(self) -> None:
        from hostbench import edits
        from repro.analysis.flow import engine
        self.edits, self.engine = edits, engine

    def schedule(self, seed: int) -> list:
        """Baseline first, then every edit in a seeded order."""
        names = sorted(self.edits.EDITS)
        random.Random(derive(seed, "flow.edits")).shuffle(names)
        return [None] + names

    def setup(self, seed: int, index: int) -> State:
        order = self.schedule(seed)
        edit = order[index % len(order)]
        root = WORK / "flow"
        shutil.rmtree(root, ignore_errors=True)
        with tarfile.open(CORPUS) as archive:
            archive.extractall(root, filter="data")
        if edit is not None:
            self.edits.EDITS[edit].apply(root)
        return State(root=root, edit=edit, machines=[], result=None)

    def steps(self, state: State):
        def analyse():
            state.result = self.engine.run_flow(state.root)
        yield 1, analyse

    def finish(self, state: State):
        shutil.rmtree(state.root, ignore_errors=True)
        findings = sorted(f.render() for f in state.result.report.findings)
        label = state.edit or "baseline"
        problems = []
        if state.edit is not None:
            rule = self.edits.EDITS[state.edit].rule
            if not any(f.rule == rule
                       for f in state.result.report.findings):
                problems.append(f"edit {label}: no {rule} finding")
        return {label: findings}, problems, {}


WORKLOADS = {w.name: w for w in (YcsbSealedDb, MeeRing, AttestedServing,
                                 FlowAnalysis)}
SIMULATED = ("ycsb-sealed-db", "mee-ring", "attested-serving")

