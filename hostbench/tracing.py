"""Host-time span tracing for the traced benchmark run.

Spans are recorded from this package's own wrappers around the public
entry points of each simulator layer; nothing under ``src/`` knows it
is being traced.  :func:`install` patches the targets listed in
:data:`SPANS` and must run before any ``Machine`` is built: the core
and the machine bind hot-path aliases (``machine._llc_range``,
``core._memside_read`` ...) at construction, so a machine built earlier
keeps calling the unwrapped functions.  :func:`check_coverage` turns
such a bypass into a loud failure instead of a zero self time.

A span is (name, start, end, parent, operation id), kept in flat
``array`` columns so a million spans fit in a few tens of MB.  A
span's self time is its duration minus the part of it that its child
spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


class SpanLog:
    """In-memory span columns plus counts recorded at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = 0
        #: Counts that are not span counts (bytes moved, keys seen ...).
        self.counts: dict[str, float] = {}
        self.keys: set[bytes] = set()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def __len__(self) -> int:
        return len(self.start)

    def clear(self) -> None:
        for column in (self.name_id, self.parent, self.op, self.start,
                       self.end):
            del column[:]
        self.stack.clear()
        self.counts.clear()
        self.keys.clear()

    def span(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        return _wrap(fn, name, self, None)(*args)


def _wrap(fn: Callable, name: str, log: SpanLog, hook) -> Callable:
    nid = log.intern(name)
    names, parents, ops = log.name_id, log.parent, log.op
    starts, ends, stack = log.start, log.end, log.stack

    # functools.wraps sets __wrapped__, which inspect.getsource follows:
    # the SDK measures an entry point's source into MRENCLAVE, so a
    # wrapped entry must measure exactly like the original.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(starts)
        names.append(nid)
        parents.append(stack[-1] if stack else -1)
        ops.append(log.op_id)
        ends.append(0.0)
        stack.append(idx)
        starts.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = perf_counter()
            stack.pop()
        if hook is not None:
            hook(log, args, result)
        return result

    return wrapper


def self_times(parent, start, end) -> list[float]:
    """Per-span self time: duration minus the children's durations.

    Spans nest properly (a wrapper closes before its caller does), so
    the children of one span never overlap and their durations sum to
    the covered part of the parent's interval.
    """
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(start))]


def aggregate(log: SpanLog) -> tuple[dict[str, int], dict[str, float]]:
    """(calls, self seconds) per span name."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    names = log.names
    for nid, own in zip(log.name_id,
                        self_times(log.parent, log.start, log.end)):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
    return calls, self_s


def chrome_trace(log: SpanLog, path, limit: int = 50_000) -> None:
    """Write the first ``limit`` spans as Chrome trace-event JSON
    (complete events, microseconds), which Perfetto opens offline."""
    n = min(len(log), limit)
    t0 = log.start[0] if n else 0.0
    events = [{
        "name": log.names[log.name_id[i]],
        "cat": log.names[log.name_id[i]].rsplit(".", 1)[0],
        "ph": "X", "pid": 1, "tid": 1,
        "ts": (log.start[i] - t0) * 1e6,
        "dur": (log.end[i] - log.start[i]) * 1e6,
        "args": {"op": log.op[i], "parent": log.parent[i]},
    } for i in range(n)]
    with open(path, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"spans": len(log),
                                 "dropped": len(log) - n}}, out)


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------

SIM = ("ycsb-sealed-db", "mee-ring", "attested-serving")


@dataclass(frozen=True)
class Span:
    """One wrapped entry point: ``target`` is ``module:attr`` or
    ``module:Class.attr``; ``expect`` names the workloads on which the
    span must fire (the coverage guard)."""

    name: str
    target: str
    expect: tuple = ()
    hook: Callable | None = None


def _bytes_arg(key, index):
    def hook(log, args, result):
        log.add(key, len(args[index]))
    return hook


def _gcm_init(log, args, result):
    log.keys.add(bytes(args[1]))


def _ok(key):
    def hook(log, args, result):
        if result:
            log.add(key, 1)
    return hook


def _got(key):
    def hook(log, args, result):
        if result is not None:
            log.add(key, 1)
    return hook


def _pumped(log, args, result):
    log.add("sdk.secure_channel.attempts", result)


SPANS: tuple = (
    Span("crypto.aes.encrypt_block",
         "repro.crypto.aes:Aes.encrypt_block",
         ("ycsb-sealed-db", "attested-serving")),
    Span("crypto.aes.decrypt_block", "repro.crypto.aes:Aes.decrypt_block"),
    Span("crypto.aes.init", "repro.crypto.aes:Aes.__init__",
         ("ycsb-sealed-db", "attested-serving")),
    Span("crypto.gcm.seal", "repro.crypto.gcm:AesGcm.seal",
         ("ycsb-sealed-db", "attested-serving"),
         _bytes_arg("crypto.gcm.seal.bytes", 2)),
    Span("crypto.gcm.open", "repro.crypto.gcm:AesGcm.open",
         ("ycsb-sealed-db", "attested-serving"),
         _bytes_arg("crypto.gcm.open.bytes", 2)),
    Span("crypto.gcm.init", "repro.crypto.gcm:AesGcm.__init__",
         ("ycsb-sealed-db", "attested-serving"), _gcm_init),
    Span("crypto.hashaead.seal", "repro.crypto.hashaead:HashAead.seal",
         ("attested-serving",)),
    Span("crypto.hashaead.open", "repro.crypto.hashaead:HashAead.open",
         ("attested-serving",)),
    Span("crypto.kdf.hkdf", "repro.crypto.kdf:hkdf", ("attested-serving",)),
    Span("crypto.kdf.mac", "repro.crypto.kdf:mac", ("attested-serving",)),
    Span("crypto.kdf.mac_verify", "repro.crypto.kdf:mac_verify",
         ("attested-serving",)),
    Span("crypto.kdf.sha256", "repro.crypto.kdf:sha256"),
    Span("crypto.rsa.sign", "repro.crypto.rsa:RsaPrivateKey.sign", SIM),
    Span("crypto.rsa.verify", "repro.crypto.rsa:RsaPublicKey.verify", SIM),
    Span("crypto.rsa.generate_keypair",
         "repro.crypto.rsa:generate_keypair"),
    Span("sdk.builder.build", "repro.sdk.builder:EnclaveBuilder.build",
         SIM),
    Span("sdk.runtime.load", "repro.sdk.runtime:EnclaveHost.load", SIM),
    Span("sdk.runtime.ecall", "repro.sdk.runtime:EnclaveHandle.ecall",
         SIM),
    Span("sdk.runtime.ocall", "repro.sdk.runtime:EnclaveContext.ocall"),
    Span("sdk.runtime.n_ecall", "repro.sdk.runtime:EnclaveContext.n_ecall",
         ("attested-serving",)),
    Span("sdk.runtime.n_ocall", "repro.sdk.runtime:EnclaveContext.n_ocall",
         ("ycsb-sealed-db",)),
    Span("sdk.secure_channel.call",
         "repro.sdk.secure_channel:ReliableLink.call",
         ("attested-serving",)),
    Span("sdk.secure_channel.pump",
         "repro.sdk.secure_channel:ReliableResponder.pump",
         ("attested-serving",), _pumped),
    Span("sgx.cpu.read", "repro.sgx.cpu:Core.read",
         ("mee-ring", "attested-serving"),
         lambda log, args, result: log.add("sgx.cpu.read.bytes",
                                           len(result))),
    Span("sgx.cpu.write", "repro.sgx.cpu:Core.write", SIM,
         _bytes_arg("sgx.cpu.write.bytes", 2)),
    Span("sgx.mee.encrypt_line", "repro.sgx.mee:Mee.encrypt_line"),
    Span("sgx.mee.decrypt_line", "repro.sgx.mee:Mee.decrypt_line"),
    Span("perf.cache.access_range", "repro.perf.cache:LlcModel.access_range",
         SIM),
    Span("core.channel.try_send", "repro.core.channel:SharedRing.try_send",
         ("mee-ring",), _ok("core.channel.sent")),
    Span("core.channel.try_recv", "repro.core.channel:SharedRing.try_recv",
         ("mee-ring",), _got("core.channel.received")),
    Span("apps.minidb.execute", "repro.apps.minidb.engine:Database.execute",
         ("ycsb-sealed-db", "attested-serving")),
    Span("apps.minidb.parse", "repro.apps.minidb.parser:parse",
         ("ycsb-sealed-db", "attested-serving")),
    Span("apps.ports.dbservice.execute",
         "repro.apps.ports.dbservice:DbClientSession.execute",
         ("ycsb-sealed-db", "attested-serving")),
    Span("apps.minisvm.svm_train", "repro.apps.minisvm.svc:svm_train",
         ("attested-serving",)),
    Span("apps.minisvm.predict", "repro.apps.minisvm.svc:SvcModel.predict",
         ("attested-serving",)),
    Span("apps.ports.fastcomm.transfer",
         "repro.apps.ports.fastcomm:NestedChannelDeployment.transfer",
         ("mee-ring",)),
    Span("host.service.run", "repro.host.service:HostService.run",
         ("attested-serving",)),
    Span("host.handshake.enroll", "repro.host.handshake:HostGateway.enroll",
         ("attested-serving",)),
    Span("host.handshake.resume", "repro.host.handshake:HostGateway.resume",
         ("attested-serving",)),
    Span("host.backends.echo", "repro.host.backends:EchoBackend.handle",
         ("attested-serving",)),
    Span("host.backends.minidb", "repro.host.backends:DbBackend.handle",
         ("attested-serving",)),
    Span("host.backends.minisvm", "repro.host.backends:SvmBackend.handle",
         ("attested-serving",)),
    Span("host.stats.percentile",
         "repro.host.service:HostStats.percentile_ns",
         ("attested-serving",)),
    Span("analysis.flow.run", "repro.analysis.flow.engine:run_flow",
         ("flow-analysis",)),
    Span("analysis.flow.graph.build", "repro.analysis.flow.graph:build_graph",
         ("flow-analysis",)),
    Span("analysis.flow.analyze.graph",
         "repro.analysis.flow.engine:analyze_graph", ("flow-analysis",)),
    Span("analysis.flow.analyze.secret",
         "repro.analysis.flow.secret:check_secret_flow",
         ("flow-analysis",)),
    Span("analysis.flow.analyze.charges",
         "repro.analysis.flow.charges:check_charge_coverage",
         ("flow-analysis",)),
    Span("analysis.flow.analyze.determinism",
         "repro.analysis.flow.determinism:check_determinism_reachability",
         ("flow-analysis",)),
    Span("analysis.flow.analyze.lifecycle",
         "repro.analysis.flow.lifecycle:check_lifecycle_escape",
         ("flow-analysis",)),
    Span("analysis.pysource.load_module",
         "repro.analysis.pysource:load_module", ("flow-analysis",)),
)

#: Enclave entry points are wrapped as they are registered, one span per
#: defining module (``apps.ports.fastcomm.entry`` ...), so in-enclave
#: application work is not charged to the SDK call that entered it.
ENTRY_TARGET = "repro.sdk.builder:EnclaveBuilder.add_entry"
ENTRY_EXPECT = {
    "apps.ports.dbservice.entry": ("ycsb-sealed-db", "attested-serving"),
    "apps.ports.fastcomm.entry": ("mee-ring",),
    "apps.ports.mlservice.entry": ("attested-serving",),
    "host.backends.entry": ("attested-serving",),
}

#: The root span the benchmark opens around each operation step.
STEP = "bench.step"


def _layer_of(module: str) -> str:
    return module[len("repro."):] if module.startswith("repro.") else module


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return module, owner, attr


class Installation:
    """The live patches; :meth:`remove` restores every original."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, span: Span) -> None:
        module, owner, attr = _resolve(span.target)
        original = owner.__dict__[attr]
        wrapper = _wrap(original, span.name, self.log, span.hook)
        self._set(owner, attr, wrapper)
        if owner is module:
            # Module-level functions are also bound by name in every
            # module that imported them: patch each alias.
            for name, other in list(sys.modules.items()):
                if (name.startswith("repro") and other is not module
                        and other.__dict__.get(attr) is original):
                    self._set(other, attr, wrapper)

    def patch_entries(self) -> None:
        _, owner, attr = _resolve(ENTRY_TARGET)
        add_entry = owner.__dict__[attr]
        log = self.log

        def traced_add_entry(builder, name, func):
            span = _layer_of(getattr(func, "__module__", "")) + ".entry"
            return add_entry(builder, name, _wrap(func, span, log, None))

        self._set(owner, attr, traced_add_entry)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(log: SpanLog) -> Installation:
    """Wrap every entry point in :data:`SPANS` plus enclave entries."""
    installation = Installation(log)
    for span in SPANS:
        installation.patch(span)
    installation.patch_entries()
    return installation


def check_coverage(calls: dict[str, int], workload: str) -> list[str]:
    """Span names that were declared to fire on ``workload`` but did
    not: a wrapper bypassed by an alias bound before :func:`install`."""
    expected = [s.name for s in SPANS if workload in s.expect]
    expected += [name for name, on in ENTRY_EXPECT.items()
                 if workload in on]
    return sorted(name for name in expected if not calls.get(name))
