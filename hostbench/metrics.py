"""Metric definitions: the end-to-end set (untraced runs) and the
per-layer set (traced runs).  ``BENCHMARK.json`` lists the same names;
``tests/test_hostbench.py`` keeps the two in step."""

from __future__ import annotations

#: name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_S, _N, _B, _R = "s", "count", "bytes", "ratio"

#: name -> (unit, better), in report order.
PER_LAYER = {
    "crypto.aes.blocks": (_N, "lower"),
    "crypto.aes.self_s": (_S, "lower"),
    "crypto.gcm.seal.calls": (_N, "lower"),
    "crypto.gcm.seal.bytes": (_B, "lower"),
    "crypto.gcm.seal.self_s": (_S, "lower"),
    "crypto.gcm.open.calls": (_N, "lower"),
    "crypto.gcm.open.bytes": (_B, "lower"),
    "crypto.gcm.open.self_s": (_S, "lower"),
    "crypto.gcm.init.calls": (_N, "lower"),
    "crypto.gcm.init.self_s": (_S, "lower"),
    "crypto.gcm.init.distinct_key_ratio": (_R, "higher"),
    "crypto.hashaead.calls": (_N, "lower"),
    "crypto.hashaead.self_s": (_S, "lower"),
    "crypto.kdf.self_s": (_S, "lower"),
    "crypto.rsa.self_s": (_S, "lower"),
    "sdk.builder.build.self_s": (_S, "lower"),
    "sdk.runtime.load.self_s": (_S, "lower"),
    "sgx.cpu.read.calls": (_N, "lower"),
    "sgx.cpu.read.bytes": (_B, "lower"),
    "sgx.cpu.write.calls": (_N, "lower"),
    "sgx.cpu.write.bytes": (_B, "lower"),
    "sgx.cpu.self_s": (_S, "lower"),
    "sgx.tlb.hit_ratio": (_R, "higher"),
    "sgx.tlb.flushes": (_N, "lower"),
    "sgx.access.nested_checks": (_N, "lower"),
    "sgx.mee.lines": (_N, "lower"),
    "sgx.mee.self_s": (_S, "lower"),
    "sgx.eviction.pages": (_N, "lower"),
    "sim.host_ns_per_access": ("ns", "lower"),
    "perf.cache.access_range.calls": (_N, "lower"),
    "perf.cache.self_s": (_S, "lower"),
    "perf.cache.hit_ratio": (_R, "higher"),
    "core.channel.try_send.calls": (_N, "lower"),
    "core.channel.try_recv.calls": (_N, "lower"),
    "core.channel.send_success_ratio": (_R, "higher"),
    "core.channel.recv_success_ratio": (_R, "higher"),
    "core.channel.self_s": (_S, "lower"),
    "sdk.runtime.ecall.calls": (_N, "lower"),
    "sdk.runtime.ocall.calls": (_N, "lower"),
    "sdk.runtime.n_ecall.calls": (_N, "lower"),
    "sdk.runtime.n_ocall.calls": (_N, "lower"),
    "sdk.runtime.self_s": (_S, "lower"),
    "sdk.secure_channel.call.calls": (_N, "lower"),
    "sdk.secure_channel.attempts_per_call": (_R, "lower"),
    "sdk.secure_channel.self_s": (_S, "lower"),
    "apps.minidb.execute.calls": (_N, "lower"),
    "apps.minidb.self_s": (_S, "lower"),
    "apps.ports.dbservice.self_s": (_S, "lower"),
    "apps.minisvm.self_s": (_S, "lower"),
    "apps.ports.fastcomm.self_s": (_S, "lower"),
    "host.service.self_s": (_S, "lower"),
    "host.handshake.enroll.calls": (_N, "lower"),
    "host.handshake.self_s": (_S, "lower"),
    "host.backends.handle.calls": (_N, "lower"),
    "host.backends.self_s": (_S, "lower"),
    "host.stats.percentile.self_s": (_S, "lower"),
    "host.served_ratio": (_R, "higher"),
    "analysis.flow.run.calls": (_N, "lower"),
    "analysis.flow.self_s": (_S, "lower"),
    "analysis.flow.graph.self_s": (_S, "lower"),
    "analysis.flow.analyze.self_s": (_S, "lower"),
    "analysis.pysource.load_module.calls": (_N, "lower"),
    "analysis.pysource.self_s": (_S, "lower"),
    "analysis.pysource.parses_per_run": (_N, "lower"),
    "sim.ns": ("ns", "lower"),
    "other.self_s": (_S, "lower"),
    "trace.overhead_ratio": (_R, "lower"),
}


def _ratio(num: float, den: float) -> float:
    """``num / den``; 0 where the layer did no work (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(calls: dict, self_s: dict, counts: dict,
                  distinct_keys: int, counters: dict,
                  extra: dict) -> dict:
    """Per-layer values of one traced round.

    ``calls``/``self_s`` are per span name, ``counts`` were recorded at
    span boundaries, ``counters`` are the round's machines' simulator
    counters summed, ``extra`` holds workload-owned values.  The three
    cross-run values (``sim.ns``, ``sim.host_ns_per_access``,
    ``trace.overhead_ratio``) are filled in by the caller.
    """
    def n(*names):
        return sum(calls.get(name, 0) for name in names)

    def layer(prefix):
        return sum(v for k, v in self_s.items()
                   if k.startswith(prefix + "."))

    c = counters.get
    gcm_inits = n("crypto.gcm.init")
    link_calls = n("sdk.secure_channel.call")
    flow_runs = n("analysis.flow.run")
    return {
        "crypto.aes.blocks": n("crypto.aes.encrypt_block",
                               "crypto.aes.decrypt_block"),
        "crypto.aes.self_s": layer("crypto.aes"),
        "crypto.gcm.seal.calls": n("crypto.gcm.seal"),
        "crypto.gcm.seal.bytes": counts.get("crypto.gcm.seal.bytes", 0),
        "crypto.gcm.seal.self_s": self_s.get("crypto.gcm.seal", 0.0),
        "crypto.gcm.open.calls": n("crypto.gcm.open"),
        "crypto.gcm.open.bytes": counts.get("crypto.gcm.open.bytes", 0),
        "crypto.gcm.open.self_s": self_s.get("crypto.gcm.open", 0.0),
        "crypto.gcm.init.calls": gcm_inits,
        "crypto.gcm.init.self_s": self_s.get("crypto.gcm.init", 0.0),
        "crypto.gcm.init.distinct_key_ratio": _ratio(distinct_keys,
                                                     gcm_inits),
        "crypto.hashaead.calls": n("crypto.hashaead.seal",
                                   "crypto.hashaead.open"),
        "crypto.hashaead.self_s": layer("crypto.hashaead"),
        "crypto.kdf.self_s": layer("crypto.kdf"),
        "crypto.rsa.self_s": layer("crypto.rsa"),
        "sdk.builder.build.self_s": self_s.get("sdk.builder.build", 0.0),
        "sdk.runtime.load.self_s": self_s.get("sdk.runtime.load", 0.0),
        "sgx.cpu.read.calls": n("sgx.cpu.read"),
        "sgx.cpu.read.bytes": counts.get("sgx.cpu.read.bytes", 0),
        "sgx.cpu.write.calls": n("sgx.cpu.write"),
        "sgx.cpu.write.bytes": counts.get("sgx.cpu.write.bytes", 0),
        "sgx.cpu.self_s": layer("sgx.cpu"),
        "sgx.tlb.hit_ratio": _ratio(c("tlb_hit", 0),
                                    c("tlb_hit", 0) + c("tlb_miss", 0)),
        "sgx.tlb.flushes": c("tlb_flush", 0),
        "sgx.access.nested_checks": c("nested_check", 0),
        "sgx.mee.lines": c("mee_line_encrypt", 0)
        + c("mee_line_decrypt", 0),
        "sgx.mee.self_s": layer("sgx.mee"),
        "sgx.eviction.pages": c("ewb", 0),
        "perf.cache.access_range.calls": n("perf.cache.access_range"),
        "perf.cache.self_s": layer("perf.cache"),
        "perf.cache.hit_ratio": _ratio(c("llc_hit", 0),
                                       c("llc_hit", 0) + c("llc_miss", 0)),
        "core.channel.try_send.calls": n("core.channel.try_send"),
        "core.channel.try_recv.calls": n("core.channel.try_recv"),
        "core.channel.send_success_ratio": _ratio(
            counts.get("core.channel.sent", 0),
            n("core.channel.try_send")),
        "core.channel.recv_success_ratio": _ratio(
            counts.get("core.channel.received", 0),
            n("core.channel.try_recv")),
        "core.channel.self_s": layer("core.channel"),
        "sdk.runtime.ecall.calls": n("sdk.runtime.ecall"),
        "sdk.runtime.ocall.calls": n("sdk.runtime.ocall"),
        "sdk.runtime.n_ecall.calls": n("sdk.runtime.n_ecall"),
        "sdk.runtime.n_ocall.calls": n("sdk.runtime.n_ocall"),
        "sdk.runtime.self_s": layer("sdk.runtime"),
        "sdk.secure_channel.call.calls": link_calls,
        "sdk.secure_channel.attempts_per_call": _ratio(
            counts.get("sdk.secure_channel.attempts", 0), link_calls),
        "sdk.secure_channel.self_s": layer("sdk.secure_channel"),
        "apps.minidb.execute.calls": n("apps.minidb.execute"),
        "apps.minidb.self_s": layer("apps.minidb"),
        "apps.ports.dbservice.self_s": layer("apps.ports.dbservice"),
        "apps.minisvm.self_s": layer("apps.minisvm"),
        "apps.ports.fastcomm.self_s": layer("apps.ports.fastcomm"),
        "host.service.self_s": layer("host.service"),
        "host.handshake.enroll.calls": n("host.handshake.enroll"),
        "host.handshake.self_s": layer("host.handshake"),
        "host.backends.handle.calls": n("host.backends.echo",
                                        "host.backends.minidb",
                                        "host.backends.minisvm"),
        "host.backends.self_s": layer("host.backends"),
        "host.stats.percentile.self_s": layer("host.stats"),
        "host.served_ratio": extra.get("host.served_ratio", 0.0),
        "analysis.flow.run.calls": flow_runs,
        "analysis.flow.self_s": layer("analysis.flow"),
        "analysis.flow.graph.self_s": layer("analysis.flow.graph"),
        "analysis.flow.analyze.self_s": layer("analysis.flow.analyze"),
        "analysis.pysource.load_module.calls": n(
            "analysis.pysource.load_module"),
        "analysis.pysource.self_s": layer("analysis.pysource"),
        "analysis.pysource.parses_per_run": _ratio(
            n("analysis.pysource.load_module"), flow_runs),
        "other.self_s": self_s.get("bench.step", 0.0),
    }
