"""Secret-flow taint cases for FLOW001: key material reaching an ocall
or a transition-log payload is reported; sealed (encrypted) data and
trusted-boundary calls are not.  Each case analyses one synthetic
module through the flow engine's call graph."""

import textwrap

from repro.analysis.flow.engine import apply_suppressions
from repro.analysis.flow.graph import build_graph
from repro.analysis.flow.secret import check_secret_flow
from repro.analysis.pysource import load_module


def _analyze(tmp_path, source):
    file = tmp_path / "ports" / "svc.py"
    file.parent.mkdir(exist_ok=True)
    file.write_text(textwrap.dedent(source))
    graph = build_graph([load_module(file, tmp_path)])
    findings, _ = apply_suppressions(graph, check_secret_flow(graph)[0])
    return findings


class TestDirectLeaks:
    def test_egetkey_result_to_ocall(self, tmp_path):
        findings = _analyze(tmp_path, """
        def handler(ctx):
            seal_key = ctx.get_key("seal")
            ctx.ocall("store_blob", seal_key)
        """)
        assert [f.rule for f in findings] == ["FLOW001"]
        assert findings[0].symbol == "handler"
        assert "egetkey" in findings[0].message
        assert "a ocall payload" in findings[0].message
        assert findings[0].line == 4

    def test_secret_named_parameter_to_ocall(self, tmp_path):
        findings = _analyze(tmp_path, """
        def export(ctx, session_key):
            ctx.ocall("log_line", session_key.hex())
        """)
        assert [f.rule for f in findings] == ["FLOW001"]
        assert "secret-param:session_key" in findings[0].message

    def test_secret_attribute_to_ocall(self, tmp_path):
        findings = _analyze(tmp_path, """
        def export(ctx, config):
            ctx.ocall("push", config.key)
        """)
        assert [f.rule for f in findings] == ["FLOW001"]
        assert "secret-attr:key" in findings[0].message

    def test_derived_value_still_tainted(self, tmp_path):
        findings = _analyze(tmp_path, """
        def export(ctx):
            key = ctx.get_key("seal")
            blob = b"hdr:" + key
            ctx.ocall("send", blob)
        """)
        assert [f.rule for f in findings] == ["FLOW001"]
        assert findings[0].line == 5


class TestNonLeaks:
    def test_sealed_payload_is_declassified(self, tmp_path):
        findings = _analyze(tmp_path, """
        def export(ctx, gcm):
            key = ctx.get_key("seal")
            ciphertext = gcm.seal(b"nonce", key)
            ctx.ocall("send", ciphertext)
        """)
        assert findings == []

    def test_n_ocall_is_not_a_sink(self, tmp_path):
        findings = _analyze(tmp_path, """
        def inner(ctx, session_key):
            ctx.n_ocall("ssl_write", session_key)
        """)
        assert findings == []

    def test_comparison_declassifies(self, tmp_path):
        findings = _analyze(tmp_path, """
        def check(ctx, key, expected):
            ctx.ocall("report", key == expected)
        """)
        assert findings == []

    def test_interface_name_argument_ignored(self, tmp_path):
        findings = _analyze(tmp_path, """
        def ping(ctx, payload):
            ctx.ocall("harmless", payload)
        """)
        assert findings == []


class TestInterprocedural:
    def test_leak_through_helper(self, tmp_path):
        findings = _analyze(tmp_path, """
        def _ship(ctx, blob):
            ctx.ocall("send", blob)

        def export(ctx):
            key = ctx.get_key("seal")
            _ship(ctx, key)
        """)
        assert [(f.rule, f.symbol, f.line) for f in findings] == [
            ("FLOW001", "export", 7)]
        assert "export → _ship → ocall sink at line 3" \
            in findings[0].message

    def test_tainted_return_through_helper(self, tmp_path):
        findings = _analyze(tmp_path, """
        def _fetch(ctx):
            return ctx.get_key("seal")

        def export(ctx):
            material = _fetch(ctx)
            ctx.ocall("send", material)
        """)
        assert [f.rule for f in findings] == ["FLOW001"]
        assert findings[0].symbol == "export"

    def test_sanitizing_helper_clears_taint(self, tmp_path):
        findings = _analyze(tmp_path, """
        def _sealed(gcm, value):
            return gcm.seal(b"n", value)

        def export(ctx, gcm):
            key = ctx.get_key("seal")
            ctx.ocall("send", _sealed(gcm, key))
        """)
        assert findings == []


class TestTransitionLogSink:
    def test_key_in_log_transition_kwarg(self, tmp_path):
        findings = _analyze(tmp_path, """
        def leak(ctx, machine):
            seal_key = ctx.get_key("seal")
            machine.log_transition("EENTER", 0, eid=1, key=seal_key)
        """)
        assert [f.rule for f in findings] == ["FLOW001"]
        assert "transition-log" in findings[0].message

    def test_secret_parameter_in_record_payload(self, tmp_path):
        findings = _analyze(tmp_path, """
        def stash(machine, session_key):
            machine.transitions.record("X", 0, 1, 0, 0, session_key)
        """)
        assert [f.rule for f in findings] == ["FLOW001"]
        assert "transition-log" in findings[0].message

    def test_event_kind_argument_is_not_payload(self, tmp_path):
        """The first positional argument (the event kind) is not part
        of the digested payload."""
        findings = _analyze(tmp_path, """
        def name_only(machine, session_key):
            machine.log_transition(session_key)
        """)
        assert findings == []

    def test_plain_metadata_payload_passes(self, tmp_path):
        findings = _analyze(tmp_path, """
        def record(machine, tcs_vaddr):
            machine.log_transition("EENTER", 0, eid=1, tcs=tcs_vaddr,
                                   depth=1)
        """)
        assert findings == []

    def test_sealed_payload_is_declassified(self, tmp_path):
        findings = _analyze(tmp_path, """
        def record(ctx, gcm, machine):
            key = ctx.get_key("seal")
            machine.log_transition("KEYED", blob=gcm.seal(b"n", key))
        """)
        assert findings == []

    def test_real_isa_leaves_are_clean(self, default_report):
        isa = ("repro/sgx/isa.py", "repro/core/nested_isa.py")
        assert [f for f in default_report.findings
                if f.rule == "FLOW001" and f.path in isa] == []


class TestSuppressionAndSweep:
    def test_inline_suppression(self, tmp_path):
        findings = _analyze(tmp_path, """
        def export(ctx, session_key):
            ctx.ocall("dbg", session_key)  # flow: disable=FLOW001
        """)
        assert findings == []

    def test_real_ports_are_clean(self, default_report):
        assert [f for f in default_report.findings
                if f.path.startswith("repro/apps/ports/")] == []


_DECLARED = '''
SVC_EDL = """
enclave {
    untrusted { void stash(bytes session_blob, int flags); };
};
"""

'''


class TestEdlDeclaredParameter:
    """An ocall whose interface name an ``untrusted`` EDL section
    declares reports the declared parameter the key lands in."""

    def test_positional_argument_names_its_parameter(self, tmp_path):
        findings = _analyze(tmp_path, _DECLARED + """
def export(ctx, session_key):
    ctx.ocall("stash", session_key, 0)
""")
        assert [f.rule for f in findings] == ["FLOW001"]
        assert ("reaches the EDL-declared untrusted ocall parameter "
                "'session_blob' outside enclave trust: export → ocall "
                "sink at line 10") in findings[0].message

    def test_keyword_argument_names_its_parameter(self, tmp_path):
        findings = _analyze(tmp_path, _DECLARED + """
def export(ctx, session_key):
    ctx.ocall("stash", flags=session_key)
""")
        assert "ocall parameter 'flags'" in findings[0].message

    def test_parameter_survives_helper_lifting(self, tmp_path):
        findings = _analyze(tmp_path, _DECLARED + """
def _ship(ctx, blob):
    ctx.ocall("stash", blob)


def export(ctx):
    _ship(ctx, ctx.get_key("seal"))
""")
        assert [(f.symbol, f.line) for f in findings] == [("export", 14)]
        assert ("ocall parameter 'session_blob' outside enclave trust: "
                "export → _ship → ocall sink at line 10") \
            in findings[0].message

    def test_undeclared_ocall_keeps_the_generic_message(self, tmp_path):
        findings = _analyze(tmp_path, _DECLARED + """
def export(ctx, session_key):
    ctx.ocall("audit", session_key)
""")
        assert [f.message for f in findings] == [
            "key material (secret-param:session_key) reaches a ocall "
            "payload outside enclave trust: export → ocall sink at line 10"]

    def test_nested_untrusted_section_is_not_the_host_boundary(
            self, tmp_path):
        findings = _analyze(tmp_path, '''
SVC_EDL = """
enclave {
    nested_untrusted { void stash(bytes session_blob); };
};
"""


def export(ctx, session_key):
    ctx.ocall("stash", session_key)
''')
        assert "a ocall payload" in findings[0].message
