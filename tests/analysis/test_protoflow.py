"""Tests for the static message-flow conformance pass (protoflow).

Each rule is exercised against a small fixture corpus of known-good and
known-bad handler modules, including scoped/blanket suppression, and
the real ``src/repro/dsm`` tree is asserted clean (the conformance
claim the CI lint step enforces).
"""

import textwrap

from repro.analysis.protoflow import analyze_paths, analyze_source


def _codes(findings):
    return [f.code for f in findings]


def _analyze(snippet):
    return analyze_source(textwrap.dedent(snippet), "fixture.py")


# ----------------------------------------------------------------------
# PROTO001: sent but never handled
# ----------------------------------------------------------------------
def test_proto001_sent_kind_without_consumer():
    findings = _analyze("""
        class Node:
            def poke(self, dst):
                self._send(dst, "lock_req", None)
    """)
    # lock_req is declared in the protocol table but no expect() here
    assert _codes(findings) == ["PROTO001"]
    assert "lock_req" in findings[0].message


def test_proto001_clean_when_consumed():
    findings = _analyze("""
        class Node:
            def poke(self, dst):
                self._send(dst, "lock_req", None)

            def serve(self):
                msg = expect("lock_req", self.inbox)
                return msg
    """)
    assert findings == []


def test_proto001_clean_when_kind_dispatched_by_comparison():
    findings = _analyze("""
        class Node:
            def poke(self, dst):
                self._send(dst, "lock_req", None)

            def _on_deliver(self, msg):
                if msg.kind == "lock_req":
                    self._manage(msg)
    """)
    assert findings == []


def test_proto001_clean_when_kinds_consumed_through_a_kinds_table():
    # the server loop dispatches through kind -> handler / payload-key
    # tables instead of comparisons; their keys are the consumed kinds
    findings = _analyze("""
        class Node:
            REQUEST_KINDS = {"lock_req": "_manage_lock_request"}
            REPLY_KINDS = {"lock_grant": "lock_id"}

            def poke(self, dst):
                self._send(dst, "lock_req", None)

            def _manage_lock_request(self, req):
                self._send(req.requester, "lock_grant", None)

            def server(self, msg):
                handler = getattr(self, self.REQUEST_KINDS[msg.kind])
                handler(msg.payload)
    """)
    assert findings == []


def test_proto001_undeclared_kind_flagged():
    findings = _analyze("""
        class Node:
            def poke(self, dst):
                self._send(dst, "gossip", None)
    """)
    assert _codes(findings) == ["PROTO001"]
    assert "not declared in the protocol table" in findings[0].message


def test_proto001_external_kinds_exempt():
    # recon_req is served by the out-of-band recovery driver, not a
    # simulated handler; the table marks it external
    findings = _analyze("""
        class Node:
            def ask(self, dst):
                self._send(dst, "recon_req", None)
    """)
    assert findings == []


# ----------------------------------------------------------------------
# PROTO002: handler mutates logged state without the log hook
# ----------------------------------------------------------------------
_PROTO002_BAD = """
    class Node:
        def _apply_incoming_diffs(self, msg):
            self.memory[msg.page] = msg.data
            self.home_events.append(msg)
"""

_PROTO002_GOOD = """
    class Node:
        def _apply_incoming_diffs(self, msg):
            self.memory[msg.page] = msg.data
            self.home_events.append(msg)
            self.hooks.on_update_received(msg)
"""


def test_proto002_dropped_update_hook_flagged():
    # the dropped-log-hook mutation the dynamic checker cannot reach
    # with its bounded programs: covered statically instead
    findings = _analyze(_PROTO002_BAD)
    assert "PROTO002" in _codes(findings)
    f = next(f for f in findings if f.code == "PROTO002")
    assert "on_update_received" in f.message


def test_proto002_clean_when_hook_called():
    findings = _analyze(_PROTO002_GOOD)
    assert "PROTO002" not in _codes(findings)


def test_proto002_only_fires_on_declared_logged_state():
    findings = _analyze("""
        class Node:
            def _apply_incoming_diffs(self, msg):
                self.scratch = msg.data
    """)
    assert "PROTO002" not in _codes(findings)


# ----------------------------------------------------------------------
# PROTO003: raise between reply construction and send
# ----------------------------------------------------------------------
def test_proto003_raise_between_construct_and_send():
    findings = _analyze("""
        class Node:
            def _serve_page(self, msg):
                reply = PageReply(msg.page, self.memory[msg.page])
                if self.memory[msg.page] is None:
                    raise RuntimeError("page lost")
                self._send(msg.src, "page_reply", reply)

            def _fault_fetch(self, msg):
                got = expect("page_reply", self.inbox)
                return got
    """)
    assert "PROTO003" in _codes(findings)


def test_proto003_clean_when_validation_precedes_construction():
    findings = _analyze("""
        class Node:
            def _serve_page(self, msg):
                if self.memory[msg.page] is None:
                    raise RuntimeError("page lost")
                reply = PageReply(msg.page, self.memory[msg.page])
                self._send(msg.src, "page_reply", reply)

            def _fault_fetch(self, msg):
                got = expect("page_reply", self.inbox)
                return got
    """)
    assert "PROTO003" not in _codes(findings)


# ----------------------------------------------------------------------
# suppression (shared scheme with the lint pass)
# ----------------------------------------------------------------------
def test_scoped_suppression_silences_only_the_listed_code():
    findings = _analyze("""
        class Node:
            def _apply_incoming_diffs(self, msg):
                self.memory[msg.page] = msg.data  # lint: ignore[PROTO002]
    """)
    assert "PROTO002" not in _codes(findings)


def test_scoped_suppression_for_other_code_does_not_apply():
    findings = _analyze("""
        class Node:
            def _apply_incoming_diffs(self, msg):
                self.memory[msg.page] = msg.data  # lint: ignore[DET001]
    """)
    assert "PROTO002" in _codes(findings)


def test_blanket_suppression_applies():
    findings = _analyze("""
        class Node:
            def poke(self, dst):
                self._send(dst, "gossip", None)  # lint: ignore
    """)
    assert findings == []


# ----------------------------------------------------------------------
# the real tree conforms to its own protocol table
# ----------------------------------------------------------------------
def test_repo_dsm_tree_is_conformant():
    findings = analyze_paths(["src/repro/dsm"])
    assert findings == [], "\n".join(str(f) for f in findings)


def test_cli_main_exit_codes(capsys):
    from repro.analysis.protoflow import main

    assert main(["src/repro/dsm"]) == 0
    capsys.readouterr()
