"""Static protocol-conformance pass over the DSM message layer.

Run as ``python -m repro.analysis.protoflow [paths...]`` (default:
``src/repro/dsm``).  The pass parses the AST of the protocol sources,
extracts the send/consume graph -- which functions send which message
kinds (``self._send``/``self._post`` literals, ``NetMessage(kind=...)``
constructions) and which kinds are consumed (dispatch comparisons,
``expect()`` registrations, ``*KINDS*`` set literals) -- and checks it
against the declared protocol table (:mod:`repro.dsm.protocol`).

Rules:

* **PROTO001** -- a message kind is sent but never consumed anywhere in
  the scanned sources (and not declared ``external`` in the table), or
  sent without being declared at all.  Such a message sits in the
  destination mailbox forever; its sender's reply wait deadlocks.
* **PROTO002** -- a declared consumer mutates logged protocol state
  (the ``logged_state`` attributes of its message kind) without calling
  the declared log hook on the same path.  Replay reconstructs handler
  effects from log records; a mutation without its record is exactly
  the class of bug that silently breaks bit-exact recovery.
* **PROTO003** -- a reply payload is constructed and a ``raise`` can
  execute before the payload is sent.  The requester has already
  registered its ``expect()``; an exception in the gap leaves it
  waiting forever.

Suppression uses the lint marker syntax on the finding's line:
``# lint: ignore`` or ``# lint: ignore[PROTO002]``.
"""

from __future__ import annotations

import argparse
import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..dsm.protocol import PROTOCOL, MessageSpec, payload_class_names
from .lint import (
    Finding, is_suppressed, own_scope, print_findings, python_files,
)

__all__ = ["analyze_paths", "analyze_source", "main"]

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "append", "add", "update", "extend", "insert", "setdefault",
    "pop", "popleft", "clear", "remove", "fill",
})

#: Call names that send a payload (2nd/3rd positional arg is the kind).
_SEND_FUNCS = frozenset({"_send", "_post"})


def _root_self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` root of an attribute/subscript/call chain, if any.

    ``self.memory.page_bytes(p)[:]`` -> ``memory``;
    ``self.home_events[p].append`` -> ``home_events``; otherwise None.
    """
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return node.attr
            node = node.value
        else:
            return None


def _is_hook_call(node: ast.Call, hook: str) -> bool:
    """True for ``self.hooks.<hook>(...)``."""
    f = node.func
    return (
        isinstance(f, ast.Attribute)
        and f.attr == hook
        and isinstance(f.value, ast.Attribute)
        and f.value.attr == "hooks"
        and isinstance(f.value.value, ast.Name)
        and f.value.value.id == "self"
    )


def _str_constants(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _mentions_kind(node: ast.AST) -> bool:
    """Does a comparison reference ``<x>.kind`` or a ``kind`` variable?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "kind":
            return True
        if isinstance(sub, ast.Name) and sub.id == "kind":
            return True
    return False


@dataclass
class _SendSite:
    kind: str
    path: str
    line: int
    col: int


@dataclass
class _ModuleScan:
    """Everything the conformance rules need from one source file."""

    path: str
    lines: List[str]
    sends: List[_SendSite] = field(default_factory=list)
    consumed: Set[str] = field(default_factory=set)
    #: function name -> defs (PROTO002/PROTO003 walk these bodies).
    functions: Dict[str, List[ast.FunctionDef]] = field(default_factory=dict)


class _Extractor(ast.NodeVisitor):
    def __init__(self, scan: _ModuleScan):
        self.scan = scan

    def _visit_function(self, node: ast.FunctionDef) -> None:
        self.scan.functions.setdefault(node.name, []).append(node)
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        # self._send(dst, "kind", payload) / self._post(dst, "kind", payload)
        if (
            isinstance(f, ast.Attribute)
            and f.attr in _SEND_FUNCS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            self.scan.sends.append(_SendSite(
                node.args[1].value, self.scan.path,
                node.lineno, node.col_offset + 1))
        # NetMessage(..., kind="literal", ...)
        name = f.attr if isinstance(f, ast.Attribute) else (
            f.id if isinstance(f, ast.Name) else "")
        if name == "NetMessage":
            for kw in node.keywords:
                if (kw.arg == "kind" and isinstance(kw.value, ast.Constant)
                        and isinstance(kw.value.value, str)):
                    self.scan.sends.append(_SendSite(
                        kw.value.value, self.scan.path,
                        node.lineno, node.col_offset + 1))
            for i, arg in enumerate(node.args):
                # positional form: NetMessage(src, dst, "kind", ...)
                if (i == 2 and isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)):
                    self.scan.sends.append(_SendSite(
                        arg.value, self.scan.path,
                        node.lineno, node.col_offset + 1))
        # expect("kind", key) registers a consumer
        if name == "expect" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                self.scan.consumed.add(first.value)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # msg.kind == "diff" / kind in ("page_req", ...) dispatch arms
        if _mentions_kind(node):
            self.scan.consumed.update(_str_constants(node))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # SERVER_KINDS / UNSEQUENCED_KINDS set literals name handled kinds
        for target in node.targets:
            tname = target.id if isinstance(target, ast.Name) else (
                target.attr if isinstance(target, ast.Attribute) else "")
            if "KINDS" in tname.upper():
                self.scan.consumed.update(_str_constants(node.value))
        self.generic_visit(node)


def _scan_module(source: str, path: str) -> _ModuleScan:
    scan = _ModuleScan(path, source.splitlines())
    _Extractor(scan).visit(ast.parse(source, filename=path))
    return scan


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
def _check_proto001(scans: List[_ModuleScan]) -> List[Finding]:
    consumed: Set[str] = set()
    for scan in scans:
        consumed |= scan.consumed
    findings: List[Finding] = []
    reported: Set[str] = set()
    for scan in scans:
        for site in scan.sends:
            spec = PROTOCOL.get(site.kind)
            if spec is not None and (spec.external or spec.internal):
                continue
            if site.kind in consumed or site.kind in reported:
                continue
            reported.add(site.kind)
            declared = "" if spec is not None else \
                " (and it is not declared in the protocol table)"
            findings.append(_finding(
                scan, site.line, site.col, "PROTO001",
                f"message kind {site.kind!r} is sent but never handled: no "
                f"dispatch arm, expect() site, or *KINDS table consumes it"
                f"{declared}; the receiver's mailbox keeps it forever",
            ))
    return findings


def _mutations(fn: ast.FunctionDef, attrs: Tuple[str, ...]) -> List[Tuple[str, int]]:
    """(attr, line) for every in-place mutation of ``self.<attr>``."""
    out: List[Tuple[str, int]] = []
    for node in own_scope(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                root = _root_self_attr(target)
                if root in attrs:
                    out.append((root, node.lineno))
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in MUTATING_METHODS:
                root = _root_self_attr(f.value)
                if root in attrs:
                    out.append((root, node.lineno))
    return sorted(out, key=lambda m: m[1])


def _check_proto002(scans: List[_ModuleScan]) -> List[Finding]:
    findings: List[Finding] = []
    for spec in PROTOCOL.values():
        if not spec.log_hook or not spec.logged_state:
            continue
        for scan in scans:
            for consumer in spec.consumers:
                for fn in scan.functions.get(consumer, []):
                    mutated = _mutations(fn, spec.logged_state)
                    if not mutated:
                        continue
                    hook_called = any(
                        isinstance(n, ast.Call) and _is_hook_call(n, spec.log_hook)
                        for n in own_scope(fn)
                    )
                    if hook_called:
                        continue
                    attr, line = mutated[0]
                    findings.append(_finding(
                        scan, line, 1, "PROTO002",
                        f"{consumer}() handles {spec.kind!r} and mutates "
                        f"logged state 'self.{attr}' without calling "
                        f"self.hooks.{spec.log_hook}(); replay cannot "
                        f"reconstruct the mutation",
                    ))
    return findings


def _check_proto003(scans: List[_ModuleScan]) -> List[Finding]:
    payload_names = set(payload_class_names())
    findings: List[Finding] = []
    for scan in scans:
        for fns in scan.functions.values():
            for fn in fns:
                findings.extend(_proto003_in_function(scan, fn, payload_names))
    return findings


def _proto003_in_function(
    scan: _ModuleScan, fn: ast.FunctionDef, payload_names: Set[str]
) -> List[Finding]:
    built: Dict[str, int] = {}  # var name -> construction line
    sends: List[Tuple[int, Set[str]]] = []  # (line, names referenced)
    raises: List[int] = []
    for node in own_scope(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            cls = node.value.func
            cls_name = cls.attr if isinstance(cls, ast.Attribute) else (
                cls.id if isinstance(cls, ast.Name) else "")
            if cls_name in payload_names:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        built[target.id] = node.lineno
        elif isinstance(node, ast.Raise):
            raises.append(node.lineno)
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else (
                f.id if isinstance(f, ast.Name) else "")
            if name in _SEND_FUNCS or name in ("send", "post"):
                refs = {
                    sub.id for arg in node.args
                    for sub in ast.walk(arg) if isinstance(sub, ast.Name)
                }
                sends.append((node.lineno, refs))
    findings: List[Finding] = []
    for var, built_line in built.items():
        send_lines = sorted(ln for ln, refs in sends
                            if var in refs and ln >= built_line)
        if not send_lines:
            continue
        gap_raises = [r for r in raises if built_line < r < send_lines[0]]
        if gap_raises:
            findings.append(_finding(
                scan, gap_raises[0], 1, "PROTO003",
                f"{fn.name}() constructs reply {var!r} at line {built_line} "
                f"but can raise before sending it at line {send_lines[0]}; "
                f"the requester's expect() then waits forever",
            ))
    return findings


def _finding(scan: _ModuleScan, line: int, col: int, code: str,
             message: str) -> Optional[Finding]:
    if is_suppressed(scan.lines, line, code):
        return None
    return Finding(scan.path, line, col, code, message)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def _run_rules(scans: List[_ModuleScan]) -> List[Finding]:
    findings = [
        f for f in (
            _check_proto001(scans) + _check_proto002(scans)
            + _check_proto003(scans)
        ) if f is not None
    ]
    return sorted(findings, key=lambda f: (f.path, f.line, f.col))


def analyze_source(source: str, path: str = "<string>") -> List[Finding]:
    """Conformance-check one module's source text (fixture tests)."""
    return _run_rules([_scan_module(source, path)])


def analyze_paths(paths: Sequence[str]) -> List[Finding]:
    """Conformance-check every ``.py`` file under files/directories.

    PROTO001's consumed-kind set is the union over all scanned files,
    so pass the whole protocol layer (``src/repro/dsm``) at once.
    """
    return _run_rules([
        _scan_module(f.read_text(), str(f)) for f in python_files(paths)
    ])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.protoflow",
        description="Static message-flow conformance against the declared "
        "protocol table (PROTO001 unhandled kind, PROTO002 unlogged "
        "handler mutation, PROTO003 raise between reply construction "
        "and send).",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro/dsm"],
                        help="files or directories to check")
    args = parser.parse_args(argv)
    return print_findings(analyze_paths(args.paths))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
