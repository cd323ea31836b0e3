"""AST lint pass for simulator-specific hazards.

Run as ``python -m repro.analysis.lint [paths...]`` (default:
``src/repro``).  Exit status is non-zero when any finding is reported.

Rules:

* **GEN001** -- a function annotated as returning ``Generator`` contains
  no ``yield``: ``yield from`` it and the caller crashes (or silently
  skips the protocol step) at runtime.  The simulator drives every
  protocol method with ``yield from``, which makes this the classic
  footgun of the codebase.
* **BLK001** -- a real blocking call (``time.sleep``, ``input``) inside
  a generator function: simulated processes must block on simulation
  events (``Timeout``, ``Signal``), never on the host OS, or the
  deterministic engine stalls wall-clock time for every process.
* **MUT001** -- a mutable literal as a default: either a function
  parameter default or a ``@dataclass`` field default.  Event and log
  record types are dataclasses here; a shared mutable default aliases
  state across records (use ``field(default_factory=...)``).
* **DET001** -- wall-clock or unseeded randomness inside the
  deterministic engine: ``time.time``/``monotonic``/``perf_counter``,
  ``datetime.now``, stdlib ``random``, or ``numpy.random`` convenience
  functions.  Simulated time comes from the engine; randomness must go
  through an explicitly seeded ``RandomState``/``default_rng`` so runs
  stay reproducible.
* **OBS001** -- a bare ``print()`` call: all harness output must go
  through the console layer (:mod:`repro.obs.console`) so ``--quiet``
  and ``--json`` stay honest.  The console module itself (the one
  place allowed to touch stdout) is exempt by filename.

A finding can be suppressed by ending its line with ``# lint: ignore``
(blanket) or ``# lint: ignore[DET001]`` / ``# lint: ignore[DET001,
OBS001]`` (scoped to the listed codes -- preferred, so the suppression
cannot hide an unrelated finding that later lands on the same line).
"""

from __future__ import annotations

import argparse
import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from ..obs.console import get_console

__all__ = [
    "Finding", "is_suppressed", "own_scope", "python_files", "print_findings",
    "lint_source", "lint_paths", "main",
]

SUPPRESS_MARKER = "lint: ignore"
#: ``# lint: ignore`` with an optional ``[CODE, CODE...]`` scope.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9_,\s]*)\])?")


def is_suppressed(lines: Sequence[str], line: int, code: str) -> bool:
    """True when 1-indexed ``line`` carries a marker suppressing ``code``.

    A bare ``# lint: ignore`` (optionally followed by prose) suppresses
    everything on the line; ``# lint: ignore[A,B]`` suppresses exactly
    the listed codes.
    """
    if not (1 <= line <= len(lines)):
        return False
    m = _SUPPRESS_RE.search(lines[line - 1])
    if m is None:
        return False
    if m.group(1) is None:
        return True  # blanket suppression
    scoped = {c.strip() for c in m.group(1).split(",") if c.strip()}
    return code in scoped

#: ``time`` attributes that read the host wall clock.
WALL_CLOCK_ATTRS = {"time", "time_ns", "monotonic", "monotonic_ns",
                    "perf_counter", "perf_counter_ns"}
#: Seeded / explicitly-constructed numpy RNG entry points (allowed).
SEEDED_RNG_ATTRS = {"RandomState", "default_rng", "Generator", "seed"}


@dataclass(frozen=True)
class Finding:
    """One lint finding."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def own_scope(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(fn: ast.AST) -> bool:
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own_scope(fn)
    )


def _annotation_names_generator(fn: ast.FunctionDef) -> bool:
    if fn.returns is None:
        return False
    try:
        text = ast.unparse(fn.returns)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    # Iterator[...] is excluded on purpose: returning iter(...) or a
    # generator expression satisfies it without any yield.
    return "Generator" in text


def _body_is_stub(fn: ast.FunctionDef) -> bool:
    """Docstring-, pass-, ellipsis- or raise-only bodies (abstract stubs)."""
    for stmt in fn.body:
        if isinstance(stmt, (ast.Pass, ast.Raise)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set"}
    return False


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            return True
    return False


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source: str):
        self.path = path
        self.lines = source.splitlines()
        self.findings: List[Finding] = []
        #: import alias -> real module name, for DET001/BLK001 resolution.
        self.modules: dict[str, str] = {}
        self._generator_depth = 0
        # the console module is the one place allowed to touch stdout
        self._allow_print = Path(path).name == "console.py"

    # -- bookkeeping ---------------------------------------------------
    def _add(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if is_suppressed(self.lines, line, code):
            return
        self.findings.append(
            Finding(self.path, line, getattr(node, "col_offset", 0) + 1,
                    code, message)
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = alias.name
        self.generic_visit(node)

    def _resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted module path of an attribute chain root, if imported."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in self.modules:
            parts.append(self.modules[node.id])
            return ".".join(reversed(parts))
        return None

    # -- GEN001 / BLK001 / MUT001 on functions -------------------------
    def _visit_function(self, node: ast.FunctionDef) -> None:
        is_gen = _is_generator(node)
        if _annotation_names_generator(node) and not is_gen and not _body_is_stub(node):
            self._add(
                node, "GEN001",
                f"'{node.name}' is annotated as returning a Generator but "
                "contains no yield; 'yield from' on it will fail at runtime",
            )
        args = node.args
        defaults = list(args.defaults) + list(args.kw_defaults)
        for default in defaults:
            if default is not None and _is_mutable_literal(default):
                self._add(
                    default, "MUT001",
                    f"mutable default argument in '{node.name}'; the object "
                    "is shared across every call",
                )
        self._generator_depth += 1 if is_gen else 0
        self.generic_visit(node)
        self._generator_depth -= 1 if is_gen else 0

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function  # type: ignore[assignment]

    # -- MUT001 on dataclass fields ------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if _is_dataclass(node):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None
                    and _is_mutable_literal(stmt.value)
                ):
                    self._add(
                        stmt, "MUT001",
                        f"mutable default on dataclass field in '{node.name}'; "
                        "use field(default_factory=...)",
                    )
        self.generic_visit(node)

    # -- BLK001 / DET001 on calls --------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._resolve(node.func)
        if dotted is not None:
            self._check_dotted_call(node, dotted)
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id == "input"
            and self._generator_depth > 0
        ):
            self._add(
                node, "BLK001",
                "input() blocks the process on the host terminal inside a "
                "simulated process",
            )
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and not self._allow_print
        ):
            self._add(
                node, "OBS001",
                "bare print() bypasses the console layer; route output "
                "through repro.obs.console so --quiet/--json stay honest",
            )
        self.generic_visit(node)

    def _check_dotted_call(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if dotted == "time.sleep":
            self._add(
                node, "BLK001",
                "time.sleep blocks the host thread; simulated processes must "
                "yield a Timeout instead",
            )
        elif parts[0] == "time" and len(parts) == 2 and parts[1] in WALL_CLOCK_ATTRS:
            self._add(
                node, "DET001",
                f"{dotted}() reads the host wall clock inside the "
                "deterministic engine; use the simulator's virtual time",
            )
        elif parts[0] == "random":
            # random.Random(seed) is the recommended seeded constructor;
            # only flag it when called without an explicit seed
            if dotted == "random.Random" and node.args:
                return
            self._add(
                node, "DET001",
                f"{dotted}() uses the unseeded global random state; "
                "construct an explicitly seeded generator instead",
            )
        elif (
            parts[0] == "numpy"
            and len(parts) >= 3
            and parts[1] == "random"
            and parts[2] not in SEEDED_RNG_ATTRS
        ):
            self._add(
                node, "DET001",
                f"{dotted}() draws from numpy's global random state; use a "
                "seeded RandomState/default_rng",
            )
        elif parts[0] == "datetime" and parts[-1] in {"now", "utcnow", "today"}:
            self._add(
                node, "DET001",
                f"{dotted}() reads the host clock inside the deterministic "
                "engine",
            )


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, source)
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: (f.path, f.line, f.col))


def python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, in order."""
    for raw in paths:
        p = Path(raw)
        yield from (sorted(p.rglob("*.py")) if p.is_dir() else [p])


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: List[Finding] = []
    for f in python_files(paths):
        findings.extend(lint_source(f.read_text(), str(f)))
    return findings


def print_findings(findings: Sequence[Finding]) -> int:
    """Print each finding and a count; the exit status (1 if any)."""
    con = get_console()
    for f in findings:
        con.result(str(f))
    if findings:
        con.error(f"{len(findings)} finding(s)")
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="AST lint for simulator-specific hazards "
        "(GEN001 generator protocol, BLK001 blocking calls, "
        "MUT001 mutable defaults, DET001 nondeterminism, "
        "OBS001 bare print).",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint")
    args = parser.parse_args(argv)
    return print_findings(lint_paths(args.paths))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
