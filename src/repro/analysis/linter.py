"""AST + dataflow lint for ULFM/simulation idioms (rules ULF001-ULF020).

The simulator's correctness leans on a handful of conventions that plain
Python happily lets you break: failure exceptions must reach the recovery
protocol, the event loop must stay deterministic, collectives must not be
retried from inside the very handler that caught their failure, and —
since the sweep engine's content-addressed cache landed — sweep tasks
must be pure and shared cached objects must stay frozen.  This linter
walks the AST of every target file and flags violations of those
conventions.  Layer 1, the AST visitor here, checks ULF001, ULF003 and
ULF004.  ULF002 comes from the call classifier of
:mod:`repro.analysis.dataflow.effects` (the one that also records the
``clock``/``rng`` effects ULF012 checks), and the flow-sensitive rules
run on the control-flow graphs and fixpoint engine of
:mod:`repro.analysis.dataflow`.  See ``docs/analysis.md`` for the full
catalog with violation/fix examples.

========  ================================================================
ULF001    bare/broad ``except`` that can swallow ``ProcFailedError`` /
          ``RevokedError`` without re-raising or inspecting the exception
ULF002    wall-clock time or unseeded randomness in simulated code
          (breaks deterministic replay; use ``ctx.wtime()`` / seeded
          ``random.Random(seed)``)
ULF003    communicator-creating call whose result is discarded (the new
          communicator can never be used or freed)
ULF004    blocking (non-fault-tolerant) collective awaited inside a
          failure handler; only ``agree``/``shrink`` are safe there
ULF005    checkpoint write reachable without a synchronising operation on
          every path (flow-sensitive; partial checkpoints on failure)
ULF006    collective call diverges across rank-dependent branches: some
          ranks never reach it, every participant deadlocks
ULF007    operation on a possibly-revoked communicator (typestate: only
          agree/shrink/free are legal after revoke)
ULF008    use or double free of a freed communicator (typestate)
ULF009    point-to-point tags across the arms of a rank-dependent branch
          can never match (constant propagation)
ULF010    call chain reaches a checkpoint write without synchronising
          first (interprocedural upgrade of ULF005)
ULF011    mutation of a shared cached object (frozen-provider result or
          ``writeable=False`` array): in-place ops, mutator methods,
          subscript/attribute stores, thawing
ULF012    impurity (global writes, file I/O, unseeded RNG, wall clock)
          reachable from a ``# repro: cacheable`` entry point whose
          results the sweep cache replays
ULF013    shared cached reference escapes into long-lived state, or a
          view of one is returned, without an owned ``.copy()``
ULF014    unordered-set iteration / id()-derived keys feeding
          aggregation: breaks the bit-identical serial/pool guarantee
ULF015    unpicklable pool-transport payload (lambda, nested function,
          lock/file/Universe in task arguments)
ULF016    cross-rank collective-sequence divergence under failure
          (protocol model checker, :mod:`repro.analysis.model`)
ULF017    unreachable/incomplete repair state: a survivor can wait on a
          phase no live rank will enter (model checker)
ULF018    checkpoint-epoch inconsistency across restore paths (model
          checker)
ULF019    spawn/merge handshake mismatch in the repair protocol (model
          checker)
ULF020    revoke-propagation gap: a post-failure collective is reachable
          before every member observes the revoke (model checker)
========  ================================================================

Rules ULF016-ULF020 run only on functions annotated
``# repro: protocol``: the protocol-skeleton extractor lowers the
function (and the shipped recovery pipeline it calls) to protocol IR and
an explicit-state model checker explores every failure placement; see
``repro verify-protocol`` for counterexample timelines.

Suppression: append ``# noqa`` (all rules) or ``# noqa: ULF002`` /
``# noqa: ULF001, ULF004`` to the offending line; a justification may
follow the codes (``# noqa: ULF002 -- replay-safe: host-only path``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from ..mpi.collectives import CREATES_COMM, RvKind, ops_with

__all__ = ["LintViolation", "RULES", "SEVERITY", "lint_file", "lint_paths",
           "default_lint_paths", "format_report"]

RULES: Dict[str, str] = {
    "ULF001": "broad except may swallow ProcFailedError/RevokedError",
    "ULF002": "wall-clock/unseeded randomness breaks deterministic replay",
    "ULF003": "communicator created but discarded (never used or freed)",
    "ULF004": "blocking collective inside a failure handler",
    "ULF005": "checkpoint write without synchronisation on every path",
    "ULF006": "collective diverges across rank-dependent branches",
    "ULF007": "operation on a possibly-revoked communicator",
    "ULF008": "use or double free of a freed communicator",
    "ULF009": "rank-branch point-to-point tags can never match",
    "ULF010": "call chain reaches an unsynchronised checkpoint write",
    "ULF011": "mutation of a shared cached (frozen) object",
    "ULF012": "impure effect reachable from a cacheable entry point",
    "ULF013": "shared cached reference escapes without an owned copy",
    "ULF014": "unordered iteration / id() keys feed aggregated results",
    "ULF015": "unpicklable payload handed to a pool transport",
    # protocol-model rules (repro.analysis.model): findings of the
    # explicit-state checker over extracted recovery skeletons
    "ULF016": "collective sequence diverges across ranks under failure",
    "ULF017": "survivor can wait on a repair phase no live rank enters",
    "ULF018": "checkpoint epochs inconsistent across restore paths",
    "ULF019": "spawn/merge handshake mismatch in the repair protocol",
    "ULF020": "post-failure collective reachable before revoke observed",
}

#: CI severity per rule.  ``error`` rules are hard correctness contracts;
#: ``warning`` rules rest on heuristics (rank-taint, module-local call
#: resolution) and may need a justified ``# noqa`` in unusual shapes.
#: The exit code treats both as violations.
SEVERITY: Dict[str, str] = {
    "ULF000": "error", "ULF001": "error", "ULF002": "error",
    "ULF003": "error", "ULF004": "error", "ULF005": "error",
    "ULF006": "warning", "ULF007": "error", "ULF008": "error",
    "ULF009": "warning", "ULF010": "error",
    "ULF011": "error", "ULF012": "error", "ULF013": "warning",
    "ULF014": "warning", "ULF015": "error",
    # model-checker findings come with a concrete counterexample
    # interleaving, so they are never heuristic
    "ULF016": "error", "ULF017": "error", "ULF018": "error",
    "ULF019": "error", "ULF020": "error",
}

#: exception names whose handlers count as *failure handlers* (ULF004)
_FAILURE_EXCEPTS = {"MPIError", "ProcFailedError", "RevokedError",
                    "CommInvalidError", "TaskFailedError"}
#: collectives that block on every member and die with it (ULF004)
_BLOCKING = ops_with(RvKind.NORMAL)

#: the directive itself; code parsing happens token-wise afterwards so
#: trailing prose ("# noqa: ULF002 justified because ...") cannot leak
#: into the code list (the old ``[A-Z0-9, ]+`` + IGNORECASE regex ate it)
_NOQA_RE = re.compile(r"#\s*noqa\b(?P<rest>:)?", re.IGNORECASE)
_CODE_TOKEN_RE = re.compile(r"[A-Za-z]+[0-9]+$")


def parse_noqa(line: str) -> Optional[Set[str]]:
    """Parse a ``# noqa`` directive on a source line.

    Returns ``None`` when the line has no directive, an empty set for a
    blanket ``# noqa`` (suppress every rule), or the set of upper-cased
    rule codes for ``# noqa: ULF001, ULF004``.  Codes may be separated
    by commas and/or spaces; anything after the first non-code token is
    treated as justification text and ignored, so
    ``# noqa: ULF002 wall clock ok here`` suppresses exactly ULF002.
    A ``noqa:`` with no parseable codes degrades to a blanket noqa.
    """
    m = _NOQA_RE.search(line)
    if not m:
        return None
    if not m.group("rest"):
        return set()
    codes: Set[str] = set()
    for token in re.split(r"[,\s]+", line[m.end():].strip()):
        if not token:
            continue
        if _CODE_TOKEN_RE.match(token):
            codes.add(token.upper())
        else:
            break  # justification prose starts here
    return codes


@dataclass
class LintViolation:
    rule: str
    path: str
    line: int
    col: int
    message: str
    #: True when an in-source ``# noqa`` covers this finding.  Suppressed
    #: findings are normally dropped; ``lint_file(keep_suppressed=True)``
    #: keeps them marked so SARIF can emit them with a ``suppressions``
    #: object (the audit trail CI reviewers act on) instead of silently.
    suppressed: bool = False

    @property
    def severity(self) -> str:
        return SEVERITY.get(self.rule, "error")

    def to_dict(self) -> dict:
        d = {"rule": self.rule, "severity": self.severity,
             "path": self.path, "line": self.line, "col": self.col,
             "message": self.message}
        if self.suppressed:
            d["suppressed"] = True
        return d

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _call_attr(node: ast.AST) -> Optional[str]:
    """Attribute name of a ``x.y(...)`` call, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _except_names(handler: ast.ExceptHandler) -> Set[str]:
    """Leaf names of the handler's exception type(s); empty for bare."""
    t = handler.type
    if t is None:
        return set()
    nodes = t.elts if isinstance(t, ast.Tuple) else [t]
    names = set()
    for n in nodes:
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


class _FileLinter(ast.NodeVisitor):
    """Syntactic rules (ULF001, ULF003, ULF004). ``noqa`` suppression
    happens centrally in :func:`lint_file`, over syntactic and dataflow
    violations alike."""

    def __init__(self, path: str):
        self.path = path
        self.violations: List[LintViolation] = []

    # -- plumbing --------------------------------------------------------
    def flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.violations.append(LintViolation(
            rule, self.path, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1, message))

    # -- ULF001: broad excepts ------------------------------------------
    def visit_Try(self, node: ast.Try) -> None:
        for handler in node.handlers:
            self._check_broad_except(handler)
            self._check_collective_in_handler(handler)
        self.generic_visit(node)

    def _check_broad_except(self, handler: ast.ExceptHandler) -> None:
        names = _except_names(handler)
        bare = handler.type is None
        broad = bool(names & {"Exception", "BaseException"})
        if not (bare or broad):
            return
        body_raises = any(isinstance(n, ast.Raise)
                          for stmt in handler.body for n in ast.walk(stmt))
        uses_bound = handler.name is not None and any(
            isinstance(n, ast.Name) and n.id == handler.name
            for stmt in handler.body for n in ast.walk(stmt))
        if body_raises or uses_bound:
            return
        what = "bare except" if bare else f"except {'/'.join(sorted(names))}"
        self.flag("ULF001", handler,
                  f"{what} silently swallows ProcFailedError/RevokedError; "
                  "catch the specific MPI error, re-raise, or inspect the "
                  "exception")

    # -- ULF004: blocking collective inside failure handler -------------
    def _check_collective_in_handler(self, handler: ast.ExceptHandler) -> None:
        names = _except_names(handler)
        is_failure = handler.type is None or bool(names & _FAILURE_EXCEPTS)
        if not is_failure:
            return
        for await_node in self._unguarded_awaits(handler.body):
            attr = _call_attr(await_node.value)
            if attr in _BLOCKING:
                self.flag(
                    "ULF004", await_node,
                    f"blocking collective '{attr}' awaited inside a "
                    "failure handler: if the failure also broke this "
                    "communicator the handler deadlocks; use agree/shrink "
                    "or revoke-then-repair")

    def _unguarded_awaits(self, body: Sequence[ast.stmt]):
        """Await nodes in ``body`` not wrapped in their own MPI-error try."""
        for stmt in body:
            if isinstance(stmt, ast.Try):
                guarded = any(h.type is None
                              or _except_names(h) & _FAILURE_EXCEPTS
                              for h in stmt.handlers)
                if not guarded:
                    yield from self._unguarded_awaits(stmt.body)
                for h in stmt.handlers:
                    yield from self._unguarded_awaits(h.body)
                yield from self._unguarded_awaits(stmt.orelse)
                yield from self._unguarded_awaits(stmt.finalbody)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # a nested def is a new scope, not handler code
            else:
                for n in ast.walk(stmt):
                    if isinstance(n, ast.Await):
                        yield n

    # -- ULF003: discarded communicator ----------------------------------
    def visit_Expr(self, node: ast.Expr) -> None:
        val = node.value
        if isinstance(val, ast.Await):
            attr = _call_attr(val.value)
            if attr in CREATES_COMM:
                self.flag("ULF003", node,
                          f"result of '{attr}' discarded: the new "
                          "communicator can never be used or freed (leaks "
                          "its rendezvous/message state)")
        self.generic_visit(node)

def _suppressed(v: LintViolation, lines: Sequence[str]) -> bool:
    if not (1 <= v.line <= len(lines)):
        return False
    codes = parse_noqa(lines[v.line - 1])
    if codes is None:
        return False
    return not codes or v.rule in codes


def lint_file(path, *, source: Optional[str] = None,
              keep_suppressed: bool = False) -> List[LintViolation]:
    """Lint one Python file; syntax errors become a single pseudo-violation
    (rule ``ULF000``) rather than an exception.

    Runs the syntactic visitor (ULF001/ULF003/ULF004) and the dataflow/
    model analyses (ULF002, ULF005-ULF020), then applies ``noqa`` suppression to the
    combined result.  ``keep_suppressed=True`` returns suppressed findings
    too, marked ``suppressed=True``, instead of dropping them — the SARIF
    emitter uses this to preserve the suppression audit trail."""
    from .dataflow.driver import analyze_module  # lazy: driver imports us

    p = str(path)
    if source is None:
        source = Path(path).read_text()
    try:
        tree = ast.parse(source, filename=p)
    except SyntaxError as exc:
        return [LintViolation("ULF000", p, exc.lineno or 1,
                              (exc.offset or 0) + 1,
                              f"syntax error: {exc.msg}")]
    linter = _FileLinter(p)
    linter.visit(tree)
    violations = linter.violations + analyze_module(tree, p, source=source)
    lines = source.splitlines()
    if keep_suppressed:
        violations = [replace(v, suppressed=True) if _suppressed(v, lines)
                      else v for v in violations]
    else:
        violations = [v for v in violations if not _suppressed(v, lines)]
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule))


def _iter_py_files(paths: Sequence) -> List[Path]:
    files: List[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


def lint_paths(paths: Sequence, *,
               keep_suppressed: bool = False) -> List[LintViolation]:
    """Lint every ``.py`` file under the given files/directories."""
    out: List[LintViolation] = []
    for f in _iter_py_files(paths):
        out.extend(lint_file(f, keep_suppressed=keep_suppressed))
    return out


def default_lint_paths() -> List[Path]:
    """The repository's own lintable code: the ``repro`` package plus the
    ``examples/`` directory when running from a checkout."""
    pkg = Path(__file__).resolve().parent.parent  # src/repro
    targets = [pkg]
    examples = pkg.parent.parent / "examples"
    if examples.is_dir():
        targets.append(examples)
    return targets


def format_report(violations: List[LintViolation],
                  n_files: Optional[int] = None) -> str:
    if not violations:
        suffix = f" ({n_files} file(s))" if n_files is not None else ""
        return f"lint: clean{suffix}"
    lines = [str(v) for v in violations]
    lines.append(f"lint: {len(violations)} violation(s)")
    return "\n".join(lines)
