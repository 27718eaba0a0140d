"""The analysis core: parsed modules, scoped AST visitors, rule base class.

The framework is deliberately small: a :class:`ModuleInfo` is one parsed
source file (AST + source lines + inline suppression pragmas); a
:class:`Rule` inspects modules one at a time (``check_module``) and may emit
whole-project findings after every file has been seen (``finish`` -- used by
cross-module rules like REP005, which must join class definitions in one
file with instantiation sites in another).

Inline suppression
------------------
A finding is suppressed when its line (or the line directly above, for
comment-on-its-own-line style) carries the pragma::

    # lint: ignore[REP004] -- scratch list, freed within the round

``# lint: ignore`` with no rule list suppresses every rule on that line.
The ``-- reason`` tail is the justifying comment; REP012 audits every
pragma for it, for rule ids outside the catalogue, and for suppressions
that suppress nothing.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence

from .findings import Finding

#: A pragma comment (anchored at the ``#`` so prose that merely
#: *mentions* the syntax does not register as a suppression).
PRAGMA_RE = re.compile(
    r"^#\s*lint:\s*ignore(?:\[([A-Za-z0-9_,\s]*)\])?\s*(?:--\s*(\S.*))?"
)


#: Rules a bare ``# lint: ignore`` does not suppress (must be listed).
EXPLICIT_ONLY: FrozenSet[str] = frozenset({"REP012"})


@dataclass(frozen=True)
class PragmaRecord:
    """One inline ``# lint: ignore`` pragma as written in the source."""

    line: int  # 1-based line carrying the comment
    rules: Optional[FrozenSet[str]]  # None = all rules
    reason: str  # the ``-- reason`` tail ("" when missing)

    def covers(self, rule: str) -> bool:
        """True when this pragma suppresses findings of ``rule``.

        Rules in :data:`EXPLICIT_ONLY` (the pragma-hygiene audit) are
        covered only when named in the rule list -- a bare
        ``# lint: ignore`` must not silence the audit of itself.
        """
        if self.rules is None:
            return rule not in EXPLICIT_ONLY
        return rule in self.rules


@dataclass
class ModuleInfo:
    """One parsed source file, shared by every rule."""

    path: Path  # absolute
    relpath: str  # repo-relative posix (what findings report)
    tree: ast.Module
    lines: List[str]
    #: line number -> the pragmas that cover findings anchored there
    suppressions: Dict[int, List[PragmaRecord]] = field(default_factory=dict)
    #: every pragma as written (what REP012 audits)
    pragmas: List[PragmaRecord] = field(default_factory=list)

    def suppressed(self, rule: str, line: int) -> Optional[PragmaRecord]:
        """The pragma that suppresses ``rule`` at ``line`` (on the line
        itself or a comment line directly above), or ``None``."""
        for at in (line, line - 1):
            for pragma in self.suppressions.get(at, ()):
                if pragma.covers(rule):
                    return pragma
        return None


def parse_module(path: Path, root: Path) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises ``SyntaxError``)."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    suppressions: Dict[int, List[PragmaRecord]] = {}
    pragmas: List[PragmaRecord] = []
    for lineno, text in _comment_tokens(source):
        match = PRAGMA_RE.search(text)
        if match is None:
            continue
        listed = match.group(1)
        rules: Optional[FrozenSet[str]]
        if listed is None:
            rules = None
        else:
            rules = frozenset(
                part.strip().upper()
                for part in listed.split(",") if part.strip()
            )
        pragma = PragmaRecord(line=lineno, rules=rules,
                              reason=(match.group(2) or "").strip())
        suppressions.setdefault(lineno, []).append(pragma)
        pragmas.append(pragma)
    _extend_to_decorated_defs(tree, suppressions)
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    return ModuleInfo(path=path, relpath=relpath, tree=tree,
                      lines=lines, suppressions=suppressions,
                      pragmas=pragmas)


def _comment_tokens(source: str) -> List[tuple]:
    """(lineno, text) for every real comment token.

    Tokenizing (instead of scanning raw lines) keeps pragma *mentions*
    inside docstrings and string literals from registering as live
    suppressions -- only actual ``#`` comments count.
    """
    out: List[tuple] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError):
        pass  # ast.parse already succeeded; truncated trailers are fine
    return out


def _extend_to_decorated_defs(
    tree: ast.Module,
    suppressions: Dict[int, List[PragmaRecord]],
) -> None:
    """Let a pragma above a decorator cover the decorated ``def``/``class``.

    Findings anchor to the ``def`` line, but the natural place to write the
    comment is above the decorator stack; copy the pragma down so
    :meth:`ModuleInfo.suppressed` matches there too.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if not node.decorator_list:
            continue
        first = min(d.lineno for d in node.decorator_list)
        for at in (first, first - 1):
            if at in suppressions:
                suppressions.setdefault(node.lineno, []).extend(
                    suppressions[at])
                break


class Rule:
    """Base class of all checkers.

    Subclasses set ``id`` / ``title`` / ``invariant`` (the paper guarantee
    the rule protects -- surfaced by ``repro lint --explain`` and the rule
    catalogue in docs/static-analysis.md) and override :meth:`check_module`;
    cross-module rules accumulate state there and emit from :meth:`finish`.
    """

    id: str = "REP000"
    title: str = ""
    invariant: str = ""

    def check_module(self, mod: ModuleInfo) -> List[Finding]:
        return []

    def finish(self, modules: Sequence[ModuleInfo]) -> List[Finding]:
        return []


class ScopedVisitor(ast.NodeVisitor):
    """An ``ast.NodeVisitor`` that tracks the enclosing qualname and lets
    rules emit findings with one call."""

    def __init__(self, rule: Rule, mod: ModuleInfo) -> None:
        self.rule = rule
        self.mod = mod
        self.findings: List[Finding] = []
        self._scope: List[str] = []

    # -- scope tracking -----------------------------------------------------

    @property
    def context(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    def _visit_scoped(self, node: ast.AST, name: str) -> None:
        self._scope.append(name)
        try:
            self.generic_visit(node)
        finally:
            self._scope.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scoped(node, node.name)

    # -- emission -----------------------------------------------------------

    def emit(self, node: ast.AST, message: str,
             context: Optional[str] = None) -> None:
        self.findings.append(Finding(
            rule=self.rule.id,
            path=self.mod.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            context=context if context is not None else self.context,
            message=message,
        ))


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

def attr_root(node: ast.AST) -> Optional[ast.AST]:
    """The leftmost value of an attribute/subscript/call chain.

    ``self.sketch[seed].append`` -> the ``Name('self')`` node;
    ``foo().bar`` -> the ``Call`` node's own root.
    """
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return node


def is_name(node: ast.AST, *names: str) -> bool:
    return isinstance(node, ast.Name) and node.id in names


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for pure Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def contains_call_to(node: ast.AST, name: str) -> bool:
    """True when the subtree contains a call to ``name`` (bare or as the
    final attribute of a dotted chain, e.g. ``wordsize.words_of``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if is_name(func, name):
                return True
            if isinstance(func, ast.Attribute) and func.attr == name:
                return True
    return False


def class_has_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(is_name(t, "__slots__") for t in stmt.targets):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if is_name(stmt.target, "__slots__"):
                return True
    return False


def base_names(node: ast.ClassDef) -> List[str]:
    """Base-class names, using the final attribute for dotted bases."""
    out: List[str] = []
    for b in node.bases:
        if isinstance(b, ast.Name):
            out.append(b.id)
        elif isinstance(b, ast.Attribute):
            out.append(b.attr)
    return out


def node_program_classes(tree: ast.Module) -> List[ast.ClassDef]:
    """Classes extending ``NodeProgram`` (transitively, within the module)."""
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    program_names = {"NodeProgram"}
    # Iterate to a fixed point so B(A(NodeProgram)) is found as well.
    changed = True
    found: List[ast.ClassDef] = []
    found_ids = set()
    while changed:
        changed = False
        for cls in classes:
            if id(cls) in found_ids:
                continue
            if any(b in program_names for b in base_names(cls)):
                found.append(cls)
                found_ids.add(id(cls))
                program_names.add(cls.name)
                changed = True
    return found
