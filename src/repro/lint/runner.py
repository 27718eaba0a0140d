"""Walking the tree, running the rules, and reporting.

:func:`run_lint` is the whole pipeline: collect ``*.py`` files, parse each
once, run every requested rule, apply inline pragmas, and return a
:class:`LintReport`.  The report renders as text (the CLI
default), serializes to a dict, and converts to a telemetry
:class:`~repro.telemetry.runrecord.RunRecord` of kind ``lint`` whose single
:class:`~repro.telemetry.bounds.BoundVerdict` (``lint/clean``) gates
``repro lint --strict`` exactly like the paper-bound verdicts gate the
table runs -- lint findings land in the same observability layer as every
other measurement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from ..errors import InputError
from ..telemetry.bounds import BoundVerdict
from ..telemetry.runrecord import RunRecord
from .core import ModuleInfo, Rule, parse_module
from .findings import Finding
from .rules import ALL_RULES, RULES_BY_ID, PragmaHygiene

#: Repo root: src/repro/lint/runner.py -> three levels above ``src``.
REPO_ROOT = Path(__file__).resolve().parents[3]

#: What ``repro lint`` analyzes when no paths are given.
DEFAULT_PATHS = ("src/repro",)

_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache"}


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(
                p for p in sorted(path.rglob("*.py"))
                if not (_SKIP_DIRS & set(p.parts))
            )
        elif path.suffix == ".py":
            out.append(path)
        elif not path.exists():
            raise InputError(f"lint path does not exist: {path}")
    return out


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding]  # live: not pragma-suppressed
    suppressed: List[Finding] = field(default_factory=list)
    files: int = 0
    rules: List[str] = field(default_factory=list)
    paths: List[str] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def errors(self) -> List[Finding]:
        """Error-severity findings (what ``--strict`` gates on)."""
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        """Warning-severity findings (reported, never gating)."""
        return [f for f in self.findings if f.severity != "error"]

    @property
    def clean(self) -> bool:
        """True when nothing needs fixing (strict mode passes).

        Warning-severity findings (pragma hygiene) are advisory and do
        not make a run unclean.
        """
        return not self.errors

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clean": self.clean,
            "files": self.files,
            "rules": list(self.rules),
            "paths": list(self.paths),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "wall_s": round(self.wall_s, 4),
        }

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append("")
        warnings = self.warnings
        warn = f", {len(warnings)} warning(s)" if warnings else ""
        lines.append(
            f"{len(self.errors)} finding(s){warn} in {self.files} file(s) "
            f"({len(self.suppressed)} pragma-suppressed; "
            f"rules: {', '.join(self.rules)})"
        )
        return "\n".join(lines).lstrip("\n")

    def to_run_record(self) -> RunRecord:
        """Emit the run as a telemetry RunRecord of kind ``lint``."""
        verdict = BoundVerdict(
            name="lint/clean",
            column="findings",
            formula="error findings == 0",
            measured=float(len(self.errors)),
            limit=0.0,
            passed=self.clean,
        )
        return RunRecord(
            kind="lint",
            workload={
                "paths": list(self.paths),
                "rules": list(self.rules),
                "files": self.files,
                "suppressed": len(self.suppressed),
            },
            columns=[f.to_dict() for f in self.findings],
            verdicts=[verdict],
            wall_s=self.wall_s,
        )


def resolve_rules(spec: Optional[Union[str, Sequence[str]]]) -> List[Rule]:
    """Instantiate the requested rules (all of them by default).

    ``spec`` is a comma-separated string or a sequence of rule ids;
    unknown ids raise :class:`~repro.errors.InputError`.
    """
    if spec is None:
        return [cls() for cls in ALL_RULES]
    ids = ([s.strip().upper() for s in spec.split(",")]
           if isinstance(spec, str) else [s.upper() for s in spec])
    rules: List[Rule] = []
    for rule_id in ids:
        if not rule_id:
            continue
        cls = RULES_BY_ID.get(rule_id)
        if cls is None:
            known = ", ".join(sorted(RULES_BY_ID))
            raise InputError(f"unknown lint rule {rule_id!r} (known: {known})")
        rules.append(cls())
    if not rules:
        raise InputError("no lint rules selected")
    return rules


def _location(f: Finding) -> Tuple[str, int, str]:
    return (f.path, f.line, f.rule)


def run_lint(
    paths: Optional[Sequence[Union[str, Path]]] = None,
    *,
    rules: Optional[Union[str, Sequence[str]]] = None,
    root: Optional[Path] = None,
) -> LintReport:
    """Lint ``paths`` (default: ``src/repro``) and return the report.

    Relative paths resolve against ``root`` (default: the repo root).
    """
    started = time.perf_counter()
    root = Path(root) if root is not None else REPO_ROOT
    raw_paths = [Path(p) for p in (paths or DEFAULT_PATHS)]
    resolved = [p if p.is_absolute() else root / p for p in raw_paths]
    files = iter_python_files(resolved)
    rule_objs = resolve_rules(rules)

    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    for path in files:
        try:
            mod = parse_module(path, root)
        except SyntaxError as exc:
            findings.append(Finding(
                rule="REP000", path=path.as_posix(),
                line=exc.lineno or 0, col=(exc.offset or 1) - 1,
                context="<module>", message=f"syntax error: {exc.msg}",
            ))
            continue
        modules.append(mod)
        for rule in rule_objs:
            findings.extend(rule.check_module(mod))
    for rule in rule_objs:
        findings.extend(rule.finish(modules))

    by_relpath = {mod.relpath: mod for mod in modules}
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    used: Set[Tuple[str, int]] = set()  # pragmas that suppressed something
    for f in sorted(findings, key=_location):
        mod = by_relpath.get(f.path)
        pragma = mod.suppressed(f.rule, f.line) if mod is not None else None
        if pragma is None:
            kept.append(f)
        else:
            suppressed.append(f)
            used.add((f.path, pragma.line))
    # The pragma audit's second half needs the outcome of suppression.
    active = {rule.id for rule in rule_objs}
    for rule in rule_objs:
        if isinstance(rule, PragmaHygiene):
            kept.extend(rule.unused(modules, used, active))
            kept.sort(key=_location)

    return LintReport(
        findings=kept,
        suppressed=suppressed,
        files=len(files),
        rules=[r.id for r in rule_objs],
        paths=[p.as_posix() for p in raw_paths],
        wall_s=time.perf_counter() - started,
    )
