"""Finding records.

A :class:`Finding` is one rule violation at one source location.  A
violation that is *by design* is excused inline with the pragma comment
``# lint: ignore[REP00X] -- reason`` (see :mod:`repro.lint.core`); there is
no grandfathering file -- a finding is either fixed or justified where it
stands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation: rule id, location, and a one-line message."""

    rule: str  # "REP001" ... "REP012" (or "REP000" for parse failures)
    path: str  # repo-relative posix path
    line: int  # 1-based
    col: int  # 0-based, matching ast
    context: str  # enclosing qualname, e.g. "FloodMax.on_round"
    message: str
    #: ``error`` findings fail ``--strict``; ``warning`` findings (pragma
    #: hygiene) are reported but never gate.
    severity: str = "error"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "context": self.context,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self) -> str:
        head = (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule} [{self.context}] {self.message}")
        if self.severity != "error":
            head = f"{head} ({self.severity})"
        return head
