"""repro.lint -- the CONGEST-locality static analyzer (S17).

An AST-based lint suite whose rules encode the *model invariants* the
reproduction's measurements rest on, not style:

=======  ==========================================================
REP001   CONGEST locality: ``NodeProgram`` code goes through NodeApi
REP002   unseeded randomness: every draw comes from an injected rng
REP003   unaccounted sends: message widths derive from ``words_of``
REP004   memory-meter bypass: vertex state growth is metered
REP005   hot-path hygiene: loop-instantiated classes carry __slots__
REP012   pragma hygiene: every suppression is justified and live
=======  ==========================================================

One tier: every rule is a per-module syntactic check (REP005 joins class
definitions and loop call sites across the modules of one package).  The
six are the rules an audit over this repository's whole history supports
(the table in ``docs/static-analysis.md``).  Invariants outside their
reach are enforced dynamically instead: serve-path instrumentation cost
by the perf ledger's ``metrics.overhead_share`` /
``tracing.overhead_share``, packed tables staying out of pickles by
``ShardPool``'s spawn-without-shm ``InputError``, and wall-clock staying
out of compared reports by the merged-report-equals-single-process
certificate.

Entry points: ``repro lint`` on the command line (findings land in the
telemetry layer as a RunRecord of kind ``lint``), :func:`run_lint` from
Python, and the rule catalogue in ``docs/static-analysis.md``.
"""

from .core import ModuleInfo, PragmaRecord, Rule, ScopedVisitor, parse_module
from .findings import Finding
from .rules import (
    ALL_RULES,
    RULES_BY_ID,
    CongestLocality,
    HotPathHygiene,
    MemoryMeterBypass,
    PragmaHygiene,
    UnaccountedSends,
    UnseededRandomness,
)
from .runner import (
    DEFAULT_PATHS,
    REPO_ROOT,
    LintReport,
    iter_python_files,
    resolve_rules,
    run_lint,
)

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "CongestLocality",
    "DEFAULT_PATHS",
    "Finding",
    "HotPathHygiene",
    "LintReport",
    "MemoryMeterBypass",
    "ModuleInfo",
    "PragmaHygiene",
    "PragmaRecord",
    "REPO_ROOT",
    "Rule",
    "ScopedVisitor",
    "UnaccountedSends",
    "UnseededRandomness",
    "iter_python_files",
    "parse_module",
    "resolve_rules",
    "run_lint",
]
