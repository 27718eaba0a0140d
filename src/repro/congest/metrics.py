"""Run-level metrics for CONGEST executions.

The simulator aggregates, per run:

* ``rounds``                -- simulated rounds actually executed, plus
* ``charged_rounds``        -- rounds added analytically by phases that are
                               cost-charged instead of simulated (see
                               DESIGN.md, "Simulation fidelity");
* ``messages`` / ``message_words`` -- traffic totals;
* per-vertex memory high-water marks (via the vertices' meters).

:class:`PhaseLog` lets orchestrators attribute rounds/messages to named
protocol phases so benchmarks can print per-stage breakdowns matching the
paper's narrative (Stage 1/2/3 of the tree routing, and the pivot/cluster
phases of Appendix B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..telemetry import events as _tele


@dataclass
class PhaseRecord:
    """Rounds and traffic attributed to one named phase."""

    name: str
    rounds: int = 0
    charged_rounds: int = 0
    messages: int = 0
    message_words: int = 0

    @property
    def total_rounds(self) -> int:
        return self.rounds + self.charged_rounds

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "rounds": self.rounds,
            "charged_rounds": self.charged_rounds,
            "messages": self.messages,
            "message_words": self.message_words,
        }


@dataclass
class RunMetrics:
    """Aggregate counters for a whole distributed execution."""

    rounds: int = 0
    charged_rounds: int = 0
    messages: int = 0
    message_words: int = 0
    phases: List[PhaseRecord] = field(default_factory=list)
    _open: Optional[PhaseRecord] = None

    @property
    def total_rounds(self) -> int:
        """Simulated plus analytically charged rounds."""
        return self.rounds + self.charged_rounds

    @property
    def phase_name(self) -> Optional[str]:
        """Name of the currently open phase (None outside any phase)."""
        return self._open.name if self._open is not None else None

    # -- phase attribution ---------------------------------------------------

    def begin_phase(self, name: str) -> None:
        self._open = PhaseRecord(name=name)
        self.phases.append(self._open)

    def end_phase(self) -> None:
        self._open = None

    # ``on_round`` / ``on_charge`` are the one emission site of the
    # ``congest.*`` telemetry counters: every engine accounts through
    # them, so collector totals equal these fields by construction.

    def on_round(self, messages: int, words: int) -> None:
        self.rounds += 1
        self.messages += messages
        self.message_words += words
        if self._open is not None:
            self._open.rounds += 1
            self._open.messages += messages
            self._open.message_words += words
        if _tele._collectors:
            _tele.emit("congest.rounds", 1)
            if messages:
                _tele.emit("congest.messages", messages)
                _tele.emit("congest.message_words", words)

    def on_charge(self, rounds: int, messages: int = 0, words: int = 0) -> None:
        """Account for analytically charged rounds and the traffic charged
        with them (traffic goes to the run totals only; a phase record
        counts the messages of its simulated rounds)."""
        self.charged_rounds += rounds
        self.messages += messages
        self.message_words += words
        if self._open is not None:
            self._open.charged_rounds += rounds
        if _tele._collectors:
            _tele.emit("congest.charged_rounds", rounds)
            if messages:
                _tele.emit("congest.messages", messages)
            if words:
                _tele.emit("congest.message_words", words)

    # -- reporting -----------------------------------------------------------

    def by_phase(self) -> Dict[str, int]:
        """Map phase name to total rounds (merging repeated phase names)."""
        out: Dict[str, int] = {}
        for record in self.phases:
            out[record.name] = out.get(record.name, 0) + record.total_rounds
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (used by telemetry RunRecords and benches)."""
        return {
            "rounds": self.rounds,
            "charged_rounds": self.charged_rounds,
            "total_rounds": self.total_rounds,
            "messages": self.messages,
            "message_words": self.message_words,
            "phases": [p.to_dict() for p in self.phases],
        }

    def fingerprint(self) -> tuple:
        """Hashable canonical form: every counter plus the full phase log.

        Two runs with equal fingerprints executed the same number of
        simulated and charged rounds, moved the same traffic, and
        attributed it to the same phases in the same order — the equality
        the differential engine harness (``tests/differential/``) asserts
        between the fast path and the reference simulator.
        """
        return (
            self.rounds,
            self.charged_rounds,
            self.messages,
            self.message_words,
            tuple(
                (p.name, p.rounds, p.charged_rounds, p.messages,
                 p.message_words)
                for p in self.phases
            ),
        )

    def summary(self) -> str:
        lines = [
            f"rounds={self.rounds} charged={self.charged_rounds} "
            f"total={self.total_rounds} messages={self.messages} "
            f"words={self.message_words}"
        ]
        for name, rounds in self.by_phase().items():
            lines.append(f"  {name}: {rounds} rounds")
        return "\n".join(lines)
