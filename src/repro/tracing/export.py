"""S19 trace export: JSONL persistence for ``repro explain``.

One JSON object per line, in trace-id order — the shape
``repro serve --trace-out`` writes and ``repro explain`` reads.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from ..errors import InputError
from .model import QueryTrace


def write_traces_jsonl(
    path: Union[str, Path],
    traces: Iterable[Union[QueryTrace, Dict[str, Any]]],
) -> Path:
    """Write traces (objects or already-dict form) as JSONL."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fp:
        for trace in traces:
            d = trace.to_dict() if isinstance(trace, QueryTrace) else trace
            fp.write(json.dumps(d, sort_keys=True) + "\n")
    return out


def read_traces_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a trace JSONL file back into dicts (blank lines skipped).

    A line that is not JSON, not an object, or an object without a
    ``trace_id`` is an :class:`~repro.errors.InputError` naming the file
    and the 1-based line: a damaged file must not explain as an empty
    trace with an exact attribution.
    """
    traces: List[Dict[str, Any]] = []
    with Path(path).open() as fp:
        for number, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                trace = json.loads(line)
            except ValueError as exc:  # JSONDecodeError: truncated, not JSON
                raise InputError(
                    f"trace file {path} line {number} is not valid JSON: {exc}"
                ) from exc
            if not isinstance(trace, dict) or "trace_id" not in trace:
                raise InputError(
                    f"trace file {path} line {number} is not a query trace "
                    "(expected a JSON object with a trace_id)")
            traces.append(trace)
    return traces
