"""Self-tests of the perf benchmark (``python -m pytest benchmarks/perf/tests``).

Not collected by tier-1 (``testpaths = ["tests"]``): they test the
benchmark's own code, not the program."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
for path in (ROOT / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
