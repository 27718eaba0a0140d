"""T2: regenerate the paper's Table 2 (exact distributed tree routing).

Paper bounds (n vertices, hop-diameter D):

    [LP15, EN16b]   Õ(D+√n) rounds | O(log n) tables | O(log² n) labels | Õ(√n) memory
    [TZ01b]         NA             | O(1)            | O(log n)         | NA
    This paper      Õ(D+√n)        | O(1)            | O(log n)         | O(log n)

The bench builds all three schemes on one (network, deep tree) pair, prints
the measured columns, and asserts the relations the paper claims: our
tables/labels match [TZ01b] exactly, and our memory is strictly below the
[EN16b]-style baseline's (which tracks √n).
"""

import math

from _util import emit, once

from repro.analysis import run_table2
from repro.telemetry import record_run

N = 1500
SEED = 7


def bench_table2(benchmark):
    result, record = once(
        benchmark,
        lambda: record_run(run_table2, N, seed=SEED, tree_style="dfs"),
    )
    emit("table2", result.render(), data=result.rows,
         meta={"workload": record.workload,
               "verdicts": [v.to_dict() for v in record.verdicts],
               "wall_s": record.wall_s,
               "counters": record.counters})
    # Theorems 1/3 closed forms, evaluated by the telemetry bound checker.
    assert record.passed, [v.name for v in record.failed_verdicts()]

    ours = result.row("this-paper")
    base = result.row("EN16b-baseline")
    cent = result.row("TZ01b-centralized")

    # Columns 2-3: match the centralized Thorup-Zwick construction exactly.
    assert ours["table_words"] == cent["table_words"] <= 5
    assert ours["label_words"] == cent["label_words"] <= 1 + 2 * math.log2(N)
    # Baseline's overhead rows.
    assert base["table_words"] > cent["table_words"]
    assert base["label_words"] >= cent["label_words"]
    # Column 5: O(log n) vs Õ(√n).
    assert ours["memory_words"] <= 12 * math.log2(N) + 40
    assert base["memory_words"] >= math.sqrt(N) / 2
    assert ours["memory_words"] < base["memory_words"]
