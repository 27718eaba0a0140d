"""F7: general-scheme construction rounds and memory vs n (k = 3).

Theorem 3: rounds (n^{1/2+1/k}+D)·(log n)^{O(...)}; memory Õ(n^{1/k}).
At laptop scales the hop bound B is capped at n, so the absolute round
counts carry large polylog constants; the *shape* assertions are that the
memory column grows like n^{1/k} (far slower than √n) and that rounds grow
sub-quadratically.
"""

import time

from _util import emit, once

from repro.analysis import fig_graph_rounds, format_records

SIZES = (200, 400, 800)


def bench_fig_graph_rounds(benchmark):
    started = time.perf_counter()
    records = once(
        benchmark, lambda: fig_graph_rounds(sizes=SIZES, k=3, seed=3)
    )
    wall_s = time.perf_counter() - started
    emit("fig7_graph_rounds", format_records(
        records, title="F7: general-scheme construction cost vs n (k=3)"
    ), data=records, meta={"wall_s": wall_s})
    # Memory grows much slower than sqrt(n): compare growth ratios.
    m0, m1 = records[0]["memory_max"], records[-1]["memory_max"]
    n0, n1 = records[0]["n"], records[-1]["n"]
    assert m1 / m0 <= (n1 / n0) ** 0.95  # clearly sub-linear
    for r in records:
        assert r["rounds_parallel"] <= r["rounds_sequential"]
