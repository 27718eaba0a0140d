"""The paper's columns, pinned: one golden for every experiment.

The paper's whole evaluation is Table 1 and Table 2 -- deterministic
columns (rounds, table / label words, stretch, memory per vertex) -- and
EXPERIMENTS.md adds the sweeps F1-F9, the ablations A1-A3 and the serving
tier's deterministic columns.  Each case runs one experiment at the
workload EXPERIMENTS.md documents (the defaults of the ``repro.analysis``
functions, i.e. what ``python -m repro fig <name>`` prints), compares the
rows with ``==`` against ``tests/goldens/experiments.json``, and then
applies the paper-shape assertions, so a deliberately regenerated golden
still has to satisfy the paper.

The golden file is data, edited by hand: when a change moves a simulated
count on purpose, the failing case prints the measured rows as the JSON to
paste over the experiment's block.  There is no update mode.

Host time is not measured here: that is ``benchmarks/perf`` (and its
``compare.py`` across commits).
"""

import json
import math
from pathlib import Path

import pytest

from repro import analysis
from repro.__main__ import _SWEEPS, main
from repro.graphs import random_connected_graph
from repro.serve import run_serving
from repro.telemetry import record_run
from repro.tz import build_centralized_scheme

GOLDEN = json.loads(
    (Path(__file__).parent / "goldens" / "experiments.json").read_text(encoding="utf-8"))

#: One figure and one ablation go through ``main``: ``repro fig <name>
#: --json`` prints exactly the rows the golden holds.
THROUGH_MAIN = ("graph-rounds", "ablation-q")


# -- measuring -----------------------------------------------------------------

def _recorded_table(run, *args, **kwargs):
    """Table 1 / Table 2 under ``record_run``: the Theorem 2/3 closed forms
    of the telemetry bound checker must pass before the rows count."""
    result, record = record_run(run, *args, **kwargs)
    assert record.passed, [v.name for v in record.failed_verdicts()]
    return result.rows


def _serve_rows():
    """The serving tier's deterministic columns (n=300, k=3, seed 7, 8000
    queries: ``repro serve --n 300 --k 3 --seed 7 --queries 8000``)."""
    graph = random_connected_graph(300, seed=7)
    scheme = build_centralized_scheme(graph, 3, seed=7)
    columns = ("workload", "cache_hit_rate", "hops_p50", "hops_p99", "failures", "slo_fraction")
    rows = []
    for workload in ("uniform", "zipf"):
        report, _ = run_serving(scheme, graph, workload=workload, queries=8000, seed=7)
        row = report.to_row()
        rows.append({column: row[column] for column in columns})
    return rows


def measure(name, capsys):
    """The rows of experiment ``name`` at its documented workload, as JSON
    data (what the golden file can hold)."""
    if name in THROUGH_MAIN:
        assert main(["fig", name, "--json"]) == 0
        return json.loads(capsys.readouterr().out)
    if name == "table1":
        rows = _recorded_table(analysis.run_table1, 600, 3, seed=7, pairs=150)
    elif name == "table2":
        rows = _recorded_table(analysis.run_table2, 1500, seed=7)
    elif name == "serve":
        rows = _serve_rows()
    else:
        rows = _SWEEPS[name][0]()
    return json.loads(json.dumps(rows))


def paste(name, rows):
    """``rows`` as the block of the golden file: one row per line."""
    body = ",\n".join("  " + json.dumps(row, ensure_ascii=False) for row in rows)
    return f' "{name}": [\n{body}\n ]'


# -- the paper's shapes ----------------------------------------------------------
# What each table / figure has to show whatever the exact counts are: the
# assertions a regenerated golden must still satisfy.

SHAPES = {}


def shape(name):
    def register(check):
        SHAPES[name] = check
        return check
    return register


def _by(rows, column):
    return {row[column]: row for row in rows}


@shape("table1")
def _shape_table1(rows, n=600, k=3):
    ours, cent = _by(rows, "scheme")["this-paper"], _by(rows, "scheme")["TZ01b-centralized"]
    assert ours["stretch_max"] <= 4 * k - 3 + 1e-9
    assert cent["stretch_max"] <= 4 * k - 3 + 1e-9
    assert ours["label_words"] <= k * (4 + 2 * math.log2(n))
    # Headline: memory within polylog of table size, not sqrt(n) x table.
    assert ours["memory_words"] <= 8 * math.log2(n) ** 2 * ours["table_words"]
    assert ours["memory_words"] < math.sqrt(n) * ours["table_words"]


@shape("table2")
def _shape_table2(rows, n=1500):
    schemes = _by(rows, "scheme")
    ours, base, cent = (schemes[s] for s in
                        ("this-paper", "EN16b-baseline", "TZ01b-centralized"))
    # Columns 2-3: match the centralized Thorup-Zwick construction exactly.
    assert ours["table_words"] == cent["table_words"] <= 5
    assert ours["label_words"] == cent["label_words"] <= 1 + 2 * math.log2(n)
    # Baseline's overhead rows.
    assert base["table_words"] > cent["table_words"]
    assert base["label_words"] >= cent["label_words"]
    # Column 5: O(log n) vs Õ(√n).
    assert ours["memory_words"] <= 12 * math.log2(n) + 40
    assert base["memory_words"] >= math.sqrt(n) / 2
    assert ours["memory_words"] < base["memory_words"]


@shape("tree-rounds")
def _shape_tree_rounds(rows):
    # The normalized constant does not grow with n ...
    normalized = [r["rounds_per_sqrt_n_log2"] for r in rows]
    assert max(normalized) <= 3 * normalized[0] + 1.0
    # ... and 8x vertices cost far less than 8x rounds.
    assert rows[-1]["rounds"] / rows[0]["rounds"] < (rows[-1]["n"] / rows[0]["n"]) * 0.8


@shape("tree-memory")
def _shape_tree_memory(rows):
    for r in rows:
        assert r["memory_this_paper"] <= 12 * math.log2(r["n"]) + 40
        assert r["memory_en16b"] >= math.sqrt(r["n"]) / 2
    ratios = [r["memory_en16b"] / r["memory_this_paper"] for r in rows]
    assert ratios[-1] > ratios[0]  # the gap widens with n


@shape("tree-sizes")
def _shape_tree_sizes(rows):
    for r in rows:
        assert r["table_this_paper"] <= 5  # O(1), n-independent
        assert r["label_this_paper"] <= 1 + 2 * math.log2(r["n"])
        assert r["table_en16b"] > r["table_this_paper"]
        assert r["label_en16b"] >= r["label_this_paper"]
    assert len({r["table_this_paper"] for r in rows}) == 1  # flat across the sweep


@shape("stretch")
def _shape_stretch(rows):
    for r in rows:
        assert r["stretch_max"] <= r["bound_4k_minus_3"] + 1e-9
        assert r["stretch_mean"] >= 1.0


@shape("sizes-vs-k")
def _shape_sizes_vs_k(rows, n=500):
    # Tables shrink with k (mean; the max is noisier at small n).
    assert rows[-1]["table_mean"] < rows[0]["table_mean"]
    for r in rows:
        assert r["label_max"] <= r["k"] * (4 + 2 * math.log2(n))  # O(k log n)
        assert r["memory_words"] <= 8 * math.log2(n) ** 2 * r["table_max"]


@shape("hopset")
def _shape_hopset(rows):
    # The hopset property held for every kappa (measure_hopbound raises
    # otherwise), and memory decreases as kappa grows.
    assert rows[-1]["max_out_degree"] <= rows[0]["max_out_degree"]
    for r in rows:
        assert r["measured_beta"] >= 1


@shape("graph-rounds")
def _shape_graph_rounds(rows):
    # Memory grows clearly sub-linearly in n.
    assert (rows[-1]["memory_max"] / rows[0]["memory_max"]
            <= (rows[-1]["n"] / rows[0]["n"]) ** 0.95)
    for r in rows:
        assert r["rounds_parallel"] <= r["rounds_sequential"]


@shape("multitree")
def _shape_multitree(rows):
    for r in rows[1:]:
        assert r["rounds_parallel"] < r["rounds_sequential_sum"]
    # The parallel schedule grows sub-linearly in s; the naive sum linearly.
    assert (rows[-1]["rounds_parallel"] / rows[0]["rounds_parallel"]
            < rows[-1]["rounds_sequential_sum"] / rows[0]["rounds_sequential_sum"])


@shape("tree-styles")
def _shape_tree_styles(rows):
    depths, rounds, memories = (
        [r[column] for r in rows] for column in ("tree_depth", "rounds", "memory"))
    # Depths differ wildly; costs do not.
    assert max(depths) >= 5 * min(depths)
    assert max(rounds) <= 3 * min(rounds)
    assert max(memories) <= 2 * min(memories)


@shape("ablation-aspect-ratio")
def _shape_ablation_aspect_ratio(rows):
    rounds = [r["rounds"] for r in rows]
    # (a) construction rounds do not grow with Λ.
    assert max(rounds) <= 1.2 * min(rounds)
    # (b) quantized bits grow ~log log Λ; exact bits ~log Λ.
    assert rows[-1]["weight_bits_exact"] - rows[0]["weight_bits_exact"] >= 20
    assert rows[-1]["weight_bits_quantized"] - rows[0]["weight_bits_quantized"] <= 6
    # (c) routing is exact in the quantized metric.
    for r in rows:
        assert r["routing_worst_ratio"] <= 1.0 + 1e-9


@shape("ablation-q")
def _shape_ablation_q(rows):
    by_q = _by(rows, "q")
    paper = by_q["q = 1/√n (paper)"]
    # The balanced choice beats both extremes.
    assert paper["rounds"] < by_q["q = 0.1/√n"]["rounds"]
    assert paper["rounds"] < by_q["q = 0.9 (all local roots)"]["rounds"]


@shape("ablation-epsilon")
def _shape_ablation_epsilon(rows, k=3):
    for r in rows:
        # C̃ ⊆ C always (Claim 9): coverage can never exceed 1.
        assert r["cluster_coverage"] <= 1.0 + 1e-12
        assert r["stretch_max"] <= 4 * k - 3 + 1e-9
    # Tighter epsilon covers at least as much of the exact clusters.
    assert rows[0]["cluster_coverage"] >= rows[-1]["cluster_coverage"] - 1e-9


@shape("serve")
def _shape_serve(rows):
    for r in rows:
        assert r["failures"] == 0
        # Every query lands within the 4k-3 stretch SLO on this family.
        assert r["slo_fraction"] == 1.0
        assert r["hops_p50"] <= r["hops_p99"]
    # A Zipf stream is what the decision cache is for.
    assert _by(rows, "workload")["zipf"]["cache_hit_rate"] > \
        _by(rows, "workload")["uniform"]["cache_hit_rate"]


# -- the test --------------------------------------------------------------------

@pytest.mark.parametrize("name", list(GOLDEN))
def test_experiment_matches_golden_and_paper_shape(name, capsys):
    rows = measure(name, capsys)
    assert rows == GOLDEN[name], (
        f"{name} no longer measures what tests/goldens/experiments.json holds; if the "
        f"change is deliberate, this is the block to paste:\n{paste(name, rows)}")
    SHAPES[name](rows)


def test_golden_covers_every_sweep_the_cli_runs():
    assert set(GOLDEN) == set(_SWEEPS) | {"table1", "table2", "serve"}
