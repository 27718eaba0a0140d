"""Experiment harness (S10): Table 1/2 regeneration, figure and ablation sweeps."""

from .ablations import (
    ablation_aspect_ratio,
    ablation_epsilon,
    ablation_q,
)
from .figures import (
    fig_graph_rounds,
    fig_hopset,
    fig_multitree,
    fig_sizes_vs_k,
    fig_stretch,
    fig_tree_memory,
    fig_tree_rounds,
    fig_tree_sizes,
    fig_tree_styles,
)
from .report import ReportSpec, generate_report, generate_report_json
from .reporting import format_records, format_table
from .tables import (
    Table1Result,
    Table2Result,
    run_table1,
    run_table2,
    table1_verdicts,
    table2_verdicts,
)

__all__ = [
    "ReportSpec",
    "Table1Result",
    "Table2Result",
    "ablation_aspect_ratio",
    "ablation_epsilon",
    "ablation_q",
    "fig_graph_rounds",
    "fig_hopset",
    "fig_multitree",
    "fig_sizes_vs_k",
    "fig_stretch",
    "fig_tree_memory",
    "fig_tree_rounds",
    "fig_tree_sizes",
    "fig_tree_styles",
    "format_records",
    "generate_report",
    "generate_report_json",
    "format_table",
    "run_table1",
    "run_table2",
    "table1_verdicts",
    "table2_verdicts",
]
