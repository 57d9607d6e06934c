"""Benchmark harness: experiment runners, table/series formatting, and
paper-vs-measured reporting for every table and figure in the paper's
evaluation section (see DESIGN.md's per-experiment index)."""

from .tables import format_table, format_series, format_kv
from .experiments import (
    ExperimentConfig,
    CutRow,
    table1_cutsize_design,
    table2_cutsize_multilevel,
    table3_presim,
    table5_full_sim,
    fig6_fig7_messages_rollbacks,
    heuristic_vs_brute_force,
)
from .report import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    PAPER_SEQ_TIME_PRESIM,
    PAPER_SEQ_TIME_FULL,
    ShapeCheck,
    shape_checks_cutsize,
    shape_checks_speedup,
    shape_check_counters,
)

__all__ = [
    "format_table",
    "format_series",
    "format_kv",
    "ExperimentConfig",
    "CutRow",
    "table1_cutsize_design",
    "table2_cutsize_multilevel",
    "table3_presim",
    "table5_full_sim",
    "fig6_fig7_messages_rollbacks",
    "heuristic_vs_brute_force",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "PAPER_SEQ_TIME_PRESIM",
    "PAPER_SEQ_TIME_FULL",
    "ShapeCheck",
    "shape_checks_cutsize",
    "shape_checks_speedup",
    "shape_check_counters",
]
