"""Analysis layer: error statistics, table rendering, and the
experiment drivers that regenerate every table of the paper (§4)."""

from repro.analysis.error_stats import (
    PAPER_PERCENTILES,
    ErrorDistribution,
    count_above,
    error_distribution,
    relative_error,
)
from repro.analysis.experiments import (
    DEFAULT_SIZES,
    FULL_SIZES,
    INSERT_THRESHOLDS,
    PAPER_THRESHOLDS,
    Table1Result,
    Table2Result,
    Table3Result,
    Table4Result,
    Table5Result,
    Table6Result,
    clear_reference_cache,
    default_sizes,
    reference_ranks,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.analysis.ranking import kendall_tau, precision_at_k, top_k_overlap
from repro.analysis.report import generate_report
from repro.analysis.tables import format_table, format_value
from repro.analysis.trajectory import (
    ConvergenceTrajectory,
    convergence_trajectory,
    passes_to_quality,
    time_to_quality,
)

__all__ = [
    "relative_error",
    "error_distribution",
    "count_above",
    "ErrorDistribution",
    "PAPER_PERCENTILES",
    "format_table",
    "format_value",
    "top_k_overlap",
    "kendall_tau",
    "precision_at_k",
    "generate_report",
    "ConvergenceTrajectory",
    "convergence_trajectory",
    "passes_to_quality",
    "time_to_quality",
    "default_sizes",
    "reference_ranks",
    "clear_reference_cache",
    "DEFAULT_SIZES",
    "FULL_SIZES",
    "PAPER_THRESHOLDS",
    "INSERT_THRESHOLDS",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "Table4Result",
    "Table5Result",
    "Table6Result",
]
