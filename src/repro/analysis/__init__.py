"""Analysis utilities: GA convergence, statistics, algorithm comparison.

Extensions beyond the paper that a practitioner adopting these
algorithms needs: confidence intervals on instance-averaged savings
(the paper reports bare means over 15 networks), paired comparisons
between algorithms on the same networks, and convergence diagnostics
for tuning the GA budget.
"""

from repro.analysis.convergence import ConvergenceReport, analyze_convergence
from repro.analysis.statistics import (
    SummaryStats,
    paired_comparison,
    summarize,
)
from repro.analysis.comparison import ComparisonReport, compare_algorithms
from repro.analysis.regression import RegressionReport, check_records
from repro.analysis.sensitivity import (
    SensitivityResult,
    sweep_ga_parameter,
)

__all__ = [
    "ConvergenceReport",
    "analyze_convergence",
    "SummaryStats",
    "summarize",
    "paired_comparison",
    "ComparisonReport",
    "compare_algorithms",
    "SensitivityResult",
    "sweep_ga_parameter",
    "RegressionReport",
    "check_records",
]
