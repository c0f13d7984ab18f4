"""Analysis: projection/analytic models plus the static-analysis passes.

Two families live here:

* **models** — the Table 1 exascale projection and the analytic
  two-phase cost model (:mod:`repro.analysis.model`,
  :mod:`repro.analysis.exascale`);
* **static analysis** — the plan verifier
  (:mod:`repro.analysis.verify`, rules ``PV1xx``) and the
  determinism/concurrency/unit lint (:mod:`repro.analysis.lint`,
  rules ``L2xx``/``L3xx``),
  both reporting :class:`~repro.analysis.violations.Violation` records.
"""

from .exascale import (
    DESIGN_2010,
    DESIGN_2018,
    ProjectionRow,
    SystemDesign,
    memory_per_core_factor,
    projection_table,
)
from .lint import LINT_RULES, RESTRICTED_PACKAGES, lint_file, lint_paths
from .sarif import to_sarif
from .model import (
    CollectivePrediction,
    predict_collective,
    predict_data_sieving,
    predict_independent,
    predict_two_phase,
)
from .selection import (
    AUTO_CANDIDATES,
    FAULT_CAPABLE_CANDIDATES,
    StrategyChoice,
    WorkloadStats,
    compute_workload_stats,
    select_strategy,
)
from .verify import verify_cache_dir, verify_plan, verify_plan_file
from .violations import Report, Violation

__all__ = [
    "SystemDesign",
    "DESIGN_2010",
    "DESIGN_2018",
    "ProjectionRow",
    "projection_table",
    "memory_per_core_factor",
    "CollectivePrediction",
    "predict_two_phase",
    "predict_collective",
    "predict_independent",
    "predict_data_sieving",
    "AUTO_CANDIDATES",
    "FAULT_CAPABLE_CANDIDATES",
    "StrategyChoice",
    "WorkloadStats",
    "compute_workload_stats",
    "select_strategy",
    "Violation",
    "Report",
    "verify_plan",
    "verify_plan_file",
    "verify_cache_dir",
    "lint_file",
    "lint_paths",
    "LINT_RULES",
    "RESTRICTED_PACKAGES",
    "to_sarif",
]
