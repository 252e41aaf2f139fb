"""repro: a performance-portability study framework.

Reproduces Godoy et al., *"Evaluating performance and portability of
high-level programming models: Julia, Python/Numba, and Kokkos on exascale
nodes"* as a self-contained Python library: machine models of the paper's
four architectures, programming-model frontends with a small kernel IR and
compiler passes, discrete-event CPU/GPU execution simulators, real runnable
GEMM kernels, and a benchmark harness that regenerates every figure and
table of the evaluation.

Quick start::

    from repro import fig7, table3
    print(fig7().render())
    print(table3().render())

See README.md for the architecture overview and DESIGN.md for the full
system inventory.
"""

from ._version import __version__
from .config import RunConfig
from .core.metrics import metric_comparison, phi_marowka, phi_paper, pp_pennycook
from .core.types import DeviceKind, Layout, MatrixShape, Precision
from .errors import (
    CellFailure,
    ConfigError,
    ExperimentError,
    FaultError,
    IRVerificationError,
    JournalError,
    KernelValidationError,
    LintError,
    LoweringError,
    MachineModelError,
    ReproError,
    RetryExhaustedError,
    RunInterrupted,
    UnsupportedConfigurationError,
)
from .harness import (
    Experiment,
    FigureResult,
    Measurement,
    PAPER_SIZES,
    QUICK_SIZES,
    ResultSet,
    RetryPolicy,
    RunOptions,
    fig4,
    fig5,
    fig6,
    fig7,
    run_campaign,
    table1,
    table2,
    table3,
)
from .machine import (
    A100,
    AMPERE_ALTRA,
    CRUSHER,
    CPUSpec,
    EPYC_7A53,
    GPUSpec,
    MI250X,
    Node,
    WOMBAT,
    cpu_by_name,
    gpu_by_name,
    node_by_name,
)
from .models import (
    ProgrammingModel,
    all_models,
    model_by_name,
    portable_models,
    reference_model_for,
)
from .service import CampaignSpec

__all__ = [
    "__version__",
    "RunConfig",
    "metric_comparison",
    "phi_marowka",
    "phi_paper",
    "pp_pennycook",
    "DeviceKind",
    "Layout",
    "MatrixShape",
    "Precision",
    "ReproError",
    "CellFailure",
    "ConfigError",
    "ExperimentError",
    "FaultError",
    "IRVerificationError",
    "JournalError",
    "KernelValidationError",
    "LintError",
    "LoweringError",
    "MachineModelError",
    "RetryExhaustedError",
    "RunInterrupted",
    "UnsupportedConfigurationError",
    "Experiment",
    "FigureResult",
    "Measurement",
    "RetryPolicy",
    "RunOptions",
    "PAPER_SIZES",
    "QUICK_SIZES",
    "ResultSet",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "run_campaign",
    "table1",
    "table2",
    "table3",
    "A100",
    "AMPERE_ALTRA",
    "CRUSHER",
    "CPUSpec",
    "EPYC_7A53",
    "GPUSpec",
    "MI250X",
    "Node",
    "WOMBAT",
    "cpu_by_name",
    "gpu_by_name",
    "node_by_name",
    "ProgrammingModel",
    "all_models",
    "model_by_name",
    "portable_models",
    "reference_model_for",
    "CampaignSpec",
]
