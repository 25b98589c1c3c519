"""Within-host HBV dynamics: simulation, equilibria, stability, pullback."""

from .equilibria import (
    EquilibriumReport,
    UnsupportedForcingError,
    disease_free,
    endemic,
    residual_norm,
)
from .integrate import (
    AdaptiveStep,
    FixedStep,
    MonitorEvent,
    StepControl,
    Trajectory,
    integrate,
    richardson_order,
)
from .model import (
    BoundsReport,
    ConstantForcing,
    Forcing,
    OutOfDomainError,
    Parameters,
    PiecewiseLinearForcing,
    SinusoidForcing,
    analytic_bounds,
    jacobian,
    vector_field,
)
from .process import (
    AbsorbingSetReport,
    ProcessTerminatedError,
    PullbackEstimate,
    absorbing_check,
    process_solve,
    pullback_estimate,
    semigroup_check,
)
from .scenarios import (
    SCENARIOS,
    ConfigError,
    RunReport,
    Scenario,
    SweepResult,
    UnknownScenarioError,
    load_box,
    load_config,
    run_scenario,
    save_config,
    sweep,
)
from .stability import (
    ConditionMargins,
    ContractionFit,
    LyapunovTrace,
    R0Variants,
    StabilityReport,
    condition_margins,
    contraction_fit,
    eigenvalues_3x3,
    lyapunov_fit,
    r0_all,
    routh_hurwitz_stable,
    stability_report,
)

__version__ = "0.1.0"
