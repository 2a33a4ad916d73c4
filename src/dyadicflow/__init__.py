"""Dyadic nonlocal-transport model: simulator and invariant-check harness.

The package re-exports the function :func:`~dyadicflow.integrate.integrate`
under its module's name, so ``dyadicflow.integrate`` and
``from dyadicflow import integrate`` give the function, and so does
``import dyadicflow.integrate as m``.  The module, with the module globals
that tests and the benchmark's tracer patch (``expm``, ``_diagnostics``),
is ``importlib.import_module("dyadicflow.integrate")`` or
``sys.modules["dyadicflow.integrate"]``.
"""

from dyadicflow.model import (
    Constants,
    DomainError,
    DyadicState,
    InvalidInputError,
    ModelParams,
    Tail,
    UnsupportedConventionError,
    coercivity_constant,
    cs_constant,
    default_goodbad_threshold,
    dissipation,
    dissipation_direct,
    dissipation_limit,
    dissipation_matrix,
    rhs_full,
    rhs_inviscid,
    slopes,
    telescoped_sum,
    weighted_slopes,
    xs_norm,
)
from dyadicflow.integrate import (
    Diagnostics,
    IntegrationAbortError,
    Scheme,
    StepControls,
    Termination,
    Trajectory,
    detect_escape,
    integrate,
    linear_semigroup,
)
from dyadicflow.analysis import (
    CHECKS,
    BlowupDiagnostics,
    GoodBadDecomposition,
    InvariantReport,
    SlopeRatioReport,
    blowup_diagnostics,
    check_max_principle,
    check_monotone_nonneg,
    check_monotone_traj,
    check_ordering_persistence_inviscid,
    check_sqrt2_structure,
    fit_riccati_constants,
    front_index,
    good_bad,
    goodbad_lower_constant,
    holder_seminorm,
    j_functional,
    riccati_fit,
    riccati_inequality_check,
    run_checks,
    slope_ratio_report,
)
from dyadicflow.scenarios import (
    gen_bump,
    gen_front,
    gen_geometric,
    profile_reconstruction,
)
from dyadicflow.config import (
    BumpScenario,
    ConfigError,
    CustomScenario,
    FrontScenario,
    GeometricScenario,
    RunConfig,
    SweepSpec,
    build_initial_state,
    load_config,
    load_sweep,
    save_config,
)

__version__ = "0.1.0"
