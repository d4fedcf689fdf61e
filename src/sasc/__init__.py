"""Stochastic proximal-gradient solver with smoothing homotopy for composite
convex problems under almost-sure linear inclusion constraints, plus baseline
solvers, problem builders, rate diagnostics, and trace I/O."""

from .baselines import BaselineConfig, run_pegasos, run_projected_sgd, run_spp
from .core import (
    Case,
    Case1Constants,
    Case2Constants,
    CompositeProblem,
    ConvergenceTrace,
    ObjectiveStructure,
    SascConfig,
    ScheduleState,
    TraceRecord,
    bound_curves,
    rate_constants,
    run_sasc,
    schedule_inequalities_check,
    schedule_params,
)
from .errors import (
    ConfigurationError,
    DegenerateConstraintError,
    DivergenceError,
    NoConvergenceError,
    ParseError,
    UnsupportedProblemError,
)
from .problems import (
    BasisPursuitInstance,
    LabeledSparseDataset,
    ar1_covariance,
    auto_alpha0,
    gen_basis_pursuit,
    gen_separable_svm,
    gen_synthetic_returns,
    make_bp_least_squares_problem,
    make_bp_problem,
    make_min_norm_hyperplane_problem,
    make_portfolio_problem,
    make_svm_problem,
    reference_solution,
)
from .prox import (
    BoxSet,
    ProxHandle,
    SetProjector,
    hyperplane_indicator_prox,
    l1_prox,
    zero_prox,
)
from .smoothing import (
    CertificateInputs,
    ConstraintSample,
    ConstraintSampler,
    RowBatch,
    RowConstraintSet,
    feasibility_metric,
    saddle_point_residuals,
    moreau_grad,
    smoothed_gap,
)
from .trace_io import (
    TRACE_HEADER,
    load_config_file,
    parse_libsvm,
    read_returns_csv,
    read_trace_csv,
    serialize_libsvm,
    write_trace_csv,
)

__version__ = "0.1.0"
