import dataclasses
import inspect
import types

import numpy as np

import sasc

# The public names are a contract: adding or dropping one is a deliberate
# change, recorded in CHANGES.md, and this set changes with it.
PUBLIC_NAMES = {
    "BaselineConfig", "run_pegasos", "run_projected_sgd", "run_spp",
    "Case", "Case1Constants", "Case2Constants", "CompositeProblem",
    "ConvergenceTrace", "SascConfig", "ScheduleState", "TraceRecord",
    "bound_curves", "rate_constants", "run_sasc",
    "sasc_inner_step", "schedule_inequalities_check", "schedule_params",
    "ConfigurationError", "DegenerateConstraintError", "DivergenceError",
    "NoConvergenceError", "ParseError", "UnsupportedProblemError",
    "BasisPursuitInstance", "LabeledSparseDataset", "ar1_covariance",
    "auto_alpha0", "gen_basis_pursuit", "gen_separable_svm",
    "gen_synthetic_returns", "make_bp_least_squares_problem",
    "make_bp_problem", "make_min_norm_hyperplane_problem",
    "make_portfolio_problem", "make_svm_problem", "reference_solution",
    "BoxSet", "CustomSet", "ProxHandle", "SetProjector",
    "hyperplane_indicator_prox", "l1_prox", "project_hyperplane",
    "soft_threshold", "zero_prox",
    "CertificateInputs", "ConstraintSample", "ConstraintSampler", "RowBatch",
    "RowConstraintSet", "feasibility_metric", "saddle_point_residuals",
    "moreau_grad", "smoothed_gap",
    "TRACE_HEADER", "load_config_file", "parse_libsvm", "read_returns_csv",
    "read_trace_csv", "serialize_libsvm", "write_trace_csv",
}


def test_public_names_are_pinned():
    # submodules become attributes of the package once imported; they are
    # not names of sasc/__init__.py
    names = {name for name, value in vars(sasc).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES


# The rate functions read the regime, m0 and omega from the run's SascConfig,
# so none of them takes a case, m0 or omega beside it.
RATE_PARAMETERS = {
    "schedule_params": ["cfg", "s", "norm_bound"],
    "schedule_inequalities_check": ["cfg", "norm_bound", "s_max",
                                    "lipschitz_grad"],
    "bound_curves": ["cfg", "norm_bound", "cert", "x0", "M_values",
                     "lipschitz_g"],
    "rate_constants": ["cfg", "norm_bound", "cert", "x0"],
}


def test_rate_function_parameters_are_pinned():
    got = {name: list(inspect.signature(getattr(sasc, name)).parameters)
           for name in RATE_PARAMETERS}
    assert got == RATE_PARAMETERS


# Samplers and solvers trade batches only: a step takes one, and the
# distances hook is handed one (None for the whole support).
BATCH_PARAMETERS = {
    "sasc_inner_step": ["x", "batch", "alpha_s", "beta_s", "problem"],
    "ConstraintSampler.distances": ["self", "x", "batch"],
    "RowConstraintSet.distances": ["self", "x", "batch"],
}


def test_batch_parameters_are_pinned():
    def parameters(path):
        obj = sasc
        for name in path.split("."):
            obj = getattr(obj, name)
        return list(inspect.signature(obj).parameters)

    got = {path: parameters(path) for path in BATCH_PARAMETERS}
    assert got == BATCH_PARAMETERS


# The public members of the row-set classes are a contract too: the solvers,
# the problem builders and outside samplers read them.
ROW_SET_MEMBERS = {
    "RowBatch": {"owner", "idx", "lo", "hi", "rows", "count", "index"},
    "RowConstraintSet": {"rows", "lo", "hi", "sample", "draw", "draw_batch",
                         "support", "distances", "normalized"},
}


def test_row_set_members_are_pinned():
    rows = sasc.RowConstraintSet(np.eye(2), 0.0, 1.0)
    got = {type(obj).__name__: {name for name in dir(obj)
                                if not name.startswith("_")}
           for obj in (rows, rows.support())}
    assert got == ROW_SET_MEMBERS


# The benchmark's traced copy of a problem swaps grad_f, f_value, prox_h and
# constraints with dataclasses.replace and builds a new
# ProxHandle(evaluate, objective_value, is_projection), so it names these
# init fields.
INIT_FIELDS = {
    "CompositeProblem": ["dim", "grad_f", "f_value", "prox_h", "constraints",
                         "norm_bound", "mu", "lipschitz_grad", "prox_f",
                         "min_norm"],
    "ProxHandle": ["evaluate", "objective_value", "is_projection"],
}


def test_init_fields_are_pinned():
    got = {name: [f.name for f in dataclasses.fields(getattr(sasc, name))
                  if f.init]
           for name in INIT_FIELDS}
    assert got == INIT_FIELDS


# Criterion c04 compares the rate constants with their symbolic evaluation
# position by position, so the order of the fields is a contract.
def test_rate_constant_fields_are_pinned():
    assert sasc.Case1Constants._fields == ("c1", "c2", "c3", "c4")
    assert sasc.Case2Constants._fields == ("d1", "d2", "d3")
