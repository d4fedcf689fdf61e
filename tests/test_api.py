import ast
import dataclasses
import inspect
import pathlib
import re
import textwrap
import types

import numpy as np

import sasc

# The public names are a contract: adding or dropping one is a deliberate
# change, recorded in CHANGES.md, and this set changes with it.
PUBLIC_NAMES = {
    "BaselineConfig", "run_pegasos", "run_projected_sgd", "run_spp",
    "Case", "Case1Constants", "Case2Constants", "CompositeProblem",
    "ConvergenceTrace", "ObjectiveStructure", "SascConfig", "ScheduleState",
    "TraceRecord",
    "bound_curves", "rate_constants", "run_sasc",
    "schedule_inequalities_check", "schedule_params",
    "ConfigurationError", "DegenerateConstraintError", "DivergenceError",
    "NoConvergenceError", "ParseError", "UnsupportedProblemError",
    "BasisPursuitInstance", "LabeledSparseDataset", "ar1_covariance",
    "auto_alpha0", "gen_basis_pursuit", "gen_separable_svm",
    "gen_synthetic_returns", "make_bp_least_squares_problem",
    "make_bp_problem", "make_min_norm_hyperplane_problem",
    "make_portfolio_problem", "make_svm_problem", "reference_solution",
    "BoxSet", "ProxHandle", "SetProjector",
    "hyperplane_indicator_prox", "l1_prox", "zero_prox",
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


# Samplers and solvers trade batches only: the distances hook is handed one
# (None for the whole support).
BATCH_PARAMETERS = {
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
# init fields; the structure record rides along unchanged. A declared kind
# derives grad_f, f_value and prox_h from the record, so the problem's
# fields are keyword-only and those three optional; f's prox is no field.
INIT_FIELDS = {
    "CompositeProblem": ["dim", "grad_f", "f_value", "prox_h", "constraints",
                         "norm_bound", "mu", "lipschitz_grad", "structure"],
    "ProxHandle": ["evaluate", "objective_value", "is_projection"],
}


def test_init_fields_are_pinned():
    got = {name: [f.name for f in dataclasses.fields(getattr(sasc, name))
                  if f.init]
           for name in INIT_FIELDS}
    assert got == INIT_FIELDS
    assert all(f.kw_only for f in dataclasses.fields(sasc.CompositeProblem))


# Criterion c04 compares the rate constants with their symbolic evaluation
# position by position, so the order of the fields is a contract.
def test_rate_constant_fields_are_pinned():
    assert sasc.Case1Constants._fields == ("c1", "c2", "c3", "c4")
    assert sasc.Case2Constants._fields == ("d1", "d2", "d3")


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # the bound_curves snippet and the library quick tour, each run on its
    # own in a scratch directory with np and sasc already imported
    blocks = re.findall(r"^( *)```python\n(.*?)^\1```", README.read_text(),
                        flags=re.M | re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for _, code in blocks:
        exec(compile(textwrap.dedent(code), str(README), "exec"),
             {"np": np, "sasc": sasc})
    assert (tmp_path / "trace.csv").exists()



SRC = pathlib.Path(sasc.__file__).resolve().parent


def _read(tree):
    """The names a module reads: loaded names and attribute names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _imported(tree):
    """The names a module's imports bind, bar __future__ directives."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def _private(tree):
    """The private names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names
                    if n.startswith("_") and not n.startswith("__"))


def test_every_import_and_private_name_is_read():
    # a refactor that moves code leaves unread imports and helpers behind;
    # the imports of __init__.py are the package's public names
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    read_anywhere = {name for tree in trees.values() for name in _read(tree)}
    unread = []
    for module, tree in trees.items():
        read = set(_read(tree))
        if module != "__init__.py":
            unread += [f"{module}: import {name}"
                       for name in _imported(tree) if name not in read]
        unread += [f"{module}: {name}"
                   for name in _private(tree) if name not in read_anywhere]
    assert unread == []
