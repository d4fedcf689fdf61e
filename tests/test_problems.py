import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from conftest import bp_dual_certificate, dense_rows, full_storage_svm
from sasc.baselines import BaselineConfig, run_spp
from sasc.core import Case, SascConfig, _declared_f, _inner_step, run_sasc
from sasc.errors import (
    ConfigurationError,
    DegenerateConstraintError,
    DivergenceError,
    NoConvergenceError,
    UnsupportedProblemError,
)
from sasc.problems import (
    LabeledSparseDataset,
    ar1_covariance,
    auto_alpha0,
    gen_basis_pursuit,
    gen_separable_svm,
    gen_synthetic_returns,
    make_bp_problem,
    make_min_norm_hyperplane_problem,
    make_portfolio_problem,
    make_svm_problem,
    reference_solution,
)
from sasc.prox import BoxSet, SetProjector
from sasc.smoothing import (
    ConstraintSample,
    ConstraintSampler,
    RowConstraintSet,
    _CsrRows,
    _EvalSet,
    feasibility_metric,
    moreau_grad,
    saddle_point_residuals,
)


class TestGenerator:
    def test_covariance_entries(self):
        cov = ar1_covariance(5, 0.9)
        assert_allclose(cov[0, 1], 0.9)
        assert_allclose(cov[0, 2], 0.81)
        assert_allclose(np.diag(cov), np.ones(5))

    def test_planted_sparsity(self):
        inst = gen_basis_pursuit(100, 50, 10, 0.9, seed=0)
        assert np.count_nonzero(inst.x_star) == 10

    def test_construction_exactness(self):
        inst = gen_basis_pursuit(40, 300, 5, 0.9, seed=1)
        # targets were computed from the final rows, so the residual is zero
        # bit-for-bit, and rows have exactly unit norm up to rounding
        assert np.array_equal(inst.rows @ inst.x_star, inst.targets)
        assert np.max(np.abs(np.linalg.norm(inst.rows, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(inst.rows.mean(axis=0))) < 0.1  # centered columns

    def test_rows_are_the_normalized_rows_of_the_centered_block(self):
        # d = 50: np.linalg.norm's pairwise sum differs from the left-to-right
        # sum on some rows, and the rows must still be bit for bit those that
        # RowConstraintSet.normalized makes of the centered block
        d, n, rho, seed = 50, 2000, 0.9, 3
        inst = gen_basis_pursuit(d, n, 5, rho, seed)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, d)) @ np.linalg.cholesky(
            ar1_covariance(d, rho)).T
        centered = raw - raw.mean(axis=0)
        sequential = np.sqrt(np.cumsum(centered ** 2, axis=1)[:, -1])
        assert np.any(np.linalg.norm(centered, axis=1) != sequential)
        want = RowConstraintSet.normalized(centered, inst.targets, inst.targets)
        assert inst.rows.tobytes() == want.rows.tobytes()
        assert inst.targets.tobytes() == (want.rows @ inst.x_star).tobytes()

    def test_determinism(self):
        a = gen_basis_pursuit(20, 50, 3, 0.5, seed=42)
        b = gen_basis_pursuit(20, 50, 3, 0.5, seed=42)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.x_star, b.x_star)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_basis_pursuit(10, 5, 0, 0.9, seed=0)
        with pytest.raises(ValueError):
            gen_basis_pursuit(10, 5, 11, 0.9, seed=0)
        with pytest.raises(ValueError):
            gen_basis_pursuit(10, 5, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_basis_pursuit(10, 0, 2, 0.9, seed=0)

    def test_auto_step_rule(self):
        inst = gen_basis_pursuit(10, 20, 2, 0.5, seed=2)
        expected = 1e-2 * abs(inst.targets[0]) * np.max(np.abs(inst.rows[0]))
        assert_allclose(auto_alpha0(inst), expected, rtol=1e-15)


class TestBpProblem:
    def test_planted_vector_feasible(self):
        inst = gen_basis_pursuit(20, 100, 3, 0.9, seed=3)
        prob = make_bp_problem(inst)
        assert feasibility_metric(inst.x_star, prob.constraints, 100, 0) \
            <= 1e-12

    def test_origin_objective_and_feasibility(self):
        inst = gen_basis_pursuit(20, 100, 3, 0.9, seed=4)
        prob = make_bp_problem(inst)
        assert prob.prox_h.objective_value(np.zeros(20)) == 0.0
        got = feasibility_metric(np.zeros(20), prob.constraints, 100, 0)
        assert_allclose(got, np.sqrt(np.mean(inst.targets ** 2)), atol=1e-12)
        assert got > 0

    def test_objective_is_l1(self):
        inst = gen_basis_pursuit(10, 30, 2, 0.9, seed=5)
        prob = make_bp_problem(inst)
        x = np.linspace(-1, 1, 10)
        assert prob.f_value(x, None) == 0.0
        assert_allclose(prob.prox_h.objective_value(x), np.sum(np.abs(x)))

    def test_norm_bound_dominates_support(self):
        inst = gen_basis_pursuit(15, 60, 2, 0.9, seed=6)
        prob = make_bp_problem(inst)
        norms = [s.norm() for s in prob.constraints.support()]
        assert max(norms) <= prob.norm_bound + 1e-12

    def test_dual_certificate_is_exact(self):
        inst = gen_basis_pursuit(d=50, n=20_000, sparsity=5, rho=0.9, seed=0)
        prob = make_bp_problem(inst)
        y, cert = bp_dual_certificate(inst)
        rows, x_star = inst.rows, inst.x_star
        n = rows.shape[0]
        assert_allclose(rows.T @ y / n, -np.sign(x_star), rtol=0, atol=1e-10)
        assert_allclose(np.sqrt(np.mean(y ** 2)), cert.y_star_norm, rtol=1e-12)
        # Random perturbations of x*, and steps from x* along the descent
        # direction of ||.||_1 on the support, where P(x) < P* and the
        # residuals lean hardest on ||y*||.
        supp = np.flatnonzero(x_star)
        gram = rows[:, supp].T @ rows[:, supp] / n
        descent = np.zeros_like(x_star)
        descent[supp] = -np.linalg.solve(gram, np.sign(x_star[supp]))
        rng = np.random.default_rng(16)
        worst = np.inf
        for _ in range(100):
            beta = float(np.exp(rng.uniform(np.log(1e-4), np.log(10.0))))
            scale = float(np.exp(rng.uniform(np.log(1e-4), np.log(1.0))))
            for x in (x_star + scale * rng.standard_normal(x_star.size),
                      x_star + beta * rng.uniform(0.5, 1.5) * descent):
                r = saddle_point_residuals(x, beta, prob, cert, n, 0)
                worst = min(worst, min(r))
        assert worst >= -1e-9


class TestPortfolioProblem:
    def test_interval_endpoints_pre_normalization(self):
        returns = gen_synthetic_returns(50, 4, seed=7)
        prob = make_portfolio_problem(returns, epsilon=0.2)
        sampler = prob.constraints
        centered = returns - returns.mean(axis=0)
        norms = np.linalg.norm(centered, axis=1)
        keep = norms > 0
        assert_allclose(sampler.lo * norms[keep], -0.2, atol=1e-12)
        assert_allclose(sampler.hi * norms[keep], 0.2, atol=1e-12)

    def test_uniform_portfolio_on_budget_plane(self):
        returns = gen_synthetic_returns(50, 8, seed=8)
        prob = make_portfolio_problem(returns, epsilon=0.2)
        x = np.full(8, 1.0 / 8.0)
        assert prob.prox_h.objective_value(x) == 0.0
        assert prob.prox_h.objective_value(np.zeros(8)) == np.inf

    def test_dimension_follows_data(self):
        returns = gen_synthetic_returns(60, 36, seed=9)
        prob = make_portfolio_problem(returns, epsilon=0.2)
        assert prob.dim == 36

    def test_linear_objective(self):
        returns = gen_synthetic_returns(50, 3, seed=10)
        prob = make_portfolio_problem(returns, epsilon=0.2)
        a_avg = returns.mean(axis=0)
        x = np.array([0.2, 0.3, 0.5])
        assert_allclose(prob.f_value(x, None), -float(a_avg @ x))
        assert_allclose(prob.grad_f(x, None), -a_avg)

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            make_portfolio_problem(np.ones((1, 3)), 0.2)
        for bad in (np.nan, np.inf, -np.inf):
            returns = gen_synthetic_returns(5, 3, seed=0)
            returns[2, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                make_portfolio_problem(returns, 0.2)
        for epsilon in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="epsilon"):
                make_portfolio_problem(np.ones((5, 3)), epsilon)

    def test_separable_svm_margin_must_be_finite_and_positive(self):
        for margin in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="margin"):
                gen_separable_svm(2, 10, margin=margin, seed=0)

    def test_solver_approaches_reference(self):
        from sasc.core import run_sasc
        from sasc.smoothing import CertificateInputs
        returns = gen_synthetic_returns(200, 10, seed=20260810)
        prob = make_portfolio_problem(returns, epsilon=0.2)
        x_ref, p_ref = reference_solution(prob, 1e-6)
        cert = CertificateInputs(x_star=x_ref, p_star=p_ref)
        cfg = SascConfig(alpha0=1.0, omega=1.2, m0=2, sample_budget=40_000,
                         seed=0, checkpoint_every=2000, eval_samples=200)
        _, trace = run_sasc(prob, cfg, cert=cert)
        dist = trace.column("dist_to_ref")
        gap = trace.column("objective") - p_ref
        assert dist[-1] < 0.8 * dist[0]
        assert abs(gap[-1]) < 0.5 * abs(gap[0])
        assert trace.column("feasibility")[-1] <= 0.05


class TestSvmProblem:
    def test_feasible_separator_zero_feasibility(self):
        rows = np.array([[2.0, 0.0], [-2.0, 0.0]])
        labels = np.array([1.0, -1.0])
        ds = LabeledSparseDataset.from_dense(rows, labels)
        prob = make_svm_problem(ds)
        assert feasibility_metric(np.array([1.0, 0.0]), prob.constraints,
                                  2, 0) == 0.0

    def test_origin_unit_distance_pre_normalization(self):
        ds = gen_separable_svm(5, 30, margin=1.0, seed=11)
        prob = make_svm_problem(ds)
        sampler = prob.constraints
        d = sampler.distances(np.zeros(5))
        rows = dense_rows(ds)
        norms = np.linalg.norm(rows, axis=1)
        assert_allclose(d * norms, np.ones(30), atol=1e-12)

    def test_penalty_is_mean_squared_hinge(self):
        ds = gen_separable_svm(4, 25, margin=0.5, seed=12)
        prob = make_svm_problem(ds)
        x = np.random.default_rng(12).standard_normal(4)
        beta = 0.7
        sampler = prob.constraints
        vals = [moreau_grad(s.apply(x), s.set_proj, beta)[0]
                for s in sampler.support()]
        hinge = np.maximum(0.0, sampler.lo - sampler.rows @ x)
        assert_allclose(np.mean(vals), np.mean(hinge ** 2) / (2 * beta),
                        atol=1e-12)

    def test_case2_metadata(self):
        ds = gen_separable_svm(3, 10, margin=1.0, seed=13)
        prob = make_svm_problem(ds)
        assert prob.mu == 1.0 and prob.lipschitz_grad == 1.0
        SascConfig(alpha0=0.5, omega=2.0, m0=4, epochs=1,
                   case=Case.RESTRICTED_STRONGLY_CONVEX).validate(prob)

    def test_invalid_labels(self):
        ds = LabeledSparseDataset.from_rows(
            index_lists=[np.array([0])], value_lists=[np.array([1.0])],
            labels=np.array([0.5]), dim=1)
        with pytest.raises(ValueError, match="labels"):
            make_svm_problem(ds)

    def test_gen_separable_margin_holds(self):
        ds = gen_separable_svm(6, 200, margin=0.8, seed=14)
        # recover the planted direction from the construction invariant:
        # every labeled point has b <a, w> >= margin for some unit w
        rows, labels = dense_rows(ds), ds.labels
        # a feasible scaled point exists, so the hard-margin problem is sound
        prob = make_svm_problem(ds)
        # search a separator with the reference oracle on a small slice
        small = LabeledSparseDataset.from_dense(rows[:50], labels[:50])
        small_prob = make_svm_problem(small)
        x_ref, _ = reference_solution(small_prob, 1e-6)
        assert np.all(small.margins(x_ref) >= 1.0 - 1e-4)

    def test_rows_match_normalized_dense_rows(self):
        rng = np.random.default_rng(16)
        idx_lists, val_lists = [], []
        for _ in range(120):
            k = int(rng.integers(1, 9))
            idx_lists.append(np.sort(rng.choice(40, size=k, replace=False)))
            val_lists.append(rng.standard_normal(k))
        labels = np.where(rng.standard_normal(120) > 0, 1.0, -1.0)
        ds = LabeledSparseDataset.from_rows(idx_lists, val_lists, labels, 40)
        got = make_svm_problem(ds).constraints
        want = RowConstraintSet.normalized(labels[:, None] * dense_rows(ds),
                                           1.0, np.inf)
        dense = np.array([got.rows[i] for i in range(len(got))])
        assert np.array_equal(dense, want.rows)
        assert np.array_equal(got.lo, want.lo)
        assert np.array_equal(got.hi, want.hi)

    def test_rows_match_normalized_dense_rows_where_pairwise_sums_differ(self):
        # d = 200 with about 150 entries per row: np.linalg.norm's pairwise
        # sum differs from the left-to-right sum on some rows, and dense and
        # CSR normalization must still agree bit for bit
        rng = np.random.default_rng(17)
        n, d = 200, 200
        dense = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.75)
        labels = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
        ds = LabeledSparseDataset.from_rows(
            [np.flatnonzero(r) for r in dense],
            [r[r != 0.0] for r in dense], labels, d)
        labeled = labels[:, None] * dense_rows(ds)
        sequential = np.sqrt(np.cumsum(labeled ** 2, axis=1)[:, -1])
        assert np.any(np.linalg.norm(labeled, axis=1) != sequential)
        got = make_svm_problem(ds).constraints
        want = RowConstraintSet.normalized(labeled, 1.0, np.inf)
        assert np.array_equal(got.lo, 1.0 / sequential)
        assert np.array_equal(got.lo, want.lo)
        assert np.array_equal(np.array([got.rows[i] for i in range(n)]),
                              want.rows)

    def test_zero_row_rejected(self):
        ds = LabeledSparseDataset.from_rows([[0], [], [1]], [[1.0], [], [2.0]],
                                            [1.0, -1.0, 1.0], dim=2)
        with pytest.raises(DegenerateConstraintError):
            make_svm_problem(ds)


# The objectives the builders handed in as lambdas before the structure
# record derived them: (problem, grad_f, f_value, prox of step * f, L).
def _half_sq_reference(problem):
    return (problem, lambda x, batch: x,
            lambda x, batch: 0.5 * float(x @ x),
            lambda x, step: x / (1.0 + step), 1.0)


def _bp_reference():
    problem = make_bp_problem(gen_basis_pursuit(20, 100, 3, 0.9, seed=0))
    return (problem, lambda x, batch: 0.0, lambda x, batch: 0.0,
            lambda x, step: x, 0.0)


def _portfolio_reference():
    returns = gen_synthetic_returns(60, 8, seed=3)
    a_avg = returns.mean(axis=0)
    return (make_portfolio_problem(returns, 0.2), lambda x, batch: -a_avg,
            lambda x, batch: -float(a_avg @ x),
            lambda x, step: x + step * a_avg, 0.0)


_REFERENCES = {
    "bp": _bp_reference,
    "portfolio": _portfolio_reference,
    "svm": lambda: _half_sq_reference(
        make_svm_problem(gen_separable_svm(6, 40, margin=0.5, seed=1))),
    "min-norm": lambda: _half_sq_reference(
        make_min_norm_hyperplane_problem(3)[0]),
}


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


class TestDeclaredObjectives:
    """The builders declare their objectives; the derivation keeps the bits."""

    @pytest.mark.parametrize("name", list(_REFERENCES))
    def test_derived_callables_match_the_lambdas_bit_for_bit(self, name):
        problem, grad, value, prox, lipschitz = _REFERENCES[name]()
        declared = _declared_f(problem.structure, problem.mu)
        assert problem.lipschitz_grad == declared.lipschitz_grad == lipschitz
        batch = problem.constraints.support()
        rng = np.random.default_rng(17)
        for _ in range(500):
            x = rng.standard_normal(problem.dim) * 10.0 ** rng.uniform(-3, 3)
            # zero entries of both signs
            x[rng.random(problem.dim) < 0.2] = 0.0
            x[rng.random(problem.dim) < 0.2] = -0.0
            step = 10.0 ** rng.uniform(-6, 1)
            assert _bits(problem.grad_f(x, batch)) == _bits(grad(x, batch))
            assert _bits(problem.f_value(x, batch)) == _bits(value(x, batch))
            assert _bits(declared.prox(x, step)) == _bits(prox(x, step))

    @pytest.mark.parametrize("name", list(_REFERENCES))
    def test_a_zero_objective_matches_the_lambdas(self, name):
        problem, grad, value, prox, _ = _REFERENCES[name]()
        for x in (np.zeros(problem.dim), -np.zeros(problem.dim)):
            got, want = problem.f_value(x, None), value(x, None)
            if problem.structure.f == "linear":
                # c @ 0 sums its -0.0 products onto +0.0 where the lambda's
                # negated dot gives -0.0; the objective the package reports
                # adds h's value (0.0 or inf) to it, which makes both alike
                assert got == want == 0.0
                assert _bits(got + 0.0) == _bits(want + 0.0)
            else:
                assert _bits(got) == _bits(want)
            assert _bits(problem.grad_f(x, None)) == _bits(grad(x, None))

    def test_builders_declare_their_objectives(self):
        kinds = {name: (build()[0].structure.f, build()[0].structure.h)
                 for name, build in _REFERENCES.items()}
        assert kinds == {"bp": ("zero", "l1"),
                         "portfolio": ("linear", "hyperplane"),
                         "svm": ("half_sq_norm", "zero"),
                         "min-norm": ("half_sq_norm", "zero")}


def _svm_config(seed, minibatch):
    return SascConfig(alpha0=0.5, omega=2.0, m0=4,
                      case=Case.RESTRICTED_STRONGLY_CONVEX, sample_budget=3000,
                      seed=seed, minibatch=minibatch, checkpoint_every=50,
                      eval_samples=100)


class TestCsrRows:
    """CSR constraint rows against the dense rows they stand for."""

    _COLUMNS = ("samples", "epoch", "objective", "feasibility", "beta",
                "alpha", "dist_to_ref")

    def test_single_sample_sasc_matches_dense_rows(self):
        sparse, dense = full_storage_svm(21)
        cfg = _svm_config(21, 1)
        x, trace = run_sasc(sparse, cfg)
        x_dense, trace_dense = run_sasc(dense, cfg)
        assert x.tobytes() == x_dense.tobytes()
        # a held-out block sums its rows in another order than BLAS, so the
        # feasibility column alone may differ in its last bits
        for name in self._COLUMNS:
            got, want = trace.column(name), trace_dense.column(name)
            if name == "feasibility":
                assert_allclose(got, want, rtol=1e-12)
            else:
                assert got.tobytes() == want.tobytes()

    def test_minibatch_sasc_matches_dense_rows(self):
        sparse, dense = full_storage_svm(22)
        cfg = _svm_config(22, 4)
        x, trace = run_sasc(sparse, cfg)
        x_dense, trace_dense = run_sasc(dense, cfg)
        assert_allclose(x, x_dense, rtol=1e-12)
        for name in self._COLUMNS:
            assert_allclose(trace.column(name), trace_dense.column(name),
                            rtol=1e-12)

    def test_spp_matches_dense_rows(self):
        sparse, dense = full_storage_svm(23)
        cfg = BaselineConfig("spp", step=0.01, iterations=2000, seed=23,
                             checkpoint_every=50, eval_samples=100)
        assert run_spp(sparse, cfg)[0].tobytes() == run_spp(dense, cfg)[0].tobytes()

    def test_feasibility_over_the_support_matches_dense_rows(self):
        sparse, dense = full_storage_svm(24)
        rng = np.random.default_rng(24)
        for _ in range(5):
            x = rng.standard_normal(12)
            assert_allclose(
                feasibility_metric(x, sparse.constraints, 300, 0),
                feasibility_metric(x, dense.constraints, 300, 0), rtol=1e-12)

    @pytest.mark.parametrize("batch", [1, 5])
    def test_row_products_on_rows_of_different_lengths(self, batch):
        rng = np.random.default_rng(25)
        idx_lists, val_lists = [], []
        for _ in range(60):
            k = 0 if rng.random() < 0.2 else int(rng.integers(1, 25))
            idx_lists.append(np.sort(rng.choice(30, size=k, replace=False)))
            val_lists.append(rng.standard_normal(k))
        ds = LabeledSparseDataset.from_rows(idx_lists, val_lists,
                                            np.ones(60), 30)
        rows = _CsrRows(ds.indptr, ds.indices, ds.data, 30)
        dense = dense_rows(ds)
        assert np.any(np.diff(ds.indptr) == 0)
        for _ in range(40):
            idx = rng.integers(0, 60, size=batch)
            x, g = rng.standard_normal(30), rng.standard_normal(batch)
            block = rows.take(idx, axis=0)
            assert block.shape == (batch, 30)
            assert_allclose(block @ x, dense[idx] @ x, rtol=1e-12)
            assert_allclose(g @ block, g @ dense[idx], rtol=1e-12)
            assert np.array_equal(rows[int(idx[0])], dense[idx[0]])

    def test_shares_the_dataset_arrays(self):
        ds = gen_separable_svm(6, 40, margin=0.5, seed=26)
        rows = make_svm_problem(ds).constraints.rows
        assert rows.indices is ds.indices and rows.indptr is ds.indptr

    def test_problem_build_stays_sparse(self):
        # 20,000 x 1,000 with 20 entries per row: its dense copy alone
        # would take 160 MB
        n, d, k = 20_000, 1_000, 20
        rng = np.random.default_rng(27)
        cols = np.arange(k) * (d // k) + rng.integers(0, d // k, size=(n, k))
        ds = LabeledSparseDataset(np.arange(n + 1) * k, cols.ravel(),
                                  rng.standard_normal(n * k),
                                  np.where(rng.random(n) < 0.5, 1.0, -1.0), d)
        tracemalloc.start()
        try:
            make_svm_problem(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            LabeledSparseDataset.from_rows(index_lists=[np.array([3, 1])],
                                           value_lists=[np.array([1.0, 2.0])],
                                           labels=np.array([1.0]), dim=5)
        with pytest.raises(ValueError, match="range"):
            LabeledSparseDataset.from_rows(index_lists=[np.array([7])],
                                           value_lists=[np.array([1.0])],
                                           labels=np.array([1.0]), dim=5)

    def test_dense_round_trip(self):
        rng = np.random.default_rng(15)
        rows = rng.standard_normal((6, 4))
        labels = np.where(rng.standard_normal(6) > 0, 1.0, -1.0)
        ds = LabeledSparseDataset.from_dense(rows, labels)
        assert np.array_equal(dense_rows(ds), rows)
        assert_allclose(ds.margins(np.ones(4)), labels * rows.sum(axis=1))

    def test_csr_validation(self):
        def make(indptr, indices, data, labels=(1.0, -1.0), dim=5):
            return LabeledSparseDataset(np.array(indptr), np.array(indices),
                                        np.array(data, dtype=float),
                                        np.array(labels), dim)

        make([0, 1, 2], [3, 1], [1.0, 2.0])  # a new row may start lower
        with pytest.raises(ValueError, match="equal length"):
            make([0, 2], [3, 4], [1.0, 2.0])
        with pytest.raises(ValueError, match="indptr"):
            make([0, 1, 3], [3, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="indptr"):
            make([0, 2, 1], [3], [1.0])
        with pytest.raises(ValueError, match="indptr"):
            make([0, 1, 2], [3, 1], [1.0])
        with pytest.raises(ValueError, match="range"):
            make([0, 1, 2], [-1, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="range"):
            make([0, 1, 2], [3, 5], [1.0, 2.0])
        with pytest.raises(ValueError, match="ascending"):
            make([0, 0, 2], [1, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="integers"):
            make([0, 1, 2], [3.0, 1.0], [1.0, 2.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                make([0, 1, 2], [3, 1], [1.0, bad])
            with pytest.raises(ValueError, match="finite"):
                make([0, 1, 2], [3, 1], [1.0, 2.0], labels=(bad, 1.0))

    def test_from_rows_and_row_views(self):
        ds = LabeledSparseDataset.from_rows(
            [[1, 4], [], [0]], [[0.5, -2.0], [], [3.0]], [1.0, -1.0, 1.0], 6)
        assert ds.indptr.tolist() == [0, 2, 2, 3]
        assert ds.indices.tolist() == [1, 4, 0]
        assert ds.data.tolist() == [0.5, -2.0, 3.0]
        idx, vals = ds.row(0)
        assert idx.tolist() == [1, 4] and vals.tolist() == [0.5, -2.0]
        assert np.shares_memory(idx, ds.indices)
        assert np.shares_memory(vals, ds.data)
        assert len(ds.row(1)[0]) == 0
        assert ds.row(-1)[1].tolist() == [3.0]
        with pytest.raises(IndexError):
            ds.row(3)
        with pytest.raises(ValueError, match="as many values"):
            LabeledSparseDataset.from_rows([[0, 1]], [[1.0]], [1.0], 2)

    @staticmethod
    def _csr(indptr, indices, dim=6):
        return LabeledSparseDataset(np.array(indptr),
                                    np.array(indices, dtype=np.int64),
                                    np.ones(len(indices)),
                                    np.ones(len(indptr) - 1), dim)

    def test_ascending_check_across_empty_rows(self):
        # a descending pair is allowed only when a row starts between its
        # entries, however many empty rows lie there
        self._csr([0, 1, 1, 1, 2], [3, 1])
        self._csr([0, 0, 2, 2, 3], [1, 4, 0])
        self._csr([0, 2, 2, 2], [1, 4])
        for indptr, indices in (([0, 0, 2, 2], [4, 1]),
                                ([0, 1, 1, 3], [3, 2, 2]),
                                ([0, 0, 0, 3], [0, 5, 5])):
            with pytest.raises(ValueError, match="ascending"):
                self._csr(indptr, indices)

    def test_ascending_check_matches_a_row_by_row_check(self):
        rng = np.random.default_rng(28)
        outcomes = set()
        for _ in range(400):
            n = int(rng.integers(1, 8))
            counts = rng.integers(0, 4, size=n) * (rng.random(n) < 0.6)
            indptr = np.concatenate(([0], np.cumsum(counts)))
            indices = rng.integers(0, 6, size=indptr[-1])
            ascending = all(np.all(np.diff(indices[p:q]) > 0)
                            for p, q in zip(indptr[:-1], indptr[1:]))
            outcomes.add(ascending)
            if ascending:
                self._csr(indptr, indices)
            else:
                with pytest.raises(ValueError, match="ascending"):
                    self._csr(indptr, indices)
        assert outcomes == {True, False}

    def test_ascending_check_builds_no_per_entry_row_ids(self):
        # 1,000,000 entries: a row id or a difference per entry alone would
        # take as much memory as the indices
        n, d, k = 50_000, 1_000, 20
        rng = np.random.default_rng(29)
        cols = np.arange(k) * (d // k) + rng.integers(0, d // k, size=(n, k))
        indptr, indices = np.arange(n + 1) * k, cols.ravel()
        data, labels = rng.standard_normal(n * k), np.ones(n)
        tracemalloc.start()
        try:
            LabeledSparseDataset(indptr, indices, data, labels, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * indices.nbytes, peak / indices.nbytes

    def test_from_dense_keeps_explicit_zeros(self):
        rows = np.array([[0.0, 2.0], [0.0, 0.0]])
        ds = LabeledSparseDataset.from_dense(rows, [1.0, -1.0])
        assert ds.indptr.tolist() == [0, 2, 4]
        assert ds.indices.tolist() == [0, 1, 0, 1]
        assert ds.data.tolist() == [0.0, 2.0, 0.0, 0.0]


def _margins_reference(ds, x):
    """The per-row loop: labels[i] * <row i, x>, one dot product per row."""
    out = []
    for i in range(len(ds)):
        idx, vals = ds.row(i)
        out.append(ds.labels[i] * float(vals @ x[idx]))
    return np.array(out)


class TestMargins:
    def _check(self, ds, x):
        got, want = ds.margins(x), _margins_reference(ds, x)
        assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert np.array_equal(np.sign(got), np.sign(want))

    def test_random_rows_with_empty_rows_and_unused_columns(self):
        rng = np.random.default_rng(17)
        idx_lists, val_lists = [], []
        for _ in range(400):
            k = 0 if rng.random() < 0.25 else int(rng.integers(1, 30))
            # columns 150..199 are never used
            idx_lists.append(np.sort(rng.choice(150, size=k, replace=False)))
            val_lists.append(rng.standard_normal(k))
        labels = np.where(rng.standard_normal(400) > 0, 1.0, -1.0)
        ds = LabeledSparseDataset.from_rows(idx_lists, val_lists, labels, 200)
        empty = np.diff(ds.indptr) == 0
        assert np.any(empty)
        for _ in range(5):
            self._check(ds, rng.standard_normal(200))
        assert np.all(ds.margins(np.ones(200))[empty] == 0.0)

    def test_trailing_empty_rows(self):
        ds = LabeledSparseDataset.from_rows([[2], [0, 1], [], []],
                                            [[2.0], [1.0, -1.0], [], []],
                                            [1.0, -1.0, 1.0, -1.0], 3)
        self._check(ds, np.array([0.5, 2.0, -1.0]))
        assert ds.margins(np.ones(3))[2:].tolist() == [0.0, 0.0]

    def test_all_rows_empty(self):
        ds = LabeledSparseDataset.from_rows([[], [], []], [[], [], []],
                                            [1.0, -1.0, 1.0], 4)
        assert ds.margins(np.arange(4.0)).tolist() == [0.0, 0.0, 0.0]
        self._check(ds, np.arange(4.0))


class TestGradientConsistency:
    def test_stochastic_gradient_averages_to_population(self):
        # finite support: the gradient and value of f on single-row batches,
        # averaged over all draws, must match the analytic population ones
        from sasc.problems import make_bp_least_squares_problem
        inst = gen_basis_pursuit(8, 40, 2, 0.9, seed=16)
        prob = make_bp_least_squares_problem(inst)
        R, b = inst.rows, inst.targets
        support = prob.constraints.support()
        singles = [support[i:i + 1] for i in range(len(support))]
        rng = np.random.default_rng(16)
        for _ in range(10):
            x = rng.standard_normal(8)
            full = np.mean([prob.grad_f(x, one) for one in singles], axis=0)
            analytic = R.T @ (R @ x - b) / len(b)
            assert np.linalg.norm(full - analytic) <= 1e-10
            value = np.mean([prob.f_value(x, one) for one in singles])
            assert_allclose(value, 0.5 * np.mean((R @ x - b) ** 2),
                            rtol=1e-12)

    def test_deterministic_objectives_ignore_draw(self):
        inst = gen_basis_pursuit(8, 40, 2, 0.9, seed=17)
        prob = make_bp_problem(inst)
        x = np.ones(8)
        batch = prob.constraints.support()[:1]
        assert prob.grad_f(x, batch) == prob.grad_f(x, None) == 0.0


def _lp_returns():
    """30 days of 3 assets, the first one dominant."""
    rng = np.random.default_rng(19)
    returns = 1.0 + 0.01 * rng.standard_normal((30, 3))
    returns[:, 0] += 0.02
    return returns


def _listed(problem):
    """The problem with its row set's constraints handed out as a list of
    samples, with no vectorized distances."""
    rows = problem.constraints

    class Samples(ConstraintSampler):
        def draw(self, rng):
            return rows.draw(rng)

        def support(self):
            return [rows.sample(i) for i in range(len(rows))]

    return dataclasses.replace(problem, constraints=Samples())


def _plain_reference(problem, tolerance):
    """reference_solution's loop built from the package's plain parts,
    the tests' oracle for it.

    Each iteration takes the plain step (``_inner_step``) on the whole
    support, then measures the new point on a held-out set over that
    support (``_EvalSet``), which forms the row products a second time.
    """
    import sasc.problems
    sup = problem.constraints.support()
    n = len(sup)
    max_norm_sq = max(s.norm() for s in sup) ** 2
    population = _EvalSet(problem.constraints, n, None, problem)
    x = np.zeros(problem.dim)
    beta = 1.0
    inner_tol = max(tolerance * 1e-2, 1e-15)
    iters = 0
    prev_outer = np.inf
    while True:
        alpha = 1.0 / (problem.lipschitz_grad + max_norm_sq / beta)
        prev_phi = np.inf
        while True:
            x = _inner_step(x, sup, alpha, beta, problem)
            iters += 1
            if iters >= sasc.problems._REFERENCE_MAX_ITERATIONS:
                raise NoConvergenceError("iteration cap")
            msd = population.mean_sq_distance(x)
            phi = population.objective(x) + msd / (2.0 * beta)
            if not np.isfinite(phi):
                raise DivergenceError(epoch=0, step=iters)
            if prev_phi - phi <= inner_tol:
                break
            prev_phi = phi
        p_now = population.objective(x)
        if np.sqrt(msd) <= tolerance and abs(prev_outer - p_now) <= tolerance:
            return x, p_now
        prev_outer = p_now
        beta *= 0.5


def _svm_slice():
    """The hard-margin problem on 50 rows of a separable set, as CSR rows."""
    ds = gen_separable_svm(6, 200, margin=0.8, seed=14)
    small = LabeledSparseDataset.from_dense(dense_rows(ds)[:50], ds.labels[:50])
    return make_svm_problem(small)


# (builder, tolerance) of each instance the oracle is held to
# _plain_reference on: every row storage and both support kinds
_ORACLE_CASES = {
    "min-norm": (lambda: make_min_norm_hyperplane_problem()[0], 1e-8),
    "lp-portfolio": (lambda: make_portfolio_problem(_lp_returns(), 0.02), 1e-7),
    "portfolio-200x10": (lambda: make_portfolio_problem(
        gen_synthetic_returns(200, 10, seed=20260810), 0.2), 1e-6),
    "bp-6x40": (lambda: make_bp_problem(
        gen_basis_pursuit(6, 40, 2, 0.9, seed=18)), 1e-6),
    "svm-csr-50": (_svm_slice, 1e-6),
    "listed-portfolio": (lambda: _listed(make_portfolio_problem(
        _lp_returns(), 0.02)), 1e-7),
}


class TestReferenceSolution:
    def test_analytic_instance(self):
        problem, cert = make_min_norm_hyperplane_problem()
        x_ref, p_ref = reference_solution(problem, 1e-8)
        assert np.linalg.norm(x_ref - cert.x_star) <= 1e-6
        assert abs(p_ref - 0.5) <= 1e-8

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        # every "< nan" test is false, so a NaN tolerance would never stop
        problem, _ = make_min_norm_hyperplane_problem()
        with pytest.raises(ConfigurationError, match="tolerance"):
            reference_solution(problem, tolerance)

    def test_tiny_planted_recovery(self):
        inst = gen_basis_pursuit(6, 40, 2, 0.9, seed=18)
        prob = make_bp_problem(inst)
        x_ref, p_ref = reference_solution(prob, 1e-6)
        assert np.linalg.norm(x_ref - inst.x_star) <= 1e-4
        assert abs(p_ref - np.sum(np.abs(inst.x_star))) <= 1e-4

    def test_portfolio_against_linear_programming(self):
        # independent oracle: the same problem as an explicit LP
        returns = _lp_returns()
        n, d = returns.shape
        eps = 0.02
        prob = make_portfolio_problem(returns, epsilon=eps)
        x_ref, p_ref = reference_solution(prob, 1e-7)

        a_avg = returns.mean(axis=0)
        C = returns - a_avg
        res = linprog(c=-a_avg,
                      A_ub=np.vstack([C, -C]),
                      b_ub=np.full(2 * n, eps),
                      A_eq=np.ones((1, d)), b_eq=np.array([1.0]),
                      bounds=[(None, None)] * d, method="highs")
        assert res.status == 0
        assert abs(p_ref - res.fun) <= 1e-5
        assert np.linalg.norm(x_ref - res.x) <= 1e-3
        assert np.argmax(x_ref) == 0  # weight concentrates on the leader

    @pytest.mark.parametrize("build,tolerance", [
        (lambda: make_min_norm_hyperplane_problem()[0], 1e-8),
        (lambda: make_portfolio_problem(_lp_returns(), epsilon=0.02), 1e-7),
    ], ids=["min-norm", "portfolio"])
    def test_generic_sampler_matches_row_set(self, build, tolerance):
        # the same constraints handed out as plain samples, with no
        # vectorized distances: the stacked listed support gives the row
        # set's point
        problem = build()
        generic = _listed(problem)
        x_rows, p_rows = reference_solution(problem, tolerance)
        x_samples, p_samples = reference_solution(generic, tolerance)
        assert x_samples.tobytes() == x_rows.tobytes()
        assert p_samples == p_rows

    def test_requires_finite_small_support(self):
        class Listed:
            def __init__(self, support):
                self.listed = support

            def draw(self, rng):
                raise NotImplementedError

            def support(self):
                return self.listed

        class Ball(SetProjector):
            def project(self, z):
                return z / max(1.0, abs(z))

        from sasc.core import CompositeProblem
        from sasc.prox import zero_prox
        row = np.array([1.0, 0.0])
        supports = {
            "infinite": None,
            "empty": [],
            "matrix row": [ConstraintSample(np.eye(2), BoxSet(0.0, 1.0), 0)],
            "not a box": [ConstraintSample(row, BoxSet(0.0, 1.0), 0),
                          ConstraintSample(row, Ball(), 1)],
        }
        for support in supports.values():
            prob = CompositeProblem(
                dim=2, grad_f=lambda x, xi=None: np.zeros(2),
                f_value=lambda x, xi=None: 0.0, prox_h=zero_prox(),
                constraints=Listed(support), norm_bound=1.0)
            with pytest.raises(UnsupportedProblemError):
                reference_solution(prob, 1e-6)

    def test_iteration_cap(self, monkeypatch):
        problem, _ = make_min_norm_hyperplane_problem()
        monkeypatch.setattr("sasc.problems._REFERENCE_MAX_ITERATIONS", 10)
        with pytest.raises(NoConvergenceError):
            reference_solution(problem, 1e-12)

    def test_non_finite_objective_stops_at_once(self):
        problem, _ = make_min_norm_hyperplane_problem()
        broken = dataclasses.replace(
            problem, grad_f=lambda x, xi=None: np.full_like(x, np.nan))
        with pytest.raises(DivergenceError) as err:
            reference_solution(broken, 1e-8)
        assert err.value.step == 1

    def test_unreachable_tolerance_is_no_convergence(self):
        # beta halves until max_norm_sq / beta overflows and the step size
        # is 0, which moves no x; beta would next reach 0
        problem = make_portfolio_problem(_lp_returns(), epsilon=0.02)
        with pytest.raises(NoConvergenceError,
                           match=r"tolerance 1e-30: .* feasibility"):
            reference_solution(problem, 1e-30)

    @pytest.mark.parametrize("case", list(_ORACLE_CASES))
    def test_matches_the_plain_loop_bit_for_bit(self, case):
        # one residual per iteration, read by both the step and the
        # feasibility, gives the plain parts' point and value exactly
        build, tolerance = _ORACLE_CASES[case]
        x, p = reference_solution(build(), tolerance)
        x_plain, p_plain = _plain_reference(build(), tolerance)
        assert x.tobytes() == x_plain.tobytes()
        assert p == p_plain

    @pytest.mark.parametrize("case", ["lp-portfolio", "bp-6x40"])
    def test_pinned_points(self, case):
        # x's sha256 and p as literals, so that reference_solution and
        # _plain_reference cannot drift together
        sha, p_pinned = {
            "lp-portfolio": ("f977795e49a49d209f53930ae320f627"
                             "091084ace6064a7d508313062061f708",
                             -1.0197588768919799),
            "bp-6x40": ("ccc278a7e1391a305b967c643a2e75f3"
                        "83885866888362fdfbfe4debb2a8788b",
                        1.3214062781011573),
        }[case]
        build, tolerance = _ORACLE_CASES[case]
        x, p = reference_solution(build(), tolerance)
        assert hashlib.sha256(x.tobytes()).hexdigest() == sha
        assert p == p_pinned

    def test_one_row_product_per_iteration(self, monkeypatch):
        # on CSR rows, R @ x is __matmul__ and g @ R is __rmatmul__; the
        # cap stops the run at its 10th step, before that step's product
        counts = {"R @ x": 0, "g @ R": 0}
        matmul, rmatmul = _CsrRows.__matmul__, _CsrRows.__rmatmul__

        def counted_matmul(rows, x):
            counts["R @ x"] += 1
            return matmul(rows, x)

        def counted_rmatmul(rows, g):
            counts["g @ R"] += 1
            return rmatmul(rows, g)

        monkeypatch.setattr(_CsrRows, "__matmul__", counted_matmul)
        monkeypatch.setattr(_CsrRows, "__rmatmul__", counted_rmatmul)
        monkeypatch.setattr("sasc.problems._REFERENCE_MAX_ITERATIONS", 10)
        for oracle, products in ((reference_solution, 10),
                                 (_plain_reference, 19)):
            counts.update({"R @ x": 0, "g @ R": 0})
            with pytest.raises(NoConvergenceError):
                oracle(_svm_slice(), 1e-6)
            # x0's product and one after each of the 9 finished steps;
            # _plain_reference forms each of those again to step from it
            assert counts == {"R @ x": products, "g @ R": 10}


class TestSyntheticReturns:
    def test_shape_and_determinism(self):
        a = gen_synthetic_returns(100, 7, seed=20)
        b = gen_synthetic_returns(100, 7, seed=20)
        assert a.shape == (100, 7)
        assert np.array_equal(a, b)
        assert a.mean() > 0.9  # price relatives near 1


def _toy_with_rows(n):
    problem, _ = make_min_norm_hyperplane_problem()
    rows = RowConstraintSet(np.ones((n, 2)), np.ones(n), np.ones(n))
    return dataclasses.replace(problem, constraints=rows)


@pytest.mark.parametrize("call, error, match", [
    (lambda: reference_solution(_toy_with_rows(201), 1e-6),
     UnsupportedProblemError, "n <= 200"),
    (lambda: reference_solution(make_min_norm_hyperplane_problem(51)[0], 1e-6),
     UnsupportedProblemError, "d <= 50"),
    (lambda: make_min_norm_hyperplane_problem(dim=0), ValueError, "dim"),
    (lambda: gen_basis_pursuit(d=3, n=1, sparsity=1, rho=0.0, seed=0),
     ValueError, "zero row after centering"),
    (lambda: LabeledSparseDataset.from_rows([[0], [1]], [[1.0]],
                                            np.array([1.0, -1.0]), dim=2),
     ValueError, "index lists and value lists"),
    (lambda: LabeledSparseDataset([0, 0], [], [], [1.0], -3),
     ValueError, "dim must be >= 1"),
    (lambda: LabeledSparseDataset([0, 1, 2], [0, 1], [1.0, 2.0], [1.0, -1.0],
                                  2.5),
     ValueError, "dim must be an integer, got 2.5"),
], ids=["reference-n-above-cap", "reference-d-above-cap", "min-norm-dim-0",
        "bp-one-row", "dataset-more-index-than-value-lists",
        "dataset-dim-below-1", "dataset-dim-not-integral"])
def test_builders_refuse_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()
