import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import dense_rows, full_storage_svm, least_squares_grad_one
from sasc.baselines import (
    BaselineConfig,
    run_pegasos,
    run_projected_sgd,
    run_spp,
)
from sasc.core import (
    CompositeProblem,
    ObjectiveStructure,
    SascConfig,
    _declared_f,
    run_sasc,
)
from sasc.errors import (
    ConfigurationError,
    DegenerateConstraintError,
    DivergenceError,
    UnsupportedProblemError,
)
from sasc.prox import BoxSet, _clip, l1_prox, zero_prox
from sasc.problems import (
    LabeledSparseDataset,
    gen_basis_pursuit,
    gen_separable_svm,
    gen_synthetic_returns,
    make_bp_least_squares_problem,
    make_bp_problem,
    make_portfolio_problem,
)
from sasc.smoothing import ConstraintSample, RowConstraintSet, _CsrRows


def _unconstrained_problem(dim, grad, fval, prox_h=None):
    """A problem whose constraint stream is a single always-satisfied row."""
    rows = np.zeros((1, dim))
    rows[0, 0] = 1.0
    return CompositeProblem(
        dim=dim, grad_f=grad, f_value=fval,
        prox_h=prox_h or zero_prox(),
        constraints=RowConstraintSet(rows, -np.inf, np.inf),
        norm_bound=1.0)


class TestProjectedSgd:
    def test_zero_gradient_never_moves(self):
        prob = _unconstrained_problem(3, lambda x, xi=None: np.zeros(3),
                                      lambda x, xi=None: 0.0)
        cfg = BaselineConfig("sgd", step=1.0, iterations=200, seed=0,
                            checkpoint_every=50, eval_samples=1)
        x, trace = run_projected_sgd(prob, cfg)
        assert_allclose(x, np.zeros(3), atol=0)
        assert len(trace.records) == 4

    def test_strongly_convex_sanity_run(self):
        c = np.array([1.0, 2.0])
        prob = _unconstrained_problem(
            2, lambda x, xi=None: x - c,
            lambda x, xi=None: 0.5 * float((x - c) @ (x - c)))
        cfg = BaselineConfig("sgd", step=1.0, iterations=40_000, seed=1,
                            checkpoint_every=40_000, eval_samples=1)
        x_bar, _ = run_projected_sgd(prob, cfg)
        assert np.linalg.norm(x_bar - c) <= 1e-2

    def test_least_squares_comparator_is_dense(self):
        # the plain-SGD route solves a different problem with dense solutions
        inst = gen_basis_pursuit(30, 400, 3, 0.9, seed=5)
        prob = make_bp_least_squares_problem(inst)
        cfg = BaselineConfig("sgd", step=1.0, iterations=20_000, seed=2,
                            checkpoint_every=20_000, eval_samples=50)
        x_bar, _ = run_projected_sgd(prob, cfg)
        assert np.count_nonzero(np.abs(x_bar) > 1e-8) >= 25  # >> 3 nonzeros

    def test_bit_identical_to_per_draw_loop(self):
        # 5000 steps cross the first 4096-index chunk of the stream
        inst = gen_basis_pursuit(8, 40, 2, 0.5, seed=1)
        problem = make_bp_least_squares_problem(inst)
        grad_one = least_squares_grad_one(inst)
        cfg = BaselineConfig("sgd", step=0.1, iterations=5000, seed=7,
                             checkpoint_every=5000, eval_samples=1)
        x_bar, _ = run_projected_sgd(problem, cfg)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[0])
        x, avg = np.zeros(problem.dim), np.zeros(problem.dim)
        for t in range(1, cfg.iterations + 1):
            eta = cfg.step / np.sqrt(t)
            g = grad_one(x, problem.constraints.draw(rng))
            x = problem.prox_h.evaluate(x - eta * g, eta)
            avg += x
        assert x_bar.tobytes() == (avg / cfg.iterations).tobytes()

    def test_divergence_names_its_step(self):
        # an ascent direction grows x by 1 + 10 / sqrt(t) per step until it
        # overflows
        prob = _unconstrained_problem(2, lambda x, xi=None: -10.0 * x - 1.0,
                                      lambda x, xi=None: 0.0)
        cfg = BaselineConfig("sgd", step=1.0, iterations=100_000, seed=0,
                             checkpoint_every=100_000, eval_samples=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_projected_sgd(prob, cfg)
            x, t = np.zeros(2), 0
            while np.isfinite(x).all():
                t += 1
                x = x - (1.0 / np.sqrt(t)) * (-10.0 * x - 1.0)
        assert (err.value.epoch, err.value.step) == (0, t)

    def test_rejects_non_projectable_h(self):
        prob = _unconstrained_problem(2, lambda x, xi=None: np.zeros(2),
                                      lambda x, xi=None: 0.0,
                                      prox_h=l1_prox())
        cfg = BaselineConfig("sgd", step=1.0, iterations=10, seed=0)
        with pytest.raises(UnsupportedProblemError):
            run_projected_sgd(prob, cfg)


def _project_onto_constraint(z, sample):
    """Exact projection of z onto {x : A(xi) x in b(xi)} for a scalar row:
    the reference that SPP's row step is held to.

    A zero row constrains nothing when its target holds 0, and raises
    DegenerateConstraintError naming the sample's index otherwise.
    """
    row = sample.row
    if row.ndim != 1:
        raise UnsupportedProblemError(
            "alternating projection needs scalar (single-row) constraints"
        )
    sq = float(row @ row)
    if sq == 0.0:
        if float(np.asarray(sample.set_proj.project(0.0))) == 0.0:
            return z
        raise DegenerateConstraintError(
            f"spp: constraint sample {sample.index} has zero norm and 0 lies "
            "outside its target set")
    val = float(row @ z)
    target = float(np.asarray(sample.set_proj.project(val)))
    return z - ((val - target) / sq) * row


class _ListedSamples:
    """A row set's rows as a finite sampler that is not a row set: its
    support lists the samples, which SPP refuses."""

    def __init__(self, rows):
        self.rows = rows

    def draw(self, rng):
        return self.rows.draw(rng)

    def draw_batch(self, rng, k):
        return [self.draw(rng) for _ in range(k)]

    def support(self):
        return [self.rows.sample(i) for i in range(len(self.rows))]


class _UnlistedSamples(_ListedSamples):
    """The rows as a sampler that lists no support, as an infinite one."""

    def support(self):
        return None


class _MatrixSamples:
    """One matrix-valued constraint sample, {x : I x = 0}."""

    sample = ConstraintSample(np.eye(2), BoxSet(np.zeros(2), np.zeros(2)), 0)

    def draw(self, rng):
        return self.sample

    def draw_batch(self, rng, k):
        return [self.sample] * k

    def support(self):
        return [self.sample]

    def distances(self, x, indices=None):
        return None


def _zero_row_problem(lo, hi):
    """min 0 over the rows (0, 0) and (1, 0) with targets [lo, hi]."""
    return CompositeProblem(
        dim=2, constraints=RowConstraintSet([[0.0, 0.0], [1.0, 0.0]], lo, hi),
        norm_bound=1.0, structure=ObjectiveStructure(f="zero", h="zero"))


class TestSpp:
    def test_hyperplane_projection_step(self):
        # flat objective, declared zero so f's prox is the identity: one
        # iteration is the pure constraint projection
        inst_rows = np.array([[1.0, 0.0]])
        prob = CompositeProblem(
            dim=2, constraints=RowConstraintSet(inst_rows, np.array([1.0]),
                                                np.array([1.0])),
            norm_bound=1.0, structure=ObjectiveStructure(f="zero", h="zero"))
        cfg = BaselineConfig("spp", step=1e-3, iterations=1, seed=0,
                            checkpoint_every=1, eval_samples=1)
        x, _ = run_spp(prob, cfg)
        assert_allclose(x, [1.0, 0.0], atol=1e-15)

    def test_projection_helper_lands_in_set(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            row = rng.standard_normal(4)
            row /= np.linalg.norm(row)
            lo = float(rng.uniform(-1, 0))
            hi = float(rng.uniform(0, 1))
            sample = ConstraintSample(row, BoxSet(lo, hi), 0)
            z = rng.standard_normal(4) * 3
            p = _project_onto_constraint(z, sample)
            assert sample.set_proj.distance(sample.apply(p)) <= 1e-12
            # projection onto a superset never moves farther than the sample
            assert np.linalg.norm(p - z) <= abs(
                float(row @ z) - np.clip(float(row @ z), lo, hi)) + 1e-12

    def test_feasible_point_is_fixed(self):
        rows = np.array([[1.0, 0.0]])
        prob = CompositeProblem(
            dim=2, constraints=RowConstraintSet(rows, np.array([0.5]),
                                                np.array([0.5])),
            norm_bound=1.0, structure=ObjectiveStructure(f="zero", h="zero"))
        cfg = BaselineConfig("spp", step=1e-2, iterations=20, seed=0,
                            checkpoint_every=20, eval_samples=1)
        x, trace = run_spp(prob, cfg)
        # reaches the constraint after one step, then never moves
        assert_allclose(x, [0.5, 0.0], atol=1e-15)
        assert trace.records[-1].feasibility == 0.0

    def test_a_zero_row_that_holds_0_constrains_nothing(self):
        prob = _zero_row_problem([0.0, 1.0], [0.0, 1.0])
        cfg = BaselineConfig("spp", step=1e-2, iterations=20, seed=0,
                             checkpoint_every=20, eval_samples=2)
        x, trace = run_spp(prob, cfg)
        assert x.tolist() == [1.0, 0.0]
        assert trace.records[-1].feasibility == 0.0
        # CSR rows that store no entry at all
        empty = RowConstraintSet(_CsrRows(np.zeros(3, dtype=np.int64),
                                          np.zeros(0, dtype=np.int64),
                                          np.zeros(0), 2), -1.0, 1.0)
        x, _ = run_spp(dataclasses.replace(prob, constraints=empty), cfg)
        assert x.tolist() == [0.0, 0.0]
        # the same rows listed as samples are not a row set
        with pytest.raises(UnsupportedProblemError, match="row set"):
            run_spp(dataclasses.replace(
                prob, constraints=_ListedSamples(prob.constraints)), cfg)

    def test_a_zero_row_that_excludes_0_is_refused(self):
        prob = _zero_row_problem(1.0, 1.0)
        cfg = BaselineConfig("spp", step=1e-2, iterations=20, seed=0,
                             checkpoint_every=20, eval_samples=2)
        with pytest.raises(DegenerateConstraintError, match="row 0"):
            run_spp(prob, cfg)
        listed = dataclasses.replace(
            prob, constraints=_ListedSamples(prob.constraints))
        with pytest.raises(UnsupportedProblemError, match="row set"):
            run_spp(listed, cfg)

    @pytest.mark.parametrize("sampler", [
        _ListedSamples, _UnlistedSamples, lambda rows: _MatrixSamples(),
    ], ids=["listed", "no-support", "matrix-rows"])
    def test_a_sampler_that_is_not_a_row_set_is_refused_before_drawing(
            self, sampler):
        prob = _zero_row_problem([0.0, 1.0], [0.0, 1.0])
        constraints = sampler(prob.constraints)
        prob = dataclasses.replace(prob, constraints=constraints)
        calls = []
        constraints.draw = constraints.draw_batch = (
            lambda *args: calls.append(args))
        cfg = BaselineConfig("spp", step=1e-2, iterations=20, seed=0,
                             checkpoint_every=20, eval_samples=2)
        with pytest.raises(UnsupportedProblemError,
                           match="support\\(\\) is a RowBatch"):
            run_spp(prob, cfg)
        assert calls == []

    def test_fixed_step_caps_accuracy(self):
        # the l1 prox keeps pulling, so feasibility plateaus at a mu-dependent
        # level instead of vanishing; smaller mu gives a lower plateau
        inst = gen_basis_pursuit(20, 500, 2, 0.9, seed=3)
        prob = make_bp_problem(inst)
        finals = {}
        for mu in (1e-2, 1e-4):
            cfg = BaselineConfig("spp", step=mu, iterations=20_000, seed=3,
                                checkpoint_every=2000, eval_samples=500)
            _, trace = run_spp(prob, cfg)
            fe = trace.column("feasibility")
            finals[mu] = fe[-1]
            assert fe[-1] > 0
            # plateau: the last stretch no longer improves materially
            assert fe[-3] / fe[-1] < 2.0
        assert finals[1e-4] < finals[1e-2]


def _least_squares(inst):
    """The least-squares problem and its gradient on one drawn sample."""
    return make_bp_least_squares_problem(inst), least_squares_grad_one(inst)


def _per_sample_spp(problem, cfg, grad_one):
    """run_spp's final iterate from two draws and one projection per iteration.

    ``grad_one(x, sample)`` is the gradient of f on one drawn sample, used
    when f is custom; a declared f steps by the prox its record gives. A
    non-finite iterate raises DivergenceError naming its 1-based step.
    """
    declared = _declared_f(problem.structure, problem.mu)
    rng_ss, _ = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.default_rng(rng_ss)
    x = np.zeros(problem.dim)
    for t in range(1, cfg.iterations + 1):
        xi_obj = problem.constraints.draw(rng)
        xi_con = problem.constraints.draw(rng)
        if declared is not None:
            z = declared.prox(x, cfg.step)
        else:
            z = x - cfg.step * grad_one(x, xi_obj)
        z = problem.prox_h.evaluate(z, cfg.step)
        x = _project_onto_constraint(z, xi_con)
        if not np.isfinite(x).all():
            raise DivergenceError(epoch=0, step=t)
    return x


class _ForwardingRows:
    """Forwards draws and the support to a row set, as the benchmark's
    traced sampler does."""

    def __init__(self, inner):
        self._inner = inner

    def draw_batch(self, rng, k):
        return self._inner.draw_batch(rng, k)

    def support(self):
        return self._inner.support()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _bp_zero_h():
    problem = make_bp_problem(gen_basis_pursuit(20, 500, 3, 0.9, seed=5))
    return dataclasses.replace(
        problem, structure=ObjectiveStructure(f="zero", h="zero")), None


def _forwarded_bp():
    problem = make_bp_problem(gen_basis_pursuit(20, 500, 3, 0.9, seed=6))
    return dataclasses.replace(
        problem, constraints=_ForwardingRows(problem.constraints)), None


class TestSppIndexStream:
    # 5000 iterations draw 10,000 indices: three chunks of the stream. The
    # portfolio's slabs hold every projected point at epsilon 0.2, so each
    # step keeps z; at 0.002, 1,868 of the 5000 steps do and the others
    # project
    @pytest.mark.parametrize("build,step", [
        (lambda: (make_bp_problem(gen_basis_pursuit(20, 500, 3, 0.9, seed=4)),
                  None), 1e-3),
        (lambda: (make_portfolio_problem(gen_synthetic_returns(60, 8, seed=3),
                                         0.2), None), 1e-2),
        (lambda: (make_portfolio_problem(gen_synthetic_returns(60, 8, seed=3),
                                         0.002), None), 1e-2),
        (lambda: _least_squares(gen_basis_pursuit(8, 40, 2, 0.5, seed=1)),
         0.1),
        (_bp_zero_h, 1e-3),
        (lambda: (full_storage_svm(8)[0], None), 1e-2),
        (_forwarded_bp, 1e-3),
    ], ids=["bp", "portfolio", "portfolio-tight", "least-squares", "zero-h",
            "csr-rows", "forwarding-sampler"])
    def test_bit_identical_to_per_sample_loop(self, build, step):
        problem, grad_one = build()
        cfg = BaselineConfig("spp", step=step, iterations=5000, seed=7,
                             checkpoint_every=5000, eval_samples=1)
        x, _ = run_spp(problem, cfg)
        assert x.tobytes() == _per_sample_spp(problem, cfg, grad_one).tobytes()

    def test_overflowing_projection_stops_where_the_per_sample_loop_does(self):
        # a declared f and h, so finiteness is kept by the bound: the row
        # of norm 1e-100 with target 1e100 moves x to 1e200, past the
        # bound but finite, and the one with target 1e209 overflows it
        rng = np.random.default_rng(9)
        tiny = np.zeros((2, 4))
        tiny[:, 0] = 1e-100
        rows = np.vstack([rng.standard_normal((8, 4)), tiny])
        targets = np.r_[np.zeros(8), 1e100, 1e209]
        prob = CompositeProblem(
            dim=4, constraints=RowConstraintSet(rows, targets, targets),
            norm_bound=1.0,
            structure=ObjectiveStructure(f="zero", h="l1", l1_weight=1.0))
        cfg = BaselineConfig("spp", step=1e-3, iterations=1000, seed=1,
                             checkpoint_every=1000, eval_samples=1)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as got:
                run_spp(prob, cfg)
            with pytest.raises(DivergenceError) as want:
                _per_sample_spp(prob, cfg, None)
        assert got.value.step == want.value.step > 1

    def test_divergence_names_its_step(self):
        # an ascent direction grows x by 11x per iteration until it overflows
        prob = _unconstrained_problem(2, lambda x, xi=None: -10.0 * x - 1.0,
                                      lambda x, xi=None: 0.0,
                                      prox_h=l1_prox(1e-9))
        cfg = BaselineConfig("spp", step=1.0, iterations=1000, seed=0,
                             checkpoint_every=1000, eval_samples=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_spp(prob, cfg)
            expected = _per_sample_steps_to_overflow(prob, cfg)
        assert (err.value.epoch, err.value.step) == (0, expected)

    def test_clip_matches_numpy_bit_for_bit(self):
        values = [-0.0, 0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
        for v, lo, hi in itertools.product(values, repeat=3):
            expected = np.minimum(np.maximum(v, np.float64(lo)), np.float64(hi))
            assert np.float64(_clip(v, lo, hi)).tobytes() == expected.tobytes()


def _per_sample_steps_to_overflow(problem, cfg):
    """First iteration of the per-sample loop whose iterate is non-finite."""
    x = np.zeros(problem.dim)
    for t in range(1, cfg.iterations + 1):
        z = problem.prox_h.evaluate(x - cfg.step * problem.grad_f(x, None),
                                    cfg.step)
        x = _project_onto_constraint(z, problem.constraints.sample(0))
        if not np.all(np.isfinite(x)):
            return t
    raise AssertionError("the loop never overflowed")


def _sasc_config(**kw):
    return SascConfig(alpha0=0.01, omega=2.0, m0=2, epochs=4, seed=0,
                      checkpoint_every=5, eval_samples=10, **kw)


def _spp_config(step):
    return BaselineConfig("spp", step=step, iterations=50, seed=0,
                          checkpoint_every=10, eval_samples=10)


class TestRowProblemsBuildNoSamples:
    # checkpoints on, so the held-out evaluation runs too
    @pytest.mark.parametrize("run", [
        lambda inst: run_sasc(make_bp_problem(inst), _sasc_config()),
        lambda inst: run_sasc(make_bp_least_squares_problem(inst),
                              _sasc_config(minibatch=3)),
        lambda inst: run_spp(make_bp_problem(inst), _spp_config(1e-3)),
        lambda inst: run_spp(make_bp_least_squares_problem(inst),
                             _spp_config(0.1)),
        lambda inst: run_projected_sgd(
            make_bp_least_squares_problem(inst),
            BaselineConfig("sgd", step=0.1, iterations=50, seed=0,
                           checkpoint_every=10, eval_samples=10)),
    ], ids=["sasc-bp", "sasc-least-squares", "spp-bp", "spp-least-squares",
            "sgd-least-squares"])
    def test_no_constraint_sample_is_built(self, run, monkeypatch):
        def refuse(self, i):
            raise AssertionError(f"ConstraintSample {i} built")

        monkeypatch.setattr(RowConstraintSet, "sample", refuse)
        _, trace = run(gen_basis_pursuit(8, 40, 2, 0.5, seed=1))
        assert len(trace.records) > 1


class TestPegasos:
    def _single_row(self, a, label):
        return LabeledSparseDataset.from_rows(
            index_lists=[np.arange(len(a))],
            value_lists=[np.asarray(a, dtype=float)],
            labels=np.array([label]), dim=len(a))

    def test_first_step_formula(self):
        ds = self._single_row([1.0, 0.0], +1.0)
        x, _ = run_pegasos(ds, lam=1.0, iterations=1, seed=0,
                           checkpoint_every=1)
        assert_allclose(x, [1.0, 0.0], atol=1e-15)

    def test_margin_kept_shrinks_only(self):
        # after the first step the margin is 4 >= 1, so step 2 only rescales
        ds = self._single_row([2.0, 0.0], +1.0)
        x, _ = run_pegasos(ds, lam=1.0, iterations=2, seed=0,
                           checkpoint_every=2)
        assert_allclose(x, [1.0, 0.0], atol=1e-15)  # (1 - 1/2) * [2, 0]

    def test_separable_toy_reaches_zero_training_error(self):
        ds = gen_separable_svm(2, 200, margin=1.0, seed=7)
        x, trace = run_pegasos(ds, lam=1.0 / 200, iterations=10_000, seed=7,
                               checkpoint_every=2000)
        assert trace.records[-1].feasibility == 0.0  # 0/1 training error
        assert np.all(ds.margins(x) > 0)

    def test_ball_bound_numeric(self):
        # classical bound ||x|| <= 1/sqrt(lam): checked on unit-norm rows
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((100, 5))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        labels = np.where(rows @ np.array([1.0, 0, 0, 0, 0]) >= 0, 1.0, -1.0)
        ds = LabeledSparseDataset.from_dense(rows, labels)
        for lam in (1.0, 0.25):
            x, _ = run_pegasos(ds, lam=lam, iterations=3000, seed=8,
                               checkpoint_every=3000)
            assert np.linalg.norm(x) <= 1.0 / np.sqrt(lam) + 1e-9

    def test_invalid_labels_rejected(self):
        ds = LabeledSparseDataset.from_rows(
            index_lists=[np.array([0])], value_lists=[np.array([1.0])],
            labels=np.array([2.0]), dim=1)
        with pytest.raises(ValueError, match="labels"):
            run_pegasos(ds, lam=1.0, iterations=1)

    def test_settings_checked_as_a_baseline_config(self):
        ds = self._single_row([1.0, 0.0], +1.0)
        for lam in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="pegasos step"):
                run_pegasos(ds, lam=lam, iterations=1)
        with pytest.raises(ConfigurationError, match="iterations"):
            run_pegasos(ds, lam=1.0, iterations=0)
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            run_pegasos(ds, lam=1.0, iterations=1, checkpoint_every=0)

    def test_divergence_names_its_step(self):
        # 1/lam overflows, so the first step's x is NaN, whose margins are
        # not <= 0: unchecked, the run would report held-out error 0.0
        ds = gen_separable_svm(3, 50, margin=0.5, seed=1)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            run_pegasos(ds, lam=1e-310, iterations=5, checkpoint_every=1)
        assert (err.value.epoch, err.value.step) == (0, 1)

    def test_holdout_error_column(self):
        train = gen_separable_svm(3, 100, margin=0.7, seed=9)
        test = gen_separable_svm(3, 50, margin=0.7, seed=10)
        _, trace = run_pegasos(train, lam=0.01, iterations=2000, seed=9,
                               eval_dataset=test, checkpoint_every=500)
        errs = trace.column("feasibility")
        assert np.all((errs >= 0) & (errs <= 1))

    def test_holdout_wider_than_training_set_is_refused_at_entry(self):
        train = gen_separable_svm(5, 40, margin=0.5, seed=11)
        wide = gen_separable_svm(8, 20, margin=0.5, seed=12)
        with pytest.raises(ValueError, match="dim 8.*dim 5"):
            run_pegasos(train, lam=0.1, iterations=50, seed=0,
                        eval_dataset=wide, checkpoint_every=10)

    def test_narrower_holdout_counts_missing_columns_as_zeros(self):
        train = gen_separable_svm(5, 40, margin=0.5, seed=11)
        narrow = gen_separable_svm(3, 20, margin=0.5, seed=12)
        # the same held-out rows widened to the training dim with zeros
        padded = LabeledSparseDataset(narrow.indptr, narrow.indices,
                                      narrow.data, narrow.labels, 5)
        runs = [run_pegasos(train, lam=0.1, iterations=50, seed=0,
                            eval_dataset=held_out, checkpoint_every=10)
                for held_out in (narrow, padded)]
        (x, trace), (x_padded, trace_padded) = runs
        assert x.tobytes() == x_padded.tobytes()
        assert trace.column("feasibility").tobytes() == \
            trace_padded.column("feasibility").tobytes()
        assert trace.column("objective").tobytes() == \
            trace_padded.column("objective").tobytes()

    @staticmethod
    def _reference(rows, labels, lam, iterations, seed, holdout, every):
        """One scalar draw per step on per-row arrays: the update as written.

        Returns x, and at each checkpoint the held-out error and the step
        size eta of the step before it.
        """
        rng = np.random.default_rng(seed)
        x = np.zeros(holdout.dim)
        errs, etas = [], []
        for t in range(1, iterations + 1):
            i = int(rng.integers(len(rows)))
            idx, vals = rows[i]
            b = labels[i]
            margin = b * float(vals @ x[idx])
            eta = 1.0 / (lam * t)
            x *= 1.0 - eta * lam
            if margin < 1.0:
                x[idx] += (eta * b) * vals
            if t % every == 0 or t == iterations:
                m = []
                for j in range(len(holdout)):
                    k, v = holdout.row(j)
                    m.append(holdout.labels[j] * float(v @ x[k]))
                errs.append(float(np.mean(np.array(m) <= 0.0)))
                etas.append(eta)
        return x, errs, etas

    @pytest.mark.parametrize("sparsify", [False, True])
    def test_bit_identical_to_scalar_draw_loop(self, sparsify):
        # 10,000 steps cross the 4,096-index chunk boundary twice
        train = gen_separable_svm(12, 300, margin=0.3, seed=21)
        test = gen_separable_svm(12, 200, margin=0.3, seed=22)
        if sparsify:
            # rows of varying length, some of them empty
            dense = dense_rows(train)
            keep = np.abs(dense) > 1.0
            train = LabeledSparseDataset.from_rows(
                [np.flatnonzero(k) for k in keep],
                [r[k] for r, k in zip(dense, keep)], train.labels, 12)
            assert np.any(np.diff(train.indptr) == 0)
        rows = [tuple(a.copy() for a in train.row(i)) for i in range(len(train))]
        lam = 1.0 / len(train)
        x_ref, errs_ref, etas_ref = self._reference(
            rows, train.labels, lam, 10_000, 23, test, 500)
        x, trace = run_pegasos(train, lam, 10_000, seed=23, eval_dataset=test,
                               checkpoint_every=500)
        assert np.array_equal(x, x_ref)
        assert trace.column("feasibility").tolist() == errs_ref
        # the alpha column is the step size of the step before each record
        assert trace.column("alpha").tolist() == etas_ref

    def test_huge_finite_steps_keep_bits(self):
        # eta_1 = 1/lam = 1e152 moves x far past 1e150 at the first step
        # while x stays finite: no check stops the run, which keeps the
        # scalar loop's bits
        train = gen_separable_svm(6, 80, margin=0.3, seed=31)
        rows = [tuple(a.copy() for a in train.row(i)) for i in range(len(train))]
        x_ref, errs_ref, etas_ref = self._reference(
            rows, train.labels, 1e-152, 600, 32, train, 100)
        x, trace = run_pegasos(train, 1e-152, 600, seed=32,
                               checkpoint_every=100)
        assert np.isfinite(x_ref).all()
        first, _ = run_pegasos(train, 1e-152, 1, seed=32)
        assert np.abs(first).max() > 1e150
        assert np.array_equal(x, x_ref)
        assert trace.column("feasibility").tolist() == errs_ref
        assert trace.column("alpha").tolist() == etas_ref

    def test_training_set_without_entries_is_refused(self):
        empty = LabeledSparseDataset.from_rows([[], []], [[], []],
                                               np.array([1.0, -1.0]), 3)
        with pytest.raises(ValueError, match="run_pegasos"):
            run_pegasos(empty, lam=0.1, iterations=5)


class TestBaselineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BaselineConfig("nope", step=1.0, iterations=1)
        for step in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="sgd step"):
                BaselineConfig("sgd", step=step, iterations=1)
        with pytest.raises(ValueError):
            BaselineConfig("sgd", step=1.0, iterations=0)
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            BaselineConfig("spp", step=1.0, iterations=1, checkpoint_every=0)
        with pytest.raises(ConfigurationError, match="eval_samples"):
            BaselineConfig("spp", step=1.0, iterations=1, eval_samples=0)

    @pytest.mark.parametrize("build, message", [
        *[(lambda name=name, v=v: SascConfig(**{
            "alpha0": 0.5, "omega": 2.0, "m0": 4, "epochs": 2, name: v}),
           f"{name} must be an integer")
          for name, v in (("m0", 2.5), ("epochs", 2.5), ("minibatch", 2.0),
                          ("checkpoint_every", 10.5), ("eval_samples", 10.5),
                          ("seed", 1.0), ("seed", "0"))],
        (lambda: SascConfig(alpha0=0.5, omega=2.0, m0=4, sample_budget=100.0),
         "sample_budget must be an integer"),
        *[(lambda name=name, v=v: BaselineConfig(
            **{"method": "sgd", "step": 1.0, "iterations": 10, name: v}),
           f"{name} must be an integer")
          for name, v in (("iterations", 100.0), ("seed", 0.5),
                          ("checkpoint_every", 10.5), ("eval_samples", 20.0))],
        (lambda: run_pegasos(gen_separable_svm(2, 10, margin=0.5, seed=0),
                             0.1, 20.0), "iterations must be an integer"),
        # a seed may be 0, never negative: numpy's SeedSequence refuses it
        (lambda: SascConfig(alpha0=0.5, omega=2.0, m0=4, epochs=2, seed=-1),
         "seed must be >= 0"),
        (lambda: BaselineConfig("spp", step=1.0, iterations=10, seed=-1),
         "seed must be >= 0"),
    ], ids=["sasc-m0", "sasc-epochs", "sasc-minibatch",
            "sasc-checkpoint-every", "sasc-eval-samples", "sasc-seed",
            "sasc-seed-str", "sasc-sample-budget", "baseline-iterations",
            "baseline-seed", "baseline-checkpoint-every",
            "baseline-eval-samples", "pegasos-iterations",
            "sasc-seed-negative", "baseline-seed-negative"])
    def test_counts_are_integers(self, build, message):
        with pytest.raises(ConfigurationError, match=f"^{message}"):
            build()

    def test_numpy_integer_counts_pass(self):
        i = np.int64
        cfg = SascConfig(alpha0=0.5, omega=2.0, m0=i(4), sample_budget=i(40),
                         seed=i(1), minibatch=i(2), checkpoint_every=i(10),
                         eval_samples=np.int32(5))
        x, trace = run_sasc(make_bp_problem(_bp_instance()), cfg)
        assert trace.records[-1].samples == 2 * (4 + 8 + 16)
        base = BaselineConfig("spp", step=1e-3, iterations=i(30), seed=i(2),
                              checkpoint_every=i(10), eval_samples=i(5))
        assert len(run_spp(make_bp_problem(_bp_instance()), base)[1]) == 3
        ds = gen_separable_svm(2, 10, margin=0.5, seed=0)
        assert len(run_pegasos(ds, 0.1, i(20), seed=i(3),
                               checkpoint_every=i(10))[1]) == 2

    def test_solvers_refuse_another_methods_config(self):
        inst = gen_basis_pursuit(10, 100, 2, 0.5, seed=0)
        with pytest.raises(ConfigurationError, match="'sgd'.*'spp'"):
            run_projected_sgd(make_bp_least_squares_problem(inst),
                              BaselineConfig("spp", step=1e-3, iterations=1))
        with pytest.raises(ConfigurationError, match="'spp'.*'pegasos'"):
            run_spp(make_bp_problem(inst),
                    BaselineConfig("pegasos", step=1e-3, iterations=1))

    def test_determinism(self):
        inst = gen_basis_pursuit(10, 100, 2, 0.5, seed=0)
        prob = make_bp_problem(inst)
        cfg = BaselineConfig("spp", step=1e-3, iterations=500, seed=11,
                            checkpoint_every=100, eval_samples=20)
        x1, t1 = run_spp(prob, cfg)
        x2, t2 = run_spp(prob, cfg)
        assert np.array_equal(x1, x2)
        assert [r.feasibility for r in t1.records] == \
               [r.feasibility for r in t2.records]


def _bp_instance():
    return gen_basis_pursuit(10, 100, 2, 0.5, seed=0)


def _sasc_minibatch_3():
    cfg = SascConfig(alpha0=0.1, omega=2.0, m0=4, epochs=2, minibatch=3,
                     checkpoint_every=10, eval_samples=20)
    return run_sasc(make_bp_problem(_bp_instance()), cfg)[1]


def _baseline_trace(method, iterations):
    cfg = BaselineConfig(method, step=1e-3, iterations=iterations,
                         checkpoint_every=10, eval_samples=20)
    if method == "spp":
        return run_spp(make_bp_problem(_bp_instance()), cfg)[1]
    if method == "sgd":
        return run_projected_sgd(
            make_bp_least_squares_problem(_bp_instance()), cfg)[1]
    return run_pegasos(gen_separable_svm(4, 60, margin=1.0, seed=5), 0.1,
                       iterations, checkpoint_every=10)[1]


class TestCheckpointRule:
    """One rule for the solver and its baselines: a record once the sample
    count reaches or passes each multiple of checkpoint_every, and the last
    sample once if it fell between two multiples."""

    @pytest.mark.parametrize("run,expected", [
        # batches of 3 cross the multiples; two epochs of 4 and 8 steps
        pytest.param(_sasc_minibatch_3, [12, 21, 30, 36], id="sasc-minibatch-3"),
    ] + [
        pytest.param(functools.partial(_baseline_trace, method, n), expected,
                     id=f"{method}-{n}")
        for method in ("spp", "sgd", "pegasos")
        for n, expected in ((25, [10, 20, 25]), (30, [10, 20, 30]))
    ])
    def test_samples_column(self, run, expected):
        trace = run()
        assert [r.samples for r in trace.records] == expected
        wall = trace.column("wall_time")
        assert wall[0] >= 0.0 and np.all(np.diff(wall) >= 0.0)
