import dataclasses
import re
import warnings

import numpy as np
import pytest
import sympy
from numpy.testing import assert_allclose

from conftest import least_squares_grad_one
import sasc.baselines
import sasc.core
from sasc.baselines import BaselineConfig, _SppIterate, run_pegasos, run_spp
from sasc.core import (
    _FOLD_BELOW,
    Case,
    CompositeProblem,
    ObjectiveStructure,
    SascConfig,
    _inner_step,
    _iterate,
    _Iterate,
    _row_multiplier,
    _RowIterate,
    _ScaledIterate,
    _seeded_run,
    bound_curves,
    rate_constants,
    run_sasc,
    schedule_inequalities_check,
    schedule_params,
)
from sasc.errors import ConfigurationError, DivergenceError
from sasc.problems import (
    LabeledSparseDataset,
    gen_basis_pursuit,
    gen_separable_svm,
    gen_synthetic_returns,
    make_bp_least_squares_problem,
    make_bp_problem,
    make_portfolio_problem,
    make_svm_problem,
)
from sasc.prox import (ProxHandle, hyperplane_indicator_prox, l1_prox,
                       zero_prox)
from sasc.smoothing import (
    CertificateInputs,
    ConstraintSampler,
    RowBatch,
    RowConstraintSet,
    _CsrRows,
)


RSC = Case.RESTRICTED_STRONGLY_CONVEX


def _cfg(alpha0, omega, m0, **kw):
    kw.setdefault("epochs", 1)
    return SascConfig(alpha0=alpha0, omega=omega, m0=m0, **kw)


def _single_constraint_problem(a, target, grad=None, fval=None, L=0.0, mu=None,
                               prox_h=None):
    a = np.asarray(a, dtype=float)
    return CompositeProblem(
        dim=a.size,
        grad_f=grad or (lambda x, xi=None: 0.0),
        f_value=fval or (lambda x, xi=None: 0.0),
        prox_h=prox_h or zero_prox(),
        constraints=RowConstraintSet(a[None, :], np.array([target]),
                                     np.array([target])),
        norm_bound=float(np.linalg.norm(a)),
        mu=mu, lipschitz_grad=L)


class TestScheduleParams:
    def test_case1_start(self):
        assert schedule_params(_cfg(1.0, 2.0, 2), 0, 1.0) == (1.0, 4.0, 2)

    def test_case1_decay(self):
        a, b, m = schedule_params(_cfg(1.0, 2.0, 2), 2, 1.0)
        assert_allclose([a, b], [0.5, 2.0])
        assert m == 8

    def test_case2_decay(self):
        a, b, m = schedule_params(
            _cfg(0.5, 2.0, 4, case=Case.RESTRICTED_STRONGLY_CONVEX), 2, 1.0)
        assert_allclose([a, b], [0.125, 0.5])
        assert m == 16

    def test_case2_requires_mu_and_m0(self):
        rsc = Case.RESTRICTED_STRONGLY_CONVEX
        with pytest.raises(ConfigurationError, match="mu"):
            _cfg(0.5, 2.0, 4, case=rsc).validate(
                _single_constraint_problem([1.0], 1.0))
        with pytest.raises(ConfigurationError, match="m0"):
            _cfg(0.5, 2.0, 2, case=rsc).validate(
                _single_constraint_problem([1.0], 1.0, mu=1.0))

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            schedule_params(_cfg(1.0, 2.0, 2), -1, 1.0)

    def test_beta_alpha_ratio_exact(self):
        for nb in (0.5, 1.0, 2.0):
            for case in (Case.GENERAL_CONVEX, Case.RESTRICTED_STRONGLY_CONVEX):
                for s in range(25):
                    a, b, _ = schedule_params(_cfg(0.7, 1.7, 3, case=case),
                                              s, nb)
                    assert b == 4.0 * a * nb ** 2


class TestInnerStep:
    def test_fixed_point_when_feasible_and_flat(self):
        prob = _single_constraint_problem([1.0, 0.0], 0.5)
        x = np.array([0.5, -2.0])  # satisfies the constraint
        out = _inner_step(x, [prob.constraints.sample(0)], 0.3, 1.2, prob)
        assert_allclose(out, x, atol=1e-15)

    def test_l1_step_derivation_beta_half(self):
        # z = 0, penalty gradient (0 - 1)/0.5 = -2, pre-prox [2, 0], shrink by 1
        prob = _single_constraint_problem([1.0, 0.0], 1.0, prox_h=l1_prox(1.0))
        out = _inner_step(np.zeros(2), [prob.constraints.sample(0)], 1.0, 0.5,
                          prob)
        assert_allclose(out, [1.0, 0.0], atol=1e-15)

    def test_l1_step_derivation_beta_one(self):
        prob = _single_constraint_problem([1.0, 0.0], 1.0, prox_h=l1_prox(1.0))
        out = _inner_step(np.zeros(2), [prob.constraints.sample(0)], 1.0, 1.0,
                          prob)
        assert_allclose(out, [0.0, 0.0], atol=1e-15)

    def test_shape_mismatch(self):
        prob = _single_constraint_problem([1.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            _inner_step(np.zeros(3), [prob.constraints.sample(0)], 1.0, 1.0,
                        prob)


class TestRunSasc:
    def test_fixed_point_run(self):
        # flat objective, feasible start: every inner step is a no-op
        problem = _single_constraint_problem([1.0, 0.0], 1.0)
        x0 = np.array([1.0, 0.3])
        cfg = SascConfig(alpha0=0.5, omega=2.0, m0=4, epochs=3, seed=1,
                         checkpoint_every=3, eval_samples=1)
        x, trace = run_sasc(problem, cfg, x0=x0)
        assert_allclose(x, x0, atol=1e-15)
        assert np.all(trace.column("feasibility") == 0.0)

    def test_trace_invariants(self, min_norm_toy):
        problem, _ = min_norm_toy
        cfg = SascConfig(alpha0=0.5, omega=2.0, m0=4, epochs=4, seed=1,
                         checkpoint_every=5, eval_samples=1)
        _, trace = run_sasc(problem, cfg)
        samples = trace.column("samples")
        beta = trace.column("beta")
        assert np.all(np.diff(samples) > 0)
        assert np.all(np.diff(beta) <= 0)

    def test_restart_rules(self, min_norm_toy):
        # deterministic single-constraint dynamics make the first step of the
        # next epoch a known function of the restart point
        problem, _ = min_norm_toy
        a = problem.constraints.sample(0).row

        states = []
        cfg = SascConfig(alpha0=0.5, omega=2.0, m0=4, epochs=2, seed=0,
                         checkpoint_every=100, eval_samples=1)
        for case in (Case.GENERAL_CONVEX, Case.RESTRICTED_STRONGLY_CONVEX):
            states.clear()
            run_sasc(problem, dataclasses.replace(cfg, case=case),
                     callback=states.append)
            m0 = states[0].m_s
            last = next(st for st in states if st.s == 0 and st.k == m0)
            first_next = next(st for st in states if st.s == 1 and st.k == 1)
            restart = (last.x if case is Case.GENERAL_CONVEX
                       else last.running_avg)
            alpha1, beta1, _ = schedule_params(
                dataclasses.replace(cfg, case=case), 1, problem.norm_bound)
            z = float(a @ restart)
            expected = restart - alpha1 * (restart + a * (z - 1.0) / beta1)
            assert_allclose(first_next.x, expected, atol=1e-14)

    def test_running_average_invariant(self, min_norm_toy):
        problem, _ = min_norm_toy
        xs, avgs = [], []

        def cb(st):
            xs.append(st.x)
            avgs.append(st.running_avg)

        cfg = SascConfig(alpha0=0.5, omega=2.0, m0=8, epochs=1, seed=3,
                         checkpoint_every=100, eval_samples=1)
        run_sasc(problem, cfg, callback=cb)
        for k in range(1, 9):
            assert_allclose(avgs[k - 1], np.mean(xs[:k], axis=0), atol=1e-12)

    def test_penalty_gradient_equivalence(self, min_norm_toy):
        # h = 0, no gradient noise, single deterministic constraint: the inner
        # loop must coincide with plain gradient descent on F + dist^2/(2 beta)
        problem, _ = min_norm_toy
        a = problem.constraints.sample(0).row
        iterates = []
        cfg = SascConfig(alpha0=0.5, omega=2.0, m0=100, epochs=1, seed=0,
                         checkpoint_every=10 ** 6, eval_samples=1)
        run_sasc(problem, cfg, callback=lambda st: iterates.append(st.x))

        alpha, beta, _ = schedule_params(cfg, 0, problem.norm_bound)
        x = np.zeros(2)
        for k in range(100):
            grad = x + a * ((a @ x - 1.0) / beta)
            x = x - alpha * grad
            assert np.linalg.norm(x - iterates[k]) <= 1e-12

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(21)
        rows = rng.standard_normal((40, 6))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        b = rows @ np.array([1.0, -2.0, 0.0, 0.0, 0.5, 0.0])
        prob = CompositeProblem(
            dim=6, grad_f=lambda x, xi=None: 0.0,
            f_value=lambda x, xi=None: 0.0, prox_h=l1_prox(),
            constraints=RowConstraintSet(rows, b, b), norm_bound=1.0)
        cfg = SascConfig(alpha0=0.01, omega=2.0, m0=2, epochs=8, seed=9,
                         checkpoint_every=7, eval_samples=11)
        x1, t1 = run_sasc(prob, cfg)
        x2, t2 = run_sasc(prob, cfg)
        assert np.array_equal(x1, x2)
        assert len(t1.records) == len(t2.records)
        for r1, r2 in zip(t1.records, t2.records):
            assert (r1.samples, r1.epoch, r1.objective, r1.feasibility,
                    r1.beta, r1.alpha) == \
                   (r2.samples, r2.epoch, r2.objective, r2.feasibility,
                    r2.beta, r2.alpha)

    def test_divergence_detection(self):
        # concave smooth part with an (incorrectly) declared zero curvature
        prob = _single_constraint_problem(
            [1.0, 0.0], 1.0, grad=lambda x, xi=None: -10.0 * x,
            fval=lambda x, xi=None: -5.0 * float(x @ x))
        cfg = SascConfig(alpha0=1.0, omega=2.0, m0=512, epochs=2, seed=0,
                         checkpoint_every=10 ** 6, eval_samples=1)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError,
                                                       match="epoch"):
            run_sasc(prob, cfg, x0=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("refused, names", [
        (lambda bp: run_sasc(bp, SascConfig(alpha0=1.0, omega=1e300, m0=2,
                                            epochs=3)), "omega = 1e+300"),
        (lambda bp: SascConfig(alpha0=1e-300, omega=1e300, m0=2, epochs=2),
         "alpha0 = 1e-300"),
        (lambda bp: SascConfig(alpha0=1.0, omega=2.0, m0=2,
                               sample_budget=10 ** 400), "sample_budget"),
        (lambda bp: run_sasc(dataclasses.replace(bp, norm_bound=1e-200),
                             _cfg(1.0, 2.0, 2, epochs=3)),
         "norm_bound = 1e-200"),
        (lambda bp: run_sasc(dataclasses.replace(bp, norm_bound=1e200),
                             _cfg(1.0, 2.0, 2, epochs=3)),
         "norm_bound = 1e+200"),
        (lambda bp: schedule_inequalities_check(_cfg(1.0, 2.0, 2), 1e-200, 3),
         "norm_bound = 1e-200"),
        (lambda bp: rate_constants(
            _cfg(1.0, 2.0, 2), 1e200,
            CertificateInputs(x_star=np.ones(1), y_star_norm=1.0),
            np.zeros(1)), "norm_bound = 1e+200"),
        # the rate functions refuse a constant, bound or slack they form
        # past the floats: by an OverflowError (a ** 2) or as inf (r0^2)
        (lambda bp: schedule_inequalities_check(_cfg(1e300, 2.0, 2), 1.0, 5),
         "alpha0 = 1e+300"),
        (lambda bp: rate_constants(_cfg(1e300, 2.0, 2), 1.0, CertificateInputs(
            x_star=np.ones(1)), np.zeros(1)), "alpha0 = 1e+300"),
        (lambda bp: rate_constants(_cfg(1.0, 2.0, 2), 1.0, CertificateInputs(
            x_star=np.ones(1), sigma_f=1e200), np.zeros(1)),
         "sigma_f = 1e+200"),
        (lambda bp: rate_constants(_cfg(1.0, 2.0, 2), 1.0, CertificateInputs(
            x_star=np.ones(1), y_star_norm=1e200), np.zeros(1)),
         "y_star_norm = 1e+200"),
        (lambda bp: rate_constants(_cfg(1.0, 2.0, 2), 1.0, CertificateInputs(
            x_star=np.full(2, 1e200)), np.zeros(2)),
         "||x_star - x0|| = 1.41421356"),
        (lambda bp: bound_curves(_cfg(1.0, 2.0, 2), 1.0, CertificateInputs(
            x_star=np.ones(1)), np.zeros(1), [2, 10], lipschitz_g=1e200),
         "lipschitz_g = 1e+200"),
    ], ids=["omega-power", "alpha-underflow", "budget-overflow",
            "beta-underflow", "beta-overflow", "inequalities-beta-underflow",
            "constants-norm-bound-squared", "inequalities-alpha0-squared",
            "constants-alpha0-squared",
            "constants-sigma-f-squared", "constants-y-star-norm-squared",
            "constants-start-distance-squared", "bounds-lipschitz-g-squared"])
    def test_a_schedule_leaving_the_floats_is_refused(self, refused, names):
        # finite settings whose schedule overflows or underflows: refused
        # naming them, with no bare OverflowError and no RuntimeWarning
        bp = make_bp_problem(gen_basis_pursuit(8, 200, 2, 0.9, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=re.escape(names)):
                refused(bp)

    def test_config_validation(self, min_norm_toy):
        problem, _ = min_norm_toy
        with pytest.raises(ConfigurationError, match="exactly one"):
            SascConfig(alpha0=0.5, omega=2.0, m0=4).validate(problem)
        for omega in (1.0, np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="omega"):
                SascConfig(alpha0=0.5, omega=omega, m0=4,
                           epochs=1).validate(problem)
        for alpha0 in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="alpha0"):
                SascConfig(alpha0=alpha0, omega=2.0, m0=4,
                           epochs=1).validate(problem)
        with pytest.raises(ConfigurationError, match="3/\\(4 L\\)"):
            SascConfig(alpha0=10.0, omega=2.0, m0=4, epochs=1).validate(problem)
        cfg = SascConfig(alpha0=0.5, omega=2.0, m0=2, epochs=1,
                         case=Case.RESTRICTED_STRONGLY_CONVEX)
        with pytest.raises(ConfigurationError, match="omega/\\(mu alpha0\\)"):
            cfg.validate(problem)
        # mu alpha0 underflows to 0: the least m0 reads inf
        with pytest.raises(ConfigurationError, match="alpha0\\) = inf"):
            dataclasses.replace(cfg, alpha0=1e-200).validate(
                dataclasses.replace(problem, mu=1e-200))

    @pytest.mark.parametrize("refused, name", [
        (lambda p: _cfg(0.5, 2.0, 4, minibatch=0).validate(p), "minibatch"),
        (lambda p: _cfg(0.5, 2.0, 4, checkpoint_every=0).validate(p),
         "checkpoint_every"),
        (lambda p: _cfg(0.5, 2.0, 4, eval_samples=0).validate(p),
         "eval_samples"),
        (lambda p: _cfg(0.5, 2.0, 4, epochs=0).validate(p), "epochs"),
        (lambda p: SascConfig(alpha0=0.5, omega=2.0, m0=4,
                              sample_budget=3).validate(p), "sample_budget"),
        # a config is checked when built, so the rate functions, which take
        # no problem, never see a schedule that run_sasc would refuse
        (lambda p: SascConfig(alpha0=0.5, omega=1.0, m0=4, epochs=1), "omega"),
        (lambda p: SascConfig(alpha0=-1.0, omega=2.0, m0=4, epochs=1),
         "alpha0"),
        (lambda p: SascConfig(alpha0=np.nan, omega=2.0, m0=4, epochs=1),
         "alpha0"),
        (lambda p: dataclasses.replace(p, dim=0), "dim"),
        # a float dim or one the rows are not wide enough for would fail
        # inside numpy at the run's first step
        (lambda p: dataclasses.replace(p, dim=2.0), "dim"),
        (lambda p: dataclasses.replace(p, dim=3), "dim"),
        (lambda p: run_sasc(p, _cfg(0.5, 2.0, 4), x0=np.zeros(3)), "x0"),
        # an x_star of another shape would be broadcast into dist_to_ref
        *[(lambda p, n=n: run_sasc(p, _cfg(0.5, 2.0, 4), cert=CertificateInputs(
            x_star=np.ones(n))), "x_star") for n in (1, 3)],
        (lambda p: rate_constants(_cfg(0.5, 2.0, 4), 1.0, CertificateInputs(),
                                  np.zeros(2)), "x_star"),
        (lambda p: rate_constants(_cfg(0.5, 2.0, 4), 1.0, CertificateInputs(
            x_star=np.ones(3)), np.zeros(1)), "x_star"),
        # a zero f takes any mu, and a custom f its own lipschitz_grad: the
        # schedule's checks divide by one and bound alpha0 by the other
        *[(lambda p, mu=mu: dataclasses.replace(
            p, mu=mu, structure=ObjectiveStructure(f="zero", h="zero")), "mu")
          for mu in (0.0, -1.0, np.nan, np.inf)],
        *[(lambda p, L=L: dataclasses.replace(
            p, lipschitz_grad=L, structure=ObjectiveStructure()),
           "lipschitz_grad") for L in (-1.0, np.nan, np.inf)],
    ], ids=["minibatch-0", "checkpoint-every-0", "eval-samples-0", "epochs-0",
            "budget-below-m0", "built-omega-1", "built-alpha0-negative",
            "built-alpha0-nan", "problem-dim-0", "problem-dim-float",
            "problem-dim-not-row-width", "x0-shape", "x-star-shape-1",
            "x-star-shape-3", "no-x-star", "constants-x0-x-star-shapes",
            "problem-mu-0", "problem-mu-negative", "problem-mu-nan",
            "problem-mu-inf", "custom-f-lipschitz-negative",
            "custom-f-lipschitz-nan", "custom-f-lipschitz-inf"])
    def test_refusal_names_its_setting(self, min_norm_toy, refused, name):
        problem, _ = min_norm_toy
        with pytest.raises(ValueError, match=name):
            refused(problem)

    @pytest.mark.parametrize("norm_bound", [0.0, np.nan, np.inf])
    def test_problem_norm_bound_must_be_positive_and_finite(self, min_norm_toy,
                                                           norm_bound):
        problem, _ = min_norm_toy
        with pytest.raises(ValueError, match="norm_bound"):
            dataclasses.replace(problem, norm_bound=norm_bound)

    def test_budget_epoch_resolution(self):
        cfg = SascConfig(alpha0=0.5, omega=2.0, m0=2, sample_budget=40000)
        assert cfg.planned_epochs() == 14  # sum_{s<14} 2^{s+1} = 32766 <= 40000
        cfg2 = SascConfig(alpha0=0.5, omega=2.0, m0=2, sample_budget=2)
        assert cfg2.planned_epochs() == 1

    def test_minibatch_direction_averaging(self):
        # single-sample support: every draw is identical, so averaging the
        # direction over any batch reproduces the single-draw trajectory,
        # while the sample counter advances by the batch size
        problem = _single_constraint_problem(
            [1.0, 0.0], 1.0, grad=lambda x, xi=None: 0.1 * x,
            fval=lambda x, xi=None: 0.05 * float(x @ x), L=0.1)
        base = SascConfig(alpha0=0.5, omega=2.0, m0=6, epochs=2, seed=0,
                          checkpoint_every=10 ** 6, eval_samples=1)
        batched = SascConfig(alpha0=0.5, omega=2.0, m0=6, epochs=2, seed=0,
                             minibatch=3, checkpoint_every=10 ** 6,
                             eval_samples=1)
        x1, t1 = run_sasc(problem, base)
        x3, t3 = run_sasc(problem, batched)
        assert_allclose(x3, x1, atol=1e-15)
        assert t3.records[-1].samples == 3 * t1.records[-1].samples


def _plain_run(problem, cfg, x_ref=None, listed=None):
    """run_sasc's (x_bar, trace) on a row set by a plain loop of _inner_step.

    Every step draws ``cfg.minibatch`` row indices and hands them to
    ``_inner_step`` as a list of samples if ``listed``, else as their
    RowBatch; by default one dense row per step is listed. The new x is
    checked in full with ``np.isfinite``, and checkpoints are recorded on
    the running average as run_sasc records them, on the same held-out set.
    The restricted strongly convex regime restarts each epoch from the
    last one's mean, the general convex one from its last x.
    """
    rng, rec = _seeded_run(problem, cfg, x_ref)
    rows, per_step = problem.constraints, cfg.minibatch
    if listed is None:
        listed = per_step == 1 and isinstance(rows.rows, np.ndarray)
    x = np.zeros(problem.dim)
    seen = 0
    for s in range(cfg.planned_epochs()):
        alpha, beta, m = schedule_params(cfg, s, problem.norm_bound)
        total = np.zeros_like(x)
        for k in range(1, m + 1):
            idx = rng.integers(0, len(rows), size=per_step)
            batch = ([rows.sample(int(i)) for i in idx] if listed
                     else RowBatch(rows, idx))
            x = _inner_step(x, batch, alpha, beta, problem)
            if not np.isfinite(x).all():
                raise DivergenceError(epoch=s, step=k)
            total += x
            seen += per_step
            if seen >= rec.due:
                rec.record(total / k, seen, s, alpha, beta)
        x_bar = total / m
        if cfg.case is RSC:
            x = x_bar
    # the last sample, once, if it fell between checkpoints
    records = rec.trace.records
    if not records or records[-1].samples < seen:
        rec.record(x_bar, seen, s, alpha, beta)
    return x_bar, rec.trace


def _small_bp():
    inst = gen_basis_pursuit(20, 500, 3, 0.9, seed=4)
    cfg = SascConfig(alpha0=0.01, omega=1.5, m0=3000, epochs=2, seed=6,
                     checkpoint_every=10 ** 6, eval_samples=1)
    return make_bp_problem(inst), cfg


def _small_svm():
    problem = make_svm_problem(gen_separable_svm(10, 300, 0.5, seed=2))
    cfg = SascConfig(alpha0=0.5, omega=1.5, m0=3000, epochs=2, seed=2,
                     case=Case.RESTRICTED_STRONGLY_CONVEX,
                     checkpoint_every=10 ** 6, eval_samples=1)
    return problem, cfg


def _sparse_svm():
    """A genuinely sparse svm problem: d = 200, 5 stored entries per row."""
    rng = np.random.default_rng(9)
    n, d, k = 400, 200, 5
    cols = [np.sort(rng.choice(d, size=k, replace=False)) for _ in range(n)]
    vals = [rng.standard_normal(k) for _ in range(n)]
    w = rng.standard_normal(d)
    labels = [1.0 if v @ w[c] >= 0 else -1.0 for c, v in zip(cols, vals)]
    problem = make_svm_problem(
        LabeledSparseDataset.from_rows(cols, vals, np.array(labels), d))
    cfg = SascConfig(alpha0=0.5, omega=1.5, m0=3000, epochs=2, seed=5,
                     case=Case.RESTRICTED_STRONGLY_CONVEX,
                     checkpoint_every=10 ** 6, eval_samples=1)
    return problem, cfg


def _scaled_reference_run(problem, cfg):
    """run_sasc's x_bar on a min_norm row set, by a plain loop in scaled form.

    x = s v, and the epoch's running sum is S v - c. A step takes the row's
    stored entries (every column of a dense row), computes
    z = s (vals . v[cols]) and g = (z - clip(z, lo, hi)) / beta, shrinks s by
    1 - alpha mu and, when g != 0, moves v[cols] by -(alpha g / s) vals and
    c[cols] by S times that; S then adds s. The scale is folded into v once
    it falls below the solver's fold threshold. No O(d) step is taken except
    the folds, and no finiteness check: the runs here stay finite.
    """
    cons = problem.constraints
    rows, lo, hi = cons.rows, cons.lo, cons.hi
    train_ss, _ = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.default_rng(train_ss)
    x = np.zeros(problem.dim)
    for s in range(cfg.planned_epochs()):
        alpha, beta, m = schedule_params(cfg, s, problem.norm_bound)
        v, c, scale, scale_sum = x.copy(), np.zeros_like(x), 1.0, 0.0
        for _ in range(m):
            i = int(rng.integers(len(lo)))
            if isinstance(rows, _CsrRows):
                p, q = rows.indptr[i], rows.indptr[i + 1]
                cols, vals = rows.indices[p:q], rows.data[p:q]
            else:
                cols, vals = slice(None), rows[i]
            z = scale * float(vals.dot(v[cols]))
            g = (z - float(np.minimum(np.maximum(z, lo[i]), hi[i]))) / beta
            scale *= 1.0 - alpha * problem.mu
            if g != 0.0:
                delta = (alpha * g / scale) * vals
                v[cols] -= delta
                c[cols] -= scale_sum * delta
            scale_sum += scale
            if scale < _FOLD_BELOW:
                c -= scale_sum * v
                v *= scale
                scale, scale_sum = 1.0, 0.0
        x_bar = (scale_sum * v - c) / m
        x = x_bar.copy() if cfg.case is RSC else scale * v
    return x_bar


# (lo, hi) of a one-row draw, from the row's product z with x
_ONE_ROW_DRAWS = {
    "inactive": lambda z: (z - 1.0, np.inf),
    "equality-inactive": lambda z: (z, z),
    "half-line": lambda z: (z + 0.5, np.inf),
    "equality": lambda z: (z - 0.25, z - 0.25),
}


def _same_f(problem):
    return problem, problem


def _least_squares_per_sample_f(inst):
    """The least-squares problem, and a copy whose grad_f averages the
    one-sample formula over a list of samples."""
    problem = make_bp_least_squares_problem(inst)
    grad_one = least_squares_grad_one(inst)
    per_sample = dataclasses.replace(
        problem, grad_f=lambda x, samples: np.mean(
            [grad_one(x, s) for s in samples], axis=0))
    return problem, per_sample


class _ListRows(ConstraintSampler):
    """A row set's sampler whose draw_batch hands out a list of samples.

    Its support is the row set's RowBatch, so the solvers treat it as a row
    set. ``sizes`` collects the size of every draw.
    """

    def __init__(self, rows, sizes=None):
        self.rows = rows
        self.sizes = [] if sizes is None else sizes

    def draw_batch(self, rng, k):
        self.sizes.append(k)
        return list(self.rows.draw_batch(rng, k))

    def support(self):
        return self.rows.support()


class TestRowKernel:
    # the second epoch (4500 steps) crosses a 4096-index chunk boundary; the
    # svm problem is min_norm, so its one-row steps are in scaled form
    @pytest.mark.parametrize("build, reference", [
        (_small_bp, lambda problem, cfg: _plain_run(problem, cfg)[0]),
        (_small_svm, _scaled_reference_run),
    ], ids=["bp", "svm"])
    def test_single_sample_run_is_bit_identical_to_per_sample_steps(
            self, build, reference):
        problem, cfg = build()
        x_bar, _ = run_sasc(problem, cfg)
        assert x_bar.tobytes() == reference(problem, cfg).tobytes()

    def test_sparse_rows_step_on_their_stored_entries(self):
        # 5 of 200 entries stored: a kernel that densified the row would
        # sum the row product in another order and move x_bar
        problem, cfg = _sparse_svm()
        x_bar, _ = run_sasc(problem, cfg)
        assert x_bar.tobytes() == _scaled_reference_run(problem, cfg).tobytes()

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("case", list(_ONE_ROW_DRAWS))
    def test_one_row_step_is_the_block_step(self, storage, case):
        # the plain step with the zero prox on a one-row batch against the
        # vectorized arithmetic written out: the 1 x k product over the
        # stored entries for CSR rows, R @ x and g @ R for dense ones
        rng = np.random.default_rng(12)
        d, k = 30, 4
        cols = np.sort(rng.choice(d, size=k, replace=False))
        vals = rng.standard_normal(k)
        dense = np.zeros((1, d))
        dense[0, cols] = vals
        x = rng.standard_normal(d)
        if storage == "csr":
            rows = _CsrRows(np.array([0, k]), cols, vals, d)
            z = vals[None] @ x[cols]
        else:
            rows, z = dense, dense @ x
        owner = RowConstraintSet(rows, *_ONE_ROW_DRAWS[case](float(z[0])))
        problem = CompositeProblem(
            dim=d, grad_f=lambda x, batch: x, f_value=lambda x, batch: 0.0,
            prox_h=zero_prox(), constraints=owner, norm_bound=1.0)
        got = _inner_step(x, RowBatch(owner, np.array([0])), 0.3, 0.7, problem)

        g = (z - np.minimum(np.maximum(z, owner.lo), owner.hi)) / 0.7
        if storage == "csr":
            penalty = np.zeros(d)
            penalty[cols] = g[0] * vals
        else:
            penalty = g @ dense
        assert got.tobytes() == (x - 0.3 * (x + penalty)).tobytes()
        assert (g[0] == 0.0) == case.endswith("inactive")

    def test_minibatch_run_matches_per_sample_steps(self):
        # tight slabs, so that the penalty is active: at 0.2 no slab is
        problem = make_portfolio_problem(gen_synthetic_returns(60, 8, seed=3),
                                         0.002)
        cfg = SascConfig(alpha0=1.0, omega=1.5, m0=2, epochs=12, seed=3,
                         minibatch=16, checkpoint_every=10 ** 6,
                         eval_samples=1)
        x_bar, _ = run_sasc(problem, cfg)
        # the samples' penalty gradients summed one by one, not g R
        assert_allclose(x_bar, _plain_run(problem, cfg, listed=True)[0],
                        rtol=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: _same_f(make_portfolio_problem(
            gen_synthetic_returns(60, 8, seed=3), 0.002)),
        lambda: _least_squares_per_sample_f(
            gen_basis_pursuit(8, 40, 2, 0.5, seed=1)),
    ], ids=["deterministic-f", "per-sample-f"])
    def test_batch_step_averages_its_samples(self, build):
        # ``per_sample`` steps through the batch's samples one by one, with
        # f's gradient averaged over their per-sample formulas
        problem, per_sample = build()
        rng = np.random.default_rng(8)
        batch = problem.constraints.draw_batch(rng, 16)
        x = rng.standard_normal(problem.dim)
        assert problem.constraints.distances(x, batch).max() > 0.0
        assert_allclose(_inner_step(x, batch, 0.3, 0.7, problem),
                        _inner_step(x, list(batch), 0.3, 0.7, per_sample),
                        rtol=1e-12)

    def test_other_samplers_take_the_per_sample_path(self):
        # a sampler that is not a row set hands out plain samples: run_sasc
        # draws them one step at a time and steps through them one by one,
        # on the same index stream
        problem, cfg = _small_bp()
        rows = problem.constraints
        sizes = []

        class PlainSampler(ConstraintSampler):
            def draw(self, rng):
                return rows.draw(rng)

            def draw_batch(self, rng, k):
                sizes.append(k)
                return super().draw_batch(rng, k)

        plain = dataclasses.replace(problem, constraints=PlainSampler())
        x_rows, _ = run_sasc(problem, dataclasses.replace(cfg, m0=500))
        x_plain, trace = run_sasc(plain, dataclasses.replace(cfg, m0=500))
        assert x_rows.tobytes() == x_plain.tobytes()
        # one draw per step, after the single held-out draw of the eval set
        assert sizes == [1] * (1 + trace.records[-1].samples)

    def test_each_index_is_drawn_once_in_chunks(self):
        problem, _ = _small_bp()
        sizes = []
        draw_batch = problem.constraints.draw_batch

        class Counting(ConstraintSampler):
            def draw_batch(self, rng, k):
                sizes.append(k)
                return draw_batch(rng, k)

            def support(self):
                return problem.constraints.support()

            def distances(self, x, indices=None):
                return problem.constraints.distances(x, indices)

        counted = dataclasses.replace(problem, constraints=Counting())
        cfg = SascConfig(alpha0=0.01, omega=2.0, m0=700, epochs=3, seed=1,
                         minibatch=3, checkpoint_every=10 ** 6, eval_samples=1)
        _, trace = run_sasc(counted, cfg)
        # epochs of 700, 1400 and 2800 steps, each drawn in chunks of at
        # most 1365 steps of 3 from its first step on
        assert sizes == [2100, 4095, 105, 4095, 4095, 210]
        assert sum(sizes) == trace.records[-1].samples

    def test_a_row_set_handing_out_lists_steps_one_step_at_a_time(self):
        # the support marks a row set, so each epoch is drawn in one chunk;
        # the chunk is a list of samples, read as the RowBatch of their
        # indices and split into one-row steps; the copy declares custom
        # kinds, so each step hands grad_f its draw as a batch of one, and
        # it steps as the declared problem does
        problem, cfg = _small_bp()
        sizes, batches = [], []
        listed_rows = _ListRows(problem.constraints, sizes)

        def grad_f(x, batch):
            batches.append(batch)
            return problem.grad_f(x, batch)

        listed = dataclasses.replace(problem, constraints=listed_rows,
                                     grad_f=grad_f,
                                     structure=ObjectiveStructure())
        cfg = dataclasses.replace(cfg, m0=500)
        x_rows, _ = run_sasc(problem, cfg)
        x_list, trace = run_sasc(listed, cfg)
        assert x_list.tobytes() == x_rows.tobytes()
        assert sizes == [500, 750]
        assert len(batches) == trace.records[-1].samples
        assert all(type(b) is RowBatch and len(b) == 1 for b in batches)

    def test_listed_samples_without_an_index_are_refused(self):
        problem, cfg = _small_bp()

        class Unindexed(_ListRows):
            def draw_batch(self, rng, k):
                return [dataclasses.replace(sample, index=None)
                        for sample in super().draw_batch(rng, k)]

        unindexed = dataclasses.replace(
            problem, constraints=Unindexed(problem.constraints))
        with pytest.raises(ValueError, match="draw_batch"):
            run_sasc(unindexed, cfg)


def _forwarding_copy(problem, calls):
    """A copy built the way an outside-in tracer builds one: every callable
    wrapped (counting its calls in ``calls``) and a sampler that forwards."""

    def counted(name, fn):
        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return call

    class Forwarding:
        def __init__(self, inner):
            self._inner = inner

        def draw(self, rng):
            return self._inner.draw(rng)

        def draw_batch(self, rng, k):
            return self._inner.draw_batch(rng, k)

        def support(self):
            return self._inner.support()

        def distances(self, x, indices=None):
            return counted("distances", self._inner.distances)(x, indices)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    prox = problem.prox_h
    return dataclasses.replace(
        problem,
        grad_f=counted("grad_f", problem.grad_f),
        f_value=counted("f_value", problem.f_value),
        prox_h=ProxHandle(evaluate=counted("prox", prox.evaluate),
                          objective_value=counted("h", prox.objective_value),
                          is_projection=prox.is_projection),
        constraints=Forwarding(problem.constraints))


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestScaledStep:
    """One-row steps of a min_norm problem, kept as x = s v."""

    # _small_svm folds the scale into v about every ten steps
    @pytest.mark.parametrize("build", [_small_svm, _sparse_svm],
                             ids=["small", "sparse"])
    def test_close_to_the_plain_step(self, build):
        problem, cfg = build()
        x_bar, _ = run_sasc(problem, cfg)
        assert_allclose(x_bar, _plain_run(problem, cfg)[0], rtol=1e-12)

    def test_forwarding_copy_takes_the_same_path(self):
        problem, cfg = _sparse_svm()
        cfg = dataclasses.replace(cfg, checkpoint_every=500, eval_samples=50)
        calls = {}
        x_bar, trace = run_sasc(problem, cfg)
        x_copy, trace_copy = run_sasc(_forwarding_copy(problem, calls), cfg)
        assert x_copy.tobytes() == x_bar.tobytes()
        assert trace_copy.column("feasibility").tobytes() == \
            trace.column("feasibility").tobytes()
        # the scaled step calls neither grad_f nor the prox; checkpoints
        # measure through the wrapped callables and the sampler's hook
        assert "grad_f" not in calls and "prox" not in calls
        assert calls["distances"] == calls["f_value"] == len(trace)

    def test_callback_states_match_the_plain_steps(self):
        problem, cfg = _sparse_svm()
        cfg = dataclasses.replace(cfg, m0=400)
        scaled, plain = [], []
        run_sasc(problem, cfg, callback=scaled.append)
        run_sasc(dataclasses.replace(problem, structure=ObjectiveStructure()),
                 cfg, callback=plain.append)
        assert len(scaled) == len(plain) == 400 + 600
        for got, want in zip(scaled, plain):
            assert (got.s, got.k, got.samples_seen) == \
                (want.s, want.k, want.samples_seen)
            assert _rel_err(got.x, want.x) <= 1e-12
            assert _rel_err(got.running_avg, want.running_avg) <= 1e-12

    def test_general_convex_restart_continues_from_the_last_iterate(self):
        problem, cfg = _sparse_svm()
        cfg = dataclasses.replace(cfg, case=Case.GENERAL_CONVEX, m0=300,
                                  epochs=3)
        x_bar, _ = run_sasc(problem, cfg)
        assert x_bar.tobytes() == _scaled_reference_run(problem, cfg).tobytes()
        plain, _ = run_sasc(
            dataclasses.replace(problem, structure=ObjectiveStructure()), cfg)
        assert _rel_err(x_bar, plain) <= 1e-12

    def test_divergence_names_its_epoch_and_step(self):
        # an understated norm_bound makes beta far too small: the penalty
        # step overshoots and the iterate grows until it is no longer finite
        problem, cfg = _small_svm()
        understated = dataclasses.replace(problem, norm_bound=0.01)
        errors = []
        for p in (understated, dataclasses.replace(
                understated, structure=ObjectiveStructure())):
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
                run_sasc(p, cfg)
            errors.append((exc.value.epoch, exc.value.step))
        # the scaled and the plain step diverge at the same step
        assert errors[0] == errors[1] == (0, 651)

    @pytest.mark.parametrize("build", [
        lambda toy: (toy[0], SascConfig(alpha0=0.5, omega=2.0, m0=4, epochs=3,
                                        checkpoint_every=5, eval_samples=1)),
        lambda toy: _sparse_svm(),
    ], ids=["min-norm-toy", "sparse-svm"])
    def test_a_row_set_handing_out_lists_takes_the_scaled_step(
            self, min_norm_toy, build):
        problem, cfg = build(min_norm_toy)
        listed = dataclasses.replace(
            problem, constraints=_ListRows(problem.constraints))
        x_rows, trace = run_sasc(problem, cfg)
        x_list, trace_list = run_sasc(listed, cfg)
        assert x_list.tobytes() == x_rows.tobytes()
        assert trace_list.column("feasibility").tobytes() == \
            trace.column("feasibility").tobytes()

    def test_min_norm_needs_mu_equal_to_lipschitz_grad(self, min_norm_toy):
        # a half-square f needs mu, and its lipschitz_grad is mu: a value
        # handed in is not read, and a copy with another mu re-derives it
        problem, _ = min_norm_toy
        for mu in (None, 0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="half_sq_norm"):
                dataclasses.replace(problem, mu=mu)
        copy = dataclasses.replace(problem, mu=2.0, lipschitz_grad=5.0)
        assert copy.lipschitz_grad == copy.mu == 2.0
        x = np.array([3.0, -1.0])
        assert copy.grad_f(x, None).tolist() == [6.0, -2.0]
        assert copy.f_value(x, None) == 10.0


_TRACE_COLUMNS = ("samples", "epoch", "objective", "feasibility", "beta",
                  "alpha", "dist_to_ref")


def _bp(seed, h):
    """A small bp instance and run; h = "zero" drops the l1 term."""
    inst = gen_basis_pursuit(20, 300, 3, 0.9, seed=seed)
    problem = make_bp_problem(inst)
    if h == "zero":
        problem = dataclasses.replace(
            problem, structure=ObjectiveStructure(f="zero", h="zero"))
    cfg = SascConfig(alpha0=0.05, omega=2.0, m0=200, epochs=4, seed=seed,
                     checkpoint_every=97, eval_samples=50)
    return problem, cfg, inst.x_star


def _on_csr_rows(problem):
    """The problem on CSR rows that store its dense rows' nonzero entries."""
    dense = problem.constraints
    rows, d = dense.rows, problem.dim
    nnz = np.flatnonzero(rows.ravel() != 0.0)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(rows, axis=1))))
    csr = _CsrRows(indptr, nnz % d, rows.ravel()[nnz], d)
    return dataclasses.replace(
        problem, constraints=RowConstraintSet(csr, dense.lo, dense.hi))


def _row_set_case(kind):
    """(problem, config, x*) of a seed-0 run of one kind on a row set.

    "l1" and "zero" are bp with h = l1 or 0 (a zero f), "l1-csr" the l1
    one on CSR rows, "half-sq-csr" bp with f = (1/2)||x||^2 and h = 0 on
    CSR rows, "least-squares" a custom f, and "plane-tight" a portfolio
    problem (a linear f and the budget plane) whose slabs are active.
    """
    if kind == "plane-tight":
        problem = make_portfolio_problem(gen_synthetic_returns(60, 8, seed=0),
                                         0.002)
        return problem, SascConfig(alpha0=1.0, omega=2.0, m0=200, epochs=4,
                                   checkpoint_every=97, eval_samples=50), None
    problem, cfg, x_star = _bp(0, "zero" if kind == "zero" else "l1")
    if kind == "least-squares":
        problem = make_bp_least_squares_problem(
            gen_basis_pursuit(20, 300, 3, 0.9, seed=0))
    if kind == "half-sq-csr":
        problem = dataclasses.replace(
            problem, mu=1.0,
            structure=ObjectiveStructure(f="half_sq_norm", h="zero"))
    if kind.endswith("-csr"):
        problem = _on_csr_rows(problem)
    return problem, cfg, x_star


def _one_row_case(seed, kind):
    """(problem, the copy the plain loop steps, config, x*) of one kind.

    "l1" and "zero" are bp with h = l1 or 0 (a zero f), "half-sq-l1" bp
    with f = (1/2)||x||^2, "portfolio" a linear f with the plane as h, and
    "least-squares" a custom f, stepped by the plain loop through a copy
    whose grad_f averages the one-sample formula over its listed samples.
    """
    if kind == "portfolio":
        problem = make_portfolio_problem(gen_synthetic_returns(60, 8,
                                                               seed=seed), 0.2)
        cfg = SascConfig(alpha0=1.0, omega=2.0, m0=200, epochs=4, seed=seed,
                         checkpoint_every=97, eval_samples=50)
        return problem, problem, cfg, None
    problem, cfg, x_star = _bp(seed, "zero" if kind == "zero" else "l1")
    if kind == "least-squares":
        problem, per_sample = _least_squares_per_sample_f(
            gen_basis_pursuit(20, 300, 3, 0.9, seed=seed))
        return problem, per_sample, cfg, x_star
    if kind == "half-sq-l1":
        problem = dataclasses.replace(
            problem, mu=1.0, structure=dataclasses.replace(
                problem.structure, f="half_sq_norm"))
    return problem, problem, cfg, x_star


class TestRowIterate:
    """One-row steps on dense rows, for any f and h, on Python scalars."""

    @pytest.mark.parametrize("kind", ["l1", "zero", "half-sq-l1", "portfolio",
                                      "least-squares"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_is_the_plain_loop_bit_for_bit(self, seed, kind):
        problem, reference, cfg, x_star = _one_row_case(seed, kind)
        x_bar, trace = run_sasc(problem, cfg,
                                cert=CertificateInputs(x_star=x_star))
        want_x, want = _plain_run(reference, cfg, x_star)
        assert x_bar.tobytes() == want_x.tobytes()
        assert len(trace) == len(want) > 4 * cfg.epochs
        for name in _TRACE_COLUMNS:
            assert trace.column(name).tobytes() == \
                want.column(name).tobytes(), name

    @pytest.mark.parametrize("norm_bound, where", [(0.05, (1, 12)),
                                                   (0.01, (0, 107))])
    def test_divergence_names_the_plain_loops_epoch_and_step(self, norm_bound,
                                                             where):
        # an understated norm_bound makes beta far too small: the penalty
        # step overshoots and x grows until it is no longer finite, which
        # the one-row iterate's run finds at a checkpoint and locates by
        # replaying the epoch
        problem, cfg, _ = _bp(0, "l1")
        problem = dataclasses.replace(problem, norm_bound=norm_bound)
        cfg = dataclasses.replace(cfg, alpha0=0.5)
        errors = []
        for run in (run_sasc, _plain_run):
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
                run(problem, cfg)
            errors.append((exc.value.epoch, exc.value.step))
        assert errors[0] == errors[1] == where

    def test_custom_kinds_take_the_plain_step(self):
        # the same callables with nothing declared: the one-row iterate
        # calls grad_f and the prox handle on every step, and x_bar keeps
        # the declared problem's bits
        problem, cfg, _ = _bp(0, "l1")
        calls = {}
        custom = dataclasses.replace(_forwarding_copy(problem, calls),
                                     structure=ObjectiveStructure())
        x_bar, trace = run_sasc(custom, cfg)
        steps = trace.records[-1].samples
        assert calls["grad_f"] == calls["prox"] == steps
        assert x_bar.tobytes() == _plain_run(problem, cfg)[0].tobytes()

    def test_traced_copy_takes_the_same_path(self):
        # the outside-in tracer's copy: replaced callables, a forwarding
        # sampler and the structure record carried along unchanged
        problem, cfg, _ = _bp(0, "l1")
        calls = {}
        x_bar, trace = run_sasc(problem, cfg)
        x_copy, trace_copy = run_sasc(_forwarding_copy(problem, calls), cfg)
        assert x_copy.tobytes() == x_bar.tobytes()
        assert trace_copy.column("objective").tobytes() == \
            trace.column("objective").tobytes()
        assert "grad_f" not in calls and "prox" not in calls
        assert calls["distances"] == calls["f_value"] == len(trace)

    def test_sparse_rows_take_the_block_step(self):
        # CSR rows of a zero-f, l1 problem step as blocks of one row, on
        # its stored entries, calling neither the zero f's grad_f nor the
        # derived prox handle
        problem, cfg, _ = _bp(1, "l1")
        calls = {}
        x_sparse, _ = run_sasc(_forwarding_copy(_on_csr_rows(problem), calls),
                               cfg)
        assert "grad_f" not in calls and "prox" not in calls
        assert_allclose(x_sparse, run_sasc(problem, cfg)[0], rtol=1e-12)

    @pytest.mark.parametrize("kind, minibatch, every", [
        *[pytest.param(kind, b, None, id=f"{kind}-{b}") for kind, b in (
            *((kind, b) for kind in ("zero", "l1", "plane-tight")
              for b in (1, 4, 16)),
            ("half-sq-csr", 4), ("least-squares", 4), ("l1-csr", 1),
            ("l1-csr", 4),
            # dense rows are gathered 255 at a time at B = 3, and one step's
            # 300 at B = 300
            ("l1", 3), ("plane-tight", 300))],
        # a record after every step; every 37 samples, which a batch of 4
        # or 16 passes between multiples; and every 700 or 5,000 samples,
        # past the 200-step first epoch, so that the loop's run of steps
        # to the next checkpoint stops at epoch ends first
        *[pytest.param(kind, b, every, id=f"{kind}-{b}-every-{every}")
          for kind, b, every in (
              ("plane-tight", 1, 1), ("l1", 4, 1), ("plane-tight", 16, 37),
              ("l1-csr", 4, 37), ("zero", 4, 37), ("plane-tight", 1, 700),
              ("l1", 16, 5000))],
    ])
    def test_every_row_set_run_is_the_plain_loop_bit_for_bit(
            self, kind, minibatch, every):
        # the traced copy against the plain step (_inner_step), step by
        # step: x_bar and every trace column keep their bits, and no step
        # calls a declared h's handle or a zero f's grad_f
        problem, cfg, x_star = _row_set_case(kind)
        cfg = dataclasses.replace(cfg, minibatch=minibatch,
                                  checkpoint_every=every or cfg.checkpoint_every)
        calls = {}
        x_bar, trace = run_sasc(_forwarding_copy(problem, calls), cfg,
                                cert=CertificateInputs(x_star=x_star))
        want_x, want = _plain_run(problem, cfg, x_star)
        assert x_bar.tobytes() == want_x.tobytes()
        assert len(trace) == len(want) > (4 * cfg.epochs if every is None
                                          else 4)
        for name in _TRACE_COLUMNS:
            assert trace.column(name).tobytes() == \
                want.column(name).tobytes(), name
        st = problem.structure
        assert "prox" not in calls
        assert ("grad_f" in calls) == (st.f != "zero")
        if kind == "plane-tight":
            assert trace.column("feasibility").max() > 0.0

    @pytest.mark.parametrize("iterate", [_RowIterate, _SppIterate],
                             ids=["sasc", "spp"])
    @pytest.mark.parametrize("f, h", [("linear", "hyperplane"),
                                      ("zero", "hyperplane"), ("zero", "zero")])
    def test_a_step_writes_into_no_array_it_did_not_create(
            self, iterate, f, h, monkeypatch):
        # sasc's one-row step and SPP's on the portfolio's slabs, from a
        # start that some slabs hold and others do not: each
        # iterate is made read-only once stepped, as the linear f's c is,
        # so a step that skips its penalty term and then writes into either
        # raises
        problem = make_portfolio_problem(gen_synthetic_returns(60, 8, seed=0),
                                         0.002)
        st = problem.structure
        problem = dataclasses.replace(problem, structure=ObjectiveStructure(
            f=f, c=st.c if f == "linear" else None, h=h,
            **({"normal": st.normal, "offset": st.offset}
               if h == "hyperplane" else {})))
        multipliers = []

        def recorded(*args):
            multipliers.append(_row_multiplier(*args))
            return multipliers[-1]

        for module in (sasc.core, sasc.baselines):
            monkeypatch.setattr(module, "_row_multiplier", recorded)
        it = iterate(problem)
        x = np.random.default_rng(0).standard_normal(problem.dim)
        x.flags.writeable = False
        it.start(x)
        alpha, beta, _ = schedule_params(SascConfig(alpha0=1.0, omega=2.0,
                                                    m0=1, epochs=1), 0,
                                         problem.norm_bound)
        for draw in it.draws(np.random.default_rng(1), 2000):
            it.step(draw, alpha, beta)
            it.x.flags.writeable = False
        assert 0 < multipliers.count(0.0) < len(multipliers) == 2000
        assert np.isfinite(it.x).all() and not np.array_equal(it.x, x)

    @pytest.mark.parametrize("kind", ["l1", "l1-csr"])
    def test_block_divergence_names_the_plain_loops_epoch_and_step(self,
                                                                   kind):
        # as for one row: the replay finds x leaving the floats at the
        # step where the full check does
        problem, cfg, _ = _row_set_case(kind)
        problem = dataclasses.replace(problem, norm_bound=0.01)
        cfg = dataclasses.replace(cfg, alpha0=0.5, minibatch=4)
        errors = []
        for run in (run_sasc, _plain_run):
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
                run(problem, cfg)
            errors.append((exc.value.epoch, exc.value.step))
        assert errors[0] == errors[1] == (0, 103)

    @pytest.mark.parametrize("minibatch", [1, 4])
    def test_only_a_sampler_that_is_not_a_row_set_takes_the_plain_step(
            self, minibatch):
        problem, cfg, _ = _bp(0, "l1")
        cfg = dataclasses.replace(cfg, minibatch=minibatch)
        rows = problem.constraints

        class PlainSampler(ConstraintSampler):
            def draw(self, rng):
                return rows.draw(rng)

        plain = dataclasses.replace(problem, constraints=PlainSampler())
        assert type(_iterate(plain, cfg)) is _Iterate
        svm, _ = _sparse_svm()
        assert type(_iterate(svm, cfg)) is (
            _ScaledIterate if minibatch == 1 else _RowIterate)
        for row_set in (problem, _on_csr_rows(problem),
                        _plane_problems(0, 0.2)[0],
                        _forwarding_copy(problem, {}),
                        dataclasses.replace(problem, constraints=_ListRows(rows)),
                        dataclasses.replace(problem,
                                            structure=ObjectiveStructure())):
            assert type(_iterate(row_set, cfg)) is _RowIterate

    @pytest.mark.parametrize("kinds, message", [
        (dict(f="quadratic"), "f must be"),
        (dict(h="box"), "h must be"),
        (dict(h="l1"), "l1_weight"),
        (dict(h="zero", l1_weight=1.0), "l1_weight"),
        (dict(h="l1", l1_weight=np.inf), "l1_weight"),
        (dict(f="linear"), "c is given"),
        (dict(f="zero", c=[1.0]), "c is given"),
        (dict(f="linear", c=[1.0, np.nan]), "finite vector"),
        (dict(f="linear", c=np.ones((2, 2))), "finite vector"),
        (dict(h="hyperplane"), "normal and offset"),
        (dict(h="hyperplane", normal=[1.0]), "normal and offset"),
        (dict(h="hyperplane", offset=1.0), "normal and offset"),
        (dict(h="zero", normal=[1.0], offset=1.0), "normal and offset"),
        (dict(normal=[1.0], offset=1.0), "normal and offset"),
        (dict(h="hyperplane", normal=[0.0, 0.0], offset=1.0), "nonzero finite"),
        (dict(h="hyperplane", normal=[1.0, np.nan], offset=1.0),
         "nonzero finite"),
        (dict(h="hyperplane", normal=[np.inf], offset=1.0), "nonzero finite"),
        (dict(h="hyperplane", normal=[1e200, 1.0], offset=1.0),
         "nonzero finite"),
        (dict(h="hyperplane", normal=np.ones((2, 2)), offset=1.0),
         "nonzero finite"),
        (dict(h="hyperplane", normal=[1.0], offset=np.nan), "offset b must be"),
        (dict(h="hyperplane", normal=[1.0], offset=-np.inf), "offset b must be"),
    ])
    def test_structure_is_checked_when_built(self, kinds, message):
        # ||normal||^2 of the 1e200 entry overflows
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                        match=message):
            ObjectiveStructure(**kinds)

    def test_zero_f_needs_a_zero_lipschitz_constant(self):
        # derived from the record: a value handed in is not read
        problem, _, _ = _bp(0, "l1")
        assert dataclasses.replace(problem, lipschitz_grad=1.0) \
            .lipschitz_grad == 0.0


class TestDeclaredStructure:
    """A declared kind's callables come from the record and nowhere else."""

    @pytest.mark.parametrize("minibatch", [1, 2])
    def test_redeclared_weight_is_stepped_and_reported(self, minibatch):
        # a copy that swaps the record derives its prox from the new one:
        # it steps as a problem built with weight 2, and every checkpoint
        # reports 2 ||x||_1 of the point it measures
        problem, cfg, _ = _bp(0, "l1")
        weight2 = ObjectiveStructure(f="zero", h="l1", l1_weight=2.0)
        copy = dataclasses.replace(problem, structure=weight2)
        built = CompositeProblem(dim=problem.dim,
                                 constraints=problem.constraints,
                                 norm_bound=problem.norm_bound,
                                 structure=weight2)
        cfg = dataclasses.replace(cfg, minibatch=minibatch)
        states = {}
        x_bar, trace = run_sasc(copy, cfg, callback=lambda st: states.update(
            {st.samples_seen: st.running_avg}))
        assert x_bar.tobytes() == run_sasc(built, cfg)[0].tobytes()
        assert x_bar.tobytes() != run_sasc(problem, cfg)[0].tobytes()
        for rec in trace.records:
            point = states[rec.samples]
            assert rec.objective == 2.0 * float(np.sum(np.abs(point)))

    def test_a_copy_that_redeclares_a_handed_in_callable_is_refused(self):
        # a hand-wrapped prox computes weight 1: a copy declaring weight 2
        # would keep it and report ||x||_1 where 2 ||x||_1 is declared
        problem, _, _ = _bp(0, "l1")
        prox = problem.prox_h
        wrapped = dataclasses.replace(problem, prox_h=ProxHandle(
            evaluate=lambda z, step: prox.evaluate(z, step),
            objective_value=lambda x: prox.objective_value(x)))
        assert dataclasses.replace(wrapped).prox_h is wrapped.prox_h
        weight2 = ObjectiveStructure(f="zero", h="l1", l1_weight=2.0)
        with pytest.raises(ValueError, match="prox_h was handed in"):
            dataclasses.replace(wrapped, structure=weight2)
        # the record's own prox is derived afresh, and a new one may be
        # handed in with the new record
        assert dataclasses.replace(problem, structure=weight2) \
            .prox_h.objective_value(np.ones(20)) == 40.0
        fresh = l1_prox(2.0)
        assert dataclasses.replace(wrapped, structure=weight2,
                                   prox_h=fresh).prox_h is fresh

    def test_custom_kinds_need_their_callables(self):
        rows = RowConstraintSet(np.eye(2), 0.0, 1.0)
        for missing, structure in (
                ("grad_f", ObjectiveStructure(h="zero")),
                ("prox_h", ObjectiveStructure(f="zero"))):
            with pytest.raises(ValueError, match=missing):
                CompositeProblem(dim=2, constraints=rows, norm_bound=1.0,
                                 structure=structure)

    def test_linear_c_is_a_value_of_the_problems_dim(self):
        c = np.array([1.0, -2.0, 0.5])
        record = ObjectiveStructure(f="linear", c=c)
        again = ObjectiveStructure(f="linear", c=c.copy())
        assert record == again and hash(record) == hash(again)
        assert record != ObjectiveStructure(f="linear", c=-c)
        assert record.c == (1.0, -2.0, 0.5)
        with pytest.raises(ValueError, match="c has 3 entries, dim is 2"):
            CompositeProblem(dim=2, prox_h=zero_prox(),
                             constraints=RowConstraintSet(np.eye(2), 0.0, 1.0),
                             norm_bound=1.0, structure=record)


def _plane_problems(seed, epsilon, c=None):
    """A small portfolio problem, which declares its budget plane, and the
    same problem with a custom h handing in the plane's prox handle."""
    plane = make_portfolio_problem(gen_synthetic_returns(60, 8, seed=seed),
                                   epsilon)
    if c is not None:
        plane = dataclasses.replace(plane, structure=dataclasses.replace(
            plane.structure, c=c))
    custom = dataclasses.replace(
        plane, prox_h=hyperplane_indicator_prox(np.ones(8), 1.0),
        structure=ObjectiveStructure(f="linear", c=plane.structure.c))
    return plane, custom


def _plane_run(problem, solver, seed, spp_step=1e-2):
    if solver == "spp":
        return run_spp(problem, BaselineConfig(
            "spp", step=spp_step, iterations=3000, seed=seed,
            checkpoint_every=97, eval_samples=50))
    return run_sasc(problem, SascConfig(
        alpha0=1.0, omega=1.2, m0=2, sample_budget=3000, minibatch=solver,
        seed=seed, checkpoint_every=97, eval_samples=50))


class TestDeclaredPlane:
    """h = "hyperplane": the one-row steps project without the prox handle."""

    @pytest.mark.parametrize("epsilon", [0.2, 0.002], ids=["loose", "tight"])
    @pytest.mark.parametrize("solver", [1, 4, 16, "spp"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_plane_is_the_custom_handle_bit_for_bit(self, seed, solver,
                                                    epsilon):
        plane, custom = _plane_problems(seed, epsilon)
        calls = {}
        x_bar, trace = _plane_run(_forwarding_copy(plane, calls), solver, seed)
        want_x, want = _plane_run(custom, solver, seed)
        assert x_bar.tobytes() == want_x.tobytes()
        assert abs(float(np.sum(x_bar)) - 1.0) <= 1e-9
        for name in _TRACE_COLUMNS:
            assert trace.column(name).tobytes() == \
                want.column(name).tobytes(), name
        # no step calls the derived handle, at any minibatch
        assert "prox" not in calls
        if epsilon == 0.002:    # the tight slabs are active
            assert trace.column("feasibility").max() > 0.0

    @pytest.mark.parametrize("solver, scale, norm_bound, spp_step, where", [
        (1, 1e300, 0.1, None, (4, 4)),
        (16, 1e300, 0.1, None, (5, 2)),
        ("spp", 1e305, 1.0, 100.0, (0, 9)),
    ])
    def test_overflow_is_seen_at_the_custom_handles_step(
            self, solver, scale, norm_bound, spp_step, where):
        # a huge c, and for sasc an understated norm_bound, drive x past the
        # largest float after some steps; the plane's bound sees it at the
        # step where the custom handle's full check does
        c = scale * np.random.default_rng(3).standard_normal(8)
        errors = []
        for problem in _plane_problems(0, 0.2, c):
            problem = dataclasses.replace(problem, norm_bound=norm_bound)
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
                _plane_run(problem, solver, 0, spp_step)
            errors.append((exc.value.epoch, exc.value.step))
        assert errors[0] == errors[1] == where

    def test_plane_is_a_value_of_the_problems_dim(self):
        record = ObjectiveStructure(h="hyperplane", normal=np.ones(3), offset=1)
        again = ObjectiveStructure(h="hyperplane", normal=(1.0, 1.0, 1.0),
                                   offset=1.0)
        assert record == again and hash(record) == hash(again)
        assert record.normal == (1.0, 1.0, 1.0) and type(record.offset) is float
        rows = RowConstraintSet(np.eye(2), 0.0, 1.0)
        with pytest.raises(ValueError, match="normal has 3 entries, dim is 2"):
            CompositeProblem(dim=2, grad_f=lambda x, batch: 0.0,
                             f_value=lambda x, batch: 0.0, constraints=rows,
                             norm_bound=1.0, structure=record)

    def test_a_copy_that_moves_the_plane_refuses_a_handed_in_handle(self):
        plane, _ = _plane_problems(0, 0.2)
        prox = plane.prox_h
        wrapped = dataclasses.replace(plane, prox_h=ProxHandle(
            evaluate=lambda z, step: prox.evaluate(z, step),
            objective_value=lambda x: prox.objective_value(x),
            is_projection=True))
        moved = dataclasses.replace(plane.structure, offset=2.0)
        with pytest.raises(ValueError, match="prox_h was handed in"):
            dataclasses.replace(wrapped, structure=moved)
        # the record's own handle is derived afresh for the moved plane
        z = dataclasses.replace(plane, structure=moved).prox_h.evaluate(
            np.zeros(8), 1.0)
        assert z.tobytes() == np.full(8, 0.25).tobytes()


def _sym_case1(alpha0, m0, omega, nb, y, sf, r0):
    a0, m, w, A, Y, S, R = [sympy.Rational(str(v))
                            for v in (alpha0, m0, omega, nb, y, sf, r0)]
    c1 = sympy.sqrt(m * w) / (a0 * (m - 1) * sympy.sqrt(w - 1))
    c2 = R ** 2 / 2 + 2 * a0 * m * S ** 2
    c3 = 2 * a0 ** 2 * A ** 2 * m * Y ** 2 + 2 * a0 * m * S ** 2
    c4 = 4 * a0 * sympy.sqrt(m) * A ** 2 * sympy.sqrt(w) / sympy.sqrt(w - 1)
    return [float(sympy.N(v, 30)) for v in (c1, c2, c3, c4)]


def _sym_case2(alpha0, m0, omega, nb, y, sf, r0):
    a0, m, w, A, Y, S, R = [sympy.Rational(str(v)) for v in
                            (alpha0, m0, omega, nb, y, sf, r0)]
    d1 = (w / (w - 1)) * (m / (a0 * (m - 1))) * R ** 2 / 2 \
        + 2 * a0 * m * (w / (w - 1)) * S ** 2
    d2 = (2 * m ** 2 * a0 * w / ((m - 1) * (w - 1))) * (A ** 2 * Y ** 2 + S ** 2)
    d3 = 4 * a0 * m * A ** 2 * w / (w - 1)
    return [float(sympy.N(v, 30)) for v in (d1, d2, d3)]


def _ascent(b, m0, epochs=1, **kw):
    """A concave f with gradient -1e10 x - b e_0, and constraints that never
    bind (lo = -inf, hi = inf). From x = 0, x_0 grows by 1 + 1e10 alpha per
    step, so b sets the step where it leaves the floats, and the running
    sum stays within a few ulps of x until then. Returns (problem, config).
    """
    push = np.array([b, 0.0])
    problem = CompositeProblem(
        dim=2, grad_f=lambda x, batch: -1e10 * x - push,
        f_value=lambda x, batch: 0.0,
        constraints=RowConstraintSet(np.eye(2), -np.inf, np.inf),
        norm_bound=1.0, structure=ObjectiveStructure(h="zero"))
    kw.setdefault("checkpoint_every", 10 ** 6)
    return problem, SascConfig(alpha0=1.0, omega=2.0, m0=m0, epochs=epochs,
                               seed=0, eval_samples=5, **kw)


def _divergence(run, *args, **kw):
    """(epoch, step) of the DivergenceError that ``run`` raises."""
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
        run(*args, **kw)
    return exc.value.epoch, exc.value.step


class TestDivergenceAtCheckpoints:
    """No step checks finiteness: _drive finds a non-finite point or mean at
    a checkpoint or an epoch end, and a replay of the epoch names the step
    that the plain loop's per-step check names."""

    def test_at_the_last_step_of_an_epoch(self):
        # epoch 0 takes x_0 to about 1e115; epoch 1 multiplies it by about
        # 7.07e9 per step, which leaves the floats at its 20th and last step
        problem, cfg = _ascent(1e25, m0=10, epochs=2)
        assert _divergence(run_sasc, problem, cfg) == \
            _divergence(_plain_run, problem, cfg) == (1, 20)

    @pytest.mark.parametrize("every", [1, 10, 1000],
                             ids=["every-step", "between-checkpoints",
                                  "past-the-epoch"])
    def test_between_checkpoints(self, every):
        # x_0 leaves the floats at step 25 of 40, which a checkpoint every
        # 10 steps finds at step 30 and one every 1000 at the epoch's end
        problem, cfg = _ascent(1e69, m0=40, checkpoint_every=every)
        assert _divergence(run_sasc, problem, cfg) == \
            _divergence(_plain_run, problem, cfg) == (0, 25)

    def test_a_running_mean_that_overflows_names_its_step(self):
        # a linear drift moves x_0 by -c0 per step, so x_k = -k c0 stays
        # finite through step 10 while the running sum k(k+1)/2 c0 leaves
        # the floats at step 7: the mean the run returns is not finite
        problem = CompositeProblem(
            dim=2, constraints=RowConstraintSet(np.eye(2), -np.inf, np.inf),
            norm_bound=1.0,
            structure=ObjectiveStructure(f="linear", c=(7.55e306, 0.0),
                                         h="zero"))
        cfg = SascConfig(alpha0=1.0, omega=2.0, m0=10, epochs=1,
                         checkpoint_every=10 ** 6, eval_samples=5)
        assert _divergence(run_sasc, problem, cfg) == (0, 7)

    @pytest.mark.parametrize("case", ["one-row", "block", "scaled", "ascent"])
    def test_a_callback_never_sees_a_non_finite_point(self, case):
        if case == "scaled":
            problem, cfg = _small_svm()
            problem = dataclasses.replace(problem, norm_bound=0.01)
        elif case == "ascent":
            problem, cfg = _ascent(1e25, m0=10, epochs=2)
        else:
            problem, cfg, _ = _bp(0, "l1")
            problem = dataclasses.replace(problem, norm_bound=0.01)
            cfg = dataclasses.replace(cfg, alpha0=0.5,
                                      minibatch=4 if case == "block" else 1)
        states = []
        where = _divergence(run_sasc, problem, cfg, callback=states.append)
        assert where == _divergence(run_sasc, problem, cfg)
        # the scaled form's v = x / s leaves the floats two steps before x
        # does, and no point past it reaches the callback
        assert (states[-1].s, states[-1].k) == \
            (where[0], where[1] - (3 if case == "scaled" else 1))
        for state in states:
            assert np.isfinite(state.x).all()
            assert np.isfinite(state.running_avg).all()

    @pytest.mark.parametrize("solver", ["one-row", "block", "scaled", "spp",
                                        "pegasos"])
    def test_no_runtime_warning_escapes_a_diverging_run(self, solver):
        bp, cfg, _ = _bp(0, "l1")
        bp = dataclasses.replace(bp, norm_bound=0.01)
        cfg = dataclasses.replace(cfg, alpha0=0.5)
        runs = {
            "one-row": lambda: run_sasc(bp, cfg),
            "block": lambda: run_sasc(
                bp, dataclasses.replace(cfg, minibatch=4)),
            "scaled": lambda: run_sasc(
                dataclasses.replace(_small_svm()[0], norm_bound=0.01),
                _small_svm()[1]),
            "spp": lambda: run_spp(_ascent(1e63, m0=2)[0], BaselineConfig(
                "spp", step=1.0, iterations=1000, checkpoint_every=97,
                eval_samples=5)),
            "pegasos": lambda: run_pegasos(
                gen_separable_svm(3, 50, margin=0.5, seed=1), lam=1e-310,
                iterations=5, checkpoint_every=1),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                runs[solver]()


class TestConstants:
    def test_case1_worked_identity_start(self):
        cert = CertificateInputs(x_star=np.zeros(2))
        got = rate_constants(_cfg(1.0, 2.0, 2), 1.0, cert, np.zeros(2))
        sym = _sym_case1(1, 2, 2, 1, 0, 0, 0)
        assert_allclose(got, sym, rtol=1e-12)
        assert_allclose(got, [2.0, 0.0, 0.0, 8.0], rtol=1e-12)

    def test_case1_vanishing_factors(self):
        cert = CertificateInputs(x_star=np.zeros(3))
        for a0, m0, w in [(0.3, 2, 1.5), (1.0, 5, 3.0), (0.05, 8, 1.2)]:
            got = rate_constants(_cfg(a0, w, m0), 1.0, cert, np.zeros(3))
            assert got.c2 == 0.0 and got.c3 == 0.0

    def test_case1_worked_general(self):
        cert = CertificateInputs(x_star=np.zeros(2), y_star_norm=1.0,
                                 sigma_f=1.0)
        got = rate_constants(_cfg(0.5, 2.0, 4), 1.0, cert, np.zeros(2))
        sym = _sym_case1(0.5, 4, 2, 1, 1, 1, 0)
        assert_allclose(got, sym, rtol=1e-12)
        assert_allclose(got.c1, np.sqrt(8.0) / 1.5, rtol=1e-12)

    def test_case2_worked(self):
        cert = CertificateInputs(x_star=np.zeros(2), y_star_norm=1.0,
                                 sigma_f=1.0)
        got = rate_constants(_cfg(0.5, 2.0, 4, case=RSC), 1.0, cert,
                             np.zeros(2))
        sym = _sym_case2(0.5, 4, 2, 1, 1, 1, 0)
        assert_allclose(got, sym, rtol=1e-12)
        assert_allclose(got.d3, 16.0, rtol=1e-12)
        assert_allclose(got.d2, 64.0 / 3.0, rtol=1e-12)

    def test_case2_zero_start(self):
        cert = CertificateInputs(x_star=np.ones(2), sigma_f=0.0)
        got = rate_constants(_cfg(0.5, 2.0, 4, case=RSC), 1.0, cert,
                             np.ones(2))
        assert got.d1 == 0.0

    def test_m0_one_rejected(self):
        cert = CertificateInputs(x_star=np.zeros(2))
        with pytest.raises(ConfigurationError, match="m0"):
            rate_constants(_cfg(1.0, 2.0, 1), 1.0, cert, np.zeros(2))
        with pytest.raises(ConfigurationError, match="m0"):
            rate_constants(_cfg(1.0, 2.0, 1, case=RSC), 1.0, cert,
                           np.zeros(2))

    def test_random_cross_check(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a0 = round(float(rng.uniform(0.05, 2.0)), 3)
            m0 = int(rng.integers(2, 10))
            w = round(float(rng.uniform(1.1, 4.0)), 3)
            nb = round(float(rng.uniform(0.5, 2.0)), 3)
            y = round(float(rng.uniform(0, 2)), 3)
            sf = round(float(rng.uniform(0, 2)), 3)
            r0 = round(float(rng.uniform(0, 3)), 3)
            x0 = np.zeros(2)
            cert = CertificateInputs(x_star=np.array([r0, 0.0]),
                                     y_star_norm=y, sigma_f=sf)
            got1 = rate_constants(_cfg(a0, w, m0), nb, cert, x0)
            assert_allclose(got1, _sym_case1(a0, m0, w, nb, y, sf, r0),
                            rtol=1e-12)
            got2 = rate_constants(_cfg(a0, w, m0, case=RSC), nb, cert, x0)
            assert_allclose(got2, _sym_case2(a0, m0, w, nb, y, sf, r0),
                            rtol=1e-12)


class TestBoundCurves:
    # Certificates whose rate constants are round: with ||A|| = 1 at
    # (alpha0, omega, m0) = (1, 2, 2), C = (2, 1, 0, 8) for C_CERT and
    # (2, 1, 1, 8) for C_CERT_Y; with ||A||^2 = 1/2 at (1, 2, 4),
    # D = (3, 1.5, 16) for D_CERT.
    C_CERT = CertificateInputs(x_star=np.ones(2))
    C_CERT_Y = CertificateInputs(x_star=np.ones(2), y_star_norm=0.5)
    D_CERT = CertificateInputs(x_star=np.array([1.5, 0.0]), y_star_norm=0.375)
    D_NORM = np.sqrt(0.5)

    def test_certificates_give_the_round_constants(self):
        x0 = np.zeros(2)
        assert_allclose(rate_constants(_cfg(1.0, 2.0, 2), 1.0, self.C_CERT, x0),
                        (2.0, 1.0, 0.0, 8.0), rtol=1e-14)
        assert_allclose(rate_constants(_cfg(1.0, 2.0, 2), 1.0, self.C_CERT_Y,
                                       x0), (2.0, 1.0, 1.0, 8.0), rtol=1e-14)
        assert_allclose(rate_constants(_cfg(1.0, 2.0, 4, case=RSC),
                                       self.D_NORM, self.D_CERT, x0),
                        (3.0, 1.5, 16.0), rtol=1e-14)

    def test_case1_log_term_vanishes_at_m0(self):
        got = bound_curves(_cfg(1.0, 2.0, 2), 1.0, self.C_CERT, np.zeros(2),
                           [2])
        assert_allclose(got[0][0], np.sqrt(2.0), rtol=1e-14)

    def test_feasibility_reads_y_star_norm_from_cert(self):
        # at M = m0: (2 C4 ||y*|| + 2 sqrt(C1 C4 C2)) / sqrt(M)
        cfg = _cfg(1.0, 2.0, 2)
        feas0 = bound_curves(cfg, 1.0, self.C_CERT, np.zeros(2), [2])[0][1]
        feas = bound_curves(cfg, 1.0, self.C_CERT_Y, np.zeros(2), [2])[0][1]
        assert_allclose(feas0, 8.0 / np.sqrt(2.0), rtol=1e-14)
        assert_allclose(feas, 16.0 / np.sqrt(2.0), rtol=1e-14)

    def test_case2_numerically_decreasing_in_tenfold_m(self):
        Ms = np.unique(np.geomspace(4, 10 ** 5, 40).astype(int))
        vals = bound_curves(_cfg(1.0, 2.0, 4, case=RSC), self.D_NORM,
                            self.D_CERT, np.zeros(2), list(Ms) + list(10 * Ms))
        n = len(Ms)
        for i in range(n):
            assert vals[n + i][0] <= vals[i][0] + 1e-12
            assert vals[n + i][1] <= vals[i][1] + 1e-12

    def test_zero_extension_term_is_identity(self):
        cfg, x0 = _cfg(1.0, 2.0, 2), np.zeros(2)
        base = bound_curves(cfg, 1.0, self.C_CERT_Y, x0, [10, 100])
        ext0 = bound_curves(cfg, 1.0, self.C_CERT_Y, x0, [10, 100],
                            lipschitz_g=0.0)
        assert base == ext0

    def test_extension_surplus(self):
        cfg, x0 = _cfg(1.0, 2.0, 2), np.zeros(2)
        base = bound_curves(cfg, 1.0, self.C_CERT_Y, x0, [64])[0][0]
        ext = bound_curves(cfg, 1.0, self.C_CERT_Y, x0, [64],
                           lipschitz_g=3.0)[0][0]
        assert_allclose(ext - base, 8.0 / np.sqrt(64) * 9.0, rtol=1e-12)
        cfg2 = _cfg(1.0, 2.0, 4, case=RSC)
        b2 = bound_curves(cfg2, self.D_NORM, self.D_CERT, x0, [64])[0][0]
        e2 = bound_curves(cfg2, self.D_NORM, self.D_CERT, x0, [64],
                          lipschitz_g=3.0)[0][0]
        assert_allclose(e2 - b2, 16.0 / 64 * 9.0, rtol=1e-12)

    def test_m_below_first_epoch_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            bound_curves(_cfg(1.0, 2.0, 4), 1.0, self.C_CERT, np.zeros(2), [3])


class TestRateBoundsOnMinNormToy:
    """Every epoch output of a toy run lies within the paper's rate bounds.

    The toy's certificate is exact (x* = e1, P* = 1/2, ||y*|| = 1,
    sigma_f = 0) and its support is one row, so a run is deterministic and
    the in-expectation bound applies to that one run.
    """

    @pytest.mark.parametrize("alpha0, omega, m0, case", [
        (0.5, 2.0, 2, Case.GENERAL_CONVEX),
        (0.75, 1.5, 4, Case.GENERAL_CONVEX),
        (0.5, 2.0, 4, RSC),
        (0.25, 1.5, 8, RSC),
    ], ids=["general-0.5-2-2", "general-0.75-1.5-4", "rsc-0.5-2-4",
            "rsc-0.25-1.5-8"])
    def test_epoch_outputs_within_bounds(self, min_norm_toy, alpha0, omega,
                                         m0, case):
        problem, cert = min_norm_toy
        cfg = SascConfig(alpha0=alpha0, omega=omega, m0=m0, case=case,
                         epochs=14, seed=0, checkpoint_every=10 ** 6,
                         eval_samples=1)
        ends = []

        def at_epoch_end(st):
            if st.k == st.m_s:
                ends.append((st.samples_seen, st.running_avg))

        run_sasc(problem, cfg, callback=at_epoch_end)
        assert len(ends) == 14
        bounds = bound_curves(cfg, problem.norm_bound, cert,
                              np.zeros(problem.dim), [m for m, _ in ends])
        for (_, x_bar), (obj_bound, feas_bound) in zip(ends, bounds):
            # the one unit row e1 with target 1: dist = |x_1 - 1|
            feas = abs(x_bar[0] - 1.0)
            gap = 0.5 * float(x_bar @ x_bar) - cert.p_star
            assert feas <= feas_bound
            assert -cert.y_star_norm * feas - 1e-12 <= gap <= obj_bound


class TestScheduleInequalities:
    def test_hand_value_s3(self):
        # M_3 = 2 + 4 + 8 + 16 = 30; beta_3 = 4 * 2^{-3/2}; bound 8/sqrt(30)
        cfg = _cfg(1.0, 2.0, 2)
        slacks = schedule_inequalities_check(cfg, 1.0, 3)
        beta3 = 4.0 * 2.0 ** -1.5
        bound3 = 8.0 / np.sqrt(30.0)
        assert beta3 < bound3
        assert min(slacks.values()) >= 0.0
        assert slacks["beta_upper"] <= bound3 - beta3 + 1e-12

    def test_s0_definitional_slack(self):
        for case in Case:
            slacks = schedule_inequalities_check(_cfg(0.3, 3.0, 5, case=case),
                                                 2.0, 1)
            assert slacks["step_size_rule"] == 0.0
            assert min(slacks.values()) >= -1e-12

    def test_sweep_grid_both_cases(self):
        worst = np.inf
        for m0 in (2, 4, 8):
            for omega in (1.2, 2.0, 4.0):
                for alpha0 in (0.1, 1.0):
                    for case in Case:
                        cfg = _cfg(alpha0, omega, m0, case=case)
                        slacks = schedule_inequalities_check(cfg, 1.0, 40)
                        worst = min(worst, min(slacks.values()))
        assert worst >= -1e-9

    def test_smax_validation(self):
        with pytest.raises(ValueError):
            schedule_inequalities_check(_cfg(1.0, 2.0, 2), 1.0, 0)

    @pytest.mark.parametrize("case", list(Case))
    @pytest.mark.parametrize("L, worst", [
        (0.0, 1.25), (None, 0.0), (3.0 / (2.0 * 0.3), -1.25)],
        ids=["zero", "default", "twice-the-default"])
    def test_smoothness_rule_reads_lipschitz_grad(self, case, L, worst):
        # beta_s = 4 alpha_s ||A||^2 makes the slack 3/(8 alpha_s) - L/2,
        # least at s = 0: 1.25 - L/2 at alpha0 = 0.3; the default L is
        # 3/(4 alpha0), where the rule holds with equality
        slacks = schedule_inequalities_check(_cfg(0.3, 2.0, 4, case=case),
                                             2.0, 5, lipschitz_grad=L)
        assert slacks["smoothness_rule"] == pytest.approx(worst, abs=1e-12)
