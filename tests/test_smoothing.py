import numpy as np
import pytest
from numpy.testing import assert_allclose

from sasc.core import CompositeProblem, sasc_inner_step
from sasc.errors import ConfigurationError, DegenerateConstraintError
from sasc.problems import make_min_norm_hyperplane_problem
from sasc.prox import (
    BoxSet,
    hyperplane_indicator_prox,
    l1_prox,
    soft_threshold,
    zero_prox,
)
from sasc.smoothing import (
    CertificateInputs,
    _CsrRows,
    ConstraintSample,
    ConstraintSampler,
    RowBatch,
    RowConstraintSet,
    _EvalSet,
    feasibility_metric,
    saddle_point_residuals,
    moreau_grad,
    smoothed_gap,
)


class TestMoreauGrad:
    def test_feasible_point_vanishes(self):
        v, g = moreau_grad(0.1, BoxSet(-0.2, 0.2), 1.0)
        assert v == 0.0 and g == 0.0

    def test_interval_clamp_values(self):
        # projection 0.2, distance 1.8; value = dist^2/(2 beta), grad = dist/beta
        v, g = moreau_grad(2.0, BoxSet(-0.2, 0.2), 1.0)
        assert_allclose([v, g], [1.8 ** 2 / 2.0, 1.8], atol=1e-15)
        v, g = moreau_grad(2.0, BoxSet(-0.2, 0.2), 0.5)
        assert_allclose([v, g], [1.8 ** 2 / 1.0, 3.6], atol=1e-15)

    def test_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            moreau_grad(1.0, BoxSet(0.0, 0.0), 0.0)

    @pytest.mark.parametrize("inner", [
        BoxSet(0.7, 0.7), BoxSet(-0.2, 0.2), BoxSet(1.0, np.inf), l1_prox(1.0),
    ], ids=["singleton", "interval", "halfspace", "generic-prox"])
    def test_gradient_matches_finite_differences(self, inner):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            z = float(rng.uniform(-4, 4))
            beta = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
            # stay away from projection-boundary kinks and zero-gradient flats
            kinks = {
                "singleton": [],
                "interval": [-0.2, 0.2],
                "halfspace": [1.0],
                "generic-prox": [-beta, beta],
            }[self._ident(inner)]
            if any(abs(z - k) < 1e-3 for k in kinks):
                continue
            v, g = moreau_grad(np.array([z]), inner, beta)
            if abs(g[0]) < 0.1:
                continue
            h = 1e-6
            vp, _ = moreau_grad(np.array([z + h]), inner, beta)
            vm, _ = moreau_grad(np.array([z - h]), inner, beta)
            fd = (vp - vm) / (2 * h)
            assert abs(fd - g[0]) / abs(g[0]) <= 1e-5
            checked += 1

    @staticmethod
    def _ident(inner):
        from sasc.prox import BoxSet, ProxHandle
        if isinstance(inner, ProxHandle):
            return "generic-prox"
        assert isinstance(inner, BoxSet)
        if inner.lo == inner.hi:
            return "singleton"
        return "halfspace" if np.isinf(inner.hi) else "interval"

    def test_lipschitz_bound(self):
        # gradient of the smoothed term is (1/beta)-Lipschitz
        rng = np.random.default_rng(12)
        for inner in (BoxSet(0.3, 0.3), BoxSet(-0.2, 0.2), BoxSet(1.0, np.inf)):
            for beta in (0.25, 1.0, 3.0):
                z1 = rng.uniform(-6, 6, size=10_000)
                z2 = rng.uniform(-6, 6, size=10_000)
                g1 = (z1 - inner.project(z1)) / beta
                g2 = (z2 - inner.project(z2)) / beta
                assert np.all(np.abs(g1 - g2) <= np.abs(z1 - z2) / beta + 1e-10)

    def test_envelope_of_l1_against_grid(self):
        # independent oracle: g_beta(z) = min_u |u| + (z-u)^2 / (2 beta)
        h = l1_prox(1.0)
        for z, beta in [(2.3, 0.5), (-0.4, 1.7), (0.9, 0.2)]:
            v, _ = moreau_grad(np.array([z]), h, beta)
            us = np.arange(-6, 6, 1e-4)
            brute = np.min(np.abs(us) + (z - us) ** 2 / (2 * beta))
            assert abs(v - brute) <= 1e-6


def _one_row(row, lo, hi, csr):
    """RowConstraintSet.normalized of one row, stored dense or as CSR."""
    row = np.array([row], dtype=float)
    if csr:
        cols = np.flatnonzero(row[0])
        row = _CsrRows(np.array([0, len(cols)]), cols, row[0, cols],
                       row.shape[1])
    s = RowConstraintSet.normalized(row, lo, hi)
    return s.rows[0], s.lo[0], s.hi[0]


class TestNormalizeConstraint:
    def test_scales_row_and_singleton(self):
        for csr in (False, True):
            row, lo, hi = _one_row([3.0, 4.0], 5.0, 5.0, csr)
            assert_allclose(row, [0.6, 0.8])
            assert_allclose([lo, hi], [1.0, 1.0])

    def test_unit_norm_unchanged(self):
        row, lo, hi = _one_row([0.6, 0.8], -1.0, 1.0, False)
        assert_allclose(row, [0.6, 0.8], atol=1e-15)
        assert_allclose([lo, hi], [-1.0, 1.0])

    def test_scales_interval_endpoints(self):
        for csr in (False, True):
            row, lo, hi = _one_row([0.0, 2.0], -0.2, 0.2, csr)
            assert_allclose(row, [0.0, 1.0])
            assert_allclose([lo, hi], [-0.1, 0.1])

    def test_solution_set_preserved(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal(3) * 2
        s = RowConstraintSet.normalized(a[None, :], -0.2, 0.2)
        for _ in range(50):
            x = rng.standard_normal(3)
            orig = abs(float(a @ x)) <= 0.2
            new = s.distances(x)[0] <= 1e-12
            assert orig == new
        assert abs(np.linalg.norm(s.rows[0]) - 1.0) <= 1e-12

    def test_zero_operator_rejected(self):
        for csr in (False, True):
            with pytest.raises(DegenerateConstraintError):
                _one_row([0.0, 0.0, 0.0], 1.0, 1.0, csr)


def _two_point_problem():
    """Support of two constraints whose distances at x = 0 are 3 and 4."""
    rows = np.array([[1.0, 0.0], [1.0, 0.0]])
    sampler = RowConstraintSet(rows, np.array([3.0, -4.0]), np.array([3.0, -4.0]))
    return CompositeProblem(
        dim=2, grad_f=lambda x, xi=None: 0.0, f_value=lambda x, xi=None: 0.0,
        prox_h=zero_prox(), constraints=sampler, norm_bound=1.0)


class TestFeasibilityMetric:
    def test_feasible_point_zero(self, min_norm_toy):
        problem, cert = min_norm_toy
        assert feasibility_metric(cert.x_star, problem.constraints, 1, 0) == 0.0

    def test_exact_enumeration_hand_value(self):
        # hand arithmetic: sqrt((3^2 + 4^2) / 2) = sqrt(12.5)
        problem = _two_point_problem()
        got = feasibility_metric(np.zeros(2), problem.constraints, 2, 0)
        assert_allclose(got, np.sqrt(12.5), atol=1e-12)

    def test_single_sample_is_distance(self, min_norm_toy):
        problem, _ = min_norm_toy
        x = np.array([-1.5, 2.0])
        assert_allclose(feasibility_metric(x, problem.constraints, 1, 0), 2.5)

    def test_exact_matches_population(self):
        rng = np.random.default_rng(14)
        rows = rng.standard_normal((37, 4))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        b = rng.standard_normal(37)
        sampler = RowConstraintSet(rows, b, b)
        x = rng.standard_normal(4)
        pop = np.sqrt(np.mean((rows @ x - b) ** 2))
        assert_allclose(feasibility_metric(x, sampler, 37, 0), pop, atol=1e-12)
        # oversampling also enumerates exactly
        assert_allclose(feasibility_metric(x, sampler, 500, 0), pop, atol=1e-12)

    def test_seeded_determinism(self):
        problem = _two_point_problem()
        x = np.array([1.0, 0.0])
        a = feasibility_metric(x, problem.constraints, 1, seed=42)
        b = feasibility_metric(x, problem.constraints, 1, seed=42)
        c = feasibility_metric(x, problem.constraints, 1, seed=43)
        assert a == b
        assert c in (2.0, 5.0) and a in (2.0, 5.0)

    def test_empty_and_invalid(self):
        problem = _two_point_problem()
        with pytest.raises(ValueError, match="n_samples"):
            feasibility_metric(np.zeros(2), problem.constraints, 0, 0)
        with pytest.raises(ValueError):
            RowConstraintSet(np.zeros((0, 2)), np.array([]), np.array([]))

        class EmptySupport:
            def support(self):
                return []

        with pytest.raises(ValueError, match="empty"):
            feasibility_metric(np.zeros(2), EmptySupport(), 3, 0)


class TestSmoothedGap:
    def test_zero_at_solution(self, min_norm_toy):
        problem, cert = min_norm_toy
        for beta in (0.1, 1.0, 7.0):
            assert_allclose(smoothed_gap(cert.x_star, beta, problem, cert, 1, 0),
                            0.0, atol=1e-15)

    def test_origin_balances_exactly(self, min_norm_toy):
        # P(0) - P* = -1/2 and penalty = 1/(2 beta) * 1; they cancel at beta = 1
        problem, cert = min_norm_toy
        assert_allclose(smoothed_gap(np.zeros(2), 1.0, problem, cert, 1, 0),
                        0.0, atol=1e-15)

    def test_feasible_point_reduces_to_gap(self, min_norm_toy):
        problem, cert = min_norm_toy
        x = np.array([1.0, 3.0])  # feasible, P(x) = 5 > 1/2
        got = smoothed_gap(x, 0.37, problem, cert, 1, 0)
        assert_allclose(got, 0.5 * 10.0 - 0.5, atol=1e-14)
        assert got > 0


class TestSaddlePointResiduals:
    def test_at_solution(self, min_norm_toy):
        problem, cert = min_norm_toy
        r = saddle_point_residuals(cert.x_star, 1.0, problem, cert, 1, 0)
        assert min(r) >= 0
        assert_allclose(r[2], 0.0, atol=1e-15)
        assert_allclose(r[3], 4.0 * cert.y_star_norm ** 2, atol=1e-14)

    def test_hand_derived_origin_values(self, min_norm_toy):
        # analytic oracle at x = 0, beta = 1: gap = -1/2, E[dist^2] = 1
        problem, cert = min_norm_toy
        gap, msd, y2 = -0.5, 1.0, 1.0
        s_beta = gap + msd / 2.0
        expected = (s_beta + 0.5 * y2,
                    gap + msd / 4.0 + y2,
                    s_beta - gap,
                    4.0 * y2 + 4.0 * s_beta - msd)
        got = saddle_point_residuals(np.zeros(2), 1.0, problem, cert, 1, 0)
        assert_allclose(got, expected, atol=1e-15)
        assert_allclose(got, (0.5, 0.75, 0.5, 3.0), atol=1e-15)

    def test_random_draws_all_nonnegative(self, min_norm_toy):
        problem, cert = min_norm_toy
        rng = np.random.default_rng(15)
        worst = np.inf
        for _ in range(1000):
            x = rng.uniform(-5, 5, size=2)
            beta = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
            r = saddle_point_residuals(x, beta, problem, cert, 1, 0)
            worst = min(worst, min(r))
        assert worst >= -1e-9

    def test_bad_beta(self, min_norm_toy):
        problem, cert = min_norm_toy
        with pytest.raises(ValueError, match="beta"):
            saddle_point_residuals(np.zeros(2), -1.0, problem, cert, 1, 0)


class TestCertificateInputs:
    def test_validation(self):
        with pytest.raises(ValueError):
            CertificateInputs(y_star_norm=-1.0)
        with pytest.raises(ValueError):
            CertificateInputs(sigma_f=-0.5)

    @pytest.mark.parametrize("name", ["y_star_norm", "sigma_f"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            CertificateInputs(**{name: value})


class TestRowConstraintSet:
    def test_sample_contents(self):
        rows = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = RowConstraintSet(rows, np.array([1.0, -np.inf]),
                             np.array([1.0, np.inf]))
        samp = s.sample(0)
        assert isinstance(samp, ConstraintSample)
        assert samp.index == 0
        assert_allclose(samp.apply(np.array([2.0, 3.0])), 3.0)
        assert_allclose(samp.adjoint(2.0), [0.0, 2.0])

    def test_normalized_drops_harmless_zero_rows(self):
        rows = np.array([[3.0, 4.0], [0.0, 0.0]])
        s = RowConstraintSet.normalized(rows, -1.0, 1.0)
        assert len(s) == 1
        assert_allclose(s.rows[0], [0.6, 0.8])
        # CSR rows: an empty row and a row of stored zeros are both dropped
        csr = _CsrRows(np.array([0, 0, 2, 3, 5]), np.array([0, 1, 1, 0, 1]),
                       np.array([0.0, 0.0, 2.0, 3.0, 4.0]), 2)
        s = RowConstraintSet.normalized(csr, -1.0, np.array([1.0, 2.0, 3.0, 4.0]))
        assert len(s) == 2
        assert np.array_equal(s.rows[0], [0.0, 1.0])
        assert np.array_equal(s.rows[1], [0.6, 0.8])
        assert_allclose(s.hi, [1.5, 0.8])

    def test_normalized_rejects_fatal_zero_rows(self):
        rows = np.array([[0.0, 0.0]])
        with pytest.raises(DegenerateConstraintError):
            RowConstraintSet.normalized(rows, 1.0, np.inf)

    def test_matrix_constraint_end_to_end(self):
        # m > 1 path: spectral-norm rescaling, vector target set, adjoint
        # A = diag(3, 4) with target box [1, 2] x [-1, 1], divided by ||A|| = 4
        A = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        s = ConstraintSample(A / 4.0, BoxSet(np.array([0.25, -0.25]),
                                             np.array([0.5, 0.25])))
        assert_allclose(s.norm(), 1.0, atol=1e-12)
        x = np.array([1.0, 0.5, -2.0])
        assert_allclose(s.apply(x), [0.75, 0.5])
        assert_allclose(s.adjoint(np.array([1.0, 2.0])), [0.75, 2.0, 0.0])
        # hand-computed projection onto the rescaled box [.25,.5] x [-.25,.25]
        v, g = moreau_grad(s.apply(x), s.set_proj, 0.5)
        assert_allclose(v, 0.125, atol=1e-15)
        assert_allclose(g, [0.5, 0.5], atol=1e-15)
        # solutions of the original inclusion are exactly preserved
        x_in = np.array([0.5, 0.1, 7.0])  # A x = [1.5, 0.4] inside the box
        assert s.set_proj.distance(s.apply(x_in)) <= 1e-12

    def test_matrix_constraint_inner_step(self):
        from sasc.core import sasc_inner_step
        from sasc.prox import zero_prox

        # A = diag(3, 4) with target box [1, 2] x [-1, 1], divided by ||A|| = 4
        A = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        sample = ConstraintSample(A / 4.0, BoxSet(np.array([0.25, -0.25]),
                                                  np.array([0.5, 0.25])))

        class OneMatrix:
            def draw(self, rng):
                return sample

            def draw_batch(self, rng, k):
                return [sample] * k

            def support(self):
                return [sample]

            def distances(self, x, batch=None):
                return None

        prob = CompositeProblem(
            dim=3, grad_f=lambda x, xi=None: 0.0,
            f_value=lambda x, xi=None: 0.0, prox_h=zero_prox(),
            constraints=OneMatrix(), norm_bound=1.0)
        x = np.array([1.0, 0.5, -2.0])
        out = sasc_inner_step(x, [sample], 0.5, 1.0, prob)
        # z = [.75,.5], proj = [.5,.25], adjoint pullback = [.1875,.25,0]
        assert_allclose(out, [0.90625, 0.375, -2.0], atol=1e-15)

    def test_draw_batch_matches_distances(self):
        rng_rows = np.random.default_rng(16)
        rows = rng_rows.standard_normal((9, 3))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        b = rng_rows.standard_normal(9)
        s = RowConstraintSet(rows, b, b)
        x = rng_rows.standard_normal(3)
        batch = s.draw_batch(rng_rows, 12)
        d_vec = s.distances(x, batch)
        d_ref = [sample.set_proj.distance(sample.apply(x)) for sample in batch]
        assert_allclose(d_vec, d_ref, atol=1e-14)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_held_out_rows_are_gathered_once(self, storage):
        rng = np.random.default_rng(17)
        n, d = 40, 6
        dense = rng.standard_normal((n, d))
        rows = dense if storage == "dense" else _CsrRows(
            np.arange(n + 1) * d, np.tile(np.arange(d), n), dense.ravel(), d)
        s = RowConstraintSet(rows, -0.5, 0.5)
        handed = []

        class Forwarding:
            def support(self):
                return s.support()

            def distances(self, x, batch=None):
                handed.append(batch)
                return s.distances(x, batch)

        held_out = _EvalSet(Forwarding(), 7, np.random.default_rng(3))
        idx = np.random.default_rng(3).integers(0, n, size=7)
        for _ in range(3):
            x = rng.standard_normal(d)
            got = held_out.mean_sq_distance(x)
            assert got == float(np.mean(s.distances(x, RowBatch(s, idx)) ** 2))
        # one gathered block, handed to the hook at every evaluation
        assert all(h is handed[0] for h in handed)
        assert np.array_equal(handed[0].lo, s.lo[idx])


@pytest.mark.parametrize("call, error, match", [
    (lambda: RowConstraintSet(np.eye(2), np.array([1.0, 0.0]),
                              np.array([0.0, 0.0])), ValueError, "lo exceeds hi"),
    (lambda: moreau_grad(1.0, object(), 1.0), TypeError,
     "unsupported inner term"),
], ids=["row-set-lo-above-hi", "moreau-grad-unsupported-inner"])
def test_refuses_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


_TOY, _TOY_CERT = make_min_norm_hyperplane_problem()


# a `<= 0` test lets NaN through, and an infinite weight, step or smoothing
# turns the result into NaN or zeros; each boundary refuses both
@pytest.mark.parametrize("call, match", [
    (lambda: l1_prox(np.nan), "weight"),
    (lambda: l1_prox(np.inf), "weight"),
    (lambda: l1_prox(1.0).evaluate(np.ones(2), np.nan), "step"),
    (lambda: soft_threshold(np.ones(2), np.nan), "tau"),
    (lambda: moreau_grad(1.0, BoxSet(0.0, 0.0), np.nan), "beta"),
    (lambda: sasc_inner_step(np.zeros(2), _TOY.constraints.sample(0),
                             np.nan, 1.0, _TOY), "alpha_s"),
    (lambda: smoothed_gap(np.zeros(2), np.nan, _TOY, _TOY_CERT, 1, 0), "beta"),
    (lambda: saddle_point_residuals(np.zeros(2), np.nan, _TOY, _TOY_CERT, 1, 0),
     "beta"),
    (lambda: hyperplane_indicator_prox(np.ones(2), np.nan), "offset"),
    (lambda: RowConstraintSet(np.eye(2), [0.0, np.nan], 1.0), "NaN"),
    (lambda: RowConstraintSet(np.eye(2), 0.0, [np.nan, 1.0]), "NaN"),
], ids=["l1-weight-nan", "l1-weight-inf", "l1-step-nan", "shrink-tau-nan",
        "moreau-beta-nan", "inner-step-alpha-nan", "smoothed-gap-beta-nan",
        "residuals-beta-nan", "plane-offset-nan", "row-set-lo-nan",
        "row-set-hi-nan"])
def test_refuses_nan_and_inf(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_infinite_row_endpoints_stay_legal():
    rows = RowConstraintSet(np.eye(2), [-np.inf, 0.0], [1.0, np.inf])
    assert np.array_equal(rows.distances(np.array([2.0, -1.0])), [1.0, 1.0])


def _random_rows(n, d=3, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    lo = rng.standard_normal(n)
    return RowConstraintSet(rows, lo, lo + rng.uniform(0.0, 1.0, n))


class TestIndexStream:
    # chunk sizes that straddle the 4096-index chunks of the solvers
    CHUNKS = (4096, 1, 903, 4096, 2)

    @pytest.mark.parametrize("n", [1, 7, 20_000])
    def test_chunked_draw_batch_matches_scalar_draws(self, n):
        s = _random_rows(n)
        r_chunk, r_scalar = np.random.default_rng(5), np.random.default_rng(5)
        idx = np.concatenate([s.draw_batch(r_chunk, k).idx for k in self.CHUNKS])
        scalar = [s.draw(r_scalar).index for _ in range(sum(self.CHUNKS))]
        assert idx.tolist() == scalar
        assert r_chunk.bit_generator.state == r_scalar.bit_generator.state

    def test_chunked_integers_match_scalar_integers_beyond_32_bits(self):
        # the same generator calls as draw / draw_batch, for a row count
        # whose indices no longer fit in 32 bits
        n = 2 ** 33
        r_chunk, r_scalar = np.random.default_rng(5), np.random.default_rng(5)
        chunked = np.concatenate([r_chunk.integers(0, n, size=k)
                                  for k in self.CHUNKS])
        scalar = [int(r_scalar.integers(n)) for _ in range(sum(self.CHUNKS))]
        assert chunked.tolist() == scalar
        assert r_chunk.bit_generator.state == r_scalar.bit_generator.state

    def test_batch_is_a_lazy_sequence_of_samples(self):
        s = _random_rows(9)
        batch = s.draw_batch(np.random.default_rng(1), 6)
        assert isinstance(batch, RowBatch) and len(batch) == 6
        assert_allclose(batch.lo, s.lo[batch.idx])
        assert_allclose(batch.hi, s.hi[batch.idx])
        samples = list(batch)
        assert [x.index for x in samples] == batch.idx.tolist()
        for sample, i in zip(samples, batch.idx):
            assert isinstance(sample, ConstraintSample)
            assert np.array_equal(sample.row, s.rows[i])
            assert sample.set_proj == BoxSet(s.lo[i], s.hi[i])
        tail = batch[2:5]
        assert isinstance(tail, RowBatch)
        assert tail.idx.tolist() == batch.idx[2:5].tolist()
        assert_allclose(tail.lo, s.lo[tail.idx])
        assert batch[-1].index == batch.idx[-1]
        picked = batch[np.array([4, 0])]
        assert picked.idx.tolist() == [batch.idx[4], batch.idx[0]]

    def test_support_is_every_row_in_order(self):
        s = _random_rows(5)
        sup = s.support()
        assert isinstance(sup, RowBatch)
        assert [x.index for x in sup] == list(range(5))
        assert s.sample(-1).index == 4
        with pytest.raises(IndexError):
            s.sample(5)


def _stored(dense, storage):
    """``dense`` as the rows of a RowConstraintSet: the array, or CSR rows
    with every entry stored."""
    if storage == "dense":
        return dense
    n, d = dense.shape
    return _CsrRows(np.arange(n + 1) * d, np.tile(np.arange(d), n),
                    dense.ravel(), d)


def _as_dense(rows):
    return rows if isinstance(rows, np.ndarray) else np.array(
        [rows[i] for i in range(rows.shape[0])])


@pytest.mark.parametrize("storage", ["dense", "csr"])
class TestBatchRows:
    def _set(self, storage, n=12, d=4):
        rng = np.random.default_rng(31)
        lo = rng.standard_normal(n)
        return RowConstraintSet(_stored(rng.standard_normal((n, d)), storage),
                                lo, lo + 0.5)

    def test_support_holds_the_set_arrays(self, storage):
        s = self._set(storage)
        sup = s.support()
        assert sup.rows is s.rows
        assert sup.lo is s.lo and sup.hi is s.hi

    def test_rows_are_gathered_once_and_kept(self, storage):
        s = self._set(storage)
        batch = s.draw_batch(np.random.default_rng(2), 5)
        rows = batch.rows
        assert batch.rows is rows
        assert rows.shape == (5, 4)
        assert np.array_equal(_as_dense(rows), _as_dense(s.rows)[batch.idx])
        # a slice or an index array selects again, from the owner's rows
        assert np.array_equal(_as_dense(batch[1:3].rows),
                              _as_dense(s.rows)[batch.idx[1:3]])
        assert np.array_equal(_as_dense(batch[np.array([4, 0])].rows),
                              _as_dense(s.rows)[batch.idx[[4, 0]]])

    def test_distances_read_every_selection_alike(self, storage):
        s = self._set(storage)
        x = np.random.default_rng(3).standard_normal(4)
        every = s.distances(x)
        assert np.array_equal(s.distances(x, s.support()), every)
        idx = np.array([7, 0, 7, 11])
        batch = RowBatch(s, idx)
        assert np.array_equal(s.distances(x, batch), every[idx])
        assert np.array_equal(s.distances(x, batch[1:3]), every[idx[1:3]])
        rows = batch.rows
        s.distances(x, batch)
        assert batch.rows is rows


class TestEvalSetSamplers:
    """Held-out sets of samplers that are not row sets."""

    @staticmethod
    def _samples(set_of):
        rng = np.random.default_rng(41)
        rows = rng.standard_normal((15, 3))
        lo = rng.standard_normal(15)
        hi = lo + rng.uniform(0.0, 1.0, 15)
        return [ConstraintSample(rows[i], set_of(lo[i], hi[i]), i)
                for i in range(15)]

    def test_finite_support_hook_receives_the_drawn_samples(self):
        samples = self._samples(BoxSet)
        handed = []

        class Finite(ConstraintSampler):
            def support(self):
                return samples

        class Hooked(Finite):
            def distances(self, x, batch=None):
                handed.append(batch)
                return np.array([s.set_proj.distance(s.apply(x))
                                 for s in batch])

        hooked = _EvalSet(Hooked(), 6, np.random.default_rng(5))
        plain = _EvalSet(Finite(), 6, np.random.default_rng(5))
        drawn = np.random.default_rng(5).integers(0, 15, size=6)
        x = np.random.default_rng(6).standard_normal(3)
        got = hooked.mean_sq_distance(x)
        assert len(handed) == 1 and handed[0] is hooked.samples
        assert [s.index for s in handed[0]] == drawn.tolist()
        # without the hook, the per-sample fallback measures the same samples
        assert plain.mean_sq_distance(x) == got

    def test_infinite_sampler_hook_receives_the_held_out_samples(self):
        samples = self._samples(BoxSet)
        handed = []

        class Infinite(ConstraintSampler):
            def draw(self, rng):
                return samples[int(rng.integers(len(samples)))]

        class Hooked(Infinite):
            def distances(self, x, batch=None):
                handed.append(batch)
                return np.array([s.set_proj.distance(s.apply(x))
                                 for s in batch])

        hooked = _EvalSet(Hooked(), 6, np.random.default_rng(5))
        plain = _EvalSet(Infinite(), 6, np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal(3)
        got = hooked.mean_sq_distance(x)
        assert len(handed) == 1 and handed[0] is hooked.samples
        assert len(handed[0]) == 6
        assert plain.mean_sq_distance(x) == got

    def test_custom_set_runs_like_the_box_it_projects_onto(self):
        from sasc.core import SascConfig, run_sasc
        from sasc.prox import CustomSet

        def custom(lo, hi):
            return CustomSet(lambda z: np.minimum(np.maximum(z, lo), hi))

        def problem(set_of):
            samples = self._samples(set_of)

            class Generic(ConstraintSampler):
                def draw(self, rng):
                    return samples[int(rng.integers(len(samples)))]

            return CompositeProblem(
                dim=3, grad_f=lambda x, batch: 0.0,
                f_value=lambda x, batch: 0.0, prox_h=l1_prox(0.1),
                constraints=Generic(),
                norm_bound=max(sample.norm() for sample in samples))

        cfg = SascConfig(alpha0=0.05, omega=2.0, m0=8, epochs=6, seed=4,
                         minibatch=2, checkpoint_every=40, eval_samples=30)
        x_box, trace_box = run_sasc(problem(BoxSet), cfg)
        x_custom, trace_custom = run_sasc(problem(custom), cfg)
        assert x_custom.tobytes() == x_box.tobytes()
        assert (trace_custom.column("feasibility").tobytes()
                == trace_box.column("feasibility").tobytes())
        assert trace_box.column("feasibility")[-1] > 0.0
