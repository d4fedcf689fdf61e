import numpy as np
import pytest
from numpy.testing import assert_allclose

from sasc.errors import DegenerateConstraintError
from sasc.prox import (
    BoxSet,
    ProxHandle,
    _shrink,
    _soft,
    hyperplane_indicator_prox,
    l1_prox,
    zero_prox,
)


def project_hyperplane(z, a, b):
    """Project z onto the hyperplane {x : <a, x> = b}.

    The plain reference that ``hyperplane_indicator_prox`` is tested
    against: it checks the normal and computes ||a||^2 on every call, where
    the prox handle does both once.
    """
    z = np.asarray(z, dtype=float)
    a = np.asarray(a, dtype=float)
    nrm2 = float(a @ a)
    if nrm2 == 0.0:
        raise DegenerateConstraintError("project_hyperplane: normal vector is zero")
    return z - ((a @ z - b) / nrm2) * a


def soft_threshold(z, tau):
    """Soft thresholding by tau through the public l1 prox: weight 1, step
    tau."""
    return l1_prox(1.0).evaluate(z, tau)


def grid_argmin_1d(objective, lo, hi, step=1e-4):
    """Brute-force oracle: minimize a scalar objective on a uniform grid."""
    xs = np.arange(lo, hi + step, step)
    return xs[np.argmin(objective(xs))]


class TestSoftThreshold:
    def test_componentwise_shrinkage(self):
        assert_allclose(soft_threshold(np.array([3.0, -0.5, 1.0]), 1.0),
                        [2.0, 0.0, 0.0])

    def test_zero_fixed_point(self):
        assert_allclose(soft_threshold(np.zeros(2), 5.0), [0.0, 0.0])

    def test_against_grid_minimization(self):
        # independent oracle: the 1-D prox objective tau|x| + (x-z)^2/2
        z, tau = np.array([1.5, -2.5]), 0.5
        out = soft_threshold(z, tau)
        for zi, oi in zip(z, out):
            xg = grid_argmin_1d(lambda x: tau * np.abs(x) + 0.5 * (x - zi) ** 2,
                                zi - abs(zi) - 1, zi + abs(zi) + 1)
            assert abs(oi - xg) <= 1e-3
        assert_allclose(out, [1.0, -2.0], atol=1e-12)

    def test_random_grid_property(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = float(rng.uniform(-4, 4))
            tau = float(rng.uniform(0.05, 3))
            out = float(soft_threshold(np.array([z]), tau)[0])
            xg = grid_argmin_1d(lambda x: tau * np.abs(x) + 0.5 * (x - z) ** 2,
                                -8, 8)
            assert abs(out - xg) <= 1e-3

    def test_zero_result_keeps_the_sign_of_its_input(self):
        out = soft_threshold(np.array([-0.0, 0.0, -0.5, 0.5, -3.0]), 1.0)
        assert np.signbit(out).tolist() == [True, False, True, False, True]
        assert out.tolist() == [0.0, 0.0, 0.0, 0.0, -2.0]

    def test_matches_sign_times_shrunk_magnitude_off_negative_zero(self):
        rng = np.random.default_rng(3)
        z = np.concatenate([rng.standard_normal(1000), [0.0, 1.0, -1.0]])
        expected = np.sign(z) * np.maximum(np.abs(z) - 1.0, 0.0)
        assert soft_threshold(z, 1.0).tobytes() == expected.tobytes()
        assert float(soft_threshold(np.float64(-2.5), 1.0)) == -1.5

    def test_nonfinite_input_stays_nonfinite(self):
        # no finiteness scan: the solvers' own checks see what is left
        out = soft_threshold(np.array([1.0, np.nan, np.inf, -np.inf]), 1.0)
        assert np.isnan(out[1])
        assert out[[0, 2, 3]].tolist() == [0.0, np.inf, -np.inf]

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError, match="step"):
            soft_threshold(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("tau", [0.0, 5e-324, 0.3, 1.0, 1e300])
    def test_clip_form_is_copysign_of_the_shrunk_magnitude_byte_for_byte(
            self, tau):
        # z - clip(z, -tau, tau) with z's sign against the textbook form,
        # on signed zeros and NaNs, entries at and next to +-tau, both
        # infinities, subnormals and random values; whole and 0-d
        rng = np.random.default_rng(7)
        near = np.nextafter(tau, [np.inf, -np.inf])
        z = np.concatenate([
            [0.0, -0.0, tau, -tau, np.inf, -np.inf, np.nan, -np.nan,
             5e-324, -5e-324], near, -near, 3.0 * rng.standard_normal(500),
            1e-310 * rng.standard_normal(50)])
        want = np.copysign(np.maximum(np.abs(z) - tau, 0.0), z)
        assert _shrink(z, tau).tobytes() == want.tobytes()
        for v, w in zip(z, want):
            assert np.float64(_shrink(np.float64(v), tau)).tobytes() == \
                w.tobytes()
        # the row steps' form differs only in the sign of a zero result
        soft = _soft(z, tau)
        assert np.array_equal(soft, want, equal_nan=True)
        assert not np.signbit(soft[soft == 0.0]).any()


class TestProjectHyperplane:
    def test_coordinate_plane(self):
        assert_allclose(project_hyperplane([1.0, 1.0], [1.0, 0.0], 0.0),
                        [0.0, 1.0])

    def test_simplex_plane_shift(self):
        # derived by hand: add (1 - 0.6)/3 to every coordinate
        out = project_hyperplane([0.2, 0.2, 0.2], [1.0, 1.0, 1.0], 1.0)
        assert_allclose(out, np.full(3, 0.2 + 0.4 / 3), atol=1e-15)
        assert abs(np.ones(3) @ out - 1.0) <= 1e-12

    def test_on_plane_fixed_point(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4)
        z = rng.standard_normal(4)
        z_on = z - ((a @ z - 2.0) / (a @ a)) * a
        assert_allclose(project_hyperplane(z_on, a, 2.0), z_on, atol=1e-12)

    def test_minimizes_distance_over_plane(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            a = rng.standard_normal(d)
            b = float(rng.standard_normal())
            z = rng.standard_normal(d)
            p = project_hyperplane(z, a, b)
            assert abs(a @ p - b) <= 1e-12
            for _ in range(100):
                y = rng.standard_normal(d)
                y = y - ((a @ y - b) / (a @ a)) * a  # random on-plane point
                assert np.linalg.norm(p - z) <= np.linalg.norm(y - z) + 1e-12

    def test_zero_normal_rejected(self):
        with pytest.raises(DegenerateConstraintError):
            project_hyperplane([1.0], [0.0], 1.0)


class TestScalarProjections:
    def test_halfspace(self):
        assert BoxSet(1.0, np.inf).project(0.4) == 1.0
        assert BoxSet(1.0, np.inf).project(2.0) == 2.0
        assert BoxSet(1.0, np.inf).project(-3.0) == 1.0

    def test_interval(self):
        # the bundled slab width 0.2 forces the clamp
        assert BoxSet(-0.2, 0.2).project(2.0) == 0.2
        assert BoxSet(-0.2, 0.2).project(0.1) == 0.1
        assert BoxSet(-0.2, 0.2).project(-5.0) == -0.2

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            BoxSet(1.0, -1.0)


class TestProjectorInvariants:
    # idempotence and nonexpansiveness on 1e4 random pairs, 1e-12 slack

    @pytest.mark.parametrize("proj", [
        BoxSet(0.7, 0.7),
        BoxSet(-0.2, 0.2),
        BoxSet(1.0, np.inf),
    ], ids=["singleton", "interval", "halfspace"])
    def test_idempotent_nonexpansive_scalar_sets(self, proj):
        rng = np.random.default_rng(3)
        z1 = rng.uniform(-6, 6, size=10_000)
        z2 = rng.uniform(-6, 6, size=10_000)
        p1, p2 = proj.project(z1), proj.project(z2)
        assert np.all(np.abs(proj.project(p1) - p1) <= 1e-12)
        assert np.all(np.abs(p1 - p2) <= np.abs(z1 - z2) + 1e-12)

    def test_idempotent_nonexpansive_vector_box(self):
        proj = BoxSet(np.array([-1.0, 0.0]), np.array([1.0, np.inf]))
        rng = np.random.default_rng(3)
        z1 = rng.uniform(-6, 6, size=(10_000, 2))
        z2 = rng.uniform(-6, 6, size=(10_000, 2))
        p1, p2 = proj.project(z1), proj.project(z2)
        assert np.all(np.linalg.norm(proj.project(p1) - p1, axis=1) <= 1e-12)
        assert np.all(np.linalg.norm(p1 - p2, axis=1)
                      <= np.linalg.norm(z1 - z2, axis=1) + 1e-12)

    def test_hyperplane_idempotent_nonexpansive(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(5), 0.3

        def proj_rows(Z):
            return Z - np.outer((Z @ a - b) / (a @ a), a)

        z1 = rng.standard_normal((10_000, 5))
        z2 = rng.standard_normal((10_000, 5))
        p1, p2 = proj_rows(z1), proj_rows(z2)
        # the row map agrees with the scalar implementation
        assert_allclose(p1[0], project_hyperplane(z1[0], a, b), atol=1e-14)
        assert np.all(np.linalg.norm(proj_rows(p1) - p1, axis=1) <= 1e-12)
        assert np.all(np.linalg.norm(p1 - p2, axis=1)
                      <= np.linalg.norm(z1 - z2, axis=1) + 1e-12)

    def test_distance_properties(self):
        proj = BoxSet(-0.2, 0.2)
        assert proj.distance(0.1) == 0.0
        assert_allclose(proj.distance(2.0), 1.8)
        assert proj.distance(np.array([0.0])) == 0.0


def _linear_prox(c):
    """phi = <c, .>: prox is the shifted identity z - step*c."""
    return ProxHandle(evaluate=lambda z, step: z - step * c,
                      objective_value=lambda x: float(c @ x))


class TestProxHandles:
    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_l1_prox_refuses_nonpositive_weight(self, weight):
        with pytest.raises(ValueError, match="weight must be positive"):
            l1_prox(weight)

    @pytest.mark.parametrize("handle,step", [
        (l1_prox(1.0), 0.7),
        (_linear_prox(np.array([0.5, -1.0])), 0.3),
        (zero_prox(), 1.0),
        (hyperplane_indicator_prox(np.array([1.0, 1.0]), 1.0), 2.0),
    ], ids=["l1", "linear", "zero", "plane"])
    def test_nonexpansive(self, handle, step):
        rng = np.random.default_rng(5)
        z1 = rng.standard_normal((2000, 2))
        z2 = rng.standard_normal((2000, 2))
        p1 = np.array([handle.evaluate(z, step) for z in z1])
        p2 = np.array([handle.evaluate(z, step) for z in z2])
        assert np.all(np.linalg.norm(p1 - p2, axis=1)
                      <= np.linalg.norm(z1 - z2, axis=1) + 1e-12)

    def test_l1_prox_minimizes_objective_1d(self):
        h = l1_prox(2.0)
        for z, step in [(1.7, 0.4), (-0.3, 1.5), (4.0, 0.25)]:
            out = float(h.evaluate(np.array([z]), step)[0])
            xg = grid_argmin_1d(
                lambda x: 2.0 * np.abs(x) + (x - z) ** 2 / (2 * step), -6, 6)
            assert abs(out - xg) <= 1e-3

    def test_l1_prox_checks_its_step_but_not_its_input(self):
        h = l1_prox(2.0)
        with pytest.raises(ValueError):
            h.evaluate(np.array([1.0]), 0.0)
        # the solvers check every iterate, so non-finite input passes through
        out = h.evaluate(np.array([np.nan, np.inf, 3.0]), 0.5)
        assert np.isnan(out[0]) and out[1] == np.inf and out[2] == 2.0

    def test_plane_prox_minimizes_over_plane(self):
        # 2-D indicator case: brute-force search along the plane
        h = hyperplane_indicator_prox(np.array([1.0, 2.0]), 1.0)
        z = np.array([2.0, -1.0])
        out = h.evaluate(z, 0.9)
        ts = np.arange(-4, 4, 1e-4)
        pts = np.stack([ts, (1.0 - ts) / 2.0], axis=1)  # all plane points
        best = pts[np.argmin(np.sum((pts - z) ** 2, axis=1))]
        assert np.linalg.norm(out - best) <= 1e-3
        assert h.objective_value(out) == 0.0
        assert h.objective_value(z) == np.inf

    def test_zero_value(self):
        assert zero_prox().objective_value(np.array([3.0])) == 0.0

    @pytest.mark.parametrize("a", [[0.0, 0.0], [1.0, np.nan], [np.inf, 1.0]],
                             ids=["zero", "nan", "inf"])
    def test_plane_prox_refuses_a_bad_normal_at_construction(self, a):
        with pytest.raises(DegenerateConstraintError,
                           match="hyperplane_indicator_prox"):
            hyperplane_indicator_prox(np.array(a), 1.0)

    def test_plane_prox_steps_as_project_hyperplane(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(7)
        h = hyperplane_indicator_prox(a, 0.3)
        for _ in range(100):
            z = rng.standard_normal(7)
            assert (h.evaluate(z, 1.0).tobytes()
                    == project_hyperplane(z, a, 0.3).tobytes())
