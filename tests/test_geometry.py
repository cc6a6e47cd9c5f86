import math

import numpy as np
import pytest

from levelcurv.errors import DegenerateChart, GradientTooSmall, OutOfDomain
from levelcurv.fields import RadialMinimalField, SphereDistanceField
from levelcurv.geometry import (
    Jet,
    TestFunctionSpec,
    _h_entries,
    align_frame,
    curvature_matrix,
    graph_curvature_matrix,
    make_jet,
    rotate_jet,
    sym_det,
    weighted_curvature,
)


def random_rotation(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


class TestJet:
    def test_rejects_asymmetric_hess(self):
        with pytest.raises(ValueError):
            Jet(np.array([1.0, 0.0]), np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            Jet(np.array([1.0]), np.array([[1.0]]))

    def test_make_jet_symmetrizes(self):
        jet = make_jet([1.0, 2.0], [[0.0, 1.0 + 1e-15], [1.0, 0.0]])
        assert np.array_equal(jet.hess, jet.hess.T)

    def test_rejects_asymmetric_fourth(self):
        fourth = np.zeros((2, 2, 2, 2))
        # symmetric in its last three indices, so only a swap of the first two shows it
        fourth[0, 1, 1, 1] = 1.0
        with pytest.raises(ValueError, match="fourth must be symmetric"):
            Jet(np.array([1.0, 0.0]), np.eye(2), np.zeros((2, 2, 2)), fourth)
        # the symmetrizer spreads the entry evenly over its four permutations
        jet = make_jet([1.0, 0.0], np.eye(2), np.zeros((2, 2, 2)), fourth)
        assert jet.fourth[1, 0, 1, 1] == jet.fourth[1, 1, 1, 0] == 0.25


class TestGraphCurvatureMatrix:
    def test_flat_gradient_identity_hessian(self):
        a = graph_curvature_matrix(np.zeros(2), np.eye(2))
        assert np.allclose(a, np.eye(2), atol=1e-15)

    def test_plane(self):
        a = graph_curvature_matrix(np.zeros(2), np.zeros((2, 2)))
        assert np.allclose(a, 0.0)

    def test_plane_curve_value(self):
        # v(x) = x^2/2 at x=1: curvature v'' / (1+v'^2)^(3/2) = 1/(2 sqrt 2)
        a = graph_curvature_matrix(np.array([1.0]), np.array([[1.0]]))
        assert a[0, 0] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-14)


class TestAlignFrame:
    def test_already_aligned(self):
        jet = make_jet([0.0, 0.0, 2.0], np.diag([1.0, 2.0, 3.0]))
        frame = align_frame(jet)
        assert np.allclose(frame.rotation, np.eye(3), atol=1e-15)
        assert np.allclose(frame.aligned_jet.grad, [0, 0, 2])

    def test_givens_3_4(self):
        jet = make_jet([3.0, 4.0], np.zeros((2, 2)))
        frame = align_frame(jet)
        assert frame.aligned_jet.grad == pytest.approx([0.0, 5.0], abs=1e-12)
        q = frame.rotation
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)

    def test_downward_gradient_flips(self):
        jet = make_jet([0.0, -1.0], np.zeros((2, 2)))
        frame = align_frame(jet)
        assert frame.aligned_jet.grad == pytest.approx([0.0, 1.0], abs=1e-15)
        assert np.allclose(frame.rotation, -np.eye(2))  # 180-degree rotation

    def test_gradient_floor(self):
        jet = make_jet([0.0, 1e-9], np.zeros((2, 2)))
        with pytest.raises(GradientTooSmall):
            align_frame(jet)

    def test_hessian_transforms_covariantly(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(3, 3))
        h = (h + h.T) / 2
        jet = make_jet(rng.normal(size=3), h)
        frame = align_frame(jet)
        q = frame.rotation
        assert np.allclose(frame.aligned_jet.hess, q @ jet.hess @ q.T, atol=1e-12)


class TestSecondFundamentalH:
    def test_aligned_diagonal(self):
        hess = np.diag([-1.0, -1.0, 0.0])
        jet = make_jet([0.0, 0.0, 2.0], hess)
        h = np.array(_h_entries(jet.grad, jet.hess))
        assert np.allclose(h, np.diag([-4.0, -4.0]))

    def test_level_curve_parabola(self):
        # u = x^2 + y at origin: h11 = 2 and b11 = -2 (curve y = -x^2)
        jet = make_jet([0.0, 1.0], np.array([[2.0, 0.0], [0.0, 0.0]]))
        h = np.array(_h_entries(jet.grad, jet.hess))
        assert h[0, 0] == pytest.approx(2.0)
        un = 1.0
        b11 = -abs(un) * h[0, 0] / (jet.grad_norm * un**3)
        assert b11 == pytest.approx(-2.0)

    def test_flat_level_sets(self):
        jet = make_jet([0.0, 0.0, 1.0], np.zeros((3, 3)))
        assert np.allclose(_h_entries(jet.grad, jet.hess), 0.0)


class TestCurvatureMatrix:
    def test_sphere_aligned(self):
        r = 2.0
        sph = SphereDistanceField(3)
        jet = sph.jet(np.array([0.0, 0.0, -r]))
        cd = curvature_matrix(jet, mode="aligned")
        assert np.allclose(cd.a, np.eye(2) / r, atol=1e-12)
        assert cd.gauss == pytest.approx(1.0 / r**2, abs=1e-12)
        assert not cd.flipped

    def test_planar_field(self):
        jet = make_jet([0.0, 0.0, 1.0], np.zeros((3, 3)))
        cd = curvature_matrix(jet)
        assert np.allclose(cd.a, 0.0)
        assert cd.gauss == 0.0
        assert np.array_equal(cd.principal, np.zeros(2))  # convex, not strictly

    def test_raw_matches_aligned_after_rotation(self):
        sph = SphereDistanceField(3)
        jet = sph.jet(np.array([0.0, 0.0, -2.0]))
        cd = curvature_matrix(jet, mode="aligned")
        q = random_rotation(3, seed=3)
        cd2 = curvature_matrix(rotate_jet(jet, q), mode="raw")
        assert np.allclose(np.sort(cd2.principal), np.sort(cd.principal), atol=1e-10)
        # random jets in both half-spaces u_n > 0 and u_n < 0 of the raw chart
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            for sign in (1.0, -1.0):
                for _ in range(10):
                    grad = rng.normal(size=n)
                    grad[-1] = sign * (0.3 + abs(grad[-1]))
                    h = rng.normal(size=(n, n))
                    jet = make_jet(grad, (h + h.T) / 2)
                    raw = curvature_matrix(jet, mode="raw")
                    aligned = curvature_matrix(jet, mode="aligned")
                    scale = max(1.0, float(np.max(np.abs(aligned.principal))))
                    assert raw.flipped == aligned.flipped
                    assert np.allclose(raw.principal, aligned.principal, rtol=0, atol=1e-12 * scale)
                    assert raw.gauss == pytest.approx(aligned.gauss, rel=1e-12, abs=1e-12)

    def test_raw_needs_un(self):
        jet = make_jet([1.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(DegenerateChart):
            curvature_matrix(jet, mode="raw")

    def test_orientation_flip_recorded(self):
        # outward-increasing distance field: raw matrix is negative definite
        jet = SphereDistanceField(3, sign=1.0).jet(np.array([0.0, 0.0, 3.0]))
        cd = curvature_matrix(jet)
        assert cd.flipped
        assert cd.gauss > 0
        assert np.allclose(cd.a_raw, -cd.a)


class TestRotationInvariance:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
    def test_principal_curvatures_invariant(self, n):
        rng = np.random.default_rng(100 + n)
        for trial in range(10):
            grad = rng.normal(size=n)
            while np.linalg.norm(grad) < 0.3:
                grad = rng.normal(size=n)
            h = rng.normal(size=(n, n))
            jet = make_jet(grad, (h + h.T) / 2)
            cd = curvature_matrix(jet, mode="aligned")
            q = random_rotation(n, seed=1000 * n + trial)
            cd2 = curvature_matrix(rotate_jet(jet, q), mode="aligned")
            assert np.allclose(cd.principal, cd2.principal, atol=1e-10)
            assert cd.gauss == pytest.approx(cd2.gauss, abs=1e-10, rel=1e-10)


class TestChartConsistency:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_graph_vs_level_set(self, n):
        # u = x_n - v(x'): the level set {u=0} is the graph of v
        rng = np.random.default_rng(40 + n)
        v_grad = rng.normal(size=n - 1)
        vh = rng.normal(size=(n - 1, n - 1))
        v_hess = (vh + vh.T) / 2
        grad = np.concatenate([-v_grad, [1.0]])
        hess = np.zeros((n, n))
        hess[: n - 1, : n - 1] = -v_hess
        a_graph = graph_curvature_matrix(v_grad, v_hess)
        # u = v(x') - x_n (u_n < 0) has the same level set and the opposite normal
        for sign in (1.0, -1.0):
            cd = curvature_matrix(make_jet(sign * grad, sign * hess), mode="raw")
            assert np.allclose(cd.a_raw, sign * a_graph, atol=1e-10)


class TestAlignedSimplification:
    def test_pre_flip_matrix_is_scaled_tangential_hessian(self):
        rng = np.random.default_rng(77)
        for n in (2, 3, 4):
            grad = rng.normal(size=n) + np.sign(rng.normal(size=n)) * 0.5
            h = rng.normal(size=(n, n))
            jet = make_jet(grad, (h + h.T) / 2)
            frame = align_frame(jet)
            aj = frame.aligned_jet
            cd = curvature_matrix(jet, mode="aligned")
            expected = -aj.hess[: n - 1, : n - 1] / aj.grad[-1]
            assert np.allclose(cd.a_raw, expected, atol=1e-12)


class TestSymEigvals:
    def test_det_eigen_consistency(self):
        rng = np.random.default_rng(9)
        for m in (1, 2, 3, 5):
            a = rng.normal(size=(m, m))
            a = (a + a.T) / 2
            prod = float(np.prod(np.linalg.eigvalsh(a)))
            assert sym_det(a) == pytest.approx(prod, rel=1e-10, abs=1e-12)


class TestWeightedCurvature:
    def test_catenoid_substitution(self):
        spec = TestFunctionSpec.minimal_theta(-0.5)
        assert weighted_curvature(spec, 1.0 / 15.0, 0.25) == pytest.approx(1.0, abs=1e-14)

    def test_theta_zero_is_plain_curvature(self):
        spec = TestFunctionSpec.minimal_theta(0.0)
        assert weighted_curvature(spec, 0.37, 0.7) == pytest.approx(0.7)

    def test_poisson_power(self):
        spec = TestFunctionSpec.poisson_power(-2)
        assert weighted_curvature(spec, 4.0, 3.0) == pytest.approx(0.75)

    def test_rho_consistency(self):
        # rho must match the closed form for each kind
        for theta in (-0.5, 0.0, 1.0):
            spec = TestFunctionSpec.minimal_theta(theta)
            for t in (0.3, 1.0, 7.5):
                assert spec.rho(t) == pytest.approx(
                    theta * (math.log(t) - math.log(1 + t)), abs=1e-14
                )
        for p in (-2.0, 1.0, 3.0):
            spec = TestFunctionSpec.poisson_power(p)
            for t in (0.3, 1.0, 7.5):
                assert spec.rho(t) == pytest.approx(0.5 * p * math.log(t), abs=1e-14)

    def test_rho_derivatives_by_finite_differences(self):
        for spec in (TestFunctionSpec.minimal_theta(-0.5), TestFunctionSpec.poisson_power(3)):
            for t in (0.5, 2.0):
                h1, h2 = 1e-6, 1e-4
                d1 = (spec.rho(t + h1) - spec.rho(t - h1)) / (2 * h1)
                d2 = (spec.rho(t + h2) - 2 * spec.rho(t) + spec.rho(t - h2)) / h2**2
                assert spec.rho_prime(t) == pytest.approx(d1, rel=1e-8)
                assert spec.rho_double_prime(t) == pytest.approx(d2, rel=1e-6)


class TestCatenoidOracle:
    # the unit-flux catenoid: |grad u|^2 = 1/(r^(2(n-1)) - 1) and K = r^(1-n), so
    # the weight (t/(1+t))^(-1/2) is r^(n-1) and psi_{-1/2} = 1 at every radius

    @staticmethod
    def _point(n, r):
        x = np.zeros(n)
        x[0] = r
        jet = RadialMinimalField(n, flux=1.0).jet(x, order=2)
        gauss = curvature_matrix(jet).gauss
        psi = weighted_curvature(TestFunctionSpec.minimal_theta(-0.5), jet.grad_norm**2, gauss)
        return jet.grad_norm**2, gauss, psi

    def test_reference_values(self):
        grad_norm_sq, gauss, psi = self._point(3, 2.0)
        assert grad_norm_sq == pytest.approx(1.0 / 15.0, abs=1e-15)
        assert gauss == pytest.approx(0.25, abs=1e-15)
        assert psi == pytest.approx(1.0, abs=1e-12)
        grad_norm_sq, gauss, _ = self._point(2, 2.0)
        assert grad_norm_sq == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert gauss == pytest.approx(0.5, abs=1e-15)

    def test_sharpness_sweep(self):
        radii = np.linspace(1.1, 50.0, 200)
        for n in (2, 3, 4):
            for r in radii:
                assert abs(self._point(n, float(r))[2] - 1.0) < 1e-12

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            RadialMinimalField(3, flux=1.0).u_prime(1.0)
