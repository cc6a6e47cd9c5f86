"""The expanded second-order identity for the minimal surface operator.

Closed-form minimal fields (catenoid family, Scherk graph) supply exact jets;
derivative fields use sixth-order stencils, so residuals isolate the identity
itself.
"""

import math

import numpy as np
import pytest

from levelcurv.errors import NonpositiveCurvature, NotAMinimalJet
from levelcurv.fields import RadialMinimalField, ScherkField, SphereDistanceField
from levelcurv.identities import (
    lb_psi_residual_2d,
    minimal_equation_residual,
    minimal_master_identity_residual,
)

SCHERK_POINT = np.array([0.4, 0.9])


class TestSuppliers:
    def test_scherk_is_minimal(self):
        sch = ScherkField()
        for p in [SCHERK_POINT, np.array([-0.3, 0.2]), np.array([1.1, -0.9])]:
            assert abs(minimal_equation_residual(sch.jet(p, 2))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_radial_is_minimal(self, n):
        fld = RadialMinimalField(n, flux=-1.0)
        x = np.zeros(n)
        x[0] = 2.5
        assert abs(minimal_equation_residual(fld.jet(x, 2))) < 1e-12

    def test_radial_jet_against_finite_differences(self):
        fld = RadialMinimalField(3, flux=-1.0)
        x = np.array([1.0, -0.8, 2.0])
        jet = fld.jet(x, 3)
        h = 1e-5
        for al in range(3):
            e = np.zeros(3)
            e[al] = h
            fd_grad = (fld.jet(x + e, 2).grad - fld.jet(x - e, 2).grad) / (2 * h)
            assert np.allclose(jet.hess[:, al], fd_grad, atol=1e-8)
            fd_hess = (fld.jet(x + e, 2).hess - fld.jet(x - e, 2).hess) / (2 * h)
            assert np.allclose(jet.third[:, :, al], fd_hess, atol=1e-7)


class TestMasterIdentity:
    def test_catenoid_2d_trivial(self):
        # psi is identically 1, so phi vanishes and both sides are zero
        cat = RadialMinimalField(2, flux=-1.0)
        res = minimal_master_identity_residual(cat, np.array([1.8, 2.4]), -0.5)
        assert res < 1e-10

    def test_scherk_2d(self):
        res = minimal_master_identity_residual(ScherkField(), SCHERK_POINT, -0.5)
        assert res < 1e-6

    def test_radial_3d_theta_zero(self):
        cat3 = RadialMinimalField(3, flux=-1.0)
        res = minimal_master_identity_residual(cat3, np.array([0.0, 0.0, 3.0]), 0.0)
        assert res < 1e-6

    @pytest.mark.parametrize("theta", [-0.5, 0.0, 0.5, 1.0])
    def test_radial_3d_theta_family(self, theta):
        cat3 = RadialMinimalField(3, flux=-1.0)
        res = minimal_master_identity_residual(cat3, np.array([1.2, -0.7, 2.0]), theta)
        assert res < 1e-6

    def test_radial_4d(self):
        cat4 = RadialMinimalField(4, flux=-1.0)
        res = minimal_master_identity_residual(cat4, np.array([0.0, 0.0, 0.0, 2.0]), 0.5)
        assert res < 1e-6

    def test_fd_order_at_least_four_over_a_decade(self):
        sch = ScherkField()
        coarse = minimal_master_identity_residual(sch, SCHERK_POINT, -0.5, fd_step=0.1)
        fine = minimal_master_identity_residual(sch, SCHERK_POINT, -0.5, fd_step=0.01)
        order = math.log(coarse / fine) / math.log(10.0)
        assert order >= 4.0

    def test_rejects_non_minimal_jet(self):
        sphere = SphereDistanceField(3)  # distance cone is not minimal
        with pytest.raises(NotAMinimalJet):
            minimal_master_identity_residual(sphere, np.array([0.0, 0.0, -2.0]), 0.0)

    def test_rejects_concave_orientation(self):
        # outward-increasing catenoid: level sets convex toward -grad u
        cat = RadialMinimalField(2, flux=1.0)
        with pytest.raises(NonpositiveCurvature):
            minimal_master_identity_residual(cat, np.array([1.8, 2.4]), -0.5)


class Test2DSpecialization:
    def test_mpn2ok_form(self):
        """For theta = -1/2 in 2D the identity collapses to
        F^{ab} phi_ab = -(1+u_2^2) phi_1^2 - phi_2^2."""
        from levelcurv.geometry import TestFunctionSpec, align_frame, rotate_jet
        from levelcurv.identities import _FD_OFFSETS, curvature_entries_float, fd6_first, fd6_second

        sch = ScherkField()
        spec = TestFunctionSpec.minimal_theta(-0.5)
        p = SCHERK_POINT
        frame = align_frame(sch.jet(p, 2))
        rot = frame.rotation
        un = frame.aligned_jet.grad[-1]

        def phi_at(y):
            j = rotate_jet(sch.jet(p + rot.T @ y, 2), rot)
            a = curvature_entries_float(j)
            t = float(j.grad @ j.grad)
            return spec.rho(t) + math.log(a[0, 0])

        h = 0.005
        phi1 = np.zeros(2)
        phi2 = np.zeros(2)
        for axis in range(2):
            vals = np.array([phi_at(off * h * np.eye(2)[axis]) for off in _FD_OFFSETS])
            phi1[axis] = fd6_first(vals, h)
            phi2[axis] = fd6_second(vals, h)
        lhs = (1.0 + un * un) * phi2[0] + phi2[1]
        rhs = -(1.0 + un * un) * phi1[0] ** 2 - phi1[1] ** 2
        assert lhs == pytest.approx(rhs, abs=1e-7)


class TestLaplaceBeltramiPsi:
    def test_catenoid_residual_vanishes(self):
        cat = RadialMinimalField(2, flux=-1.0)
        pts = [np.array([c * np.cos(a), c * np.sin(a)]) for c in (2.2, 3.4) for a in (0.3, 2.1)]
        assert lb_psi_residual_2d(cat, pts) < 1e-10

    def test_scherk_residual_small(self):
        pts = [SCHERK_POINT, np.array([0.2, 0.8]), np.array([0.5, 1.0])]
        assert lb_psi_residual_2d(ScherkField(), pts) < 1e-6

    def test_negative_control_wrong_weight(self):
        # theta = 0 makes psi = k, which is not harmonic on Scherk's surface
        pts = [SCHERK_POINT, np.array([0.2, 0.8]), np.array([0.5, 1.0])]
        assert lb_psi_residual_2d(ScherkField(), pts, theta=0.0) >= 1.0

    def test_rejects_non_minimal_supplier(self):
        # psi = sqrt(2)/r lies in the kernel of F^{ab} although the distance
        # cone is not minimal: only the minimality gate can reject it
        with pytest.raises(NotAMinimalJet):
            lb_psi_residual_2d(SphereDistanceField(2), [np.array([2.2, 0.3])])


class TestPhiJet:
    def test_catenoid_phi_vanishes_identically(self):
        from levelcurv.geometry import TestFunctionSpec
        from levelcurv.identities import phi_jet_fd

        cat = RadialMinimalField(2, flux=-1.0)
        pj = phi_jet_fd(cat, np.array([1.8, 2.4]), TestFunctionSpec.minimal_theta(-0.5))
        assert abs(pj.phi) < 1e-12
        assert np.max(np.abs(pj.grad_phi)) < 1e-10
        assert np.max(np.abs(pj.hess_phi)) < 1e-8

    def test_hessian_symmetric_and_gradient_matches_identity(self):
        from levelcurv.geometry import TestFunctionSpec, align_frame, rotate_jet
        from levelcurv.identities import curvature_derivatives, curvature_entries_float, phi_jet_fd

        spec = TestFunctionSpec.minimal_theta(-0.5)
        sch = ScherkField()
        pj = phi_jet_fd(sch, SCHERK_POINT, spec, fd_step=5e-3)
        assert np.array_equal(pj.hess_phi, pj.hess_phi.T)
        # grad phi from the FD jet must match the contraction identity
        frame = align_frame(sch.jet(SCHERK_POINT, 2))
        aj = rotate_jet(sch.jet(SCHERK_POINT, 3), frame.rotation)
        a0 = curvature_entries_float(aj)
        t0 = aj.grad_norm**2
        a_k = curvature_derivatives(aj).a_k
        for axis, a_der in enumerate(a_k):
            t_a = 2.0 * float(aj.grad @ aj.hess[:, axis])
            expected = float(np.sum(np.linalg.inv(a0) * a_der)) + spec.rho_prime(t0) * t_a
            assert pj.grad_phi[axis] == pytest.approx(expected, abs=1e-9)
