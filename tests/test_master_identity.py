"""The expanded second-order identity for the minimal surface operator.

Closed-form minimal fields (catenoid family, Scherk graph) supply exact
order-4 jets, and the derivatives of a and phi are taken from them exactly
(duals of duals), so residuals isolate the identity itself at rounding level.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from levelcurv.cli import MASTER_TOL
from levelcurv.errors import GradientTooSmall, NonpositiveCurvature, NotAMinimalJet
from levelcurv.fields import RadialMinimalField, ScherkField
from levelcurv.geometry import Jet, TestFunctionSpec, align_frame, curvature_matrix, make_jet
from levelcurv.identities import (
    _seeded_twice,
    lb_psi_residual_2d,
    minimal_equation_residual,
    minimal_master_identity_residual,
)

from testkit import SphereDistanceField, curvature_derivatives

SCHERK_POINT = np.array([0.4, 0.9])
THETA_HALF = TestFunctionSpec.minimal_theta(-0.5)


@dataclass(frozen=True)
class PerturbedScherk:
    """Scherk's jets with 1 added to one third or fourth derivative entry.

    The order-2 jet, and with it the minimality gate, is unchanged.
    """

    index: tuple

    def jet(self, x, order=3):
        jet = ScherkField().jet(x, order)
        name = {3: "third", 4: "fourth"}[len(self.index)]
        if getattr(jet, name) is None:
            return jet
        tensor = getattr(jet, name).copy()
        tensor[self.index] += 1.0
        return replace(jet, **{name: tensor})


class NegatedAfterFirst:
    """The catenoid's jets, negated at every point but the first: -u is minimal
    too, but its level curves bend the other way."""

    def __init__(self):
        self.points = 0

    def jet(self, x, order=3):
        jet = RadialMinimalField(2, flux=-1.0).jet(x, order)
        self.points += 1
        if self.points == 1:
            return jet
        parts = (jet.grad, jet.hess, jet.third, jet.fourth)
        return Jet(*(None if t is None else -t for t in parts))


def _aligned_phi(supplier, point):
    """Aligned order-4 jet of the supplier and its phi for theta = -1/2, as nested duals."""
    aligned = align_frame(supplier.jet(point, 4)).aligned_jet
    return aligned, _seeded_twice(aligned, THETA_HALF)[1]


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
        # each order against central differences of the order below it
        cases = [
            (RadialMinimalField(2, flux=-1.0), np.array([1.0, -1.6])),
            (RadialMinimalField(3, flux=-1.0), np.array([1.0, -0.8, 2.0])),
            (RadialMinimalField(4, flux=-1.0), np.array([0.9, -0.7, 1.1, 0.6])),
            (ScherkField(), SCHERK_POINT),
        ]
        h = 1e-5
        for fld, x in cases:
            n = x.shape[0]
            jet = fld.jet(x, 4)
            for al in range(n):
                e = np.zeros(n)
                e[al] = h
                up, down = fld.jet(x + e, 3), fld.jet(x - e, 3)
                assert np.allclose(jet.hess[:, al], (up.grad - down.grad) / (2 * h), atol=1e-8)
                assert np.allclose(jet.third[:, :, al], (up.hess - down.hess) / (2 * h), atol=1e-7)
                assert np.allclose(jet.fourth[:, :, :, al], (up.third - down.third) / (2 * h),
                                   atol=1e-6)


class TestMasterIdentity:
    def test_catenoid_2d_trivial(self):
        # psi is identically 1, so phi vanishes and both sides are zero
        cat = RadialMinimalField(2, flux=-1.0)
        res = minimal_master_identity_residual(cat, np.array([1.8, 2.4]), -0.5)
        assert res < 1e-11

    def test_scherk_2d(self):
        res = minimal_master_identity_residual(ScherkField(), SCHERK_POINT, -0.5)
        assert res < 1e-11

    def test_radial_3d_theta_zero(self):
        cat3 = RadialMinimalField(3, flux=-1.0)
        res = minimal_master_identity_residual(cat3, np.array([0.0, 0.0, 3.0]), 0.0)
        assert res < 1e-11

    @pytest.mark.parametrize("theta", [-0.5, 0.0, 0.5, 1.0])
    def test_radial_3d_theta_family(self, theta):
        cat3 = RadialMinimalField(3, flux=-1.0)
        res = minimal_master_identity_residual(cat3, np.array([1.2, -0.7, 2.0]), theta)
        assert res < 1e-11

    def test_radial_4d(self):
        cat4 = RadialMinimalField(4, flux=-1.0)
        res = minimal_master_identity_residual(cat4, np.array([0.0, 0.0, 0.0, 2.0]), 0.5)
        assert res < 1e-11

    @pytest.mark.parametrize("index", [(0, 0, 0, 0), (0, 0, 0)], ids=["u_1111", "u_111"])
    def test_perturbed_scherk_fails_the_gate(self, index):
        # negative control: u_1111 or u_111 off by +1 on a jet that still passes
        # the minimality gate
        supplier = PerturbedScherk(index)
        assert abs(minimal_equation_residual(supplier.jet(SCHERK_POINT, 2))) < 1e-12
        assert minimal_master_identity_residual(supplier, SCHERK_POINT, -0.5) > MASTER_TOL

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
        aligned, phi = _aligned_phi(ScherkField(), SCHERK_POINT)
        un = aligned.grad[-1]
        phi1, phi2 = phi.val.der, phi.der.der
        lhs = (1.0 + un * un) * phi2[0] + phi2[1]
        rhs = -(1.0 + un * un) * phi1[0] ** 2 - phi1[1] ** 2
        assert lhs == pytest.approx(rhs, rel=0, abs=1e-11)


class TestLaplaceBeltramiPsi:
    def test_catenoid_residual_vanishes(self):
        cat = RadialMinimalField(2, flux=-1.0)
        pts = [np.array([c * np.cos(a), c * np.sin(a)]) for c in (2.2, 3.4) for a in (0.3, 2.1)]
        assert lb_psi_residual_2d(cat, pts) < 1e-11

    def test_scherk_residual_small(self):
        pts = [SCHERK_POINT, np.array([0.2, 0.8]), np.array([0.5, 1.0])]
        assert lb_psi_residual_2d(ScherkField(), pts) < 1e-11

    def test_negative_control_wrong_weight(self):
        # theta = 0 makes psi = k, which is not harmonic on Scherk's surface
        pts = [SCHERK_POINT, np.array([0.2, 0.8]), np.array([0.5, 1.0])]
        assert lb_psi_residual_2d(ScherkField(), pts, theta=0.0) >= 1.0

    def test_rejects_non_minimal_supplier(self):
        # psi = sqrt(2)/r lies in the kernel of F^{ab} although the distance
        # cone is not minimal: only the minimality gate can reject it
        with pytest.raises(NotAMinimalJet):
            lb_psi_residual_2d(SphereDistanceField(2), [np.array([2.2, 0.3])])

    def test_gradient_floor_comes_before_the_sign(self):
        # Scherk's graph is flat at the origin: no orientation is read there
        with pytest.raises(GradientTooSmall):
            lb_psi_residual_2d(ScherkField(), [np.zeros(2)])

    def test_one_sign_for_every_point(self):
        pts = [np.array([1.8, 2.4]), np.array([2.2, 0.3])]
        assert lb_psi_residual_2d(RadialMinimalField(2, flux=1.0), pts) < 1e-11
        with pytest.raises(NonpositiveCurvature, match=r"at \[2.2, 0.3\]"):
            lb_psi_residual_2d(NegatedAfterFirst(), pts)


class TestSeededTwiceBatch:
    def test_mixed_batch_gets_a_per_jet_mask(self):
        # level sets convex toward grad u, toward -grad u, and a saddle
        point = np.array([1.2, -0.7, 2.0])
        saddle = make_jet([0.0, 0.0, 1.0], np.diag([1.0, -1.0, 0.0]), np.zeros((3,) * 3),
                          np.zeros((3,) * 4))
        jets = [align_frame(j).aligned_jet for j in (
            RadialMinimalField(3, flux=-1.0).jet(point, 4),
            RadialMinimalField(3, flux=1.0).jet(point, 4), saddle)]
        batch = Jet(*(np.stack(t) for t in zip(*((j.grad, j.hess, j.third, j.fourth)
                                                 for j in jets))))
        _, phi, sign, admissible = _seeded_twice(batch, THETA_HALF)
        assert admissible.tolist() == [True, True, False]
        assert sign.tolist() == [1.0, -1.0, 1.0]
        for k in (0, 1):
            _, alone, sign_alone, admissible_alone = _seeded_twice(jets[k], THETA_HALF)
            assert (sign_alone, admissible_alone) == (sign[k], True)
            for got, want in ((phi.val.val[k], alone.val.val), (phi.val.der[k], alone.val.der),
                              (phi.der.der[k], alone.der.der)):
                assert got.tobytes() == want.tobytes()


class TestPhiSecondOrder:
    def test_catenoid_phi_vanishes_identically(self):
        _, phi = _aligned_phi(RadialMinimalField(2, flux=-1.0), np.array([1.8, 2.4]))
        assert abs(phi.val.val[0]) < 1e-13
        assert np.max(np.abs(phi.val.der)) < 1e-13
        assert np.max(np.abs(phi.der.der)) < 1e-13

    def test_gradient_matches_jacobi_contraction(self):
        # phi_a = sum a^{ij} a_ij,a + rho'(t) t_a, the right side from the order-3 engine
        aligned, phi = _aligned_phi(ScherkField(), SCHERK_POINT)
        a0_inv = np.linalg.inv(curvature_matrix(aligned, mode="raw").a_raw)
        t0 = aligned.grad_norm**2
        for axis, a_der in enumerate(curvature_derivatives(aligned).a_k):
            t_a = 2.0 * float(aligned.grad @ aligned.hess[:, axis])
            expected = float(np.sum(a0_inv * a_der)) + THETA_HALF.rho_prime(t0) * t_a
            assert phi.val.der[axis] == pytest.approx(expected, rel=0, abs=1e-13)
            assert phi.der.val[axis] == pytest.approx(expected, rel=0, abs=1e-13)
