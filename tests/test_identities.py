"""Pointwise identity checks against exact polynomial fields.

The full-size suites (100 fields per dimension) run in the acceptance module;
here smaller samples pin the behavior plus the closed-form special cases.
"""

import math

import numpy as np
import pytest

from levelcurv.dual import Dual, dual_log, dual_sqrt
from levelcurv.errors import NonpositiveCurvature
from levelcurv.geometry import TestFunctionSpec, align_frame
from levelcurv.identities import (
    codazzi_closed_form,
    codazzi_field_form,
    codazzi_residual,
    curvature_derivatives,
    curvature_entries_float,
    phi_gradient_identity_residual,
    uiia_residual,
)
from levelcurv.polyfield import PolyField, quadratic_field, random_test_jet

ORIGIN2 = np.zeros(2)
ORIGIN3 = np.zeros(3)


class TestDual:
    def test_chain_rule_through_composite(self):
        x = Dual(2.0, 1.0)
        y = dual_log(dual_sqrt(x * x + 3.0) / (1.0 + x))
        f = lambda t: math.log(math.sqrt(t * t + 3.0) / (1.0 + t))
        h = 1e-7
        assert y.der == pytest.approx((f(2 + h) - f(2 - h)) / (2 * h), rel=1e-7)
        assert y.val == pytest.approx(f(2.0))

    def test_division_and_pow(self):
        x = Dual(3.0, 2.0)
        z = (1.0 / x) ** 2
        assert z.val == pytest.approx(1.0 / 9.0)
        assert z.der == pytest.approx(-2.0 / 27.0 * 2.0)

    def test_nested_duals_give_second_derivatives(self):
        # x(t) = 2 + 3t + t^2 (x' = 3, x'' = 2) seeded twice along t at t = 0
        x = Dual(Dual(2.0, 3.0), Dual(3.0, 2.0))
        s = dual_sqrt(x)
        assert (s.val.val, s.val.der, s.der.val) == pytest.approx(
            (2.0**0.5, 1.5 / 2.0**0.5, 1.5 / 2.0**0.5), rel=1e-15)
        # (sqrt x)'' = x'' / (2 sqrt x) - x'^2 / (4 x^1.5)
        assert s.der.der == pytest.approx(1.0 / 2.0**0.5 - 9.0 / (4.0 * 2.0**1.5), rel=1e-15)
        lg = dual_log(x)
        assert (lg.val.val, lg.val.der, lg.der.val) == pytest.approx(
            (math.log(2.0), 1.5, 1.5), rel=1e-15)
        # (log x)'' = x'' / x - x'^2 / x^2
        assert lg.der.der == pytest.approx(1.0 - 9.0 / 4.0, rel=1e-15)


class TestCodazzi:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_fields(self, n):
        worst = 0.0
        for seed in range(25):
            field = random_test_jet(seed, n)
            worst = max(worst, codazzi_residual(field.jet(np.zeros(n), 3)))
        assert worst < 1e-10

    def test_planar_field_zero(self):
        # u = x_n: all curvature derivatives vanish
        f = PolyField(3, {(0, 0, 1): 1.0})
        assert codazzi_residual(f.jet(ORIGIN3, 3)) == 0.0

    def test_quadratic_reduces_to_second_order_products(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            grad = rng.normal(size=3)
            grad /= max(np.linalg.norm(grad), 0.3)
            h = rng.normal(size=(3, 3))
            f = quadratic_field(3, grad, (h + h.T) / 2)
            assert codazzi_residual(f.jet(ORIGIN3, 3)) < 1e-12

    def test_routes_agree(self):
        # the closed form and the exact field derivative are the same tensor
        field = random_test_jet(4, 3)
        aj = align_frame(field.jet(ORIGIN3, 3)).aligned_jet
        c1 = codazzi_closed_form(aj)
        c2 = codazzi_field_form(aj)
        assert np.allclose(c1, c2, atol=1e-12)


class TestPhiGradient:
    def test_random_fields(self):
        spec = TestFunctionSpec.minimal_theta(-0.5)
        worst, admissible = 0.0, 0
        for seed in range(60):
            field = random_test_jet(seed, 3)
            try:
                worst = max(worst, phi_gradient_identity_residual(field.jet(ORIGIN3, 3), spec))
                admissible += 1
            except NonpositiveCurvature:
                continue
        assert admissible >= 10
        assert worst < 1e-9

    def test_theta_zero_logdet_only(self):
        spec = TestFunctionSpec.minimal_theta(0.0)
        worst = 0.0
        count = 0
        for seed in range(40):
            field = random_test_jet(seed, 2)
            try:
                worst = max(worst, phi_gradient_identity_residual(field.jet(ORIGIN2, 3), spec))
                count += 1
            except NonpositiveCurvature:
                continue
        assert count >= 10
        assert worst < 1e-9

    def test_constant_curvature_field(self):
        # u = -|x'|^2/2 + x_n: the curvature matrix field is constant along axes
        f = PolyField(
            3, {(2, 0, 0): -0.5, (0, 2, 0): -0.5, (0, 0, 1): 1.0}
        )
        spec = TestFunctionSpec.minimal_theta(-0.5)
        assert phi_gradient_identity_residual(f.jet(ORIGIN3, 3), spec) < 1e-12


class TestUiia:
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_fields(self, n):
        worst = 0.0
        for seed in range(25):
            field = random_test_jet(seed, n)
            worst = max(worst, uiia_residual(field.jet(np.zeros(n), 3)))
        assert worst < 1e-10

    def test_planar_field(self):
        f = PolyField(3, {(0, 0, 1): 1.0})
        assert uiia_residual(f.jet(ORIGIN3, 3)) == 0.0

    def test_paraboloid_hand_check(self):
        # u = -|x|^2/2 + x_n at the origin: a_ii = 1, a_ii,n = 1, others 0,
        # and all third derivatives vanish, so the relation closes by hand.
        f = PolyField(
            3,
            {(2, 0, 0): -0.5, (0, 2, 0): -0.5, (0, 0, 2): -0.5, (0, 0, 1): 1.0},
        )
        assert uiia_residual(f.jet(ORIGIN3, 3)) < 1e-14
        jet = f.jet(ORIGIN3, 3)
        a0 = curvature_entries_float(jet)
        assert np.allclose(a0, np.eye(2))
        ders = curvature_derivatives(jet)
        assert np.allclose(ders.a_k[2], np.eye(2), atol=1e-14)
        assert np.allclose(ders.a_k[0], 0.0, atol=1e-14)
        assert ders.sigma1 == pytest.approx(2.0)
