"""Pointwise identity checks against exact polynomial fields.

The full-size suites (100 fields per dimension) run in the acceptance module;
here smaller samples pin the behavior plus the closed-form special cases.
"""

import math

import numpy as np
import pytest

from levelcurv.dual import Dual, dual_log, dual_sqrt
from levelcurv.geometry import Jet, TestFunctionSpec, align_frame, make_jet
from levelcurv.identities import (
    _field_form,
    codazzi_closed_form,
    curvature_derivatives,
    curvature_entries_float,
    identity_residuals,
)
from levelcurv.polyfield import PolyField, random_test_jets

ORIGIN3 = np.zeros(3)
THETA_HALF = TestFunctionSpec.minimal_theta(-0.5)


def _batch(*fields):
    """The order-3 origin jets of the fields as one batch."""
    jets = [f.jet(np.zeros(f.dim), 3) for f in fields]
    return Jet(*(np.stack(parts) for parts in zip(*((j.grad, j.hess, j.third) for j in jets))))


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
        batch = random_test_jets(range(25), n)
        worst = np.max(identity_residuals(batch.jets, THETA_HALF).codazzi)
        assert worst < 1e-10

    def test_planar_field_zero(self):
        # u = x_n: all curvature derivatives vanish
        f = PolyField(3, {(0, 0, 1): 1.0})
        assert identity_residuals(_batch(f), THETA_HALF).codazzi[0] == 0.0

    def test_quadratic_reduces_to_second_order_products(self):
        rng = np.random.default_rng(8)
        grads, hesses = [], []
        for _ in range(10):
            grad = rng.normal(size=3)
            grad /= max(np.linalg.norm(grad), 0.3)
            h = rng.normal(size=(3, 3))
            grads.append(grad)
            hesses.append((h + h.T) / 2)
        jets = make_jet(np.array(grads), np.array(hesses), np.zeros((10, 3, 3, 3)))
        assert np.all(identity_residuals(jets, THETA_HALF).codazzi < 1e-12)

    def test_routes_agree(self):
        # the closed form and the exact field derivative are the same tensor
        field = random_test_jets([4], 3).field(0)
        aj = align_frame(field.jet(ORIGIN3, 3)).aligned_jet
        c1 = codazzi_closed_form(aj)
        c2 = _field_form(curvature_derivatives(aj).a_k)
        assert np.allclose(c1, c2, atol=1e-12)


class TestPhiGradient:
    # the identity is checked where the level set is strictly convex (admissible)

    def test_random_fields(self):
        res = identity_residuals(random_test_jets(range(60), 3).jets, THETA_HALF)
        assert np.count_nonzero(res.admissible) >= 10
        assert np.max(res.phi[res.admissible]) < 1e-9

    def test_theta_zero_logdet_only(self):
        spec = TestFunctionSpec.minimal_theta(0.0)
        res = identity_residuals(random_test_jets(range(40), 2).jets, spec)
        assert np.count_nonzero(res.admissible) >= 10
        assert np.max(res.phi[res.admissible]) < 1e-9

    def test_constant_curvature_field(self):
        # u = -|x'|^2/2 + x_n: the curvature matrix field is constant along axes
        f = PolyField(
            3, {(2, 0, 0): -0.5, (0, 2, 0): -0.5, (0, 0, 1): 1.0}
        )
        res = identity_residuals(_batch(f), THETA_HALF)
        assert res.admissible[0]
        assert res.phi[0] < 1e-12


class TestUiia:
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_fields(self, n):
        batch = random_test_jets(range(25), n)
        worst = np.max(identity_residuals(batch.jets, THETA_HALF).uiia)
        assert worst < 1e-10

    def test_planar_field(self):
        f = PolyField(3, {(0, 0, 1): 1.0})
        assert identity_residuals(_batch(f), THETA_HALF).uiia[0] == 0.0

    def test_paraboloid_hand_check(self):
        # u = -|x|^2/2 + x_n at the origin: a_ii = 1, a_ii,n = 1, others 0,
        # and all third derivatives vanish, so the relation closes by hand.
        f = PolyField(
            3,
            {(2, 0, 0): -0.5, (0, 2, 0): -0.5, (0, 0, 2): -0.5, (0, 0, 1): 1.0},
        )
        assert identity_residuals(_batch(f), THETA_HALF).uiia[0] < 1e-14
        jet = f.jet(ORIGIN3, 3)
        a0 = curvature_entries_float(jet)
        assert np.allclose(a0, np.eye(2))
        ders = curvature_derivatives(jet)
        assert np.allclose(ders.a_k[2], np.eye(2), atol=1e-14)
        assert np.allclose(ders.a_k[0], 0.0, atol=1e-14)
        assert ders.sigma1 == pytest.approx(2.0)
