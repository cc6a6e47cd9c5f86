import math

import numpy as np
import pytest

from levelcurv.errors import TooCloseToBoundary
from levelcurv.fields import catenoid_value
from levelcurv.radial import solve_minimal_radial
from levelcurv.recover import radial_profile_fit, recover_jet
from levelcurv.ring2d import Circle, RingDomain2D, solve_minimal_ring2d
from levelcurv.solution import RingSolution


class TestRadialRecovery:
    def test_catenoid_gradient_second_order(self):
        errs, hs = [], []
        for samples in (101, 201, 401):
            sol = solve_minimal_radial(2, 2, 4, 0.0, catenoid_value(4.0, anchor=2.0), samples=samples)
            jet = recover_jet(sol, np.array([3.0, 0.0]), order=2)
            exact = 1.0 / math.sqrt(9.0 - 1.0)
            errs.append(abs(np.linalg.norm(jet.grad) - exact))
            hs.append(sol.h)
        # quartic local fits recover the gradient well beyond second order;
        # just require monotone improvement at >= 2nd order overall
        order = math.log(errs[0] / errs[2]) / math.log(hs[0] / hs[2])
        assert order > 1.9

    def test_polynomial_profile_exact(self):
        r = np.linspace(1.0, 2.0, 101)
        u = 0.3 + 0.5 * r - 0.25 * r**2 + 0.125 * r**3
        sol = RingSolution(kind="radial", equation="semilinear", values=u,
                           residual_norm=0.0, h=r[1] - r[0], n=2, a=1.0, b=2.0, r=r)
        jet = recover_jet(sol, np.array([1.5, 0.0]), order=2)
        up = 0.5 - 0.5 * 1.5 + 0.375 * 1.5**2
        assert abs(np.linalg.norm(jet.grad) - abs(up)) < 1e-11

    def test_boundary_guard(self):
        sol = solve_minimal_radial(2, 2, 4, 0.0, 1.0, samples=101)
        with pytest.raises(TooCloseToBoundary):
            recover_jet(sol, np.array([2.0, 0.0]), order=2)

    def test_profile_fit_matches_closed_form(self):
        sol = solve_minimal_radial(2, 2, 4, 0.0, catenoid_value(4.0, anchor=2.0), samples=401)
        up, upp, _ = radial_profile_fit(sol)
        exact = 1.0 / np.sqrt(sol.r**2 - 1.0)
        assert np.max(np.abs(up - exact)) < 1e-6


def test_ring2d_jets_are_not_fitted():
    dom = RingDomain2D(Circle(4.0), Circle(2.0), n_s=17, n_t=32)
    sol = solve_minimal_ring2d(dom, np.zeros(32), np.ones(32))
    with pytest.raises(ValueError, match="solution_fields"):
        recover_jet(sol, sol.coords[8, 7], order=2)
