import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from levelcurv.checks import check_extremum_on_boundary, solution_fields
from levelcurv.errors import DidNotConverge, NoSolution
from levelcurv.fields import catenoid_value
from levelcurv.geometry import TestFunctionSpec
from levelcurv.radial import solve_minimal_radial, solve_semilinear_radial
from levelcurv.rhs import SemilinearRHS, linear_u_rhs, zero_rhs
from levelcurv.solution import _damped_newton
from levelcurv import radial, ring2d
from levelcurv.ring2d import (
    MINIMAL,
    Circle,
    Ellipse,
    RingDomain2D,
    RingGrid,
    SemilinearEquation,
    solve_family,
    solve_ring2d,
)


class TestMinimalRadial:
    def test_catenoid_flux_n3(self):
        target = quad(lambda s: 1 / math.sqrt(s**4 - 1), 2, 5, epsabs=1e-13, epsrel=1e-13)[0]
        sol = solve_minimal_radial(3, 2, 5, 0.0, target)
        assert sol.flux == pytest.approx(1.0, abs=1e-9)
        assert sol.residual_norm < 1e-9
        exact_up = 1.0 / np.sqrt(sol.r**4 - 1.0)
        assert np.max(np.abs(sol.u_prime - exact_up)) < 1e-9

    def test_constant_data(self):
        sol = solve_minimal_radial(3, 2, 5, 1.0, 1.0)
        assert sol.flux == 0.0
        assert np.ptp(sol.values) == 0.0

    def test_catenoid_closed_form_n2(self):
        sol = solve_minimal_radial(2, 2, 4, 0.0, catenoid_value(4.0, anchor=2.0))
        assert sol.flux == pytest.approx(1.0, abs=1e-10)
        exact = np.arccosh(sol.r) - math.acosh(2.0)
        assert np.max(np.abs(sol.values - exact)) < 1e-9

    def test_too_steep_data(self):
        with pytest.raises(NoSolution):
            solve_minimal_radial(3, 1.0, 8.0, 0.0, 100.0)

    def test_decreasing_data(self):
        sol = solve_minimal_radial(3, 2, 4, 1.0, 0.0)
        assert sol.flux < 0
        assert sol.values[0] == pytest.approx(1.0)
        assert sol.values[-1] == pytest.approx(0.0, abs=1e-11)

    def test_flux_bisection_stops_at_adjacent_floats(self, monkeypatch):
        calls = []
        integral = radial.profile_integral
        monkeypatch.setattr(radial, "profile_integral",
                            lambda *args: calls.append(args) or integral(*args))
        sol = solve_minimal_radial(3, 2.0, 4.0, 1.0, 0.0)
        assert sol.flux == -3.32140883203261
        assert len(calls) <= 70
        # the root of profile_integral(c, 3, 2, 4) = 1 to 25 digits, by mpmath.findroot
        # over mpmath.quad of the unsubstituted integrand
        root = -3.321408832032609702183459
        assert abs(sol.flux - root) <= 2.0 * math.ulp(root)

    def test_determinism(self):
        s1 = solve_minimal_radial(3, 2, 4, 1.0, 0.0)
        s2 = solve_minimal_radial(3, 2, 4, 1.0, 0.0)
        assert np.array_equal(s1.values, s2.values)
        assert s1.flux == s2.flux


# integral_a^b c / sqrt(s^(2(n-1)) - c^2) ds to 25 digits for the float c, by mpmath.quad
# (tanh-sinh, 40 digits) of the unsubstituted integrand, its interval cut at a + 4^k (a - s0)
# towards the near-singular start; the n = 2 limit fluxes are c acosh(b / c) by mpmath.acosh.
PROFILE_REFERENCES = [
    (6, 1.0, 10.0, 0.999999, "0.3676014817853421481709031"),
    (2, 1.0, 1e6, 0.5, "6.942423511079642757158683"),
    (3, 1.0, 1e3, 0.999, "1.287019012128537182126355"),
    (4, 3.0, 300.0, 24.3, "1.590012729546037807831965"),
    (3, 2.0, 2.0000001, 3.6, "2.064741058103150355789062e-7"),
    (3, 2.0, 4.0, 4.0 * (1.0 - 2.0**-40), "1.615637319238040642063134"),
    (4, 0.5, 3.0, 0.125 * (1.0 - 2.0**-20), "0.3433707805104601445059123"),
    (12, 1.0, 10.0, 0.5, "0.05220895670348140731216956"),
    (2, 0.5, 3.0, 5e-7, "8.958797346141489876437669e-7"),
    (6, 3.0, 30.0, 242.757, "1.076600962579855314200346"),
    (2, 1.0, 10.0, 1.0, "2.993222846126380897912668"),
    (2, 2.0, 5.0, 2.0, "3.133598473944822157328114"),
]


class TestProfileIntegral:
    @pytest.mark.parametrize("n,a,b,c,reference", PROFILE_REFERENCES)
    def test_matches_mpmath(self, n, a, b, c, reference):
        got = radial.profile_integral(c, n, a, b)
        assert got == pytest.approx(float(reference), rel=1e-14, abs=0)

    def test_matches_quad(self):
        # where quad resolves the integrand: away from the flux limit, on moderate b / a
        for n in (2, 3, 4, 6):
            for a, b in [(1.0, 1.5), (2.0, 4.0), (1.0, 10.0), (0.5, 3.0), (3.0, 30.0)]:
                for fraction in (1e-6, 0.1, 0.5, 0.9, 0.999):
                    c = fraction * a ** (n - 1)
                    expected = quad(lambda s: c / math.sqrt(s ** (2 * n - 2) - c * c), a, b,
                                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    got = radial.profile_integral(c, n, a, b)
                    assert got == pytest.approx(expected, rel=1e-13, abs=0), (n, a, b, fraction)

    def test_odd_and_negative_flux(self):
        positive = radial.profile_integral(0.5, 3, 1.0, 2.0)
        assert radial.profile_integral(-0.5, 3, 1.0, 2.0) == -positive
        assert radial.profile_integral(0.0, 3, 1.0, 2.0) == 0.0
        assert radial.profile_integral(1.0, 3, 2.0, 2.0) == 0.0

    def test_overflow_and_flux_beyond_the_limit_raise(self):
        with pytest.raises(OverflowError):
            radial.profile_integral(1.0, 3, 2.0, 1e308)
        with pytest.raises(OverflowError):
            radial.profile_integral(1.0, 3, 2.0, math.inf)
        with pytest.raises(ValueError, match="limit"):
            radial.profile_integral(4.0 * (1.0 + 2.0**-40), 3, 2.0, 4.0)

    def test_rule_is_built_once(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda deg: calls.append(deg) or leggauss(deg))
        radial._gauss_legendre.cache_clear()
        for c in (0.5, 1.0, 2.0):
            radial.profile_integral(c, 3, 2.0, 4.0)
        solve_minimal_radial(3, 2.0, 4.0, 0.0, 1.0)
        assert calls == [radial._GAUSS_NODES]

    def test_sampled_profile_near_the_flux_limit(self):
        # u' is near-singular at r = a: the samples must integrate it as the flux equation does
        sol = solve_minimal_radial(6, 1.0, 10.0, 0.0, 0.3676)
        assert abs(sol.flux) > 0.999998
        assert abs(sol.values[-1] - 0.3676) <= 1e-12
        assert np.all(np.diff(sol.values) > 0.0)


class TestSemilinearRadial:
    def test_harmonic_annulus_n2(self):
        # log solution needs a fine grid for 1e-9 agreement at second order
        sol = solve_semilinear_radial(2, 1.0, math.e, 1.0, 0.0, zero_rhs(), samples=8001)
        exact = 1.0 - np.log(sol.r)
        assert np.max(np.abs(sol.values - exact)) < 1e-9

    def test_second_derivative_converges_at_the_ends(self):
        # u = 1 - log(r)/log 2 has u'' = 1/(r^2 log 2); the end rows are one-sided
        errs, hs = [], []
        for samples in (51, 101, 201):
            sol = solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, zero_rhs(), samples=samples)
            exact = 1.0 / (sol.r**2 * math.log(2.0))
            errs.append(np.max(np.abs(sol.u_second - exact)))
            hs.append(sol.h)
        orders = [math.log(errs[i] / errs[i + 1]) / math.log(hs[i] / hs[i + 1]) for i in (0, 1)]
        assert min(orders) >= 1.8

    def test_harmonic_n3_exact_at_nodes(self):
        # the discrete operator annihilates r^-1 exactly
        sol = solve_semilinear_radial(3, 1.0, 2.0, 1.0, 0.0, zero_rhs(), samples=201)
        exact = (1.0 / sol.r - 0.5) / 0.5
        assert np.max(np.abs(sol.values - exact)) < 1e-9

    @staticmethod
    def _dense_system(lam):
        """The n = 2 solve of u'' + u'/r = lam u, u(1) = 1, u(2) = 0, with its dense
        interior matrix and right-hand side."""
        sol = solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(lam), samples=101)
        m = sol.r.shape[0] - 2
        h = sol.h
        r = sol.r
        a = np.zeros((m, m))
        b = np.zeros(m)
        for i in range(m):
            ri = r[i + 1]
            a[i, i] = -2 / h**2 - lam
            if i > 0:
                a[i, i - 1] = 1 / h**2 - 1 / (2 * h * ri)
            else:
                b[i] -= (1 / h**2 - 1 / (2 * h * ri)) * 1.0
            if i < m - 1:
                a[i, i + 1] = 1 / h**2 + 1 / (2 * h * ri)
        return sol, a, b

    def test_linear_u_matches_dense_direct_solve(self):
        sol, a, b = self._dense_system(0.3)
        direct = np.linalg.solve(a, b)
        assert np.max(np.abs(sol.values[1:-1] - direct)) < 1e-8

    def test_floor_is_the_row_norm_of_the_dense_jacobian(self):
        # f = u, so f_u = 1 enters the diagonal of every row
        sol, a, _ = self._dense_system(1.0)
        floor = 32.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(sol.values)))
        floor *= np.max(np.sum(np.abs(a), axis=1))
        assert floor > sol.meta["tol"] == 1e-10
        assert sol.meta["tol_used"] == pytest.approx(floor, rel=1e-12, abs=0.0)
        assert sol.residual_norm <= sol.meta["tol_used"]

    def test_max_principle(self):
        sol = solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(1.0), samples=201)
        assert sol.max_principle_violation() <= 1e-12

    def test_iteration_cap(self):
        with pytest.raises(DidNotConverge):
            solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(1.0), max_iter=0)

    def test_non_finite_data_fails(self):
        with pytest.raises(DidNotConverge, match="not finite") as caught:
            solve_semilinear_radial(2, 1.0, 2.0, math.nan, 1.0, zero_rhs())
        assert caught.value.iterations == 0
        assert math.isnan(caught.value.residual)

    def test_line_search_failure(self, monkeypatch):
        # every halving of a reversed Newton step raises the residual
        real = scipy.linalg.solve_banded
        monkeypatch.setattr(scipy.linalg, "solve_banded", lambda *args: -real(*args))
        with pytest.raises(DidNotConverge, match="line search failed") as caught:
            solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(1.0), samples=101)
        assert caught.value.iterations == 0
        assert math.isfinite(caught.value.residual) and caught.value.residual > 0.0


class TestRingDomain:
    def test_rejects_inner_outside_outer(self):
        with pytest.raises(ValueError):
            RingDomain2D(Circle(1.0), Circle(2.0), n_s=9, n_t=16)

    def test_rejects_offcenter_star_violation(self):
        with pytest.raises(ValueError):
            RingDomain2D(Circle(2.0), Circle(0.5, center=(1.8, 0.0)), n_s=9, n_t=16)

    def test_accepts_ellipse_ring(self):
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=9, n_t=16)
        assert dom.min_gap > 0


class TestRing2D:
    def test_laplace_annulus_order_two(self):
        errs = []
        hs = []
        for ns, nt in [(17, 32), (33, 64), (65, 128)]:
            dom = RingDomain2D(Circle(math.e), Circle(1.0), n_s=ns, n_t=nt)
            sol = solve_ring2d(dom, np.zeros(nt), np.ones(nt), SemilinearEquation(zero_rhs()))
            r = np.linalg.norm(sol.coords, axis=-1)
            errs.append(np.max(np.abs(sol.values - (1.0 - np.log(r)))))
            hs.append(sol.h)
        orders = [math.log(errs[i] / errs[i + 1]) / math.log(hs[i] / hs[i + 1]) for i in range(2)]
        assert min(orders) > 1.8

    def test_minimal_circles_match_radial(self):
        errs = []
        for ns, nt in [(17, 32), (33, 64)]:
            dom = RingDomain2D(Circle(4.0), Circle(2.0), n_s=ns, n_t=nt)
            outer = np.full(nt, catenoid_value(4.0, anchor=2.0))
            sol = solve_ring2d(dom, outer, np.zeros(nt), MINIMAL)
            r = np.linalg.norm(sol.coords, axis=-1)
            errs.append(np.max(np.abs(sol.values - (np.arccosh(r) - math.acosh(2.0)))))
        assert errs[1] < errs[0] / 3.0  # about h^2

    def test_constant_data_zero_iterations(self):
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=9, n_t=16)
        sol = solve_ring2d(dom, np.full(16, 0.7), np.full(16, 0.7), MINIMAL)
        assert sol.iterations == 0
        assert sol.residual_norm == 0.0
        assert np.all(sol.values == 0.7)
        # a nonconstant start with constant data is solved, not returned as it is:
        # here the warm start from the 0/1-data solve on a coarser grid
        coarse = solve_ring2d(dataclasses.replace(dom, n_s=5, n_t=8),
                              np.zeros(8), np.ones(8), MINIMAL)
        sol = solve_ring2d(dom, np.full(16, 0.7), np.full(16, 0.7), MINIMAL, warm_start=coarse)
        assert sol.iterations > 0
        assert np.max(np.abs(sol.values - 0.7)) < 1e-12

    @pytest.mark.parametrize("equation", ["minimal", "semilinear"])
    def test_nearly_equal_constant_data_is_solved(self, equation):
        # constant outer data and inner data 5e-6 above it: the blend is not a solution
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=33, n_t=64)
        outer, inner = np.full(64, 1.0), np.full(64, 1.000005)
        if equation == "minimal":
            sol = solve_ring2d(dom, outer, inner, MINIMAL)
        else:
            sol = solve_ring2d(dom, outer, inner, SemilinearEquation(zero_rhs()))
        assert sol.iterations > 0
        res, _ = ring2d._RingOperator(RingGrid(dom), sol.equation).residual(sol.values)
        assert sol.residual_norm == float(np.max(np.abs(res))) <= sol.meta["tol_used"]

    def test_line_search_failure(self, monkeypatch):
        real = ring2d._linear_solve

        def reversed_step(*args):
            x, its = real(*args)
            return -x, its

        monkeypatch.setattr(ring2d, "_linear_solve", reversed_step)
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=17, n_t=32)
        with pytest.raises(DidNotConverge, match="line search failed") as caught:
            solve_ring2d(dom, np.zeros(32), np.ones(32), SemilinearEquation(linear_u_rhs(1.0)))
        assert caught.value.iterations == 0
        assert math.isfinite(caught.value.residual) and caught.value.residual > 0.0
        # the minimal solve takes its Picard steps at full length before the line search
        with pytest.raises(DidNotConverge, match="line search failed") as caught:
            solve_ring2d(dom, np.zeros(32), np.ones(32), MINIMAL)
        assert caught.value.iterations == ring2d.MINIMAL.picard_steps
        assert math.isfinite(caught.value.residual) and caught.value.residual > 0.0

    NONFINITE = RingDomain2D(Circle(4.0), Circle(2.0), n_s=16, n_t=32)

    def test_non_finite_data_fails(self):
        inner = np.ones(32)
        inner[5] = np.nan
        with pytest.raises(DidNotConverge, match="not finite") as caught:
            solve_ring2d(self.NONFINITE, np.zeros(32), inner, MINIMAL)
        assert caught.value.iterations == 0
        assert math.isnan(caught.value.residual)

    def test_overflowing_rhs_fails(self):
        # exp(800 u) overflows on the inner data 1, and so do the residual and its floor
        rhs = SemilinearRHS(name="exp800", f=lambda x, u: np.exp(800.0 * u),
                            f_u=lambda x, u: 800.0 * np.exp(800.0 * u))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DidNotConverge, match="not finite") as caught:
                solve_ring2d(self.NONFINITE, np.zeros(32), np.ones(32), SemilinearEquation(rhs))
        assert caught.value.iterations == 0
        assert caught.value.residual == math.inf

    def test_non_finite_picard_step_fails(self, monkeypatch):
        # a Picard step is taken at full length whatever its residual, which must then fail
        real = ring2d._linear_solve

        def overflowing_step(*args):
            x, its = real(*args)
            return 1e300 * x, its

        monkeypatch.setattr(ring2d, "_linear_solve", overflowing_step)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DidNotConverge, match="not finite") as caught:
                solve_ring2d(self.NONFINITE, np.zeros(32), np.ones(32), MINIMAL)
        assert caught.value.iterations == 1
        assert not math.isfinite(caught.value.residual)

    def test_ellipse_ring_bounds_and_max_principle(self):
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=33, n_t=64)
        sol = solve_ring2d(dom, np.zeros(64), np.ones(64), MINIMAL)
        assert sol.residual_norm < 1e-10
        assert sol.values.min() >= -1e-12
        assert sol.values.max() <= 1.0 + 1e-12
        assert sol.max_principle_violation() <= 1e-12

    def test_semilinear_matches_radial(self):
        lam = 0.5
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=33, n_t=64)
        sol2d = solve_ring2d(dom, np.zeros(64), np.ones(64), SemilinearEquation(linear_u_rhs(lam)))
        sol1d = solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(lam), samples=2001)
        r = np.linalg.norm(sol2d.coords, axis=-1)
        interp = np.interp(r.ravel(), sol1d.r, sol1d.values)
        err = np.max(np.abs(sol2d.values.ravel() - interp))
        assert err < 40.0 * sol2d.h**2

    def test_boundary_gradient_accuracy(self):
        dom = RingDomain2D(Circle(4.0), Circle(2.0), n_s=65, n_t=128)
        outer = np.full(128, catenoid_value(4.0, anchor=2.0))
        sol = solve_ring2d(dom, outer, np.zeros(128), MINIMAL)
        fields = solution_fields(sol)
        g_out, g_in = fields.gnorm[fields.outer], fields.gnorm[fields.inner]
        assert np.max(np.abs(g_out - 1 / math.sqrt(15.0))) < 5e-4
        assert np.max(np.abs(g_in - 1 / math.sqrt(3.0))) < 5e-3

    def test_boundary_gradients_reuse_solver_grid(self, monkeypatch):
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=17, n_t=32)
        sol = solve_ring2d(dom, np.zeros(32), np.ones(32), SemilinearEquation(linear_u_rhs(1.0)))
        built = []
        real_init = ring2d.RingGrid.__init__

        def counting_init(self, domain):
            built.append(domain)
            real_init(self, domain)

        monkeypatch.setattr(ring2d.RingGrid, "__init__", counting_init)
        fields = solution_fields(sol)
        assert built == []
        # a solution that carries no grid gets one built, with the same result
        ref = solution_fields(dataclasses.replace(sol, grid=None))
        assert len(built) == 1
        assert np.array_equal(fields.gnorm, ref.gnorm) and np.array_equal(fields.k, ref.k)

    def test_boundary_row_hessian_order_two(self):
        # log(x^2 + 1.25 y^2) is not resolved exactly by the stencils on the ellipse ring
        errors, hs = [], []
        for ns, nt in [(17, 32), (33, 64), (65, 128)]:
            grid = RingGrid(RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=ns, n_t=nt))
            x, y = grid.x[..., 0], grid.x[..., 1]
            q = x * x + 1.25 * y * y
            exact = np.stack([2.0 / q - 4.0 * x * x / q**2, -5.0 * x * y / q**2,
                              -5.0 * x * y / q**2, 2.5 / q - 6.25 * y * y / q**2],
                             axis=-1).reshape(x.shape + (2, 2))
            err = np.abs(grid.physical_hessian(np.log(q)) - exact)[[0, -1]]
            errors.append(float(np.max(err)))
            hs.append(grid.spacing())
        orders = [math.log(errors[i] / errors[i + 1]) / math.log(hs[i] / hs[i + 1])
                  for i in range(2)]
        assert min(orders) >= 1.9

    def test_determinism_bitwise(self):
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=17, n_t=32)
        s1 = solve_ring2d(dom, np.zeros(32), np.ones(32), SemilinearEquation(linear_u_rhs(1.0)))
        s2 = solve_ring2d(dom, np.zeros(32), np.ones(32), SemilinearEquation(linear_u_rhs(1.0)))
        assert np.array_equal(s1.values, s2.values)


class TestWarmStart:
    """A solve continued from a solution of the same ring on another grid."""

    @staticmethod
    def _solve(ry, grid, warm_start=None):
        ns, nt = grid
        dom = RingDomain2D(Ellipse(4.0, ry), Circle(1.5), n_s=ns, n_t=nt)
        return solve_ring2d(dom, np.zeros(nt), np.ones(nt), MINIMAL, warm_start=warm_start)

    @pytest.mark.parametrize("ry", [3.2, 1.8])
    @pytest.mark.parametrize("grids", [[(25, 48), (49, 96), "blend"],
                                       [(49, 96), (25, 48), "blend"],
                                       [(30, 50), (77, 130), [21, 32]]],
                             ids=["ascending", "descending", "non-nested"])
    def test_warm_solve_matches_cold_solve(self, ry, grids):
        # the third entry is the cold solve's start: a 77x130 solve starts from its quarter grid
        coarse = self._solve(ry, grids[0])
        warm, cold = self._solve(ry, grids[1], warm_start=coarse), self._solve(ry, grids[1])
        assert coarse.meta["start"] == "blend" and cold.meta["start"] == grids[2]
        assert warm.meta["start"] == list(grids[0])
        assert warm.iterations > 0 and set(warm.meta["phases"]) == {"newton"}
        if grids[2] == "blend":
            assert cold.meta["phases"][:5] == ["picard"] * 5
            assert warm.iterations < cold.iterations
        else:
            # two Newton-only solves, one grid away from their starts
            assert set(cold.meta["phases"]) == {"newton"}
            assert warm.iterations == cold.iterations
        assert warm.residual_norm <= warm.meta["tol_used"]
        assert np.max(np.abs(warm.values - cold.values)) <= min(warm.meta["tol_used"],
                                                                cold.meta["tol_used"])

    def test_semilinear_warm_start(self):
        rings = [(RingDomain2D(Ellipse(2.4, 2.0), Circle(1.0), n_s=ns, n_t=nt), np.zeros(nt),
                  np.ones(nt)) for ns, nt in [(17, 32), (33, 64)]]
        sols = solve_family(rings, SemilinearEquation(linear_u_rhs(1.0)))
        cold = solve_ring2d(*rings[1], SemilinearEquation(linear_u_rhs(1.0)))
        assert sols[1].meta["start"] == [17, 32]
        assert np.max(np.abs(sols[1].values - cold.values)) <= cold.meta["tol_used"]

    def test_family_is_the_hand_written_warm_start_chain(self):
        # a family step may change the grid or the boundary data; the t-grid goes down and up
        rings = [(RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=ns, n_t=nt), np.zeros(nt),
                  np.full(nt, inner)) for ns, nt, inner in [(17, 32, 1.0), (25, 24, 1.0),
                                                            (33, 64, 1.5)]]
        family = solve_family(rings, MINIMAL, tol=1e-11)
        first = solve_ring2d(*rings[0], MINIMAL, tol=1e-11)
        second = solve_ring2d(*rings[1], MINIMAL, tol=1e-11, warm_start=first)
        third = solve_ring2d(*rings[2], MINIMAL, tol=1e-11, warm_start=second)
        assert [s.meta["start"] for s in family] == ["blend", [17, 32], [25, 24]]
        for got, expected in zip(family, [first, second, third], strict=True):
            assert np.array_equal(got.values, expected.values)
            assert got.meta == expected.meta and got.meta["tol"] == 1e-11

    @pytest.mark.parametrize("m, n", [(16, 40), (17, 40), (40, 16), (40, 17), (16, 16), (15, 16)])
    def test_t_interpolation_reproduces_trigonometric_polynomials(self, m, n):
        k = (min(m, n) - 1) // 2  # the highest frequency both grids resolve

        def poly(nt):
            t = np.arange(nt) * (2.0 * math.pi / nt)
            return np.array([0.3 + np.cos(t) - 0.7 * np.sin(2.0 * t) + 0.2 * np.cos(k * t + 0.4)])

        assert np.max(np.abs(ring2d._resample_t(poly(m), n) - poly(n))) < 1e-13

    @pytest.mark.parametrize("n", [16, 40])
    def test_t_interpolation_keeps_the_nyquist_cosine(self, n):
        # on 16 nodes cos(8 t) is (-1)^j; its interpolant is cos(8 t) on any finer grid
        coarse = np.cos(8.0 * np.arange(16) * (2.0 * math.pi / 16))[None, :]
        fine = np.cos(8.0 * np.arange(n) * (2.0 * math.pi / n))
        assert np.max(np.abs(ring2d._resample_t(coarse, n) - fine)) < 1e-13

    @pytest.mark.parametrize("m, n", [(4, 9), (9, 4), (7, 23), (23, 7), (30, 77)])
    def test_s_interpolation_reproduces_cubics(self, m, n):
        def cubic(ns):
            s = np.linspace(0.0, 1.0, ns)[:, None]
            return np.hstack([1.0 - 2.0 * s + 3.0 * s**2 - 4.0 * s**3, s**3, np.ones_like(s)])
        out = ring2d._resample_s(cubic(m), n)
        assert np.max(np.abs(out - cubic(n))) < 1e-13
        assert np.array_equal(out[[0, -1]], cubic(m)[[0, -1]])

    def test_s_interpolation_is_centred(self):
        # an interior midpoint reads the centred rule (-1, 9, 9, -1)/16 of its four
        # neighbours; the first midpoint leans on the rows beside the end
        weights = ring2d._resample_s(np.eye(6), 11)
        assert np.allclose(weights[5], np.array([0.0, -1.0, 9.0, 9.0, -1.0, 0.0]) / 16.0)
        assert np.allclose(weights[1], np.array([5.0, 15.0, -5.0, 1.0, 0.0, 0.0]) / 16.0)

    @pytest.mark.parametrize("other", [
        RingDomain2D(Ellipse(4.0, 3.0), Circle(1.5), n_s=25, n_t=48),
        RingDomain2D(Ellipse(4.0, 3.2), Circle(1.4), n_s=25, n_t=48),
        RingDomain2D(Ellipse(4.0, 3.2, center=(0.1, 0.0)), Circle(1.5, center=(0.1, 0.0)),
                     n_s=25, n_t=48, center=(0.1, 0.0)),
    ], ids=["outer", "inner", "center"])
    def test_warm_start_from_another_ring_is_rejected(self, other):
        start = solve_ring2d(other, np.zeros(48), np.ones(48), MINIMAL)
        with pytest.raises(ValueError, match="warm start"):
            self._solve(3.2, (49, 96), warm_start=start)

    def test_radial_warm_start_is_rejected(self):
        start = solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(1.0), samples=21)
        with pytest.raises(ValueError, match="warm start"):
            self._solve(3.2, (25, 48), warm_start=start)


class TestNestedStart:
    """A cold minimal solve starts Newton from its own solve on the quarter grid."""

    @staticmethod
    def _coarse_solves(monkeypatch):
        """The list each coarse solve of a nested start is appended to as it ends:
        (grid, solution), or (grid, the DidNotConverge it raised).  A solve calls its
        coarse solve through ``ring2d.solve_ring2d``, which this wraps."""
        solves = []
        real = ring2d.solve_ring2d

        def recorded(domain, *args, **kwargs):
            try:
                sol = real(domain, *args, **kwargs)
            except DidNotConverge as failure:
                solves.append(((domain.n_s, domain.n_t), failure))
                raise
            solves.append(((domain.n_s, domain.n_t), sol))
            return sol

        monkeypatch.setattr(ring2d, "solve_ring2d", recorded)
        return solves

    @pytest.mark.parametrize("ry", [3.2, 1.8])
    def test_nested_solve_matches_cold_solve(self, monkeypatch, ry):
        coarse = self._coarse_solves(monkeypatch)
        nested = TestWarmStart._solve(ry, (128, 256))
        with monkeypatch.context() as patch:
            # no quarter grid of a 128x256 solve reaches its own size
            patch.setattr(ring2d, "NESTED_MIN_GRID", (128, 256))
            cold = TestWarmStart._solve(ry, (128, 256))
        assert nested.meta["start"] == [33, 64] and "coarse_failed" not in nested.meta
        assert set(nested.meta["phases"]) == {"newton"}
        # the 33x64 solve's steps are counted beside the 128x256 ones
        assert [grid for grid, _ in coarse] == [(33, 64)]
        assert nested.meta["coarse_iterations"] == coarse[0][1].iterations > 0
        assert cold.meta["start"] == "blend" and cold.meta["phases"][:5] == ["picard"] * 5
        assert "coarse_iterations" not in cold.meta
        assert nested.iterations < cold.iterations
        assert np.max(np.abs(nested.values - cold.values)) <= min(nested.meta["tol_used"],
                                                                  cold.meta["tol_used"])

    def test_quarter_grids_nest_down_to_the_blend(self, monkeypatch):
        coarse = self._coarse_solves(monkeypatch)
        sol = TestWarmStart._solve(3.2, (256, 512))
        assert [grid for grid, _ in coarse] == [(18, 32), (65, 128)]
        assert [s.meta["start"] for _, s in coarse] == ["blend", [18, 32]]
        assert coarse[0][1].meta["phases"][:5] == ["picard"] * 5
        assert sol.meta["start"] == [65, 128]
        assert set(coarse[1][1].meta["phases"]) == set(sol.meta["phases"]) == {"newton"}
        # each level counts the steps of every level below it
        (_, bottom), (_, middle) = coarse
        assert "coarse_iterations" not in bottom.meta
        assert middle.meta["coarse_iterations"] == bottom.iterations
        assert sol.meta["coarse_iterations"] == bottom.iterations + middle.iterations

    @pytest.mark.parametrize("grid, start", [((25, 48), "blend"), ((60, 128), "blend"),
                                             ((64, 124), "blend"), ((61, 128), [17, 32]),
                                             ((64, 128), [17, 32])])
    def test_minimal_start_follows_the_quarter_grid(self, monkeypatch, grid, start):
        # the quarter grid ((n_s + 3) // 4 + 1, n_t // 4) must be at least (17, 32)
        coarse = self._coarse_solves(monkeypatch)
        sol = TestWarmStart._solve(3.2, grid)
        assert sol.meta["start"] == start and "coarse_failed" not in sol.meta
        if start == "blend":
            assert coarse == [] and sol.meta["phases"][:5] == ["picard"] * 5
            assert "coarse_iterations" not in sol.meta
        else:
            assert [g for g, _ in coarse] == [tuple(start)]
            assert set(sol.meta["phases"]) == {"newton"}
            assert sol.meta["coarse_iterations"] == coarse[0][1].iterations

    def test_semilinear_solve_starts_from_the_blend(self, monkeypatch):
        coarse = self._coarse_solves(monkeypatch)
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=128, n_t=256)
        sol = solve_ring2d(dom, np.zeros(256), np.ones(256), SemilinearEquation(linear_u_rhs(1.0)))
        assert coarse == [] and sol.meta["start"] == "blend" and "coarse_failed" not in sol.meta
        assert sol.residual_norm <= sol.meta["tol_used"]


class TestRoundingFloor:
    """tol_used: the rounding floor 32 eps (1 + max|u|) row_l1 of the iterate a solve stops at."""

    @staticmethod
    def _steep(fraction):
        # inner data a fraction of the steepest jump 2 acosh 2 a minimal graph makes over
        # Circle(4)/Circle(2), outer data 0, solved cold
        dom = RingDomain2D(Circle(4.0), Circle(2.0), n_s=128, n_t=256)
        return solve_ring2d(dom, np.zeros(256),
                            np.full(256, fraction * 2.0 * math.acosh(2.0)), MINIMAL)

    def test_steep_circle_ring_converges_cold(self):
        # the rounding floor at the solution lies far above that of the blend it starts from
        sol = self._steep(0.97)
        assert sol.residual_norm <= sol.meta["tol_used"]

    def test_steeper_circle_ring_keeps_its_iterations(self, monkeypatch):
        # its 33x64 quarter grid fails to converge, so the solve falls back to the blend
        coarse = TestNestedStart._coarse_solves(monkeypatch)
        sol = self._steep(0.98)
        assert sol.meta["start"] == "blend" and sol.meta["coarse_failed"] == [33, 64]
        assert sol.meta["phases"][:5] == ["picard"] * 5
        assert sol.iterations == 19
        # the failed attempt's steps are reported beside it
        ((grid, failure),) = coarse
        assert grid == (33, 64) and isinstance(failure, DidNotConverge)
        assert sol.meta["coarse_iterations"] == failure.iterations == 15

    @pytest.mark.parametrize("grids", [[(25, 48), (49, 96)], [(49, 96), (25, 48)]],
                             ids=["coarse", "fine"])
    def test_cold_and_warm_solves_record_one_floor(self, grids):
        other = TestWarmStart._solve(1.8, grids[1])
        cold = TestWarmStart._solve(1.8, grids[0])
        warm = TestWarmStart._solve(1.8, grids[0], warm_start=other)
        assert warm.meta["start"] == list(grids[1])
        assert warm.meta["tol_used"] == pytest.approx(cold.meta["tol_used"], rel=1e-12, abs=0.0)


class TestNewtonKrylov:
    """GMRES under the t-averaged preconditioner: the only linear solver of ring2d."""

    ELLIPSE = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=64, n_t=128)

    def _ellipse(self, ry=3.2):
        dom = dataclasses.replace(self.ELLIPSE, outer=Ellipse(4.0, ry))
        return solve_ring2d(dom, np.zeros(128), np.ones(128), MINIMAL)

    @staticmethod
    def _direct_solves(patch):
        """Make every linear step a scipy splu solve of the COO reference matrix of its planes."""
        fields_of = {}  # id of a set of stencil planes -> the fields they were built from
        real = ring2d._RingOperator.stencil_planes

        def recorded(self, fields):
            planes = real(self, fields)
            fields_of[id(planes)] = fields
            return planes

        def direct(op, planes, rhs, frozen):
            matrix = TestLinearization._coo_reference(op, fields_of.pop(id(planes)))
            return splu(matrix.tocsc()).solve(rhs), 0

        patch.setattr(ring2d._RingOperator, "stencil_planes", recorded)
        patch.setattr(ring2d, "_linear_solve", direct)

    def _gmres_and_splu(self, monkeypatch, ry):
        krylov = self._ellipse(ry)
        with monkeypatch.context() as patch:
            self._direct_solves(patch)
            direct = self._ellipse(ry)
        assert "linear_solver" not in krylov.meta
        assert 0 < min(krylov.meta["krylov_iterations"])
        assert max(krylov.meta["krylov_iterations"]) < ring2d._GMRES_MAX_ITER
        assert krylov.iterations == direct.iterations
        assert direct.meta["krylov_iterations"] == [0] * direct.iterations
        assert krylov.meta["phases"] == direct.meta["phases"]
        return krylov, direct

    def test_gmres_matches_splu(self, monkeypatch):
        krylov, direct = self._gmres_and_splu(monkeypatch, 3.2)
        assert np.max(np.abs(krylov.values - direct.values)) < 1e-12
        # the row-scaled preconditioner: 25 Krylov steps, against 39 unscaled
        assert sum(krylov.meta["krylov_iterations"]) < 39

    def test_eccentric_ring_matches_splu(self, monkeypatch):
        krylov, direct = self._gmres_and_splu(monkeypatch, 1.8)
        assert np.max(np.abs(krylov.values - direct.values)) < 1e-10

    def test_stalled_gmres_ends_the_solve(self, monkeypatch):
        # a linear step that stops short of its forcing term fails the solve at once
        monkeypatch.setattr(ring2d, "_GMRES_MAX_ITER", 1)
        with pytest.raises(DidNotConverge, match="linear step failed") as failed:
            self._ellipse()
        assert "krylov_iterations 1" in str(failed.value)
        assert failed.value.iterations == 0
        assert failed.value.residual > 0.0

    def test_stalled_solve_builds_one_set_of_planes(self, monkeypatch):
        # a converged solve builds one set per accepted iterate and one per Newton
        # step, here on its 17x32 quarter grid and then on its own; a stalled first
        # step fails on the planes its start's floor read, on the quarter grid and
        # again on the fallback from the blend
        calls = self._count_calls(monkeypatch, "stencil_planes")
        coarse = TestNestedStart._coarse_solves(monkeypatch)
        krylov = self._ellipse()
        [(grid, first)] = coarse
        assert grid == (17, 32) and krylov.meta["start"] == [17, 32]
        assert first.meta["phases"] == ["picard"] * 5 + ["newton"]
        assert krylov.meta["phases"] == ["newton"] * 2
        assert calls["stencil_planes"] == first.iterations + 2 + 2 * krylov.iterations + 1 == 13
        calls["stencil_planes"] = 0
        coarse.clear()
        monkeypatch.setattr(ring2d, "_GMRES_MAX_ITER", 1)
        with pytest.raises(DidNotConverge, match="linear step failed"):
            self._ellipse()
        [(grid, failure)] = coarse
        assert grid == (17, 32) and isinstance(failure, DidNotConverge)
        assert failure.iterations == 0
        assert calls["stencil_planes"] == 2

    def test_gmres_solves_thin_eccentric_ring(self):
        # a thin, eccentric ring: its first Newton step takes more than 500 Krylov steps
        dom = RingDomain2D(Ellipse(12.0, 1.6), Circle(1.5), n_s=97, n_t=128)
        sol = solve_ring2d(dom, np.zeros(128), np.ones(128), SemilinearEquation(zero_rhs()))
        assert max(sol.meta["krylov_iterations"]) < ring2d._GMRES_MAX_ITER
        assert sol.residual_norm <= sol.meta["tol_used"]
        assert sol.max_principle_violation() == 0.0
        # one splu solve of the reference matrix at the blend: the equation is linear
        grid = RingGrid(dom)
        op = ring2d._RingOperator(grid, ring2d.SemilinearEquation(zero_rhs()))
        blend = ring2d._blend(np.zeros(128), np.ones(128), 97)
        res, state = op.residual(blend)
        fields = op._linearization_fields(state, frozen=True)
        direct = blend.copy()
        direct[1:-1] -= splu(TestLinearization._coo_reference(op, fields).tocsc()).solve(
            res.ravel()).reshape(res.shape)
        assert np.max(np.abs(sol.values - direct)) < 1e-10

    @pytest.mark.parametrize("n_s,n_t", [(64, 128), (128, 256)])
    def test_ring_without_solution_fails_after_one_capped_gmres_run(self, monkeypatch, n_s, n_t):
        # 0/1 data over this ring admit no minimal graph: the Picard steps leave a huge
        # residual, a Newton step's GMRES runs to its cap and the solve ends there. At
        # 128x256 the first Newton step sits near the cap (849 Krylov steps under
        # multithreaded BLAS, 1000 single-threaded), so which Newton step fails depends
        # on rounding; that one capped run ends the solve does not. Before all that the
        # solve on the quarter grid fails, and the solve falls back to the blend.
        returned = []  # (unknowns, failed) of each GMRES run
        real = ring2d._gmres

        def counted(*args):
            out = real(*args)
            returned.append((args[2].size, out[0] is None))
            return out

        monkeypatch.setattr(ring2d, "_gmres", counted)
        coarse = TestNestedStart._coarse_solves(monkeypatch)
        dom = RingDomain2D(Ellipse(4.0, 1.6), Circle(1.5), n_s=n_s, n_t=n_t)
        with pytest.raises(DidNotConverge, match="linear step failed") as failed:
            solve_ring2d(dom, np.zeros(n_t), np.ones(n_t), MINIMAL)
        # the quarter grid's solve runs one GMRES per accepted step and one for the
        # step whose line search fails, and none of them fails
        quarter = ((n_s + 3) // 4 + 1, n_t // 4)
        [(grid, failure)] = coarse
        assert grid == quarter and "line search failed" in str(failure)
        runs = failure.iterations + 1
        assert returned[:runs] == [((quarter[0] - 2) * quarter[1], False)] * runs
        assert {size for size, _ in returned[runs:]} == {(n_s - 2) * n_t}
        returned = [failed for _, failed in returned[runs:]]
        assert returned[:5] == [False] * 5  # the Picard steps
        assert returned.count(True) == 1 and returned[-1]
        assert failed.value.iterations == len(returned) - 1 >= 5
        assert f"krylov_iterations {ring2d._GMRES_MAX_ITER}" in str(failed.value)

    @staticmethod
    def _count_calls(monkeypatch, *names, owner=ring2d._RingOperator):
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(owner, name)

            def counted(self, *args, real=real, name=name):
                calls[name] += 1
                return real(self, *args)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_one_coefficient_pass_per_evaluation(self, monkeypatch):
        # the rounding floor and the step read the frozen planes of the last evaluation:
        # one set per accepted iterate, never on a trial, and one more per Newton
        # step, on the 33x64 quarter grid the solve starts from and on its own
        calls = self._count_calls(monkeypatch, "residual", "stencil_planes",
                                  "_linearization_fields")
        coefficients = self._count_calls(monkeypatch, "coefficients", owner=ring2d.MinimalEquation)
        coarse = TestNestedStart._coarse_solves(monkeypatch)
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=128, n_t=256)
        sol = solve_ring2d(dom, np.zeros(256), np.ones(256), MINIMAL)
        [(grid, first)] = coarse
        assert grid == (33, 64) and sol.meta["start"] == [33, 64]
        assert (coefficients["coefficients"] == calls["residual"]
                == first.iterations + 1 + sol.iterations + 1 == 10)
        assert first.meta["phases"] == ["picard"] * 5 + ["newton"]
        assert sol.meta["phases"] == ["newton"] * 2
        assert (calls["stencil_planes"] == calls["_linearization_fields"]
                == first.iterations + 2 + 2 * sol.iterations + 1 == 13)
        assert first.meta["step_lengths"] == [1.0] * first.iterations
        assert sol.meta["step_lengths"] == [1.0] * sol.iterations

    def test_semilinear_step_solves_with_the_floor_planes(self, monkeypatch):
        # F = I, so the Newton step solves with the frozen planes its start's floor read
        calls = self._count_calls(monkeypatch, "stencil_planes", "_linearization_fields")
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=64, n_t=128)
        sol = solve_ring2d(dom, np.zeros(128), np.ones(128), SemilinearEquation(linear_u_rhs(1.0)))
        assert sol.iterations == 1
        assert calls["stencil_planes"] == calls["_linearization_fields"] == 2

    def test_semilinear_circle_one_newton_step(self):
        # the metric of a circle ring does not depend on t, so the t-averaged
        # preconditioner is the exact inverse and GMRES needs one iteration
        dom = RingDomain2D(Circle(2.0, center=(1.3, -0.4)), Circle(1.0, center=(1.3, -0.4)),
                           n_s=64, n_t=128, center=(1.3, -0.4))
        sol = solve_ring2d(dom, np.zeros(128), np.ones(128), SemilinearEquation(linear_u_rhs(1.0)))
        assert sol.iterations == 1
        assert sol.meta["krylov_iterations"] == [1]

    def test_preconditioner_inverts_t_invariant_operator(self):
        # coefficients that vary in s only: every Fourier mode is solved exactly
        grid = RingGrid(RingDomain2D(Circle(2.0), Circle(1.0), n_s=17, n_t=32))
        rng = np.random.default_rng(0)
        rows = rng.uniform(-0.5, 0.5, size=(6, 17, 1)) + np.array([1, 0, 1, 0, 0, -1])[:, None, None]
        fields = tuple(np.broadcast_to(f, (17, 32)) for f in rows)
        op = ring2d._RingOperator(grid, ring2d.SemilinearEquation(zero_rhs()))
        planes = op.stencil_planes(fields)
        mat = TestLinearization._coo_reference(op, fields)
        precond = ring2d._averaged_preconditioner(planes, grid.dt)
        x = rng.standard_normal(mat.shape[0])
        assert np.max(np.abs(precond(mat @ x) - x)) < 1e-10

    def test_singular_pivot_gives_no_preconditioner(self):
        zero = np.zeros((9, 7, 16))  # the stencil planes of zero fields
        assert ring2d._averaged_preconditioner(zero, 2.0 * math.pi / 16) is None

    @staticmethod
    def _ellipse_fields():
        # Newton fields of the ellipse ring at a smooth u; they vary in t
        grid = RingGrid(RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=33, n_t=64))
        op = ring2d._RingOperator(grid, ring2d.MINIMAL)
        s = np.linspace(0.0, 1.0, 33)[:, None]
        u = s + 0.1 * s * (1.0 - s) * np.sin(grid.x[..., 0] + 2.0 * grid.x[..., 1])
        return op, op._linearization_fields(op.residual(u)[1], frozen=False)

    def test_preconditioner_is_row_scaled_averaged_operator(self):
        op, fields = self._ellipse_fields()
        ds, dt = op.grid.ds, op.grid.dt
        assert min(np.ptp(fields[k][1:-1], axis=1).max() for k in range(5)) > 0.05
        w = 2.0 * fields[0][1:-1] / ds**2 + 2.0 * fields[2][1:-1] / dt**2
        w = w / w.mean(axis=1, keepdims=True)
        # the boundary rows are read by neither operator
        averaged = tuple(np.pad((f[1:-1] / w).mean(axis=1, keepdims=True) * np.ones_like(w),
                                ((1, 1), (0, 0))) for f in fields)
        r = np.random.default_rng(2).standard_normal(w.size)
        expected = splu(TestLinearization._coo_reference(op, averaged).tocsc()).solve(r / w.ravel())
        got = ring2d._averaged_preconditioner(op.stencil_planes(fields), dt)(r)
        assert np.max(np.abs(got - expected)) < 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n_s,n_t", [ring2d.MIN_GRID, (9, 15), (33, 64)])
    @pytest.mark.parametrize("equation,frozen", [("minimal", False), ("minimal", True),
                                                 ("semilinear", False)],
                             ids=["newton", "picard", "semilinear"])
    def test_stencil_apply_matches_assembled_jacobian(self, n_s, n_t, equation, frozen):
        grid = RingGrid(RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=n_s, n_t=n_t))
        op = ring2d._RingOperator(grid, ring2d.SemilinearEquation(TestLinearization._cubic_rhs())
                                  if equation == "semilinear" else ring2d.MINIMAL)
        s = np.linspace(0.0, 1.0, n_s)[:, None]
        u = s + 0.1 * s * (1.0 - s) * np.sin(grid.x[..., 0] + 2.0 * grid.x[..., 1])
        fields = op._linearization_fields(op.residual(u)[1], frozen)
        mat = TestLinearization._coo_reference(op, fields)
        apply = ring2d._jacobian_apply(op.stencil_planes(fields))
        rng = np.random.default_rng(6)
        for _ in range(2):  # the padded copy is reused by the second vector
            x = rng.standard_normal(mat.shape[0])
            expected = mat @ x
            assert np.max(np.abs(apply(x) - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_gmres_zero_rhs(self):
        x, steps = ring2d._gmres(lambda v: v, lambda v: v, np.zeros(12), 1e-8)
        assert steps == 0
        assert np.array_equal(x, np.zeros(12))

    @pytest.mark.parametrize("restart", [50, 3])
    def test_gmres_meets_forcing_on_true_residual(self, monkeypatch, restart):
        monkeypatch.setattr(ring2d, "_GMRES_RESTART", restart)
        op, fields = self._ellipse_fields()
        planes = op.stencil_planes(fields)
        apply = ring2d._jacobian_apply(planes)
        precond = ring2d._averaged_preconditioner(planes, op.grid.dt)
        rhs = np.random.default_rng(7).standard_normal(31 * 64)
        direct = splu(TestLinearization._coo_reference(op, fields).tocsc()).solve(rhs)
        for forcing in (1e-3, 1e-8):
            x, steps = ring2d._gmres(apply, precond, rhs, forcing)
            assert 0 < steps < ring2d._GMRES_MAX_ITER
            assert np.linalg.norm(rhs - apply(x)) <= forcing * np.linalg.norm(rhs)
        assert steps > 3  # so with restart 3 the last solve ran several cycles
        assert np.max(np.abs(x - direct)) < 1e-6 * np.max(np.abs(direct))

    def test_gmres_steps_are_the_minimal_polynomial_degree(self):
        # A with three distinct eigenvalues: GMRES is exact after three Arnoldi steps
        diagonal = np.repeat([1.0, 2.0, 5.0], 7)
        rhs = np.random.default_rng(8).standard_normal(21)
        x, steps = ring2d._gmres(lambda v: diagonal * v, lambda v: v, rhs, 1e-10)
        assert steps == 3
        assert np.max(np.abs(x - rhs / diagonal)) < 1e-12

    @pytest.mark.parametrize("case", ["singular", "nan"])
    def test_gmres_breakdown_returns_none(self, case):
        apply = (lambda v: 0.0 * v) if case == "singular" else (lambda v: v)
        precond = (lambda v: v) if case == "singular" else (lambda v: np.full_like(v, np.nan))
        x, steps = ring2d._gmres(apply, precond, np.ones(12), 1e-8)
        assert (x, steps) == (None, 1)

    def _breakdown(self, case):
        if case == "zero-pivot":
            # u_tt + d u with d = +-1 alternating in t: invertible, but d averages to
            # zero over t, so mode 0 of the averaged operator is the zero matrix
            grid = RingGrid(RingDomain2D(Circle(2.0), Circle(1.0), n_s=9, n_t=16))
            zero, one = np.zeros((9, 16)), np.ones((9, 16))
            d = np.broadcast_to(np.where(np.arange(16) % 2, -1.0, 1.0), (9, 16))
            op = ring2d._RingOperator(grid, ring2d.SemilinearEquation(zero_rhs()))
            return op, (zero, zero, one, zero, zero, d)
        # one node of m_ss that makes w = 2 m_ss/ds^2 + 2 m_tt/dt^2 negative, or a NaN m_s
        k, value = {"negative-w": (0, -10.0), "nan": (3, np.nan)}[case]
        op, fields = self._ellipse_fields()
        fields = list(fields)
        fields[k] = fields[k].copy()
        fields[k][4, 5] = value
        return op, tuple(fields)

    @pytest.mark.parametrize("case", ["zero-pivot", "negative-w", "nan"])
    def test_breakdown_gives_no_preconditioner(self, case):
        op, fields = self._breakdown(case)
        assert ring2d._averaged_preconditioner(op.stencil_planes(fields), op.grid.dt) is None

    @pytest.mark.parametrize("case", ["zero-pivot", "negative-w"])
    def test_breakdown_ends_the_solve(self, case):
        # no preconditioner, so no correction: the Newton iteration raises at its first step
        op, fields = self._breakdown(case)
        planes = op.stencil_planes(fields)
        rhs = np.random.default_rng(4).standard_normal(planes[0].size)
        assert ring2d._linear_solve(op, planes, rhs, frozen=False) == (None, 0)
        u = np.zeros((op.grid.n_s, op.grid.n_t))
        with pytest.raises(DidNotConverge, match=r"linear step failed \(krylov_iterations 0\)") as failed:
            _damped_newton(lambda u: (rhs.reshape(planes[0].shape), None), lambda state: planes,
                           functools.partial(ring2d._linear_solve, op), u, 1e-10, 50, "ring2d",
                           details=("krylov_iterations",))
        assert failed.value.iterations == 0
        assert failed.value.residual == np.max(np.abs(rhs))


class TestLinearization:
    """The stencil Jacobian is the derivative of the residual it solves against."""

    @staticmethod
    def _cubic_rhs():
        return SemilinearRHS(name="cubic", f=lambda x, u: u**3 + np.asarray(x)[:, 0],
                             f_u=lambda x, u: 3.0 * u**2)

    @staticmethod
    def _coo_reference(op, fields):
        # the nine-point stencils per offset as [ss, st, tt, s, t] weights, summed per entry
        ds, dt = op.grid.ds, op.grid.dt
        stencil = {o: np.zeros(5) for o in ring2d._OFFSETS}
        stencil[(-1, 0)][0] = stencil[(1, 0)][0] = 1.0 / ds**2
        stencil[(0, 0)][0] = -2.0 / ds**2
        stencil[(0, -1)][2] = stencil[(0, 1)][2] = 1.0 / dt**2
        stencil[(0, 0)][2] = -2.0 / dt**2
        for si, ti, sgn in [(1, 1, 1.0), (1, -1, -1.0), (-1, 1, -1.0), (-1, -1, 1.0)]:
            stencil[(si, ti)][1] = sgn / (4.0 * ds * dt)
        stencil[(1, 0)][3], stencil[(-1, 0)][3] = 1.0 / (2.0 * ds), -1.0 / (2.0 * ds)
        stencil[(0, 1)][4], stencil[(0, -1)][4] = 1.0 / (2.0 * dt), -1.0 / (2.0 * dt)
        *coeffs, diag = (f[1:-1] for f in fields)
        rows, nt = diag.shape
        i, j = np.arange(rows)[:, None], np.arange(nt)[None, :]
        r, c, v = [], [], []
        for (oi, oj) in ring2d._OFFSETS:
            entry = sum(w * f for w, f in zip(stencil[(oi, oj)], coeffs))
            if (oi, oj) == (0, 0):
                entry = entry + diag
            target = np.broadcast_to(i + oi, (rows, nt))
            keep = (target >= 0) & (target < rows)
            r.append(np.broadcast_to(i * nt + j, (rows, nt))[keep])
            c.append((target * nt + (j + oj) % nt)[keep])
            v.append(entry[keep])
        return coo_matrix((np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
                          shape=(rows * nt, rows * nt)).tocsr()

    @pytest.mark.parametrize("n_s,n_t", [(4, 8), (9, 16)])
    def test_stencil_apply_matches_coo_reference(self, n_s, n_t):
        grid = RingGrid(RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=n_s, n_t=n_t))
        op = ring2d._RingOperator(grid, ring2d.MINIMAL)
        rng = np.random.default_rng(5)
        for _ in range(2):  # the padded copy is reused by the second apply
            fields = tuple(rng.standard_normal((n_s, n_t)) for _ in range(6))
            apply = ring2d._jacobian_apply(op.stencil_planes(fields))
            x = rng.standard_normal((n_s - 2) * n_t)
            expected = self._coo_reference(op, fields) @ x
            assert np.max(np.abs(apply(x) - expected)) <= 1e-14 * np.max(np.abs(expected))

    @staticmethod
    def _newton_matches_central_difference(dom, equation):
        grid = RingGrid(dom)
        op = ring2d._RingOperator(grid, equation)
        ns, nt = grid.n_s, grid.n_t
        s = np.linspace(0.0, 1.0, ns)[:, None]
        x, y = grid.x[..., 0], grid.x[..., 1]
        u = s + 0.1 * s * (1.0 - s) * np.sin(x + 2.0 * y)
        v = np.random.default_rng(3).standard_normal((ns - 2, nt))
        apply = ring2d._jacobian_apply(op.jacobian(op.residual(u)[1], frozen=False))
        eps = 1e-6
        plus, minus = u.copy(), u.copy()
        plus[1:-1] += eps * v
        minus[1:-1] -= eps * v
        fd = ((op.residual(plus)[0] - op.residual(minus)[0]) / (2.0 * eps)).ravel()
        jv = apply(v.ravel())
        return float(np.max(np.abs(jv - fd)) / np.max(np.abs(jv)))

    def test_minimal_newton_jacobian_is_residual_derivative(self):
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=33, n_t=64)
        assert self._newton_matches_central_difference(dom, ring2d.MINIMAL) < 1e-6

    def test_semilinear_newton_jacobian_is_residual_derivative(self):
        dom = RingDomain2D(Circle(2.0, center=(0.3, -0.2)), Circle(1.0, center=(0.6, 0.1)),
                           n_s=33, n_t=64, center=(0.4, -0.1))
        equation = ring2d.SemilinearEquation(self._cubic_rhs())
        assert self._newton_matches_central_difference(dom, equation) < 1e-6

    def test_minimal_zero_rhs_terms_change_no_bit(self):
        # the minimal operator subtracts f = 0 and adds -f_u = -0.0 to the diagonal unbranched
        grid = RingGrid(RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=17, n_t=32))
        op = ring2d._RingOperator(grid, ring2d.MINIMAL)
        s = np.linspace(0.0, 1.0, 17)[:, None]
        u = s + 0.1 * s * (1.0 - s) * np.sin(grid.x[..., 0] + 2.0 * grid.x[..., 1])
        res, planes = op.residual(u)
        (us, ut, uss, ust, utt), (m_ss, m_st, m_tt, n_s, n_t) = planes[1:]
        bare = (m_ss * uss + m_st * ust + m_tt * utt + n_s * us + n_t * ut)[1:-1]
        assert res.tobytes() == bare.tobytes()
        x = np.random.default_rng(1).standard_normal(15 * 32)
        for frozen in (True, False):
            fields = op._linearization_fields(planes, frozen)
            zero = fields[:5] + (np.zeros_like(u),)
            stencils = [op.stencil_planes(f) for f in (fields, zero)]
            assert stencils[0].tobytes() == stencils[1].tobytes()
            precond = [ring2d._averaged_preconditioner(p, grid.dt) for p in stencils]
            assert precond[0](x).tobytes() == precond[1](x).tobytes()

    def test_minimal_residual_is_f_contracted_with_hessian(self):
        # the (s, t) coefficients reproduce F(grad u) : hess u in physical coordinates
        grid = RingGrid(RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=33, n_t=64))
        x, y = grid.x[..., 0], grid.x[..., 1]
        u = np.log(x * x + 1.25 * y * y)
        g, h = grid.physical_gradient(u), grid.physical_hessian(u)
        f = (1.0 + np.sum(g * g, axis=-1))[..., None, None] * np.eye(2) - g[..., :, None] * g[..., None, :]
        expected = np.sum(f * h, axis=(-2, -1))[1:-1]
        res = ring2d._RingOperator(grid, ring2d.MINIMAL).residual(u)[0]
        assert np.max(np.abs(res - expected)) < 1e-12 * np.max(np.abs(expected))


class TestMetamorphicRelations:
    """Exact symmetries of the discrete problem on Ellipse(4, 3.2) around Circle(1.5).

    Scaling by 2 is exact in floating point and is gated bitwise.  Translation
    by a dyadic offset and the quarter turn (t shifted by pi/2) round cos, sin
    and the centre sum differently, so they move u and the ``both`` margin at
    theta = -1/2 by at most 2 eps.
    """

    N_T = 128
    EPS = np.finfo(float).eps

    @classmethod
    def _solve(cls, equation, rx=4.0, ry=3.2, scale=1.0, center=(0.0, 0.0), inner_data=1.0):
        dom = RingDomain2D(Ellipse(scale * rx, scale * ry, center), Circle(scale * 1.5, center),
                           n_s=64, n_t=cls.N_T, center=center)
        outer, inner = np.zeros(cls.N_T), np.full(cls.N_T, inner_data)
        if equation == "minimal":
            return solve_ring2d(dom, outer, inner, MINIMAL)
        rhs = zero_rhs() if equation == "laplace" else linear_u_rhs(1.0)
        return solve_ring2d(dom, outer, inner, SemilinearEquation(rhs))

    @staticmethod
    def _margin(sol):
        spec = TestFunctionSpec.minimal_theta(-0.5)
        return check_extremum_on_boundary(sol, spec, which="both")["margin"]

    @pytest.fixture(scope="class")
    def base(self):
        return {eq: self._solve(eq) for eq in ("minimal", "laplace", "linear-u")}

    def test_scaling_by_two(self, base):
        # a minimal graph scales with its data: u(x) -> 2 u(x / 2); a harmonic u keeps its data
        minimal = self._solve("minimal", scale=2.0, inner_data=2.0)
        assert np.array_equal(minimal.values, 2.0 * base["minimal"].values)
        assert self._margin(minimal) == self._margin(base["minimal"]) / 2.0
        laplace = self._solve("laplace", scale=2.0)
        assert laplace.values.tobytes() == base["laplace"].values.tobytes()

    @pytest.mark.parametrize("equation", ["minimal", "laplace", "linear-u"])
    def test_translation(self, base, equation):
        moved = self._solve(equation, center=(0.75, -1.25))
        assert np.max(np.abs(moved.values - base[equation].values)) <= 2.0 * self.EPS
        if equation == "minimal":
            assert abs(self._margin(moved) - self._margin(base[equation])) <= 2.0 * self.EPS

    @pytest.mark.parametrize("equation", ["minimal", "laplace"])
    def test_quarter_turn(self, base, equation):
        # the turned ellipse at t + pi/2 is the original at t, so u rolls by n_t / 4
        turned = self._solve(equation, rx=3.2, ry=4.0)
        rolled = np.roll(base[equation].values, self.N_T // 4, axis=1)
        assert np.max(np.abs(turned.values - rolled)) <= 2.0 * self.EPS
        if equation == "minimal":
            assert abs(self._margin(turned) - self._margin(base[equation])) <= 2.0 * self.EPS
