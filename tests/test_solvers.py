import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from levelcurv.checks import solution_fields
from levelcurv.errors import DidNotConverge, NoSolution
from levelcurv.fields import catenoid_value
from levelcurv.radial import solve_minimal_radial, solve_semilinear_radial
from levelcurv.rhs import SemilinearRHS, linear_u_rhs, zero_rhs
from levelcurv import radial, ring2d
from levelcurv.ring2d import (
    Circle,
    Ellipse,
    RingDomain2D,
    RingGrid,
    solve_minimal_ring2d,
    solve_semilinear_ring2d,
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

    def test_determinism(self):
        s1 = solve_minimal_radial(3, 2, 4, 1.0, 0.0)
        s2 = solve_minimal_radial(3, 2, 4, 1.0, 0.0)
        assert np.array_equal(s1.values, s2.values)
        assert s1.flux == s2.flux


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

    def test_linear_u_matches_dense_direct_solve(self):
        lam = 0.3
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
        direct = np.linalg.solve(a, b)
        assert np.max(np.abs(sol.values[1:-1] - direct)) < 1e-8

    def test_max_principle(self):
        sol = solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(1.0), samples=201)
        assert sol.max_principle_violation() <= 1e-12

    def test_iteration_cap(self):
        with pytest.raises(DidNotConverge):
            solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(1.0), max_iter=0)

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
            sol = solve_semilinear_ring2d(dom, np.zeros(nt), np.ones(nt), zero_rhs())
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
            sol = solve_minimal_ring2d(dom, outer, np.zeros(nt))
            r = np.linalg.norm(sol.coords, axis=-1)
            errs.append(np.max(np.abs(sol.values - (np.arccosh(r) - math.acosh(2.0)))))
        assert errs[1] < errs[0] / 3.0  # about h^2

    def test_constant_data_zero_iterations(self):
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=9, n_t=16)
        sol = solve_minimal_ring2d(dom, np.full(16, 0.7), np.full(16, 0.7))
        assert sol.iterations == 0
        assert sol.residual_norm == 0.0
        assert np.all(sol.values == 0.7)
        # a nonconstant start with constant data is solved, not returned as it is:
        # here the warm start from the 0/1-data solve on a coarser grid
        coarse = solve_minimal_ring2d(dataclasses.replace(dom, n_s=5, n_t=8),
                                      np.zeros(8), np.ones(8))
        sol = solve_minimal_ring2d(dom, np.full(16, 0.7), np.full(16, 0.7), warm_start=coarse)
        assert sol.iterations > 0
        assert np.max(np.abs(sol.values - 0.7)) < 1e-12

    @pytest.mark.parametrize("equation", ["minimal", "semilinear"])
    def test_nearly_equal_constant_data_is_solved(self, equation):
        # constant outer data and inner data 5e-6 above it: the blend is not a solution
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=33, n_t=64)
        outer, inner = np.full(64, 1.0), np.full(64, 1.000005)
        if equation == "minimal":
            sol = solve_minimal_ring2d(dom, outer, inner)
        else:
            sol = solve_semilinear_ring2d(dom, outer, inner, zero_rhs())
        assert sol.iterations > 0
        res, _ = ring2d._RingOperator(RingGrid(dom), equation, sol.rhs).residual(sol.values)
        assert sol.residual_norm == float(np.max(np.abs(res))) <= sol.meta["tol_used"]

    def test_line_search_failure(self, monkeypatch):
        real = ring2d._linear_solve

        def reversed_step(*args):
            x, path, its = real(*args)
            return -x, path, its

        monkeypatch.setattr(ring2d, "_linear_solve", reversed_step)
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=17, n_t=32)
        with pytest.raises(DidNotConverge, match="line search failed") as caught:
            solve_semilinear_ring2d(dom, np.zeros(32), np.ones(32), linear_u_rhs(1.0))
        assert caught.value.iterations == 0
        assert math.isfinite(caught.value.residual) and caught.value.residual > 0.0
        # the minimal solve takes its Picard steps at full length before the line search
        with pytest.raises(DidNotConverge, match="line search failed") as caught:
            solve_minimal_ring2d(dom, np.zeros(32), np.ones(32))
        assert caught.value.iterations == ring2d._PICARD_STEPS
        assert math.isfinite(caught.value.residual) and caught.value.residual > 0.0

    def test_ellipse_ring_bounds_and_max_principle(self):
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=33, n_t=64)
        sol = solve_minimal_ring2d(dom, np.zeros(64), np.ones(64))
        assert sol.residual_norm < 1e-10
        assert sol.values.min() >= -1e-12
        assert sol.values.max() <= 1.0 + 1e-12
        assert sol.max_principle_violation() <= 1e-12

    def test_semilinear_matches_radial(self):
        lam = 0.5
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=33, n_t=64)
        sol2d = solve_semilinear_ring2d(dom, np.zeros(64), np.ones(64), linear_u_rhs(lam))
        sol1d = solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(lam), samples=2001)
        r = np.linalg.norm(sol2d.coords, axis=-1)
        interp = np.interp(r.ravel(), sol1d.r, sol1d.values)
        err = np.max(np.abs(sol2d.values.ravel() - interp))
        assert err < 40.0 * sol2d.h**2

    def test_boundary_gradient_accuracy(self):
        dom = RingDomain2D(Circle(4.0), Circle(2.0), n_s=65, n_t=128)
        outer = np.full(128, catenoid_value(4.0, anchor=2.0))
        sol = solve_minimal_ring2d(dom, outer, np.zeros(128))
        fields = solution_fields(sol)
        g_out, g_in = fields.gnorm[fields.outer], fields.gnorm[fields.inner]
        assert np.max(np.abs(g_out - 1 / math.sqrt(15.0))) < 5e-4
        assert np.max(np.abs(g_in - 1 / math.sqrt(3.0))) < 5e-3

    def test_boundary_gradients_reuse_solver_grid(self, monkeypatch):
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=17, n_t=32)
        sol = solve_semilinear_ring2d(dom, np.zeros(32), np.ones(32), linear_u_rhs(1.0))
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
        s1 = solve_semilinear_ring2d(dom, np.zeros(32), np.ones(32), linear_u_rhs(1.0))
        s2 = solve_semilinear_ring2d(dom, np.zeros(32), np.ones(32), linear_u_rhs(1.0))
        assert np.array_equal(s1.values, s2.values)


class TestWarmStart:
    """A solve continued from a solution of the same ring on another grid."""

    @staticmethod
    def _solve(ry, grid, warm_start=None):
        ns, nt = grid
        dom = RingDomain2D(Ellipse(4.0, ry), Circle(1.5), n_s=ns, n_t=nt)
        return solve_minimal_ring2d(dom, np.zeros(nt), np.ones(nt), warm_start=warm_start)

    @pytest.mark.parametrize("ry", [3.2, 1.8])
    @pytest.mark.parametrize("grids", [[(25, 48), (49, 96)], [(49, 96), (25, 48)],
                                       [(30, 50), (77, 130)]],
                             ids=["ascending", "descending", "non-nested"])
    def test_warm_solve_matches_cold_solve(self, ry, grids):
        coarse = self._solve(ry, grids[0])
        warm, cold = self._solve(ry, grids[1], warm_start=coarse), self._solve(ry, grids[1])
        assert coarse.meta["start"] == cold.meta["start"] == "blend"
        assert cold.meta["phases"][:5] == ["picard"] * 5
        assert warm.meta["start"] == list(grids[0])
        assert warm.iterations > 0 and set(warm.meta["phases"]) == {"newton"}
        assert warm.iterations < cold.iterations
        assert warm.residual_norm <= warm.meta["tol_used"]
        assert np.max(np.abs(warm.values - cold.values)) <= min(warm.meta["tol_used"],
                                                                cold.meta["tol_used"])

    def test_semilinear_warm_start(self):
        sols = []
        for ns, nt in [(17, 32), (33, 64)]:
            dom = RingDomain2D(Ellipse(2.4, 2.0), Circle(1.0), n_s=ns, n_t=nt)
            sols.append(solve_semilinear_ring2d(dom, np.zeros(nt), np.ones(nt), linear_u_rhs(1.0),
                                                warm_start=sols[-1] if sols else None))
        cold = solve_semilinear_ring2d(dom, np.zeros(64), np.ones(64), linear_u_rhs(1.0))
        assert sols[1].meta["start"] == [17, 32]
        assert np.max(np.abs(sols[1].values - cold.values)) <= cold.meta["tol_used"]

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
        start = solve_minimal_ring2d(other, np.zeros(48), np.ones(48))
        with pytest.raises(ValueError, match="warm start"):
            self._solve(3.2, (49, 96), warm_start=start)

    def test_radial_warm_start_is_rejected(self):
        start = solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(1.0), samples=21)
        with pytest.raises(ValueError, match="warm start"):
            self._solve(3.2, (25, 48), warm_start=start)


class TestNewtonKrylov:
    """GMRES under the t-averaged preconditioner, with sparse LU as the fallback."""

    ELLIPSE = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=64, n_t=128)

    def _ellipse(self, ry=3.2):
        dom = dataclasses.replace(self.ELLIPSE, outer=Ellipse(4.0, ry))
        return solve_minimal_ring2d(dom, np.zeros(128), np.ones(128))

    def _gmres_and_splu(self, monkeypatch, ry):
        krylov = self._ellipse(ry)
        with monkeypatch.context() as patch:
            patch.setattr(ring2d, "_averaged_preconditioner", lambda *args: None)
            direct = self._ellipse(ry)
        assert krylov.meta["linear_solver"] == ["gmres"] * krylov.iterations
        assert direct.meta["linear_solver"] == ["splu"] * direct.iterations
        assert direct.meta["krylov_iterations"] == [0] * direct.iterations
        assert krylov.iterations == direct.iterations
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

    def test_stalled_gmres_falls_back_to_splu(self, monkeypatch):
        krylov = self._ellipse()
        monkeypatch.setattr(ring2d, "_GMRES_MAX_ITER", 1)
        capped = self._ellipse()
        assert capped.iterations == krylov.iterations
        assert capped.meta["linear_solver"] == ["splu"] * capped.iterations
        assert capped.meta["krylov_iterations"] == [1] * capped.iterations
        assert np.max(np.abs(capped.values - krylov.values)) < 1e-12

    def test_one_coefficient_pass_per_evaluation(self, monkeypatch):
        # the linear step and the rounding floor read the planes of the last evaluation
        calls = {"coefficients": 0, "residual": 0}
        for name in calls:
            real = getattr(ring2d._RingOperator, name)

            def counted(self, *args, real=real, name=name):
                calls[name] += 1
                return real(self, *args)

            monkeypatch.setattr(ring2d._RingOperator, name, counted)
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=128, n_t=256)
        sol = solve_minimal_ring2d(dom, np.zeros(256), np.ones(256))
        assert calls["coefficients"] == calls["residual"] == sol.iterations + 1 == 7
        assert sol.meta["step_lengths"] == [1.0] * sol.iterations

    def test_semilinear_circle_one_newton_step(self):
        # the metric of a circle ring does not depend on t, so the t-averaged
        # preconditioner is the exact inverse and GMRES needs one iteration
        dom = RingDomain2D(Circle(2.0, center=(1.3, -0.4)), Circle(1.0, center=(1.3, -0.4)),
                           n_s=64, n_t=128, center=(1.3, -0.4))
        sol = solve_semilinear_ring2d(dom, np.zeros(128), np.ones(128), linear_u_rhs(1.0))
        assert sol.iterations == 1
        assert sol.meta["linear_solver"] == ["gmres"]
        assert sol.meta["krylov_iterations"] == [1]

    def test_preconditioner_inverts_t_invariant_operator(self):
        # coefficients that vary in s only: every Fourier mode is solved exactly
        grid = RingGrid(RingDomain2D(Circle(2.0), Circle(1.0), n_s=17, n_t=32))
        rng = np.random.default_rng(0)
        rows = rng.uniform(-0.5, 0.5, size=(6, 17, 1)) + np.array([1, 0, 1, 0, 0, -1])[:, None, None]
        fields = tuple(np.broadcast_to(f, (17, 32)) for f in rows)
        mat = ring2d._RingOperator(grid, "semilinear").assemble(fields)
        precond = ring2d._averaged_preconditioner(fields, grid.ds, grid.dt)
        x = rng.standard_normal(mat.shape[0])
        assert np.max(np.abs(precond.matvec(mat @ x) - x)) < 1e-10

    def test_singular_pivot_gives_no_preconditioner(self):
        zero = np.zeros((9, 16))
        assert ring2d._averaged_preconditioner((zero,) * 6, 0.125, 2.0 * math.pi / 16) is None

    @staticmethod
    def _ellipse_fields():
        # Newton fields of the ellipse ring at a smooth u; they vary in t
        grid = RingGrid(RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=33, n_t=64))
        op = ring2d._RingOperator(grid, "minimal")
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
        expected = splu(op.assemble(averaged).tocsc()).solve(r / w.ravel())
        got = ring2d._averaged_preconditioner(fields, ds, dt).matvec(r)
        assert np.max(np.abs(got - expected)) < 1e-10 * np.max(np.abs(expected))

    def _breakdown(self, case):
        if case == "zero-pivot":
            # u_tt + d u with d = +-1 alternating in t: invertible, but d averages to
            # zero over t, so mode 0 of the averaged operator is the zero matrix
            grid = RingGrid(RingDomain2D(Circle(2.0), Circle(1.0), n_s=9, n_t=16))
            zero, one = np.zeros((9, 16)), np.ones((9, 16))
            d = np.broadcast_to(np.where(np.arange(16) % 2, -1.0, 1.0), (9, 16))
            return ring2d._RingOperator(grid, "semilinear"), (zero, zero, one, zero, zero, d)
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
        assert ring2d._averaged_preconditioner(fields, op.grid.ds, op.grid.dt) is None

    @pytest.mark.parametrize("case", ["zero-pivot", "negative-w"])
    def test_breakdown_falls_back_to_splu(self, case):
        # a NaN Jacobian has no LU factorization either, so it is left out here
        op, fields = self._breakdown(case)
        mat = op.assemble(fields)
        rhs = np.random.default_rng(4).standard_normal(mat.shape[0])
        x, path, krylov = ring2d._linear_solve(op, fields, rhs, frozen=False)
        assert (path, krylov) == ("splu", 0)
        assert np.max(np.abs(mat @ x - rhs)) < 1e-10


class TestLinearization:
    """The assembled Jacobian is the derivative of the residual it solves against."""

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
    def test_assemble_matches_coo_reference(self, n_s, n_t):
        grid = RingGrid(RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=n_s, n_t=n_t))
        op = ring2d._RingOperator(grid, "minimal")
        rng = np.random.default_rng(5)
        for _ in range(2):  # the pattern is reused by the second matrix
            fields = tuple(rng.standard_normal((n_s, n_t)) for _ in range(6))
            mat, ref = op.assemble(fields), self._coo_reference(op, fields)
            assert np.array_equal(mat.indptr, ref.indptr)
            assert np.array_equal(mat.indices, ref.indices)
            assert np.array_equal(mat.data, ref.data)

    @staticmethod
    def _newton_matches_central_difference(dom, equation, rhs=None):
        grid = RingGrid(dom)
        op = ring2d._RingOperator(grid, equation, rhs)
        ns, nt = grid.n_s, grid.n_t
        s = np.linspace(0.0, 1.0, ns)[:, None]
        x, y = grid.x[..., 0], grid.x[..., 1]
        u = s + 0.1 * s * (1.0 - s) * np.sin(x + 2.0 * y)
        v = np.random.default_rng(3).standard_normal((ns - 2, nt))
        mat = op.assemble(op._linearization_fields(op.residual(u)[1], frozen=False))
        eps = 1e-6
        plus, minus = u.copy(), u.copy()
        plus[1:-1] += eps * v
        minus[1:-1] -= eps * v
        fd = ((op.residual(plus)[0] - op.residual(minus)[0]) / (2.0 * eps)).ravel()
        jv = mat @ v.ravel()
        return float(np.max(np.abs(jv - fd)) / np.max(np.abs(jv)))

    def test_minimal_newton_jacobian_is_residual_derivative(self):
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=33, n_t=64)
        assert self._newton_matches_central_difference(dom, "minimal") < 1e-6

    def test_semilinear_newton_jacobian_is_residual_derivative(self):
        dom = RingDomain2D(Circle(2.0, center=(0.3, -0.2)), Circle(1.0, center=(0.6, 0.1)),
                           n_s=33, n_t=64, center=(0.4, -0.1))
        assert self._newton_matches_central_difference(dom, "semilinear", self._cubic_rhs()) < 1e-6

    def test_minimal_zero_rhs_terms_change_no_bit(self):
        # the minimal operator subtracts f = 0 and adds -f_u = -0.0 to the diagonal unbranched
        grid = RingGrid(RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=17, n_t=32))
        op = ring2d._RingOperator(grid, "minimal")
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
            assert op.assemble(fields).data.tobytes() == op.assemble(zero).data.tobytes()
            precond = [ring2d._averaged_preconditioner(f, grid.ds, grid.dt) for f in (fields, zero)]
            assert precond[0].matvec(x).tobytes() == precond[1].matvec(x).tobytes()

    def test_minimal_residual_is_f_contracted_with_hessian(self):
        # the (s, t) coefficients reproduce F(grad u) : hess u in physical coordinates
        grid = RingGrid(RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=33, n_t=64))
        x, y = grid.x[..., 0], grid.x[..., 1]
        u = np.log(x * x + 1.25 * y * y)
        g, h = grid.physical_gradient(u), grid.physical_hessian(u)
        f = (1.0 + np.sum(g * g, axis=-1))[..., None, None] * np.eye(2) - g[..., :, None] * g[..., None, :]
        expected = np.sum(f * h, axis=(-2, -1))[1:-1]
        res = ring2d._RingOperator(grid, "minimal").residual(u)[0]
        assert np.max(np.abs(res - expected)) < 1e-12 * np.max(np.abs(expected))
