import math

import numpy as np
import pytest

from levelcurv.errors import TooCloseToBoundary
from levelcurv.fields import catenoid_value
from levelcurv.radial import solve_minimal_radial
from levelcurv.recover import grid_field_fit, radial_profile_fit, recover_jet
from levelcurv.ring2d import Circle, Ellipse, RingDomain2D, RingGrid
from levelcurv.solution import RingSolution


def ring_solution_from(expr, ns=17, nt=32, outer=4.0, inner=2.0):
    outer = Circle(outer) if np.isscalar(outer) else outer
    dom = RingDomain2D(outer, Circle(inner), n_s=ns, n_t=nt)
    grid = RingGrid(dom)
    vals = expr(grid.x[..., 0], grid.x[..., 1])
    return RingSolution(
        kind="ring2d", equation="minimal", values=vals, residual_norm=0.0,
        h=grid.spacing(), domain=dom, coords=grid.x,
    )


CUBIC = lambda x, y: 0.3 + 1.2 * x - 0.7 * y + 0.25 * x * x - 0.9 * x * y + 0.4 * y * y \
    + 0.1 * x**3 - 0.05 * x * y * y + 0.02 * y**3


class TestPolynomialReproduction:
    def test_cubic_exact_order2(self):
        sol = ring_solution_from(CUBIC)
        p = sol.coords[8, 7]
        jet = recover_jet(sol, p, order=2)
        gx = 1.2 + 0.5 * p[0] - 0.9 * p[1] + 0.3 * p[0] ** 2 - 0.05 * p[1] ** 2
        gy = -0.7 - 0.9 * p[0] + 0.8 * p[1] - 0.1 * p[0] * p[1] + 0.06 * p[1] ** 2
        assert abs(jet.grad[0] - gx) < 1e-11
        assert abs(jet.grad[1] - gy) < 1e-11
        assert abs(jet.hess[0, 0] - (0.5 + 0.6 * p[0])) < 1e-11
        assert abs(jet.hess[0, 1] - (-0.9 - 0.1 * p[1])) < 1e-11

    def test_quartic_exact_order3(self):
        quartic = lambda x, y: 0.05 * x**4 + 0.02 * x**2 * y**2 - 0.3 * x * y + y
        sol = ring_solution_from(quartic)
        p = sol.coords[8, 3]
        jet = recover_jet(sol, p, order=3)
        assert jet.third is not None
        assert abs(jet.third[0, 0, 0] - 1.2 * p[0]) < 1e-9
        assert abs(jet.third[0, 0, 1] - 0.08 * p[1]) < 1e-9

    def test_off_node_points(self):
        sol = ring_solution_from(CUBIC)
        p = (sol.coords[8, 7] + sol.coords[9, 8]) / 2.0
        jet = recover_jet(sol, p, order=2)
        gx = 1.2 + 0.5 * p[0] - 0.9 * p[1] + 0.3 * p[0] ** 2 - 0.05 * p[1] ** 2
        assert abs(jet.grad[0] - gx) < 1e-11

    def test_boundary_guard(self):
        sol = ring_solution_from(CUBIC)
        with pytest.raises(TooCloseToBoundary):
            recover_jet(sol, sol.coords[0, 0], order=2)
        with pytest.raises(TooCloseToBoundary):
            recover_jet(sol, sol.coords[2, 0], order=3)


class TestSphereField:
    def test_hessian_second_order(self):
        errs, hs = [], []
        for ns, nt in [(17, 32), (33, 64), (65, 128)]:
            sol = ring_solution_from(lambda x, y: -np.sqrt(x * x + y * y), ns=ns, nt=nt)
            p = sol.coords[ns // 2, 5]
            jet = recover_jet(sol, p, order=2)
            r = np.linalg.norm(p)
            e = p / r
            exact = -(np.eye(2) - np.outer(e, e)) / r
            errs.append(np.max(np.abs(jet.hess - exact)))
            hs.append(sol.h)
        order = math.log(errs[0] / errs[2]) / math.log(hs[0] / hs[2])
        assert order > 1.7


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


class TestBatchedGridFit:
    def test_matches_single_point_api(self):
        sol = ring_solution_from(lambda x, y: np.arccosh(np.sqrt(x * x + y * y)))
        grads, hesses = grid_field_fit(sol, sol.values, degree=3)
        for (i, j) in [(5, 3), (8, 20), (11, 31)]:
            jet = recover_jet(sol, sol.coords[i, j], order=2)
            assert np.allclose(grads[i, j], jet.grad, atol=1e-10)
            assert np.allclose(hesses[i, j], jet.hess, atol=1e-10)

    def test_boundary_rows_legal(self):
        sol = ring_solution_from(CUBIC)
        grads, _ = grid_field_fit(sol, sol.values, degree=3)
        p = sol.coords[0, 4]
        gx = 1.2 + 0.5 * p[0] - 0.9 * p[1] + 0.3 * p[0] ** 2 - 0.05 * p[1] ** 2
        assert abs(grads[0, 4, 0] - gx) < 1e-9


def lstsq_reference(sol, field, degree):
    """Per-node weighted least squares through np.linalg.lstsq, same windows and weights."""
    ns, nt = field.shape
    half = 2 if degree <= 3 else 3
    w = 2 * half + 1
    exps = [(i, total - i) for total in range(degree + 1) for i in range(total + 1)]
    grads = np.empty((ns, nt, 2))
    hesses = np.empty((ns, nt, 2, 2))
    for i in range(ns):
        lo = min(max(i - half, 0), ns - w)
        for j in range(nt):
            cols = [(j + o) % nt for o in range(-half, half + 1)]
            d = sol.coords[lo:lo + w][:, cols].reshape(-1, 2) - sol.coords[i, j]
            vals = field[lo:lo + w][:, cols].reshape(-1)
            scale = np.median(np.linalg.norm(d, axis=1))
            d = d / scale
            sqrt_w = np.exp(-0.5 * np.sum(d * d, axis=1))
            a = np.stack([d[:, 0] ** p * d[:, 1] ** q for p, q in exps], axis=1)
            c = dict(zip(exps, np.linalg.lstsq(a * sqrt_w[:, None], vals * sqrt_w, rcond=None)[0]))
            grads[i, j] = np.array([c[(1, 0)], c[(0, 1)]]) / scale
            hesses[i, j] = np.array([[2.0 * c[(2, 0)], c[(1, 1)]],
                                     [c[(1, 1)], 2.0 * c[(0, 2)]]]) / scale**2
    return grads, hesses


ELLIPSE_RING = dict(ns=17, nt=32, outer=Ellipse(4.0, 3.2), inner=1.5)
QUARTIC = lambda x, y: 0.3 * x - 0.2 * y + 0.1 * x * y + 0.02 * x**4 - 0.03 * x**2 * y**2 \
    + 0.01 * x * y**3 + 0.015 * y**4


class TestFitEngine:
    @pytest.mark.parametrize("degree", [3, 4])
    def test_matches_lstsq_reference(self, degree):
        sol = ring_solution_from(lambda x, y: np.log(x * x + 1.25 * y * y), **ELLIPSE_RING)
        grads, hesses = grid_field_fit(sol, sol.values, degree=degree)
        ref_g, ref_h = lstsq_reference(sol, sol.values, degree)
        assert np.max(np.abs(grads - ref_g)) <= 1e-8 * np.max(np.abs(ref_g))
        assert np.max(np.abs(hesses - ref_h)) <= 1e-8 * np.max(np.abs(ref_h))

    def test_quartic_exact_on_boundary_rows(self):
        sol = ring_solution_from(QUARTIC, **ELLIPSE_RING)
        grads, hesses = grid_field_fit(sol, sol.values, degree=4)
        for row in (0, -1):
            x, y = sol.coords[row, :, 0], sol.coords[row, :, 1]
            gx = 0.3 + 0.1 * y + 0.08 * x**3 - 0.06 * x * y**2 + 0.01 * y**3
            gy = -0.2 + 0.1 * x - 0.06 * x**2 * y + 0.03 * x * y**2 + 0.06 * y**3
            hxx = 0.24 * x**2 - 0.06 * y**2
            hxy = 0.1 - 0.12 * x * y + 0.03 * y**2
            hyy = -0.06 * x**2 + 0.06 * x * y + 0.18 * y**2
            exact_g = np.stack([gx, gy], axis=-1)
            exact_h = np.stack([hxx, hxy, hxy, hyy], axis=-1).reshape(-1, 2, 2)
            assert np.max(np.abs(grads[row] - exact_g)) < 1e-9
            assert np.max(np.abs(hesses[row] - exact_h)) < 1e-9

    def test_kept_hessian_rows_match_a_second_fit(self):
        sol = ring_solution_from(lambda x, y: np.log(x * x + 1.25 * y * y), **ELLIPSE_RING)
        other = np.sin(sol.coords[..., 0]) * np.exp(0.3 * sol.coords[..., 1])
        rows = slice(3, 14)
        grads, hesses, kept = grid_field_fit(sol, sol.values, degree=4, hessian_rows=rows)
        plain_grads, plain_hesses = grid_field_fit(sol, sol.values, degree=4)
        assert np.array_equal(grads, plain_grads) and np.array_equal(hesses, plain_hesses)
        _, other_hess = grid_field_fit(sol, other, degree=4)
        assert np.allclose(kept.apply(other), other_hess[rows], rtol=1e-12, atol=1e-12)
