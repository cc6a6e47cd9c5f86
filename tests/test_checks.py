import dataclasses
import math

import numpy as np
import pytest

import levelcurv.checks as checks
from levelcurv.checks import (
    check_extremum_on_boundary,
    check_gradient_monotonicity,
    check_harmonic_psi_2d,
    convergence_study,
    corollary_bound_minimal,
    corollary_bound_poisson,
    solution_fields,
)
from levelcurv.cli import run
from levelcurv.config import CONVERGENCE_PROBLEMS, parse_config
from levelcurv.errors import HypothesisViolated, NotAMinimalJet, TooCoarse
from levelcurv.fields import RadialMinimalField, catenoid_value
from levelcurv.geometry import TestFunctionSpec
from levelcurv.identities import lb_psi_residual_2d
from levelcurv.radial import solve_minimal_radial, solve_semilinear_radial
from levelcurv.rhs import linear_u_rhs, zero_rhs
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
from levelcurv.solution import RingSolution

from testkit import SphereDistanceField

THETA_HALF = TestFunctionSpec.minimal_theta(-0.5)


@pytest.fixture(scope="module")
def harmonic_annulus_2d():
    dom = RingDomain2D(Circle(math.e), Circle(1.0), n_s=33, n_t=64)
    return solve_ring2d(dom, np.zeros(64), np.ones(64), SemilinearEquation(zero_rhs()))


@pytest.fixture(scope="module")
def catenoid_ring_2d():
    dom = RingDomain2D(Circle(4.0), Circle(2.0), n_s=33, n_t=64)
    outer = np.full(64, catenoid_value(4.0, anchor=2.0))
    return solve_ring2d(dom, outer, np.zeros(64), MINIMAL)


@pytest.fixture(scope="module")
def radial_minimal_ring():
    return solve_minimal_radial(3, 2.0, 4.0, 1.0, 0.0, samples=201)


class TestExtremumChecks:
    def test_catenoid_ring_min_and_max(self, catenoid_ring_2d):
        rep = check_extremum_on_boundary(catenoid_ring_2d, THETA_HALF, which="both")
        assert rep["pass"]
        # psi is identically 1 on the catenoid: both margins are O(h^2) noise
        assert abs(rep["margin"]) < rep["tolerance"]

    def test_both_reports_the_worse_side(self):
        # planting u + 0.3 sin(2 pi u)/(2 pi) on a minimal solution puts the
        # max of psi inside (margin -1.6e-1) while the min stays on the boundary
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=64, n_t=128)
        sol = solve_ring2d(dom, np.zeros(128), np.ones(128), MINIMAL)
        u = sol.values
        planted = dataclasses.replace(sol, values=u + 0.3 * np.sin(2 * math.pi * u) / (2 * math.pi))
        both = check_extremum_on_boundary(planted, THETA_HALF, which="both")
        low = check_extremum_on_boundary(planted, THETA_HALF, which="min")
        high = check_extremum_on_boundary(planted, THETA_HALF, which="max")
        assert low["margin"] > 0 > high["margin"]
        assert both["margin"] == high["margin"]
        assert (both["interior_extremum"], both["boundary_extremum"]) == (
            high["interior_extremum"], high["boundary_extremum"])
        assert both["interior_extremum"] == pytest.approx(1.7075, abs=1e-4)
        assert both["boundary_extremum"] == pytest.approx(1.5444, abs=1e-4)
        assert both["interior_location"] == high["interior_location"]
        assert both["boundary_location"] == high["boundary_location"]

    def test_harmonic_annulus_power_minus2(self, harmonic_annulus_2d):
        # psi = |grad u|^-2 K = r / C^2 grows outward: min on the inner boundary
        rep = check_extremum_on_boundary(
            harmonic_annulus_2d, TestFunctionSpec.poisson_power(-2), which="min"
        )
        assert rep["pass"]
        assert rep["margin"] > 0
        assert np.linalg.norm(rep["boundary_location"]) == pytest.approx(1.0, abs=0.02)

    def test_harmonic_annulus_power_n_minus_1(self, harmonic_annulus_2d):
        # psi = |grad u| K = C / r^2 decays outward: min on the outer boundary
        rep = check_extremum_on_boundary(
            harmonic_annulus_2d, TestFunctionSpec.poisson_power(1), which="min"
        )
        assert rep["pass"]
        assert np.linalg.norm(rep["boundary_location"]) == pytest.approx(math.e, abs=0.05)

    @pytest.mark.parametrize("theta", [-0.5, 0.0, 0.5, 1.0])
    def test_radial_theta_family(self, radial_minimal_ring, theta):
        rep = check_extremum_on_boundary(
            radial_minimal_ring, TestFunctionSpec.minimal_theta(theta),
            which="min", tol_abs=1e-6,
        )
        assert rep["pass"]

    def test_c_tol_and_tol_abs_are_exclusive(self, radial_minimal_ring):
        with pytest.raises(ValueError, match="not both"):
            check_extremum_on_boundary(radial_minimal_ring, THETA_HALF, c_tol=1.0, tol_abs=1e-6)

    def test_too_coarse_guard(self):
        sol = solve_minimal_radial(3, 2.0, 4.0, 1.0, 0.0, samples=11)
        with pytest.raises(TooCoarse):
            check_extremum_on_boundary(sol, THETA_HALF, which="min")

    def test_thin_ring_guard(self):
        # gap far below the angular spacing starves the derivative stencils
        dom = RingDomain2D(Circle(1.03), Circle(1.0), n_s=33, n_t=16)
        sol = solve_ring2d(dom, np.zeros(16), np.ones(16), SemilinearEquation(zero_rhs()))
        with pytest.raises(TooCoarse):
            corollary_bound_poisson(sol)

    def test_orientation_stability(self, catenoid_ring_2d):
        """Negating the field flips the raw sign convention but not verdicts."""
        sol = catenoid_ring_2d
        flipped = type(sol)(
            kind=sol.kind, equation=sol.equation, values=-sol.values,
            residual_norm=sol.residual_norm, h=sol.h, iterations=sol.iterations,
            domain=sol.domain, coords=sol.coords,
        )
        rep = check_extremum_on_boundary(sol, THETA_HALF, which="min")
        rep_f = check_extremum_on_boundary(flipped, THETA_HALF, which="min")
        assert rep["pass"] == rep_f["pass"]
        assert rep["margin"] == pytest.approx(rep_f["margin"], abs=1e-12)
        notes = set(rep["notes"]) ^ set(rep_f["notes"])
        assert "orientation flipped" in notes  # exactly one of the two flipped

    def test_tolerance_scaling_under_refinement(self):
        """Where a check passes only by tolerance, halving h halves the shortfall."""
        shortfalls = []
        for ns, nt in [(17, 32), (33, 64)]:
            dom = RingDomain2D(Circle(4.0), Circle(2.0), n_s=ns, n_t=nt)
            outer = np.full(nt, catenoid_value(4.0, anchor=2.0))
            sol = solve_ring2d(dom, outer, np.zeros(nt), MINIMAL)
            rep = check_extremum_on_boundary(sol, THETA_HALF, which="both")
            assert rep["pass"]
            shortfalls.append(max(0.0, -rep["margin"]))
        if shortfalls[0] > 0:
            assert shortfalls[1] <= 0.55 * shortfalls[0]


class TestCorollaryBounds:
    def test_harmonic_annulus_closed_form(self, harmonic_annulus_2d):
        cb = corollary_bound_poisson(harmonic_annulus_2d)
        assert cb["pass"]
        # closed form: |grad u| = 1/r, K = 1/r on (1, e)
        assert cb["grad_max_inner"] == pytest.approx(1.0, abs=0.01)
        assert cb["grad_min_outer"] == pytest.approx(1.0 / math.e, abs=0.01)
        assert cb["min_K_boundary"] == pytest.approx(1.0 / math.e, abs=0.01)
        assert cb["bound_value"] == pytest.approx(
            (cb["grad_min_outer"] / cb["grad_max_inner"]) ** 2 * cb["min_K_boundary"], abs=1e-14
        )
        assert cb["min_K_interior"] >= cb["bound_value"]

    def test_linear_u_ring(self):
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=33, n_t=64)
        sol = solve_ring2d(dom, np.zeros(64), np.ones(64), SemilinearEquation(linear_u_rhs(1.0)))
        cb = corollary_bound_poisson(sol)
        assert cb["pass"]

    def test_rejects_bad_rhs(self):
        from levelcurv.rhs import SemilinearRHS

        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=33, n_t=64)
        decay = SemilinearRHS(
            name="decay",
            f=lambda x, u: 0.2 * (1.0 - np.asarray(u, dtype=float)),
            f_u=lambda x, u: np.full_like(np.asarray(u, dtype=float), -0.2),
        )
        sol = solve_ring2d(dom, np.zeros(64), np.ones(64), SemilinearEquation(decay))
        with pytest.raises(HypothesisViolated):
            corollary_bound_poisson(sol)

    def test_rejects_wrong_boundary_data(self):
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=33, n_t=64)
        sol = solve_ring2d(dom, np.full(64, 0.2), np.ones(64), SemilinearEquation(zero_rhs()))
        with pytest.raises(HypothesisViolated):
            corollary_bound_poisson(sol)

    @pytest.mark.parametrize("n", [3, 4])
    def test_minimal_radial_bound(self, n):
        sol = solve_minimal_radial(n, 2.0, 4.0, 1.0, 0.0, samples=201)
        cb = corollary_bound_minimal(sol)
        assert cb["pass"]
        assert cb["min_K_interior"] >= cb["bound_value"] - 1e-6
        expected = (
            (cb["grad_min_outer"] / cb["grad_max_inner"])
            * math.sqrt(1 + cb["grad_min_outer"]**2)
            / math.sqrt(1 + cb["grad_max_inner"]**2)
            * cb["min_K_boundary"]
        )
        assert cb["bound_value"] == pytest.approx(expected, abs=1e-14)

    def test_minimal_bound_rejects_n2(self):
        sol = solve_minimal_radial(2, 2.0, 4.0, 1.0, 0.0, samples=201)
        with pytest.raises(HypothesisViolated):
            corollary_bound_minimal(sol)

    def test_minimal_bound_rejects_ring2d(self, catenoid_ring_2d):
        with pytest.raises(HypothesisViolated, match="n >= 3"):
            corollary_bound_minimal(catenoid_ring_2d)

    def test_minimal_bound_rejects_semilinear_n3(self):
        sol = solve_semilinear_radial(3, 2.0, 4.0, 1.0, 0.0, zero_rhs(), samples=201)
        with pytest.raises(HypothesisViolated, match="needs a minimal solution"):
            corollary_bound_minimal(sol)

    @pytest.mark.parametrize("check", [corollary_bound_poisson, check_gradient_monotonicity],
                             ids=["poisson", "gradient-monotonicity"])
    def test_semilinear_checks_reject_minimal_ring2d(self, catenoid_ring_2d, check):
        with pytest.raises(HypothesisViolated, match=r"Delta u = f\(u\)"):
            check(catenoid_ring_2d)


class TestGradientMonotonicity:
    def test_harmonic_annulus(self, harmonic_annulus_2d):
        rep = check_gradient_monotonicity(harmonic_annulus_2d)
        assert rep["pass"]
        assert rep["interior_extremum"] > 0  # strict positivity of the derivative

    def test_linear_u_radial(self):
        sol = solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(1.0), samples=201)
        rep = check_gradient_monotonicity(sol)
        assert rep["pass"]

    def test_planted_reversed_gradient_fails(self):
        # u = (4 - |x|^2)/3 has 0/1 data, but |grad u| = 2r/3 is largest on the outer circle
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=128, n_t=256)
        grid = RingGrid(dom)
        u = (4.0 - np.sum(grid.x**2, axis=-1)) / 3.0
        sol = RingSolution(kind="ring2d", equation=SemilinearEquation(zero_rhs()), values=u,
                           residual_norm=0.0, h=grid.spacing(), domain=dom, coords=grid.x,
                           grid=grid)
        rep = check_gradient_monotonicity(sol)
        assert not rep["pass"]
        assert rep["margin"] < -rep["tolerance"]

    @pytest.mark.parametrize("c_tol", [None, 0.0])
    def test_verdict_is_every_sub_margin(self, c_tol):
        sol = solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(1.0), samples=201)
        rep = check_gradient_monotonicity(sol, c_tol=c_tol)
        fields = solution_fields(sol)
        g, inner_rows = fields.gnorm, fields.gnorm[fields.interior]
        gtol = 50.0 * float(np.max(g)) * sol.h * sol.h
        tol = (50.0 * float(np.max(np.abs(fields.deriv[fields.interior]))) if c_tol is None
               else c_tol) * sol.h * sol.h
        subs = [(rep["interior_extremum"], tol),
                (float(np.min(inner_rows) - g[fields.outer].min()), gtol),
                (float(g[fields.inner].max() - np.max(inner_rows)), gtol)]
        assert (rep["margin"], rep["tolerance"]) in subs
        assert rep["pass"] == all(m >= -t for m, t in subs)
        assert rep["pass"] == (rep["margin"] >= -rep["tolerance"])

    def test_constant_data_guard(self):
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=33, n_t=64)
        sol = solve_ring2d(dom, np.zeros(64), np.zeros(64), SemilinearEquation(zero_rhs()))
        with pytest.raises(HypothesisViolated):
            check_gradient_monotonicity(sol)


class TestFieldBundle:
    @pytest.mark.parametrize("n, inner, outer, flipped", [(3, 0.0, 1.0, True),
                                                          (4, 1.0, 0.0, False)])
    def test_radial_curvature_closed_form(self, n, inner, outer, flipped):
        sol = solve_semilinear_radial(n, 1.0, 2.0, inner, outer, zero_rhs(), samples=101)
        fields = solution_fields(sol)
        assert np.allclose(fields.k, sol.r ** (1 - n), rtol=1e-15, atol=0.0)
        assert np.allclose(fields.kappa_min, 1.0 / sol.r, rtol=1e-15, atol=0.0)
        assert bool(np.any(sol.u_prime > 0)) is flipped
        assert fields.notes == (("orientation flipped",) if flipped else ())

    def test_radial_minimal_gradient_is_the_solver_profile(self):
        # criterion 5's n = 4 ring: |grad u| at r = a is |c| / sqrt(a^6 - c^2)
        sol = solve_minimal_radial(4, 2.0, 4.0, 1.0, 0.0, samples=301)
        exact = abs(sol.flux) / math.sqrt(2.0**6 - sol.flux**2)
        fields = solution_fields(sol)
        assert fields.gnorm[fields.inner[0]] == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert corollary_bound_minimal(sol)["grad_max_inner"] == pytest.approx(exact, rel=1e-12,
                                                                            abs=0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_extremum_location_stable_under_one_ulp(self, sign):
        # twin extrema at nodes 3 and 9; nudging either one by an ulp keeps node 3
        pick = np.argmin if sign > 0 else np.argmax
        field = sign * np.linspace(1.0, 2.0, 12)
        field[3] = field[9] = sign * 0.5
        bundle = checks._Fields(
            gnorm=field, k=field, kappa_min=field, deriv=field, notes=(),
            interior=slice(0, 12), coords=np.arange(12.0)[:, None],
            outer=np.array([0]), inner=np.array([11]), node_shape=(12,))
        for node in (3, 9):
            for toward in (-np.inf, np.inf):
                nudged = field.copy()
                nudged[node] = np.nextafter(field[node], toward)
                value, location = bundle.extremum(nudged, pick, bundle.interior)
                assert value == nudged[pick(nudged)]
                assert location == (3.0,)

    def test_convexity_error_names_grid_nodes(self):
        # the circles of u = log(2/r)/log 2, with a bump at node (10, 5) that bends
        # the level curve the other way at its neighbours (10, 4) and (10, 6)
        dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=33, n_t=64)
        grid = RingGrid(dom)
        u = np.log(2.0 / np.linalg.norm(grid.x, axis=-1)) / np.log(2.0)
        u[10, 5] += 0.02
        sol = RingSolution(kind="ring2d", equation=SemilinearEquation(zero_rhs()), values=u,
                           residual_norm=0.0, h=grid.spacing(), domain=dom, coords=grid.x,
                           grid=grid)
        with pytest.raises(HypothesisViolated, match=r"convex at \[\[10, 4\], \[10, 6\]\] "):
            solution_fields(sol).require_strict_convexity("the bump")

    def test_gradient_floor_names_grid_nodes(self):
        # equal minimal data on both curves: u is the constant 0.7, so |grad u| = 0
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=33, n_t=64)
        sol = solve_ring2d(dom, np.full(64, 0.7), np.full(64, 0.7), MINIMAL)
        with pytest.raises(HypothesisViolated, match=r"below floor at nodes \[\[0, 0\], "):
            check_extremum_on_boundary(sol, THETA_HALF)

    def test_gradient_floor_names_radial_samples(self):
        sol = solve_minimal_radial(3, 2.0, 4.0, 0.5, 0.5)
        with pytest.raises(HypothesisViolated, match=r"below floor at nodes \[\[0\], "):
            check_extremum_on_boundary(sol, THETA_HALF)


def _ellipse_minimal_family(grids):
    return solve_family([(RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=ns, n_t=nt),
                          np.zeros(nt), np.ones(nt)) for ns, nt in grids], MINIMAL)


@pytest.fixture(scope="module")
def criterion9_family():
    return _ellipse_minimal_family([(25, 48), (49, 96), (97, 192)])


def _refinement_orders(solutions, spec):
    residuals = [checks._discrete_lb_residual(s, spec) for s in solutions]
    return [math.log(residuals[i] / residuals[i + 1])
            / math.log(solutions[i].h / solutions[i + 1].h)
            for i in range(len(solutions) - 1)]


class TestHarmonicPsi:
    def test_closed_form_catenoid(self):
        cat = RadialMinimalField(2, flux=-1.0)
        pts = [np.array([2.5, 0.4]), np.array([-1.8, 2.2])]
        assert lb_psi_residual_2d(cat, pts) < 1e-11

    def test_discrete_refinement(self, criterion9_family):
        rep = check_harmonic_psi_2d(criterion9_family)
        assert rep["pass"]
        orders = _refinement_orders(criterion9_family, THETA_HALF)
        assert all(1.9 <= o <= 2.1 for o in orders)
        assert rep["margin"] == pytest.approx(min(orders) - 1.5, rel=1e-12)

    def test_wrong_weight_fails_refinement(self, criterion9_family):
        # psi = K (theta = 0) is not harmonic: its residual does not decay
        orders = _refinement_orders(criterion9_family, TestFunctionSpec.minimal_theta(0.0))
        assert max(orders) < 1.5

    def test_closed_form_rejects_non_minimal(self):
        with pytest.raises(NotAMinimalJet):
            lb_psi_residual_2d(SphereDistanceField(2), [np.array([2.2, 0.3])])

    def test_discrete_rejects_non_minimal(self):
        sols = []
        for ns, nt in [(25, 48), (49, 96)]:
            dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=ns, n_t=nt)
            sols.append(solve_ring2d(dom, np.zeros(nt), np.ones(nt),
                                     SemilinearEquation(linear_u_rhs())))
        with pytest.raises(HypothesisViolated, match="minimal"):
            check_harmonic_psi_2d(sols)

    def test_check_reuses_the_cached_bundle(self, monkeypatch):
        sols = _ellipse_minimal_family([(25, 48), (33, 64)])
        builds, grids = [], []
        real_build = checks._build_fields

        def counting_build(solution):
            builds.append(solution.values.shape)
            return real_build(solution)

        monkeypatch.setattr(checks, "_build_fields", counting_build)
        monkeypatch.setattr(checks, "RingGrid", lambda *args: grids.append(args))
        first = check_harmonic_psi_2d(sols)
        assert check_harmonic_psi_2d(sols) == first
        assert builds == [(25, 48), (33, 64)]  # one bundle per solution, read by both calls
        assert grids == []  # psi's Hessian uses the solver's own grid


class TestConvergenceStudy:
    def test_laplace_annulus_order_two(self):
        rows = convergence_study(CONVERGENCE_PROBLEMS["laplace-annulus"],
                                 [(17, 32), (33, 64), (65, 128)])
        assert rows[0]["order"] is None
        assert all(r["order"] > 1.8 for r in rows[1:])

    def test_sphere_curvature_order_two(self):
        rows = convergence_study(CONVERGENCE_PROBLEMS["sphere-curvature"],
                                 [(17, 32), (33, 64), (65, 128)])
        assert all(r["order"] > 1.7 for r in rows[1:])

    def test_constant_zero_error(self):
        rows = convergence_study(CONVERGENCE_PROBLEMS["constant"], [(9, 16), (17, 32)])
        assert all(r["error"] == 0.0 for r in rows)

    def test_oracle_off_the_table(self):
        # an oracle is a value: a Laplace annulus between other circles, with other data
        oracle = dataclasses.replace(CONVERGENCE_PROBLEMS["laplace-annulus"], outer=Circle(2.0),
                                     data=(math.log(2.0), 0.0), exact_u=lambda x: np.log(
                                         np.linalg.norm(x, axis=-1)))
        rows = convergence_study(oracle, [(17, 32), (33, 64)])
        assert rows[1]["error"] < rows[0]["error"] < 1e-3 and rows[1]["order"] > 1.8

    @pytest.mark.parametrize("grids", [[(17, 32), (17, 32)], [(17, 256), (17, 512)]],
                             ids=["repeated-grid", "same-s-step"])
    def test_grids_of_equal_spacing_raise(self, grids):
        (a, b), (c, d) = grids
        with pytest.raises(HypothesisViolated,
                           match=f"grids {a}x{b} and {c}x{d} have the same spacing"):
            convergence_study(CONVERGENCE_PROBLEMS["laplace-annulus"], grids)

    def test_zero_error_measures_no_order(self):
        oracle = dataclasses.replace(CONVERGENCE_PROBLEMS["constant"], min_order=1.8)
        with pytest.raises(HypothesisViolated, match=r"error 0.0 on grid 9x16 measures no order"):
            convergence_study(oracle, [(9, 16), (17, 32)])

    def test_non_finite_error_measures_no_order(self):
        oracle = dataclasses.replace(CONVERGENCE_PROBLEMS["constant"],
                                     exact_u=lambda x: np.full(x.shape[:-1], np.nan))
        with pytest.raises(HypothesisViolated, match=r"error nan on grid 9x16 measures no order"):
            convergence_study(oracle, [(9, 16), (17, 32)])


class TestReportInvariant:
    def test_pass_iff_margin_within_tolerance(self, catenoid_ring_2d, harmonic_annulus_2d,
                                              radial_minimal_ring, criterion9_family):
        """Every entry of every check holds the same contract, whichever check built it."""
        entries = [check_extremum_on_boundary(catenoid_ring_2d, THETA_HALF, which=which)
                   for which in ("min", "max", "both")]
        entries += [check_gradient_monotonicity(harmonic_annulus_2d),
                    corollary_bound_poisson(harmonic_annulus_2d),
                    corollary_bound_minimal(radial_minimal_ring),
                    check_harmonic_psi_2d(criterion9_family)]
        for cfg in ({"command": "jet-verify", "options": {"fields": 5, "dims": [2]}},
                    {"command": "lemma32", "options": {"instances": 20}}):
            entries += run(parse_config(cfg))[0]["checks"]
        assert len(entries) == 7 + 6 + 3
        for entry in entries:
            assert type(entry["name"]) is str
            assert type(entry["margin"]) is float and math.isfinite(entry["margin"]), entry
            assert type(entry["tolerance"]) is float and math.isfinite(entry["tolerance"]), entry
            assert type(entry["pass"]) is bool, entry
            assert entry["pass"] == (entry["margin"] >= -entry["tolerance"]), entry
