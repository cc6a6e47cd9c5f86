"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the criterion lines.
Every discrete solution built here is also screened for discrete-maximum-
principle violations (criterion 10 applies across the whole suite).
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from levelcurv.checks import (
    check_extremum_on_boundary,
    check_gradient_monotonicity,
    check_harmonic_psi_2d,
    convergence_study,
    corollary_bound_minimal,
    corollary_bound_poisson,
)
from levelcurv.fields import RadialMinimalField, ScherkField, catenoid_value, radial_jet
from levelcurv.geometry import TestFunctionSpec, curvature_matrix, weighted_curvature
from levelcurv.identities import (
    QuadraticBoundInstance,
    identity_residuals,
    lb_psi_residual_2d,
    lemma_quadratic_bound,
    minimal_master_identity_residual,
    quadratic_max_oracle,
    random_quadratic_instances,
)
from levelcurv.polyfield import random_test_jets
from levelcurv.radial import solve_minimal_radial, solve_semilinear_radial
from levelcurv.rhs import admissibility_check, inverse_square_rhs, linear_u_rhs, zero_rhs
from levelcurv.ring2d import Circle, Ellipse, RingDomain2D, solve_minimal_ring2d, solve_semilinear_ring2d

THETA_HALF = TestFunctionSpec.minimal_theta(-0.5)
MAX_PRINCIPLE_LOG: list = []


def _track(solution):
    MAX_PRINCIPLE_LOG.append((solution.kind, solution.equation, solution.max_principle_violation()))
    return solution


def _verdict(name: str, ok: bool, detail: str, t0: float, cap: float):
    elapsed = time.perf_counter() - t0
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{elapsed:.1f}s < {cap:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < cap, f"{name} exceeded its runtime cap: {elapsed:.1f}s > {cap}s"


# --- shared solved fields; built lazily INSIDE a criterion's timer so every
# --- runtime cap covers the solves it depends on

_CACHE: dict = {}


def _minimal_family(label):
    if label in _CACHE:
        return _CACHE[label]
    sols = {}
    prev = None
    for ns, nt in [(128, 256), (256, 512)]:
        if label == "catenoid-circles":
            dom = RingDomain2D(Circle(4.0), Circle(2.0), n_s=ns, n_t=nt)
            outer = np.full(nt, catenoid_value(4.0, anchor=2.0))
            inner = np.zeros(nt)
        else:
            dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=ns, n_t=nt)
            outer, inner = np.zeros(nt), np.ones(nt)
        prev = _track(solve_minimal_ring2d(dom, outer, inner, warm_start=prev))
        sols[(ns, nt)] = prev
    _CACHE[label] = sols
    return sols


def _semilinear_rings():
    if "semilinear" in _CACHE:
        return _CACHE["semilinear"]
    out = {}
    dom = RingDomain2D(Ellipse(2.4, 2.0), Circle(1.0), n_s=128, n_t=256)
    out["laplace"] = _track(solve_semilinear_ring2d(dom, np.zeros(256), np.ones(256), zero_rhs()))
    dom2 = RingDomain2D(Circle(2.0), Circle(1.0), n_s=128, n_t=256)
    out["linear-u"] = _track(
        solve_semilinear_ring2d(dom2, np.zeros(256), np.ones(256), linear_u_rhs(1.0))
    )
    dom3 = RingDomain2D(Circle(1.4), Circle(0.6), n_s=128, n_t=256)
    out["inverse-square"] = _track(
        solve_semilinear_ring2d(dom3, np.zeros(256), np.ones(256), inverse_square_rhs(2.0))
    )
    _CACHE["semilinear"] = out
    return out


def test_criterion_01_catenoid_sharpness():
    t0 = time.perf_counter()
    # the unit-flux catenoid's level spheres have psi_{-1/2} = 1 at every radius
    worst_closed_form = 0.0
    for n in (2, 3, 4):
        catenoid = RadialMinimalField(n, flux=1.0)
        for r in np.linspace(1.1, 50.0, 200):
            x = np.zeros(n)
            x[0] = r
            jet = catenoid.jet(x, order=2)
            psi = weighted_curvature(THETA_HALF, jet.grad_norm**2, curvature_matrix(jet).gauss)
            worst_closed_form = max(worst_closed_form, abs(psi - 1.0))

    n, a, b = 3, 2.0, 5.0
    target = quad(lambda s: 1.0 / math.sqrt(s**4 - 1.0), a, b, epsabs=1e-13, epsrel=1e-13)[0]
    sol = _track(solve_minimal_radial(n, a, b, 0.0, target, samples=406))
    worst_pipeline = 0.0
    for i in range(3, 403):
        x = np.zeros(n)
        x[0] = sol.r[i]
        g1 = sol.u_prime[i] / sol.r[i]  # u = G(r^2/2): u' = G' r, u'' = G'' r^2 + G'
        jet = radial_jet(x, [g1, (sol.u_second[i] - g1) / sol.r[i] ** 2])
        cd = curvature_matrix(jet)
        psi = weighted_curvature(THETA_HALF, jet.grad_norm**2, cd.gauss)
        worst_pipeline = max(worst_pipeline, abs(psi - 1.0))

    ok = worst_closed_form < 1e-12 and worst_pipeline < 1e-4
    _verdict(
        "criterion-1 catenoid sharpness",
        ok,
        f"closed-form max|psi-1|={worst_closed_form:.2e} (<1e-12), "
        f"pipeline max|psi-1|={worst_pipeline:.2e} (<1e-4) at 400 samples",
        t0, cap=5.0,
    )


def test_criterion_02_minimal_2d_min_and_max():
    t0 = time.perf_counter()
    details = []
    ok = True
    for label in ("catenoid-circles", "ellipse-ring"):
        family = _minimal_family(label)
        shortfalls = {}
        for grid, sol in family.items():
            rep = check_extremum_on_boundary(sol, THETA_HALF, which="both")
            ok &= rep["pass"]
            shortfalls[grid] = max(0.0, -rep["margin"])
            details.append(f"{label}@{grid[0]}x{grid[1]} margin={rep['margin']:.2e} tol={rep['tolerance']:.2e}")
        coarse, fine = shortfalls[(128, 256)], shortfalls[(256, 512)]
        shrinks = fine <= 0.55 * coarse + 1e-14
        ok &= shrinks
        details.append(f"{label} shortfall {coarse:.2e}->{fine:.2e}")
    _verdict("criterion-2 minimal 2D min+max on boundary", ok, "; ".join(details), t0, cap=120.0)


def test_criterion_03_radial_theta_sweep():
    t0 = time.perf_counter()
    data = quad(lambda s: 1.0 / math.sqrt(s**4 - 1.0), 2.0, 4.0, epsabs=1e-13, epsrel=1e-13)[0]
    sol = _track(solve_minimal_radial(3, 2.0, 4.0, data, 0.0, samples=301))
    details = []
    ok = True
    for theta in (-0.5, 0.0, 0.5, 1.0):
        rep = check_extremum_on_boundary(
            sol, TestFunctionSpec.minimal_theta(theta), which="min", tol_abs=1e-6
        )
        ok &= rep["pass"]
        details.append(f"theta={theta:g} margin={rep['margin']:.2e}")
    _verdict("criterion-3 radial theta sweep (n=3)", ok, "; ".join(details), t0, cap=10.0)


def test_criterion_04_semilinear_cases():
    t0 = time.perf_counter()
    semilinear_rings = _semilinear_rings()
    details = []
    ok = True

    # (ia): f(u) = u (f_u >= 0) and f = 0 with the weight |grad u|^-2
    for label in ("linear-u", "laplace"):
        sol = semilinear_rings[label]
        rep = check_extremum_on_boundary(sol, TestFunctionSpec.poisson_power(-2), which="min")
        ok &= rep["pass"]
        details.append(f"(ia) {label} margin={rep['margin']:.2e}")

    # (ib): f = 0 (f_u <= 0 holds) with |grad u|^(n-1)
    rep = check_extremum_on_boundary(
        semilinear_rings["laplace"], TestFunctionSpec.poisson_power(1), which="min"
    )
    ok &= rep["pass"]
    details.append(f"(ib) laplace margin={rep['margin']:.2e}")

    # (ii): f(x) = (2 + x1)^-2, t^3 f jointly convex
    sol = semilinear_rings["inverse-square"]
    box = np.stack(
        [sol.coords.reshape(-1, 2).min(axis=0), sol.coords.reshape(-1, 2).max(axis=0)], axis=-1
    )
    flags = admissibility_check(sol.rhs, box)
    ok &= flags.nonnegative and flags.f_of_x_only and flags.t3f_convex
    details.append(f"(ii) flags nonneg={flags.nonnegative} t3f={flags.t3f_convex}")
    rep = check_extremum_on_boundary(sol, TestFunctionSpec.poisson_power(1), which="min")
    ok &= rep["pass"]
    details.append(f"(ii) inverse-square margin={rep['margin']:.2e}")

    _verdict("criterion-4 semilinear boundary minima", ok, "; ".join(details), t0, cap=180.0)


def test_criterion_05_corollary_bounds():
    t0 = time.perf_counter()
    semilinear_rings = _semilinear_rings()
    details = []
    ok = True

    # closed-form harmonic annulus, radii (1, e)
    annulus = _track(
        solve_semilinear_ring2d(
            RingDomain2D(Circle(math.e), Circle(1.0), n_s=96, n_t=192),
            np.zeros(192), np.ones(192), zero_rhs(),
        )
    )
    for label, sol in (("harmonic-annulus", annulus), ("linear-u", semilinear_rings["linear-u"])):
        cb = corollary_bound_poisson(sol, rel_tol=1e-3)
        ok &= cb["pass"]
        details.append(f"{label}: minK={cb['min_K_interior']:.4f} >= bound={cb['bound_value']:.4f}")

    for n in (3, 4):
        sol = _track(solve_minimal_radial(n, 2.0, 4.0, 1.0, 0.0, samples=301))
        cb = corollary_bound_minimal(sol, tol=1e-6)
        ok &= cb["pass"]
        details.append(f"minimal n={n}: margin={cb['margin']:.2e}")

    _verdict("criterion-5 corollary bounds", ok, "; ".join(details), t0, cap=30.0)


def test_criterion_06_gradient_monotonicity():
    t0 = time.perf_counter()
    semilinear_rings = _semilinear_rings()
    details = []
    ok = True
    radial = _track(
        solve_semilinear_radial(2, 1.0, 2.0, 1.0, 0.0, linear_u_rhs(1.0), samples=401)
    )
    cases = [
        ("laplace-2d", semilinear_rings["laplace"]),
        ("linear-u-2d", semilinear_rings["linear-u"]),
        ("linear-u-radial", radial),
    ]
    for label, sol in cases:
        rep = check_gradient_monotonicity(sol)
        ok &= rep["pass"] and rep["interior_extremum"] > 0.0
        details.append(f"{label}: min directional derivative {rep['interior_extremum']:.3e}")
    _verdict("criterion-6 gradient monotonicity", ok, "; ".join(details), t0, cap=30.0)


def test_criterion_07_identity_suite():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (2, 3):
        res = identity_residuals(random_test_jets(range(100), n).jets, THETA_HALF)
        worst_cod, worst_uiia = float(np.max(res.codazzi)), float(np.max(res.uiia))
        # phi is checked only where the level set is strictly convex, and is 0.0 elsewhere
        worst_phi = float(np.max(res.phi))
        admissible = int(np.count_nonzero(res.admissible))
        ok &= worst_cod < 1e-9 and worst_phi < 1e-8 and worst_uiia < 1e-9
        details.append(
            f"n={n}: codazzi={worst_cod:.1e} phi={worst_phi:.1e} ({admissible} adm) uiia={worst_uiia:.1e}"
        )

    r_cat = minimal_master_identity_residual(
        RadialMinimalField(2, flux=-1.0), np.array([1.8, 2.4]), -0.5
    )
    r_sch = minimal_master_identity_residual(ScherkField(), np.array([0.4, 0.9]), -0.5)
    r_rad = minimal_master_identity_residual(
        RadialMinimalField(3, flux=-1.0), np.array([0.0, 0.0, 3.0]), 0.0
    )
    ok &= r_cat < 1e-11 and r_sch < 1e-11 and r_rad < 1e-11
    details.append(f"master: catenoid={r_cat:.1e} scherk={r_sch:.1e} radial3={r_rad:.1e}")
    _verdict("criterion-7 identity suite", ok, "; ".join(details), t0, cap=60.0)


def test_criterion_08_quadratic_bound_suite():
    t0 = time.perf_counter()
    worst = max(
        np.max(quadratic_max_oracle(inst) - lemma_quadratic_bound(inst).bound)
        for inst in random_quadratic_instances(np.random.default_rng(7), 200)
    )
    worked = QuadraticBoundInstance([0.0, 1.0], [1.0, 1.0], [[1.0], [1.0]], [[1.0], [1.0]])
    eq_gaps = np.abs(quadratic_max_oracle(worked) - lemma_quadratic_bound(worked).bound)
    ok = worst <= 1e-9 and max(eq_gaps) <= 1e-12
    _verdict(
        "criterion-8 quadratic bound",
        ok,
        f"200 random: max excess {worst:.2e} (<=1e-9); worked equality gaps {max(eq_gaps):.1e}",
        t0, cap=5.0,
    )


def test_criterion_09_psi_harmonicity():
    t0 = time.perf_counter()
    details = []
    cat = RadialMinimalField(2, flux=-1.0)
    pts = [np.array([c * math.cos(a), c * math.sin(a)]) for c in (2.2, 3.0, 3.8) for a in (0.3, 1.4, 4.0)]
    r_cat = lb_psi_residual_2d(cat, pts)
    details.append(f"catenoid residual={r_cat:.1e} (<1e-11)")

    sch_pts = [np.array([0.4, 0.9]), np.array([0.2, 0.8]), np.array([0.5, 1.0])]
    r_sch = lb_psi_residual_2d(ScherkField(), sch_pts)
    details.append(f"scherk residual={r_sch:.1e} (<1e-11)")

    sols = []
    for ns, nt in [(25, 48), (49, 96), (97, 192)]:
        dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(1.5), n_s=ns, n_t=nt)
        sols.append(_track(solve_minimal_ring2d(dom, np.zeros(nt), np.ones(nt),
                                                warm_start=sols[-1] if sols else None)))
    rep_disc = check_harmonic_psi_2d(sols)
    details.append(f"discrete orders {rep_disc['notes'][-1]} (>=1.5)")

    ok = r_cat < 1e-11 and r_sch < 1e-11 and rep_disc["pass"]
    _verdict("criterion-9 psi harmonicity", ok, "; ".join(details), t0, cap=120.0)


def test_criterion_10_solver_gates():
    t0 = time.perf_counter()
    details = []
    ok = True
    for problem, grids in (
        ("laplace-annulus", [(17, 32), (33, 64), (65, 128), (129, 256)]),
        ("minimal-circles-catenoid", [(17, 32), (25, 48), (33, 64), (49, 96)]),
    ):
        rows = convergence_study(problem, grids)
        orders = [r["order"] for r in rows[1:]]
        ok &= all(o >= 1.8 for o in orders)
        details.append(f"{problem} orders {['%.2f' % o for o in orders]}")

    worst_mp = max((v for _, _, v in MAX_PRINCIPLE_LOG), default=0.0)
    ok &= worst_mp <= 1e-12
    details.append(f"max-principle worst violation {worst_mp:.2e} over {len(MAX_PRINCIPLE_LOG)} solves")
    _verdict("criterion-10 solver gates", ok, "; ".join(details), t0, cap=120.0)
