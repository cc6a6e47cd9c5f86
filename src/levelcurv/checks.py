"""Theorem and corollary checks on solved fields.

Every check follows the same discipline: hypotheses are *enforced*, not
assumed (a failed precondition raises HypothesisViolated and must never be
read as a counterexample), interior and boundary values are estimated by the
same least-squares jet machinery (one-sided at boundaries), and verdicts
carry explicit margins against an O(h^2)-scaled tolerance.

"Interior" always excludes the two grid layers nearest each boundary, which
is the jet-recovery stencil width; comparing differently-accurate estimators
would poison the margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolated, TooCoarse
from .geometry import (
    GRAD_FLOOR,
    TestFunctionSpec,
    curvature_matrix,
    level_curve_curvature_2d,
    weighted_curvature,
)
from .identities import lb_psi_residual_2d
from .recover import grid_field_fit, radial_profile_fit
from .rhs import admissibility_check, zero_rhs
from .ring2d import Circle, RingDomain2D, boundary_gradients, solve_semilinear_ring2d, solve_minimal_ring2d
from .fields import catenoid_value, radial_jet
from .solution import RingSolution

INTERIOR_MARGIN_LAYERS = 2
MIN_INTERIOR_LAYERS = 8


@dataclass
class CheckReport:
    """Outcome of one boundary-extremum / monotonicity / harmonicity check."""

    name: str
    interior_extremum: float
    interior_location: tuple
    boundary_extremum: float
    boundary_location: tuple
    margin: float
    tolerance: float
    passed: bool
    grid_h: float
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "interior_extremum": self.interior_extremum,
            "interior_location": list(self.interior_location),
            "boundary_extremum": self.boundary_extremum,
            "boundary_location": list(self.boundary_location),
            "margin": self.margin,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "grid_h": self.grid_h,
            "notes": list(self.notes),
        }


@dataclass
class CorollaryBound:
    """The curvature lower bound of the convex-ring corollaries."""

    name: str
    min_k_interior: float
    min_k_boundary: float
    grad_min_outer: float
    grad_max_inner: float
    bound_value: float
    passed: bool
    tolerance: float
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "min_K_interior": self.min_k_interior,
            "min_K_boundary": self.min_k_boundary,
            "grad_min_outer": self.grad_min_outer,
            "grad_max_inner": self.grad_max_inner,
            "bound_value": self.bound_value,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# psi fields on solutions
# ---------------------------------------------------------------------------

def _u_jets(solution: RingSolution):
    """Degree-3 (grad, hess) of a 2D solution, fitted once and shared by every check."""
    if solution._jets3 is None:
        jets = grid_field_fit(solution, solution.values, degree=3)
        for a in jets:
            a.flags.writeable = False
        solution._jets3 = jets
    return solution._jets3


def _psi_field_ring2d(solution: RingSolution, spec: TestFunctionSpec | None):
    """(psi, K, grad_norm, kappa_geo, flip_note) node fields on the full grid."""
    grads, hesses = _u_jets(solution)
    gnorm = np.linalg.norm(grads, axis=-1)
    if float(np.min(gnorm)) < GRAD_FLOOR:
        bad = np.argwhere(gnorm < GRAD_FLOOR)[:10]
        raise HypothesisViolated(
            f"|grad u| below floor at nodes {bad.tolist()} (and possibly more)"
        )
    kappa_pre = level_curve_curvature_2d(grads, hesses)
    sign = math.copysign(1.0, float(np.median(kappa_pre)))
    kappa_geo = sign * kappa_pre
    notes = ["orientation flipped"] if sign < 0 else []
    k = kappa_geo  # n = 2: Gaussian curvature of the level curve is kappa itself
    t = gnorm**2
    psi = spec.weight(t) * k if spec is not None else k.copy()
    return psi, k, gnorm, kappa_geo, notes


def _psi_field_radial(solution: RingSolution, spec: TestFunctionSpec | None):
    """(psi, K, |u'|, kappa_geo, notes) sample fields via recovered radial jets."""
    n = solution.n
    up, upp, _ = radial_profile_fit(solution, degree=3)
    gnorm = np.abs(up)
    if float(np.min(gnorm)) < GRAD_FLOOR:
        bad = np.argwhere(gnorm < GRAD_FLOOR)[:10].ravel().tolist()
        raise HypothesisViolated(f"|grad u| below floor at radial samples {bad}")
    m = solution.r.shape[0]
    k = np.empty(m)
    kappa_min = np.empty(m)
    flipped_any = False
    for i in range(m):
        x = np.zeros(n)
        x[0] = solution.r[i]
        jet = radial_jet(x, up[i], upp[i], None, order=2)
        cd = curvature_matrix(jet, mode="aligned")
        k[i] = cd.gauss
        kappa_min[i] = cd.principal[0]
        flipped_any = flipped_any or cd.flipped
    notes = ["orientation flipped"] if flipped_any else []
    t = gnorm**2
    psi = spec.weight(t) * k if spec is not None else k.copy()
    return psi, k, gnorm, kappa_min, notes


def _require_strict_convexity(kappa_min, interior_slice, what: str):
    bad = np.argwhere(kappa_min[interior_slice] <= 0.0)
    if bad.size:
        raise HypothesisViolated(
            f"level sets not strictly convex at {bad[:10].tolist()} "
            f"(and possibly more) while checking {what}"
        )


def _interior_slice(n_layers: int) -> slice:
    return slice(INTERIOR_MARGIN_LAYERS, n_layers - INTERIOR_MARGIN_LAYERS)


def _check_layers(n_layers: int):
    if n_layers - 2 * INTERIOR_MARGIN_LAYERS < MIN_INTERIOR_LAYERS:
        raise TooCoarse(
            f"{n_layers} layers leave fewer than {MIN_INTERIOR_LAYERS} interior layers"
        )


def _guard_ring_resolution(solution: RingSolution):
    """A ring thinner than the angular node spacing starves the recovery stencils."""
    if solution.kind != "ring2d":
        return
    gap = getattr(solution.domain, "min_gap", None)
    if gap is not None and gap < solution.h:
        raise TooCoarse(
            f"radial gap {gap:.3g} is below the largest node spacing {solution.h:.3g}; "
            "refine the angular grid or widen the ring"
        )


# ---------------------------------------------------------------------------
# boundary extremum checks
# ---------------------------------------------------------------------------

def check_extremum_on_boundary(
    solution: RingSolution,
    spec: TestFunctionSpec,
    which: str = "min",
    c_tol: float | None = None,
    tol_abs: float | None = None,
) -> CheckReport:
    """Does psi attain its min (and/or max) on the boundary?

    which is "min", "max" or "both"; for "both" the reported margin is the
    worse of the two.  Tolerance is c_tol * h^2 with c_tol defaulting to
    50 * max|psi|; tol_abs overrides it outright (used where a profile is
    known in closed form and discretization error does not scale with h^2).
    """
    if which not in ("min", "max", "both"):
        raise ValueError("which must be 'min', 'max' or 'both'")

    if solution.kind == "ring2d":
        n_layers = solution.values.shape[0]
        _check_layers(n_layers)
        _guard_ring_resolution(solution)
        psi, _, _, kappa_geo, notes = _psi_field_ring2d(solution, spec)
        interior = _interior_slice(n_layers)
        _require_strict_convexity(kappa_geo, interior, "a boundary-extremum claim")
        psi_int = psi[interior]
        psi_bdry = np.concatenate([psi[0], psi[-1]])
        coords_int = solution.coords[interior]
        coords_bdry = np.concatenate([solution.coords[0], solution.coords[-1]])
    else:
        n_layers = solution.r.shape[0]
        _check_layers(n_layers)
        psi, _, _, kappa_min, notes = _psi_field_radial(solution, spec)
        interior = _interior_slice(n_layers)
        _require_strict_convexity(kappa_min, interior, "a boundary-extremum claim")
        psi_int = psi[interior]
        psi_bdry = psi[[0, -1]]
        coords_int = solution.r[interior]
        coords_bdry = solution.r[[0, -1]]

    h = solution.h
    scale = float(np.max(np.abs(psi)))
    tol = (50.0 * scale if c_tol is None else c_tol) * h * h
    if tol_abs is not None:
        tol = tol_abs
    notes = list(notes)

    def _loc(coords, idx):
        c = np.asarray(coords).reshape(-1, coords.shape[-1] if coords.ndim > 1 else 1)[idx]
        return tuple(float(v) for v in np.atleast_1d(c))

    reports = {}
    if which in ("min", "both"):
        i_idx = int(np.argmin(psi_int.ravel()))
        b_idx = int(np.argmin(psi_bdry.ravel()))
        i_val = float(psi_int.ravel()[i_idx])
        b_val = float(psi_bdry.ravel()[b_idx])
        reports["min"] = (i_val, _loc(coords_int, i_idx), b_val, _loc(coords_bdry, b_idx),
                          i_val - b_val)
    if which in ("max", "both"):
        i_idx = int(np.argmax(psi_int.ravel()))
        b_idx = int(np.argmax(psi_bdry.ravel()))
        i_val = float(psi_int.ravel()[i_idx])
        b_val = float(psi_bdry.ravel()[b_idx])
        reports["max"] = (i_val, _loc(coords_int, i_idx), b_val, _loc(coords_bdry, b_idx),
                          b_val - i_val)

    key = "min" if "min" in reports else "max"
    margin = min(r[4] for r in reports.values())
    if which == "both":
        for nm, r in reports.items():
            notes.append(f"{nm}-margin {r[4]:.3e}")
    i_val, i_loc, b_val, b_loc, _ = reports[key]
    return CheckReport(
        name=f"extremum-{which}:{spec.describe()}",
        interior_extremum=i_val,
        interior_location=i_loc,
        boundary_extremum=b_val,
        boundary_location=b_loc,
        margin=float(margin),
        tolerance=float(tol),
        passed=bool(margin >= -tol),
        grid_h=h,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# corollary bounds
# ---------------------------------------------------------------------------

def _domain_box(solution: RingSolution) -> np.ndarray:
    pts = solution.coords.reshape(-1, 2)
    return np.stack([pts.min(axis=0), pts.max(axis=0)], axis=-1)


def _boundary_data_is_ring(solution: RingSolution) -> bool:
    outer, inner = solution.boundary_values()
    return (
        float(np.max(np.abs(outer))) <= 1e-12
        and float(np.max(np.abs(inner - 1.0))) <= 1e-12
    )


def corollary_bound_poisson(
    solution: RingSolution, rel_tol: float = 1e-3
) -> CorollaryBound:
    """min K >= (min_outer |grad u| / max_inner |grad u|)^2 * min_boundary K.

    Requires a semilinear solution of the convex-ring problem (0 outer /
    1 inner) whose f is sampled nonnegative, nondecreasing in u, with f(0)=0.
    """
    if solution.equation != "semilinear":
        raise HypothesisViolated("the quadratic-ratio bound is for Delta u = f(u)")
    if not _boundary_data_is_ring(solution):
        raise HypothesisViolated("boundary data must be 0 on the outer, 1 on the inner curve")
    notes = ["flags sampled"]
    if solution.kind == "ring2d":
        flags = admissibility_check(solution.rhs, _domain_box(solution))
    else:
        box = np.array([[solution.a, solution.b]] * solution.n)
        flags = admissibility_check(solution.rhs, box)
    if not (flags.nonnegative and flags.f_u_nonneg and flags.f0_zero):
        raise HypothesisViolated(
            f"f fails the corollary hypotheses: {flags.as_dict()}"
        )

    if solution.kind == "ring2d":
        n_layers = solution.values.shape[0]
        _check_layers(n_layers)
        _guard_ring_resolution(solution)
        _, k, _, kappa_geo, onotes = _psi_field_ring2d(solution, None)
        interior = _interior_slice(n_layers)
        _require_strict_convexity(kappa_geo, interior, "the Poisson corollary bound")
        min_k_interior = float(np.min(k[interior]))
        min_k_boundary = float(min(np.min(k[0]), np.min(k[-1])))
        g_out, g_in = boundary_gradients(solution)
        grad_min_outer = float(np.min(g_out))
        grad_max_inner = float(np.max(g_in))
    else:
        n_layers = solution.r.shape[0]
        _check_layers(n_layers)
        _, k, gnorm, kappa_min, onotes = _psi_field_radial(solution, None)
        interior = _interior_slice(n_layers)
        _require_strict_convexity(kappa_min, interior, "the Poisson corollary bound")
        min_k_interior = float(np.min(k[interior]))
        min_k_boundary = float(min(k[0], k[-1]))
        grad_min_outer = float(gnorm[-1])
        grad_max_inner = float(gnorm[0])
    notes += onotes

    bound = (grad_min_outer / grad_max_inner) ** 2 * min_k_boundary
    tol = rel_tol * min_k_boundary
    return CorollaryBound(
        name="poisson-ring-quadratic-ratio",
        min_k_interior=min_k_interior,
        min_k_boundary=min_k_boundary,
        grad_min_outer=grad_min_outer,
        grad_max_inner=grad_max_inner,
        bound_value=float(bound),
        passed=bool(min_k_interior >= bound - tol),
        tolerance=float(tol),
        notes=notes,
    )


def corollary_bound_minimal(solution: RingSolution, tol: float = 1e-6) -> CorollaryBound:
    """Minimal-surface ring bound with the sqrt(1+|grad u|^2) factors (n >= 3)."""
    if solution.equation != "minimal":
        raise HypothesisViolated("minimal-surface bound needs a minimal solution")
    if solution.kind != "radial" or solution.n < 3:
        raise HypothesisViolated("the bound is stated for n >= 3 (radial rings here)")
    n_layers = solution.r.shape[0]
    _check_layers(n_layers)
    _, k, gnorm, kappa_min, onotes = _psi_field_radial(solution, None)
    interior = _interior_slice(n_layers)
    _require_strict_convexity(kappa_min, interior, "the minimal corollary bound")
    min_k_interior = float(np.min(k[interior]))
    min_k_boundary = float(min(k[0], k[-1]))
    grad_min_outer = float(gnorm[-1])
    grad_max_inner = float(gnorm[0])
    bound = (
        (grad_min_outer / grad_max_inner)
        * math.sqrt(1.0 + grad_min_outer**2)
        / math.sqrt(1.0 + grad_max_inner**2)
        * min_k_boundary
    )
    return CorollaryBound(
        name="minimal-ring-sqrt-ratio",
        min_k_interior=min_k_interior,
        min_k_boundary=min_k_boundary,
        grad_min_outer=grad_min_outer,
        grad_max_inner=grad_max_inner,
        bound_value=float(bound),
        passed=bool(min_k_interior >= bound - tol),
        tolerance=float(tol),
        notes=list(onotes),
    )


# ---------------------------------------------------------------------------
# gradient monotonicity (the convex-ring gradient lemma)
# ---------------------------------------------------------------------------

def check_gradient_monotonicity(
    solution: RingSolution, c_tol: float | None = None
) -> CheckReport:
    """grad(|grad u|^2) . grad u > 0, with |grad u| extrema on the stated sides.

    For the convex-ring semilinear problem the norm of the gradient must
    increase along grad u, so its minimum sits on the outer boundary and its
    maximum on the inner one.
    """
    if solution.equation != "semilinear":
        raise HypothesisViolated("gradient monotonicity is stated for Delta u = f(u)")
    if not _boundary_data_is_ring(solution):
        raise HypothesisViolated("boundary data must be 0 on the outer, 1 on the inner curve")
    if solution.kind == "ring2d":
        flags = admissibility_check(solution.rhs, _domain_box(solution))
    else:
        flags = admissibility_check(solution.rhs, np.array([[solution.a, solution.b]] * solution.n))
    if not (flags.nonnegative and flags.f_u_nonneg and flags.f0_zero):
        raise HypothesisViolated(f"f fails the corollary hypotheses: {flags.as_dict()}")

    if solution.kind == "ring2d":
        n_layers = solution.values.shape[0]
        _check_layers(n_layers)
        _guard_ring_resolution(solution)
        grads, hesses = _u_jets(solution)
        gnorm = np.linalg.norm(grads, axis=-1)
        if float(np.min(gnorm)) < GRAD_FLOOR:
            raise HypothesisViolated("|grad u| below floor somewhere on the grid")
        deriv = 2.0 * np.einsum("nta,ntab,ntb->nt", grads, hesses, grads)
        interior = _interior_slice(n_layers)
        d_int = deriv[interior]
        g_out, g_in = boundary_gradients(solution)
        min_all = float(np.min(gnorm))
        max_all = float(np.max(gnorm))
        min_outer = float(np.min(g_out))
        max_inner = float(np.max(g_in))
        coords_int = solution.coords[interior]
    else:
        n_layers = solution.r.shape[0]
        _check_layers(n_layers)
        up, upp, _ = radial_profile_fit(solution, degree=3)
        gnorm = np.abs(up)
        if float(np.min(gnorm)) < GRAD_FLOOR:
            raise HypothesisViolated("|grad u| below floor somewhere on the profile")
        # grad(|grad u|^2) . grad u = 2 U'^2 U'' for a radial profile
        deriv = 2.0 * up**2 * upp
        interior = _interior_slice(n_layers)
        d_int = deriv[interior]
        min_all, max_all = float(np.min(gnorm)), float(np.max(gnorm))
        min_outer, max_inner = float(gnorm[-1]), float(gnorm[0])
        coords_int = solution.r[interior]

    h = solution.h
    scale_d = float(np.max(np.abs(d_int)))
    tol = (50.0 * scale_d if c_tol is None else c_tol) * h * h
    gtol = 50.0 * max_all * h * h
    i_idx = int(np.argmin(d_int.ravel()))
    d_min = float(d_int.ravel()[i_idx])
    # three sub-margins (positivity + the two extremum locations), each scaled
    # by its own tolerance, folded so pass <=> margin >= -tolerance
    quotients = [d_min / tol,
                 (min_all - min_outer) / gtol,
                 (max_inner - max_all) / gtol]
    margin = float(min(quotients) * tol)
    notes = ["flags sampled", f"min directional derivative {d_min:.6g}",
             f"min|grad| {min_all:.6g} vs outer {min_outer:.6g}",
             f"max|grad| {max_all:.6g} vs inner {max_inner:.6g}"]
    if coords_int.ndim > 1:
        loc = tuple(float(v) for v in coords_int.reshape(-1, 2)[i_idx])
    else:
        loc = (float(np.asarray(coords_int).ravel()[i_idx]),)
    return CheckReport(
        name="gradient-monotonicity",
        interior_extremum=d_min,
        interior_location=loc,
        boundary_extremum=min_outer,
        boundary_location=(),
        margin=margin,
        tolerance=float(tol),
        passed=bool(margin >= -tol),
        grid_h=h,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Laplace-Beltrami harmonicity of psi in 2D
# ---------------------------------------------------------------------------

def _discrete_lb_residual(solution: RingSolution) -> float:
    """max over deep-interior nodes of F^{ab} psi_ab on a discrete solution.

    Differentiating a recovered field twice is noise-sensitive: degree-4 fits
    keep the estimator error smooth enough that the residual still decays at
    second order, where degree-3 fits stall.
    """
    n_layers = solution.values.shape[0]
    spec = TestFunctionSpec.minimal_theta(-0.5)
    # stay clear of the one-sided fit rows on both passes
    deep = slice(7, n_layers - 7)
    grads, hesses, hess_rows = grid_field_fit(
        solution, solution.values, degree=4, hessian_rows=deep
    )
    gnorm = np.linalg.norm(grads, axis=-1)
    if float(np.min(gnorm)) < GRAD_FLOOR:
        raise HypothesisViolated("|grad u| below floor on the grid")
    kappa_pre = level_curve_curvature_2d(grads, hesses)
    sign = math.copysign(1.0, float(np.median(kappa_pre)))
    kappa_geo = sign * kappa_pre
    interior = _interior_slice(n_layers)
    _require_strict_convexity(kappa_geo, interior, "psi harmonicity")
    t = gnorm**2
    psi = spec.weight(t) * kappa_geo
    psi_hess = hess_rows.apply(psi)
    g1, g2, t = grads[deep, :, 0], grads[deep, :, 1], t[deep]
    lb = (
        (1.0 + t - g1 * g1) * psi_hess[..., 0, 0]
        - 2.0 * g1 * g2 * psi_hess[..., 0, 1]
        + (1.0 + t - g2 * g2) * psi_hess[..., 1, 1]
    )
    return float(np.max(np.abs(lb)))


def check_harmonic_psi_2d(source, points=None, tol: float = 1e-6) -> CheckReport:
    """psi = (t/(1+t))^(-1/2) k is Laplace-Beltrami harmonic on 2D minimal graphs.

    source may be a closed-form supplier (requires sample points; pass when
    the residual is below tol) or a list of >= 2 RingSolutions on refined
    grids (pass when the residual decays at measured order >= 1.5).
    """
    if hasattr(source, "jet"):
        if points is None:
            raise ValueError("closed-form harmonicity check needs sample points")
        residual = lb_psi_residual_2d(source, points)
        return CheckReport(
            name="harmonic-psi-2d:closed-form",
            interior_extremum=residual,
            interior_location=(),
            boundary_extremum=0.0,
            boundary_location=(),
            margin=-residual,
            tolerance=tol,
            passed=bool(residual <= tol),
            grid_h=0.0,
            notes=[f"residual {residual:.3e} over {len(np.atleast_2d(points))} points"],
        )

    solutions = list(source)
    if len(solutions) < 2:
        raise ValueError("refinement check needs at least two solutions")
    residuals = [_discrete_lb_residual(s) for s in solutions]
    hs = [s.h for s in solutions]
    orders = [
        math.log(residuals[i] / residuals[i + 1]) / math.log(hs[i] / hs[i + 1])
        for i in range(len(residuals) - 1)
    ]
    min_order = min(orders)
    return CheckReport(
        name="harmonic-psi-2d:discrete",
        interior_extremum=residuals[-1],
        interior_location=(),
        boundary_extremum=0.0,
        boundary_location=(),
        margin=min_order - 1.5,
        tolerance=0.0,
        passed=bool(min_order >= 1.5),
        grid_h=hs[-1],
        notes=[f"residuals {['%.3e' % r for r in residuals]}",
               f"orders {['%.2f' % o for o in orders]}"],
    )


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def convergence_study(problem: str, grids: list) -> list[dict]:
    """Solve a closed-form-oracle problem over a grid family; tabulate (h, error, order).

    problems: "laplace-annulus", "minimal-circles-catenoid", "sphere-curvature",
    "constant".
    """
    rows = []
    for g in grids:
        ns, nt = g
        if problem == "laplace-annulus":
            dom = RingDomain2D(Circle(math.e), Circle(1.0), n_s=ns, n_t=nt)
            sol = solve_semilinear_ring2d(dom, np.zeros(nt), np.ones(nt), zero_rhs())
            r = np.linalg.norm(sol.coords, axis=-1)
            err = float(np.max(np.abs(sol.values - (1.0 - np.log(r)))))
            h = sol.h
        elif problem == "minimal-circles-catenoid":
            dom = RingDomain2D(Circle(4.0), Circle(2.0), n_s=ns, n_t=nt)
            outer = np.full(nt, catenoid_value(4.0, anchor=2.0))
            sol = solve_minimal_ring2d(dom, outer, np.zeros(nt))
            r = np.linalg.norm(sol.coords, axis=-1)
            exact = np.arccosh(r) - math.acosh(2.0)
            err = float(np.max(np.abs(sol.values - exact)))
            h = sol.h
        elif problem == "sphere-curvature":
            dom = RingDomain2D(Circle(4.0), Circle(2.0), n_s=ns, n_t=nt)
            from .ring2d import RingGrid

            grid = RingGrid(dom)
            vals = -np.linalg.norm(grid.x, axis=-1)
            sol = RingSolution(kind="ring2d", equation="minimal", values=vals,
                               residual_norm=0.0, h=grid.spacing(), domain=dom,
                               coords=grid.x)
            _, k, _, _, _ = _psi_field_ring2d(sol, None)
            r = np.linalg.norm(grid.x, axis=-1)
            interior = _interior_slice(ns)
            err = float(np.max(np.abs(k[interior] - 1.0 / r[interior])))
            h = sol.h
        elif problem == "constant":
            dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=ns, n_t=nt)
            sol = solve_minimal_ring2d(dom, np.full(nt, 0.7), np.full(nt, 0.7))
            err = float(np.max(np.abs(sol.values - 0.7)))
            h = sol.h
        else:
            raise ValueError(f"unknown convergence problem {problem!r}")
        rows.append({"h": h, "error": err, "order": None})
    for i in range(1, len(rows)):
        e0, e1 = rows[i - 1]["error"], rows[i]["error"]
        h0, h1 = rows[i - 1]["h"], rows[i]["h"]
        if e1 > 0 and e0 > 0 and h0 != h1:
            rows[i]["order"] = math.log(e0 / e1) / math.log(h0 / h1)
    return rows
