"""Theorem and corollary checks on solved fields.

Every check follows the same discipline: hypotheses are *enforced*, not
assumed (a failed precondition raises HypothesisViolated and must never be
read as a counterexample), interior and boundary values come from one field
bundle per solution (on 2D rings the solver's own stencil jets, one-sided
in s on the boundary rows), and verdicts carry explicit margins against an
O(h^2)-scaled tolerance.  No check refits u.

"Interior" always excludes the two grid layers nearest each boundary, where
the one-sided stencils reach; comparing differently-accurate estimators
would poison the margins.  The psi-harmonicity residual, which differences
the stencil jets once more, reads the fixed band 1/4 <= s <= 3/4 instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolated, TooCloseToBoundary, TooCoarse
from .geometry import GRAD_FLOOR, TestFunctionSpec, level_curve_curvature_2d
from .identities import lb_psi_residual_2d
from .rhs import admissibility_check, zero_rhs
from .ring2d import (
    Circle,
    Ellipse,
    RingDomain2D,
    RingGrid,
    solve_minimal_ring2d,
    solve_semilinear_ring2d,
)
from .fields import catenoid_value
from .solution import RingSolution

INTERIOR_MARGIN_LAYERS = 2
MIN_INTERIOR_LAYERS = 8
# Extremum ties, in units in the last place of the extremum.  The interior psi
# minimum of the shipped ellipse ring and its mirror image differ by 22 ulps.
EXTREMUM_TIE_ULPS = 64


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
# the field bundle of a solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Fields:
    """The derived node fields of one solution, which every check reads.

    Fields are flat over the nodes: row-major (N_s * N_t,) on 2D grids,
    (m,) on radial profiles.  ``interior`` slices them; ``outer`` and
    ``inner`` index the two boundary rows on 2D grids and the samples at
    r = b and r = a radially.
    """

    gnorm: np.ndarray      # |grad u|
    k: np.ndarray          # Gaussian curvature of the level set through each node
    kappa_min: np.ndarray  # its smallest principal curvature (k itself in 2D)
    deriv: np.ndarray      # grad(|grad u|^2) . grad u
    notes: tuple
    interior: slice
    coords: np.ndarray     # (N, d) node coordinates
    outer: np.ndarray
    inner: np.ndarray
    node_shape: tuple      # shape of solution.values

    @property
    def boundary(self) -> np.ndarray:  # node order: extremum ties go to the lower index
        return np.union1d(self.outer, self.inner)

    def psi(self, spec: TestFunctionSpec | None) -> np.ndarray:
        return spec.weight(self.gnorm**2) * self.k if spec is not None else self.k.copy()

    def extremum(self, field: np.ndarray, pick, nodes) -> tuple:
        """(value, location) of pick (np.argmin or np.argmax) over field[nodes].

        The location is that of the lowest node index among the values within
        EXTREMUM_TIE_ULPS of the extremum, so mirror-image nodes that tie up
        to rounding do not trade places when the rounding changes.
        """
        values = field[nodes]
        value = values[int(pick(values))]
        tied = np.abs(values - value) <= EXTREMUM_TIE_ULPS * np.spacing(np.abs(value))
        return float(value), tuple(float(v) for v in self.coords[nodes][int(np.argmax(tied))])

    def require_strict_convexity(self, what: str):
        kappa = self.kappa_min[self.interior].reshape((-1,) + self.node_shape[1:])
        bad = np.argwhere(kappa <= 0.0)
        if bad.size:
            raise HypothesisViolated(
                f"level sets not strictly convex at {bad[:10].tolist()} "
                f"(and possibly more) while checking {what}"
            )


def _build_fields(solution: RingSolution) -> _Fields:
    """The field bundle of a solution: on 2D rings from the solver grid's
    stencil jets, radially from the solver's own u' and u''.

    A 2D solution that carries no grid gets one here and keeps it.  Radially
    the level sets are spheres: kappa = 1/r and K = r^(1-n).  Raises on the
    |grad u| floor and orients the curvature to be positive toward grad u.
    """
    node_shape = solution.values.shape
    if node_shape[0] < 5:
        raise TooCloseToBoundary("grid has too few layers for the one-sided second derivative")
    if solution.kind == "ring2d":
        if solution.grid is None:
            solution.grid = RingGrid(solution.domain)
        grads = solution.grid.physical_gradient(solution.values)
        hesses = solution.grid.physical_hessian(solution.values)
        gnorm = np.linalg.norm(grads, axis=-1)
        _require_gradient_floor(gnorm)
        kappa_pre = level_curve_curvature_2d(grads, hesses)
        sign = math.copysign(1.0, float(np.median(kappa_pre)))
        k = kappa_min = sign * kappa_pre  # n = 2: K of a level curve is its curvature
        flipped = sign < 0
        deriv = 2.0 * np.einsum("nta,ntab,ntb->nt", grads, hesses, grads)
        coords = solution.coords.reshape(-1, 2)
        ns, nt = node_shape
        outer, inner = np.arange(nt), np.arange((ns - 1) * nt, ns * nt)
    else:
        up, upp = solution.u_prime, solution.u_second
        gnorm = np.abs(up)
        _require_gradient_floor(gnorm)
        kappa_min = 1.0 / solution.r
        k = solution.r ** (1 - solution.n)
        # the unoriented curvature matrix is -sign(u')/r I
        flipped = bool(np.any(up > 0.0))
        # grad(|grad u|^2) . grad u = 2 U'^2 U'' for a radial profile
        deriv = 2.0 * up**2 * upp
        coords = solution.r[:, None]
        outer, inner = np.array([up.shape[0] - 1]), np.array([0])
    row = gnorm.size // node_shape[0]
    flat = {}
    for name, a in (("gnorm", gnorm), ("k", k), ("kappa_min", kappa_min), ("deriv", deriv)):
        flat[name] = a.reshape(-1)
        flat[name].flags.writeable = False  # shared by every check that reads the bundle
    return _Fields(
        **flat,
        notes=("orientation flipped",) if flipped else (),
        interior=slice(INTERIOR_MARGIN_LAYERS * row,
                       (node_shape[0] - INTERIOR_MARGIN_LAYERS) * row),
        coords=coords,
        outer=outer,
        inner=inner,
        node_shape=node_shape,
    )


def _require_gradient_floor(gnorm: np.ndarray):
    if float(np.min(gnorm)) < GRAD_FLOOR:
        bad = np.argwhere(gnorm < GRAD_FLOOR)[:10]
        raise HypothesisViolated(
            f"|grad u| below floor at nodes {bad.tolist()} (and possibly more)"
        )


def solution_fields(solution: RingSolution) -> _Fields:
    """The field bundle of a solution, built once and shared by every check."""
    if solution._fields is None:
        solution._fields = _build_fields(solution)
    return solution._fields


def _guard_ring_resolution(solution: RingSolution):
    """A ring thinner than the angular node spacing starves the derivative stencils."""
    if solution.kind != "ring2d":
        return
    gap = getattr(solution.domain, "min_gap", None)
    if gap is not None and gap < solution.h:
        raise TooCoarse(
            f"radial gap {gap:.3g} is below the largest node spacing {solution.h:.3g}; "
            "refine the angular grid or widen the ring"
        )


def _gated_fields(solution: RingSolution) -> _Fields:
    """The field bundle, once the grid is fine enough for the theorem checks."""
    n_layers = solution.values.shape[0]
    if n_layers - 2 * INTERIOR_MARGIN_LAYERS < MIN_INTERIOR_LAYERS:
        raise TooCoarse(
            f"{n_layers} layers leave fewer than {MIN_INTERIOR_LAYERS} interior layers"
        )
    _guard_ring_resolution(solution)
    return solution_fields(solution)


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

    which is "min", "max" or "both"; for "both" the report, extrema and
    locations included, is the side with the worse margin (min on a tie).
    Tolerance is c_tol * h^2 with c_tol defaulting to 50 * max|psi|; tol_abs
    overrides it outright (used where a profile is known in closed form and
    discretization error does not scale with h^2).
    """
    if which not in ("min", "max", "both"):
        raise ValueError("which must be 'min', 'max' or 'both'")
    fields = _gated_fields(solution)
    fields.require_strict_convexity("a boundary-extremum claim")
    psi = fields.psi(spec)

    h = solution.h
    scale = float(np.max(np.abs(psi)))
    tol = (50.0 * scale if c_tol is None else c_tol) * h * h
    if tol_abs is not None:
        tol = tol_abs
    notes = list(fields.notes)

    def compare(pick):
        return (fields.extremum(psi, pick, fields.interior)
                + fields.extremum(psi, pick, fields.boundary))

    reports = {}
    if which in ("min", "both"):
        i_val, i_loc, b_val, b_loc = compare(np.argmin)
        reports["min"] = (i_val, i_loc, b_val, b_loc, i_val - b_val)
    if which in ("max", "both"):
        i_val, i_loc, b_val, b_loc = compare(np.argmax)
        reports["max"] = (i_val, i_loc, b_val, b_loc, b_val - i_val)

    if which == "both":
        for nm, r in reports.items():
            notes.append(f"{nm}-margin {r[4]:.3e}")
    # min() keeps the first of equal margins, and "min" is inserted first
    i_val, i_loc, b_val, b_loc, margin = min(reports.values(), key=lambda r: r[4])
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

def _require_semilinear_ring(solution: RingSolution, equation_text: str):
    """Delta u = f(u) on a convex ring with 0/1 data and a sampled-admissible f."""
    if solution.equation != "semilinear":
        raise HypothesisViolated(equation_text)
    outer, inner = solution.boundary_values()
    if not (float(np.max(np.abs(outer))) <= 1e-12
            and float(np.max(np.abs(inner - 1.0))) <= 1e-12):
        raise HypothesisViolated("boundary data must be 0 on the outer, 1 on the inner curve")
    if solution.kind == "ring2d":
        pts = solution.coords.reshape(-1, 2)
        box = np.stack([pts.min(axis=0), pts.max(axis=0)], axis=-1)
    else:
        box = np.array([[solution.a, solution.b]] * solution.n)
    flags = admissibility_check(solution.rhs, box)
    if not (flags.nonnegative and flags.f_u_nonneg and flags.f0_zero):
        raise HypothesisViolated(f"f fails the corollary hypotheses: {flags.as_dict()}")


def _corollary_inputs(fields: _Fields) -> tuple:
    """(min interior K, min boundary K, min outer |grad u|, max inner |grad u|)."""
    return (float(np.min(fields.k[fields.interior])), float(np.min(fields.k[fields.boundary])),
            float(np.min(fields.gnorm[fields.outer])), float(np.max(fields.gnorm[fields.inner])))


def corollary_bound_poisson(
    solution: RingSolution, rel_tol: float = 1e-3
) -> CorollaryBound:
    """min K >= (min_outer |grad u| / max_inner |grad u|)^2 * min_boundary K.

    Requires a semilinear solution of the convex-ring problem (0 outer /
    1 inner) whose f is sampled nonnegative, nondecreasing in u, with f(0)=0.
    """
    _require_semilinear_ring(solution, "the quadratic-ratio bound is for Delta u = f(u)")
    fields = _gated_fields(solution)
    fields.require_strict_convexity("the Poisson corollary bound")
    min_k_interior, min_k_boundary, grad_min_outer, grad_max_inner = _corollary_inputs(fields)
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
        notes=["flags sampled", *fields.notes],
    )


def corollary_bound_minimal(solution: RingSolution, tol: float = 1e-6) -> CorollaryBound:
    """Minimal-surface ring bound with the sqrt(1+|grad u|^2) factors (n >= 3)."""
    if solution.equation != "minimal":
        raise HypothesisViolated("minimal-surface bound needs a minimal solution")
    if solution.kind != "radial" or solution.n < 3:
        raise HypothesisViolated("the bound is stated for n >= 3 (radial rings here)")
    fields = _gated_fields(solution)
    fields.require_strict_convexity("the minimal corollary bound")
    min_k_interior, min_k_boundary, grad_min_outer, grad_max_inner = _corollary_inputs(fields)
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
        notes=list(fields.notes),
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
    maximum on the inner one.  Each of these three sub-margins has its own
    tolerance; the report carries the one with the least slack.
    """
    _require_semilinear_ring(solution, "gradient monotonicity is stated for Delta u = f(u)")
    fields = _gated_fields(solution)
    gnorm = fields.gnorm
    min_int, max_int = float(np.min(gnorm[fields.interior])), float(np.max(gnorm[fields.interior]))
    min_outer, max_inner = float(np.min(gnorm[fields.outer])), float(np.max(gnorm[fields.inner]))

    h = solution.h
    scale_d = float(np.max(np.abs(fields.deriv[fields.interior])))
    tol = (50.0 * scale_d if c_tol is None else c_tol) * h * h
    gtol = 50.0 * float(np.max(gnorm)) * h * h
    d_min, loc = fields.extremum(fields.deriv, np.argmin, fields.interior)
    # least slack margin + tolerance: pass <=> margin >= -tolerance <=> every
    # sub-margin holds, for any tolerance >= 0
    margin, tol = min([(d_min, tol), (min_int - min_outer, gtol), (max_inner - max_int, gtol)],
                      key=lambda sub: sub[0] + sub[1])
    notes = ["flags sampled", f"min directional derivative {d_min:.6g}",
             f"interior min|grad| {min_int:.6g} vs outer {min_outer:.6g}",
             f"interior max|grad| {max_int:.6g} vs inner {max_inner:.6g}"]
    return CheckReport(
        name="gradient-monotonicity",
        interior_extremum=d_min,
        interior_location=loc,
        boundary_extremum=min_outer,
        boundary_location=(),
        margin=float(margin),
        tolerance=float(tol),
        passed=bool(margin >= -tol),
        grid_h=h,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Laplace-Beltrami harmonicity of psi in 2D
# ---------------------------------------------------------------------------

def _discrete_lb_residual(solution: RingSolution, spec: TestFunctionSpec) -> float:
    """max |F^{ab} psi_ab| over the nodes with 1/4 <= s <= 3/4 of a minimal ring solution.

    u's jets come from the field bundle and psi's Hessian from the same grid
    stencils.  The band is one physical region on every grid, so a refinement
    order compares the same quantity throughout.
    """
    fields = _gated_fields(solution)
    fields.require_strict_convexity("psi harmonicity")
    ns = fields.node_shape[0]
    four_s = 4 * np.arange(ns)  # 4 s (n_s - 1) on each s-row, exact in integers
    band = (four_s >= ns - 1) & (four_s <= 3 * (ns - 1))
    grid = solution.grid  # the bundle's grid
    psi_hess = grid.physical_hessian(fields.psi(spec).reshape(fields.node_shape))[band]
    g = grid.physical_gradient(solution.values)[band]
    # F = (1 + |g|^2) I - g g^T
    lb = ((1.0 + np.sum(g * g, axis=-1)) * np.trace(psi_hess, axis1=-2, axis2=-1)
          - np.einsum("nta,ntab,ntb->nt", g, psi_hess, g))
    return float(np.max(np.abs(lb)))


def check_harmonic_psi_2d(source, points=None, tol: float = 1e-6) -> CheckReport:
    """psi = (t/(1+t))^(-1/2) k is Laplace-Beltrami harmonic on 2D minimal graphs.

    source may be a closed-form supplier (requires sample points; pass when
    the residual is below tol) or a list of >= 2 RingSolutions on refined
    grids.  A solution's residual is max |F^{ab} psi_ab| over the band
    1/4 <= s <= 3/4, from its stencil jets; the check passes when it decays
    at measured order >= 1.5.  Both paths enforce minimality: a non-minimal
    supplier jet raises NotAMinimalJet, a non-minimal solution
    HypothesisViolated.
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
    equations = sorted({s.equation for s in solutions} - {"minimal"})
    if equations:
        raise HypothesisViolated(
            f"psi harmonicity needs minimal graphs, got equation {', '.join(equations)}"
        )
    spec = TestFunctionSpec.minimal_theta(-0.5)
    residuals = [_discrete_lb_residual(s, spec) for s in solutions]
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

CONVERGENCE_PROBLEMS = ("laplace-annulus", "minimal-circles-catenoid", "sphere-curvature",
                        "constant")


def convergence_study(problem: str, grids: list) -> list[dict]:
    """Solve a closed-form-oracle problem over a grid family; tabulate (h, error, order).

    ``problem`` is one of CONVERGENCE_PROBLEMS.
    """
    if problem not in CONVERGENCE_PROBLEMS:
        raise ValueError(f"unknown convergence problem {problem!r}")
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
            # off concentric circles: there -r is linear in s and the stencils are exact
            dom = RingDomain2D(Ellipse(4.0, 3.2), Circle(2.0), n_s=ns, n_t=nt)
            grid = RingGrid(dom)
            r = np.linalg.norm(grid.x, axis=-1)
            sol = RingSolution(kind="ring2d", equation="minimal", values=-r,
                               residual_norm=0.0, h=grid.spacing(), domain=dom,
                               coords=grid.x, grid=grid)
            fields = solution_fields(sol)
            interior = fields.interior
            err = float(np.max(np.abs(fields.k[interior] - 1.0 / r.reshape(-1)[interior])))
            h = sol.h
        else:  # "constant"
            dom = RingDomain2D(Circle(2.0), Circle(1.0), n_s=ns, n_t=nt)
            sol = solve_minimal_ring2d(dom, np.full(nt, 0.7), np.full(nt, 0.7))
            err = float(np.max(np.abs(sol.values - 0.7)))
            h = sol.h
        rows.append({"h": h, "error": err, "order": None})
    for i in range(1, len(rows)):
        e0, e1 = rows[i - 1]["error"], rows[i]["error"]
        h0, h1 = rows[i - 1]["h"], rows[i]["h"]
        if e1 > 0 and e0 > 0 and h0 != h1:
            rows[i]["order"] = math.log(e0 / e1) / math.log(h0 / h1)
    return rows
