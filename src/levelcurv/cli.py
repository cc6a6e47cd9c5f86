"""Command-line runner: configuration in, deterministic JSON report out.

Exit codes: 0 all checks passed, 1 at least one check ran to completion and
failed (a genuine margin violation), 2 configuration error or numerical
failure (solver divergence, hypothesis violation, infeasible data).  The
distinction matters: exit 1 talks about the mathematics, exit 2 about the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .checks import (
    check_extremum_on_boundary,
    check_gradient_monotonicity,
    check_harmonic_psi_2d,
    convergence_study,
    corollary_bound_minimal,
    corollary_bound_poisson,
    report_entry,
    solution_fields,
)
from .config import COMMANDS, CONVERGENCE_PROBLEMS, RunConfig, apply_overrides, parse_config
from .errors import ConfigError, DidNotConverge, LevelCurvError
from .fields import RadialMinimalField, ScherkField
from .geometry import TestFunctionSpec
from .identities import (
    QuadraticBoundInstance,
    identity_residuals,
    lemma_quadratic_bound,
    minimal_master_identity_residual,
    quadratic_max_oracle,
    random_quadratic_instances,
)
from .polyfield import random_test_jets
from .radial import solve_minimal_radial, solve_semilinear_radial
from .report import emit_report
from .ring2d import MINIMAL, solve_family, solve_ring2d

# identity-suite thresholds (absolute residuals)
CODAZZI_TOL = 1e-9
PHI_GRAD_TOL = 1e-8
UIIA_TOL = 1e-9
MASTER_TOL = 1e-11
LEMMA32_SLACK = 1e-9
LEMMA32_EQUALITY = 1e-12
# jet-verify fields drawn and checked per batch (about 3.4 KB each)
JET_VERIFY_CHUNK = 1024


# ---------------------------------------------------------------------------
# problem solving
# ---------------------------------------------------------------------------

def solve_problem(cfg: RunConfig):
    """Solve the decoded problem on its own grid."""
    problem = cfg.problem
    geom = problem.geometry
    solver_tol = cfg.tolerances.get("solver_tol", 1e-10)

    if problem.u_ab is not None:
        u_a, u_b = problem.u_ab
        if problem.equation == MINIMAL:
            return solve_minimal_radial(geom.n, geom.a, geom.b, u_a, u_b, samples=geom.samples)
        return solve_semilinear_radial(geom.n, geom.a, geom.b, u_a, u_b, problem.equation.rhs,
                                       samples=geom.samples, tol=solver_tol)

    domain, outer, inner = problem.rings[geom.n_s, geom.n_t]
    return solve_ring2d(domain, outer, inner, problem.equation, tol=solver_tol)


def _solver_meta(sol) -> dict:
    """Solver summary; a ring2d run adds its tolerances and per-iteration linear solves."""
    return {
        "kind": sol.kind,
        "equation": sol.equation.name,
        "iterations": sol.iterations,
        "residual_norm": sol.residual_norm,
        "h": sol.h,
        "max_principle_violation": sol.max_principle_violation(),
        **sol.meta,
    }


# ---------------------------------------------------------------------------
# per-command pipelines
# ---------------------------------------------------------------------------

def _run_solve(cfg: RunConfig):
    sol = solve_problem(cfg)
    return [], {"solver": _solver_meta(sol)}, {"solution": sol}


def _run_curvature(cfg: RunConfig):
    sol = solve_problem(cfg)
    fields = solution_fields(sol)
    details = {
        "solver": _solver_meta(sol),
        "curvature": {
            "K_min": float(np.min(fields.k)),
            "K_max": float(np.max(fields.k)),
            "grad_min": float(np.min(fields.gnorm)),
            "grad_max": float(np.max(fields.gnorm)),
            "notes": list(fields.notes),
        },
    }
    if cfg.spec is not None:
        psi = fields.psi(cfg.spec)
        details["curvature"]["psi_min"] = float(np.min(psi))
        details["curvature"]["psi_max"] = float(np.max(psi))
    return [], details, {"solution": sol}


def _run_check_theorem(cfg: RunConfig):
    c_tol = cfg.tolerances.get("c_tol")
    tol_abs = cfg.tolerances.get("tol_abs")
    checks = []
    sol = None
    meta = {}
    for name in cfg.checks:
        if name == "harmonic-psi":
            family = solve_family([cfg.problem.rings[g] for g in cfg.grids], cfg.problem.equation,
                                  cfg.tolerances.get("solver_tol", 1e-10))
            checks.append(check_harmonic_psi_2d(family))
            meta["solvers"] = [_solver_meta(s) for s in family]
            continue
        if sol is None:
            sol = solve_problem(cfg)
        if name == "gradient-monotonicity":
            checks.append(check_gradient_monotonicity(sol, c_tol=c_tol))
        elif tol_abs is not None:
            checks.append(check_extremum_on_boundary(sol, cfg.spec, which=name, tol_abs=tol_abs))
        else:
            checks.append(check_extremum_on_boundary(sol, cfg.spec, which=name, c_tol=c_tol))
    if sol is None:  # harmonic-psi alone
        return checks, meta, {}
    return checks, {**meta, "solver": _solver_meta(sol)}, {"solution": sol}


def _run_check_corollary(cfg: RunConfig):
    tols = cfg.tolerances
    sol = solve_problem(cfg)
    if cfg.problem.equation == MINIMAL:
        entry = corollary_bound_minimal(sol, tol=tols.get("tol_abs", 1e-6))
    else:
        entry = corollary_bound_poisson(sol, rel_tol=tols.get("corollary_rel", 1e-3))
    return [entry], {"solver": _solver_meta(sol)}, {"solution": sol}


def _worst_identity_residuals(first_seed: int, n_fields: int, n: int, spec) -> tuple:
    """Worst Codazzi, u_iia and phi-gradient residuals, the seed of each, and
    the admissible count.

    A worst seed is the lowest seed among the fields with the largest
    residual (a NaN residual counts as the largest).  The fields are drawn
    and checked JET_VERIFY_CHUNK seeds at a time, so memory stays bounded
    however many fields a run asks for.  A field's residuals do not depend on
    the batch it is in, so neither does the result.
    """
    worst = [-math.inf] * 3
    worst_seed = [first_seed] * 3
    admissible = 0
    stop = first_seed + n_fields
    for start in range(first_seed, stop, JET_VERIFY_CHUNK):
        seeds = range(start, min(start + JET_VERIFY_CHUNK, stop))
        res = identity_residuals(random_test_jets(seeds, n).jets, spec)
        for k, residuals in enumerate((res.codazzi, res.uiia, res.phi)):
            i = int(np.argmax(residuals))  # the first NaN, else the first maximum
            r = float(residuals[i])
            if r > worst[k] or math.isnan(r) and not math.isnan(worst[k]):
                worst[k], worst_seed[k] = r, start + i
        admissible += int(np.count_nonzero(res.admissible))
    return worst, worst_seed, admissible


def _run_jet_verify(cfg: RunConfig):
    n_fields = cfg.options["fields"]
    checks = []
    spec = TestFunctionSpec.minimal_theta(-0.5)
    for n in cfg.options["dims"]:
        worst, worst_seed, admissible = _worst_identity_residuals(cfg.seed, n_fields, n, spec)
        for kind, residual, seed, tol, fields in zip(
                ("codazzi", "uiia", "phi-gradient"), worst, worst_seed,
                (CODAZZI_TOL, UIIA_TOL, PHI_GRAD_TOL), (n_fields, n_fields, admissible)):
            checks.append(report_entry(
                f"{kind}:n={n}", -residual, tol, residual < tol,
                residual=residual, fields=fields, worst_seed=seed))

    # master identity on the closed-form suppliers
    for name, supplier, point, theta in (
            ("master:catenoid-2d", RadialMinimalField(2, flux=-1.0), [1.8, 2.4], -0.5),
            ("master:scherk-2d", ScherkField(), [0.4, 0.9], -0.5),
            ("master:radial-3d", RadialMinimalField(3, flux=-1.0), [0.0, 0.0, 3.0], 0.0)):
        res = minimal_master_identity_residual(supplier, np.array(point), theta)
        checks.append(report_entry(name, -res, MASTER_TOL, res < MASTER_TOL, residual=res))
    return checks, {}, {}


def _run_lemma32(cfg: RunConfig):
    instances = cfg.options["instances"]
    worst = max(
        np.max(quadratic_max_oracle(inst) - lemma_quadratic_bound(inst).bound)
        for inst in random_quadratic_instances(np.random.default_rng(cfg.seed), instances)
    )
    checks = [report_entry("lemma32:random-suite", -worst, LEMMA32_SLACK,
                           worst <= LEMMA32_SLACK, excess=float(worst), instances=instances)]
    worked = QuadraticBoundInstance([0.0, 1.0], [1.0, 1.0], [[1.0], [1.0]], [[1.0], [1.0]])
    res = lemma_quadratic_bound(worked)
    gaps = np.abs(quadratic_max_oracle(worked) - res.bound)
    for name, gap, gamma, bound in zip(("lemma32:worked-free", "lemma32:worked-coupled"),
                                       gaps, res.gamma, res.bound):
        checks.append(report_entry(name, -gap, LEMMA32_EQUALITY, gap <= LEMMA32_EQUALITY,
                                   gamma=float(gamma), bound=float(bound)))
    return checks, {}, {}


def _run_convergence(cfg: RunConfig):
    problem = cfg.options["problem"]
    oracle = CONVERGENCE_PROBLEMS[problem]
    rows = convergence_study(oracle, cfg.grids)
    # an exact oracle (no min_order) fails any nonzero error; 0.0 - keeps a zero margin +0.0
    margin = (0.0 - max(r["error"] for r in rows) if oracle.min_order is None
              else min(r["order"] for r in rows[1:]) - oracle.min_order)
    entry = report_entry(f"convergence:{problem}", margin, 0.0, margin >= 0.0,
                         min_order=oracle.min_order)
    return [entry], {"convergence": {"problem": problem, "rows": rows}}, {}


_PIPELINES = {
    "solve": _run_solve,
    "curvature": _run_curvature,
    "check-theorem": _run_check_theorem,
    "check-corollary": _run_check_corollary,
    "jet-verify": _run_jet_verify,
    "lemma32": _run_lemma32,
    "convergence": _run_convergence,
}


def run(cfg: RunConfig) -> tuple[dict, dict]:
    """Execute a validated config; returns (report, solutions)."""
    report: dict = {"config": cfg.echo()}
    try:
        checks, details, solutions = _PIPELINES[cfg.command](cfg)
    except LevelCurvError as exc:
        report["checks"] = []
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, DidNotConverge):
            report["error"]["iterations"] = exc.iterations
            report["error"]["residual"] = exc.residual if math.isfinite(exc.residual) else None
        report["verdict"] = "NumericalFailure"
        return report, {}
    report["checks"] = checks
    report.update(details)
    failed = [c for c in checks if not c.get("pass", True)]
    report["verdict"] = "Violation" if failed else "AllPass"
    return report, solutions


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _parse_grid(text: str):
    try:
        ns, nt = text.lower().split("x")
        return [int(ns), int(nt)]
    except ValueError as exc:
        raise ConfigError(f"--grid expects NsxNt, got {text!r}") from exc


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelcurv",
        description="Gaussian curvature of convex level sets: solvers and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path prefix for JSON/CSV artifacts")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--grid", help="NsxNt grid override")
        p.add_argument("--tol", type=float, help="check tolerance coefficient override (c_tol)")
        p.add_argument("--quiet", action="store_true", help="suppress console lines")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        raw = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        grid = _parse_grid(args.grid) if args.grid is not None else None
        cfg = parse_config(apply_overrides(raw, args.command, seed=args.seed, output=args.out,
                                           grid=grid, c_tol=args.tol))
    except (ConfigError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    report, solutions = run(cfg)
    wall = time.perf_counter() - t0

    if not args.quiet:
        for check in report.get("checks", []):
            status = "PASS" if check.get("pass", True) else "FAIL"
            margin = check.get("margin")
            detail = f" margin={margin:.3e}" if isinstance(margin, float) else ""
            print(f"{status} {check['name']}{detail}")
        if "error" in report:
            print(f"ERROR {report['error']['type']}: {report['error']['message']}")
        print(f"verdict: {report['verdict']} ({wall:.2f}s)")

    if cfg.output:
        try:
            paths = emit_report(report, cfg.output, solutions=solutions)
        except (OSError, TypeError, ValueError) as exc:  # unwritable path or unrenderable value
            print(f"output error: {exc}", file=sys.stderr)
            return 2
        if not args.quiet:
            for p in paths:
                print(f"wrote {p}")

    if report["verdict"] == "AllPass":
        return 0
    if report["verdict"] == "Violation":
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
