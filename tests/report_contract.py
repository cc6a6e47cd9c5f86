"""The contract every levelcurv JSON report holds; exits nonzero on the first breach.

Usage: python tests/report_contract.py REPORT.json

- Every entry of the checks list has a str name, a finite float margin and
  tolerance, and a bool pass equal to margin >= -tolerance.
- Every ring2d solve the report records (its solver block and each solvers
  entry) records no linear_solver, since GMRES is the only linear solver, and
  a Krylov count per iteration that is an integer in [0, 1000], the GMRES step
  cap.
- Every solver block that records a tol_used has tol <= tol_used and stopped
  at residual_norm <= tol_used.
- Every solver block with phases records one phase, residual norm and step
  length per iteration (a ring2d block also one Krylov count), and its last
  residual norm is its residual_norm, so a dropped or doubled append in
  solution._damped_newton fails here.
- Every solver block names, as a string, the equation and the geometry kind
  its config's problem block asked for.
- Every ring2d block whose start is a grid (a warm or nested start) has no
  picard phase, and one that records coarse_failed (the quarter grid whose
  solve failed before a cold solve fell back to the blend) has start "blend".
- The solver block and the first of a solvers list are cold solves, so a grid
  start or a coarse_failed there is their quarter grid
  [(n_s + 3) // 4 + 1, n_t // 4].  A cold ring2d block records
  coarse_iterations, a nonnegative int, exactly when it tried that grid (its
  start is that grid, or it records coarse_failed).
- In a solvers list every solve after the first is warm-started from the grid
  before it (its start is that [n_s, n_t], so by the rule above it runs no
  Picard step, and it tries no quarter grid), so a silent fallback to cold
  solves fails here.
- A convergence report has exactly one convergence:<problem> check, and its
  margin is the one its rows give: the least order minus its min_order, or
  minus the largest error where min_order is null.
- A jet-verify report has a codazzi, uiia and phi-gradient check for every
  dimension it ran.  Every phi-gradient check ran on at least one field, and
  in 2D, where every nondegenerate jet is strictly convex once oriented, on
  as many fields as the Codazzi check, so a dropped orientation sign (about
  half admissible) fails.
- Every master identity residual is below 1e-13, the level README states for
  the shipped points (the gate MASTER_TOL is 1e-11).
- Every codazzi, uiia and phi-gradient:n=2 residual is below 1e-12 (the gates
  are 1e-9 and 1e-8; phi-gradient:n=3 keeps only its gate, since one barely
  convex field of the shipped seed reads 2.5e-9), and each of those checks
  names as worst_seed an int seed of the run.

The file name does not start with ``test_``, so pytest does not collect it.
"""

import json
import math
import sys


def check_report(report: dict):
    for c in report["checks"]:
        assert type(c["name"]) is str, c
        assert all(type(c[k]) is float and math.isfinite(c[k]) for k in ("margin", "tolerance")), c
        assert type(c["pass"]) is bool and c["pass"] == (c["margin"] >= -c["tolerance"]), c

    solvers = report.get("solvers", [])
    blocks = ([report["solver"]] if "solver" in report else []) + solvers
    problem = report["config"].get("problem")
    for s in blocks:
        if s["kind"] == "ring2d":
            assert "linear_solver" not in s, s["linear_solver"]
            assert all(type(k) is int and 0 <= k <= 1000 for k in s["krylov_iterations"]), s
            assert s["start"] == "blend" or "picard" not in s["phases"], s
            assert "coarse_failed" not in s or s["start"] == "blend", s
        assert "tol_used" not in s or s["tol"] <= s["tol_used"] and s["residual_norm"] <= s["tol_used"], s
        if "phases" in s:
            n = s["iterations"]
            assert len(s["phases"]) == len(s["residual_norms"]) == len(s["step_lengths"]) == n, s
            assert s["kind"] != "ring2d" or len(s["krylov_iterations"]) == n, s
            assert n == 0 or s["residual_norms"][-1] == s["residual_norm"], s
        assert type(s["equation"]) is str and s["equation"] == problem["equation"], (s, problem)
        assert s["kind"] == problem["geometry"]["kind"], (s["kind"], problem)
    cold = ([report["solver"]] if "solver" in report else []) + solvers[:1]
    for s in cold:
        if s["kind"] == "ring2d":
            n_s, n_t = s["grid"]
            quarter = [(n_s + 3) // 4 + 1, n_t // 4]
            assert s["start"] in ("blend", quarter) and s.get("coarse_failed", quarter) == quarter, s
            tried = s["start"] != "blend" or "coarse_failed" in s
            assert ("coarse_iterations" in s) == tried, s
            assert not tried or type(s["coarse_iterations"]) is int and s["coarse_iterations"] >= 0, s
    for before, s in zip(solvers, solvers[1:]):
        assert s["start"] == before["grid"], (s["start"], before["grid"])
        assert "coarse_iterations" not in s and "coarse_failed" not in s, s

    convergence = [c for c in report["checks"] if c["name"].startswith("convergence:")]
    if "convergence" in report:
        assert len(convergence) == 1, convergence
        entry = convergence[0]
        rows = report["convergence"]["rows"]
        assert entry["name"] == "convergence:" + report["convergence"]["problem"], entry
        if entry["min_order"] is None:
            expected = 0.0 - max(r["error"] for r in rows)
        else:
            expected = min(r["order"] for r in rows[1:]) - entry["min_order"]
        assert entry["margin"] == expected and entry["tolerance"] == 0.0, (entry, expected)
    else:
        assert convergence == [], convergence

    checks = {c["name"]: c for c in report["checks"]}
    for name, c in checks.items():
        assert not name.startswith("phi-gradient:") or c["fields"] >= 1, c
        assert not name.startswith("master:") or c["residual"] < 1e-13, c
        if name.startswith(("codazzi:", "uiia:")) or name == "phi-gradient:n=2":
            assert c["residual"] < 1e-12, c
        if name.startswith(("codazzi:", "uiia:", "phi-gradient:")):
            seed, fields = report["config"]["seed"], report["config"]["options"]["fields"]
            assert type(c["worst_seed"]) is int and seed <= c["worst_seed"] < seed + fields, c
    if report["config"]["command"] == "jet-verify":
        dims = report["config"].get("options", {}).get("dims", [2, 3])  # the default dims
        for n in dims:
            for kind in ("codazzi", "uiia", "phi-gradient"):
                assert f"{kind}:n={n}" in checks, (kind, n)
        if 2 in dims:
            assert checks["phi-gradient:n=2"]["fields"] == checks["codazzi:n=2"]["fields"], checks


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        check_report(json.load(fh))
