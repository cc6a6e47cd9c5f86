import copy
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levelcurv.checks as checks
import levelcurv.cli as cli
import levelcurv.identities as identities
import levelcurv.report as report_module
from levelcurv import ring2d
from levelcurv.cli import main, run
from levelcurv.config import parse_config
from levelcurv.errors import ConfigError
from levelcurv.identities import identity_residuals
from levelcurv.polyfield import random_test_jets
from levelcurv.report import _csv_blocks, emit_report, render_json


def minimal_ring_config(**overrides):
    cfg = {
        "command": "check-theorem",
        "problem": {
            "equation": "minimal",
            "geometry": {
                "kind": "ring2d",
                "outer": {"kind": "circle", "radius": 4.0},
                "inner": {"kind": "circle", "radius": 2.0},
                "grid": [17, 32],
            },
            "boundary": {"outer": "catenoid", "inner": "catenoid"},
        },
        "spec": {"kind": "minimal-theta", "theta": -0.5},
        "checks": ["min"],
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def radial_config(command="solve", **geometry):
    return {
        "command": command,
        "problem": {
            "equation": "minimal",
            "geometry": {"kind": "radial", "n": 3, "a": 2.0, "b": 4.0, **geometry},
            "boundary": {"outer": "catenoid", "inner": "constant:0"},
        },
    }


def _without(cfg, *path):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return cfg


def _ring_with(**problem):
    cfg = minimal_ring_config()
    cfg["problem"].update(problem)
    return cfg


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# each must exit 2 as a config error, never escape main as an exception that
# exits 1 and reads as a counterexample
CONFIG_ERRORS = [
    pytest.param(_without(radial_config(), "problem", "geometry", "n"), id="radial-without-n"),
    pytest.param(_ring_with(geometry={"kind": "ring2d", "outer": {"kind": "circle", "radius": 4.0},
                                      "inner": {"kind": "circle"}, "grid": [17, 32]}),
                 id="circle-without-radius"),
    pytest.param({"command": "jet-verify", "options": {"fields": "many"}}, id="fields-not-integer"),
    pytest.param({"command": "jet-verify", "options": {"dims": [1]}}, id="dims-out-of-range"),
    pytest.param({"command": "convergence", "grids": [[17, 32]], "options": {"problem": "nope"}},
                 id="unknown-convergence-problem"),
    pytest.param(_ring_with(geometry={"kind": "ring2d", "outer": {"kind": "circle", "radius": 4.0},
                                      "inner": {"kind": "circle", "radius": 2.0}, "grid": [17, 16]},
                            boundary={"outer": {"samples": [0.0, 0.0]}, "inner": "constant:1"}),
                 id="samples-length"),
    pytest.param(_ring_with(geometry={"kind": "ring2d", "outer": {"kind": "circle", "radius": 4.0},
                                      "inner": {"kind": "circle", "radius": 5.0}, "grid": [17, 32]},
                            boundary={"outer": "constant:0", "inner": "constant:1"}),
                 id="inner-outside-outer"),
    pytest.param(_without(minimal_ring_config(), "spec"), id="extremum-without-spec"),
    pytest.param({"command": "convergence", "grids": [[2, 16]]}, id="convergence-grid-too-small"),
    pytest.param(minimal_ring_config(checks=["harmonic-psi"]), id="harmonic-psi-without-grids"),
    pytest.param({**radial_config("check-theorem"), "checks": ["harmonic-psi"],
                  "grids": [[17, 32], [33, 64]]}, id="harmonic-psi-radial"),
    pytest.param(radial_config(b=1e308), id="radial-catenoid-overflow"),
    pytest.param({"command": "lemma32", "options": {"dims": [4], "problem": "constant"}},
                 id="lemma32-unread-options"),
    pytest.param({**radial_config("solve"), "options": {"fields": 3}}, id="solve-unread-option"),
]


def _shipped(name):
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


class TestConfigValidation:
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_configs_parse(self, path):
        raw = json.loads(path.read_text())
        assert parse_config(raw).command == raw["command"]

    def test_theta_option_rejected(self):
        with pytest.raises(ConfigError, match="theta"):
            parse_config({"command": "jet-verify", "options": {"theta": 0.5}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="thetta"):
            parse_config({"command": "lemma32", "thetta": 1})

    def test_unknown_nested_key(self):
        cfg = minimal_ring_config()
        cfg["problem"]["geometry"]["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            parse_config(cfg)

    def test_nonfinite_rejected(self):
        cfg = minimal_ring_config()
        cfg["spec"]["theta"] = float("inf")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_bad_command(self):
        with pytest.raises(ConfigError):
            parse_config({"command": "frobnicate"})

    def test_bad_check_name(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_ring_config(checks=["minimum"]))

    def test_rhs_on_minimal_rejected(self):
        cfg = minimal_ring_config()
        cfg["problem"]["rhs"] = {"name": "zero"}
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_radial_geometry(self):
        cfg = {
            "command": "solve",
            "problem": {
                "equation": "minimal",
                "geometry": {"kind": "radial", "n": 3, "a": 2.0, "b": 4.0, "samples": 101},
                "boundary": {"outer": "constant:0", "inner": "constant:1"},
            },
        }
        assert parse_config(cfg).problem.geometry.n == 3

    def test_boundary_samples_shape_checked_at_parse(self):
        cfg = minimal_ring_config()
        cfg["problem"]["boundary"] = {
            "outer": {"samples": [0.0] * 10},  # wrong length for nt=32
            "inner": "constant:1",
        }
        with pytest.raises(ConfigError):
            parse_config(cfg)


class TestRunVerdicts:
    def test_all_pass(self):
        report, _ = run(parse_config(minimal_ring_config()))
        assert report["verdict"] == "AllPass"
        assert report["checks"][0]["pass"] is True
        assert report["solver"]["max_principle_violation"] <= 1e-12

    def test_solver_block_records_linear_solves(self):
        cfg = parse_config(minimal_ring_config())
        report, _ = run(cfg)
        solver = report["solver"]
        assert solver["tol"] == 1e-10
        assert solver["tol_used"] >= solver["tol"]
        assert solver["residual_norm"] <= solver["tol_used"]
        assert solver["iterations"] > 0
        assert solver["linear_solver"] == ["gmres"] * solver["iterations"]
        assert len(solver["krylov_iterations"]) == solver["iterations"]
        self._assert_trace(solver)
        assert solver["start"] == "blend"
        assert solver["phases"][0] == "picard"
        assert render_json(run(cfg)[0]) == render_json(report)

    def test_harmonic_psi_report_records_every_grid_solve(self, tmp_path):
        path = CONFIG_DIR / "psi-harmonicity.json"
        out = tmp_path / "psi"
        assert main(["check-theorem", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        report = json.loads((tmp_path / "psi.json").read_text())
        assert "solver" not in report
        solvers = report["solvers"]
        grids = _shipped("psi-harmonicity")["grids"]
        assert [s["grid"] for s in solvers] == grids
        for solver in solvers:
            assert solver["kind"] == "ring2d" and solver["equation"] == "minimal"
            assert solver["linear_solver"] == ["gmres"] * solver["iterations"]
            assert len(solver["krylov_iterations"]) == solver["iterations"]
            self._assert_trace(solver)
        # each grid after the first continues Newton from the previous grid's solution
        assert [s["start"] for s in solvers] == ["blend", *grids[:-1]]
        assert solvers[0]["phases"][:5] == ["picard"] * 5
        assert all(set(s["phases"]) == {"newton"} for s in solvers[1:])

    @staticmethod
    def _assert_trace(solver):
        # per iteration: phase, residual norm after the step and accepted step length
        for key in ("phases", "residual_norms", "step_lengths"):
            assert len(solver[key]) == solver["iterations"]
        assert set(solver["phases"]) <= {"picard", "newton"}
        assert solver["residual_norms"][-1] == solver["residual_norm"]
        assert all(0.0 < step <= 1.0 for step in solver["step_lengths"])

    def test_radial_solver_block_records_raised_tolerance(self):
        cfg = {
            "command": "solve",
            "problem": {
                "equation": "semilinear",
                "geometry": {"kind": "radial", "n": 2, "a": 1.0, "b": 2.0, "samples": 4001},
                "boundary": {"outer": "constant:0", "inner": "constant:1"},
                "rhs": {"name": "linear-u", "scale": 1.0},
            },
            "tolerances": {"solver_tol": 1e-14},
        }
        solver = run(parse_config(cfg))[0]["solver"]
        # 1e-14 is below the rounding floor of the 4001-sample operator
        assert solver["tol"] == 1e-14
        assert solver["tol_used"] > solver["tol"]
        assert solver["residual_norm"] <= solver["tol_used"]
        self._assert_trace(solver)
        assert solver["iterations"] > 0 and set(solver["phases"]) == {"newton"}
        assert render_json(run(parse_config(cfg))[0]["solver"]) == render_json(solver)

    def test_radial_minimal_solver_block_records_bisection(self):
        cfg = parse_config(radial_config())
        report, solutions = run(cfg)
        solver, flux = report["solver"], solutions["solution"].flux
        lo, hi = solver["flux_bracket"]
        # the bisection stops when the bracket is 1e-16 of a^(n-1) = 4 wide or its ends are adjacent
        assert 0 < solver["bisections"] <= 200
        assert 0.0 < lo < hi <= lo + 4e-16 and lo <= abs(flux) <= hi
        assert render_json(run(cfg)[0]["solver"]) == render_json(solver)
        flat = radial_config()
        flat["problem"]["boundary"]["outer"] = "constant:0"
        solver = run(parse_config(flat))[0]["solver"]
        assert solver["bisections"] == 0 and solver["flux_bracket"] == [0.0, 0.0]

    def test_stall_keeps_iterations_and_residual(self, monkeypatch):
        monkeypatch.setattr(cli, "solve_minimal_ring2d",
                            functools.partial(ring2d.solve_minimal_ring2d, max_iter=2))
        cfg = minimal_ring_config()
        cfg["problem"]["boundary"] = {"outer": "constant:0", "inner": "constant:1"}
        report, _ = run(parse_config(cfg))
        assert report["verdict"] == "NumericalFailure"
        error = report["error"]
        assert error["type"] == "DidNotConverge"
        # the cap counts every step, the Picard warm start included
        assert error["iterations"] == 2
        assert error["residual"] > 1e-10
        assert f"{error['residual']:.3e}" in error["message"]
        assert json.loads(render_json(report))["error"] == error

    def test_numerical_failure_no_solution(self):
        cfg = {
            "command": "solve",
            "problem": {
                "equation": "minimal",
                "geometry": {"kind": "radial", "n": 3, "a": 1.0, "b": 8.0, "samples": 101},
                "boundary": {"outer": "constant:100", "inner": "constant:0"},
            },
        }
        report, _ = run(parse_config(cfg))
        assert report["verdict"] == "NumericalFailure"
        assert report["error"]["type"] == "NoSolution"

    def test_hypothesis_violation_is_numerical_failure(self):
        # corollary with inadmissible boundary data: check never completes
        cfg = {
            "command": "check-corollary",
            "problem": {
                "equation": "semilinear",
                "geometry": {
                    "kind": "ring2d",
                    "outer": {"kind": "circle", "radius": 2.0},
                    "inner": {"kind": "circle", "radius": 1.0},
                    "grid": [17, 32],
                },
                "boundary": {"outer": "constant:0.5", "inner": "constant:1"},
                "rhs": {"name": "zero"},
            },
        }
        report, _ = run(parse_config(cfg))
        assert report["verdict"] == "NumericalFailure"
        assert report["error"]["type"] == "HypothesisViolated"

    def test_min_and_max_share_one_fit(self, monkeypatch):
        builds = []
        real_build = checks._build_fields

        def counting_build(solution):
            builds.append(solution.values.shape)
            return real_build(solution)

        monkeypatch.setattr(checks, "_build_fields", counting_build)
        cfg = parse_config(minimal_ring_config(checks=["min", "max"]))
        report, _ = run(cfg)
        assert report["verdict"] == "AllPass"
        assert builds == [(17, 32)]
        run(cfg)  # a new run solves anew and builds anew: nothing carries over
        assert builds == [(17, 32)] * 2

        builds.clear()
        cfg = parse_config({
            "command": "check-theorem",
            "problem": {
                "equation": "semilinear",
                "geometry": {
                    "kind": "ring2d",
                    "outer": {"kind": "circle", "radius": 2.0},
                    "inner": {"kind": "circle", "radius": 1.0},
                    "grid": [17, 32],
                },
                "boundary": {"outer": "constant:0", "inner": "constant:1"},
                "rhs": {"name": "linear-u", "scale": 1.0},
            },
            "spec": {"kind": "poisson-power", "power": -2.0},
            "checks": ["min", "gradient-monotonicity"],
        })
        report, _ = run(cfg)
        assert report["verdict"] == "AllPass"
        assert [c["name"] for c in report["checks"]][1] == "gradient-monotonicity"
        assert builds == [(17, 32)]
        run(cfg)
        assert builds == [(17, 32)] * 2

    def test_jet_verify_suite(self):
        cfg = parse_config({"command": "jet-verify", "seed": 0,
                            "options": {"fields": 5, "dims": [2]}})
        report, _ = run(cfg)
        assert report["verdict"] == "AllPass"
        names = {c["name"] for c in report["checks"]}
        assert {"codazzi:n=2", "uiia:n=2", "phi-gradient:n=2",
                "master:catenoid-2d", "master:scherk-2d", "master:radial-3d"} <= names

    def test_jet_verify_reads_one_origin_jet_per_field(self, monkeypatch):
        batches = []

        def recording_jets(seeds, n):
            batch = random_test_jets(seeds, n)
            batches.append(batch)
            return batch

        checked = []

        def recording_residuals(jet, spec):
            checked.append(jet)
            return identity_residuals(jet, spec)

        monkeypatch.setattr(cli, "random_test_jets", recording_jets)
        monkeypatch.setattr(cli, "identity_residuals", recording_residuals)
        fields = 4
        report, _ = run(parse_config({"command": "jet-verify", "seed": 0,
                                      "options": {"fields": fields, "dims": [2, 3]}}))
        assert report["verdict"] == "AllPass"
        # one order-3 origin jet per field and dimension, each checked once
        assert [b.n for b in batches] == [2, 3]
        assert [c is b.jets for c, b in zip(checked, batches)] == [True, True]
        for batch in batches:
            assert batch.jets.grad.shape == (fields, batch.n)
            origin = np.zeros(batch.n)
            for k in range(fields):
                want = random_test_jets([k], batch.n).field(0).jet(origin, 3)
                for got, ref in zip((batch.jets.grad, batch.jets.hess, batch.jets.third),
                                    (want.grad, want.hess, want.third)):
                    assert got[k].tobytes() == ref.tobytes()

    def test_jet_verify_seeding_passes_do_not_grow_with_fields(self, monkeypatch):
        dims = [2, 3]
        passes = []
        real_seeded = identities._seeded

        def counting_seeded(jet):
            passes.append(jet.dim)
            return real_seeded(jet)

        monkeypatch.setattr(identities, "_seeded", counting_seeded)
        counts = []
        for fields in (3, 12):
            passes.clear()
            run(parse_config({"command": "jet-verify", "seed": 0,
                              "options": {"fields": fields, "dims": dims}}))
            counts.append(len(passes))
        # one pass on the aligned batch and one on the convex-oriented batch
        assert counts[0] == counts[1] <= sum(2 * n for n in dims)

    def test_jet_verify_chunks_match_one_batch(self, monkeypatch):
        cfg = {"command": "jet-verify", "seed": 3, "options": {"fields": 30, "dims": [2, 3]}}
        whole, _ = run(parse_config(cfg))
        batch_sizes = []

        def recording_jets(seeds, n):
            batch_sizes.append(len(seeds))
            return random_test_jets(seeds, n)

        monkeypatch.setattr(cli, "JET_VERIFY_CHUNK", 7)
        monkeypatch.setattr(cli, "random_test_jets", recording_jets)
        chunked, _ = run(parse_config(cfg))
        assert batch_sizes == [7, 7, 7, 7, 2] * 2
        assert render_json(chunked) == render_json(whole)

    def test_lemma32(self):
        report, _ = run(parse_config({"command": "lemma32", "seed": 1,
                                      "options": {"instances": 20}}))
        assert report["verdict"] == "AllPass"

    def test_convergence(self):
        cfg = parse_config({"command": "convergence", "grids": [[17, 32], [33, 64]],
                            "options": {"problem": "laplace-annulus"}})
        report, _ = run(cfg)
        assert report["verdict"] == "AllPass"
        rows = report["convergence"]["rows"]
        assert rows[1]["order"] > 1.8


def _parse_csv(lines):
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def _reference_csv(sol):
    """The CSV export formatted one node at a time, every float with "%.17g"."""
    if sol.kind == "radial":
        header, columns = "r,u,u_prime", [sol.r, sol.values, sol.u_prime]
    else:
        ns, nt = sol.values.shape
        s, t = np.meshgrid(np.linspace(0.0, 1.0, ns), np.arange(nt) * (2.0 * math.pi / nt),
                           indexing="ij")
        header = "s,t,x1,x2,u"
        columns = [s, t, sol.coords[..., 0], sol.coords[..., 1], sol.values]
    rows = zip(*(np.ravel(c).tolist() for c in columns))
    return "\n".join([header] + [",".join("%.17g" % v for v in row) for row in rows]) + "\n"


def _curvature_config(geometry, spec=None):
    cfg = {
        "command": "curvature",
        "problem": {
            "equation": "semilinear",
            "geometry": geometry,
            "boundary": {"outer": "constant:0", "inner": "constant:1"},
            "rhs": {"name": "zero"},
        },
    }
    if spec is not None:
        cfg["spec"] = spec
    return parse_config(cfg)


class TestCurvatureCommand:
    # u = log(2/r)/log 2 on the annulus 1 < r < 2: level circles, K = 1/r in [1/2, 1]
    RING = {"kind": "ring2d", "outer": {"kind": "circle", "radius": 2.0},
            "inner": {"kind": "circle", "radius": 1.0}, "grid": [33, 64]}
    RADIAL = {"kind": "radial", "n": 2, "a": 1.0, "b": 2.0, "samples": 101}
    SPEC = {"kind": "poisson-power", "power": -2.0}

    @pytest.mark.parametrize("geometry, rel", [(RING, 0.03), (RADIAL, 1e-12)])
    def test_harmonic_annulus_curvature(self, geometry, rel):
        report, solutions = run(_curvature_config(geometry))
        assert report["verdict"] == "AllPass"
        assert report["checks"] == []
        curv = report["curvature"]
        assert curv["K_min"] == pytest.approx(0.5, rel=rel)
        assert curv["K_max"] == pytest.approx(1.0, rel=rel)
        # |grad u| = 1/(r log 2) in [1/(2 log 2), 1/log 2]
        assert curv["grad_min"] == pytest.approx(0.5 / math.log(2.0), rel=0.01)
        assert curv["grad_max"] == pytest.approx(1.0 / math.log(2.0), rel=0.01)
        assert curv["notes"] == []
        assert "psi_min" not in curv and "psi_max" not in curv
        assert "solution" in solutions

    def test_four_row_grid_too_close_to_boundary(self):
        # the one-sided Hessian rows need five s-layers
        report, _ = run(_curvature_config({**self.RING, "grid": [4, 16]}))
        assert report["verdict"] == "NumericalFailure"
        assert report["error"]["type"] == "TooCloseToBoundary"

    @pytest.mark.parametrize("geometry", [RING, RADIAL])
    def test_psi_only_with_spec(self, geometry):
        report, _ = run(_curvature_config(geometry, spec=self.SPEC))
        assert report["verdict"] == "AllPass"
        curv = report["curvature"]
        assert 0.0 < curv["psi_min"] < curv["psi_max"]
        plain, _ = run(_curvature_config(geometry))
        assert {k: v for k, v in curv.items() if not k.startswith("psi")} == plain["curvature"]

    def test_cli_exit_zero(self, tmp_path):
        cfg = {"command": "curvature",
               "problem": {"equation": "semilinear", "geometry": self.RADIAL,
                           "boundary": {"outer": "constant:0", "inner": "constant:1"},
                           "rhs": {"name": "zero"}},
               "spec": self.SPEC}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "curv"
        assert main(["curvature", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        report = json.loads((tmp_path / "curv.json").read_text())
        assert report["verdict"] == "AllPass"
        assert "psi_min" in report["curvature"]


class TestExitCodes:
    def test_success_exit_zero(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_ring_config()))
        assert main(["check-theorem", "--config", str(path), "--quiet"]) == 0

    def test_config_error_exit_two(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "lemma32", "thetta": 1}))
        assert main(["lemma32", "--config", str(path), "--quiet"]) == 2

    def test_numerical_failure_exit_two(self, tmp_path):
        cfg = {
            "command": "solve",
            "problem": {
                "equation": "minimal",
                "geometry": {"kind": "radial", "n": 3, "a": 1.0, "b": 8.0, "samples": 51},
                "boundary": {"outer": "constant:100", "inner": "constant:0"},
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path), "--quiet"]) == 2

    @pytest.mark.parametrize("cfg", CONFIG_ERRORS)
    def test_config_errors_exit_two_before_solving(self, cfg, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out" / "run"
        assert main([cfg["command"], "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("cfg, flags", [
        pytest.param(radial_config("check-corollary"), ["--tol", "1e9"], id="corollary-tol-flag"),
        pytest.param({"command": "lemma32"}, ["--tol", "3"], id="lemma32-tol-flag"),
        pytest.param({**radial_config("check-corollary"), "tolerances": {"c_tol": 2.0}}, [],
                     id="corollary-c_tol"),
        pytest.param({"command": "jet-verify", "tolerances": {"solver_tol": 1e-8}}, [],
                     id="jet-verify-solver_tol"),
        pytest.param(_shipped("radial-sharpness"), ["--tol", "1e9"],
                     id="sharpness-tol-flag-beside-tol_abs"),
        pytest.param({**_shipped("psi-harmonicity"), "tolerances": {"c_tol": 2.0}}, [],
                     id="harmonic-psi-c_tol"),
        pytest.param({**_shipped("psi-harmonicity"), "tolerances": {"tol_abs": 1e-3}}, [],
                     id="harmonic-psi-tol_abs"),
        pytest.param({**minimal_ring_config(checks=["gradient-monotonicity"]),
                      "tolerances": {"tol_abs": 1e-3}}, [], id="gradient-monotonicity-tol_abs"),
    ])
    def test_unread_tolerance_exit_two(self, cfg, flags, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out" / "run"
        argv = [cfg["command"], "--config", str(path), "--out", str(out), "--quiet", *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not read by" in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_c_tol_beside_tol_abs_is_read_by_gradient_monotonicity(self):
        cfg = {**_ring_with(equation="semilinear", boundary={"outer": "constant:0",
                                                             "inner": "constant:1"},
                            rhs={"name": "linear-u", "scale": 1.0}),
               "spec": {"kind": "poisson-power", "power": -2.0},
               "checks": ["min", "gradient-monotonicity"],
               "tolerances": {"c_tol": 0.0, "tol_abs": 1e-3}}
        report, solutions = run(parse_config(cfg))
        extremum, gradient = report["checks"]
        assert extremum["tolerance"] == 1e-3
        assert gradient == checks.check_gradient_monotonicity(solutions["solution"], c_tol=0.0)
        assert gradient != checks.check_gradient_monotonicity(solutions["solution"])

    THEOREM = {"checks": ["min"], "spec": {"kind": "minimal-theta", "theta": -0.5}}

    @pytest.mark.parametrize("command", ["solve", "curvature", "check-theorem", "check-corollary"])
    def test_radial_minimal_solver_tol_exit_two(self, command, tmp_path, capsys):
        # the radial minimal solver bisects the flux to adjacent floats and reads no solver_tol
        cfg = {**radial_config(command), **self.THEOREM, "tolerances": {"solver_tol": 1e-2}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), "--quiet"]) == 2
        assert "['solver_tol'] are not read by the radial minimal solver" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "curvature", "check-theorem", "check-corollary"])
    def test_radial_semilinear_reads_solver_tol(self, command):
        cfg = {**radial_config(command), **self.THEOREM, "tolerances": {"solver_tol": 1e-8}}
        cfg["problem"] = {**cfg["problem"], "equation": "semilinear",
                          "rhs": {"name": "linear-u", "scale": 1.0}}
        assert parse_config(cfg).tolerances == {"solver_tol": 1e-8}

    def test_null_tolerance_is_not_a_setting(self):
        cfg = {"command": "lemma32", "tolerances": {"c_tol": None}}
        assert parse_config(cfg).tolerances == {}

    @pytest.mark.parametrize("tol_abs, tolerance", [(0, 0.0), (None, 1e-6)])
    def test_zero_tolerance_honoured(self, tol_abs, tolerance):
        cfg = {**radial_config("check-corollary"), "tolerances": {"tol_abs": tol_abs}}
        report, _ = run(parse_config(cfg))
        [check] = report["checks"]
        assert check["tolerance"] == tolerance
        assert check["pass"] is True

    def test_zero_check_tolerance_gradient_monotonicity(self, tmp_path):
        # --tol 0 zeroes the positivity tolerance; the verdict must still be a report
        cfg = {
            "command": "check-theorem",
            "problem": {
                "equation": "semilinear",
                "geometry": {"kind": "ring2d", "outer": {"kind": "circle", "radius": 2.0},
                             "inner": {"kind": "circle", "radius": 1.0}, "grid": [24, 48]},
                "boundary": {"outer": "constant:0", "inner": "constant:1"},
                "rhs": {"name": "linear-u", "scale": 1.0},
            },
            "checks": ["gradient-monotonicity"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "X"
        code = main(["check-theorem", "--config", str(path), "--out", str(out), "--tol", "0",
                     "--quiet"])
        [check] = json.loads((tmp_path / "X.json").read_text())["checks"]
        assert code == (0 if check["pass"] else 1)
        assert check["pass"] == (check["margin"] >= -check["tolerance"])

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["lemma32", "--out", str(blocker / "x"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and err.count("\n") == 1

    def test_unrenderable_report_exit_two(self, tmp_path, capsys, monkeypatch):
        def failing_render(obj, indent=0):
            raise TypeError("cannot serialize <class 'object'> in a report")

        monkeypatch.setattr(report_module, "render_json", failing_render)
        assert main(["lemma32", "--out", str(tmp_path / "x"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    # A run imports scipy only inside the functions it calls: jet-verify and lemma32 need
    # none of it, and scipy.integrate (with the scipy.optimize it pulls in) is needed only
    # by the radial minimal solver's quadrature.
    @pytest.mark.parametrize("run_config, absent", [
        (None, "scipy"),
        ({"command": "jet-verify", "options": {"fields": 5, "dims": [2, 3]}}, "scipy"),
        ({"command": "lemma32"}, "scipy"),
        (minimal_ring_config(), "scipy.integrate"),
    ], ids=["import", "jet-verify", "lemma32", "ring-run"])
    def test_command_loads_only_the_scipy_it_runs(self, run_config, absent):
        code = "import sys\nimport levelcurv.cli\nimport levelcurv.report\n"
        if run_config is not None:
            code += (
                "import json\n"
                "from levelcurv.cli import run\n"
                "from levelcurv.config import parse_config\n"
                f"report, _ = run(parse_config(json.loads({json.dumps(run_config)!r})))\n"
                "assert report['verdict'] == 'AllPass', report['verdict']\n"
            )
        code += (f"loaded = [m for m in sys.modules if (m + '.').startswith({absent + '.'!r})]\n"
                 "assert not loaded, loaded\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_command_mismatch_exit_two(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "lemma32"}))
        assert main(["solve", "--config", str(path), "--quiet"]) == 2

    def test_jet_verify_report_written(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": "jet-verify",
                                    "options": {"fields": 5, "dims": [2]}}))
        out = tmp_path / "X"
        assert main(["jet-verify", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        report = json.loads((tmp_path / "X.json").read_text())
        assert report["verdict"] == "AllPass"
        assert all(c["pass"] is True for c in report["checks"])

    def test_shipped_jet_verify_config_is_byte_identical(self, tmp_path):
        argv = ["jet-verify", "--config", str(CONFIG_DIR / "jet-verify.json"),
                "--out", str(tmp_path / "run"), "--quiet"]
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            runs.append((tmp_path / "run.json").read_bytes())
        first, second = runs
        assert first == second
        report = json.loads(first.decode())
        assert [c["fields"] for c in report["checks"][:6]] == [400, 400, 400, 400, 400, 152]

    def test_harmonic_psi_needs_minimal_exit_two(self, tmp_path):
        cfg = {
            "command": "check-theorem",
            "problem": {
                "equation": "semilinear",
                "geometry": {
                    "kind": "ring2d",
                    "outer": {"kind": "ellipse", "rx": 4.0, "ry": 3.2},
                    "inner": {"kind": "circle", "radius": 1.5},
                    "grid": [25, 48],
                },
                "boundary": {"outer": "constant:0", "inner": "constant:1"},
                "rhs": {"name": "linear-u", "scale": 1.0},
            },
            "checks": ["harmonic-psi"],
            "grids": [[25, 48], [49, 96]],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "X"
        assert main(["check-theorem", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        report = json.loads((tmp_path / "X.json").read_text())
        assert report["error"]["type"] == "HypothesisViolated"

    def test_grid_flag_override(self, tmp_path):
        cfg = minimal_ring_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["check-theorem", "--config", str(path), "--grid", "9x16", "--quiet"]) == 2
        # 9 layers leave too few interior layers -> TooCoarse -> numerical failure


class TestReportEmission:
    def test_round_trip_and_determinism(self, tmp_path):
        report, solutions = run(parse_config(minimal_ring_config()))
        p1 = emit_report(report, str(tmp_path / "a"), solutions=solutions)
        p2 = emit_report(report, str(tmp_path / "b"), solutions=solutions)
        text1 = Path(p1[0]).read_text()
        text2 = Path(p2[0]).read_text()
        assert text1 == text2
        parsed = json.loads(text1)
        assert render_json(parsed) + "\n" == text1
        assert parsed["verdict"] == report["verdict"]

    def test_failed_render_writes_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            emit_report({"value": object()}, str(tmp_path / "bad"))
        assert list(tmp_path.iterdir()) == []

    def test_nonfinite_solution_writes_nothing(self, tmp_path):
        report, solutions = run(parse_config(minimal_ring_config(command="solve", checks=[],
                                                                 spec=None)))
        solutions["solution"].values[3, 5] = float("nan")
        with pytest.raises(ValueError, match="non-finite float nan"):
            emit_report(report, str(tmp_path / "out" / "run"), solutions=solutions)
        assert list(tmp_path.iterdir()) == []

    def test_failed_later_solution_writes_nothing(self, tmp_path):
        # the first CSV renders, the second cannot: neither it nor the report is written
        report, solutions = run(parse_config(minimal_ring_config(command="solve", checks=[],
                                                                 spec=None)))
        bad = dataclasses.replace(solutions["solution"])
        bad.values = bad.values.copy()
        bad.values[-2, 0] = float("inf")
        with pytest.raises(ValueError, match="non-finite float inf"):
            emit_report(report, str(tmp_path / "run"),
                        solutions={"solution": solutions["solution"], "later": bad})
        assert list(tmp_path.iterdir()) == []

    def test_csv_written_in_blocks_matches_joined_text(self, tmp_path):
        cfg = minimal_ring_config(command="solve", checks=[], spec=None)
        cfg["problem"]["geometry"]["grid"] = [37, 20]
        report, solutions = run(parse_config(cfg))
        paths = emit_report(report, str(tmp_path / "run"), solutions=solutions)
        assert Path(paths[1]).read_bytes() == b"".join(_csv_blocks(solutions["solution"]))

    # 37 s-rows: two full blocks of 16 and a part
    @pytest.mark.parametrize("grid", [[17, 32], [9, 20], [37, 20]])
    def test_csv_matches_per_node_formatting(self, grid):
        cfg = minimal_ring_config(command="solve", checks=[], spec=None)
        cfg["problem"]["geometry"]["grid"] = grid
        _, solutions = run(parse_config(cfg))
        sol = solutions["solution"]
        assert (sol.coords < 0.0).any()
        text = b"".join(_csv_blocks(sol)).decode("ascii")
        assert text == _reference_csv(sol)
        lines = text.splitlines()
        # s = 0 and s = 1 print as whole numbers, not as the JSON's 0.0 and 1.0
        assert lines[1].startswith("0,0,")
        assert lines[-1].startswith("1,")
        assert len(lines) == 1 + grid[0] * grid[1]

    def test_csv_fallback_fields_match_per_node_formatting(self):
        # 0/1 data on an origin-centred ring: u holds exact zeros and ones, and x1, x2
        # hold exact zeros and values near 1e-16, which "%.17g" prints itself
        _, solutions = run(_curvature_config({"kind": "ring2d", "grid": [21, 24],
                                              "outer": {"kind": "circle", "radius": 4.0},
                                              "inner": {"kind": "circle", "radius": 2.0}}))
        sol = solutions["solution"]
        assert (sol.values == 0.0).any() and (sol.coords == 0.0).any()
        assert ((np.abs(sol.coords) > 0.0) & (np.abs(sol.coords) < 1e-15)).any()
        assert b"".join(_csv_blocks(sol)).decode("ascii") == _reference_csv(sol)

    def test_radial_csv_matches_per_row_formatting(self):
        _, solutions = run(parse_config(radial_config(samples=33)))
        text = b"".join(_csv_blocks(solutions["solution"])).decode("ascii")
        assert text == _reference_csv(solutions["solution"])

    def test_float_precision_survives(self):
        obj = {"x": 1.0 / 3.0, "y": 0.1, "z": [math.pi, 1e-300]}
        parsed = json.loads(render_json(obj))
        assert parsed["x"] == 1.0 / 3.0
        assert parsed["y"] == 0.1
        assert parsed["z"][0] == math.pi
        assert parsed["z"][1] == 1e-300

    def test_csv_columns(self, tmp_path):
        cfg = {
            "command": "solve",
            "problem": {
                "equation": "minimal",
                "geometry": {"kind": "radial", "n": 2, "a": 2.0, "b": 4.0, "samples": 21},
                "boundary": {"outer": "catenoid", "inner": "constant:0"},
            },
        }
        report, solutions = run(parse_config(cfg))
        sol = solutions["solution"]
        lines = b"".join(_csv_blocks(sol)).decode("ascii").splitlines()
        assert lines[0] == "r,u,u_prime"
        assert len(lines) == 22
        expected = np.column_stack([sol.r, sol.values, sol.u_prime])
        assert np.array_equal(_parse_csv(lines[1:]), expected)

        report2, solutions2 = run(parse_config(minimal_ring_config(command="solve",
                                                                   checks=[], spec=None)))
        sol2 = solutions2["solution"]
        lines2 = b"".join(_csv_blocks(sol2)).decode("ascii").splitlines()
        assert lines2[0] == "s,t,x1,x2,u"
        assert len(lines2) == 1 + 17 * 32
        s, t = np.meshgrid(np.linspace(0.0, 1.0, 17), np.arange(32) * (2.0 * math.pi / 32),
                           indexing="ij")
        expected2 = np.column_stack([s.ravel(), t.ravel(), sol2.coords.reshape(-1, 2),
                                     sol2.values.ravel()])
        assert np.array_equal(_parse_csv(lines2[1:]), expected2)

    def test_csv_rejects_nonfinite(self):
        _, solutions = run(parse_config(minimal_ring_config(command="solve", checks=[],
                                                            spec=None)))
        sol = solutions["solution"]
        sol.values[3, 5] = float("nan")
        with pytest.raises(ValueError, match="non-finite float nan"):
            _csv_blocks(sol)

    def test_index_file(self, tmp_path):
        report, solutions = run(parse_config(minimal_ring_config()))
        paths = emit_report(report, str(tmp_path / "run"), solutions=solutions)
        index = json.loads(Path(paths[-1]).read_text())
        assert "run.json" in index["artifacts"]

    def test_report_without_solution_has_no_csv(self, tmp_path):
        report, solutions = run(parse_config({"command": "lemma32"}))
        paths = emit_report(report, str(tmp_path / "lem"), solutions=solutions)
        assert not any(p.endswith(".csv") for p in paths)
