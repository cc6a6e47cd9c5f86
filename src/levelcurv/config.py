"""Run configuration: one strict JSON document per run.

Unknown keys are rejected anywhere in the tree and every numeric field must
be finite; boundary data and right-hand sides are named closed forms (or
sampled arrays), so a config file fully reproduces a run without embedding
code.  ``parse_config`` is the only reader of the format: it decodes each
node once into the object the run uses, so every ``ConfigError`` is raised
before anything is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import Oracle
from .errors import ConfigError
from .fields import catenoid_value
from .geometry import TestFunctionSpec
from .polyfield import RANDOM_JET_DIMS
from .radial import profile_integral
from .rhs import SemilinearRHS, inverse_square_rhs, linear_u_rhs, zero_rhs
from .ring2d import (MIN_GRID, MINIMAL, Circle, Ellipse, MinimalEquation, RingDomain2D,
                     SemilinearEquation)

COMMANDS = (
    "solve",
    "curvature",
    "check-theorem",
    "check-corollary",
    "jet-verify",
    "lemma32",
    "convergence",
)

CHECK_NAMES = ("min", "max", "both", "gradient-monotonicity", "harmonic-psi")

# the tolerance keys each command reads (check-theorem's depend on its checks, see
# _tolerances); any other non-null entry is a config error
TOLERANCE_KEYS = {
    "solve": {"solver_tol"},
    "curvature": {"solver_tol"},
    "check-corollary": {"tol_abs", "corollary_rel", "solver_tol"},
}
EXTREMUM_CHECKS = {"min", "max", "both"}

OPTION_DEFAULTS = {"fields": 100, "dims": [2, 3], "instances": 200, "problem": "laplace-annulus"}
# the option keys each command reads; any other key is a config error
OPTION_KEYS = {"jet-verify": {"fields", "dims"}, "lemma32": {"instances"},
               "convergence": {"problem"}}

# config strings to objects, stated only here: curve kind -> the keys of its (rx, ry),
# equation -> its value given the decoded rhs, rhs name -> (constructor, default scale)
CURVES = {"circle": ("radius",), "ellipse": ("rx", "ry")}
EQUATIONS = {"minimal": lambda rhs: MINIMAL, "semilinear": SemilinearEquation}
RIGHT_HAND_SIDES = {"zero": (lambda scale: zero_rhs(), None), "linear-u": (linear_u_rhs, 1.0),
                    "inverse-square": (inverse_square_rhs, 2.0)}


# convergence problem -> its oracle.  "sphere-curvature" samples u = -r off concentric
# circles (there -r is linear in s and the stencils are exact) and measures K = 1/r
CONVERGENCE_PROBLEMS = {
    "laplace-annulus": Oracle(
        Circle(math.e), Circle(1.0), (0.0, 1.0), SemilinearEquation(zero_rhs()),
        lambda x: 1.0 - np.log(np.linalg.norm(x, axis=-1))),
    "minimal-circles-catenoid": Oracle(
        Circle(4.0), Circle(2.0), (catenoid_value(4.0, anchor=2.0), 0.0), MINIMAL,
        lambda x: np.arccosh(np.linalg.norm(x, axis=-1)) - math.acosh(2.0)),
    "sphere-curvature": Oracle(Ellipse(4.0, 3.2), Circle(2.0), None, None,
                               lambda x: -np.linalg.norm(x, axis=-1),
                               exact_k=lambda x: 1.0 / np.linalg.norm(x, axis=-1)),
    "constant": Oracle(Circle(2.0), Circle(1.0), (0.7, 0.7), MINIMAL,
                       lambda x: np.full(x.shape[:-1], 0.7), min_order=None),
}


def _require_keys(node: dict, allowed: set, path: str):
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} at {path or '<root>'}")


def _object(node, allowed: set, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object")
    _require_keys(node, allowed, path)
    return node


def _finite(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ConfigError(f"{path}: number must be finite")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _pair(node, path: str, element=_finite) -> tuple:
    """A two-entry list: a grid [n_s, n_t] with ``element=_integer``, else a point [x, y]."""
    if not (isinstance(node, list) and len(node) == 2):
        raise ConfigError(f"{path}: expected {'[n_s, n_t]' if element is _integer else '[x, y]'}")
    return element(node[0], f"{path}[0]"), element(node[1], f"{path}[1]")


@dataclass(frozen=True)
class RadialGeometry:
    n: int
    a: float
    b: float
    samples: int = 401


@dataclass(frozen=True)
class Problem:
    """A decoded problem block with the solver inputs of every grid the run solves.

    ``geometry`` is a RadialGeometry, or the RingDomain2D on ``geometry.grid``.
    ``u_ab`` is (u(a), u(b)) on a radial geometry; ``rings`` maps each ring2d
    grid (n_s, n_t) to (RingDomain2D, outer values, inner values).
    """

    equation: MinimalEquation | SemilinearEquation
    geometry: RadialGeometry | RingDomain2D
    u_ab: tuple[float, float] | None = None
    rings: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    command: str
    source: dict = field(default_factory=dict)
    problem: Problem | None = None
    spec: TestFunctionSpec | None = None
    checks: list = field(default_factory=list)
    grids: list = field(default_factory=list)
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    output: str | None = None
    options: dict = field(default_factory=lambda: dict(OPTION_DEFAULTS))

    def echo(self) -> dict:
        """The validated config as given (without defaults), for the report header."""
        out: dict = {"command": self.command, "seed": self.seed}
        for key, value in self.source.items():
            if key not in out and value not in (None, [], {}):
                out[key] = value
        return out


def apply_overrides(raw, command: str, *, seed=None, output=None, grid=None, c_tol=None) -> dict:
    """Merge a subcommand and its --seed/--out/--grid/--tol values into a loaded config.

    ``--grid`` sets a ring2d grid, the radial sample count (``Nx1`` only) or, for
    ``convergence``, adds one ``grids`` entry; anywhere else it is a ConfigError.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    raw.setdefault("command", command)
    if raw["command"] != command:
        raise ConfigError(
            f"config command {raw['command']!r} disagrees with subcommand {command!r}"
        )
    if seed is not None:
        raw["seed"] = seed
    if output is not None:
        raw["output"] = output
    if grid is not None:
        problem = raw.get("problem")
        geometry = problem.get("geometry") if isinstance(problem, dict) else None
        kind = geometry.get("kind") if isinstance(geometry, dict) else None
        if kind == "ring2d":
            geometry["grid"] = grid
        elif kind == "radial":
            if grid[1] != 1:
                raise ConfigError(f"--grid on a radial geometry expects Nx1, got {grid[0]}x{grid[1]}")
            geometry["samples"] = grid[0]
        elif command != "convergence":
            raise ConfigError(f"--grid sets nothing that {command} reads")
        elif isinstance(raw.setdefault("grids", []), list):
            raw["grids"].append(grid)
    if c_tol is not None and isinstance(raw.setdefault("tolerances", {}), dict):
        raw["tolerances"]["c_tol"] = c_tol
    return raw


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, {"command", "problem", "spec", "checks", "grids", "seed", "tolerances",
                   "output", "options"}, "")
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
    cfg = RunConfig(command=command, source=raw)

    if "seed" in raw:
        cfg.seed = _integer(raw["seed"], "seed")
        if cfg.seed < 0:
            raise ConfigError("seed must be nonnegative")
    if raw.get("output") is not None:
        if not isinstance(raw["output"], str):
            raise ConfigError("output: expected a path string")
        cfg.output = raw["output"]
    if "checks" in raw:
        checks = raw["checks"]
        if not isinstance(checks, list) or not all(c in CHECK_NAMES for c in checks):
            raise ConfigError(f"checks: expected a list drawn from {CHECK_NAMES}")
        cfg.checks = checks
    if "grids" in raw:
        if not isinstance(raw["grids"], list):
            raise ConfigError("grids: expected a list of [n_s, n_t] pairs")
        cfg.grids = [_pair(g, f"grids[{k}]", _integer) for k, g in enumerate(raw["grids"])]
    if "tolerances" in raw:
        cfg.tolerances = _tolerances(raw["tolerances"], command, cfg.checks)
    if "options" in raw:
        cfg.options = _options(raw["options"], command)
    if raw.get("spec") is not None:
        cfg.spec = _spec(raw["spec"])
    psi = cfg.command == "check-theorem" and "harmonic-psi" in cfg.checks
    if raw.get("problem") is not None:
        cfg.problem = _problem(raw["problem"], cfg.grids if psi else [])
    _check_command_requirements(cfg)
    return cfg


def _check_command_requirements(cfg: RunConfig):
    needs_problem = cfg.command in ("solve", "curvature", "check-theorem", "check-corollary")
    if needs_problem and cfg.problem is None:
        raise ConfigError(f"{cfg.command} requires a problem block")
    radial_minimal = cfg.problem is not None and cfg.problem.u_ab is not None \
        and cfg.problem.equation == MINIMAL
    if radial_minimal and "solver_tol" in cfg.tolerances:
        # the radial minimal solution is a quadrature; its flux bisection runs to adjacent floats
        raise ConfigError("tolerances ['solver_tol'] are not read by the radial minimal solver")
    if radial_minimal:
        # the flux integrand c / sqrt(r^m - c^2), m = 2(n - 1), is read up to r = b
        geometry = cfg.problem.geometry
        m = 2 * (geometry.n - 1)
        try:
            geometry.b ** m  # a float power raises OverflowError past the float range
        except OverflowError:
            raise ConfigError(f"problem.geometry: the radial minimal solver needs b^{m} to be "
                              f"a finite float, got b = {geometry.b:g}, n = {geometry.n}") from None
    if cfg.command == "check-theorem":
        if not cfg.checks:
            raise ConfigError("check-theorem requires a checks list")
        if cfg.spec is None and EXTREMUM_CHECKS.intersection(cfg.checks):
            raise ConfigError("extremum checks need a spec block")
        if "harmonic-psi" in cfg.checks:
            if len(cfg.grids) < 2:
                raise ConfigError("harmonic-psi needs a grids list with >= 2 grids")
            if cfg.problem.u_ab is not None:
                raise ConfigError("harmonic-psi needs a ring2d geometry")
    if cfg.command == "convergence":
        if any(n_s < MIN_GRID[0] or n_t < MIN_GRID[1] for n_s, n_t in cfg.grids):
            raise ConfigError(f"grids: need n_s >= {MIN_GRID[0]}, n_t >= {MIN_GRID[1]}")
        if len(cfg.grids) < 2:
            raise ConfigError("convergence needs a grids list with >= 2 grids")


def _tolerances(node, command: str, checks: list) -> dict:
    """Tolerance overrides; a null entry means the default, and so does a missing one."""
    _object(node, {"c_tol", "tol_abs", "solver_tol", "corollary_rel"}, "tolerances")
    out = {}
    for k, v in node.items():
        if v is not None:
            if _finite(v, f"tolerances.{k}") < 0:
                raise ConfigError(f"tolerances.{k} must be nonnegative")
            out[k] = v
    read, reader = TOLERANCE_KEYS.get(command, set()), command
    if command == "check-theorem":
        # tol_abs is read by the extremum checks; c_tol by gradient-monotonicity,
        # and by the extremum checks when tol_abs is absent
        extremum = bool(EXTREMUM_CHECKS.intersection(checks))
        read = {"solver_tol", "tol_abs"} if extremum else {"solver_tol"}
        if "gradient-monotonicity" in checks or (extremum and "tol_abs" not in out):
            read.add("c_tol")
        reader = f"check-theorem with checks {checks}"
        reader += " and tol_abs" if extremum and "tol_abs" in out else ""
    unread = sorted(set(out) - read)
    if unread:
        raise ConfigError(f"tolerances {unread} are not read by {reader}")
    return out


def _options(node, command: str) -> dict:
    _object(node, set(OPTION_DEFAULTS), "options")
    unread = sorted(set(node) - OPTION_KEYS.get(command, set()))
    if unread:
        raise ConfigError(f"options {unread} are not read by {command}")
    opts = dict(OPTION_DEFAULTS, **node)
    for key in ("fields", "instances"):
        if _integer(opts[key], f"options.{key}") < 1:
            raise ConfigError(f"options.{key} must be at least 1")
    dims = opts["dims"]
    if not isinstance(dims, list) or not all(
            _integer(d, "options.dims") in RANDOM_JET_DIMS for d in dims):
        raise ConfigError(f"options.dims: expected a list drawn from {RANDOM_JET_DIMS}")
    if opts["problem"] not in CONVERGENCE_PROBLEMS:
        raise ConfigError(f"options.problem must be one of {tuple(CONVERGENCE_PROBLEMS)}")
    return opts


def _spec(node) -> TestFunctionSpec:
    kind = node.get("kind") if isinstance(node, dict) else None
    if kind == "minimal-theta":
        _object(node, {"kind", "theta"}, "spec")
        return TestFunctionSpec.minimal_theta(_finite(node.get("theta"), "spec.theta"))
    if kind == "poisson-power":
        _object(node, {"kind", "power"}, "spec")
        return TestFunctionSpec.poisson_power(_finite(node.get("power"), "spec.power"))
    raise ConfigError("spec.kind must be 'minimal-theta' or 'poisson-power'")


def _curve(node, path: str) -> Ellipse:
    kind = node.get("kind") if isinstance(node, dict) else None
    if not (isinstance(kind, str) and kind in CURVES):
        raise ConfigError(f"{path}.kind must be 'circle' or 'ellipse'")
    _object(node, {"kind", "center", *CURVES[kind]}, path)
    radii = [_finite(node.get(key), f"{path}.{key}") for key in CURVES[kind]]
    if min(radii) <= 0:
        raise ConfigError(f"{path}: radii must be positive")
    center = _pair(node.get("center", [0.0, 0.0]), f"{path}.center")
    return Ellipse(radii[0], radii[-1], center)


def _rhs(node) -> SemilinearRHS:
    if node is None:
        return zero_rhs()
    _object(node, {"name", "scale"}, "problem.rhs")
    scale = _finite(node["scale"], "rhs.scale") if "scale" in node else None
    name = node.get("name")
    if not (isinstance(name, str) and name in RIGHT_HAND_SIDES):
        raise ConfigError("rhs.name must be zero | linear-u | inverse-square")
    make, default = RIGHT_HAND_SIDES[name]
    return make(default if scale is None else scale)


def _boundary_datum(node, path: str):
    """One side of ``boundary``: a constant (float), samples (array) or a closed-form name."""
    if isinstance(node, str):
        if node in ("catenoid", "harmonic-annulus"):
            return node
        if node.startswith("constant:"):
            try:
                return _finite(float(node.split(":", 1)[1]), path)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad number in {node!r}") from exc
        raise ConfigError(
            f"{path}: named data must be 'catenoid', 'harmonic-annulus' or 'constant:<v>'"
        )
    if isinstance(node, dict):
        samples = _object(node, {"samples"}, path).get("samples")
        if not isinstance(samples, list) or not samples:
            raise ConfigError(f"{path}.samples: expected a nonempty list")
        return np.array([_finite(v, f"{path}.samples[{k}]") for k, v in enumerate(samples)])
    raise ConfigError(f"{path}: expected a name string or a samples object")


def _problem(node, psi_grids: list) -> Problem:
    _object(node, {"equation", "geometry", "boundary", "rhs"}, "problem")
    name = node.get("equation")
    if not (isinstance(name, str) and name in EQUATIONS):
        raise ConfigError("problem.equation must be 'minimal' or 'semilinear'")
    if node.get("rhs") is not None and name != "semilinear":
        raise ConfigError("problem.rhs only applies to semilinear problems")
    equation = EQUATIONS[name](_rhs(node.get("rhs")))

    geom = node.get("geometry")
    kind = geom.get("kind") if isinstance(geom, dict) else None
    if kind == "radial":
        _object(geom, {"kind", "n", "a", "b", "samples"}, "problem.geometry")
        geometry = RadialGeometry(
            n=_integer(geom.get("n"), "geometry.n"),
            a=_finite(geom.get("a"), "geometry.a"),
            b=_finite(geom.get("b"), "geometry.b"),
            samples=_integer(geom.get("samples", 401), "geometry.samples"),
        )
        if geometry.n < 2 or geometry.samples < 3:
            raise ConfigError("geometry: need n >= 2 and samples >= 3")
        if not 0 < geometry.a < geometry.b:
            raise ConfigError("geometry: need 0 < a < b")
    elif kind == "ring2d":
        _object(geom, {"kind", "outer", "inner", "grid", "center"}, "problem.geometry")
        curves = (_curve(geom.get("outer"), "problem.geometry.outer"),
                  _curve(geom.get("inner"), "problem.geometry.inner"))
        center = _pair(geom.get("center", [0.0, 0.0]), "geometry.center")
        grids = [_pair(geom.get("grid"), "geometry.grid", _integer), *psi_grids]
    else:
        raise ConfigError("geometry.kind must be 'radial' or 'ring2d'")

    boundary = node.get("boundary")
    if boundary is None:
        outer, inner = 0.0, 1.0
    else:
        _object(boundary, {"outer", "inner"}, "problem.boundary")
        outer = _boundary_datum(boundary.get("outer"), "problem.boundary.outer")
        inner = _boundary_datum(boundary.get("inner"), "problem.boundary.inner")

    if kind == "radial":
        u_ab = (_radial_value(inner, geometry.a, geometry, "problem.boundary.inner"),
                _radial_value(outer, geometry.b, geometry, "problem.boundary.outer"))
        return Problem(equation, geometry, u_ab=u_ab)
    rings = {}
    for n_s, n_t in dict.fromkeys(grids):
        try:
            domain = RingDomain2D(*curves, n_s=n_s, n_t=n_t, center=center)
        except ValueError as exc:
            raise ConfigError(f"problem.geometry on grid {n_s}x{n_t}: {exc}") from exc
        rings[n_s, n_t] = (domain,
                           _ring_values(outer, domain.outer, domain, "problem.boundary.outer"),
                           _ring_values(inner, domain.inner, domain, "problem.boundary.inner"))
    return Problem(equation, rings[grids[0]][0], rings=rings)


def _ring_values(datum, curve, domain: RingDomain2D, path: str) -> np.ndarray:
    """Boundary data on one curve's angular nodes."""
    n_t = domain.n_t
    if isinstance(datum, np.ndarray):
        if datum.shape != (n_t,):
            raise ConfigError(f"{path}: {datum.size} samples != angular nodes {n_t}")
        return datum
    if isinstance(datum, float):
        return np.full(n_t, datum)
    t = np.arange(n_t) * (2.0 * math.pi / n_t)
    radii = np.linalg.norm(curve.point(t), axis=-1)
    if datum == "catenoid":
        if np.min(radii) < 1.0:
            raise ConfigError(f"{path}: catenoid data needs |x| >= 1 on the curve")
        return np.array([catenoid_value(float(r)) for r in radii])
    outer_r = float(np.mean(np.linalg.norm(domain.outer.point(t), axis=-1)))
    inner_r = float(np.mean(np.linalg.norm(domain.inner.point(t), axis=-1)))
    return np.log(outer_r / radii) / math.log(outer_r / inner_r)


def _radial_value(datum, radius: float, geometry: RadialGeometry, path: str) -> float:
    if isinstance(datum, np.ndarray):
        raise ConfigError(f"{path}: sampled boundary data is only for 2D rings")
    if isinstance(datum, float):
        return datum
    n, a = geometry.n, geometry.a
    if datum == "catenoid":
        if a < 1.0:
            raise ConfigError(f"{path}: catenoid data needs a >= 1")
        if n == 2:
            return catenoid_value(radius, anchor=a)
        try:
            val = profile_integral(1.0, n, a, radius)
        except OverflowError:
            val = math.inf
        if not math.isfinite(val):
            raise ConfigError(f"{path}: catenoid data is not finite at radius {radius:g}")
        return val
    return math.log(geometry.b / radius) / math.log(geometry.b / a)
