"""Timing wrappers around the names through which levelcurv modules call each other.

Nothing under ``src/`` is edited: ``install`` replaces module attributes and
methods with wrappers that record spans in a ``Tracer`` and returns a function
that puts the originals back.  A seam whose target no longer exists is skipped,
so its metrics read 0 instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

# Bytes per stored L+U nonzero: an 8-byte value plus a 4-byte row index.
LU_BYTES_PER_NNZ = 12

PER_LAYER = (
    # (metric, unit)
    ("ring2d.factor_s", "s"),
    ("ring2d.factorizations", "count"),
    ("ring2d.lu_nnz", "count"),
    ("ring2d.lu_mb_computed", "MB"),
    ("ring2d.solve_s", "s"),
    ("ring2d.iterations", "count"),
    ("ring2d.assemble_s", "s"),
    ("ring2d.residual_s", "s"),
    ("ring2d.triangular_solve_s", "s"),
    ("ring2d.grid_s", "s"),
    ("ring2d.grids", "count"),
    ("recover.fit3_s", "s"),
    ("recover.fit4_s", "s"),
    ("recover.fit_calls", "count"),
    ("recover.fit_nodes", "count"),
    ("checks.self_s", "s"),
    ("checks.boundary_grad_s", "s"),
    ("checks.calls", "count"),
    ("report.emit_s", "s"),
    ("report.bytes", "B"),
    ("radial.solve_s", "s"),
    ("identities.self_s", "s"),
    ("identities.calls", "count"),
    ("polyfield.jet_s", "s"),
    ("config.parse_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Aggregated spans: total time, self time (minus child spans) and calls per name."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = defaultdict(int)
        self._stack = []

    def call(self, name, fn, args, kwargs):
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span = time.perf_counter() - start
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += span
            self.total[name] += span
            self.self_time[name] += span - child
            self.calls[name] += 1

    def layer_metrics(self) -> dict:
        lu_nnz = self.maxima["ring2d.lu_nnz"]
        return {
            "ring2d.factor_s": self.total["ring2d.factor"],
            "ring2d.factorizations": self.calls["ring2d.factor"],
            "ring2d.lu_nnz": lu_nnz,
            "ring2d.lu_mb_computed": lu_nnz * LU_BYTES_PER_NNZ / 1e6,
            "ring2d.solve_s": self.total["ring2d.solve"],
            "ring2d.iterations": self.counts["ring2d.iterations"],
            "ring2d.assemble_s": self.total["ring2d.assemble"],
            "ring2d.residual_s": self.total["ring2d.residual"],
            "ring2d.triangular_solve_s": self.total["ring2d.triangular_solve"],
            "ring2d.grid_s": self.total["ring2d.grid"],
            "ring2d.grids": self.calls["ring2d.grid"],
            "recover.fit3_s": self.total["recover.fit3"],
            "recover.fit4_s": self.total["recover.fit4"],
            "recover.fit_calls": self.calls["recover.fit3"] + self.calls["recover.fit4"],
            "recover.fit_nodes": self.counts["recover.fit_nodes"],
            "checks.self_s": self.self_time["checks"],
            "checks.boundary_grad_s": self.total["checks.boundary_grad"],
            "checks.calls": self.calls["checks"],
            "report.emit_s": self.total["report.emit"],
            "report.bytes": self.counts["report.bytes"],
            "radial.solve_s": self.total["radial.solve"],
            "identities.self_s": self.self_time["identities"],
            "identities.calls": self.calls["identities"],
            "polyfield.jet_s": self.total["polyfield.jet"],
            "config.parse_s": self.total["config.parse"],
        }


class _TimedLU:
    """SuperLU stand-in whose triangular solves are timed."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("ring2d.triangular_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _after_splu(tracer, lu, args, kwargs):
    nnz = int(lu.L.nnz + lu.U.nnz)
    tracer.maxima["ring2d.lu_nnz"] = max(tracer.maxima["ring2d.lu_nnz"], nnz)
    return _TimedLU(lu, tracer)


def _after_ring_solve(tracer, sol, args, kwargs):
    tracer.counts["ring2d.iterations"] += int(sol.iterations)
    return sol


def _fit_span(args, kwargs):
    degree = kwargs.get("degree", args[2] if len(args) > 2 else 3)
    return "recover.fit3" if degree <= 3 else "recover.fit4"


def _after_fit(tracer, out, args, kwargs):
    grads = out[0]
    tracer.counts["recover.fit_nodes"] += int(grads.shape[0] * grads.shape[1])
    return out


def _after_emit(tracer, paths, args, kwargs):
    tracer.counts["report.bytes"] += sum(os.path.getsize(p) for p in paths)
    return paths


_CHECKS = ("check_extremum_on_boundary", "check_gradient_monotonicity", "check_harmonic_psi_2d",
           "corollary_bound_minimal", "corollary_bound_poisson", "convergence_study")
_IDENTITIES = ("codazzi_residual", "uiia_residual", "phi_gradient_identity_residual",
               "minimal_master_identity_residual", "lemma_quadratic_bound", "quadratic_max_oracle")

# (owner, attribute, span name or callable(args, kwargs) -> span name, after-hook)
SEAMS = [
    ("levelcurv.ring2d", "splu", "ring2d.factor", _after_splu),
    ("levelcurv.ring2d._RingOperator", "assemble", "ring2d.assemble", None),
    ("levelcurv.ring2d._RingOperator", "residual", "ring2d.residual", None),
    ("levelcurv.ring2d.RingGrid", "__init__", "ring2d.grid", None),
    ("levelcurv.cli", "solve_minimal_ring2d", "ring2d.solve", _after_ring_solve),
    ("levelcurv.cli", "solve_semilinear_ring2d", "ring2d.solve", _after_ring_solve),
    ("levelcurv.cli", "solve_minimal_radial", "radial.solve", None),
    ("levelcurv.cli", "solve_semilinear_radial", "radial.solve", None),
    ("levelcurv.checks", "grid_field_fit", _fit_span, _after_fit),
    ("levelcurv.checks", "boundary_gradients", "checks.boundary_grad", None),
    *[("levelcurv.cli", name, "checks", None) for name in _CHECKS],
    *[("levelcurv.cli", name, "identities", None) for name in _IDENTITIES],
    ("levelcurv.polyfield.PolyField", "jet", "polyfield.jet", None),
    ("levelcurv.report", "emit_report", "report.emit", _after_emit),
    ("levelcurv.config", "parse_config", "config.parse", None),
]


def _resolve(owner: str):
    """Import a module path, or a module path followed by one class name."""
    try:
        return importlib.import_module(owner)
    except ImportError:
        module, _, cls = owner.rpartition(".")
    try:
        return getattr(importlib.import_module(module), cls, None)
    except ImportError:
        return None


def _wrap(tracer, fn, span, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = span(args, kwargs) if callable(span) else span
        out = tracer.call(name, fn, args, kwargs)
        return after(tracer, out, args, kwargs) if after else out

    return wrapper


def install(tracer: Tracer, seam_list=SEAMS):
    """Wrap every seam that exists; returns a function that restores the originals."""
    saved = []
    for owner_path, attr, span, after in seam_list:
        owner = _resolve(owner_path)
        if owner is None or attr not in vars(owner):
            continue
        original = vars(owner)[attr]
        setattr(owner, attr, _wrap(tracer, original, span, after))
        saved.append((owner, attr, original))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
