"""Curvature of convex level sets: solvers, identity checks, boundary-extremum verdicts."""

__version__ = "0.1.0"
