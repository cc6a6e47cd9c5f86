"""Closed-form scalar fields with exact jets.

These are the independent references the solvers and identity checks are
measured against: radial minimal graphs (catenoid family), the Scherk-type
minimal graph, and the distance cone whose level sets are spheres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain
from .geometry import Jet, make_jet


def radial_jet(x: np.ndarray, up: float, upp: float, uppp: float | None, order: int = 3) -> Jet:
    """Jet of u(x) = U(|x - 0|) from radial derivatives U', U'', U''' at r = |x|."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise OutOfDomain("radial jets are singular at the origin")
    e = x / r
    grad = up * e
    eye = np.eye(n)
    hess = upp * np.outer(e, e) + (up / r) * (eye - np.outer(e, e))
    third = None
    if order >= 3:
        if uppp is None:
            raise ValueError("third radial derivative required for an order-3 jet")
        ee = np.outer(e, e)
        eee = np.einsum("a,b,c->abc", e, e, e)
        sym = (
            np.einsum("ab,c->abc", eye, e)
            + np.einsum("ac,b->abc", eye, e)
            + np.einsum("bc,a->abc", eye, e)
        )
        third = uppp * eee + (upp / r) * (sym - 3.0 * eee) + (up / r**2) * (3.0 * eee - sym)
    return make_jet(grad, hess, third)


@dataclass(frozen=True)
class RadialMinimalField:
    """Radial solution of the minimal surface equation: u'(r) = c / sqrt(r^(2(n-1)) - c^2).

    flux c < 0 gives a field decreasing outward, whose level spheres are
    convex with respect to grad u (the orientation the maximum-principle
    identities are written in); |flux| = 1 is the catenoid normalization.
    ``u_prime`` and ``u_second`` take a radius or an array of radii.
    """

    n: int
    flux: float = -1.0

    def _d(self, r):
        m = 2 * (self.n - 1)
        d = r**m - self.flux**2
        if np.any(d <= 0.0):
            raise OutOfDomain(
                f"radial minimal profile needs r^{m} > c^2, got r = {float(np.min(r)):g}")
        return d

    def u_prime(self, r):
        return self.flux / np.sqrt(self._d(r))

    def u_second(self, r):
        m = 2 * (self.n - 1)
        return -(self.flux * m / 2.0) * r ** (m - 1) * self._d(r) ** -1.5

    def u_third(self, r: float) -> float:
        m = 2 * (self.n - 1)
        d = self._d(r)
        return (
            -(self.flux * m / 2.0)
            * r ** (m - 2)
            * d**-2.5
            * ((m - 1) * d - 1.5 * m * r**m)
        )

    def grad_norm_sq(self, r: float) -> float:
        return self.flux**2 / self._d(r)

    def gauss(self, r: float) -> float:
        """Geometric Gaussian curvature of the level sphere of radius r."""
        return r ** (1 - self.n)

    def jet(self, x, order: int = 3) -> Jet:
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        uppp = self.u_third(r) if order >= 3 else None
        return radial_jet(x, self.u_prime(r), self.u_second(r), uppp, order)


@dataclass(frozen=True)
class ScherkField:
    """u(x, y) = log cos x - log cos y on |x|, |y| < pi/2; solves the minimal
    surface equation identically."""

    def jet(self, x, order: int = 3) -> Jet:
        x = np.asarray(x, dtype=float)
        x1, x2 = float(x[0]), float(x[1])
        if abs(x1) >= math.pi / 2 or abs(x2) >= math.pi / 2:
            raise OutOfDomain("Scherk field lives on |x_i| < pi/2")
        t1, t2 = math.tan(x1), math.tan(x2)
        s1, s2 = 1.0 + t1 * t1, 1.0 + t2 * t2  # sec^2
        grad = np.array([-t1, t2])
        hess = np.array([[-s1, 0.0], [0.0, s2]])
        third = None
        if order >= 3:
            third = np.zeros((2, 2, 2))
            third[0, 0, 0] = -2.0 * s1 * t1
            third[1, 1, 1] = 2.0 * s2 * t2
        return make_jet(grad, hess, third)


@dataclass(frozen=True)
class SphereDistanceField:
    """u(x) = sign * |x - center|: level sets are concentric spheres."""

    dim: int
    sign: float = -1.0
    center: tuple = ()

    def jet(self, x, order: int = 3) -> Jet:
        x = np.asarray(x, dtype=float)
        center = np.asarray(self.center if self.center else np.zeros(self.dim))
        return radial_jet(x - center, self.sign, 0.0, 0.0 if order >= 3 else None, order)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        center = np.asarray(self.center if self.center else np.zeros(self.dim))
        return self.sign * float(np.linalg.norm(x - center))


def catenoid_value(r: float, n: int = 2, anchor: float | None = None) -> float:
    """u(r) = integral of 1/sqrt(s^(2(n-1)) - 1); closed form arccosh(r) for n = 2."""
    if n == 2:
        v = math.acosh(r)
        return v - (math.acosh(anchor) if anchor is not None else 0.0)
    raise ValueError("closed-form catenoid value only available for n = 2")
