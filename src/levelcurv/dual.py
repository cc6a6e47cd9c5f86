"""Minimal forward-mode dual numbers.

Used to differentiate the curvature-matrix field exactly (to machine
precision, no truncation error) along coordinate directions: seed the jet
entries with their own directional derivatives and push them through the
chart formula.  Values and derivatives are floats or arrays that broadcast
together, so one Dual can carry a batch of points, and a trailing axis of
directions in ``der`` against a length-one axis in ``val``.

A Dual whose value and derivative are Duals seeded along the same direction
carries the second derivative along it in ``der.der``; the arithmetic and
``dual_sqrt``/``dual_log`` recurse into such nested values unchanged.
"""

from __future__ import annotations

import numpy as np


class Dual:
    """value + first derivative along fixed directions, elementwise."""

    __slots__ = ("val", "der")

    def __init__(self, val, der=0.0):
        self.val = val
        self.der = der

    def __repr__(self):
        return f"Dual({self.val!r}, {self.der!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.der + other.der)
        return Dual(self.val + other, self.der)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.der)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.der - other.der)
        return Dual(self.val - other, self.der)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val, self.der * other.val + self.val * other.der)
        return Dual(self.val * other, self.der * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            return Dual(self.val * inv, (self.der - self.val * other.der * inv) * inv)
        return Dual(self.val / other, self.der / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        return Dual(other * inv, -other * self.der * inv * inv)


def dual_sqrt(x):
    if isinstance(x, Dual):
        s = dual_sqrt(x.val)
        return Dual(s, 0.5 * x.der / s)
    return np.sqrt(x)


def dual_log(x):
    if isinstance(x, Dual):
        return Dual(dual_log(x.val), x.der / x.val)
    return np.log(x)
