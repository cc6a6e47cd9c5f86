"""Jet recovery from radial profile samples.

A radial solution is fitted by sliding 1D polynomial windows in r: a
degree-d fit reproduces polynomial profiles of that degree exactly (to
conditioning).  2D ring solutions need no fit: the checks read the
solver's own stencil jets (``checks.solution_fields``).
"""

from __future__ import annotations

import numpy as np

from .errors import TooCloseToBoundary
from .fields import radial_jet
from .geometry import Jet
from .solution import RingSolution

_MIN_LAYERS = {2: 2, 3: 3}


# ---------------------------------------------------------------------------
# radial profile recovery
# ---------------------------------------------------------------------------

def _profile_window(r: np.ndarray, u: np.ndarray, i: int, centre: float, degree: int):
    """(u', u'', u''') at centre from a polynomial fit on the window about sample i.

    The window holds 2*max(2, (degree+2)//2)+1 samples and shifts inward near
    the ends; offsets are scaled by their largest magnitude.
    """
    half = max(2, (degree + 2) // 2)
    width = 2 * half + 1
    if r.shape[0] < width:
        raise TooCloseToBoundary("too few radial samples for the fit window")
    lo = min(max(i - half, 0), r.shape[0] - width)
    rw = r[lo : lo + width] - centre
    scale = float(np.max(np.abs(rw))) or 1.0
    coeffs = np.polynomial.polynomial.polyfit(rw / scale, u[lo : lo + width], degree)
    uppp = 6.0 * coeffs[3] / scale**3 if degree >= 3 else 0.0
    return coeffs[1] / scale, 2.0 * coeffs[2] / scale**2, uppp


def radial_profile_fit(solution: RingSolution, degree: int = 3):
    """(up, upp, uppp) at every radius sample by sliding 1D polynomial fits."""
    r = solution.r
    jets = [_profile_window(r, solution.values, i, r[i], degree) for i in range(r.shape[0])]
    up, upp, uppp = np.array(jets).T.copy()
    return up, upp, uppp


# ---------------------------------------------------------------------------
# single-point API
# ---------------------------------------------------------------------------

def recover_jet(solution: RingSolution, point, order: int = 2) -> Jet:
    """Jet of a radial solution at a physical point.

    order 2 fits a cubic profile, order 3 a quartic; the point must sit at
    least 2 (order 2) or 3 (order 3) samples away from the boundaries.  Exact
    (to ~1e-11) when the solution samples a polynomial of degree order+1.
    """
    if order not in (2, 3):
        raise ValueError("recover_jet supports order 2 or 3")
    if solution.kind != "radial":
        raise ValueError(
            "recover_jet fits radial profiles only; 2D ring jets are the solver's "
            "stencils, read them from checks.solution_fields"
        )
    min_layers = _MIN_LAYERS[order]
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if point.shape == (1,):
        x = np.zeros(solution.n)
        x[0] = point[0]
    else:
        x = point
    radius = float(np.linalg.norm(x))
    r = solution.r
    idx = int(round((radius - r[0]) / solution.h))
    if idx < min_layers or idx > r.shape[0] - 1 - min_layers:
        raise TooCloseToBoundary(
            f"point at r={radius:g} is within {min_layers} layers of the boundary"
        )
    up, upp, uppp = _profile_window(r, solution.values, idx, radius, order + 1)
    return radial_jet(x, up, upp, uppp if order >= 3 else None, order)
