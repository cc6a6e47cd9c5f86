"""Property tests: the pointwise identities hold on every drawn polynomial
field, and reports survive a render/parse round trip.

Fields are drawn like random_test_jet draws them (degree 4, coefficients in
[-1, 1], nondegenerate at the origin); the tolerances are those of the
fixed-seed identity tests.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levelcurv.errors import NonpositiveCurvature
from levelcurv.geometry import TestFunctionSpec
from levelcurv.identities import codazzi_residual, phi_gradient_identity_residual, uiia_residual
from levelcurv.polyfield import MAX_DEGREE, PolyField, _multi_indices, _nondegenerate
from levelcurv.report import parse_report, render_json

COEFF = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
SPECS = st.one_of(
    st.floats(-1.0, 1.0).map(TestFunctionSpec.minimal_theta),
    st.floats(-2.0, 2.0).map(TestFunctionSpec.poisson_power),
)


@st.composite
def origin_jets(draw):
    """Order-3 jet at the origin of a drawn nondegenerate PolyField."""
    n = draw(st.sampled_from([2, 3, 4]))
    indices = _multi_indices(n, MAX_DEGREE)
    coeffs = draw(st.lists(COEFF, min_size=len(indices), max_size=len(indices)))
    jet = PolyField(n, dict(zip(indices, coeffs))).jet(np.zeros(n), order=3)
    assume(_nondegenerate(jet, min_grad=0.1, min_det=1e-4))
    return jet


@settings(max_examples=400, derandomize=True, deadline=None)
@given(origin_jets(), SPECS)
def test_identities_hold_on_drawn_fields(jet, spec):
    assert codazzi_residual(jet) < 1e-10
    assert uiia_residual(jet) < 1e-10
    try:
        residual = phi_gradient_identity_residual(jet, spec)
    except NonpositiveCurvature:
        return
    assert residual < 1e-9


REPORT_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**12), 10**12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.dictionaries(st.text(max_size=8), REPORT_VALUES, max_size=6))
def test_report_round_trip(report):
    assert parse_report(render_json(report)) == report
