"""Property tests: the pointwise identities hold on every drawn polynomial
field, a field's identity residuals do not depend on the batch it is
evaluated in, K and psi do not change when the field is rotated or
translated, reports survive a render/parse round trip, and configs reject
unknown keys wherever they appear.

Fields are drawn like random_test_jets draws them (degree 4, coefficients
in [-1, 1], nondegenerate at the origin); the tolerances are those of the
fixed-seed identity tests.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from levelcurv.config import parse_config
from levelcurv.errors import ConfigError
from levelcurv.geometry import (
    Jet,
    TestFunctionSpec,
    _fsum,
    curvature_matrix,
    rotate_jet,
    weighted_curvature,
)
from levelcurv.identities import identity_residuals
from levelcurv.polyfield import MAX_DEGREE, PolyField, _multi_indices, _nondegenerate
from levelcurv.report import render_json

COEFF = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
SPECS = st.one_of(
    st.floats(-1.0, 1.0).map(TestFunctionSpec.minimal_theta),
    st.floats(-2.0, 2.0).map(TestFunctionSpec.poisson_power),
)


@st.composite
def origin_fields(draw):
    """A drawn PolyField that is nondegenerate at the origin."""
    n = draw(st.sampled_from([2, 3, 4]))
    indices = _multi_indices(n, MAX_DEGREE)
    coeffs = draw(st.lists(COEFF, min_size=len(indices), max_size=len(indices)))
    field = PolyField(n, dict(zip(indices, coeffs)))
    assume(_nondegenerate(field.jet(np.zeros(n), order=2), min_grad=0.1, min_det=1e-4))
    return field


def origin_jets():
    """Order-3 jet at the origin of a drawn nondegenerate PolyField."""
    return origin_fields().map(lambda field: field.jet(np.zeros(field.dim), order=3))


def _stack(jets):
    return Jet(*(np.stack(parts) for parts in zip(*((j.grad, j.hess, j.third) for j in jets))))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(origin_jets(), SPECS)
def test_identities_hold_on_drawn_fields(jet, spec):
    res = identity_residuals(_stack([jet]), spec)
    assert res.codazzi[0] < 1e-10
    assert res.uiia[0] < 1e-10
    if res.admissible[0]:
        assert res.phi[0] < 1e-9


@st.composite
def origin_batches(draw):
    """Order-3 origin jets of 1-6 drawn nondegenerate fields of one dimension,
    in a drawn order."""
    n = draw(st.sampled_from([2, 3, 4]))
    indices = _multi_indices(n, MAX_DEGREE)
    rows = draw(st.lists(st.lists(COEFF, min_size=len(indices), max_size=len(indices)),
                         min_size=1, max_size=6))
    jets = [PolyField(n, dict(zip(indices, row))).jet(np.zeros(n), order=3) for row in rows]
    jets = [jet for jet in jets if _nondegenerate(jet, min_grad=0.1, min_det=1e-4)]
    assume(jets)
    return draw(st.permutations(jets))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(origin_batches(), SPECS)
def test_identity_residuals_do_not_depend_on_the_batch(jets, spec):
    # each jet evaluated alone, as a batch of one
    batch = identity_residuals(_stack(jets), spec)
    for k, jet in enumerate(jets):
        alone = identity_residuals(_stack([jet]), spec)
        assert alone.codazzi[0] == batch.codazzi[k]
        assert alone.uiia[0] == batch.uiia[k]
        assert alone.admissible[0] == batch.admissible[k]
        if batch.admissible[k]:
            assert alone.phi[0] == batch.phi[k]


SUMMANDS = st.one_of(
    st.floats(-1e300, 1e300),
    st.builds(math.ldexp, st.integers(-8, 8).map(float), st.integers(-60, 60)),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(SUMMANDS, min_size=1, max_size=6))
@example([1.0, 2.0**-53, 2.0**-106])  # a tie broken by a lower part
@example([1.0, 2.0**-53, -(2.0**-106)])
@example([-0.0, -0.0])
def test_fsum_matches_math_fsum(terms):
    got = _fsum([np.array([t]) for t in terms])
    assert got.tobytes() == np.array([math.fsum(terms) + 0.0]).tobytes()


def _k_and_psi(jet, spec):
    gauss = curvature_matrix(jet).gauss
    return gauss, weighted_curvature(spec, jet.grad_norm**2, gauss)


def _translated(field, offset):
    """v(x) = u(x - offset) as a PolyField, by Taylor expansion about the origin."""
    return PolyField(field.dim, {
        alpha: field.partial(alpha).evaluate(-offset) / math.prod(map(math.factorial, alpha))
        for alpha in _multi_indices(field.dim, MAX_DEGREE)
    })


@settings(max_examples=200, derandomize=True, deadline=None)
@given(origin_jets(), SPECS, st.data())
def test_k_and_psi_invariant_under_rotation(jet, spec, data):
    n = jet.dim
    q, r = np.linalg.qr(np.reshape(data.draw(st.lists(COEFF, min_size=n * n, max_size=n * n)),
                                   (n, n)))
    assume(np.min(np.abs(np.diag(r))) > 0.1)
    for got, want in zip(_k_and_psi(rotate_jet(jet, q), spec), _k_and_psi(jet, spec)):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(origin_fields(), SPECS, st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4))
def test_k_and_psi_invariant_under_translation(field, spec, offset):
    offset = np.array(offset[: field.dim])
    moved = _translated(field, offset).jet(offset, order=3)
    origin = field.jet(np.zeros(field.dim), order=3)
    for got, want in zip(_k_and_psi(moved, spec), _k_and_psi(origin, spec)):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


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


def _typed(value):
    """The value with every leaf paired with its type, so 1.0 and 1 (or True) differ."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return (type(value), value)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.dictionaries(st.text(max_size=8), REPORT_VALUES, max_size=6))
def test_report_round_trip(report):
    text = render_json(report)
    assert _typed(json.loads(text)) == _typed(report)
    assert render_json(json.loads(text)) == text


# valid configs that between them hold every kind of object node
VALID_CONFIGS = [
    {
        "command": "check-theorem",
        "problem": {
            "equation": "semilinear",
            "geometry": {
                "kind": "ring2d",
                "outer": {"kind": "ellipse", "rx": 2.4, "ry": 2.0, "center": [0.0, 0.0]},
                "inner": {"kind": "circle", "radius": 1.0},
                "grid": [5, 8],
            },
            "boundary": {"outer": {"samples": [0.0] * 8}, "inner": "constant:1"},
            "rhs": {"name": "linear-u", "scale": 1.0},
        },
        "spec": {"kind": "poisson-power", "power": -2.0},
        "checks": ["min"],
        "tolerances": {"c_tol": 1.0},
    },
    {"command": "jet-verify", "options": {"fields": 3, "dims": [2]}},
    {
        "command": "solve",
        "problem": {"equation": "minimal",
                    "geometry": {"kind": "radial", "n": 3, "a": 2.0, "b": 4.0}},
        "spec": {"kind": "minimal-theta", "theta": -0.5},
    },
]

SCHEMA_KEYS = {
    "command", "problem", "spec", "checks", "grids", "seed", "tolerances", "output", "options",
    "equation", "geometry", "boundary", "rhs", "kind", "outer", "inner", "grid", "center",
    "radius", "rx", "ry", "n", "a", "b", "samples", "name", "scale", "theta", "power",
    "c_tol", "tol_abs", "solver_tol", "corollary_rel", "fields", "dims", "instances",
}


def _object_nodes(node):
    if isinstance(node, dict):
        yield node
        for value in node.values():
            yield from _object_nodes(value)


@pytest.mark.parametrize("cfg", VALID_CONFIGS, ids=lambda c: c["command"])
def test_valid_configs_parse(cfg):
    parse_config(copy.deepcopy(cfg))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_unknown_config_key_is_named(data):
    cfg = copy.deepcopy(data.draw(st.sampled_from(VALID_CONFIGS)))
    node = data.draw(st.sampled_from(list(_object_nodes(cfg))))
    key = data.draw(st.text(max_size=8).filter(lambda k: k not in SCHEMA_KEYS))
    node[key] = 1
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg)
    assert repr(key) in str(exc.value)
