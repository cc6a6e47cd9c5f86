"""The CSV float formatter against "%.17g" itself, byte for byte."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcurv.report import _DECADES, _POW10, _csv_lines, _fields


def _assert_prints_like_printf(values):
    values = np.asarray(values, dtype=float)
    for start in range(0, values.size, 50_000):  # bounds the formatter's scratch memory
        chunk = values[start:start + 50_000]
        got = _csv_lines(_fields(chunk[:, None])).split(b"\n")[:-1]
        want = [b"%.17g" % x for x in chunk.tolist()]
        if got != want:
            bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            pytest.fail(f"{chunk[bad]!r} printed {got[bad]!r}, '%.17g' gives {want[bad]!r}")


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_double_prints_like_printf(x):
    _assert_prints_like_printf([x])


def test_a_million_seeded_values_print_like_printf():
    rng = np.random.default_rng(17)
    n = 200_000
    # m / 2**k with m odd and m * 5**k of 18 digits: an exact tie at the 17th digit
    k = rng.integers(2, 26, n)
    m_lo = np.ceil(1e17 / 5.0**k)
    m_hi = np.minimum(1e18 / 5.0**k, 2.0**53)
    m = np.floor(m_lo + rng.random(n) * (m_hi - m_lo)).astype(np.int64) | 1
    _assert_prints_like_printf(np.concatenate([
        rng.normal(size=n),
        rng.uniform(0.0, 10.0, n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-40.0, 45.0, n),
        rng.choice([-1.0, 1.0], n) * m / 2.0**k,
        rng.integers(-10**17, 10**17, n).astype(float),
    ]))


def _edges():
    values = [0.0, 5e-324, sys.float_info.max, 1e16, 1e17]
    for k in range(-5, 19):
        p = float(f"1e{k}")
        values += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
    # below their power of ten, yet printed as it: 17 digits round up into the next decade
    values += [1e-14, 1e-70, 1e-305]
    return values + [-v for v in values]


def test_edge_values_print_like_printf():
    assert all(Fraction(float(f"1e-{k}")) < Fraction(1, 10**k) for k in (14, 70, 305))
    _assert_prints_like_printf(_edges())


def test_digit_tables_are_exact():
    assert [Fraction(p) for p in _POW10] == [Fraction(10)**k for k in range(len(_POW10))]
    # _DECADES[i] is the smallest double >= 10**(i - 4)
    for e, d in zip(range(-4, 17), _DECADES):
        assert Fraction(math.nextafter(d, 0.0)) < Fraction(10)**e <= Fraction(d)
        # the largest double below 10**e keeps its 17 digits in decade e - 1
        assert not ("%.17g" % math.nextafter(d, 0.0)).startswith("1")
