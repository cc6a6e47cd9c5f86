import itertools

import numpy as np
import pytest

from levelcurv import polyfield
from levelcurv.errors import ExhaustedResampling
from levelcurv.geometry import make_jet
from levelcurv.polyfield import (
    MAX_DEGREE,
    PolyField,
    _multi_indices,
    _nondegenerate,
    random_test_jets,
)


def brute_partial(field, point, order, h=1e-4):
    """Central finite differences, the slow independent way."""
    if sum(order) == 0:
        return field.evaluate(point)
    axis = next(i for i, p in enumerate(order) if p)
    lower = list(order)
    lower[axis] -= 1
    e = np.zeros(field.dim)
    e[axis] = h
    return (
        brute_partial(field, np.asarray(point) + e, tuple(lower), h)
        - brute_partial(field, np.asarray(point) - e, tuple(lower), h)
    ) / (2 * h)


class TestPolyField:
    def test_evaluate(self):
        f = PolyField(2, {(0, 0): 1.0, (1, 0): 2.0, (1, 1): -3.0, (0, 2): 0.5})
        x = np.array([1.5, -2.0])
        assert f.evaluate(x) == pytest.approx(1 + 3.0 + 9.0 + 2.0)

    def test_exact_derivative_matches_finite_differences(self):
        f = random_test_jets([3], 3).field(0)
        p = np.array([0.2, -0.1, 0.3])
        for order in [(1, 0, 0), (0, 1, 1), (2, 0, 0), (1, 1, 1), (0, 0, 3)]:
            exact = f.partial(order).evaluate(p)
            approx = brute_partial(f, p, order, h=1e-3 if sum(order) > 2 else 1e-5)
            assert exact == pytest.approx(approx, rel=1e-4, abs=1e-4)

    def test_jet_symmetry_is_exact(self):
        f = random_test_jets([11], 3).field(0)
        jet = f.jet(np.array([0.1, 0.2, -0.3]), order=3)
        assert np.array_equal(jet.hess, jet.hess.T)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            assert np.array_equal(jet.third, np.transpose(jet.third, perm))

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            PolyField(2, {(3, 2): 1.0})

    def test_negation(self):
        f = random_test_jets([5], 2).field(0)
        g = -f
        p = np.array([0.3, 0.4])
        assert g.evaluate(p) == pytest.approx(-f.evaluate(p))

    def test_quadratic_field_jet(self):
        # u = grad . x + x^T hess x / 2 has the order-3 jet make_jet(grad, hess, 0)
        grad = np.array([1.0, -2.0])
        hess = np.array([[2.0, 0.5], [0.5, -1.0]])
        f = PolyField(2, {(1, 0): 1.0, (0, 1): -2.0, (2, 0): 1.0, (1, 1): 0.5, (0, 2): -0.5})
        jet = f.jet(np.zeros(2), order=3)
        assert np.allclose(jet.grad, grad)
        assert np.allclose(jet.hess, hess)
        assert np.allclose(jet.third, 0.0)
        want = make_jet(grad, hess, np.zeros((2, 2, 2)))
        for got, ref in zip((jet.grad, jet.hess, jet.third), (want.grad, want.hess, want.third)):
            assert got.tobytes() == ref.tobytes()


class TestRandomTestJet:
    def test_deterministic(self):
        f1 = random_test_jets([1], 2).field(0)
        f2 = random_test_jets([1], 2).field(0)
        assert f1.coeffs == f2.coeffs

    def test_valid_field(self):
        f = random_test_jets([1], 2).field(0)
        jet = f.jet(np.zeros(2), order=2)
        assert jet.grad_norm >= 0.1

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            random_test_jets([2], 5)

    def test_negative_seed(self):
        # default_rng rejects it too; the config parser stops it earlier
        with pytest.raises(ValueError, match="nonnegative"):
            random_test_jets([3, -1], 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nondegenerate_curvature(self, n):
        from levelcurv.geometry import align_frame

        for seed in range(5):
            f = random_test_jets([seed], n).field(0)
            jet = f.jet(np.zeros(n), order=2)
            aj = align_frame(jet).aligned_jet
            a_pre = -aj.hess[: n - 1, : n - 1] / aj.grad[-1]
            assert abs(np.linalg.det(a_pre)) >= 1e-4


def reference_draw(seed, n):
    """One field's draw loop: redraw from default_rng(seed) until nondegenerate.

    Returns the accepted coefficients and the number of draws it took.
    """
    rng = np.random.default_rng(seed)
    indices = _multi_indices(n, MAX_DEGREE)
    for draws in itertools.count(1):
        values = rng.uniform(-1.0, 1.0, size=len(indices))
        field = PolyField(n, dict(zip(indices, values)))
        if _nondegenerate(field.jet(np.zeros(n), order=2)):
            return values, draws


class TestRandomTestJets:
    # seed 54 at n=2 is rejected on its first draw
    SEEDS = range(60)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coefficients_match_the_per_seed_draw(self, n):
        batch = random_test_jets(self.SEEDS, n)
        draws = []
        for row, seed in enumerate(self.SEEDS):
            values, count = reference_draw(seed, n)
            draws.append(count)
            assert batch.coeffs[row].tobytes() == values.tobytes()
            single = random_test_jets([seed], n).field(0)
            assert list(single.coeffs) == _multi_indices(n, MAX_DEGREE)
            assert np.array(list(single.coeffs.values())).tobytes() == values.tobytes()
        if n == 2:
            assert draws[54] > 1

    # SeedSequence hashes a seed's little-endian uint32 words: one word below
    # 2^32, two from 2^32, three from 2^64, and from 2^128 more than its pool
    # of four, where it runs an extra mixing loop
    BOUNDARY_SEEDS = [2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5]
    # seed 2^32 + 5 is rejected on its first draw at n=2 and n=3
    STRADDLE = range(2**32 - 30, 2**32 + 30)

    @pytest.mark.parametrize("seeds", [BOUNDARY_SEEDS, STRADDLE], ids=["boundary", "straddle"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_word_boundary_seeds_match_the_per_seed_draw(self, n, seeds):
        batch = random_test_jets(seeds, n)
        draws = []
        for row, seed in enumerate(seeds):
            values, count = reference_draw(seed, n)
            draws.append(count)
            assert batch.coeffs[row].tobytes() == values.tobytes()
            assert random_test_jets([seed], n).coeffs[0].tobytes() == values.tobytes()
        if seeds == self.STRADDLE and n < 4:
            assert draws[seeds.index(2**32 + 5)] > 1

    def test_exhausted_resampling_names_the_first_seed(self, monkeypatch):
        # |grad| at the origin is at most sqrt(n) for coefficients in [-1, 1]
        monkeypatch.setattr(polyfield, "MIN_GRAD", 10.0)
        with pytest.raises(ExhaustedResampling, match=r"1000 draws \(seed=4294967295, n=2\)"):
            random_test_jets([2**32 - 1, 2**32, 7], 2)
