import numpy as np
import pytest

import levelcurv.cli as cli
from levelcurv.config import parse_config
from levelcurv.errors import InvalidInstance
from levelcurv.identities import (
    QuadraticBoundInstance,
    QuadraticBoundResult,
    lemma_quadratic_bound,
    quadratic_max_oracle,
    random_quadratic_instances,
)


def _random_suite_check(seed: int, instances: int) -> dict:
    report, _ = cli.run(parse_config({"command": "lemma32", "seed": seed,
                                      "options": {"instances": instances}}))
    return next(c for c in report["checks"] if c["name"] == "lemma32:random-suite")


class TestWorkedInstances:
    def test_free_instance(self):
        inst = QuadraticBoundInstance(0.0, 1.0, np.array([1.0]), np.array([1.0]))
        res = lemma_quadratic_bound(inst)
        assert res.gamma == pytest.approx([1.0])
        assert res.bound == pytest.approx([4.0])
        # Q(X) = -X^2 + 4X peaks at X = 2 with value 4
        assert quadratic_max_oracle(inst) == pytest.approx([4.0], abs=1e-12)
        assert inst.q(np.array([2.0])) == pytest.approx([4.0])

    def test_coupled_instance(self):
        inst = QuadraticBoundInstance(1.0, 1.0, np.array([1.0]), np.array([1.0]))
        res = lemma_quadratic_bound(inst)
        assert res.gamma == pytest.approx([0.5])
        assert res.bound == pytest.approx([2.0])
        assert quadratic_max_oracle(inst) == pytest.approx([2.0], abs=1e-12)
        assert inst.q(np.array([1.0])) == pytest.approx([2.0])

    def test_zero_mu(self):
        inst = QuadraticBoundInstance(0.5, 0.0, np.array([1.0, 2.0]), np.array([1.0, -1.0]))
        res = lemma_quadratic_bound(inst)
        assert res.bound.tolist() == [0.0]
        assert quadratic_max_oracle(inst)[0] <= 1e-15

    def test_batch_holds_the_worked_instances(self):
        inst = QuadraticBoundInstance([0.0, 1.0], [1.0, 1.0], [[1.0], [1.0]], [[1.0], [1.0]])
        res = lemma_quadratic_bound(inst)
        assert res.gamma.tolist() == [1.0, 0.5]
        assert res.bound.tolist() == [4.0, 2.0]
        assert quadratic_max_oracle(inst) == pytest.approx([4.0, 2.0], abs=1e-12)


class TestRandomSuite:
    def test_bound_dominates_maximum(self):
        worst = max(
            np.max(quadratic_max_oracle(inst) - lemma_quadratic_bound(inst).bound)
            for inst in random_quadratic_instances(np.random.default_rng(7), 200)
        )
        assert worst <= 1e-9

    def test_bound_is_attained(self):
        # the stationarity maximum always equals the bound, not just below it
        for inst in random_quadratic_instances(np.random.default_rng(17), 50):
            bound = lemma_quadratic_bound(inst).bound
            scale = 1.0 + np.abs(bound)
            assert np.all(np.abs(quadratic_max_oracle(inst) - bound) <= 1e-9 * scale)

    def test_draws_grouped_by_size_in_draw_order(self):
        # seed 7: the 200 sizes come first, then lam, mu, b and c of each size in turn
        batches = random_quadratic_instances(np.random.default_rng(7), 200)
        assert [inst.b.shape for inst in batches] == [
            (33, 1), (26, 2), (36, 3), (40, 4), (28, 5), (37, 6)
        ]
        first_m6, first_m4, last_m5 = batches[5], batches[3], batches[4]
        assert (first_m6.lam[0], first_m6.mu[0]) == (2.4900695948826455, 0.5882342873009971)
        assert (first_m6.b[0, -1], first_m6.c[0, -1]) == (2.016416919333406, -0.22134211605699416)
        assert (first_m4.lam[0], first_m4.mu[0]) == (0.19974223432246063, -0.5108783573195588)
        assert (first_m4.b[0, -1], first_m4.c[0, -1]) == (2.377505371111853, 2.1964579656544014)
        assert last_m5.lam[-1] == 2.3344828388158656

    def test_rows_match_batch_of_one(self):
        # each batch row carries the bits it has when evaluated on its own
        for inst in random_quadratic_instances(np.random.default_rng(7), 200):
            res, oracle = lemma_quadratic_bound(inst), quadratic_max_oracle(inst)
            for k in range(inst.lam.shape[0]):
                one = QuadraticBoundInstance(inst.lam[k], inst.mu[k], inst.b[k], inst.c[k])
                res_one = lemma_quadratic_bound(one)
                assert res_one.gamma.tolist() == [res.gamma[k]]
                assert res_one.bound.tolist() == [res.bound[k]]
                assert quadratic_max_oracle(one).tolist() == [oracle[k]]

    @pytest.mark.parametrize("seed, excess", [(0, 1.9895196601282805e-13),
                                              (1, 2.2737367544323206e-13)],
                             ids=["0", "1"])
    def test_report_excess_is_pinned(self, seed, excess):
        # the excess the report carries at 2000 instances
        check = _random_suite_check(seed, 2000)
        assert check["excess"] == excess
        assert check["pass"] is True

    def test_shrunk_bound_fails(self, monkeypatch, tmp_path):
        # negative control: the bound is attained, so shrinking it by 1e-6 must fail
        def shrunk(inst):
            res = lemma_quadratic_bound(inst)
            return QuadraticBoundResult(gamma=res.gamma, bound=res.bound * (1 - 1e-6))

        monkeypatch.setattr(cli, "lemma_quadratic_bound", shrunk)
        assert _random_suite_check(0, 2000)["pass"] is False
        assert cli.main(["lemma32", "--out", str(tmp_path / "run"), "--quiet"]) == 1


class TestValidation:
    def test_negative_lambda(self):
        with pytest.raises(InvalidInstance, match="lambda must be >= 0, got -0.1"):
            QuadraticBoundInstance(-0.1, 1.0, np.array([1.0]), np.array([1.0]))

    def test_nonpositive_b(self):
        with pytest.raises(InvalidInstance, match="all b_i must be positive"):
            QuadraticBoundInstance(0.0, 1.0, np.array([0.0]), np.array([1.0]))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInstance, match="b and c must have the same length"):
            QuadraticBoundInstance(0.0, 1.0, np.array([1.0, 2.0]), np.array([1.0]))

    def test_one_bad_row_rejects_the_batch(self):
        with pytest.raises(InvalidInstance, match="lambda must be >= 0, got -2"):
            QuadraticBoundInstance([0.5, -2.0], [1.0, 1.0], [[1.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(InvalidInstance, match="all b_i must be positive"):
            QuadraticBoundInstance([0.5, 1.0], [1.0, 1.0], [[1.0], [-1.0]], [[1.0], [1.0]])

    def test_row_count_mismatch(self):
        with pytest.raises(InvalidInstance, match="one value per row"):
            QuadraticBoundInstance([0.5, 1.0], [1.0], [[1.0], [1.0]], [[1.0], [1.0]])

    def test_near_singular_row_is_rejected(self):
        # the maximizer X_i = 2 mu c_i / b_i runs off to X_1 = 3e9: the maximum and
        # the bound are both 9.0e8, out of reach of a bounded search
        inst = QuadraticBoundInstance(0.0, 0.5, np.array([1e-10, 1.0]), np.array([0.3, -0.2]))
        bound = lemma_quadratic_bound(inst).bound[0]
        assert bound == pytest.approx(9.0e8 + 0.04, rel=1e-12)
        assert inst.q(np.array([[3e9, -0.2]]))[0] == pytest.approx(bound, rel=1e-12)
        with pytest.raises(InvalidInstance, match=r"row 0: min b_i = 1e-10 < 1e-8"):
            quadratic_max_oracle(inst)

    @pytest.mark.parametrize("order, row", [((0, 1), 0), ((1, 0), 1)], ids=["first", "second"])
    def test_near_singular_row_is_named_in_its_batch(self, order, row):
        # b = 1e-20 makes diag(b) + lam 1 1^T exactly singular in floating point
        lam, mu = np.array([2.0, 0.7]), np.array([0.5, -1.3])
        b, c = np.array([[1e-20, 1e-20], [0.4, 2.5]]), np.array([[0.3, -0.2], [1.1, 0.6]])
        order = list(order)
        inst = QuadraticBoundInstance(lam[order], mu[order], b[order], c[order])
        with pytest.raises(InvalidInstance, match=rf"row {row}: min b_i = 1e-20 < 1e-8"):
            quadratic_max_oracle(inst)

    def test_empty_instance(self):
        inst = QuadraticBoundInstance(1.0, 2.0, np.array([]), np.array([]))
        res = lemma_quadratic_bound(inst)
        assert res.bound.tolist() == [0.0]
        assert quadratic_max_oracle(inst).tolist() == [0.0]
