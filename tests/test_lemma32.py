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
        # values of the one-instance-at-a-time draw loop at seed 7 (draws 0, 1 and 199)
        batches = random_quadratic_instances(np.random.default_rng(7), 200)
        assert [inst.b.shape for inst in batches] == [
            (36, 1), (34, 2), (31, 3), (32, 4), (44, 5), (23, 6)
        ]
        first_m6, first_m4, last_m5 = batches[5], batches[3], batches[4]
        assert (first_m6.lam[0], first_m6.mu[0]) == (2.6916414029087266, 1.102742760980774)
        assert (first_m6.b[0, -1], first_m6.c[0, -1]) == (4.0056402008850265, 0.027289553747719797)
        assert (first_m4.lam[0], first_m4.mu[0]) == (1.6604920562234775, 1.9820011337375707)
        assert (first_m4.b[0, -1], first_m4.c[0, -1]) == (1.155012621354435, -2.785918327358423)
        assert last_m5.lam[-1] == 1.5953518536813482

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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_report_excess_is_pinned(self, seed):
        # the excess the one-instance-at-a-time evaluation reported at 2000 instances
        check = _random_suite_check(seed, 2000)
        assert check["excess"] == 2.2737367544323206e-13
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

    def test_grid_fallback_still_bounds(self):
        # near-singular quadratic form takes the dense-grid oracle path
        inst = QuadraticBoundInstance(
            0.0, 0.5, np.array([1e-10, 1.0]), np.array([0.3, -0.2])
        )
        res = lemma_quadratic_bound(inst)
        assert quadratic_max_oracle(inst)[0] <= res.bound[0] + 1e-9 * (1 + abs(res.bound[0]))

    def test_grid_fallback_only_on_its_rows(self):
        # b = 1e-20 makes diag(b) + lam 1 1^T exactly singular in floating point; that
        # row must not reach the solve, and the regular row keeps its own value
        inst = QuadraticBoundInstance([2.0, 0.7], [0.5, -1.3], [[1e-20, 1e-20], [0.4, 2.5]],
                                      [[0.3, -0.2], [1.1, 0.6]])
        oracle = quadratic_max_oracle(inst)
        bound = lemma_quadratic_bound(inst).bound
        assert oracle[0] <= bound[0] + 1e-9 * (1 + abs(bound[0]))
        regular = QuadraticBoundInstance(0.7, -1.3, [0.4, 2.5], [1.1, 0.6])
        assert oracle[1] == quadratic_max_oracle(regular)[0]

    def test_empty_instance(self):
        inst = QuadraticBoundInstance(1.0, 2.0, np.array([]), np.array([]))
        res = lemma_quadratic_bound(inst)
        assert res.bound.tolist() == [0.0]
        assert quadratic_max_oracle(inst).tolist() == [0.0]
