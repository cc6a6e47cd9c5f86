import numpy as np

from levelcurv.rhs import (
    SemilinearRHS,
    admissibility_check,
    inverse_square_rhs,
    linear_u_rhs,
    zero_rhs,
)

BOX = np.array([[-0.5, 0.5], [-0.5, 0.5]])


class TestNamedForms:
    def test_linear_u_flags(self):
        flags = admissibility_check(linear_u_rhs(1.0), BOX)
        assert flags.nonnegative
        assert flags.f_u_nonneg
        assert flags.f0_zero
        assert flags.f_of_u_only
        assert not flags.f_of_x_only

    def test_negative_constant_rejected(self):
        rhs = SemilinearRHS(
            name="minus-one",
            f=lambda x, u: np.full_like(np.asarray(u, dtype=float), -1.0),
            f_u=lambda x, u: np.zeros_like(np.asarray(u, dtype=float)),
        )
        flags = admissibility_check(rhs, BOX)
        assert not flags.nonnegative
        assert not flags.t3f_convex  # needs f > 0

    def test_inverse_square_t3f_convex(self):
        # f = (2 + x1)^-2 has linear hence concave f^(-1/2)
        flags = admissibility_check(inverse_square_rhs(2.0), BOX)
        assert flags.nonnegative
        assert flags.f_of_x_only
        assert flags.t3f_convex

    def test_zero_rhs(self):
        flags = admissibility_check(zero_rhs(), BOX)
        assert flags.nonnegative
        assert flags.f_u_nonneg and flags.f_u_nonpos
        assert flags.f0_zero

    def test_non_convex_t3f_detected(self):
        # f(x) = exp(x1): f^(-1/2) = exp(-x1/2) is convex, not concave,
        # so t^3 f is not jointly convex
        rhs = SemilinearRHS(
            name="exp",
            f=lambda x, u: np.exp(np.atleast_2d(np.asarray(x, dtype=float))[:, 0]),
            f_u=lambda x, u: np.zeros_like(np.asarray(u, dtype=float)),
        )
        flags = admissibility_check(rhs, BOX)
        assert not flags.t3f_convex

    def test_decreasing_in_u_flagged(self):
        rhs = SemilinearRHS(
            name="decay",
            f=lambda x, u: 1.0 - 0.5 * np.asarray(u, dtype=float),
            f_u=lambda x, u: np.full_like(np.asarray(u, dtype=float), -0.5),
        )
        flags = admissibility_check(rhs, BOX)
        assert flags.f_u_nonpos
        assert not flags.f_u_nonneg
        assert not flags.f0_zero
