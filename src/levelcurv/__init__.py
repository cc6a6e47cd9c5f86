"""Curvature of convex level sets: solvers, identity checks, boundary-extremum verdicts."""

from .checks import (
    check_extremum_on_boundary,
    check_gradient_monotonicity,
    check_harmonic_psi_2d,
    convergence_study,
    corollary_bound_minimal,
    corollary_bound_poisson,
    report_entry,
)
from .errors import (
    ConfigError,
    DegenerateChart,
    DidNotConverge,
    ExhaustedResampling,
    GradientTooSmall,
    HypothesisViolated,
    InvalidInstance,
    LevelCurvError,
    NonpositiveCurvature,
    NoSolution,
    NotAMinimalJet,
    OutOfDomain,
    TooCloseToBoundary,
    TooCoarse,
)
from .geometry import (
    CatenoidPoint,
    Convexity,
    CurvatureData,
    Jet,
    LevelSetFrame,
    TestFunctionSpec,
    align_frame,
    catenoid_oracle,
    convexity_classify,
    curvature_matrix,
    graph_curvature_matrix,
    level_set_normal,
    log_weighted_curvature,
    make_jet,
    rotate_jet,
    second_fundamental_h,
    weighted_curvature,
)
from .identities import (
    CurvatureDerivatives,
    IdentityResiduals,
    QuadraticBoundInstance,
    QuadraticBoundResult,
    codazzi_residual,
    curvature_derivatives,
    identity_residuals,
    lb_psi_residual_2d,
    lemma_quadratic_bound,
    minimal_master_identity_residual,
    phi_gradient_identity_residual,
    quadratic_max_oracle,
    random_quadratic_instances,
    uiia_residual,
)
from .polyfield import PolyField, RandomJets, random_test_jet, random_test_jets
from .radial import solve_minimal_radial, solve_semilinear_radial
from .rhs import (
    RHSFlags,
    SemilinearRHS,
    admissibility_check,
    inverse_square_rhs,
    linear_u_rhs,
    zero_rhs,
)
from .ring2d import (
    Circle,
    Ellipse,
    RingDomain2D,
    solve_minimal_ring2d,
    solve_semilinear_ring2d,
)
from .solution import RingSolution

__version__ = "0.1.0"
