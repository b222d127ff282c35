"""Space-time spectral solver and verification suite for the
time-periodic forced viscous Burgers equation on T x (0, 1)."""

from .errors import ConfigError, SolverError, StburgersError
from .fields import (
    Basis,
    BasisMismatchError,
    GridField,
    ResolutionError,
    SpectralField,
    product_cosine,
    random_field,
    set_mode,
    to_grid,
    to_spectral,
    truncate,
    zeros,
)
from .operators import (
    apply_L,
    apply_S,
    apply_T,
    apply_T_prime,
    d_t,
    d_x,
    d_xx,
    half_derivative,
    half_derivative_adjoint,
    hilbert,
    inner,
    invert_L,
    linear_symbol,
    p_transform,
)
from .norms import (
    ForcingDecomposition,
    NormReport,
    aniso_norm,
    apriori_bound,
    decompose_forcing,
    dual_norm,
    energy_gap,
    gn_probe,
    gn_ratio,
    interpolation_slack,
    l4_norm,
    norm_report,
    outer_shell_weight,
)
from .solver import (
    ContinuationError,
    LinearSolveError,
    SolveReport,
    SolverConfig,
    homotopy_solve,
    newton_solve,
    solve_linear,
    solve_linearized,
)
from .colehopf import (
    NonpositivePhiError,
    NotInS1Error,
    PeriodMap,
    S2Element,
    S3Element,
    antiderivative_x,
    chain_rule_defect,
    lift_s1_to_s2,
    monodromy_leading_pair,
    s2_to_s3,
    s3_to_s2,
    verify_uniqueness,
)
from .scaling import PhysicalField, PhysicalProblem, denormalize, normalize
from .verify import InvariantResult, VerifyConfig, run_suite

__version__ = "0.1.0"
