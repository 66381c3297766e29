"""Odd T-periodic solutions of u'' + g(u) = k(t).

The linear part u -> u'' is resonant on generic periodic functions but
invertible on the odd subspace, where the equation becomes the fixed-point
problem u = inverse(k - g(u)).  This package represents that subspace as
truncated sine series, inverts the linear part exactly per mode, and finds
fixed points by certified Picard iteration (contraction regime
sup|g'| < 2/T^2) or by scaling continuation (sublinear regime, with explicit
a-priori bounds).  An independent Runge-Kutta/shooting oracle verifies every
answer against the original differential equation.
"""

from .funcspace import (
    EvenPeriodicFunction,
    OddPeriodicFunction,
    OddSymmetryError,
    differentiate,
    from_samples,
    grid_samples,
    mean,
    odd_symmetry_defect,
    sup_norm,
)
from .operators import (
    NonFiniteNonlinearityError,
    fixed_point_map,
    inverse_norm_bound,
    invert_second_derivative,
    nonlinear_rhs,
)
from .oracle import (
    BlowUpError,
    CrossValidation,
    OracleInconclusiveError,
    ShootingResult,
    Trajectory,
    cross_validate,
    integrate_ivp,
    ode_residual,
    pointwise_residual,
    shoot,
    shooting_distances,
)
from .problems import (
    FAMILIES,
    MAX_MODES,
    Nonlinearity,
    Problem,
    ProblemError,
    builtin,
    make_problem,
    parse_problem,
)
from .solver import (
    CertificateError,
    ContractionCertificate,
    MajorantError,
    ProbeResult,
    SolveReport,
    apriori_bound,
    certify,
    solve,
    solve_continuation,
    solve_many,
    solve_picard,
    uniqueness_probe,
)

__version__ = "0.1.0"
