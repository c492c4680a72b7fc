"""Numerics for integral operators with memory kernels, the variational
calculus built on them, and a spectral solver for the associated
two-point eigenvalue problems."""

from .errors import (
    AccuracyError,
    CoercivityError,
    ConfigurationError,
    DegeneracyError,
    DomainError,
    FracvarError,
    InputError,
    NumericError,
    ParseError,
)
from .foundation import (
    Grid,
    SampledFunction,
    SymmetricMatrix,
    cumulative_trapezoid,
    erfc,
    gamma,
    interior_slice,
    interior_sup,
    mittag_leffler,
    singular_weights,
    symmetric_eigen,
    trapezoid,
)
from .operators import (
    ClassicalOp,
    CornerExtrapolationWarning,
    DifferenceKernel,
    GeneralKernel,
    HadamardKernel,
    IBPReport,
    Kernel,
    OperatorBinding,
    ParameterSet,
    PowerLawKernel,
    a_apply,
    b_apply,
    boundedness_constant,
    classical,
    dual,
    k_apply,
    verify_ibp,
    verify_semigroup,
)
from .variational import (
    IsoperimetricReport,
    Lagrangian,
    NoetherGenerator,
    NoetherReport,
    VariationalProblem,
    dissipative_parameter,
    el_residual,
    evaluate_functional,
    isoperimetric_residual,
    natural_bc_residual,
    noether_drift,
)
from .sturm_liouville import (
    ConvergenceReport,
    MinimizeOptions,
    MinimizeResult,
    ProbeReport,
    RitzBasis,
    SLProblem,
    Spectrum,
    assemble,
    coercivity_probe,
    converge,
    direct_minimize,
    rayleigh_quotient,
    sl_residual,
    solve_spectrum,
)
from .experiments import (
    Assertion,
    ExperimentConfig,
    ResultRecord,
    list_experiments,
    parse_config,
    run,
)

__version__ = "0.1.0"
