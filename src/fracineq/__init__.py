"""fracineq: fractional-calculus operators on an interval and numerical
certificates for the Sobolev / Hardy / Gagliardo-Nirenberg / CKN inequality
families they satisfy, plus a space-fractional diffusion simulator with its
a-priori energy estimate.

Main entry points:

* grids: :func:`uniform_grid`, :class:`GridFn`, :func:`norm`
* operators: :func:`rl_integral`, :func:`caputo_derivative`,
  :func:`rl_derivative`, :func:`right_rl_derivative`,
  :func:`hadamard_integral`, :func:`hadamard_derivative`,
  :func:`sequential_caputo`
* inequality certificates: :class:`InequalityCase`, :func:`constant`,
  :func:`evaluate_sides`, :func:`sweep`
* corpus: :class:`CorpusSpec`, :func:`generate`, :func:`sharpness_search`
* diffusion: :class:`DiffusionProblem`, :func:`run`, :func:`check_apriori`
"""

from .errors import (
    ConvergenceError,
    DomainError,
    EvalError,
    FracineqError,
    HypothesisError,
    NumericError,
    ParamError,
    ParseError,
    SizeError,
    SolveError,
)
from .grids import Grid, GridFn, NormKind, norm, refine, uniform_grid
from .special import conjugate, gamma_fn, holder_denominator
from .quadrature import (
    reference_caputo,
    reference_hadamard_derivative,
    reference_hadamard_integral,
    reference_integral,
    reference_rl_integral,
)
from .operators import (
    OperatorMatrix,
    caputo_derivative,
    from_log_grid,
    hadamard_derivative,
    hadamard_integral,
    hadamard_integral_direct,
    log_companion_grid,
    operator_matrix,
    reflect,
    right_rl_derivative,
    rl_derivative,
    rl_integral,
    sequential_caputo,
    to_log_grid,
)
from .inequalities import (
    Certificate,
    Family,
    InequalityCase,
    SweepCell,
    constant,
    evaluate_sides,
    sobolev_beta_statement_constant,
    sweep,
    validate_case,
)
from .expressions import eval_expr, parse_expr, pretty
from .corpus import CorpusSpec, SharpnessResult, generate, sharpness_search
from .diffusion import (
    AprioriReport,
    DiffusionProblem,
    EnergyTrace,
    assemble_stiffness,
    check_apriori,
    decay_rate,
    mass_diagonal,
    run,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FracineqError", "DomainError", "ParamError", "HypothesisError",
    "ParseError", "EvalError", "ConvergenceError", "SolveError", "NumericError",
    "SizeError",
    # grids
    "Grid", "GridFn", "NormKind", "uniform_grid", "refine", "norm",
    # special
    "gamma_fn", "conjugate", "holder_denominator",
    # oracle quadrature
    "reference_integral", "reference_rl_integral", "reference_caputo",
    "reference_hadamard_integral", "reference_hadamard_derivative",
    # operators
    "OperatorMatrix", "operator_matrix", "rl_integral", "rl_derivative",
    "caputo_derivative", "right_rl_derivative", "sequential_caputo",
    "hadamard_integral", "hadamard_derivative", "hadamard_integral_direct",
    "log_companion_grid", "to_log_grid", "from_log_grid", "reflect",
    # inequalities
    "Family", "InequalityCase", "Certificate", "SweepCell", "validate_case",
    "constant", "sobolev_beta_statement_constant", "evaluate_sides", "sweep",
    # corpus
    "CorpusSpec", "generate", "sharpness_search", "SharpnessResult",
    "parse_expr", "eval_expr", "pretty",
    # diffusion
    "DiffusionProblem", "EnergyTrace", "AprioriReport", "decay_rate",
    "assemble_stiffness", "mass_diagonal", "step", "run", "check_apriori",
]
