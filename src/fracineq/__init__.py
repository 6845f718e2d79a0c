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

The top-level namespace is ``__version__`` plus the union of the ``__all__``
lists of the modules below; each public name is declared once, in its module.
"""

__version__ = "0.1.0"

from .errors import *
from .grids import *
from .special import *
from .quadrature import *
from .operators import *
from .inequalities import *
from .expressions import *
from .corpus import *
from .diffusion import *

# importing a submodule binds it here, so each module's own list is at hand
__all__ = ["__version__"] + [
    name
    for module in (errors, grids, special, quadrature, operators, inequalities,
                   expressions, corpus, diffusion)
    for name in module.__all__
]
