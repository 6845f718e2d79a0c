import re
from pathlib import Path

import fracineq
from fracineq import corpus, diffusion, errors, expressions, grids, inequalities, operators
from fracineq import quadrature, report, special

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
MODULES = (errors, grids, special, quadrature, operators, inequalities, expressions, corpus,
           diffusion)


def test_version_is_the_pyproject_version():
    (version,) = re.findall(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert fracineq.__version__ == version
    assert report.VERSION is fracineq.__version__


def test_namespace_is_the_union_of_the_module_lists():
    names = fracineq.__all__
    assert len(names) == len(set(names))
    assert names == ["__version__"] + [name for m in MODULES for name in m.__all__]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fracineq, name) is getattr(module, name), name


def test_each_error_class_states_its_exit_code():
    codes = {name: getattr(errors, name).exit_code for name in errors.__all__}
    assert codes == {
        "FracineqError": 4, "DomainError": 3, "ParamError": 3, "HypothesisError": 3,
        "ParseError": 3, "EvalError": 3, "ConvergenceError": 4, "SolveError": 4,
        "NumericError": 4, "SizeError": 3,
    }
