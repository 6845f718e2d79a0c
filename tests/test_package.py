import os
import re
import subprocess
import sys
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


def scipy_modules_after(code: str) -> str:
    # the scipy modules loaded once ``code`` has run in a fresh interpreter
    code += "; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(fracineq.__file__).parent.parent)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src)).stdout


def test_import_loads_no_scipy():
    # scipy is loaded by the first diffusion solve or reference quadrature, not on import
    assert scipy_modules_after("import sys, fracineq, fracineq.cli") == "[]\n"


def test_sharpness_search_loads_no_scipy():
    # the paths of the search: singular values for L^2 right norms (hardy and
    # Gagliardo-Nirenberg at p = q = 2), Boyd's iteration for an L^1.5 left side,
    # Newton power steps for a sup left side over an L^4 right side (sobolev-beta),
    # and the minorize-maximize loop of a product over L^2 norms (ckn at p = q = 2)
    # and over an L^3 norm (ckn at q = 3)
    cases = ["Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=2.0",
             "Family.GAGLIARDO_NIRENBERG, a=1.0, b=2.0, alpha=0.75, p=2.0, q=2.0, s=0.5",
             "Family.POINCARE_SOBOLEV_LQ, a=1.0, b=2.0, alpha=0.6, p=2.0, theta=1.5",
             "Family.SOBOLEV_BETA, a=1.0, b=2.0, alpha=0.85, beta=0.0, p=4.0",
             "Family.CKN, a=1.0, b=2.0, alpha=0.9, p=2.0, q=2.0, delta=0.5, d=0.8, e=0.3",
             "Family.CKN, a=1.0, b=2.0, alpha=0.9, p=2.0, q=3.0, delta=0.5, d=0.8, e=0.3"]
    code = "import sys; from fracineq import Family, InequalityCase, sharpness_search" + "".join(
        f"; sharpness_search(InequalityCase({case}), budget=10, grid_n=64)" for case in cases)
    assert scipy_modules_after(code) == "[]\n"
