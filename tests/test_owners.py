"""One owner for each scalar-module decision, read from the package source.

``gaussian.scalar_module`` alone holds a module's variance at
``POSTERIOR_VARIANCE_FLOOR``, for the channels' modules and the priors'
alike, and ``InputPrior.denoise`` alone picks a prior's module by mode: no
prior class defines ``denoise`` or reads the mode.  ``blas`` alone binds
the OpenBLAS thread counts and ``engine`` alone pins them, once per solve;
no module reads the environment.  ``engine`` alone makes the solve's worker
and ``slm._pair`` alone hands it work.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "glmamp"


def _names(tree):
    """Every name ``tree`` reads, imports, defines or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg


def test_only_gaussian_reads_the_posterior_variance_floor():
    readers = {p.name for p in sorted(PACKAGE.glob("*.py"))
               if "POSTERIOR_VARIANCE_FLOOR" in _names(ast.parse(p.read_text()))}
    assert readers == {"gaussian.py"}


def test_only_the_base_prior_dispatches_on_the_mode():
    tree = ast.parse((PACKAGE / "priors.py").read_text())
    classes = {node.name: set(_names(node)) for node in tree.body
               if isinstance(node, ast.ClassDef)}
    assert {"InputPrior", "GaussianPrior", "BernoulliGaussianPrior",
            "LaplacePrior"} <= set(classes)
    assert {"denoise", "Mode", "mode"} <= classes.pop("InputPrior")
    assert {name: names & {"denoise", "Mode", "mode"} for name, names in classes.items()
            if names & {"denoise", "Mode", "mode"}} == {}


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def test_only_blas_names_the_openblas_thread_functions():
    namers = {name for name, tree in _trees().items()
              if any("num_threads" in node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))
              or any("num_threads" in n for n in _names(tree))}
    assert namers == {"blas.py"}


def test_only_engine_pins_the_blas_threads():
    callers = {name for name, tree in _trees().items()
               if any(isinstance(node, ast.Call) and "one_thread" in _names(node.func)
                      for node in ast.walk(tree))}
    assert callers == {"engine.py"}


def test_no_module_reads_the_environment():
    assert {name for name, tree in _trees().items()
            if {"environ", "getenv", "environb", "getenvb"} & set(_names(tree))} == set()


def test_only_engine_makes_the_worker():
    assert {name for name, tree in _trees().items()
            if "ThreadPoolExecutor" in _names(tree)} == {"engine.py"}


def _submits(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "submit"]


def test_only_pair_hands_the_worker_work():
    submits = {name: len(_submits(tree)) for name, tree in _trees().items() if _submits(tree)}
    assert submits == {"slm.py": 1}
    pair, = [node for node in _trees()["slm.py"].body
             if isinstance(node, ast.FunctionDef) and node.name == "_pair"]
    assert len(_submits(pair)) == 1
