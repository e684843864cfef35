"""One owner for each scalar-module decision, read from the package source.

``gaussian.scalar_module`` alone holds a module's variance at
``POSTERIOR_VARIANCE_FLOOR``, for the channels' modules and the priors'
alike, and ``InputPrior.denoise`` alone picks a prior's module by mode: no
prior class defines ``denoise`` or reads the mode.
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
