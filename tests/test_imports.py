"""The front end's import boundary.

Only the command's own entry points import ``glmamp.cli``; scripts take
nothing from it but ``main``; problems and the verify check set come from
their library owners.  ``benchmarks/`` calls and patches
``glmamp.cli.generate_problem``, so that name stays bound to the library's.
"""

import ast
from pathlib import Path

import glmamp.cli
import glmamp.problems

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "glmamp").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _cli_imports(path):
    """The names each import of glmamp.cli in ``path`` binds ('cli' for the module)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += ["cli" for a in node.names if a.name == "glmamp.cli"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative imports occur only inside the package
                module = "glmamp" + ("." + module if module else "")
            if module == "glmamp.cli":
                names += [a.name for a in node.names]
            elif module == "glmamp":
                names += ["cli" for a in node.names if a.name == "cli"]
    return names


def test_sources_found():
    assert len(PACKAGE) > 5 and SCRIPTS


def test_only_the_entry_points_import_the_cli():
    importers = {p.name for p in PACKAGE if _cli_imports(p)}
    assert importers <= {"cli.py", "__main__.py"}


def test_scripts_take_only_main_from_the_cli():
    taken = {p.name: set(_cli_imports(p)) for p in SCRIPTS}
    assert {name: t for name, t in taken.items() if t - {"main"}} == {}


def test_cli_generate_problem_is_the_library_one():
    assert glmamp.cli.generate_problem is glmamp.problems.generate_problem
