"""Tests of the scripts under scripts/: each runs end to end, and
compare_fixed_points.py reports every difference between two saved runs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glmamp

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(Path(glmamp.__file__).parents[1]))


def _script(name, *args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("engine", ["modular-amp", "modular-exact"])
def test_run_equivalence(engine):
    out = _script("run_equivalence.py", "--n", "16", "--m", "32", "--engine", engine)
    distance = float(out.split("fixed-point distance :")[1].split()[0])
    assert distance < (1e-12 if engine == "modular-amp" else 0.1)
    assert f"(engine={engine})" in out


@pytest.mark.parametrize("argv", [["run_equivalence.py", "--n", "0"],
                                  ["run_equivalence.py", "--seed", "-1"],
                                  ["trace_digest.py", "--n", "0"],
                                  ["trace_digest.py", "--seed", "-1"]],
                         ids=["equivalence-n-0", "equivalence-seed-neg", "digest-n-0",
                              "digest-seed-neg"])
def test_bad_script_argument_is_a_usage_error(argv):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=ENV, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error: argument" in proc.stderr


def _save_cell(directory, cell, point, iterations=(12,), converged=(True,), variance=0.5,
               diverged=None):
    """One cell as ``trace_digest.py --save`` writes it, one row per solve;
    ``diverged`` defaults to every solve that did not converge."""
    directory.mkdir(exist_ok=True)
    point = np.atleast_2d(point)
    np.savez(directory / f"{cell}.npz", point=point, variance=variance * np.ones_like(point),
             iterations=np.array(iterations), converged=np.array(converged),
             diverged=~np.array(converged) if diverged is None else np.array(diverged),
             floor_events=np.zeros(len(iterations), int))


def _compare(old, new):
    lines = _script("compare_fixed_points.py", str(old), str(new)).splitlines()
    return {line.split()[0]: line for line in lines[:-1]}, lines[-1]


def test_compare_fixed_points_identical(tmp_path):
    for side in ("old", "new"):
        _save_cell(tmp_path / side, "a|mmse", [1.0, 2.0])
        _save_cell(tmp_path / side, "b|map", [[1.0, -1.0], [3.0, 0.0]], (5, 7), (True, True))
    cells, summary = _compare(tmp_path / "old", tmp_path / "new")
    assert sorted(cells) == ["a|mmse", "b|map"]
    assert all("dist=0.00e+00" in line for line in cells.values())
    assert "max dist converged=0.00e+00" in summary
    assert "moved=0 changed=0 one-sided=0" in summary
    assert summary.endswith(" states=none")


def test_compare_fixed_points_reports_every_difference(tmp_path):
    _save_cell(tmp_path / "old", "moved", [3.0, 4.0])
    _save_cell(tmp_path / "new", "moved", [3.0, 4.0 + 5e-3])  # |dp| / |p| = 1e-3
    _save_cell(tmp_path / "old", "slower", [1.0], iterations=(12,))
    _save_cell(tmp_path / "new", "slower", [1.0], iterations=(15,))
    _save_cell(tmp_path / "old", "stalled", [1.0])
    _save_cell(tmp_path / "new", "stalled", [1.0], converged=(False,))
    _save_cell(tmp_path / "old", "gone", [1.0])
    _save_cell(tmp_path / "new", "added", [1.0])
    _save_cell(tmp_path / "old", "blown", [np.inf, 1.0])  # an overflowed end iterate
    _save_cell(tmp_path / "new", "blown", [1.0, 1.0])
    _save_cell(tmp_path / "old", "nan-var", [1.0], variance=np.nan)  # point unmoved
    _save_cell(tmp_path / "new", "nan-var", [1.0])
    cells, summary = _compare(tmp_path / "old", tmp_path / "new")
    assert "dist=1.00e-03 iters=12->12 delta=0" in cells["moved"]
    assert "dist=nan iters=12->12 delta=0" in cells["blown"]
    assert "dist=nan iters=12->12 delta=0" in cells["nan-var"]
    assert cells["slower"] == "slower dist=0.00e+00 iters=12->15 delta=3"
    assert "iters=12->12 delta=0 converged [True]->[False]" in cells["stalled"]
    assert "unconverged" in cells["stalled"]
    assert cells["gone"] == "gone only in OLD" and cells["added"] == "added only in NEW"
    assert "max dist converged=1.00e-03 (moved)" in summary
    assert "moved=3 changed=2 one-sided=2 non-finite=blown,nan-var" in summary
    assert summary.endswith(" states=converged->diverged:1")


# every solve's end state is counted, old -> new, also within one cell
def test_compare_fixed_points_counts_state_transitions(tmp_path):
    conv, cut, div = ((True, False), (False, False), (False, True))  # (converged, diverged)
    for cell, old, new in [("pair", (cut, cut), (conv, conv)), ("split", (div, conv), (conv, cut)),
                           ("stays", (cut,), (cut,)), ("fixed", (div,), (conv,))]:
        for side, ends in (("old", old), ("new", new)):
            converged, diverged = zip(*ends)
            _save_cell(tmp_path / side, cell, [[1.0]] * len(ends), (9,) * len(ends),
                       converged, diverged=diverged)
    cells, summary = _compare(tmp_path / "old", tmp_path / "new")
    assert cells["stays"].endswith("unconverged")
    assert summary.endswith(" states=converged->max_iter:1,diverged->converged:2,"
                            "max_iter->converged:2")


LINES_PER_RUN = 3 * 4 * 2 * 3 + 4 + 1  # grid cells, equivalence cases, verify


@pytest.fixture(scope="module")
def digest_n8(tmp_path_factory):
    """One ``trace_digest.py --n 8 --save DIR`` run: its lines and DIR."""
    save = tmp_path_factory.mktemp("digest_n8")
    return _script("trace_digest.py", "--n", "8", "--save", str(save)).splitlines(), save


def test_trace_digest_n_sets_problem_size(digest_n8):
    lines, save = digest_n8
    assert len(lines) == LINES_PER_RUN
    assert lines[-1].startswith("verify|seed=0 ") and len(lines[-1].split()[1]) == 64
    saved = sorted(save.glob("*.npz"))
    assert len(saved) == sum(" EXC " not in line for line in lines[:-1]) > 0
    for path in saved:
        with np.load(path) as cell:
            assert cell["point"].shape[1] == 8, path.name


# several seeds and sizes in one run: seeds outer, every line prefixed, and
# each block the lines of a run with that one seed and n
def test_trace_digest_takes_several_seeds_and_sizes(tmp_path, digest_n8):
    lines = _script("trace_digest.py", "--seed", "0", "--seed", "1", "--n", "4",
                    "--n", "8", "--save", str(tmp_path)).splitlines()
    assert len(lines) == 4 * LINES_PER_RUN
    blocks = {}
    for i, (seed, n) in enumerate([(0, 4), (0, 8), (1, 4), (1, 8)]):
        prefix = f"seed={seed}|n={n}|"
        block = lines[i * LINES_PER_RUN:(i + 1) * LINES_PER_RUN]
        assert all(line.startswith(prefix) for line in block), prefix
        blocks[seed, n] = [line.removeprefix(prefix) for line in block]
    assert blocks[0, 8] == digest_n8[0]
    assert blocks[0, 4][-1] == blocks[0, 8][-1] != blocks[1, 4][-1] == blocks[1, 8][-1]
    assert blocks[1, 4][-1].startswith("verify|seed=1 ")
    assert blocks[0, 4][:-1] != blocks[1, 4][:-1]
    saved = {path.stem for path in tmp_path.glob("*.npz")}
    assert saved == {line.split(" ")[0] for line in lines
                     if " EXC " not in line and "verify|" not in line}


def test_trace_digest_pins_one_blas_thread():
    # the caller's thread counts are replaced before numpy is first imported
    code = ("import os, runpy, sys; assert 'numpy' not in sys.modules; "
            "runpy.run_path(sys.argv[1]); assert 'numpy' in sys.modules; "
            "print(*(os.environ[v] for v in "
            "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))")
    env = dict(ENV, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", code,
                           str(ROOT / "scripts" / "trace_digest.py")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "1"]


CODE_LINES_FIXTURE = [
    '"""Module docstring,',
    'two lines."""',
    "",
    "# a comment",
    "X = 1  # code with a comment",
    "",
    "def f(a,",
    "      b):",
    '    """One-line docstring."""',
    '    text = """a multi-line',
    'string, not a docstring"""',
    "    return a + b",
    "",
    "",
    "class C:",
    '    """Class docstring."""',
    "",
    "    y = [1,",
    "         2]",
]


def test_code_lines_counts_code_but_no_blank_comment_or_docstring(tmp_path):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("\n".join(CODE_LINES_FIXTURE) + "\n")
    # X, def (2), text (2), return, class, y (2)
    assert _script("code_lines.py", str(fixture)).splitlines() == [f"9 {fixture}", "9 total"]


def test_code_lines_totals_every_package_file():
    lines = _script("code_lines.py").splitlines()
    package = sorted((ROOT / "src" / "glmamp").glob("*.py"))
    assert [line.split(" ", 1)[1] for line in lines[:-1]] == [str(p) for p in package]
    assert lines[-1] == f"{sum(int(line.split()[0]) for line in lines[:-1])} total"
