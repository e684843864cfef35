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


def _script(name, *args, cwd=None):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=ENV, cwd=cwd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("backend", ["amp", "exact"])
def test_run_equivalence(backend):
    out = _script("run_equivalence.py", "--n", "16", "--m", "32",
                  "--slm-backend", backend)
    distance = float(out.split("fixed-point distance :")[1].split()[0])
    assert distance < (1e-12 if backend == "amp" else 0.1)
    assert f"(backend={backend})" in out


def test_sweep_snr(tmp_path):
    out = _script("sweep_snr.py", "--snr-db", "20", "--reps", "1",
                  "--out", str(tmp_path / "sweep.csv"), cwd=tmp_path)
    assert "wrote 2 rows" in out
    assert "gamp" in out and "modular" in out


def _save_cell(directory, cell, point, iterations=(12,), converged=(True,)):
    """One cell as ``trace_digest.py --save`` writes it, one row per solve."""
    directory.mkdir(exist_ok=True)
    point = np.atleast_2d(point)
    np.savez(directory / f"{cell}.npz", point=point, variance=0.5 * np.ones_like(point),
             iterations=np.array(iterations), converged=np.array(converged),
             diverged=~np.array(converged), floor_events=np.zeros(len(iterations), int))


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


def test_compare_fixed_points_reports_every_difference(tmp_path):
    _save_cell(tmp_path / "old", "moved", [3.0, 4.0])
    _save_cell(tmp_path / "new", "moved", [3.0, 4.0 + 5e-3])  # |dp| / |p| = 1e-3
    _save_cell(tmp_path / "old", "slower", [1.0], iterations=(12,))
    _save_cell(tmp_path / "new", "slower", [1.0], iterations=(15,))
    _save_cell(tmp_path / "old", "stalled", [1.0])
    _save_cell(tmp_path / "new", "stalled", [1.0], converged=(False,))
    _save_cell(tmp_path / "old", "gone", [1.0])
    _save_cell(tmp_path / "new", "added", [1.0])
    cells, summary = _compare(tmp_path / "old", tmp_path / "new")
    assert "dist=1.00e-03 iters=12->12 delta=0" in cells["moved"]
    assert cells["slower"] == "slower dist=0.00e+00 iters=12->15 delta=3"
    assert "iters=12->12 delta=0 converged [True]->[False]" in cells["stalled"]
    assert "unconverged" in cells["stalled"]
    assert cells["gone"] == "gone only in OLD" and cells["added"] == "added only in NEW"
    assert "max dist converged=1.00e-03 (moved)" in summary
    assert "moved=1 changed=2 one-sided=2" in summary


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
