"""Smoke tests: the scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

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
