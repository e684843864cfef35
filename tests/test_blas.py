import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import blas as f2py_blas
from scipy.linalg import cython_blas, cython_lapack
from scipy.linalg import lapack as f2py_lapack

from glmamp import blas

SRC = Path(__file__).resolve().parents[1] / "src"


def _f(rng, rows, cols):
    return np.asfortranarray(rng.standard_normal((rows, cols)))


def _lower(rng, n):
    """A well-conditioned Fortran-ordered lower-triangular factor."""
    a = rng.standard_normal((2 * n, n))
    return np.asfortranarray(np.linalg.cholesky(a.T @ a + np.eye(n)))


def _embed(block, rng, at=(3, 5), pad=(7, 4)):
    """``block`` as a strided Fortran sub-block of a larger random array."""
    rows, cols = block.shape
    host = _f(rng, rows + at[0] + pad[0], cols + at[1] + pad[1])
    view = host[at[0]:at[0] + rows, at[1]:at[1] + cols]
    view[...] = block
    return host, view


# (n, k): whole arrays at and above the BLAS block sizes, odd sizes, a single
# row and column
SHAPES = [(1, 1), (7, 3), (65, 130), (130, 65), (257, 300)]


class TestSameBitsAsF2py:
    @pytest.mark.parametrize("sub", [False, True], ids=["whole", "sub-block"])
    @pytest.mark.parametrize("n, k", SHAPES)
    def test_dsyrk(self, n, k, sub):
        rng = np.random.default_rng(n + k)
        a = _f(rng, n, k)
        want = f2py_blas.dsyrk(1.0, a, lower=1)
        c = np.zeros((n, n), order="F")
        if sub:
            _, a = _embed(a, rng)
            _, c = _embed(c, rng)
        blas.dsyrk(a, c)
        assert np.array_equal(np.tril(c), np.tril(want))

    @pytest.mark.parametrize("sub", [False, True], ids=["whole", "sub-block"])
    @pytest.mark.parametrize("n, k", SHAPES)
    def test_dgemm(self, n, k, sub):
        rng = np.random.default_rng(n * k)
        a, b = _f(rng, n, k), _f(rng, k + 2, k)
        want = f2py_blas.dgemm(1.0, a, b, trans_b=1)
        c = np.zeros((n, k + 2), order="F")
        if sub:
            _, a = _embed(a, rng)
            _, b = _embed(b, rng, at=(1, 2))
            host, c = _embed(c, rng)
            outside = host.copy()
        blas.dgemm(a, b, c)
        assert np.array_equal(c, want)
        if sub:  # only the block is written
            outside[3:3 + n, 5:5 + k + 2] = c
            assert np.array_equal(host, outside)

    @pytest.mark.parametrize("right", [False, True], ids=["left", "right"])
    @pytest.mark.parametrize("sub", [False, True], ids=["whole", "sub-block"])
    @pytest.mark.parametrize("n, k", SHAPES)
    def test_dtrmm(self, n, k, sub, right):
        rng = np.random.default_rng(n + 3 * k)
        tri = _lower(rng, n)
        b = _f(rng, k, n) if right else _f(rng, n, k)
        want = f2py_blas.dtrmm(-1.5, tri, b, side=int(right), lower=1)
        if sub:
            _, tri = _embed(tri, rng)
            _, b = _embed(b, rng, at=(2, 1))
        blas.dtrmm(tri, b, alpha=-1.5, right=right)
        assert np.array_equal(b, want)

    @pytest.mark.parametrize("sub", [False, True], ids=["whole", "sub-block"])
    @pytest.mark.parametrize("n", [1, 7, 65, 130, 257])
    def test_dpotrf_dpotrs_dtrtri(self, n, sub):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((2 * n, n))
        p = np.asfortranarray(a.T @ a + np.eye(n))
        rhs, rhs2 = rng.standard_normal(n), _f(rng, n, 3)
        chol = f2py_lapack.dpotrf(p, lower=1, clean=1)[0]
        mean = f2py_lapack.dpotrs(chol, rhs, lower=1)[0]
        mean2 = f2py_lapack.dpotrs(chol, rhs2, lower=1)[0]
        inv = f2py_lapack.dtrtri(chol, lower=1)[0]
        work = np.tril(p).copy(order="F")
        if sub:
            _, work = _embed(work, rng)
            _, rhs2 = _embed(rhs2, rng, at=(1, 1))
        assert blas.dpotrf(work) == 0
        assert np.array_equal(np.tril(work), chol)
        assert blas.dpotrs(work, rhs) == 0 and np.array_equal(rhs, mean)
        assert blas.dpotrs(work, rhs2) == 0 and np.array_equal(rhs2, mean2)
        assert blas.dtrtri(work) == 0
        assert np.array_equal(np.tril(work), np.tril(inv))


class TestInfo:
    def test_dpotrf_reports_the_first_non_positive_minor(self):
        p = np.asfortranarray(np.diag([1.0, 2.0, -1.0, 3.0]))
        assert blas.dpotrf(p) == f2py_lapack.dpotrf(p, lower=1)[1] == 3

    def test_dtrtri_reports_the_first_zero_diagonal_entry(self):
        tri = _lower(np.random.default_rng(0), 9)
        tri[4, 4] = tri[6, 6] = 0.0
        assert f2py_lapack.dtrtri(tri, lower=1)[1] == 5
        assert blas.dtrtri(tri) == 5


class TestArguments:
    @pytest.mark.parametrize("bad", [
        np.zeros((4, 3)),                           # C-ordered
        np.zeros((4, 3), order="F", dtype=np.float32),
        np.asfortranarray(np.zeros((8, 3)))[::2],   # rows two floats apart
    ], ids=["c-order", "float32", "row-stride"])
    def test_a_non_fortran_operand_raises(self, bad):
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            blas.dsyrk(bad, np.zeros((4, 4), order="F"))

    def test_a_python_thread_runs_during_a_call(self):
        # a Python loop on a second thread keeps turning while one TRMM runs
        # on one BLAS thread (in a child, so that BLAS loads with one thread)
        code = """
import threading, time
import numpy as np
from glmamp import blas
rng = np.random.default_rng(0)
a = rng.standard_normal((1200, 600))
tri = np.asfortranarray(np.linalg.cholesky(a.T @ a + np.eye(600)))
b = np.asfortranarray(rng.standard_normal((600, 1200)))
turns, stop = [0], threading.Event()
def spin():
    while not stop.is_set():
        turns[0] += 1
thread = threading.Thread(target=spin)
thread.start()
time.sleep(0.01)
start = turns[0]
blas.dtrmm(tri, b)
print(turns[0] - start)
stop.set()
thread.join()
"""
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
                             timeout=60)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) > 1000


class TestThreads:
    def test_reports_the_openblas_thread_count(self):
        # OpenBLAS reads the variable as it loads, so the check runs in a child;
        # a count above one may be capped at the CPUs there are
        code = "from glmamp import blas; print(blas.threads())"
        for count, allowed in (("1", {"1"}), ("2", {"1", "2"})):
            run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, timeout=60,
                                 env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": count})
            assert run.returncode == 0, run.stderr
            assert run.stdout.strip() in allowed


class TestSignatureCheck:
    def test_the_capsules_carry_the_assumed_signatures(self):
        for name, (module, args) in blas.SIGNATURES.items():
            assert (module.__pyx_capi__[name].__repr__().split('"')[1]
                    == blas.c_signature(module, args))

    def test_c_signature_spells_cythons_double_typedef(self):
        assert blas.c_signature(cython_lapack, "cidii") == (
            "void (char *, int *, __pyx_t_5scipy_6linalg_13cython_lapack_d *, int *, int *)")

    def test_a_mismatch_raises_import_error_naming_the_routine(self):
        # dsyrk's capsule checked against dgemm's arguments
        with pytest.raises(ImportError, match=r"cython_blas\.dsyrk has the C signature"):
            blas.bind({"dsyrk": (cython_blas, blas.SIGNATURES["dgemm"][1])})

    def test_importing_against_a_mismatched_capsule_fails(self):
        code = ("from scipy.linalg import cython_blas as b\n"
                "b.__pyx_capi__['dtrmm'] = b.__pyx_capi__['dgemm']\n"
                "import glmamp.blas\n")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={"PYTHONPATH": str(SRC)}, timeout=60)
        assert run.returncode != 0
        assert "ImportError: glmamp.blas: scipy.linalg.cython_blas.dtrmm has the C signature" \
            in run.stderr
