import functools
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
from scipy.linalg import cholesky
from scipy.linalg.lapack import dtrtri

from glmamp import slm
from glmamp.gaussian import (DEFAULT_VARIANCE_FLOOR, ExtrinsicMessage,
                             GaussianBelief, combine)
from glmamp.slm import TRI_INV_LEAF, LinearModel, _pair, _tri_inv, slm_solve

from oracles import _wrapper_tri_inv, dense_gaussian_posterior, wrapper_slm_solve


def _fields(res):
    return (res.x_stats.point, res.x_stats.variance, res.z_stats.point,
            res.z_stats.variance, res.z_extrinsic.pseudo_mean,
            res.z_extrinsic.pseudo_variance)


class TestSlmSolve:
    def test_scalar_identity(self):
        model = LinearModel(np.array([[1.0]]))
        res = slm_solve(model, ExtrinsicMessage(np.array([2.0]), np.array([1.0])),
                        GaussianBelief(np.array([0.0]), np.array([1.0])))
        assert res.x_stats.point[0] == pytest.approx(1.0, abs=1e-14)
        assert res.x_stats.variance[0] == pytest.approx(0.5, abs=1e-14)
        # removing the pseudo factor pushes the prior forward
        assert res.z_extrinsic.pseudo_mean[0] == pytest.approx(0.0, abs=1e-12)
        assert res.z_extrinsic.pseudo_variance[0] == pytest.approx(1.0, rel=1e-10)

    def test_two_measurements_one_unknown(self):
        model = LinearModel(np.array([[1.0], [1.0]]))
        res = slm_solve(model,
                        ExtrinsicMessage(np.array([1.0, 3.0]), np.array([1.0, 1.0])),
                        GaussianBelief(np.array([0.0]), np.array([1.0])))
        assert res.x_stats.point[0] == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert res.x_stats.variance[0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_uninformative_pseudo_returns_prior(self):
        rng = np.random.default_rng(0)
        model = LinearModel(rng.standard_normal((4, 3)))
        prior = GaussianBelief(np.array([0.5, -1.0, 2.0]), np.array([1.0, 2.0, 0.5]))
        res = slm_solve(model, ExtrinsicMessage(np.zeros(4), np.full(4, 1e12)), prior)
        np.testing.assert_allclose(res.x_stats.point, prior.mean, atol=1e-9)
        np.testing.assert_allclose(res.x_stats.variance, prior.variance, rtol=1e-9)

    # shape None draws n, m <= 8; the fixed shapes exceed the LAPACK/BLAS
    # block sizes, so the blocked SYRK, triangular-inverse and TRMM code runs
    # too; n = 65, 130, 257 and 384 take the recursive triangular inverse one
    # to three levels deep; (384, 768) is the size of the exact-slm workload
    @pytest.mark.parametrize("seed, shape", [
        pytest.param(seed, shape, id=f"{seed}" if shape is None
                     else f"n{shape[0]}-m{shape[1]}-{seed}")
        for shape in (None, (48, 96), (96, 48), (65, 130), (130, 260))
        for seed in range(5)]
        + [pytest.param(0, (257, 514), id="n257-m514-0"),
           pytest.param(0, (384, 768), id="n384-m768-0")])
    def test_against_brute_force_oracle(self, seed, shape):
        rng = np.random.default_rng(seed)
        n, m = shape or (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        A = rng.standard_normal((m, n))
        pm = rng.standard_normal(n)
        pv = rng.uniform(0.2, 3.0, n)
        py = rng.standard_normal(m)
        pvv = rng.uniform(0.2, 3.0, m)
        res = slm_solve(LinearModel(A), ExtrinsicMessage(py, pvv),
                        GaussianBelief(pm, pv))
        mu_o, xv_o, zm_o, zv_o = dense_gaussian_posterior(A, pm, pv, py, pvv)
        np.testing.assert_allclose(res.x_stats.point, mu_o, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(res.x_stats.variance, xv_o, rtol=1e-10)
        np.testing.assert_allclose(res.z_stats.point, zm_o, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(res.z_stats.variance, zv_o, rtol=1e-10)

    # Half the pseudo-variances at the floor weigh those rows by 1e11, so
    # P's condition number is 1e4-1e6 and the dense oracle's inverse loses
    # up to that factor times machine epsilon; the posterior variances of
    # the floored rows, and of some x, fall below the floor and are held at it.
    @pytest.mark.parametrize("seed", range(3))
    def test_against_oracle_with_half_the_pseudo_variances_at_the_floor(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 130, 260
        A = rng.standard_normal((m, n))
        pm = rng.standard_normal(n)
        pv = rng.uniform(0.2, 3.0, n)
        py = rng.standard_normal(m)
        pvv = rng.uniform(0.2, 3.0, m)
        pvv[rng.permutation(m)[:m // 2]] = DEFAULT_VARIANCE_FLOOR
        res = slm_solve(LinearModel(A), ExtrinsicMessage(py, pvv),
                        GaussianBelief(pm, pv))
        mu_o, xv_o, zm_o, zv_o = dense_gaussian_posterior(A, pm, pv, py, pvv)
        assert np.sum(res.z_stats.variance == DEFAULT_VARIANCE_FLOOR) >= m // 2
        np.testing.assert_allclose(res.x_stats.point, mu_o, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(res.x_stats.variance,
                                   np.maximum(xv_o, DEFAULT_VARIANCE_FLOOR), rtol=1e-9)
        np.testing.assert_allclose(res.z_stats.point, zm_o, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(res.z_stats.variance,
                                   np.maximum(zv_o, DEFAULT_VARIANCE_FLOOR), rtol=1e-9)

    def test_extrinsic_times_pseudo_recovers_marginal(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 4))
        py = rng.standard_normal(6)
        pv = rng.uniform(0.5, 2.0, 6)
        res = slm_solve(LinearModel(A), ExtrinsicMessage(py, pv),
                        GaussianBelief(np.zeros(4), np.ones(4)))
        ext = res.z_extrinsic
        mean, var = combine(ext.pseudo_mean, ext.pseudo_variance, py, pv)
        np.testing.assert_allclose(mean, res.z_stats.point, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(var, res.z_stats.variance, rtol=1e-10)

    # GaussianBelief validates its fields, so these pass stand-in objects to
    # reach the checks inside slm_solve.
    def test_nan_pseudo_variance_raises(self):
        model = LinearModel(np.random.default_rng(0).standard_normal((6, 4)))
        pseudo = SimpleNamespace(pseudo_mean=np.zeros(6),
                                 pseudo_variance=np.array([1.0, np.nan, 1, 1, 1, 1]))
        with pytest.raises(ValueError):
            slm_solve(model, pseudo, GaussianBelief(np.zeros(4), np.ones(4)))

    # the O(n) test of P's diagonal and the right-hand side catches each of
    # these before DPOTRF runs: a bad variance (side "pseudo" or "prior") or
    # a non-finite mean
    @pytest.mark.parametrize("side, value", [
        ("pseudo", np.nan), ("pseudo", 0.0), ("pseudo", -1.0), ("pseudo", 1e-320),
        ("prior", np.nan), ("prior", 0.0),
        *[(side, value) for side in ("pseudo_mean", "prior_mean")
          for value in (np.nan, np.inf, -np.inf)]])
    def test_non_finite_precision_raises_value_error(self, side, value):
        rng = np.random.default_rng(0)
        model = LinearModel(rng.standard_normal((260, 130)))
        fields = {"pseudo": np.ones(260), "prior": np.ones(130),
                  "pseudo_mean": np.zeros(260), "prior_mean": np.zeros(130)}
        fields[side][100] = value
        pseudo = SimpleNamespace(pseudo_mean=fields["pseudo_mean"],
                                 pseudo_variance=fields["pseudo"])
        prior_x = SimpleNamespace(mean=fields["prior_mean"], variance=fields["prior"])
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="^slm_solve: "
                                                      "the precision or the right-hand side"):
            slm_solve(model, pseudo, prior_x)

    def test_indefinite_precision_raises(self):
        model = LinearModel(np.random.default_rng(0).standard_normal((6, 4)))
        prior_x = SimpleNamespace(mean=np.zeros(4),
                                  variance=np.array([1.0, -1e-3, 1.0, 1.0]))
        with pytest.raises(np.linalg.LinAlgError):
            slm_solve(model, ExtrinsicMessage(np.zeros(6), np.ones(6)), prior_x)

    # n = 130 takes the recursive triangular inverse; the negative prior
    # variance sits in the second half of the factor
    def test_indefinite_precision_raises_at_n130(self):
        model = LinearModel(np.random.default_rng(0).standard_normal((132, 130)))
        variance = np.ones(130)
        variance[100] = -1e-3
        prior_x = SimpleNamespace(mean=np.zeros(130), variance=variance)
        with pytest.raises(np.linalg.LinAlgError):
            slm_solve(model, ExtrinsicMessage(np.zeros(132), np.ones(132)), prior_x)

    # above the leaf, with the worker: dpotrf runs on the calling thread
    def test_indefinite_precision_raises_at_n300_with_the_worker(self, worker):
        model = LinearModel(np.random.default_rng(0).standard_normal((310, 300)))
        variance = np.ones(300)
        variance[250] = -1e-3
        prior_x = SimpleNamespace(mean=np.zeros(300), variance=variance)
        with pytest.raises(np.linalg.LinAlgError, match="dpotrf"):
            slm_solve(model, ExtrinsicMessage(np.zeros(310), np.ones(310)), prior_x,
                      worker=worker)
        assert worker.submitted == 2  # B^T's second column block, P's lower rows

    def test_fortran_order_and_scalar_pseudo_variance(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((80, 40))
        py = rng.standard_normal(80)
        prior_x = GaussianBelief(rng.standard_normal(40), rng.uniform(0.2, 3.0, 40))
        ref = slm_solve(LinearModel(A), ExtrinsicMessage(py, np.full(80, 0.7)), prior_x)
        for A_in, pv in ((np.asfortranarray(A), np.full(80, 0.7)), (A, 0.7)):
            res = slm_solve(LinearModel(A_in), ExtrinsicMessage(py, pv), prior_x)
            for got, want in zip(_fields(res), _fields(ref)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    # W_s is written over the scaled copy of A^T and L^-1 over L; A.T is a
    # view of model.A, so an in-place BLAS call on it would change the input
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inputs_are_never_written(self, order):
        rng = np.random.default_rng(4)
        n, m = 130, 260
        A = np.asarray(rng.standard_normal((m, n)), order=order)
        arrays = (A, rng.standard_normal(m), rng.uniform(0.2, 3.0, m),
                  rng.standard_normal(n), rng.uniform(0.2, 3.0, n))
        before = [a.copy() for a in arrays]
        model = LinearModel(arrays[0])
        assert model.A is A
        slm_solve(model, ExtrinsicMessage(*arrays[1:3]), GaussianBelief(*arrays[3:]))
        for got, want in zip(arrays, before):
            assert np.array_equal(got, want)

    # one n x m buffer (B^T, then W_s) and one n x n (P, L, then L^-1, each
    # block of the inverse written in place), plus vectors: below two n x m
    # arrays
    def test_one_call_peaks_below_two_n_by_m_buffers(self):
        rng = np.random.default_rng(0)
        n, m = 384, 768
        model = LinearModel(rng.standard_normal((m, n)) / np.sqrt(n))
        pseudo = ExtrinsicMessage(rng.standard_normal(m), rng.uniform(0.2, 3.0, m))
        prior_x = GaussianBelief(np.zeros(n), np.ones(n))
        slm_solve(model, pseudo, prior_x)
        tracemalloc.start()
        try:
            slm_solve(model, pseudo, prior_x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.9 * 8 * n * m

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            LinearModel(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            LinearModel(np.array([[np.nan]]))


def _random_inputs(n, m, seed, order="C", scalar_pv=False):
    rng = np.random.default_rng(seed)
    A = np.asarray(rng.standard_normal((m, n)) / np.sqrt(n), order=order)
    pv = 0.7 if scalar_pv else rng.uniform(0.2, 3.0, m)
    return (LinearModel(A), ExtrinsicMessage(rng.standard_normal(m), pv),
            GaussianBelief(rng.standard_normal(n), rng.uniform(0.2, 3.0, n)))


def _assert_same_bits(got, want):
    for g, w in zip(_fields(got) + (got.z_extrinsic.floored,),
                    _fields(want) + (want.z_extrinsic.floored,)):
        assert np.array_equal(g, w)


def _assert_near_dense_oracle(res, model, pseudo, prior_x):
    pv = np.broadcast_to(pseudo.pseudo_variance, (model.m,))
    mu, xv, zm, zv = dense_gaussian_posterior(model.A, prior_x.mean, prior_x.variance,
                                              pseudo.pseudo_mean, pv)
    for got, want in zip(_fields(res)[:4], (mu, xv, zm, zv)):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.fixture
def worker():
    """A one-thread executor that counts the calls handed to it."""
    class Counting(ThreadPoolExecutor):
        submitted = 0

        def submit(self, fn, *args, **kw):
            self.submitted += 1
            return super().submit(fn, *args, **kw)

    with Counting(1) as pool:
        yield pool


# Above TRI_INV_LEAF P's rows and W_s's columns are cut in two.  These shapes
# hold odd sizes and cuts off the middle; at each, some cut rounded differently from
# one whole call in probes: P's rows at 257 x 300 and 199 x 997, W_s's
# columns at all three.  Moving P's row cut from n / sqrt(2) to 3n / 4 changed
# the bits at 500 x 1000, 199 x 997, 768 x 700 and 65 x 40.
ODD_SHAPES = [(257, 300), (500, 1000), (199, 997), (65, 40), (768, 700)]


class TestAgainstWrapperRoute:
    """slm_solve returns the bits of the same chain through SciPy's wrappers."""

    # n = 4 and 64 invert L by one dtrtri; 130 and 384 recurse one and three
    # levels; (384, 768) is the exact-slm workload's size
    @pytest.mark.parametrize("scalar_pv", [False, True], ids=["vector-pv", "scalar-pv"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [4, 64, 130, 384])
    def test_bit_for_bit(self, n, order, scalar_pv):
        args = _random_inputs(n, 2 * n, seed=n, order=order, scalar_pv=scalar_pv)
        got = slm_solve(*args)
        _assert_same_bits(got, wrapper_slm_solve(*args))
        _assert_near_dense_oracle(got, *args)

    @pytest.mark.parametrize("n, m", ODD_SHAPES)
    def test_bit_for_bit_at_odd_shapes(self, n, m):
        args = _random_inputs(n, m, seed=n + m)
        got = slm_solve(*args)
        _assert_same_bits(got, wrapper_slm_solve(*args))
        _assert_near_dense_oracle(got, *args)

    # up to TRI_INV_LEAF there is no cut: one SYRK and one TRMM, as before
    # the cuts, so nothing is handed to the worker
    @pytest.mark.parametrize("n, m", [(4, 8), (64, 128), (64, 3)])
    def test_no_cut_at_and_below_the_leaf(self, n, m, worker, monkeypatch):
        calls = []

        def spy(name, real, *args, **kw):
            calls.append(name)
            return real(*args, **kw)
        for name in ("dsyrk", "dgemm", "dtrmm", "dtrtri"):
            monkeypatch.setattr(slm.blas, name,
                                functools.partial(spy, name, getattr(slm.blas, name)))
        args = _random_inputs(n, m, seed=0)
        _assert_same_bits(slm_solve(*args, worker=worker), wrapper_slm_solve(*args))
        assert calls == ["dsyrk", "dtrtri", "dtrmm"]
        assert worker.submitted == 0

    # the worker runs four pieces of each call: B^T's second column block with
    # A^T (py / pv), P's lower rows (a SYRK and a GEMM), z's mean A mu beside
    # the inverse, and W_s's second column block with its squared norms; the
    # inverse runs whole calls on the calling thread
    @pytest.mark.parametrize("n, m", ODD_SHAPES + [(384, 768)])
    def test_same_bits_with_the_worker(self, n, m, worker):
        args = _random_inputs(n, m, seed=n * m)
        _assert_same_bits(slm_solve(*args, worker=worker), slm_solve(*args))
        assert worker.submitted == 4

    def test_slm_binds_no_f2py_routine(self):
        fortran = type(scipy.linalg.blas.dsyrk)
        assert [name for name, value in vars(slm).items() if isinstance(value, fortran)] == []

    def test_no_finiteness_scan_and_no_scipy_wrapper(self, monkeypatch):
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls.append(f"{module.__name__}.{name}")
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        # the wrappers' own module looks these up at call time, so the spies
        # also see calls through names bound before they were set
        decomp = sys.modules[scipy.linalg.cholesky.__module__]
        spy(np, "asarray_chkfinite")
        spy(scipy.linalg, "cholesky")
        spy(scipy.linalg, "cho_solve")
        for name in ("asarray_chkfinite", "_cholesky", "_cho_solve"):
            if hasattr(decomp, name):
                spy(decomp, name)
        args = _random_inputs(130, 260, seed=0)
        slm_solve(*args)
        assert calls == []
        wrapper_slm_solve(*args)  # the spies see the wrapper route
        assert calls


def _cholesky_factor(n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2 * n, n))
    return cholesky(A.T @ A + np.eye(n), lower=True)


def _work(L):
    """A Fortran-ordered copy of L, for ``_tri_inv`` to invert in place."""
    return L.copy(order="F")


class TestPair:
    @pytest.mark.parametrize("threaded", [False, True], ids=["in-turn", "worker"])
    def test_returns_both_results_in_order(self, threaded):
        with ThreadPoolExecutor(1) as pool:
            got = _pair(pool if threaded else None, lambda: "first", lambda: "second")
        assert got == ("first", "second")

    def test_first_raises_only_after_second_has_finished(self):
        # ``first`` raises while ``second`` is blocked on ``release``, which a
        # timer sets a little later; the caller must not see the error sooner
        started, release, finished = (threading.Event() for _ in range(3))
        timer = threading.Timer(0.2, release.set)

        def second():
            started.set()
            release.wait(10.0)
            finished.set()

        def first():
            started.wait(10.0)
            timer.start()
            raise RuntimeError("first failed")

        with ThreadPoolExecutor(1) as pool:
            with pytest.raises(RuntimeError, match="first failed"):
                _pair(pool, first, second)
            assert finished.is_set()
        timer.join()


class TestTriInv:
    @pytest.mark.parametrize("n", [1, 17, TRI_INV_LEAF])
    def test_leaf_is_dtrtri_bit_for_bit(self, n):
        L = _cholesky_factor(n)
        assert np.array_equal(_tri_inv(_work(L)), dtrtri(L, lower=1)[0])

    @pytest.mark.parametrize("n", [65, 127, 128, 129, 257, 384])
    def test_recursion_matches_dtrtri(self, n):
        L = _cholesky_factor(n)
        want = dtrtri(L, lower=1)[0]
        work = _work(L)
        got = _tri_inv(work)
        assert got is work and got.flags.f_contiguous
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert not np.triu(got, 1).any()

    # a dtrtri info keeps its block's offset in the factor, and a zero in
    # X11 wins over one in X22, since X11 is inverted first
    @pytest.mark.parametrize("zeros, info", [((100,), 101), ((10,), 11), ((10, 100), 11)])
    def test_zero_diagonal_reports_its_row_in_the_factor(self, zeros, info):
        L = _cholesky_factor(130)
        for z in zeros:
            L[z, z] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match=rf"\(info={info}\)"):
            _tri_inv(_work(L))

    # each block of L is read before its block of L^-1 is written over it,
    # so the in-place inverse is the bits of the wrapper chain, which copies
    @pytest.mark.parametrize("n", [64, 65, 130, 384])
    def test_in_place_matches_the_wrapper_chain_bit_for_bit(self, n):
        L = _cholesky_factor(n)
        assert np.array_equal(_tri_inv(_work(L)), _wrapper_tri_inv(L))
