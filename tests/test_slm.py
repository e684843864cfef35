import numpy as np
import pytest

from glmamp.gaussian import ExtrinsicMessage, GaussianBelief, combine
from glmamp.slm import (LinearModel, load_matrix, load_matrix_binary,
                        load_matrix_csv, save_matrix_binary, save_matrix_csv,
                        slm_solve)

from oracles import dense_gaussian_posterior


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
    # block sizes, so the blocked triangular-inverse and GEMM code runs too
    @pytest.mark.parametrize("seed, shape", [
        pytest.param(seed, shape, id=f"{seed}" if shape is None
                     else f"n{shape[0]}-m{shape[1]}-{seed}")
        for shape in (None, (48, 96), (96, 48), (130, 260)) for seed in range(5)])
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

    def test_extrinsic_times_pseudo_recovers_marginal(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 4))
        py = rng.standard_normal(6)
        pv = rng.uniform(0.5, 2.0, 6)
        res = slm_solve(LinearModel(A), ExtrinsicMessage(py, pv),
                        GaussianBelief(np.zeros(4), np.ones(4)))
        back = combine(res.z_extrinsic.as_belief(), GaussianBelief(py, pv))
        np.testing.assert_allclose(back.mean, res.z_stats.point, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(back.variance, res.z_stats.variance, rtol=1e-10)

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            LinearModel(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            LinearModel(np.array([[np.nan]]))


class TestMatrixFiles:
    def test_csv_round_trip(self, tmp_path):
        A = np.arange(12.0).reshape(3, 4) / 7.0
        path = tmp_path / "a.csv"
        save_matrix_csv(path, A)
        np.testing.assert_allclose(load_matrix_csv(path), A, rtol=1e-15)

    def test_binary_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 3))
        path = tmp_path / "a.bin"
        save_matrix_binary(path, A)
        assert np.array_equal(load_matrix_binary(path), A)
        # header: magic + two uint64 dims
        raw = path.read_bytes()
        assert raw[:4] == b"GLMA"
        assert int.from_bytes(raw[4:12], "little") == 5
        assert int.from_bytes(raw[12:20], "little") == 3
        assert len(raw) == 20 + 5 * 3 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_matrix_binary(path)

    def test_load_matrix_dispatch(self, tmp_path):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        save_matrix_binary(tmp_path / "a.bin", A)
        save_matrix_csv(tmp_path / "a.csv", A)
        assert np.array_equal(load_matrix(tmp_path / "a.bin"), A)
        np.testing.assert_allclose(load_matrix(tmp_path / "a.csv"), A)
