import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from glmamp.channels import Mode
from glmamp.gaussian import DEFAULT_VARIANCE_FLOOR, POSTERIOR_VARIANCE_FLOOR
from glmamp.priors import BernoulliGaussianPrior, GaussianPrior, InputPrior, LaplacePrior

from oracles import bg_mmse_mp, grid_moments, laplace_mmse_mp


def _prior_logpdf(prior, x):
    if isinstance(prior, GaussianPrior):
        return -0.5 * (x - prior.mean) ** 2 / prior.var
    if isinstance(prior, LaplacePrior):
        return -prior.rate * np.abs(x)
    raise AssertionError


class TestGaussianPrior:
    @pytest.mark.parametrize("mode", [Mode.SUM_PRODUCT, Mode.MAX_SUM])
    def test_conjugate(self, mode):
        st_ = GaussianPrior(0.0, 1.0).denoise(mode, 2.0, 1.0)
        assert st_.point == pytest.approx(1.0, abs=1e-14)
        assert st_.variance == pytest.approx(0.5, abs=1e-14)

    def test_modes_coincide(self):
        prior = GaussianPrior(0.3, 2.0)
        rng = np.random.default_rng(0)
        r = rng.uniform(-5, 5, 50)
        tau = rng.uniform(0.1, 10, 50)
        sp = prior.denoise(Mode.SUM_PRODUCT, r, tau)
        ms = prior.denoise(Mode.MAX_SUM, r, tau)
        np.testing.assert_allclose(sp.point, ms.point, rtol=1e-12)
        np.testing.assert_allclose(sp.variance, ms.variance, rtol=1e-12)


class TestLaplacePrior:
    def test_soft_threshold_example(self):
        st_ = LaplacePrior(1.0).denoise(Mode.MAX_SUM, 2.0, 0.5)
        assert st_.point == pytest.approx(1.5, abs=1e-15)

    @given(r=st.floats(-10, 10), tau=st.floats(0.01, 10), rate=st.floats(0.1, 5))
    @settings(max_examples=200)
    def test_soft_threshold_piecewise(self, r, tau, rate):
        st_ = LaplacePrior(rate).denoise(Mode.MAX_SUM, r, tau)
        thresh = rate * tau
        if abs(r) <= thresh:
            assert st_.point == 0.0
        else:
            assert st_.point == pytest.approx(np.sign(r) * (abs(r) - thresh), abs=1e-12)
        assert 0 < st_.variance <= tau

    def test_mmse_against_grid(self):
        prior = LaplacePrior(1.3)
        for (r, tau) in [(0.0, 1.0), (2.5, 0.5), (-1.0, 4.0), (0.2, 0.05)]:
            st_ = prior.denoise(Mode.SUM_PRODUCT, r, tau)

            def logw(x):
                return _prior_logpdf(prior, x) - (x - r) ** 2 / (2 * tau)

            m_o, v_o = grid_moments(logw, float(st_.point), float(np.sqrt(st_.variance)))
            scale = np.sqrt(tau) + abs(r)
            assert abs(st_.point - m_o) <= 1e-6 * scale
            assert abs(st_.variance - v_o) <= 1e-6 * scale ** 2


    # ROADMAP item 12's tempered points, LaplacePrior(beta) at tau / beta: the
    # branches' t reach +-3e4 and the mean can dwarf the spread by 1e9
    @pytest.mark.parametrize("beta", [1.0, 1e2, 1e4, 1e6])
    def test_mmse_against_mpmath(self, beta):
        rng = np.random.default_rng(0)
        r = rng.uniform(-3.0, 3.0, 60)
        tau = np.exp(rng.uniform(np.log(0.01), np.log(10.0), 60)) / beta
        st_ = LaplacePrior(beta).denoise(Mode.SUM_PRODUCT, r, tau)
        ref = np.array([laplace_mmse_mp(beta, *point) for point in zip(r, tau)])
        np.testing.assert_allclose(st_.variance, ref[:, 1], rtol=1e-12, atol=0)
        assert np.all(np.abs(st_.point - ref[:, 0]) <= 1e-13 * (np.sqrt(tau) + np.abs(r)))

    # both branches in the hazard's tail, t = (+-r - rate tau) / sqrt(tau) < -8,
    # with |r| / sqrt(tau) up to 1e3: the posterior hugs x = 0, and the weights'
    # log-odds is O(1) where log Phi(t+-) are each about -t^2 / 2 (5e7 at 1e4)
    @pytest.mark.parametrize("tau", [0.01, 3.0])
    @pytest.mark.parametrize("rate_sd", [9.0, 30.0, 1e3 + 9.0, 1e4])
    def test_mmse_against_mpmath_with_both_branches_in_the_tail(self, rate_sd, tau):
        rng = np.random.default_rng(1)
        reach = min(rate_sd - 8.5, 1e3)
        r = np.sqrt(tau) * np.concatenate([rng.uniform(-reach, reach, 23), [-reach, reach]])
        rate = rate_sd / np.sqrt(tau)
        st_ = LaplacePrior(rate).denoise(Mode.SUM_PRODUCT, r, np.full_like(r, tau))
        ref = np.array([laplace_mmse_mp(rate, ri, tau) for ri in r])
        np.testing.assert_allclose(st_.variance, ref[:, 1], rtol=1e-13, atol=0)
        assert np.all(np.abs(st_.point - ref[:, 0]) <= 1e-12 * np.sqrt(ref[:, 1]))

    def test_scalar_r_and_tau_give_0d_moments(self):
        st_ = LaplacePrior(1.5).denoise(Mode.SUM_PRODUCT, 0.3, 0.5)
        assert st_.point.shape == () and st_.variance.shape == ()
        vec = LaplacePrior(1.5).denoise(Mode.SUM_PRODUCT, np.array([0.3]), np.array([0.5]))
        assert st_.point == vec.point[0] and st_.variance == vec.variance[0]


def test_laplace_mmse_evaluates_log_ndtr_on_2n_values(monkeypatch):
    # every glmamp module that binds log_ndtr is spied on, so a second
    # evaluation anywhere in the call (the hazard, the recursion) counts
    evaluated = []
    spied = 0

    def spy(x):
        evaluated.append(np.size(x))
        return log_ndtr(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("glmamp") and getattr(module, "log_ndtr", None) is log_ndtr:
            monkeypatch.setattr(module, "log_ndtr", spy)
            spied += 1
    assert spied >= 1
    n = 7  # t runs from -5.7 to 3.8: both sides of the closed form's -3
    LaplacePrior(1.5).denoise(Mode.SUM_PRODUCT, np.linspace(-3, 3, n), np.full(n, 0.4))
    assert sum(evaluated) == 2 * n


class TestBernoulliGaussianPrior:
    # r across the spike's reach, where both components weigh in, and the slab's
    @pytest.mark.parametrize("prior", [BernoulliGaussianPrior(0.1, 0.0, 1.0),
                                       BernoulliGaussianPrior(0.25, 0.5, 2.0)])
    @pytest.mark.parametrize("tau", [1e-2, 1e-5, 1e-8, 1e-11])
    def test_mmse_against_mpmath(self, prior, tau):
        r = np.concatenate([np.sqrt(tau) * np.linspace(-8.0, 8.0, 33),
                            prior.mean + np.sqrt(prior.var) * np.linspace(-3.0, 3.0, 7)])
        st_ = prior.denoise(Mode.SUM_PRODUCT, r, np.full_like(r, tau))
        ref = np.array([bg_mmse_mp(prior.rho, prior.mean, prior.var, ri, tau) for ri in r])
        np.testing.assert_allclose(st_.variance, ref[:, 1], rtol=1e-13, atol=0)
        assert np.all(np.abs(st_.point - ref[:, 0]) <= 1e-13 * (np.sqrt(tau) + np.abs(r)))

    def test_symmetric_point_zero(self):
        prior = BernoulliGaussianPrior(0.1, 0.0, 1.0)
        st_ = prior.denoise(Mode.SUM_PRODUCT, 0.0, 1.0)
        assert st_.point == pytest.approx(0.0, abs=1e-15)
        assert st_.variance > 0

    def test_variance_against_grid(self):
        # mixture oracle: spike as a narrow Gaussian would bias the grid, so
        # integrate slab and spike components analytically-weighted instead
        prior = BernoulliGaussianPrior(0.1, 0.0, 1.0)
        r, tau = 0.0, 1.0
        st_ = prior.denoise(Mode.SUM_PRODUCT, r, tau)
        # closed mixture algebra: pi = rho N(0; 0, 2) / (rho N(0;0,2) + (1-rho) N(0;0,1))
        from scipy.stats import norm
        z1 = 0.1 * norm.pdf(0.0, 0.0, np.sqrt(2.0))
        z0 = 0.9 * norm.pdf(0.0, 0.0, 1.0)
        pi = z1 / (z1 + z0)
        second = pi * 0.5  # slab posterior: mean 0, var 1/2
        assert st_.variance == pytest.approx(second, rel=1e-12)

    def test_mmse_against_quadrature_mixture(self):
        prior = BernoulliGaussianPrior(0.25, 0.5, 2.0)
        for (r, tau) in [(1.0, 0.5), (-2.0, 1.5), (0.3, 3.0)]:
            st_ = prior.denoise(Mode.SUM_PRODUCT, r, tau)

            # independent oracle: exact mixture of spike point mass and a
            # slab handled on a dense grid
            def slab_logw(x):
                return -0.5 * (x - prior.mean) ** 2 / prior.var \
                    - 0.5 * np.log(2 * np.pi * prior.var) \
                    - (x - r) ** 2 / (2 * tau)

            m_s, v_s = grid_moments(slab_logw, r, np.sqrt(tau), n_points=200_001, width=15)
            from scipy.stats import norm
            z1 = prior.rho * norm.pdf(r, prior.mean, np.sqrt(prior.var + tau))
            z0 = (1 - prior.rho) * norm.pdf(0.0, r, np.sqrt(tau))
            pi = z1 / (z1 + z0)
            mean_o = pi * m_s
            second_o = pi * (v_s + m_s ** 2)
            var_o = second_o - mean_o ** 2
            assert st_.point == pytest.approx(mean_o, rel=1e-8, abs=1e-10)
            assert st_.variance == pytest.approx(var_o, rel=1e-7)

    def test_maxsum_spike_or_slab(self):
        prior = BernoulliGaussianPrior(0.1, 0.0, 1.0)
        weak = prior.denoise(Mode.MAX_SUM, 0.1, 1.0)
        assert weak.point == 0.0
        strong = prior.denoise(Mode.MAX_SUM, 5.0, 0.1)
        assert strong.point != 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BernoulliGaussianPrior(2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            BernoulliGaussianPrior(0.1, 0.0, -1.0)


# At |r| = 1e160 every square of r overflows, both bg evidences were -inf and
# the mixture's spread term 0 * inf: the posterior was NaN, with warnings.
# The dominant branch is the answer there: bg's slab, r v / (v + tau) with
# variance v tau / (v + tau), and laplace's branch on r's side, r -+ rate tau
# with variance tau.  An ordinary value in the same batch keeps its bits.
@pytest.mark.parametrize("prior, huge_point, huge_var", [
    (BernoulliGaussianPrior(0.1, 0.0, 1.0), lambda r: r / 2, 0.5),
    (BernoulliGaussianPrior(1.0, 0.0, 1.0), lambda r: r / 2, 0.5),
    (LaplacePrior(1.0), lambda r: r - np.sign(r), 1.0)], ids=["bg", "bg-rho-1", "laplace"])
def test_mmse_at_huge_cavity_means_takes_the_dominant_branch(prior, huge_point, huge_var):
    r = np.array([1e160, -1e160, 1e100, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st_ = prior.denoise(Mode.SUM_PRODUCT, r, 1.0)
        alone = prior.denoise(Mode.SUM_PRODUCT, r[3:], 1.0)
    assert np.array_equal(st_.point[:3], huge_point(r[:3]))
    assert np.array_equal(st_.variance[:3], np.full(3, huge_var))
    assert st_.point[3] == alone.point[0] and st_.variance[3] == alone.variance[0]


# Both bg evidences are -inf here too, but the spike is the nearer in units of
# its spread: the slab is a point at -1e150, and r = 1e155 lies 1e80 prior
# sds from 0 against 1.00001e80 from the slab.
def test_bg_mmse_at_a_huge_cavity_mean_can_take_the_spike():
    prior = BernoulliGaussianPrior(0.5, -1e150, 1e-150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st_ = prior.denoise(Mode.SUM_PRODUCT, 1e155, 1e150)
    assert st_.point == 0.0 and st_.variance == POSTERIOR_VARIANCE_FLOOR


# The MAP objectives are -inf there too, and the MAP module settles the tie by
# the same distances: the spike at 1e155, the slab (the nearer, a point at 0
# with prior variance 1) at 1e160.  A tie used to take the slab, with an
# overflow warning.
def test_bg_map_at_huge_cavity_means_takes_the_nearer_branch():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spike = BernoulliGaussianPrior(0.5, -1e150, 1e-150).denoise(Mode.MAX_SUM, 1e155, 1e150)
        slab = BernoulliGaussianPrior(0.1, 0.0, 1.0).denoise(
            Mode.MAX_SUM, np.array([1e160, -1e160]), 1.0)
    assert spike.point == 0.0 and spike.variance == DEFAULT_VARIANCE_FLOOR
    assert np.array_equal(slab.point, [5e159, -5e159])
    assert np.array_equal(slab.variance, [0.5, 0.5])


# ROADMAP 3(d): the slab's precision-weighted mean r / tau = 1e320 overflowed
# with a warning and gave an infinite point; the posterior is r's side,
# 1e160 with variance tau.  An ordinary value in the same batch keeps its bits.
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("prior", [GaussianPrior(0.0, 1.0), BernoulliGaussianPrior(0.1, 0.0, 1.0)],
                         ids=lambda p: p.name)
def test_denoise_at_a_mean_whose_precision_weight_overflows(prior, mode):
    r, tau = np.array([1e160, 0.5]), np.array([1e-160, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st_ = prior.denoise(mode, r, tau)
        alone = prior.denoise(mode, r[1:], tau[1:])
    assert st_.point[0] == 1e160 and st_.variance[0] == pytest.approx(1e-160, rel=1e-15)
    assert st_.point[1] == alone.point[0] and st_.variance[1] == alone.variance[0]


@pytest.mark.parametrize("prior", [
    GaussianPrior(0.0, 1.0), LaplacePrior(1.0), BernoulliGaussianPrior(0.2, 0.0, 1.0)],
    ids=lambda p: p.name)
def test_marginal_moments_match_sampling(prior):
    rng = np.random.default_rng(42)
    x = prior.sample(200_000, rng)
    assert np.mean(x) == pytest.approx(prior.marginal_mean(), abs=0.02)
    assert np.var(x) == pytest.approx(prior.marginal_variance(), rel=0.05)


@pytest.mark.parametrize("prior", [GaussianPrior(0.5, 2.0), LaplacePrior(0.7)],
                         ids=lambda p: p.name)
def test_sumproduct_variance_at_most_tau(prior):
    rng = np.random.default_rng(3)
    r = rng.uniform(-5, 5, 100)
    tau = rng.uniform(0.05, 10, 100)
    st_ = prior.denoise(Mode.SUM_PRODUCT, r, tau)
    assert np.all(np.asarray(st_.variance) <= tau * (1 + 1e-10))
    assert np.all(np.asarray(st_.variance) > 0)


class _TwoModulePrior(InputPrior):
    """A prior given by its two scalar modules alone; each checks its contract."""

    name = "two-module"

    @staticmethod
    def _check(r, tau):
        assert r.ndim == 1 and r.shape == tau.shape
        assert r.dtype == tau.dtype == np.float64

    def mmse_moments(self, r, tau):
        self._check(r, tau)
        return r / (1.0 + tau), tau / (1.0 + tau)

    def map_moments(self, r, tau):
        self._check(r, tau)
        return r - tau, np.zeros_like(tau)  # a variance of 0, held at the floor


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("r_shape, tau_shape", [((), ()), ((3,), (3,)), ((2, 3), (2, 3)),
                                                ((2, 3), ()), ((2, 1), (3,))],
                         ids=["0d", "1d", "2d", "2d-0d", "2d-1d"])
def test_a_prior_of_two_modules_denoises_through_the_base_denoise(mode, r_shape, tau_shape):
    rng = np.random.default_rng(5)
    r, tau = rng.standard_normal(r_shape), rng.uniform(0.5, 2.0, tau_shape)
    prior = _TwoModulePrior()
    stats = prior.denoise(mode, r, tau)
    shape = np.broadcast_shapes(r_shape, tau_shape)
    assert stats.point.shape == stats.variance.shape == shape
    module = prior.mmse_moments if mode is Mode.SUM_PRODUCT else prior.map_moments
    r, tau = np.broadcast_arrays(r, tau)
    for idx in np.ndindex(shape):
        point, var = module(np.array([r[idx]]), np.array([tau[idx]]))
        assert stats.point[idx] == point[0]
        assert stats.variance[idx] == max(var[0], POSTERIOR_VARIANCE_FLOOR)
    if mode is Mode.MAX_SUM:
        assert np.all(stats.variance == POSTERIOR_VARIANCE_FLOOR)
