import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from glmamp.channels import Mode
from glmamp.priors import BernoulliGaussianPrior, GaussianPrior, LaplacePrior

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
