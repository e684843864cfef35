import ast
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from glmamp import channels, gaussian
from glmamp.channels import (POISSON_MAX_COUNT, QUAD_MAX_ORDER, QUAD_START_ORDER, SCALE_RANGE,
                             AwgnChannel, LogisticChannel, Mode, OutputChannel,
                             PoissonChannel, ProbitChannel, QuadratureError, awgn_g_out,
                             g_out_with_stats, posterior_map, posterior_mmse)
from glmamp.engine import ProblemInstance, run_gamp
from glmamp.gaussian import ExtrinsicMessage, GaussianBelief, combine
from glmamp.priors import GaussianPrior
from glmamp.problems import generate_problem
from glmamp.specs import _CHANNELS

from oracles import (gauss_hermite_moments, golden_section_max, grid_moments,
                     logistic_tilted_moments_mp, poisson_tilted_moments_mp,
                     probit_posterior_closed_form, probit_tilted_moments_mp)

SQRT3 = np.sqrt(3.0)
EPS = np.finfo(float).eps

CHANNELS = [AwgnChannel(1.0), ProbitChannel(1.0), PoissonChannel(), LogisticChannel(1.0)]


def _valid_zy(channel, rng, size=200):
    z = rng.uniform(-3, 3, size=size)
    if channel.domain == "positive":
        z = np.abs(z) + 0.05
    y = channel.sample(z, rng)
    return z, y


@pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.name)
class TestDerivatives:
    def test_d1_matches_finite_differences(self, channel):
        rng = np.random.default_rng(0)
        z, y = _valid_zy(channel, rng)
        h = 1e-5
        fd = (channel.log_likelihood(z + h, y) - channel.log_likelihood(z - h, y)) / (2 * h)
        d1 = channel.d12(z, y)[0]
        assert np.all(np.abs(d1 - fd) <= 1e-6 * np.maximum(np.abs(d1), 1.0))

    def test_d2_matches_finite_differences_of_d1(self, channel):
        rng = np.random.default_rng(1)
        z, y = _valid_zy(channel, rng)
        h = 1e-5
        fd = (channel.d12(z + h, y)[0] - channel.d12(z - h, y)[0]) / (2 * h)
        d2 = channel.d12(z, y)[1]
        assert np.all(np.abs(d2 - fd) <= 1e-6 * np.maximum(np.abs(d2), 1.0))

    def test_log_concave(self, channel):
        rng = np.random.default_rng(2)
        z, y = _valid_zy(channel, rng)
        assert np.all(channel.d12(z, y)[1] <= 0.0)


class TestDerivativePair:
    @pytest.mark.parametrize("cls", [cls for cls, _ in _CHANNELS.values()],
                             ids=lambda cls: cls.name)
    def test_pair_has_the_broadcast_shape(self, cls):
        z, y = _valid_zy(cls(), np.random.default_rng(3), size=5)
        for zz, yy in [(float(z[0]), float(y[0])), (z, float(y[0])), (float(z[0]), y),
                       (z, y), (z[:, None], y[None, :])]:
            shape = np.broadcast_shapes(np.shape(zz), np.shape(yy))
            for f in cls().d12(zz, yy):
                assert np.shape(f) == shape and np.asarray(f).dtype == float

    def test_logistic_one_tanh_is_two_sigmoids(self):
        # d1 = y sigmoid(-y z / scale) / scale from the tanh that d2 uses
        ch = LogisticChannel(0.3)
        rng = np.random.default_rng(4)
        z = np.concatenate([rng.normal(0.0, 3.0, 1000), [0.0, -0.0, 1e-300, 40.0, -40.0]])
        for y in (1.0, -1.0):
            t = y * z / ch.scale
            assert np.array_equal(ch.d12(z, y)[0], y * ch._cdf(-t) / ch.scale)

    @pytest.mark.parametrize("channel", [ProbitChannel(0.3), LogisticChannel(1.0)],
                             ids=lambda c: c.name)
    def test_newton_takes_derivatives_only_from_the_pair(self, channel, monkeypatch):
        calls = []
        d12 = type(channel).d12

        def d12_spy(self, z, y):
            calls.append((np.array(z), *d12(self, z, y)))
            return calls[-1][1:]

        monkeypatch.setattr(type(channel), "d12", d12_spy)
        rng = np.random.default_rng(6)
        mean = rng.uniform(-3.0, 3.0, 50)
        var = np.exp(rng.uniform(np.log(0.01), np.log(100.0), 50))
        y = np.where(rng.uniform(size=50) < 0.5, 1.0, -1.0)
        stats = posterior_map(channel, y, GaussianBelief(mean, var))
        assert len(calls) > 2 and np.array_equal(calls[0][0], mean)
        # the last trial point is the mode, and its f'' gives the variance
        mode, _, f2 = calls[-1]
        assert np.array_equal(mode, stats.point)
        assert np.array_equal(1.0 / (-f2 + 1.0 / var), stats.variance)


def _probit_tail_reference(t):
    """d1 and d2 of log Phi at t (scale 1), from 50-digit mpmath."""
    with mpmath.workdps(50):
        t = mpmath.mpf(float(t))
        r = mpmath.npdf(t) / mpmath.ncdf(t)
        return float(r), float(-r * (t + r))


@pytest.mark.parametrize("scale", [1.0, 0.3])
def test_probit_derivatives_against_mpmath_down_to_far_tail(scale):
    # the log_ndtr ratio loses every digit of d2 by t = -1e4
    ch = ProbitChannel(scale)
    t = np.concatenate([-np.logspace(0.0, 8.0, 81), np.linspace(-12.0, 40.0, 105),
                        [-8.0, np.nextafter(-8.0, 0.0), np.nextafter(-8.0, -9.0)]])
    for y in (1.0, -1.0):
        z = y * t * scale
        f1, f2 = ch.d12(z, y)
        for j, tj in enumerate(ch._t(z, y)):
            r1, r2 = _probit_tail_reference(tj)
            # relative error, counting values below the smallest normal as zero
            assert abs(f1[j] * scale * y - r1) <= 1e-12 * abs(r1) + np.finfo(float).tiny, tj
            assert abs(f2[j] * scale ** 2 - r2) <= 1e-12 * abs(r2) + np.finfo(float).tiny, tj
        assert np.all((f2 >= -1.0 / scale ** 2) & (f2 <= 0.0))


class TestPosteriorMmse:
    def test_awgn_conjugate(self):
        st_ = posterior_mmse(AwgnChannel(1.0), 2.0, GaussianBelief(0.0, 1.0))
        assert st_.point == pytest.approx(1.0, abs=1e-14)
        assert st_.variance == pytest.approx(0.5, abs=1e-14)

    def test_probit_against_prebuilt_quadrature_oracle(self):
        # oracle: plain 201-node Gauss-Hermite at the belief, no recentering
        ch = ProbitChannel(1.0)
        for (mean, var, y) in [(0.0, 1.0, 1.0), (0.5, 2.0, -1.0), (-1.5, 0.3, 1.0)]:
            m_o, v_o = gauss_hermite_moments(
                lambda z: ch.log_likelihood(z, y), mean, var, order=201)
            st_ = posterior_mmse(ch, y, GaussianBelief(mean, var))
            assert st_.point == pytest.approx(m_o, rel=1e-8, abs=1e-10)
            assert st_.variance == pytest.approx(v_o, rel=1e-8)

    def test_probit_against_closed_form(self):
        ch = ProbitChannel(1.0)
        st_ = posterior_mmse(ch, 1.0, GaussianBelief(0.3, 2.0))
        m, v = probit_posterior_closed_form(1.0, 0.3, 2.0)
        assert st_.point == pytest.approx(m, rel=1e-10)
        assert st_.variance == pytest.approx(v, rel=1e-10)

    @pytest.mark.parametrize("channel,y", [
        (ProbitChannel(1.0), 1.0),
        (ProbitChannel(0.5), -1.0),
        (LogisticChannel(1.0), -1.0),
        (PoissonChannel(), 3.0),
        (PoissonChannel(), 0.0),
    ], ids=["probit+", "probit-", "logistic", "poisson3", "poisson0"])
    def test_against_dense_grid(self, channel, y):
        lower = 1e-12 if channel.domain == "positive" else None
        for (mean, var) in [(0.0, 1.0), (1.0, 4.0), (-2.0, 0.5), (3.0, 10.0)]:
            st_ = posterior_mmse(channel, y, GaussianBelief(mean, var))

            def logw(z):
                return channel.log_likelihood(z, y) - (z - mean) ** 2 / (2 * var)

            m_o, v_o = grid_moments(logw, float(st_.point),
                                    float(np.sqrt(st_.variance)), lower=lower)
            scale = np.sqrt(var) + abs(mean)
            assert abs(st_.point - m_o) <= 1e-6 * scale
            assert abs(st_.variance - v_o) <= 1e-6 * scale ** 2

    @pytest.mark.parametrize("channel,y", [
        (ProbitChannel(1.0), 1.0), (LogisticChannel(1.0), -1.0), (PoissonChannel(), 2.0)],
        ids=lambda v: getattr(v, "name", v))
    def test_tiny_belief_variance_returns_mean(self, channel, y):
        mean = 0.8 if channel.domain == "positive" else -0.7
        st_ = posterior_mmse(channel, y, GaussianBelief(mean, 1e-12))
        assert st_.point == pytest.approx(mean, abs=1e-5)

    def test_data_cannot_widen_posterior(self):
        rng = np.random.default_rng(5)
        for channel in CHANNELS:
            _, y = _valid_zy(channel, rng, size=50)
            mean = rng.uniform(-2, 2, size=50)
            if channel.domain == "positive":
                mean = np.abs(mean) + 0.1
            var = rng.uniform(0.2, 5.0, size=50)
            st_ = posterior_mmse(channel, y, GaussianBelief(mean, var))
            assert np.all(np.asarray(st_.variance) <= var * (1 + 1e-8))

    def test_support_violation_raises(self):
        with pytest.raises(ValueError):
            posterior_mmse(ProbitChannel(1.0), 0.5, GaussianBelief(0.0, 1.0))
        with pytest.raises(ValueError):
            posterior_mmse(PoissonChannel(), -1.0, GaussianBelief(1.0, 1.0))


@pytest.mark.parametrize("channel", [ProbitChannel(1.0), LogisticChannel(1.0)],
                         ids=lambda c: c.name)
def test_binary_support_truth_table(channel):
    y = [1.0, -1.0, 0.0, 2.0, np.nan, np.inf, -np.inf]
    expected = [True, True, False, False, False, False, False]
    assert channel.in_support(np.array(y)).tolist() == expected
    assert channel.in_support(y).tolist() == expected  # lists and scalars too
    assert channel.in_support(-1) and not channel.in_support(0.5)


def test_poisson_support_truth_table():
    # bounded counts only: the Poisson moments recurse once per count
    y = [0.0, 3.0, POISSON_MAX_COUNT, 2.5, -1.0, np.nan, np.inf, -np.inf,
         POISSON_MAX_COUNT + 1.0, 1e9]
    expected = [True, True, True, False, False, False, False, False, False, False]
    assert PoissonChannel().in_support(np.array(y)).tolist() == expected
    assert PoissonChannel().in_support(y).tolist() == expected


@pytest.mark.parametrize("cls", [ProbitChannel, LogisticChannel], ids=lambda c: c.name)
@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan])
def test_binary_scale_check_names_the_channel(cls, scale):
    with pytest.raises(ValueError, match=f"^{cls.name} scale must be > 0$"):
        cls(scale)


@pytest.mark.parametrize("cls", [ProbitChannel, LogisticChannel], ids=lambda c: c.name)
def test_binary_scale_range_is_closed(cls):
    lo, hi = SCALE_RANGE
    assert cls(lo).scale == lo and cls(hi).scale == hi
    for scale in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)):
        with pytest.raises(ValueError, match=f"^{cls.name} scale must be in \\["):
            cls(scale)


def _poisson_beliefs(y, t, tau):
    """Beliefs N(p_hat, tau) whose tilted density for count y has the given
    t = (p_hat - tau)/sqrt(tau), one per (y, t, tau) combination."""
    y, t, tau = (a.ravel() for a in np.meshgrid(y, t, tau, indexing="ij"))
    return y, t * np.sqrt(tau) + tau, tau


def _poisson_spy(monkeypatch):
    """Record every ``_gh_moments`` call."""
    calls = []
    gh_moments = channels._gh_moments

    def spy(*args):
        calls.append(args)
        return gh_moments(*args)

    monkeypatch.setattr(channels, "_gh_moments", spy)
    return calls


@pytest.mark.parametrize("channel", [ProbitChannel(1.0), LogisticChannel(0.3), AwgnChannel(0.5)],
                         ids=lambda c: c.name)
def test_mmse_of_a_0d_belief_is_0d(channel):
    # a one-element batch: in a wider batch the probit Laplace centre takes
    # the batch's Newton steps, which can move its last bits
    p_hat, tau_p, y = 0.4, 2.5, 1.0
    alone = posterior_mmse(channel, y, GaussianBelief(p_hat, tau_p))
    batch = posterior_mmse(channel, np.array([y]),
                           GaussianBelief(np.array([p_hat]), np.array([tau_p])))
    for got, whole in ((alone.point, batch.point), (alone.variance, batch.variance)):
        assert type(got) is np.ndarray and got.shape == () and got.dtype == np.float64
        assert got == whole[0]


class TestPoissonMmse:
    # t = -3 / sqrt(y + 1) splits the forward and backward recursions
    T_GRID = np.array([-3000.0, -300.0, -30.0, -3.0, -1.0, -0.3, -0.1, 0.0,
                       0.1, 1.0, 3.0, 30.0, 300.0])

    @pytest.mark.parametrize("y", [0, 1, 2, 5, 32, 33, 64])
    def test_against_mpmath_oracle(self, y):
        # the recursion is exact up to rounding
        rtol = 1e-10
        split = -3.0 / np.sqrt(y + 1.0) * np.array([1.01, 0.99])
        ys, p_hat, tau = _poisson_beliefs(
            float(y), np.concatenate([self.T_GRID, split]), np.array([1e-4, 1.0, 25.0]))
        stats = posterior_mmse(PoissonChannel(), ys, GaussianBelief(p_hat, tau))
        for j in range(ys.size):
            m, v = poisson_tilted_moments_mp(y, p_hat[j], tau[j])
            assert abs(stats.point[j] - m) <= rtol * m, (p_hat[j], tau[j])
            assert abs(stats.variance[j] - v) <= rtol * v, (p_hat[j], tau[j])

    def test_batch_bits_equal_one_at_a_time(self):
        ys, p_hat, tau = _poisson_beliefs(
            np.array([0.0, 1.0, 7.0, 32.0, 33.0]), np.array([-40.0, -0.6, 0.0, 2.0, 50.0]),
            np.array([1e-3, 2.0]))
        batch = posterior_mmse(PoissonChannel(), ys, GaussianBelief(p_hat, tau))
        for j in range(ys.size):
            alone = posterior_mmse(PoissonChannel(), ys[j], GaussianBelief(p_hat[j], tau[j]))
            assert alone.point == batch.point[j] and alone.variance == batch.variance[j]

    def test_uses_no_quadrature(self, monkeypatch):
        calls = _poisson_spy(monkeypatch)
        ys, p_hat, tau = _poisson_beliefs(np.array([0.0, 1.0, 5.0, 32.0, 64.0, 300.0]),
                                          self.T_GRID, np.array([1e-4, 1.0]))
        posterior_mmse(PoissonChannel(), ys, GaussianBelief(p_hat, tau))
        assert calls == []

    def test_zero_count_narrow_belief(self, monkeypatch):
        # log-space quadrature needed order 1025 here: the mass piled against
        # z = 0 is a slowly decaying tail in log z
        calls = _poisson_spy(monkeypatch)
        stats = posterior_mmse(PoissonChannel(), 0.0, GaussianBelief(0.04, 1e-4))
        m, v = poisson_tilted_moments_mp(0, 0.04, 1e-4)
        assert stats.point == pytest.approx(m, rel=1e-10, abs=0)
        assert stats.variance == pytest.approx(v, rel=1e-10, abs=0)
        assert calls == []


def _probit_quadrature(mean, var, y, cols, scale=1.0):
    """``_adaptive_gh`` arguments for the probit tilted densities ``cols``.

    The Laplace fit is taken once over the whole batch, so a column's
    arguments are the same bits whether it is integrated alone or not.
    """
    ch = ProbitChannel(scale)
    mean, var, y = (np.asarray(a, dtype=float) for a in (mean, var, y))
    lap = posterior_map(ch, y, GaussianBelief(mean, var))
    mean, var, y = mean[cols], var[cols], y[cols]

    def log_target(z, idx):  # z is (order, len(idx))
        return ch.log_likelihood(z, y[idx]) - (z - mean[idx]) ** 2 / (2.0 * var[idx])

    return (log_target, np.asarray(lap.point)[cols],
            np.sqrt(np.asarray(lap.variance))[cols], np.sqrt(var) + np.abs(mean))


class TestAdaptiveQuadrature:
    # an easy (narrow) and a hard (wide) belief under probit(1), y = +1
    BATCH = ([0.5, 0.0], [0.01, 30.0], [1.0, 1.0])

    def test_refines_only_unconverged_components(self, monkeypatch):
        calls = []
        gh_moments = channels._gh_moments

        def spy(log_target, idx, center, sigma, order):
            calls.append((order, len(idx)))
            return gh_moments(log_target, idx, center, sigma, order)

        monkeypatch.setattr(channels, "_gh_moments", spy)
        mean, var = channels._adaptive_gh(*_probit_quadrature(*self.BATCH, [0, 1]))
        first_doubling = 2 * QUAD_START_ORDER + 1
        assert calls[:2] == [(QUAD_START_ORDER, 2), (first_doubling, 2)]
        assert len(calls) > 2 and all(n == 1 for _, n in calls[2:])

        monkeypatch.undo()
        for j in (0, 1):
            alone = channels._adaptive_gh(*_probit_quadrature(*self.BATCH, [j]))
            assert alone[0][0] == mean[j] and alone[1][0] == var[j]

    @pytest.mark.parametrize("channel", [ProbitChannel(0.3), LogisticChannel(0.3)],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("order", [QUAD_START_ORDER, 47])
    def test_blocks_bit_identical_to_one_component_calls(self, channel, order):
        # three components more than one block holds, so the batch spans two;
        # numpy sums a width-1 block pairwise unless told otherwise
        k = channels.GH_BLOCK_NODES // order + 3
        rng = np.random.default_rng(order)
        mean = rng.uniform(-3.0, 3.0, k)
        var = np.exp(rng.uniform(np.log(0.1), np.log(10.0), k))
        y = np.where(rng.uniform(size=k) < 0.5, 1.0, -1.0)
        lap = posterior_map(channel, y, GaussianBelief(mean, var))
        center, sigma = np.asarray(lap.point), np.sqrt(np.asarray(lap.variance))

        def log_target(z, idx):  # z is (order, len(idx))
            return channel.log_likelihood(z, y[idx]) \
                - (z - mean[idx]) ** 2 / (2.0 * var[idx])

        batch = np.array(channels._gh_moments(log_target, np.arange(k), center, sigma, order))
        for width in (1, 2):
            parts = [channels._gh_moments(log_target, np.arange(lo, min(lo + width, k)),
                                          center, sigma, order) for lo in range(0, k, width)]
            assert np.array_equal(np.hstack([np.array(p) for p in parts]), batch), width

    @pytest.mark.parametrize("order", [11, 23, 47, 95, 191, 383, 767, 1025])
    def test_moments_match_fsum_reference(self, order):
        # each component against the same terms summed with one rounding
        ch = LogisticChannel(0.3)
        mean = np.array([0.0, 1.5, -2.0, 0.2, 4.0])
        var = np.array([1.0, 0.02, 6.0, 30.0, 0.5])
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        lap = posterior_map(ch, y, GaussianBelief(mean, var))
        center, sigma = np.asarray(lap.point), np.sqrt(np.asarray(lap.variance))

        def log_target(z, idx):
            return ch.log_likelihood(z, y[idx]) - (z - mean[idx]) ** 2 / (2.0 * var[idx])

        got_mean, got_var = channels._gh_moments(log_target, np.arange(5), center,
                                                 sigma, order)
        t, log_w = channels._gh_nodes(order)
        scale = np.sqrt(var) + np.abs(mean)
        for j in range(5):
            x = center[j] + np.sqrt(2.0) * sigma[j] * t
            log_pi = log_target(x[:, None], np.array([j]))[:, 0] + t * t + log_w
            pi = np.exp(log_pi - np.max(log_pi))
            pi /= math.fsum(pi)
            m = math.fsum(pi * x)
            v = math.fsum(pi * (x - m) ** 2)
            # the ~40 nodes that carry mass are summed in node order
            assert abs(got_mean[j] - m) <= 8 * EPS * scale[j], j
            assert abs(got_var[j] - v) <= 8 * EPS * scale[j] ** 2, j

    def test_large_mmse_regime_closes_at_order_23(self, monkeypatch):
        # probit(0.3) beliefs with the spread of large-mmse's GAMP iterations
        # after the first: each component needs the 11- and 23-node rules,
        # 34 likelihood nodes, and Newton takes full steps from the belief mean
        ch = ProbitChannel(0.3)
        rng = np.random.default_rng(0)
        tau = rng.uniform(0.017, 0.045, 2048)
        mean = rng.normal(0.0, 0.28, 2048)
        y = ch.sample(mean + np.sqrt(tau) * rng.standard_normal(2048), rng)
        gh_calls, nodes, pairs = [], [0], []
        gh_moments, log_likelihood, d12 = (channels._gh_moments,
                                           ProbitChannel.log_likelihood, ProbitChannel.d12)

        def gh_spy(log_target, idx, center, sigma, order):
            gh_calls.append((order, len(idx)))
            return gh_moments(log_target, idx, center, sigma, order)

        def ll_spy(self, z, y):
            nodes[0] += np.size(z)
            return log_likelihood(self, z, y)

        def d12_spy(self, z, y):
            out = d12(self, z, y)
            pairs.append((np.array(z), *out))
            return out

        monkeypatch.setattr(channels, "_gh_moments", gh_spy)
        monkeypatch.setattr(ProbitChannel, "log_likelihood", ll_spy)
        monkeypatch.setattr(ProbitChannel, "d12", d12_spy)
        posterior_mmse(ch, y, GaussianBelief(mean, tau))
        assert gh_calls == [(QUAD_START_ORDER, 2048), (2 * QUAD_START_ORDER + 1, 2048)]
        assert nodes[0] == 34 * 2048
        assert np.array_equal(pairs[0][0], mean)
        for (z, f1, f2), (z_next, _, _) in zip(pairs, pairs[1:]):
            step = -(f1 - (z - mean) / tau) / (f2 - 1.0 / tau)
            assert np.array_equal(z_next, z + step)  # no backtracking

    def test_unresolvable_target_raises_at_max_order(self):
        def spike(x, idx):  # far outside the N(0, 1) proposal and narrower than any node gap
            return -0.5 * ((x - 30.0) / 1e-3) ** 2

        with pytest.raises(QuadratureError) as err:
            channels._adaptive_gh(spike, np.zeros(1), np.ones(1), np.ones(1))
        assert err.value.order == QUAD_MAX_ORDER
        assert err.value.residual > 1e-7

    def test_split_same_bits_as_serial(self):
        # three components: the calling thread's half is one GH column
        batch = ([0.5, 0.0, -1.0], [0.01, 30.0, 2.0], [1.0, 1.0, -1.0])
        args = _probit_quadrature(*batch, [0, 1, 2])
        serial = channels._adaptive_gh(*args)
        with ThreadPoolExecutor(1) as worker:
            split = channels._adaptive_gh(*args, worker)
        assert np.array_equal(split[0], serial[0]) and np.array_equal(split[1], serial[1])

    # (where, width) of spikes whose residuals at QUAD_MAX_ORDER differ, and
    # of one target the N(0, 1) proposal integrates exactly
    SPIKES = {"easy": (0.0, 1.0), "small": (30.0, 1e-3), "large": (20.0, 5e-3)}

    @pytest.mark.parametrize("names", [("small", "large", "easy"), ("large", "easy", "small"),
                                       ("easy", "small", "large"),
                                       ("large", "small", "easy", "easy")], ids="-".join)
    def test_split_raises_the_serial_error(self, names):
        # the worker refines the second half: the largest residual lies in
        # either half, or one half closes
        where, width = (np.array([self.SPIKES[name][i] for name in names]) for i in (0, 1))

        def spikes(x, idx):
            return -0.5 * ((x - where[idx]) / width[idx]) ** 2

        args = (spikes, np.zeros(len(names)), np.ones(len(names)), np.ones(len(names)))
        with pytest.raises(QuadratureError) as serial:
            channels._adaptive_gh(*args)
        with ThreadPoolExecutor(1) as worker, pytest.raises(QuadratureError) as split:
            channels._adaptive_gh(*args, worker)
        assert str(split.value) == str(serial.value)
        assert (split.value.residual, split.value.order) == \
            (serial.value.residual, serial.value.order)


@given(
    scale=st.floats(0.1, 3.0),
    log_ratio=st.floats(np.log(1e-4), np.log(10.0)),
    standardized_mean=st.floats(-8.0, 8.0),
    y=st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_probit_mmse_matches_closed_form(scale, log_ratio, standardized_mean, y):
    """Quadrature vs Gaussian-CDF conjugacy, to QUAD_RTOL's 1e-9 scale.

    tau_p runs over [1e-4, 10] * scale^2 and |p_hat| / sqrt(scale^2 + tau_p)
    stays at most 8, where the closed form is finite.  A low start order
    whose first two refinements agree while both are wrong fails here.
    """
    var = float(np.exp(log_ratio)) * scale ** 2
    mean = standardized_mean * np.sqrt(scale ** 2 + var)
    stats = posterior_mmse(ProbitChannel(scale), y, GaussianBelief(mean, var))
    m, v = probit_posterior_closed_form(y, mean, var, scale=scale)
    size = np.sqrt(var) + abs(mean)
    assert abs(stats.point - m) <= 1e-9 * size
    assert abs(stats.variance - v) <= 1e-9 * size ** 2


def _binary_beliefs(k, seed):
    """k beliefs from the verify ranges and y = +-1 at random."""
    rng = np.random.default_rng(seed)
    return (np.where(rng.uniform(size=k) < 0.5, 1.0, -1.0), rng.uniform(-3.0, 3.0, k),
            np.exp(rng.uniform(np.log(0.1), np.log(10.0), k)))


class TestProbitTilted:
    # t = y mean / sqrt(scale^2 + var) from the hazard's log_ndtr range,
    # across -3, where the helper switches to the backward recursion, and
    # on past the hazard's own tail at -8
    T = np.concatenate([np.linspace(-20.0, -8.5, 12), [-8.0, -7.5], np.linspace(-6.0, 6.0, 13)])

    def _check(self, y, mean, var, scale):
        log_z, m, v = gaussian._probit_tilted(y, mean, var, scale)
        y, mean, var, scale = np.broadcast_arrays(y, mean, var, scale)
        m_o, v_o = probit_posterior_closed_form(y, mean, var, scale=scale)
        t = y * mean / np.sqrt(scale ** 2 + var)
        # the oracle's tolerance, not the helper's: it forms r + t, which
        # cancels by about 1 + t^2 at t << 0, and then subtracts from the
        # belief's moments
        cond = 1.0 + np.minimum(t, 0.0) ** 2
        assert np.all(np.abs(m - m_o) <= 1e-13 * cond * (np.abs(mean) + np.abs(m_o - mean)))
        assert np.all(np.abs(v - v_o) <= 1e-12 * cond * var)
        assert np.allclose(np.exp(log_z), norm.cdf(t), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("var", [1e-4, 1.0, 25.0])
    @pytest.mark.parametrize("y", [1.0, -1.0])
    def test_matches_closed_form_into_the_tail(self, y, var):
        scale = 0.3
        self._check(y, y * self.T * np.sqrt(scale ** 2 + var), var, scale)

    @pytest.mark.parametrize("scale", [0.3, 1.0])
    def test_one_vector_of_scales_per_mixture_node(self, scale):
        # the logistic mixture's call: scales 2 K scale down axis 0, one
        # column per belief, each value its own closed form
        y, mean, var = _binary_beliefs(40, 7)
        y = np.concatenate([y, [1.0, -1.0]])
        mean = np.concatenate([mean, [-3.0, 3.0]])  # t down to -13 at small K
        var = np.concatenate([var, [0.05, 0.05]])
        scales = channels._MIX_TWO_K * scale
        assert scales.shape == (channels.LOGISTIC_MIXTURE_NODES, 1)
        self._check(y, mean, var, scales)
        self._check_mp(y, mean, var, scales)

    # t from -1e4 to 40, across -8 (the hazard's tail) and -3 (the
    # recursion's), where 50 digits allow one tolerance for every t
    T_MP = np.concatenate([-np.logspace(0.0, 4.0, 17), np.linspace(-12.0, 40.0, 27),
                           [np.nextafter(b, d) for b in (-8.0, -3.0) for d in (-9.0, 0.0)],
                           [-3.0]])

    @staticmethod
    def _check_mp(y, mean, var, scale):
        log_z, m, v = gaussian._probit_tilted(y, mean, var, scale)
        args = (a.ravel() for a in np.broadcast_arrays(y, mean, var, scale))
        ref = np.array([probit_tilted_moments_mp(*a) for a in zip(*args)]).T
        ref = ref.reshape((3,) + log_z.shape)
        # the mean in posterior sds, beyond its own rounding; the variance
        # and log Z relative, counting values below the smallest normal as zero
        assert np.all(np.abs(m - ref[1]) <= 1e-12 * np.sqrt(ref[2]) + 2 * EPS * np.abs(ref[1]))
        assert np.all(np.abs(v - ref[2]) <= 1e-12 * ref[2])
        assert np.all(np.abs(log_z - ref[0]) <= 1e-12 * np.abs(ref[0]) + np.finfo(float).tiny)

    @pytest.mark.parametrize("var", [1e-4, 1.0, 25.0])
    @pytest.mark.parametrize("scale", [0.0, 0.3, 1.0])
    def test_matches_mpmath_from_the_far_tail(self, scale, var):
        for y in (1.0, -1.0):
            self._check_mp(y, y * self.T_MP * np.sqrt(scale ** 2 + var), var, scale)


class TestLogisticMmse:
    # (y, mean, var, scale): the verify ranges; the far tail, where y mean /
    # scale runs down to -300 and the exact reflection moves the belief;
    # var from 1e-6 to 1e4; scales from 1e-150 to 1e150
    POINTS = [
        *zip(*_binary_beliefs(6, 11), [1.0] * 6), *zip(*_binary_beliefs(6, 12), [0.3] * 6),
        *[(1.0, -r, v, 1.0) for r in (300.0, 100.0, 30.0) for v in (1e-6, 1.0, 1e4)],
        (-1.0, 300.0 * 0.3, 1e-2, 0.3), (1.0, -3.0, 1e4, 0.3),
        # not reflected, and t = y mean / sqrt(4 K^2 scale^2 + var) below -3:
        # the probit moments come from the backward recursion
        (1.0, -100.0, 400.0, 1.0), (-1.0, 299.0, 600.0, 1.0),
        *[(y, mean, v, c) for c in (1e-150, 1e-7, 1e150) for v in (1e-6, 1e4)
          for y, mean in ((1.0, max(-300.0 * c, -3.0)), (-1.0, -0.5))],
    ]

    def test_mixture_rule_has_the_logistic_moments(self):
        # the weights carry the Kolmogorov density: a unit mass, and the
        # logistic variance pi^2/3 = E[(2K)^2], each to the rule's accuracy
        w = np.exp(channels._MIX_LOG_WEIGHT[:, 0])
        two_k = channels._MIX_TWO_K[:, 0]
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-13)
        assert math.fsum(w * two_k ** 2) == pytest.approx(np.pi ** 2 / 3.0, rel=1e-13)

    def test_against_mpmath_oracle(self):
        y, mean, var, scale = (np.array(a) for a in zip(*self.POINTS))
        for c in np.unique(scale):
            at = scale == c
            stats = posterior_mmse(LogisticChannel(float(c)), y[at],
                                   GaussianBelief(mean[at], var[at]))
            for j, point, variance in zip(np.flatnonzero(at), stats.point, stats.variance):
                m, v = logistic_tilted_moments_mp(y[j], mean[j], var[j], c)
                # beyond the rounding of the mean itself, in posterior sds
                assert abs(point - m) <= 1e-12 * np.sqrt(v) + 2 * EPS * abs(m), self.POINTS[j]
                assert abs(variance - v) <= 1e-12 * v, self.POINTS[j]

    def test_bits_do_not_depend_on_the_batch(self):
        # a batch three components past one block, with reflected, tail and
        # ordinary beliefs; each component alone, in a short batch and at
        # either side of the block boundary
        cols = channels.LOGISTIC_BLOCK_COMPONENTS
        y, mean, var = _binary_beliefs(cols + 3, 5)
        reflected = [7, cols - 1, cols + 2]  # y mean < -var / (2 scale)
        mean[reflected], var[reflected] = -12.0 * y[reflected], 2.0
        tail = [1, cols - 2, cols]  # t < -3 at every node, not reflected
        mean[tail], var[tail] = -20.0 * y[tail], 25.0
        var[11] = 1e-6
        ch = LogisticChannel(0.3)
        whole = posterior_mmse(ch, y, GaussianBelief(mean, var))
        for j in (0, 1, 7, 11, cols - 2, cols - 1, cols, cols + 2):
            alone = posterior_mmse(ch, y[j], GaussianBelief(mean[j], var[j]))
            assert alone.point == whole.point[j] and alone.variance == whole.variance[j], j
        for lo in (0, cols - 2):
            part = posterior_mmse(ch, y[lo:lo + 4], GaussianBelief(mean[lo:lo + 4],
                                                                  var[lo:lo + 4]))
            assert np.array_equal(part.point, whole.point[lo:lo + 4])
            assert np.array_equal(part.variance, whole.variance[lo:lo + 4])

    def test_takes_no_laplace_fit_quadrature_or_worker(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the logistic MMSE called the probit path")

        monkeypatch.setattr(channels, "_newton_map", forbidden)
        monkeypatch.setattr(channels, "_adaptive_gh", forbidden)
        y, mean, var = _binary_beliefs(50, 3)
        with ThreadPoolExecutor(1) as worker:
            monkeypatch.setattr(worker, "submit", forbidden)
            stats = posterior_mmse(LogisticChannel(0.3), y, GaussianBelief(mean, var), worker)
        assert np.all(np.isfinite(stats.point)) and np.all(stats.variance > 0)


class TestPosteriorMap:
    def test_poisson_worked_example(self):
        st_ = posterior_map(PoissonChannel(), 3.0, GaussianBelief(1.0, 1.0))
        assert st_.point == pytest.approx(SQRT3, abs=1e-12)
        assert st_.variance == pytest.approx(0.5, abs=1e-12)

    def test_awgn_equals_mmse(self):
        ch = AwgnChannel(1.0)
        b = GaussianBelief(0.0, 1.0)
        mp = posterior_map(ch, 2.0, b)
        mm = posterior_mmse(ch, 2.0, b)
        assert mp.point == pytest.approx(1.0, abs=1e-14)
        assert mp.variance == pytest.approx(0.5, abs=1e-14)
        assert mp.point == pytest.approx(mm.point, rel=1e-12)
        assert mp.variance == pytest.approx(mm.variance, rel=1e-12)

    def test_probit_against_grid_and_golden_section(self):
        ch = ProbitChannel(1.0)
        for (mean, var, y) in [(0.0, 1.0, 1.0), (1.0, 3.0, -1.0)]:
            def obj(z):
                return float(ch.log_likelihood(z, y) - (z - mean) ** 2 / (2 * var))

            # coarse grid bracket then golden-section refinement
            zg = np.linspace(mean - 10 * np.sqrt(var), mean + 10 * np.sqrt(var), 10_001)
            k = int(np.argmax([obj(z) for z in zg]))
            z_star = golden_section_max(obj, zg[max(k - 1, 0)], zg[min(k + 1, len(zg) - 1)],
                                        tol=1e-12)
            st_ = posterior_map(ch, y, GaussianBelief(mean, var))
            assert st_.point == pytest.approx(z_star, abs=1e-6)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(9)
        for channel in CHANNELS:
            _, y = _valid_zy(channel, rng, size=100)
            mean = rng.uniform(-3, 3, size=100)
            var = rng.uniform(0.1, 10.0, size=100)
            st_ = posterior_map(channel, y, GaussianBelief(mean, var))
            z = np.asarray(st_.point)
            interior = z > 2e-12 if channel.domain == "positive" else np.ones_like(z, bool)
            grad = channel.d12(z, y)[0] - (z - mean) / var
            scale = 1.0 + np.abs(channel.d12(np.where(interior, z, 1.0), y)[0])
            assert np.all(np.abs(grad[interior]) <= 1e-9 * scale[interior])


def test_poisson_never_takes_newton(monkeypatch):
    # Poisson, the one positive-domain channel, has its own MAP point and MMSE
    def newton(*args):
        raise AssertionError("_newton_map called for Poisson")

    monkeypatch.setattr(channels, "_newton_map", newton)
    y = np.array([0.0, 1.0, 7.0])
    belief = GaussianBelief(np.array([-0.5, 0.3, 5.0]), np.array([0.2, 1.0, 4.0]))
    for post in (posterior_map, posterior_mmse):
        stats = post(PoissonChannel(), y, belief)
        assert np.all(np.asarray(stats.point) > 0)
        assert np.all(np.asarray(stats.variance) > 0)


@pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.name)
@pytest.mark.parametrize("post", [posterior_map, posterior_mmse], ids=lambda f: f.__name__)
def test_0d_belief_and_vector_y_give_moments_of_y_shape(channel, post):
    _, y = _valid_zy(channel, np.random.default_rng(22), size=3)
    stats = post(channel, y, GaussianBelief(0.4, 0.7))
    full = post(channel, y, GaussianBelief(np.full(3, 0.4), np.full(3, 0.7)))
    assert stats.point.shape == (3,) and stats.variance.shape == (3,)
    assert np.array_equal(stats.point, full.point)
    assert np.array_equal(stats.variance, full.variance)


@pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.name)
@pytest.mark.parametrize("post", [posterior_map, posterior_mmse], ids=lambda f: f.__name__)
def test_2d_batch_gives_the_moments_of_its_flat_batch(channel, post):
    # the modules take 1-d arrays: a 2-d batch reaches them flattened
    z, y = _valid_zy(channel, np.random.default_rng(23), size=6)
    stats = post(channel, y.reshape(2, 3), GaussianBelief(z.reshape(2, 3), np.full((2, 3), 0.7)))
    flat = post(channel, y, GaussianBelief(z, np.full(6, 0.7)))
    assert stats.point.shape == stats.variance.shape == (2, 3)
    assert np.array_equal(stats.point.ravel(), flat.point)
    assert np.array_equal(stats.variance.ravel(), flat.variance)


@dataclass(frozen=True)
class WrittenOutGaussian(OutputChannel):
    """y = z + N(0, noise_variance) with f, f', f'' and the support only, so
    both scalar modules are the defaults: Newton, and the quadrature."""

    noise_variance: float = 0.1
    name = "written-out gaussian"

    def log_likelihood(self, z, y):
        return -0.5 * (y - z) ** 2 / self.noise_variance \
            - 0.5 * np.log(2.0 * np.pi * self.noise_variance)

    def d12(self, z, y):
        d1 = (y - z) / self.noise_variance
        return d1, np.full_like(d1, -1.0 / self.noise_variance)

    def in_support(self, y):
        return np.isfinite(y)


class TestChannelOnTheDefaults:
    def test_both_modules_give_the_conjugate_product(self):
        rng = np.random.default_rng(23)
        mean = rng.uniform(-3.0, 3.0, 200)
        var = np.exp(rng.uniform(np.log(0.01), np.log(100.0), 200))
        y = mean + rng.normal(0.0, 3.0, 200)
        belief = GaussianBelief(mean, var)
        point, post_var = combine(mean, var, y, 0.1)
        mp = posterior_map(WrittenOutGaussian(0.1), y, belief)
        assert np.max(np.abs(mp.point - point)) <= 1e-12
        assert np.max(np.abs(mp.variance - post_var)) <= 1e-12
        mm = posterior_mmse(WrittenOutGaussian(0.1), y, belief)
        scale = np.sqrt(var) + np.abs(mean)  # the quadrature's own yardstick
        assert np.all(np.abs(mm.point - point) <= 1e-9 * scale)
        assert np.all(np.abs(mm.variance - post_var) <= 1e-9 * scale ** 2)

    @pytest.mark.parametrize("mode", [Mode.SUM_PRODUCT, Mode.MAX_SUM])
    def test_gamp_reaches_the_awgn_fixed_point(self, mode):
        prob = generate_problem(64, 128, GaussianPrior(), AwgnChannel(0.1), 0)
        twin = ProblemInstance(prob.model, prob.y, WrittenOutGaussian(0.1), prob.prior,
                               x_true=prob.x_true)
        (sol, trace), (twin_sol, twin_trace) = run_gamp(prob, mode), run_gamp(twin, mode)
        assert trace.converged and twin_trace.converged
        assert np.max(np.abs(twin_sol.point - sol.point)) <= 1e-6


def test_channels_pick_their_modules_by_method_not_by_type():
    # each channel owns its scalar modules, so module B's entry points
    # (posterior_map, posterior_mmse, g_out_with_stats) test no type
    tree = ast.parse(Path(channels.__file__).read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"posterior_map", "posterior_mmse", "g_out_with_stats"} <= defined
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "type")]
    assert calls == []


class TestGOut:
    def test_maxsum_poisson_worked_example(self):
        val, nd, _ = g_out_with_stats(PoissonChannel(), Mode.MAX_SUM, 3.0,
                                      GaussianBelief(1.0, 1.0))
        assert val == pytest.approx(SQRT3 - 1.0, abs=1e-12)
        assert nd == pytest.approx(0.5, abs=1e-12)

    def test_zero_residual_when_point_equals_mean(self):
        # AWGN with y == belief mean leaves the point at the mean
        val, _, _ = g_out_with_stats(AwgnChannel(1.0), Mode.SUM_PRODUCT, 0.5,
                                     GaussianBelief(0.5, 1.0))
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_sumproduct_awgn_conjugate(self):
        val, nd, _ = g_out_with_stats(AwgnChannel(1.0), Mode.SUM_PRODUCT, 2.0,
                                      GaussianBelief(0.0, 1.0))
        assert val == pytest.approx(1.0, abs=1e-14)
        assert nd == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.name)
    @pytest.mark.parametrize("mode", [Mode.SUM_PRODUCT, Mode.MAX_SUM])
    def test_curvature_in_unit_interval(self, channel, mode):
        rng = np.random.default_rng(13)
        _, y = _valid_zy(channel, rng, size=100)
        if isinstance(channel, PoissonChannel):
            y = np.maximum(y, 1.0)
        mean = rng.uniform(-3, 3, size=100)
        var = np.exp(rng.uniform(np.log(0.1), np.log(10), size=100))
        _, nd, _ = g_out_with_stats(channel, mode, y, GaussianBelief(mean, var))
        assert np.all(nd * var > 0.0)
        assert np.all(nd * var <= 1.0 + 1e-12)


class TestAwgnGOut:
    def test_direct_arithmetic(self):
        val, nd = awgn_g_out(ExtrinsicMessage(2.0, 1.0), GaussianBelief(0.0, 1.0))
        assert val == pytest.approx(1.0, abs=1e-15)
        assert nd == pytest.approx(0.5, abs=1e-15)

    def test_ep_bridge_worked_example(self):
        val, nd = awgn_g_out(ExtrinsicMessage(2 * SQRT3 - 1.0, 1.0),
                             GaussianBelief(1.0, 1.0))
        assert val == pytest.approx(SQRT3 - 1.0, abs=1e-14)
        assert nd == pytest.approx(0.5, abs=1e-14)

    def test_zero_when_pseudo_mean_equals_belief_mean(self):
        val, _ = awgn_g_out(ExtrinsicMessage(0.7, 5.0), GaussianBelief(0.7, 2.0))
        assert val == 0.0

    def test_matches_awgn_channel_g_out(self):
        pseudo = ExtrinsicMessage(1.3, 0.7)
        belief = GaussianBelief(-0.2, 2.5)
        v1, n1 = awgn_g_out(pseudo, belief)
        for mode in (Mode.SUM_PRODUCT, Mode.MAX_SUM):
            v2, n2, _ = g_out_with_stats(AwgnChannel(0.7), mode, 1.3, belief)
            assert v1 == pytest.approx(v2, rel=1e-14)
            assert n1 == pytest.approx(n2, rel=1e-14)


@given(
    mean=st.floats(-3, 3),
    log_var=st.floats(np.log(0.1), np.log(10)),
    y=st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=100, deadline=None)
def test_laplace_identity_probit(mean, log_var, y):
    """Direct curvature form vs Laplace-variance form, random points."""
    ch = ProbitChannel(1.0)
    var = float(np.exp(log_var))
    stats = posterior_map(ch, y, GaussianBelief(mean, var))
    f2 = float(ch.d12(stats.point, y)[1])
    direct = f2 / (var * f2 - 1.0)
    via = (var - float(stats.variance)) / var ** 2
    assert direct == pytest.approx(via, rel=1e-10)
