import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmamp.gaussian import (DEFAULT_VARIANCE_FLOOR, HAZARD_TAIL_T, ExtrinsicMessage,
                             GaussianBelief, PosteriorStats, _norm_hazard, combine,
                             ep_extrinsic, mixture_moments, trunc_gauss_ratios,
                             valid_moments)

SQRT3 = np.sqrt(3.0)


class TestCombine:
    def test_symmetric_equal_precision(self):
        mean, var = combine(0.0, 1.0, 2.0, 1.0)
        assert mean == pytest.approx(1.0, abs=1e-15)
        assert var == pytest.approx(0.5, abs=1e-15)

    def test_flat_factor_absorbed(self):
        mean, var = combine(3.0, 1e12, 5.0, 0.1)
        assert mean == pytest.approx(5.0, rel=1e-10)
        assert var == pytest.approx(0.1, rel=1e-10)

    def test_hand_precision_algebra(self):
        # precisions 1/2 + 1/4 = 3/4; mean (1/2 + 1) / (3/4) = 2
        mean, var = combine(np.array([1.0, 4.0]), np.array([2.0, 4.0]),
                            np.array([4.0, 1.0]), np.array([4.0, 2.0]))
        np.testing.assert_allclose(mean, [2.0, 2.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(var, [4.0 / 3.0, 4.0 / 3.0], rtol=0, atol=1e-15)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            GaussianBelief(0.0, -1.0)
        with pytest.raises(ValueError):
            GaussianBelief(np.inf, 1.0)


BELIEF_ERROR = "^GaussianBelief: mean must be finite, variance finite and > 0$"


class TestValidation:
    """Only ``GaussianBelief``, the type data enters a computation as, rejects
    a non-finite mean and a variance that is not finite and > 0, for scalars
    and arrays.  ``PosteriorStats`` and ``ExtrinsicMessage`` are results built
    by library code: they store such values as given, and the solver loop
    tests them where it hands them on (``tests/test_engine.py``)."""

    CLASSES = (GaussianBelief, PosteriorStats, ExtrinsicMessage)

    @staticmethod
    def _build(cls, mean, variance, shape):
        if shape == "array":
            mean = np.array([0.0, mean, 1.0])
            variance = np.array([1.0, variance, 2.0])
        return cls(mean, variance)

    def _rejected_by_belief_only(self, cls, mean, variance, shape):
        if cls is GaussianBelief:
            with pytest.raises(ValueError, match=BELIEF_ERROR):
                self._build(cls, mean, variance, shape)
            return
        stored = _moments(self._build(cls, mean, variance, shape))
        index = () if shape == "scalar" else 1
        np.testing.assert_array_equal([stored[0][index], stored[1][index]], [mean, variance])

    @pytest.mark.parametrize("shape", ["scalar", "array"])
    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("mean", [np.nan, np.inf, -np.inf])
    def test_bad_mean(self, cls, mean, shape):
        self._rejected_by_belief_only(cls, mean, 1.0, shape)

    @pytest.mark.parametrize("shape", ["scalar", "array"])
    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("variance", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_variance(self, cls, variance, shape):
        self._rejected_by_belief_only(cls, 0.0, variance, shape)

    @pytest.mark.parametrize("shape", ["scalar", "array"])
    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_extreme_finite_values_accepted(self, cls, shape):
        self._build(cls, -1e308, 5e-324, shape)
        self._build(cls, 1e308, 1e308, shape)

    @pytest.mark.parametrize("mean,variance,expected", [
        ([0.0, -1e308], [5e-324, 1e308], True), (np.zeros((2, 2)), np.ones((2, 2)), True),
        ([0.0, np.nan], [1.0, 1.0], False), ([np.inf, 0.0], [1.0, 1.0], False),
        ([0.0, -np.inf], [1.0, 1.0], False), ([0.0, 0.0], [1.0, 0.0], False),
        ([0.0, 0.0], [-1.0, 1.0], False), ([0.0, 0.0], [1.0, np.nan], False),
        ([0.0, 0.0], [np.inf, 1.0], False)])
    def test_valid_moments_is_the_belief_rule(self, mean, variance, expected):
        assert valid_moments(np.array(mean), np.array(variance)) is expected


def _moments(message):
    """The two moment fields of a message, as stored (no copy)."""
    return [getattr(message, f.name) for f in dataclasses.fields(message)[:2]]


class TestMessageFormat:
    """The moment fields are float64 arrays, converted once at construction."""

    CLASSES = (GaussianBelief, PosteriorStats, ExtrinsicMessage)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("mean,variance,shape", [
        (0.5, 2.0, ()), (1, 3, ()), (np.array([1, 2]), np.array([3, 4]), (2,)),
        ([0.5, 1.0], [2.0, 3.0], (2,))], ids=["float", "int", "int-array", "list"])
    def test_fields_are_float64_arrays(self, cls, mean, variance, shape):
        for value in _moments(cls(mean, variance)):
            assert type(value) is np.ndarray
            assert value.dtype == np.float64 and value.shape == shape

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_float64_array_stored_without_copy(self, cls):
        mean, variance = np.array([0.5, -1.0]), np.array([2.0, 3.0])
        stored = _moments(cls(mean, variance))
        assert stored[0] is mean and stored[1] is variance

    @pytest.mark.parametrize("floored,expected", [(False, False), (True, True),
                                                   ([0, 1], [False, True])])
    def test_floored_is_a_bool_array(self, floored, expected):
        ext = ExtrinsicMessage(np.zeros(2), np.ones(2), floored)
        assert type(ext.floored) is np.ndarray and ext.floored.dtype == bool
        assert ext.floored.tolist() == expected

    def test_divided_flag_is_a_bool_array(self):
        ext = ep_extrinsic(PosteriorStats(0.0, 2.0), GaussianBelief(0.0, 1.0))
        assert type(ext.floored) is np.ndarray and ext.floored.shape == ()


MESSAGE_FIELDS = {"mean", "variance", "point", "pseudo_mean", "pseudo_variance", "floored"}


def test_only_gaussian_converts_message_fields():
    """No module but gaussian.py wraps a message field in np.asarray: the
    fields already are arrays, and the conversion has one owner."""
    package = Path(__file__).resolve().parents[1] / "src" / "glmamp"
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 5
    wraps = []
    for path in sources:
        if path.name == "gaussian.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "asarray" and node.args
                    and isinstance(node.args[0], ast.Attribute)
                    and node.args[0].attr in MESSAGE_FIELDS):
                wraps.append(f"{path.name}:{node.lineno}")
    assert wraps == []


class TestEpExtrinsic:
    def test_worked_poisson_chain_values(self):
        ext = ep_extrinsic(PosteriorStats(SQRT3, 0.5), GaussianBelief(1.0, 1.0))
        assert ext.pseudo_mean == pytest.approx(2.0 * SQRT3 - 1.0, abs=1e-14)
        assert ext.pseudo_variance == pytest.approx(1.0, abs=1e-14)
        assert not ext.floored

    def test_simple_division(self):
        ext = ep_extrinsic(PosteriorStats(0.5, 0.5), GaussianBelief(0.0, 1.0))
        assert ext.pseudo_mean == pytest.approx(1.0, abs=1e-14)
        assert ext.pseudo_variance == pytest.approx(1.0, abs=1e-14)

    def test_posterior_equal_cavity_is_floored(self):
        ext = ep_extrinsic(PosteriorStats(0.7, 1.3), GaussianBelief(0.7, 1.3))
        assert ext.floored
        # precision floored at the variance floor: near-flat message
        assert ext.pseudo_variance == pytest.approx(1.0 / DEFAULT_VARIANCE_FLOOR)

    def test_wider_posterior_is_floored(self):
        ext = ep_extrinsic(PosteriorStats(0.0, 2.0), GaussianBelief(0.0, 1.0))
        assert ext.floored
        assert ext.pseudo_variance > 0

    def test_vectorized_flags(self):
        post = PosteriorStats(np.array([0.5, 0.0]), np.array([0.5, 2.0]))
        cav = GaussianBelief(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        ext = ep_extrinsic(post, cav)
        assert list(ext.floored) == [False, True]

    # ROADMAP 3(d): a precision-mean of 1e300 against the floored precision
    # overflowed with a RuntimeWarning; the pseudo-mean is inf, which the
    # loop's hand-over test rejects
    def test_overflowing_pseudo_mean_is_inf_without_a_warning(self):
        post = PosteriorStats(np.array([1e150, 0.5]), np.array([1e-150, 0.5]))
        cav = GaussianBelief(np.array([0.0, 0.0]), np.array([1e-150, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ext = ep_extrinsic(post, cav)
        assert list(ext.floored) == [True, False]
        assert ext.pseudo_mean[0] == np.inf and ext.pseudo_mean[1] == pytest.approx(1.0)


@given(
    point=st.floats(-50, 50),
    v_post=st.floats(1e-6, 1e3),
    mean=st.floats(-50, 50),
    ratio=st.floats(1.01, 1e4),
)
@settings(max_examples=200)
def test_round_trip_recovers_posterior(point, v_post, mean, ratio):
    """combine(extrinsic, cavity) == posterior whenever no flooring occurred."""
    cavity = GaussianBelief(mean, v_post * ratio)
    posterior = PosteriorStats(point, v_post)
    ext = ep_extrinsic(posterior, cavity)
    assert not np.any(ext.floored)
    back_mean, back_var = combine(ext.pseudo_mean, ext.pseudo_variance,
                                  cavity.mean, cavity.variance)
    assert back_var == pytest.approx(v_post, rel=1e-12)
    scale = max(abs(point), abs(mean), 1.0)
    assert back_mean == pytest.approx(point, abs=1e-9 * scale * ratio)


@given(
    point=st.floats(-10, 10),
    v_post=st.floats(1e-4, 10),
    mean=st.floats(-10, 10),
    ratio=st.floats(1.1, 100),
)
@settings(max_examples=200)
def test_extrinsic_satisfies_moment_relations(point, v_post, mean, ratio):
    """Residuals of the defining precision/precision-mean equations <= 1e-12."""
    v_cav = v_post * ratio
    ext = ep_extrinsic(PosteriorStats(point, v_post), GaussianBelief(mean, v_cav))
    lhs_prec = 1.0 / ext.pseudo_variance + 1.0 / v_cav
    rhs_prec = 1.0 / v_post
    assert abs(lhs_prec - rhs_prec) <= 1e-12 * rhs_prec
    lhs_mean = ext.pseudo_mean / ext.pseudo_variance + mean / v_cav
    rhs_mean = point / v_post
    assert abs(lhs_mean - rhs_mean) <= 1e-12 * (1.0 + abs(rhs_mean)) / min(v_post, 1.0)


class TestFloorVariance:
    """The floor as ``ep_extrinsic`` applies it to the extrinsic precision."""

    @staticmethod
    def _precision(lam):
        # cavity precision 1, posterior precision 1 + lam: raw extrinsic precision lam
        ext = ep_extrinsic(PosteriorStats(0.0, 1.0 / (1.0 + lam)),
                           GaussianBelief(0.0, 1.0))
        return 1.0 / ext.pseudo_variance, ext.floored

    @pytest.mark.parametrize("v,expected", [
        (0.3, 0.3),
        (-1e-15, DEFAULT_VARIANCE_FLOOR),
        (0.0, DEFAULT_VARIANCE_FLOOR),
    ])
    def test_examples(self, v, expected):
        prec, floored = self._precision(v)
        assert prec == pytest.approx(expected, rel=1e-14)
        assert floored == (expected != v)

    @given(st.floats(-0.5, 1e6))
    def test_idempotent(self, v):
        # a precision that came out of the floor goes through it unchanged,
        # up to the rounding of 1 + precision
        once, _ = self._precision(v)
        twice, _ = self._precision(once)
        assert abs(twice - once) <= 4.0 * np.finfo(float).eps * (1.0 + once)

    @given(st.floats(-0.5, 1e6), st.floats(-0.5, 1e6))
    def test_monotone(self, a, b):
        if a <= b:
            assert self._precision(a)[0] <= self._precision(b)[0]


def test_hazard_tail_is_the_recursion_at_count_0():
    """Below HAZARD_TAIL_T the hazard's excess e is the mean of N(t, 1) cut off
    at 0, ``trunc_gauss_ratios`` at count 0, and r = e - t, bit for bit; the
    head keeps its log_ndtr values, and a 0-d t its own bits."""
    tail = np.concatenate([-np.logspace(np.log10(8.5), 8.0, 30),
                           [np.nextafter(HAZARD_TAIL_T, -np.inf)]])
    head = np.array([HAZARD_TAIL_T, -3.0, 0.0, 5.0, 40.0])
    r, excess = _norm_hazard(np.concatenate([tail, head]))
    e_tail = trunc_gauss_ratios(np.zeros(tail.size), tail)[0]
    assert np.array_equal(excess[:tail.size], e_tail)
    assert np.array_equal(r[:tail.size], e_tail - tail)
    r_head, e_head = _norm_hazard(head)
    assert np.array_equal(r[tail.size:], r_head) and np.array_equal(excess[tail.size:], e_head)
    r0, e0 = _norm_hazard(tail[3])
    assert r0.shape == () and (r0, e0) == (r[3], excess[3])


def test_mixture_with_a_zero_weight_and_means_too_far_to_square():
    """w1 w0 (mean1 - mean0)^2 is 0 * inf where a weight underflows and the
    gap overflows; the mixture is then the other component."""
    log_odds = np.array([np.inf, 800.0, -800.0, 0.0])
    mean1, mean0 = np.array([1e160, 1e160, 1e160, 1.0]), np.array([0.0, 0.0, 0.0, -1.0])
    var1, var0 = np.full(4, 2.0), np.full(4, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, var = mixture_moments(log_odds, mean1, var1, mean0, var0)
    assert np.array_equal(mean[:3], [1e160, 1e160, 0.0])
    assert np.array_equal(var, [2.0, 2.0, 3.0, 2.5 + 1.0])


def test_hazard_and_ratios_at_huge_t_without_a_warning():
    """Where t * t overflows, the hazard phi(t) / Phi(t) is 0 and the mean of
    N(t, 1) cut off at 0 is about 1 / |t|."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, excess = _norm_hazard(np.array([1e160, 5.0]))
        ratio, gap = trunc_gauss_ratios(np.zeros(2), np.array([-1e160, -5.0]))
    assert r[0] == 0.0 and excess[0] == 1e160
    assert ratio[0] == pytest.approx(1e-160, rel=1e-12) and gap[0] >= 0.0
    assert (r[1], excess[1]) == tuple(x[0] for x in _norm_hazard(np.array([5.0])))
    assert (ratio[1], gap[1]) == tuple(x[0] for x in trunc_gauss_ratios(np.zeros(1),
                                                                        np.array([-5.0])))
