import pytest

from glmamp.channels import AwgnChannel, LogisticChannel, PoissonChannel, ProbitChannel
from glmamp.priors import BernoulliGaussianPrior, GaussianPrior, LaplacePrior
from glmamp.specs import SpecError, parse_channel, parse_prior, spec_string


@pytest.mark.parametrize("parse, obj", [
    (parse_channel, AwgnChannel()),
    (parse_channel, AwgnChannel(noise_variance=2)),
    (parse_channel, AwgnChannel(noise_variance=0.0123456789)),
    (parse_channel, AwgnChannel(noise_variance=1e-150)),  # the ends of its range
    (parse_channel, AwgnChannel(noise_variance=1e150)),
    (parse_channel, ProbitChannel()),
    (parse_channel, ProbitChannel(scale=3)),
    (parse_channel, ProbitChannel(scale=0.3)),
    (parse_channel, LogisticChannel()),
    (parse_channel, LogisticChannel(scale=1)),
    (parse_channel, LogisticChannel(scale=1e-7)),
    (parse_channel, PoissonChannel()),
    (parse_prior, GaussianPrior()),
    (parse_prior, GaussianPrior(mean=2, var=1)),
    (parse_prior, GaussianPrior(mean=-0.1, var=0.25)),
    (parse_prior, BernoulliGaussianPrior()),
    (parse_prior, BernoulliGaussianPrior(rho=1, mean=0, var=4)),
    (parse_prior, BernoulliGaussianPrior(rho=1 / 3, mean=1.5, var=2.5e-3)),
    (parse_prior, LaplacePrior()),
    (parse_prior, LaplacePrior(rate=2)),
    (parse_prior, LaplacePrior(rate=0.7)),
    (parse_prior, LaplacePrior(rate=1e-75)),  # the ends of its range
    (parse_prior, LaplacePrior(rate=1e75)),
], ids=lambda v: spec_string(v) if not callable(v) else None)
def test_spec_string_parses_back_to_equal_object(parse, obj):
    text = spec_string(obj)
    back = parse(text)
    assert type(back) is type(obj) and back == obj


def test_spec_string_matches_the_grammar():
    assert spec_string(AwgnChannel(0.5)) == "awgn(var=0.5)"
    assert spec_string(PoissonChannel()) == "poisson()"
    assert spec_string(GaussianPrior(mean=2, var=0.25)) == "gaussian(mean=2,var=0.25)"
    assert spec_string(BernoulliGaussianPrior()) == "bg(rho=0.1,mean=0.0,var=1.0)"
    assert spec_string(LaplacePrior(1.0)) == "laplace(lambda=1.0)"


@pytest.mark.parametrize("text, pos", [("gaussian(mean=0,var=1,an=2)", 22),
                                       ("bg(RHO=0.1,Bad=1)", 11)])
def test_unknown_key_reports_its_pair_position(text, pos):
    with pytest.raises(SpecError) as err:
        parse_prior(text)
    assert err.value.pos == pos
    assert f"unknown parameter {text[pos:].split('=')[0].lower()!r}" in str(err.value)


# Past these ends 1 / var, 2 / rate**2 or rate**2 leaves the finite doubles
AWGN_RANGE = r"awgn noise_variance must be in \[1e-150, 1e\+150\]"
LAPLACE_RANGE = r"laplace rate must be in \[1e-75, 1e\+75\]"
# ... or 1 / scale**2 or scale**2 for the binary channels
SCALE_RANGE = r"{} scale must be in \[1e-150, 1e\+150\]"


@pytest.mark.parametrize("parse, text, message", [
    pytest.param(parse, text, message, id=text) for parse, text, message in (
        *[(parse_channel, f"awgn(var={v})", AWGN_RANGE)
          for v in ("1e-320", "1e-151", "1e151", "0")],
        *[(parse_prior, f"laplace(lambda={v})", LAPLACE_RANGE)
          for v in ("1e-300", "1e-76", "1e76", "1e300", "0")],
        *[(parse_channel, f"{c}(scale={v})", SCALE_RANGE.format(c))
          for c in ("probit", "logistic") for v in ("1e-300", "1e-151", "1e151", "1e300")])])
def test_value_outside_its_range_is_a_spec_error(parse, text, message):
    with pytest.raises(SpecError, match=message):
        parse(text)
