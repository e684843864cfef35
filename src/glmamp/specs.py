"""Tiny spec-string grammar for channels and priors.

Channel specs:  awgn(var=1.0) | probit(scale=1.0) | poisson() | logistic(scale=1.0)
Prior specs:    gaussian(mean=0,var=1) | bg(rho=0.1,mean=0,var=1) | laplace(lambda=1)

Each key appears at most once, with a finite number.  Errors carry the
character position of the offending key=value pair or token.  ``spec_string``
is the inverse of the two parsers: ``parse_*(spec_string(obj)) == obj``.
"""

from __future__ import annotations

import math
import re

from .channels import AwgnChannel, LogisticChannel, PoissonChannel, ProbitChannel
from .priors import BernoulliGaussianPrior, GaussianPrior, LaplacePrior


class SpecError(ValueError):
    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"{text!r}: at position {pos}: {message}")
        self.pos = pos


_HEAD = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(")
_PAIR = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([^,()\s]+)\s*")


def _parse_call(text: str):
    m = _HEAD.match(text)
    if not m:
        raise SpecError(text, 0, "expected name(...)")
    name = m.group(1).lower()
    pos = m.end()
    if not text.rstrip().endswith(")"):
        raise SpecError(text, len(text), "missing closing ')'")
    body = text.rstrip()[pos:-1]
    kwargs = {}  # key -> (value, offset of its pair)
    end = pos
    for part in body.split(","):
        offset, end = end, end + len(part) + 1
        if not part.strip():
            continue
        pm = _PAIR.fullmatch(part)
        if not pm:
            raise SpecError(text, offset, f"bad key=value pair {part.strip()!r}")
        key = pm.group(1).lower()
        if key in kwargs:
            raise SpecError(text, offset, f"repeated parameter {key!r}")
        try:
            value = float(pm.group(2))
        except ValueError:
            value = math.nan  # reported as non-finite below
        if not math.isfinite(value):
            raise SpecError(text, offset, f"bad numeric value {pm.group(2)!r}")
        kwargs[key] = value, offset
    return name, kwargs


_CHANNELS = {
    "awgn": (AwgnChannel, {"var": "noise_variance"}),
    "probit": (ProbitChannel, {"scale": "scale"}),
    "poisson": (PoissonChannel, {}),
    "logistic": (LogisticChannel, {"scale": "scale"}),
}

_PRIORS = {
    "gaussian": (GaussianPrior, {"mean": "mean", "var": "var"}),
    "bg": (BernoulliGaussianPrior, {"rho": "rho", "mean": "mean", "var": "var"}),
    "laplace": (LaplacePrior, {"lambda": "rate"}),
}


def _build(text, table, kind):
    name, kwargs = _parse_call(text)
    if name not in table:
        raise SpecError(text, 0, f"unknown {kind} {name!r} "
                        f"(expected one of {sorted(table)})")
    cls, keymap = table[name]
    mapped = {}
    for key, (value, offset) in kwargs.items():
        if key not in keymap:
            raise SpecError(text, offset, f"unknown parameter {key!r} for {name}")
        mapped[keymap[key]] = value
    try:
        return cls(**mapped)
    except ValueError as exc:
        raise SpecError(text, 0, str(exc)) from None


def parse_channel(text: str):
    return _build(text, _CHANNELS, "channel")


def parse_prior(text: str):
    return _build(text, _PRIORS, "prior")


def spec_string(obj) -> str:
    """The spec of a channel or prior, e.g. ``bg(rho=0.1,mean=0.0,var=1.0)``."""
    for name, (cls, keymap) in {**_CHANNELS, **_PRIORS}.items():
        if type(obj) is cls:
            args = ",".join(f"{key}={getattr(obj, attr)}" for key, attr in keymap.items())
            return f"{name}({args})"
    raise TypeError(f"no spec grammar for {type(obj).__name__}")
