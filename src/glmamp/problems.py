"""Problem instances: how one is drawn (A, then x, then y, from one seeded
generator) and stored.  Matrix files are CSV (one row per line) or binary:
magic ``GLMA``, uint64 dims, little-endian float64 data."""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .channels import PoissonChannel
from .engine import ProblemInstance
from .slm import LinearModel
from .specs import parse_channel, parse_prior, spec_string

MATRIX_DISTS = ("gaussian", "abs_gaussian")
# by channel domain: a positive one needs a nonnegative A so that z = A x > 0
DEFAULT_MATRIX_DIST = {"real": "gaussian", "positive": "abs_gaussian"}
MATRIX_MAGIC = b"GLMA"


def make_matrix(m, n, dist, rng):
    if dist == "gaussian":
        return rng.standard_normal((m, n)) / np.sqrt(n)
    if dist == "abs_gaussian":
        return np.abs(rng.standard_normal((m, n))) / np.sqrt(n)
    raise ValueError(f"unknown matrix distribution {dist!r}; "
                     f"choose one of {', '.join(MATRIX_DISTS)}")


def clamp_z(channel, z):
    """z clamped into the channel's sampling domain, where y is drawn."""
    return np.maximum(z, PoissonChannel.SAMPLE_Z_MIN) if channel.domain == "positive" else z


def generate_problem(n, m, prior, channel, seed, matrix_dist=None):
    rng = np.random.default_rng(seed)
    A = make_matrix(m, n, matrix_dist or DEFAULT_MATRIX_DIST[channel.domain], rng)
    x = prior.sample(n, rng)
    return observe(A, x, prior, channel, rng)


def observe(A, x, prior, channel, rng) -> ProblemInstance:
    """The instance whose y is drawn from ``channel`` at z = A x."""
    y = channel.sample(clamp_z(channel, A @ x), rng)
    return ProblemInstance(LinearModel(A), y, channel, prior, x_true=x)


def save_problem(out, n, m, prior, channel, seed, matrix_dist=None) -> None:
    """Write the instance ``generate_problem`` draws as a problem directory."""
    matrix_dist = matrix_dist or DEFAULT_MATRIX_DIST[channel.domain]
    prob = generate_problem(n, m, prior, channel, seed, matrix_dist)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix_binary(out / "A.bin", prob.model.A)
    np.savetxt(out / "x_true.csv", prob.x_true, delimiter=",")
    np.savetxt(out / "y.csv", prob.y, delimiter=",")
    meta = {"n": n, "m": m, "prior": spec_string(prior),
            "channel": spec_string(channel), "seed": seed,
            "matrix_dist": matrix_dist}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_problem(path) -> ProblemInstance:
    """Read a problem directory; raises ``ValueError`` naming it when it cannot.

    ``meta.json``'s ``n`` and ``m`` must be ``A.bin``'s shape (``y.csv`` and
    ``x_true.csv`` are checked against A) and its ``matrix_dist`` one of
    ``MATRIX_DISTS``.
    """
    path = Path(path)
    try:
        meta = json.loads((path / "meta.json").read_text())
        A = load_matrix(path / "A.bin")
        if (meta["m"], meta["n"]) != A.shape:
            raise ValueError(f"meta.json has n={meta['n']!r}, m={meta['m']!r} "
                             f"but A.bin is {A.shape[0]} x {A.shape[1]}")
        if meta["matrix_dist"] not in MATRIX_DISTS:
            raise ValueError(f"meta.json matrix_dist {meta['matrix_dist']!r} is "
                             f"not one of {', '.join(MATRIX_DISTS)}")
        y = np.atleast_1d(np.loadtxt(path / "y.csv", delimiter=","))
        x_true = np.atleast_1d(np.loadtxt(path / "x_true.csv", delimiter=","))
        return ProblemInstance(LinearModel(A), y, parse_channel(meta["channel"]),
                               parse_prior(meta["prior"]), x_true=x_true)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot load problem from {path}: "
                         f"{type(exc).__name__}: {exc}") from None


def load_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)


def save_matrix_binary(path, A: np.ndarray) -> None:
    A = np.ascontiguousarray(np.atleast_2d(A), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", A.shape[0], A.shape[1]))
        fh.write(A.tobytes())


def load_matrix_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MATRIX_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MATRIX_MAGIC!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"{path}: truncated matrix header")
        m, n = struct.unpack("<QQ", header)
        # checked before allocating: A would take the claimed size
        if 8 * m * n > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError(f"{path}: truncated matrix payload")
        # the payload is read straight into A, held once
        A = np.empty((m, n), dtype="<f8")
        fh.readinto(A)
    return A.astype(float, copy=False)


def load_matrix(path) -> np.ndarray:
    """Dispatch on the binary magic; fall back to CSV."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == MATRIX_MAGIC:
        return load_matrix_binary(path)
    return load_matrix_csv(path)
