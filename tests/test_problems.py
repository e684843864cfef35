"""Tests of glmamp.problems: the random stream behind every generated
instance, the problem directory and the matrix file formats."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from glmamp.cli import main
from glmamp.problems import (MATRIX_DISTS, generate_problem, load_matrix_binary,
                             load_problem, make_matrix, save_matrix_binary)
from glmamp.specs import parse_channel, parse_prior

POISSON = ["--prior", "gaussian(mean=2,var=0.25)", "--channel", "poisson()", "--seed", "0"]


# Every trace digest, benchmark instance and gen file depends on this stream
# (A, then x, then y from one generator); the hashes pin it file by file.
@pytest.mark.parametrize("flags, digests", [
    (["--prior", "bg(rho=0.2,mean=0,var=1)", "--channel", "probit(scale=1.0)",
      "--seed", "5"],
     {"A.bin": "9401f16498835b12d7f9426153a39568d46ac2da6747ad90fb24edf8bd3906e9",
      "y.csv": "7b4b7cdcfe28f0b1325ee2b04fc819128b96318c3d3b872c0b2141a982c637a0",
      "x_true.csv": "e825a7eb4ab501896f6008299e67f4ea5821af35cfe7a33b2b24af32399ea9d1",
      "meta.json": "528673c263f642a3bbe8bf0a32be4befe0bfde83937767967a96ebd3fb6c365c"}),
    (POISSON,
     {"A.bin": "38163c0ab14df761668c44812d49accdeac99389e5edc4dd3930879acc45d1ce",
      "y.csv": "b4c4f2037e0fce656c881f65ac652886195d194442201c682f344b646fd33bbd",
      "x_true.csv": "a9bd23330fdcce1b17171c3397a4c9d04a48390aab421e605214a9575cc6a5c5",
      "meta.json": "810659fd401d9d94be6f492098d2f3b6110c29134f2368da67bbf7ef11f3b55d"}),
    (POISSON + ["--matrix-dist", "gaussian"],
     {"A.bin": "29bbb40901742e2dbb33fbe0830e52d66e218a685a11827217b37569e35bd7dd",
      "y.csv": "fa4197a3fcd91b1af5e3f1c357e8a63972c8f1eddce47dd34c404ce29568739c",
      "x_true.csv": "a9bd23330fdcce1b17171c3397a4c9d04a48390aab421e605214a9575cc6a5c5",
      "meta.json": "bd5e7cea9f1a89bf9dc1cacd46875836c324cdc096512de19f20181a4ac5e281"}),
], ids=["bg-probit", "poisson-default-matrix", "poisson-gaussian-matrix"])
def test_gen_files_are_pinned(tmp_path, capsys, flags, digests):
    assert main(["gen", "--n", "16", "--m", "32", *flags, "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests


def test_loaded_problem_is_the_generated_one(tmp_path, capsys):
    assert main(["gen", "--n", "16", "--m", "32", *POISSON, "--out", str(tmp_path)]) == 0
    want = generate_problem(16, 32, parse_prior("gaussian(mean=2,var=0.25)"),
                            parse_channel("poisson()"), 0)
    got = load_problem(tmp_path)
    assert np.array_equal(got.model.A, want.model.A)
    assert np.array_equal(got.y, want.y) and np.array_equal(got.x_true, want.x_true)
    assert got.channel == want.channel and got.prior == want.prior


def test_unknown_matrix_distribution_names_the_choices():
    with pytest.raises(ValueError, match="unknown matrix distribution 'cauchy'") as exc:
        make_matrix(2, 2, "cauchy", np.random.default_rng(0))
    assert all(dist in str(exc.value) for dist in MATRIX_DISTS)


def test_load_problem_raises_value_error_naming_the_directory(tmp_path):
    with pytest.raises(ValueError, match="cannot load problem from"):
        load_problem(tmp_path / "missing")


class TestMatrixFiles:
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

    # the payload is read into the one array returned: no bytes object and no
    # converted copy beside it
    def test_binary_load_holds_the_matrix_once(self, tmp_path):
        A = np.random.default_rng(2).standard_normal((200, 300))
        A[0, :3] = -0.0, 5e-324, np.inf
        path = tmp_path / "a.bin"
        save_matrix_binary(path, A)
        tracemalloc.start()
        try:
            got = load_matrix_binary(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == A.tobytes() and got.dtype == np.float64
        assert got.flags.writeable and got.flags.c_contiguous
        assert peak < 1.5 * A.nbytes

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_matrix_binary(path)

    # a header that claims more data than the file holds, by far or by one
    # value, is rejected before the payload is read
    @pytest.mark.parametrize("dims, payload", [((2**40, 2**30), b""),
                                               ((2, 2), b"\0" * 24)],
                             ids=["oversized-header", "short-payload"])
    def test_truncated_payload_rejected(self, tmp_path, dims, payload):
        path = tmp_path / "a.bin"
        path.write_bytes(b"GLMA" + struct.pack("<QQ", *dims) + payload)
        with pytest.raises(ValueError, match="truncated matrix payload"):
            load_matrix_binary(path)
