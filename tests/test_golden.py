"""Byte-identity of the CLI's CSV output on small grids.

Each digest is the sha256 of a CSV written before the state producers were
batched, when every point was computed by its own scalar call; the phenom-t
digest pins the adaptive Runge-Kutta path as it was before its stages were
combined as one array.  A change in
the last bit of any value, or in the sign of a zero, changes the digest.
The digests were taken with numpy 2.4 and glibc's libm on x86-64 Linux
(AVX-512); a platform whose exp, cos or hypot rounds differently gives
other digests.
"""

import hashlib

import pytest

from rabicav import cli

_GRID = ("--end-us", "60", "--step-us", "0.25")
_DEGENERATE = ("--gamma1", "1000", "--gamma2", "1000", "--gamma3", "46.6")

CASES = {
    "simulate": (("simulate", *_GRID),
                 "1cd54ee9b687d623cb9ba7ede82f0659be8142a850e4af33f2180b4dc2bdfc48"),
    "simulate-gaussian-spread": (
        ("simulate", "--profile", "gaussian", "--delta-t-us", "2.37", *_GRID),
        "85a360fda81abdc2f4037245d755cf2a34552c5a34b0d42a10c939ef4cab981c"),
    "entangle": (("entangle", *_GRID),
                 "d9610aa38a17d4a1c0bd3c20ff3a60f86413926078de49706c16573994c6eaf1"),
    "entangle-gaussian": (
        ("entangle", "--profile", "gaussian", *_GRID),
        "b6200494f6624126bbe39b9870e7262482da86c7bcb82dda3b39c072ad22fd45"),
    "energy-spread": (("energy", "--delta-t-us", "5", *_GRID),
                      "ad81e5f77554c6f18a3c755f49eee4aff1eaa8b1a8cda123920ab9f3e9938580"),
    "sweep": (("simulate", "--sweep", "gamma3=2000:20000:3", "--end-us", "60", "--step-us", "1"),
              "10a16af7bb68c173bdb317bbdbaef8e5d9bd445a20ac939e981800c304f7604d"),
    "phenom-t0": (("simulate", "--model", "phenom-t0", *_GRID),
                  "5cad9ac0c167524fdffd5eaddf4133ef0645f729ca7249ffcbe19ecea815af6f"),
    "phenom-t0-hyperbolic": (
        ("simulate", "--model", "phenom-t0", "--gamma", "1e6", *_GRID),
        "b3f1a28e1c7ec46d59dfd7fa3e59b06dd8f2403906cc7e784ee87c6c92348988"),
    "microscopic": (("simulate", "--model", "microscopic", *_GRID),
                    "2fb2ecc8a68632e85a8c82cb4782c893c70281217bcb8f4709426baf72aea4f7"),
    "microscopic-gaussian": (
        ("simulate", "--model", "microscopic", "--profile", "gaussian", *_GRID),
        "62047f94b59cd9df43acc1e172244ffea02108234d8cc5caf67c51b21b2b5100"),
    "phenom-t": (("simulate", "--model", "phenom-t", *_GRID),
                 "9eb1936345d07facc4766604a4cea0ea9efda60f40fe82aadf951607b1458d19"),
    "degenerate": (("simulate", *_DEGENERATE, *_GRID),
                   "88e83f83c5cc0af029f8d84838aeb3d4b4872eb1234e44ee0a480c37400fe3de"),
    "degenerate-gaussian": (
        ("simulate", *_DEGENERATE, "--profile", "gaussian", *_GRID),
        "9165749c4dcb970dc5e1bfb3588b3efaeac114794026dd49d4ffba4497b1c64f"),
}


@pytest.mark.parametrize("name", CASES)
def test_csv_is_byte_identical(tmp_path, name):
    argv, digest = CASES[name]
    out = tmp_path / f"{name}.csv"
    assert cli.main([*argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
