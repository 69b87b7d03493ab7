"""Byte-identity of the CLI's CSV output.

Most cases run on small grids of one block.  The ``-multi-block`` cases
span two or three blocks of :data:`~rabicav.core.BLOCK` rows with a partial
last one (12 001 rows; 6001 per value for the sweep and for phenom-t; 4301
for the phenom-t0 product), so the joins between blocks are pinned too.
Each digest is the sha256 of a CSV the current producers write, and
:func:`test_exact_rows_match_block_expm` checks the values of every case
but three against scipy's expm of the invariant block of |e,0><e,0|.  The
two ``energy`` cases write the mean-energy curves, not states.  The
phenom-t0 Gaussian product has no single-expm oracle, because its factors
do not commute; ``test_phenom_product_matches_mpmath_product`` in
``tests/test_closed_form.py`` checks it against a 40-digit product instead.
A change in the last bit of any value, or in the sign of a zero, changes the
digest.  The digests were taken with numpy 2.4 and glibc's
libm on x86-64 Linux (AVX-512); a platform whose exp, cos or hypot rounds
differently gives other digests.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from rabicav import cli, models
from rabicav import closed_form as cf
from rabicav.core import partial_transpose

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
    "energy-multi-block": (
        ("energy", "--delta-t-us", "5", "--end-us", "60", "--step-us", "0.005"),
        "3be5c91a83e6c3d16dddaff5b82b1d0f108a042cdc08adacc79c7d15c3d56eb0"),
    "sweep": (("simulate", "--sweep", "gamma3=2000:20000:3", "--end-us", "60", "--step-us", "1"),
              "10a16af7bb68c173bdb317bbdbaef8e5d9bd445a20ac939e981800c304f7604d"),
    "simulate-gaussian-spread-multi-block": (
        ("simulate", "--profile", "gaussian", "--delta-t-us", "2.37",
         "--end-us", "60", "--step-us", "0.005"),
        "e1a3d8a87e5e75ed4a570d2a5094099012c9aa739dcac1df7647fb13570d0ac0"),
    "entangle-multi-block": (
        ("entangle", "--end-us", "60", "--step-us", "0.005"),
        "0f946157438bcd74986123d42b1d908b41c6c8b2f3b69e247ccc4b214a1b75ff"),
    "sweep-multi-block": (
        ("simulate", "--sweep", "gamma3=2000:20000:3", "--end-us", "60", "--step-us", "0.01"),
        "e124f0c6400de65dca86b45989ff02f4c1f6b2f543ec6375fdb70295df508e94"),
    "phenom-t0": (("simulate", "--model", "phenom-t0", *_GRID),
                  "53733e64b8e3bc2b273e268634492d60dc2447ae8cc18cb94defc6c8928029d7"),
    "phenom-t0-hyperbolic": (
        ("simulate", "--model", "phenom-t0", "--gamma", "1e6", *_GRID),
        "4efdede5cee454d865e7b39ed22598028d5f79152e15537fcec7c9a8efe37ea8"),
    "microscopic": (("simulate", "--model", "microscopic", *_GRID),
                    "fb489996779ad1bd0932d6ebd6af5b3ad8d7aad18967ccffda35b9e152a638ea"),
    "microscopic-gaussian": (
        ("simulate", "--model", "microscopic", "--profile", "gaussian", *_GRID),
        "9a6fc27258b9ed04d450f3bb5800de4cdc500c915a8f7364c1d79cd67b241ca1"),
    "phenom-t0-gaussian-multi-block": (
        ("simulate", "--model", "phenom-t0", "--profile", "gaussian", "--step-us", "0.1"),
        "4f798b108ac814ad5bdf1062d26e72657df37f26100f4cd1d343b4613b8d203d"),
    "phenom-t": (("simulate", "--model", "phenom-t", *_GRID),
                 "c8d00b5759497ef0b61384ce548716b5b55db2b98d46ec9d1c360da2079cd8be"),
    "phenom-t-multi-block": (
        ("simulate", "--model", "phenom-t", "--end-us", "60", "--step-us", "0.01"),
        "a68a47a8f6fd9c6ac3a8f43efc5d9b1186116db9fe518a3164536613787be422"),
    "degenerate": (("simulate", *_DEGENERATE, *_GRID),
                   "8689586e8a8b45dd67d6c3a65a12a8d0cde398f8bef4539b3b088a0629c53487"),
    "degenerate-gaussian": (
        ("simulate", *_DEGENERATE, "--profile", "gaussian", *_GRID),
        "db768a524f2e8c19e568ffaa4a5e516e85355449c2bee9cdb0d50dbffb24fc04"),
}


@pytest.mark.parametrize("name", CASES)
def test_csv_is_byte_identical(tmp_path, name):
    argv, digest = CASES[name]
    out = tmp_path / f"{name}.csv"
    assert cli.main([*argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _exact_case(name, params, geometry, gamma3=None):
    """The generator and initial state of a case, ``gamma3`` a sweep value."""
    if name.startswith("phenom-t0"):
        kind = models.PhenomT0(1e6 if name.endswith("hyperbolic") else 0.3 * params.g)
    elif name.startswith("phenom-t"):
        kind = models.PhenomT.from_temperature(0.3 * params.g, params)
    elif name.startswith("degenerate"):
        kind = models.OpenCavity(models.DecayRates.simplified(1000.0, 1000.0, 46.6, 0.0466))
    elif name.startswith("microscopic"):
        kind = models.Microscopic(17.73, 17.73)
    else:
        rates = models.DecayRates.simplified(17.73, 17.73, gamma3 or 0.07 * params.g, 0.0466)
        kind = models.OpenCavity(rates)
    if "gaussian" in name:   # the profile enters through the phase coupling
        params = replace(params, g=params.g * geometry.profile_mean)
    liou = models.build_liouvillian(kind, params)
    return liou, cf.initial_excited_state(liou.basis)


def _entangle_columns(columns):
    """``entangle``'s lambda1..lambda4 (sorted) and coherence columns from
    ``simulate``'s dressed-state columns, by a numeric eigensolve."""
    m = np.zeros((len(columns), 3, 3), dtype=complex)
    m[:, [0, 1, 2], [0, 1, 2]] = columns[:, 1:4]
    m[:, 0, 1] = columns[:, 4] + 1j * columns[:, 5]
    m[:, 1, 0] = m[:, 0, 1].conj()
    u = models.dressed_state_matrix()
    bare = u @ m @ u.conj().T
    rho4 = np.zeros((len(columns), 4, 4), dtype=complex)
    rho4[:, 1:, 1:] = bare
    spectrum = np.linalg.eigvalsh([partial_transpose(r) for r in rho4])
    return np.column_stack([spectrum, bare[:, 0, 1].real, bare[:, 0, 1].imag])


@pytest.mark.parametrize("name", ["phenom-t", "phenom-t0", "phenom-t0-hyperbolic",
                                  "degenerate", "degenerate-gaussian", "simulate",
                                  "simulate-gaussian-spread", "entangle", "entangle-gaussian",
                                  "sweep", "microscopic", "microscopic-gaussian",
                                  "simulate-gaussian-spread-multi-block", "entangle-multi-block",
                                  "sweep-multi-block", "phenom-t-multi-block"])
def test_exact_rows_match_block_expm(tmp_path, name, params, geometry, block_expm):
    argv, _ = CASES[name]
    out = tmp_path / f"{name}.csv"
    assert cli.main([*argv, "-o", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    if name.startswith("sweep"):   # one block of rows per gamma3, after the sweep column
        cases = [(rows[rows[:, 0] == v, 1:], v) for v in np.unique(rows[:, 0])]
    else:
        cases = [(rows, None)]
    for block, gamma3 in cases:
        liou, rho0 = _exact_case(name, params, geometry, gamma3)
        expected = block_expm(liou, rho0, block[:, 0] * 1e-6)
        if name.startswith("entangle"):
            got = np.column_stack([np.sort(block[:, 1:5], axis=1), block[:, 5:7]])
            expected = _entangle_columns(expected)
        else:   # p_g_convolved is a smeared curve, not a state
            got = block[:, [1, 3, 4, 5, 6, 7]]
        assert np.max(np.abs(got - expected)) <= 1e-13
