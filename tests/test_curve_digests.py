"""Bit identity of the closed-form curves on non-degenerate inputs.

The golden CSVs pin these curves at one parameter point only; here each
digest is the sha256 of a curve's float64 bytes (signed zeros included) over
a time grid, called once with the array and once per scalar time, at several
rate sets.  The digests were taken when every observable spelled out its own
exponents and coefficients, so they pin the exact rounding of that
arithmetic.  Same platform caveat as ``tests/test_golden.py``: numpy 2.4 and
glibc's libm on x86-64 Linux (AVX-512).
"""

import hashlib

import numpy as np
import pytest

from rabicav import CavityGeometry, DecayRates, PhysicalParams
from rabicav import closed_form as cf
from rabicav import dephase

_P = PhysicalParams()
_GEOM = CavityGeometry(waist=5.96e-3, diameter=50e-3)
_G = _P.g

# (gamma1, gamma2, gamma3, eps): the paper's point, unequal rates, T = 0,
# and a fast set with a small gamma3
_RATES = {
    "paper": (17.73, 17.73, 0.07 * _G, 0.0466),
    "unequal": (300.0, 17.73, 0.07 * _G, 0.0466),
    "zero-T": (17.73, 17.73, 0.07 * _G, 0.0),
    "fast": (5000.0, 800.0, 120.0, 0.2),
}

_TIMES = np.concatenate([[0.0, 1e-12, 1e-10], np.linspace(1e-7, 500e-6, 301)])
_SCALARS = _TIMES[::30]


def _rates(name):
    g1, g2, g3, eps = _RATES[name]
    return DecayRates.simplified(g1, g2, g3, eps), eps


def _pg(name, geometry=None):
    rates, eps = _rates(name)
    return lambda t: cf.opencavity_pg(rates, eps, _P, t, geometry=geometry)


def _energy(name):
    rates, eps = _rates(name)
    return lambda t: cf.energy_mean(rates, eps, _P, t)


def _conv_pg(name, dt):
    rates, eps = _rates(name)
    return lambda t: dephase.convolve_pg(rates, eps, _P, _GEOM, dt, t)


def _conv_energy(name, dt):
    rates, eps = _rates(name)
    return lambda t: dephase.convolve_energy(rates, eps, _P, dt, t)


def _micro(g, gamma1, gamma2):
    return lambda t: cf.microscopic_pg(g, gamma1, gamma2, t)


CURVES = {
    **{f"pg-{r}": _pg(r) for r in _RATES},
    **{f"pg-gaussian-{r}": _pg(r, _GEOM) for r in ("paper", "unequal")},
    **{f"energy-{r}": _energy(r) for r in _RATES},
    "micro-unequal": _micro(_G, 300.0, 17.73),
    "micro-trapped": _micro(_G, 0.1 * _G, 0.0),
    "micro-gaussian": _micro(0.21 * _G, 17.73, 17.73),
    **{f"conv-pg-{r}-{dt_us}us": _conv_pg(r, dt_us * 1e-6)
       for r in ("paper", "unequal") for dt_us in (0.5, 2.37)},
    **{f"conv-energy-{r}-5us": _conv_energy(r, 5e-6) for r in ("paper", "fast")},
}

DIGESTS = {
    "pg-paper": "c7fe92a9ce15cd29345b348179d103c761ca80f9bce4920d81cff7018ae8147c",
    "pg-unequal": "60299e7349def9ea9d743a3055c4baa3cb01df0dbcd0bbc4a70ef618ba35f66d",
    "pg-zero-T": "f403da90055f5045568955ea9139190cd1dc52d8f619134de086b137d694c720",
    "pg-fast": "5fb466937b6f963a147ae743ce00bae371c43a4d97620c0641dcaf0caec95706",
    "pg-gaussian-paper": "7ff2795b06ded6d2b2c1562258fe10404f4b45c27b8008319814b677c6555a0d",
    "pg-gaussian-unequal": "1380205bf6f5ec4f5f40d1f0f181027fdd2a29c7105dbe9472ad60ecadf47e36",
    "energy-paper": "cc4e2b078389ba89d486dfcbb682e5b316af8b666a6cf5cb7ce0cd9a15f87d98",
    "energy-unequal": "7a07734cc17ed0667e5a2dc62d73b83dc6a284131ec75be7e458ff0f03f6de3b",
    "energy-zero-T": "fef11cab507494f7516a20270a7f6d303f4122a50286eda7ff070fdfcca76ae0",
    "energy-fast": "54c4dab4d9f2d3aa70e36a6f1d18b9cbd5ecf5e434b3e417945029cb189cfdd1",
    "micro-unequal": "9344785a34802cc8ce93fc35183fc397e4161d60d3ece41bdd40b1f2a8f081f6",
    "micro-trapped": "dae88614b78d727ea4d403987494b28ab78ef80ee3ae8d5e564dfb480e180a3a",
    "micro-gaussian": "c41ff1441a8bb118c7d7b51d6fdd761aac38be79e5c016423204362864b9d6ac",
    "conv-pg-paper-0.5us": "45d6c0f08d78da68644502b6265edfbd0a1ffa56d35c6dafc3b89e741b68ddaa",
    "conv-pg-paper-2.37us": "779c1bfe0650cc1f69f454518f52a91c71dfca853e6aa0ff8a7ba5aee102b698",
    "conv-pg-unequal-0.5us": "dfdb7716996614fbd2d44382d114179558158e2e6cd14bafc7e3469deadbc8bf",
    "conv-pg-unequal-2.37us": "c8bfe2149f686e37dc854a151ebcbe4f4dcc61627d6b0871771c9f78831423b7",
    "conv-energy-paper-5us": "ac3206b6bf7e06a1e13deb38420579e3cef787d1de3eca39c37a3e21fd39cf88",
    "conv-energy-fast-5us": "33ac18e108c83eb4b1df93e5a67cb51a141f6bdd13f0396e0059a50254b7b1d7",
}


def _digest(curve) -> str:
    batched = np.asarray(curve(_TIMES), dtype=float)
    singles = np.array([curve(t) for t in _SCALARS], dtype=float)
    return hashlib.sha256(batched.tobytes() + singles.tobytes()).hexdigest()


@pytest.mark.parametrize("name", DIGESTS)
def test_curve_is_bit_identical(name):
    assert _digest(CURVES[name]) == DIGESTS[name]
