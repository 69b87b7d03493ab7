"""Time-uncertainty decoherence: gamma-kernel averaging of the open-cavity curves.

A finite timing spread Delta t (collisional velocity error, finite detector
resolution) replaces rho(t) by a gamma-distributed average over evolution
times with mean t and variance t*Delta t.  Every open-cavity curve is an
exponential sum (:class:`rabicav.closed_form.ExpSum`), and the kernel maps
each term e^{z t} to (1 - z Dt)^{-t/Dt}: decaying exponentials turn into
power laws and the oscillating term picks up an arctan phase; the Dt -> 0
limit restores the sharp-time curves.  The independent oracle,
:func:`_quadrature`, averages any function against the kernel with a Gauss
rule exact for the gamma density: doubling the node count until two rules
agree, with no upper limit and no truncated kernel tail.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import _energy_sum, _pg_sum
from .core import ValidationError
from .evolve import CavityGeometry
from .models import DecayRates, PhysicalParams


def _gamma_gauss_rule(shape: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the Gamma(shape, 1) density.

    Generalized Gauss-Laguerre with alpha = shape - 1 by Golub & Welsch
    (Math. Comp. 23, 221 (1969)): the nodes are the eigenvalues of the
    Jacobi matrix of the monic Laguerre recurrence, the weights the squared
    first components of its unit eigenvectors, which sum to 1.
    """
    i = np.arange(1, n)
    off = np.sqrt(i * (i + shape - 1.0))
    jacobi = np.diag(2.0 * np.arange(n) + shape) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    return nodes, vecs[0] ** 2


def _quadrature(func, t: float, delta_t: float) -> float:
    """Average of the scalar function ``func`` against the gamma kernel.

    Gauss rules for the kernel with 32, 64, ... nodes, at most 512, each
    calling ``func`` once per node and summed with ``math.fsum``; the first
    two successive rules that agree within max(1e-12, 1e-9 |I|) give the
    finer one's value.  The rule integrates over the whole half-line, so no
    kernel tail is cut off at any shape t/Dt, below 1 included.  Raises
    :class:`ValidationError` when no two rules up to 512 nodes agree.
    """
    if not (0 < t < math.inf and 0 < delta_t < math.inf):
        raise ValidationError("quadrature needs finite t > 0 and delta_t > 0")
    value = None
    for n in (32, 64, 128, 256, 512):
        nodes, weights = _gamma_gauss_rule(t / delta_t, n)
        previous, value = value, math.fsum(
            w * func(delta_t * x) for x, w in zip(nodes.tolist(), weights.tolist()))
        if previous is not None and abs(value - previous) <= max(1e-12, 1e-9 * abs(value)):
            return value
    raise ValidationError(f"gamma-kernel quadrature at t = {t:.6e} s, delta_t = {delta_t:.6e} s "
                          "did not converge with 512 nodes")


def convolve_pg(rates: DecayRates, eps: float, params: PhysicalParams,
                geom: CavityGeometry, delta_t: float, t):
    """Time-uncertainty-averaged ground-state probability (Gaussian profile).

    The smeared exponential sum of :func:`rabicav.closed_form.opencavity_pg`,
    which is the fallback generator's spectrum only where S^2 < 0 outside
    the vanishing band.
    """
    return _pg_sum(rates, eps, params, t, geom).smeared(delta_t, t)


def convolve_energy(rates: DecayRates, eps: float, params: PhysicalParams,
                    delta_t: float, t):
    """Time-uncertainty-averaged mean energy.

    Each exponential of the sharp-time curve maps to its gamma-kernel power
    law (the kernel's moment-generating identity).
    """
    return _energy_sum(rates, eps, params, t).smeared(delta_t, t)
