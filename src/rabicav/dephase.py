"""Time-uncertainty decoherence: gamma-kernel averaging of the open-cavity curves.

A finite timing spread Delta t (collisional velocity error, finite detector
resolution) replaces rho(t) by a gamma-distributed average over evolution
times with mean t and variance t*Delta t.  Every open-cavity curve is an
exponential sum (:class:`rabicav.closed_form.ExpSum`), and the kernel maps
each term e^{z t} to (1 - z Dt)^{-t/Dt}: decaying exponentials turn into
power laws and the oscillating term picks up an arctan phase; the Dt -> 0
limit restores the sharp-time curves.  Adaptive quadrature against the
kernel, :func:`_quadrature`, is kept as the independent oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import _energy_sum, _pg_sum
from .core import ValidationError, time_grid
from .evolve import CavityGeometry
from .models import DecayRates, PhysicalParams


def gamma_kernel(t: float, t_prime, delta_t: float):
    """Probability density of the smeared evolution time.

    Gamma distribution with shape t/Dt and scale Dt: normalized, mean t,
    variance t*Dt.  ``delta_t == 0`` has no density (the caller must use the
    sharp-time identity path instead).
    """
    if t <= 0 or delta_t <= 0:
        raise ValidationError("gamma_kernel needs t > 0 and delta_t > 0")
    shape = t / delta_t
    tp = time_grid(t_prime, "t_prime")
    out = np.zeros_like(tp)
    pos = tp > 0
    x = tp[pos] / delta_t
    log_pdf = -x + (shape - 1.0) * np.log(x) - math.log(delta_t) - math.lgamma(shape)
    out[pos] = np.exp(log_pdf)
    if np.any(~pos):
        if shape < 1.0:
            out[~pos] = np.inf
        elif shape == 1.0:
            out[~pos] = 1.0 / delta_t
    return float(out[0]) if np.ndim(t_prime) == 0 else out


def _quadrature(func, t: float, delta_t: float) -> float:
    """Adaptive Gauss-Kronrod average of ``func`` against the gamma kernel.

    The upper limit, 12 standard deviations plus 40 scales past the mean,
    leaves out a negligible tail of the kernel at every shape t/Dt.
    """
    from scipy.integrate import quad

    upper = t + 12.0 * math.sqrt(t * delta_t) + 40.0 * delta_t
    value, _ = quad(lambda tp: gamma_kernel(t, tp, delta_t) * func(tp),
                    0.0, upper, epsabs=1e-12, epsrel=1e-9, limit=400)
    return value


def convolve_pg(rates: DecayRates, eps: float, params: PhysicalParams,
                geom: CavityGeometry, delta_t: float, t):
    """Time-uncertainty-averaged ground-state probability (Gaussian profile).

    The smeared exponential sum of :func:`rabicav.closed_form.opencavity_pg`;
    degenerate-gap inputs smear the fallback generator's spectrum the same
    way.
    """
    return _pg_sum(rates, eps, params, t, geom).smeared(delta_t, t)


def convolve_energy(rates: DecayRates, eps: float, params: PhysicalParams,
                    delta_t: float, t):
    """Time-uncertainty-averaged mean energy.

    Each exponential of the sharp-time curve maps to its gamma-kernel power
    law (the kernel's moment-generating identity).
    """
    return _energy_sum(rates, eps, params, t).smeared(delta_t, t)
