import math

import numpy as np
import pytest
from scipy.integrate import quad

from rabicav import closed_form as cf
from rabicav import dephase, models
from rabicav.core import ValidationError, time_grid


def gamma_kernel(t: float, t_prime, delta_t: float):
    """Probability density of the smeared evolution time.

    Gamma distribution with shape t/Dt and scale Dt: normalized, mean t,
    variance t*Dt.  ``delta_t == 0`` has no density (the caller must use the
    sharp-time identity path instead).
    """
    if not (0 < t < math.inf and 0 < delta_t < math.inf):   # a NaN fails too
        raise ValidationError("gamma_kernel needs finite t > 0 and delta_t > 0")
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


def test_kernel_normalization():
    t, dt = 100e-6, 2.37e-6
    upper = t + 12.0 * math.sqrt(t * dt)
    total, _ = quad(lambda tp: gamma_kernel(t, tp, dt), 0.0, upper, limit=300)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_kernel_mean_and_variance():
    t, dt = 50e-6, 5e-6
    upper = t + 12.0 * math.sqrt(t * dt)
    mean, _ = quad(lambda tp: tp * gamma_kernel(t, tp, dt), 0.0, upper, limit=300)
    assert mean == pytest.approx(t, rel=1e-10)
    var, _ = quad(lambda tp: (tp - t) ** 2 * gamma_kernel(t, tp, dt),
                  0.0, upper, limit=300)
    assert var == pytest.approx(t * dt, rel=1e-8)


def test_kernel_concentration_for_small_spread():
    t, dt = 100e-6, 0.05e-6
    sig = math.sqrt(t * dt)
    mass, _ = quad(lambda tp: gamma_kernel(t, tp, dt),
                   t - 5 * sig, t + 5 * sig, limit=300)
    assert mass == pytest.approx(1.0, abs=1e-5)


def test_kernel_zero_argument_cases():
    assert gamma_kernel(10.0, 0.0, 1.0) == 0.0            # shape > 1
    assert gamma_kernel(1.0, 0.0, 1.0) == 1.0             # shape = 1
    assert gamma_kernel(0.5, 0.0, 1.0) == math.inf        # shape < 1
    with pytest.raises(ValidationError):
        gamma_kernel(0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        gamma_kernel(1.0, 1.0, 0.0)


def test_kernel_passes_constants_through_quadrature():
    # t/dt = 40, and the small shapes 0.42 and 2.1, whose kernels reach far
    # past t + 12 standard deviations
    for t, dt in ((80e-6, 2e-6), (1e-6, 2.37e-6), (5e-6, 2.37e-6)):
        value = dephase._quadrature(lambda tp: 0.7, t, dt)
        assert value == pytest.approx(0.7, rel=1e-9)


def _quad_oracle(func, t, dt):
    upper = t + 12.0 * math.sqrt(t * dt) + 40.0 * dt
    value, _ = quad(lambda tp: gamma_kernel(t, tp, dt) * func(tp),
                    0.0, upper, epsabs=1e-12, epsrel=1e-9, limit=400)
    return value


def test_gauss_rule_matches_adaptive_quadrature(params, paper_rates, geometry):
    # criterion 9's nine (t, dt) points, and the degenerate-gap curve
    degenerate = models.DecayRates.simplified(1000.0, 1000.0, 46.6, 0.0466)
    cases = [(paper_rates, t, dt * 1e-6) for dt in (0.5, 2.37, 5.0)
             for t in (50e-6, 200e-6, 430e-6)]
    cases += [(degenerate, 60e-6, 1e-6), (degenerate, 5e-6, 2.37e-6)]
    for rates, t, dt in cases:
        def curve(tp):
            return cf.opencavity_pg(rates, 0.0466, params, tp, geometry=geometry)
        assert abs(dephase._quadrature(curve, t, dt) - _quad_oracle(curve, t, dt)) <= 1e-12


@pytest.mark.parametrize("shape", [0.42, 1.0, 2.1, 40.0, 860.0])
def test_gauss_rule_reproduces_kernel_moments(shape):
    _, weights = dephase._gamma_gauss_rule(shape, 32)
    assert math.fsum(weights) == pytest.approx(1.0, rel=1e-12)
    dt = 2.37e-6
    t = shape * dt
    mean = dephase._quadrature(lambda tp: tp, t, dt)
    var = dephase._quadrature(lambda tp: (tp - t) ** 2, t, dt)
    assert mean == pytest.approx(t, rel=1e-12)
    assert var == pytest.approx(t * dt, rel=1e-12)


@pytest.mark.parametrize("t, dt", [(200e-6, 2.37e-6), (5e-6, 2.37e-6)])
def test_quadrature_refuses_an_unresolved_integrand(t, dt):
    # a step at the mean: no Gauss rule converges on it, and no value is returned
    with pytest.raises(ValidationError, match="did not converge"):
        dephase._quadrature(lambda tp: 1.0 if tp < t else 0.0, t, dt)


def test_exponential_moment_identity():
    # gamma-kernel image of e^{-kappa t'} is the power law (1 + kappa dt)^{-t/dt}
    kappa, t, dt = 5177.0, 200e-6, 2.37e-6
    direct = dephase._quadrature(lambda tp: math.exp(-kappa * tp), t, dt)
    closed = cf.ExpSum(0.0, np.array([1.0]), np.array([-kappa])).smeared(dt, t)
    assert closed == pytest.approx((1 + kappa * dt) ** (-t / dt), rel=1e-12)
    assert direct == pytest.approx(closed, rel=1e-9)


def test_convolve_pg_zero_spread_is_identity(params, paper_rates, geometry):
    for t in (5e-6, 80e-6):
        assert dephase.convolve_pg(paper_rates, 0.0466, params, geometry, 0.0, t) == \
            cf.opencavity_pg(paper_rates, 0.0466, params, t, geometry=geometry)


def test_convolve_pg_matches_quadrature(params, paper_rates, geometry):
    dt = 2.37e-6
    for t in (60e-6, 230e-6):
        closed = dephase.convolve_pg(paper_rates, 0.0466, params, geometry, dt, t)
        direct = dephase._quadrature(
            lambda tp: cf.opencavity_pg(paper_rates, 0.0466, params, tp, geometry=geometry),
            t, dt)
        assert closed == pytest.approx(direct, abs=1e-6)


def test_convolve_pg_degenerate_uses_quadrature(params, geometry):
    # the smeared fallback spectrum against the quadrature oracle, also at
    # t/dt ~ 2 where the kernel is far from Gaussian
    rates = models.DecayRates.simplified(1000.0, 1000.0, 46.6, 0.0466)
    assert cf.damping_basis(rates).degenerate
    for t, dt in ((60e-6, 1e-6), (5e-6, 2.37e-6)):
        value = dephase.convolve_pg(rates, 0.0466, params, geometry, dt, t)
        direct = dephase._quadrature(
            lambda tp: cf.opencavity_pg(rates, 0.0466, params, tp, geometry=geometry), t, dt)
        assert value == pytest.approx(direct, abs=1e-9)


def test_convolve_pg_stays_in_unit_interval(params, paper_rates, geometry):
    ts = np.linspace(1e-6, 500e-6, 200)
    for dt in (0.1e-6, 0.5e-6, 2.37e-6, 5e-6):
        values = dephase.convolve_pg(paper_rates, 0.0466, params, geometry, dt, ts)
        assert np.all((values >= 0.0) & (values <= 1.0))


def test_monotone_blur(params, paper_rates, geometry):
    # the cosine envelope amplitude is non-increasing in the spread
    gamma4 = (paper_rates.gamma1 + paper_rates.gamma2 + 2 * paper_rates.gamma3) / 4.0
    omega = 2 * params.g * evolve_factor(geometry)
    t = 150e-6
    rabi = cf.ExpSum(0.0, np.array([1.0]), np.array([complex(-gamma4, omega)]))
    amps = [abs(rabi.smeared(dt, t) /
                math.cos((t / dt) * math.atan2(omega * dt, 1 + gamma4 * dt)))
            for dt in (0.1e-6, 0.5e-6, 1e-6, 2.37e-6, 5e-6)]
    assert all(b <= a for a, b in zip(amps, amps[1:]))
    sharp = math.exp(-gamma4 * t)
    assert amps[0] <= sharp


def evolve_factor(geometry):
    return math.sqrt(math.pi) * geometry.waist / geometry.diameter


def test_convolve_energy_zero_spread(params, paper_rates):
    for t in (5e-6, 80e-6):
        assert dephase.convolve_energy(paper_rates, 0.0466, params, 0.0, t) == \
            cf.energy_mean(paper_rates, 0.0466, params, t)


def test_convolve_energy_small_relative_change(params, paper_rates):
    ts = np.linspace(1e-6, 500e-6, 100)
    base = cf.energy_mean(paper_rates, 0.0466, params, ts) + 0.5 * params.omega0
    conv = dephase.convolve_energy(paper_rates, 0.0466, params, 5e-6, ts) + 0.5 * params.omega0
    assert np.max(np.abs(conv - base) / np.abs(base)) < 0.01


def test_convolve_energy_matches_quadrature(params, paper_rates):
    degenerate = models.DecayRates.simplified(1000.0, 1000.0, 46.6, 0.0466)
    t, dt = 150e-6, 5e-6
    for rates in (paper_rates, degenerate):
        closed = dephase.convolve_energy(rates, 0.0466, params, dt, t)
        direct = dephase._quadrature(
            lambda tp: cf.energy_mean(rates, 0.0466, params, tp), t, dt)
        assert closed == pytest.approx(direct, rel=1e-9)


def test_negative_spread_rejected(params, paper_rates, geometry):
    with pytest.raises(ValidationError):
        dephase.convolve_pg(paper_rates, 0.0466, params, geometry, -1e-6, 1e-5)
