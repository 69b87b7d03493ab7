import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabicav import closed_form as cf
from rabicav import dephase, evolve, models
from rabicav.core import Basis, ValidationError


def _rk_state(kind, params, t, rtol=1e-11, atol=1e-13):
    liou = models.build_liouvillian(kind, params)
    rho0 = cf.initial_excited_state(liou.basis)
    traj = evolve.integrate(liou, rho0, t, t_eval=[t], rtol=rtol, atol=atol)
    return traj.states[-1]


# ---------------------------------------------------------------------------
# photon-loss model at T = 0
# ---------------------------------------------------------------------------

def test_phenom_initial_condition(params):
    probs = cf.phenom_T0_rho(params.g, 0.3 * params.g, 0.0).matrix.diagonal().real
    assert probs == pytest.approx((1.0, 0.0, 0.0), abs=1e-14)


def test_phenom_lossless_rabi(params):
    g = params.g
    for t in (0.2 / g, 1.7 / g, 11.0 / g):
        p = cf.phenom_T0_rho(g, 0.0, t).matrix.diagonal().real
        assert p[0] == pytest.approx(math.cos(g * t) ** 2, abs=1e-12)
        assert p[1] == pytest.approx(math.sin(g * t) ** 2, abs=1e-12)
        assert p[2] == pytest.approx(0.0, abs=1e-12)


def test_phenom_half_rabi_period(params):
    p = cf.phenom_T0_rho(params.g, 0.0, math.pi / (2.0 * params.g)).matrix.diagonal().real
    assert p == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)


def test_phenom_probabilities_sum_to_one(params):
    for t in (1e-6, 17e-6, 230e-6):
        p = cf.phenom_T0_rho(params.g, 0.3 * params.g, t).matrix.diagonal().real
        assert sum(p) == pytest.approx(1.0, abs=1e-12)


def test_phenom_photon_escapes(params):
    p = cf.phenom_T0_rho(params.g, 0.3 * params.g, 5e-3).matrix.diagonal().real
    assert p == pytest.approx((0.0, 0.0, 1.0), abs=1e-9)


def test_phenom_matches_rk_oracle(params):
    gamma = 0.3 * params.g
    state = _rk_state(models.PhenomT0(gamma), params, 20e-6)
    closed = cf.phenom_T0_rho(params.g, gamma, 20e-6)
    assert np.max(np.abs(closed.matrix - state.matrix)) <= 1e-8


def test_phenom_overdamped_branch_flagged(params):
    gamma = 5.0 * params.g  # gamma^2 > 16 g^2
    closed = cf.phenom_T0_rho(params.g, gamma, 8e-6)
    assert closed.note == "hyperbolic"
    state = _rk_state(models.PhenomT0(gamma), params, 8e-6)
    assert np.max(np.abs(closed.matrix - state.matrix)) <= 1e-8


def test_phenom_critical_damping_is_an_ordinary_point(params):
    # at gamma = 4g the amplitudes of |e,0> and |g,1> are (1 + g t) e^{-g t}
    # and -i g t e^{-g t}
    g = params.g
    ts = np.linspace(0.0, 500e-6, 51)
    rho = cf.phenom_T0_rho(g, 4.0 * g, ts)
    assert rho.note is None
    ce, cg = (1.0 + g * ts) * np.exp(-g * ts), g * ts * np.exp(-g * ts)
    expected = np.zeros_like(rho.matrix)
    expected[:, 0, 0], expected[:, 1, 1] = ce * ce, cg * cg
    expected[:, 2, 2] = 1.0 - ce * ce - cg * cg
    expected[:, 0, 1], expected[:, 1, 0] = 1j * ce * cg, -1j * ce * cg
    assert np.max(np.abs(rho.matrix - expected)) <= 1e-14


_G = models.PhysicalParams().g
# 4g(1 -+ 10^-k): the neighbours of the critically damped point on either side
_NEAR_CRITICAL = st.builds(lambda k, sign: 4.0 * _G * (1.0 + sign * 10.0 ** -k),
                           st.integers(3, 12), st.sampled_from([-1.0, 1.0]))


# gamma <= 40 g: far beyond it expm itself drifts, 6e-13 off at gamma = 1e8 and 1e-11 at 1e9
@settings(max_examples=60, deadline=None)
@given(gamma=st.one_of(st.floats(0.0, 40.0 * _G), _NEAR_CRITICAL, st.just(4.0 * _G)),
       t=st.floats(0.0, 500e-6, allow_subnormal=False))
@example(gamma=4.0 * _G, t=500e-6)
@example(gamma=4.0 * _G * (1.0 - 1e-12), t=100e-6)
@example(gamma=4.0 * _G * (1.0 + 1e-12), t=100e-6)
def test_phenom_matches_block_expm(params, block_expm, gamma, t):
    m = cf.phenom_T0_rho(params.g, gamma, t).matrix
    got = [m[0, 0].real, m[1, 1].real, m[2, 2].real, m[0, 1].real, m[0, 1].imag]
    liou = models.build_liouvillian(models.PhenomT0(gamma), params)
    expected = block_expm(liou, cf.initial_excited_state(Basis.BARE), [t])[0, 1:]
    assert np.max(np.abs(np.array(got) - expected)) <= 1e-13


_GEOM = evolve.CavityGeometry(waist=5.96e-3, diameter=50e-3)
_G101 = evolve._midpoint_couplings(_G, _GEOM, 101)


@st.composite
def _gamma_and_n(draw):
    """(gamma, n): gamma log-uniform in [1, 1e9] or 0, or next to 4 g_j for a factor j."""
    n = draw(st.integers(1, 101))
    if draw(st.booleans()):
        return draw(st.just(0.0) | st.floats(0.0, 9.0).map(lambda e: 10.0 ** e)), n
    j = draw(st.integers(0, n - 1))
    g_j = evolve._midpoint_couplings(_G, _GEOM, n)[j]
    return draw(st.builds(lambda k, sign: 4.0 * g_j * (1.0 + sign * 10.0 ** -k),
                          st.integers(3, 12), st.sampled_from([-1.0, 1.0]))), n


def _mp_product(gamma, t, couplings):
    """(x, y) of psi = (x, -iy) after the factors exp(A(g_j) t/n), each a 40-digit expm."""
    with mpmath.workdps(40):
        tau, v = mpmath.mpf(t) / len(couplings), mpmath.matrix([[1], [0]])
        for g_j in couplings.tolist():
            a = mpmath.matrix([[0, -g_j], [g_j, -mpmath.mpf(gamma) / 2]])
            v = mpmath.expm(a * tau) @ v
        return float(v[0]), float(v[1])


@settings(max_examples=25, deadline=None)
@given(case=_gamma_and_n(), t=st.floats(0.0, 500e-6, allow_subnormal=False))
@example(case=(4.0 * _G101[50] * (1.0 + 1e-9), 101), t=430e-6)   # next to the peak factor's
@example(case=(4.0 * _G101[50] * (1.0 - 1e-9), 101), t=430e-6)   # critical point
@example(case=(4.0 * _G101[0] * (1.0 + 1e-12), 101), t=200e-6)   # an edge factor's
@example(case=(4.0 * _G101[50], 101), t=150e-6)
@example(case=(0.0, 101), t=500e-6)
@example(case=(1e12, 101), t=430e-6)
@example(case=(1e12, 1), t=1e-6)
@example(case=(0.0, 6), t=2.2250738585072014e-308)   # subnormal u: numpy's division overflowed
def test_phenom_product_matches_mpmath_product(params, case, t):
    gamma, n = case
    m = cf.phenom_T0_rho(params.g, gamma, t, _GEOM, n).matrix
    x, y = _mp_product(gamma, t, evolve._midpoint_couplings(params.g, _GEOM, n))
    expected = [x * x, y * y, 1.0 - x * x - y * y, 0.0, x * y]
    got = [m[0, 0].real, m[1, 1].real, m[2, 2].real, m[0, 1].real, m[0, 1].imag]
    assert np.max(np.abs(np.array(got) - expected)) <= 1e-13


@pytest.mark.parametrize("gamma_over_peak, note", [(3.0, None), (4.0, None),
                                                   (4.0 * (1 + 1e-12), "hyperbolic")])
def test_phenom_product_is_hyperbolic_when_every_factor_is(params, gamma_over_peak, note):
    # 3 g_peak overdamps the edge factors only; 4 g_peak leaves the peak factor critical
    n = 101
    gamma = gamma_over_peak * evolve._midpoint_couplings(params.g, _GEOM, n).max()
    assert cf.phenom_T0_rho(params.g, gamma, 1e-5, _GEOM, n).note == note


# ---------------------------------------------------------------------------
# dressed-state decay model
# ---------------------------------------------------------------------------

def test_microscopic_initial_condition(params):
    rho = cf.microscopic_rho(params.g, 100.0, 50.0, 0.0)
    expected = 0.5 * np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 0]], dtype=complex)
    assert np.max(np.abs(rho.matrix - expected)) <= 1e-15


def test_microscopic_lossless_precession(params):
    g = params.g
    t = 0.7 / g
    rho = cf.microscopic_rho(g, 0.0, 0.0, t)
    assert rho.matrix[0, 0] == pytest.approx(0.5)
    assert rho.matrix[1, 1] == pytest.approx(0.5)
    assert rho.matrix[0, 1] == pytest.approx(-0.5 * np.exp(-2j * g * t), abs=1e-14)


def test_microscopic_matches_rk_oracle(params):
    g1, g2 = 0.1 * params.g, 0.05 * params.g
    state = _rk_state(models.Microscopic(g1, g2), params, 30e-6)
    closed = cf.microscopic_rho(params.g, g1, g2, 30e-6)
    assert np.max(np.abs(closed.matrix - state.matrix)) <= 1e-10


_RATE = st.floats(-1.0, 6.0).map(lambda x: 10.0 ** x)   # log-uniform in [0.1, 1e6]
_OBSERVATION_TIMES = np.linspace(0.0, 500e-6, 26)


@settings(max_examples=40, deadline=None)
@given(gamma1=st.one_of(st.just(0.0), _RATE), gamma2=st.one_of(st.just(0.0), _RATE),
       g_scale=st.floats(0.05, 1.0))
def test_microscopic_rho_matches_block_expm(params, block_expm, gamma1, gamma2, g_scale):
    g = params.g * g_scale
    rho = cf.microscopic_rho(g, gamma1, gamma2, _OBSERVATION_TIMES)
    liou = models.build_liouvillian(models.Microscopic(gamma1, gamma2), replace(params, g=g))
    expected = block_expm(liou, cf.initial_excited_state(Basis.DRESSED), _OBSERVATION_TIMES)
    m = rho.matrix
    got = np.column_stack([m[:, 0, 0].real, m[:, 1, 1].real, m[:, 2, 2].real,
                           m[:, 0, 1].real, m[:, 0, 1].imag])
    assert np.max(np.abs(got - expected[:, 1:])) <= 1e-13


def test_microscopic_pg_symmetry_exact(params):
    for t in (3e-6, 47e-6, 311e-6):
        a = cf.microscopic_pg(params.g, 1234.5, 67.8, t)
        b = cf.microscopic_pg(params.g, 67.8, 1234.5, t)
        assert a == b


def test_microscopic_population_trapping(params):
    gamma1 = 0.1 * params.g
    assert cf.microscopic_pg(params.g, gamma1, 0.0, 80.0 / gamma1) == pytest.approx(0.75, abs=1e-6)


def test_microscopic_lossless_pg_is_rabi(params):
    t = 0.9 / params.g
    assert cf.microscopic_pg(params.g, 0.0, 0.0, t) == pytest.approx(
        math.sin(params.g * t) ** 2, abs=1e-12)


# ---------------------------------------------------------------------------
# damping basis
# ---------------------------------------------------------------------------

def test_damping_basis_stationary_eigenvalue(paper_rates):
    basis = cf.damping_basis(paper_rates)
    assert basis.eigenvalues[0] == 0.0


def test_damping_basis_gap_for_equal_rates(params):
    eps, gamma, gamma3 = 0.0466, 120.0, 9000.0
    rates = models.DecayRates.simplified(gamma, gamma, gamma3, eps)
    basis = cf.damping_basis(rates)
    assert basis.s_value == pytest.approx(abs(2 * gamma3 - 2 * eps * gamma), rel=1e-12)


def test_damping_basis_reduces_to_scala_decays():
    g1, g2 = 500.0, 120.0
    rates = models.DecayRates(gamma1=g1, gamma2=g2)
    basis = cf.damping_basis(rates)
    assert basis.eigenvalues[1] == pytest.approx(-max(g1, g2) / 2.0, rel=1e-12)
    assert basis.eigenvalues[2] == pytest.approx(-min(g1, g2) / 2.0, rel=1e-12)
    # matches the closed-cavity population decay exponents e^{-gamma t/2}
    t = 1e-3
    rho = cf.microscopic_rho(47e3 * math.pi, g1, g2, t)
    assert rho.matrix[0, 0].real == pytest.approx(0.5 * math.exp(-g1 * t / 2), rel=1e-12)


def _eigenoperators(basis):
    """The nine eigenoperators, in the order of ``basis.eigenvalues``."""
    return [np.diag(row).astype(complex) for row in basis.components] + [
        models._unit(i, j) for i, j in ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1))]


def test_damping_basis_eigen_relations(params):
    rng = np.random.default_rng(11)
    for _ in range(5):
        rates = models.DecayRates(*rng.uniform(0.0, 3e4, 6))
        basis = cf.damping_basis(rates, params)
        if basis.degenerate:
            continue
        liou = models.build_liouvillian(models.OpenCavity(rates), params)
        for lam, op in zip(basis.eigenvalues, _eigenoperators(basis)):
            norm = np.max(np.abs(op))
            if norm == 0.0:
                continue
            op_hat = op / norm
            defect = np.max(np.abs(liou.apply(op_hat) - lam * op_hat))
            assert defect / (1.0 + abs(lam)) <= 1e-10
        assert all(lam.real <= 1e-12 for lam in basis.eigenvalues)


def test_damping_basis_degenerate_flag():
    rates = models.DecayRates.simplified(1000.0, 1000.0, 46.6, 0.0466)
    assert cf.damping_basis(rates).degenerate
    assert cf.damping_basis(models.DecayRates()).degenerate


def test_generator_annihilates_stationary_operator(params, paper_rates):
    basis = cf.damping_basis(paper_rates)
    liou = models.build_liouvillian(models.OpenCavity(paper_rates), params)
    stationary = _eigenoperators(basis)[0]
    out = liou.apply(stationary / np.max(np.abs(stationary)))
    assert np.max(np.abs(out)) <= 1e-12 * paper_rates.total


# gamma3 = eps*gamma1 + d*total0, with total0 the total rate at d = 0: as d -> 0
# the gap S and eps*gamma1 - gamma3 vanish together at gamma2 = gamma1, and
# eps*gamma1 - gamma3 alone at gamma2 = 300 or 1
_NEAR_SINGULAR = [s * 10.0 ** -k for k in range(10, 1, -1) for s in (1.0, -1.0)] + [3e-2]


@pytest.mark.parametrize("gamma2, bound", [(1000.0, 1e-13), (300.0, 1e-13), (1.0, 3e-13)])
def test_opencavity_rho_near_singular_families(params, block_expm, gamma2, bound):
    eps, gamma1 = 0.0466, 1000.0
    total0 = (1.0 + eps) * (gamma1 + gamma2) + 2.0 * eps * gamma1
    ts = np.linspace(0.0, 500e-6, 51)
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    for d in _NEAR_SINGULAR:
        rates = models.DecayRates.simplified(gamma1, gamma2, eps * gamma1 + d * total0, eps)
        rho = cf.opencavity_rho(rates, eps, params, ts)    # strictly validated
        liou = models.build_liouvillian(models.OpenCavity(rates), params)
        expected = block_expm(liou, rho0, ts)[:, 1:4]
        err = np.max(np.abs(np.diagonal(rho.matrix, axis1=1, axis2=2).real - expected))
        assert err <= bound, d


def test_opencavity_negative_gap_square_takes_the_fallback(params):
    # gamma_b is off eps*gamma2 by 1e-6, inside the simplification's
    # tolerance, and gamma1 - gamma2 = 1e-7: S^2 = -1.8e-13 < 0
    eps, gamma1 = 0.0466, 1000.0
    gamma2 = gamma1 - 1e-7
    gamma3 = (eps * (gamma1 + gamma2) + 1e-6 - 1e-7) / 2.0
    rates = models.DecayRates(gamma1, gamma2, gamma3, eps * gamma1, eps * gamma2 + 1e-6, gamma3)
    assert isinstance(cf.damping_basis(rates).s_value, complex)
    ts = np.linspace(0.0, 500e-6, 11)
    rho = cf.opencavity_rho(rates, eps, params, ts)
    assert rho.note == "fallback"
    pg = cf.opencavity_pg(rates, eps, params, ts)
    assert np.max(np.abs(pg - models.ground_state_probability(rho))) <= 1e-12
    h = np.diag(models.dressed_hamiltonian(params)).real
    trace = np.einsum("i,nii->n", h, rho.matrix).real
    assert np.max(np.abs(cf.energy_mean(rates, eps, params, ts) - trace)) <= 1e-12 * params.omega0


# ---------------------------------------------------------------------------
# open-cavity closed forms
# ---------------------------------------------------------------------------

# the paper's rates (gamma3 = 0.07 g) and a point with gamma1 != gamma2
@pytest.mark.parametrize("g1, g2, g3, eps", [(17.73, 17.73, None, 0.0466),
                                              (330.0, 77.0, 5100.0, 0.21)],
                         ids=["paper", "untied"])
def test_opencavity_initial_condition(params, g1, g2, g3, eps):
    rates = models.DecayRates.simplified(g1, g2, 0.07 * params.g if g3 is None else g3, eps)
    rho = cf.opencavity_rho(rates, eps, params, 0.0)
    assert rho.note is None   # the closed form, not the fallback
    expected = cf.initial_excited_state(Basis.DRESSED).matrix
    assert np.max(np.abs(rho.matrix - expected)) <= 1e-12


def test_opencavity_thermal_equilibrium(params, paper_rates):
    eps = 0.0466
    basis = cf.damping_basis(paper_rates)
    t = 25.0 / min(abs(basis.eigenvalues[1].real), abs(basis.eigenvalues[2].real))
    rho = cf.opencavity_rho(paper_rates, eps, params, t)
    expected = np.diag([eps, eps, 1.0]) / (2 * eps + 1.0)
    assert np.max(np.abs(rho.matrix - expected)) <= 1e-9


def test_opencavity_matches_rk_oracle(params, paper_rates):
    state = _rk_state(models.OpenCavity(paper_rates), params, 25e-6)
    closed = cf.opencavity_rho(paper_rates, 0.0466, params, 25e-6)
    assert np.max(np.abs(closed.matrix - state.matrix)) <= 1e-8


def test_opencavity_pg_pure_dephasing_curve(params):
    # gamma1 = gamma2 = 0 at eps = 0: only the intra-manifold noise remains
    gamma3 = 0.07 * params.g
    rates = models.DecayRates.simplified(0.0, 0.0, gamma3, 0.0)
    for t in (3e-6, 40e-6, 210e-6):
        expected = 0.5 - 0.5 * math.exp(-gamma3 * t / 2.0) * math.cos(2 * params.g * t)
        assert cf.opencavity_pg(rates, 0.0, params, t) == pytest.approx(expected, abs=1e-12)
    state = _rk_state(models.OpenCavity(rates), params, 40e-6)
    assert cf.opencavity_pg(rates, 0.0, params, 40e-6) == pytest.approx(
        models.ground_state_probability(state), abs=1e-8)
    # the state itself requires the fallback (stationary sector degenerates)
    assert cf.opencavity_rho(rates, 0.0, params, 40e-6).note == "fallback"


def test_opencavity_all_rates_zero_is_rabi(params):
    rates = models.DecayRates()
    t = 1.3 / params.g
    assert cf.opencavity_pg(rates, 0.0, params, t) == pytest.approx(
        math.sin(params.g * t) ** 2, abs=1e-9)


def test_opencavity_pg_asymptote_invariant(params, paper_rates):
    eps = 0.0466
    basis = cf.damping_basis(paper_rates)
    t = 10.0 / min(abs(basis.eigenvalues[1].real), abs(basis.eigenvalues[2].real))
    value = cf.opencavity_pg(paper_rates, eps, params, t)
    assert value == pytest.approx(cf.opencavity_pg_asymptote(eps), abs=1e-4)


def test_opencavity_gaussian_profile_changes_phase_only(params, paper_rates, geometry):
    t = 55e-6
    const = cf.opencavity_rho(paper_rates, 0.0466, params, t)
    gauss = cf.opencavity_rho(paper_rates, 0.0466, params, t, geometry=geometry)
    assert np.max(np.abs(np.diag(const.matrix) - np.diag(gauss.matrix))) <= 1e-15
    assert abs(abs(const.matrix[0, 1]) - abs(gauss.matrix[0, 1])) <= 1e-15
    factor = evolve.SQRT_PI * geometry.waist / geometry.diameter
    assert np.angle(gauss.matrix[0, 1] / const.matrix[0, 1]) == pytest.approx(
        (-2 * params.g * factor * t + 2 * params.g * t + math.pi) % (2 * math.pi) - math.pi,
        abs=1e-9)


# gamma1 = gamma2 with gamma3 = eps*gamma1*(1 +- 10^-k) lies next to the
# vanishing gap; gamma2 << gamma1 next to a vanishing stationary normalization
@settings(max_examples=60, deadline=None)
@given(gamma1=_RATE, gamma2=_RATE, gamma3=_RATE, eps=st.floats(0.0, 1.0))
@example(gamma1=1000.0, gamma2=1000.0, gamma3=46.6, eps=0.0466)   # vanishing gap: the fallback
@example(gamma1=1000.0, gamma2=1000.0, gamma3=46.6 * (1.0 + 1e-10), eps=0.0466)
@example(gamma1=1000.0, gamma2=1000.0, gamma3=46.6 * (1.0 - 1e-10), eps=0.0466)
@example(gamma1=1000.0, gamma2=1000.0, gamma3=46.6 * (1.0 + 1e-4), eps=0.0466)
@example(gamma1=3e5, gamma2=3e5, gamma3=0.9 * 3e5 * (1.0 - 1e-7), eps=0.9)
@example(gamma1=1e6, gamma2=0.1, gamma3=0.1, eps=1.0)
@example(gamma1=2e5, gamma2=0.5, gamma3=4.0, eps=0.0466)
@example(gamma1=1000.0, gamma2=0.1, gamma3=46.6, eps=0.0466)
def test_opencavity_curves_match_block_expm(params, block_expm, gamma1, gamma2, gamma3, eps):
    rates = models.DecayRates.simplified(gamma1, gamma2, gamma3, eps)
    liou = models.build_liouvillian(models.OpenCavity(rates), params)
    expected = block_expm(liou, cf.initial_excited_state(Basis.DRESSED), _OBSERVATION_TIMES)
    pg = cf.opencavity_pg(rates, eps, params, _OBSERVATION_TIMES)
    assert np.max(np.abs(pg - expected[:, 0])) <= 1e-13
    energy = cf.energy_mean(rates, eps, params, _OBSERVATION_TIMES)
    h = np.diag(models.dressed_hamiltonian(params)).real
    assert np.max(np.abs(energy - expected[:, 1:4] @ h)) <= 1e-13 * params.omega0


# ---------------------------------------------------------------------------
# mean energy
# ---------------------------------------------------------------------------

def test_energy_equal_rates_curve(params):
    eps, gamma = 0.0466, 17.73
    w0 = params.omega0
    for gamma3 in (0.0, 0.07 * params.g):
        rates = models.DecayRates.simplified(gamma, gamma, gamma3, eps)
        if cf.damping_basis(rates).degenerate:
            continue
        for t in (0.0, 100e-6, 400e-6):
            expected = w0 * (2 * eps + math.exp(-gamma * (2 * eps + 1) * t / 2)) / (2 * eps + 1) - w0 / 2
            assert cf.energy_mean(rates, eps, params, t) == pytest.approx(expected, rel=1e-12)


def test_energy_zero_temperature_single_exponential(params):
    gamma = 44296.6
    rates = models.DecayRates.simplified(gamma, gamma, 0.07 * params.g, 0.0)
    for t in (0.0, 10e-6, 60e-6):
        expected = params.omega0 * math.exp(-gamma * t / 2.0) - params.omega0 / 2.0
        assert cf.energy_mean(rates, 0.0, params, t) == pytest.approx(expected, rel=1e-12)


def test_energy_asymptote(params, paper_rates):
    eps = 0.0466
    basis = cf.damping_basis(paper_rates)
    t = 35.0 / min(abs(basis.eigenvalues[1].real), abs(basis.eigenvalues[2].real))
    value = cf.energy_mean(paper_rates, eps, params, t)
    assert value == pytest.approx(cf.energy_mean_asymptote(eps, params), rel=1e-9)


def test_energy_matches_trace_oracle(params, paper_rates):
    t = 80e-6
    state = _rk_state(models.OpenCavity(paper_rates), params, t)
    h = np.diag(models.dressed_hamiltonian(params)).real
    direct = float(np.real(np.trace(np.diag(h) @ state.matrix)))
    assert cf.energy_mean(paper_rates, 0.0466, params, t) == pytest.approx(direct, rel=1e-9)


def test_energy_degenerate_falls_back_to_trace(params):
    rates = models.DecayRates.simplified(1000.0, 1000.0, 46.6, 0.0466)
    t = 120e-6
    state = _rk_state(models.OpenCavity(rates), params, t)
    h = np.diag(models.dressed_hamiltonian(params)).real
    direct = float(np.real(np.trace(np.diag(h) @ state.matrix)))
    assert cf.energy_mean(rates, 0.0466, params, t) == pytest.approx(direct, rel=1e-8)


# ---------------------------------------------------------------------------
# batched states: an array of times gives the stack of the scalar calls
# ---------------------------------------------------------------------------

# t = 0, where S and D take their limits, tiny times and a grid
_TIMES = np.concatenate([[0.0, 1e-12, 1e-10], np.linspace(1e-7, 300e-6, 157)])
_DEGENERATE = models.DecayRates.simplified(1000.0, 1000.0, 46.6, 0.0466)


def _assert_stack_of_scalar_calls(producer):
    batched = producer(_TIMES)
    singles = [producer(t) for t in _TIMES]
    assert batched.matrix.shape == (len(_TIMES), 3, 3)
    assert batched.basis is singles[0].basis and batched.note == singles[0].note
    # bit for bit, signed zeros included
    assert batched.matrix.tobytes() == np.stack([s.matrix for s in singles]).tobytes()
    return batched


@pytest.mark.parametrize("gamma_over_g, note", [(0.3, None), (4.0, None), (5.0, "hyperbolic")])
def test_phenom_T0_rho_array_equals_scalar_calls(params, gamma_over_g, note):
    gamma = gamma_over_g * params.g
    rho = _assert_stack_of_scalar_calls(lambda t: cf.phenom_T0_rho(params.g, gamma, t))
    assert rho.note == note


@pytest.mark.parametrize("g_scale", [1.0, 0.21])
def test_microscopic_rho_array_equals_scalar_calls(params, g_scale):
    _assert_stack_of_scalar_calls(
        lambda t: cf.microscopic_rho(params.g * g_scale, 300.0, 17.73, t))


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("degenerate", [False, True])
def test_opencavity_rho_array_equals_scalar_calls(params, paper_rates, geometry,
                                                  gaussian, degenerate):
    rates = _DEGENERATE if degenerate else paper_rates
    geom = geometry if gaussian else None
    rho = _assert_stack_of_scalar_calls(
        lambda t: cf.opencavity_rho(rates, 0.0466, params, t, geometry=geom))
    assert rho.note == ("fallback" if degenerate else None)


def test_degenerate_curves_array_equals_scalar_calls(params, geometry):
    for curve in (lambda t: cf.opencavity_pg(_DEGENERATE, 0.0466, params, t, geometry=geometry),
                  lambda t: cf.energy_mean(_DEGENERATE, 0.0466, params, t)):
        batched = curve(_TIMES)
        assert batched.tobytes() == np.array([curve(t) for t in _TIMES]).tobytes()


def test_batched_producers_validate_times(params, paper_rates):
    with pytest.raises(ValidationError):
        cf.opencavity_rho(paper_rates, 0.0466, params, np.array([1e-6, -1e-6]))
    with pytest.raises(ValidationError):
        cf.microscopic_rho(params.g, 1.0, 1.0, np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        cf.phenom_T0_rho(params.g, 1.0, np.array([0.0, -1.0]))


# ---------------------------------------------------------------------------
# exponential sums: the degenerate spectrum and the time check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gaussian", [False, True])
def test_degenerate_sum_equals_fallback_states(params, geometry, gaussian):
    geom = geometry if gaussian else None
    pg = cf.opencavity_pg(_DEGENERATE, 0.0466, params, _TIMES, geometry=geom)
    states = cf._fallback_rho(_DEGENERATE, params, _TIMES, geom)
    assert np.max(np.abs(pg - models.ground_state_probability(states))) <= 1e-12
    h = np.diag(models.dressed_hamiltonian(params)).real
    energy = cf.energy_mean(_DEGENERATE, 0.0466, params, _TIMES)
    trace = np.einsum("i,nii->n", h, cf._fallback_rho(_DEGENERATE, params, _TIMES, None).matrix)
    assert np.max(np.abs(energy - trace.real)) <= 1e-12 * params.omega0


@pytest.mark.parametrize("gaussian", [False, True])
def test_degenerate_coherence_is_exact(params, geometry, gaussian):
    # -1/2 e^{-Gamma t} e^{-2ig't}: Gamma = (gamma1 + gamma2 + 2 gamma3)/4, and g' is
    # g sqrt(pi) w/d under the Gaussian profile
    ts = np.linspace(0.0, 500e-6, 501)
    rho = cf.opencavity_rho(_DEGENERATE, 0.0466, params, ts, geometry if gaussian else None)
    g = params.g * math.sqrt(math.pi) * geometry.waist / geometry.diameter if gaussian else params.g
    exact = -0.5 * np.exp(-(2000.0 + 2 * 46.6) / 4.0 * ts) * np.exp(-2j * g * ts)
    assert rho.note == "fallback"
    assert np.max(np.abs(rho.matrix[:, 0, 1] - exact)) <= 1e-15


@pytest.mark.parametrize("rates", [_DEGENERATE, None], ids=["degenerate", "paper"])
@pytest.mark.parametrize("curve", [
    lambda r, p, g, t: cf.opencavity_pg(r, 0.0466, p, t),
    lambda r, p, g, t: cf.energy_mean(r, 0.0466, p, t),
    lambda r, p, g, t: dephase.convolve_pg(r, 0.0466, p, g, 2e-6, t),
    lambda r, p, g, t: dephase.convolve_energy(r, 0.0466, p, 2e-6, t),
    lambda r, p, g, t: cf.microscopic_pg(p.g, r.gamma1, r.gamma2, t),
], ids=["pg", "energy", "convolve_pg", "convolve_energy", "microscopic_pg"])
@pytest.mark.parametrize("t", [-1e-5, np.array([0.0, 1e-6, -1e-6])], ids=["scalar", "array"])
def test_curves_reject_negative_times(params, paper_rates, geometry, rates, curve, t):
    with pytest.raises(ValidationError, match="^t must be >= 0$"):
        curve(rates or paper_rates, params, geometry, t)
