import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabicav import closed_form as cf
from rabicav import entangle, evolve, models
from rabicav.core import Basis, DensityMatrix, ValidationError, hermitian_eigen, partial_transpose
from conftest import random_density


def _bare_state(rates, eps, params, t, geometry=None):
    return models.dressed_transform(
        cf.opencavity_rho(rates, eps, params, t, geometry=geometry), Basis.BARE)


def _coherence(rates, eps, params, t, geometry=None) -> complex:
    """The bare coherence <e,0|rho|g,1>, read as the entangle command reads it."""
    return complex(_bare_state(rates, eps, params, t, geometry).matrix[0, 1])


def coherence_formula(gamma1: float, gamma2: float, gamma3: float,
                      g: float, t: float) -> complex:
    """Single-line closed-form expression for the bare coherence.

    Kept only as a comparison target: its sine term decays with gamma3
    counted once and its real part does not vanish for gamma1 == gamma2,
    both in conflict with the damping-basis solution.
    """
    y = gamma1 - gamma2 + gamma3
    frac = -t / 2.0 if y == 0.0 else math.expm1(-y * t / 2.0) / y
    re = 0.25 * math.exp(-gamma2 * t / 2.0) * (gamma1 - gamma2 + 2.0 * gamma3) * frac
    im = 0.5 * math.exp(-(gamma1 + gamma2 + gamma3) * t / 4.0) * math.sin(2.0 * g * t)
    return complex(re, im)


def _brute_spectrum(rho3: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the partial transpose of a 3-level bare
    state embedded, with an empty |e,1> level, in the 4x4 product space."""
    m4 = np.zeros((4, 4), dtype=complex)
    m4[1:, 1:] = rho3
    return hermitian_eigen(partial_transpose(m4))[0]


def _dense_state(seed: int = 5) -> np.ndarray:
    # a 3-level state with |g,0> coherences, outside the closed form's pattern
    return random_density(np.random.default_rng(seed), 3)


def test_ppt_spectrum_of_the_ground_state():
    rho3 = DensityMatrix(np.diag([0.0, 0.0, 1.0]).astype(complex), Basis.BARE)
    assert np.array_equal(entangle.ppt_spectrum(rho3), [0.0, 0.0, 1.0, 0.0])


def test_ppt_spectrum_of_the_initial_state(params, paper_rates):
    spec = entangle.ppt_spectrum(_bare_state(paper_rates, 0.0466, params, 0.0))
    assert spec[1] == pytest.approx(1.0, abs=1e-12)       # |e,0> population
    assert spec[2] == pytest.approx(0.0, abs=1e-12)       # |g,0> empty at t = 0
    assert spec[0] == pytest.approx(0.0, abs=1e-12)       # |g,1> empty at t = 0
    assert math.fsum(spec) == pytest.approx(1.0, abs=1e-12)   # |e,1> adds nothing


def test_ppt_spectrum_rejects_dressed_input(params, paper_rates):
    rho_d = cf.opencavity_rho(paper_rates, 0.0466, params, 0.0)
    with pytest.raises(ValidationError):
        entangle.ppt_spectrum(rho_d)


def test_ppt_product_state_is_separable(params, paper_rates):
    spec = entangle.ppt_spectrum(_bare_state(paper_rates, 0.0466, params, 0.0))
    assert spec[3] == pytest.approx(0.0, abs=1e-12)


def test_ppt_lossless_quarter_period(params):
    # all rates zero at t = pi/(4g): maximally entangled in the block
    rates = models.DecayRates()
    t = math.pi / (4.0 * params.g)
    rho_b = _bare_state(rates, 0.0, params, t)
    spec = entangle.ppt_spectrum(rho_b)
    assert spec[3] == pytest.approx(-0.5, abs=1e-9)
    brute = _brute_spectrum(rho_b.matrix)
    assert np.max(np.abs(np.sort(np.asarray(spec)) - np.sort(brute))) <= 1e-10


def test_ppt_closed_form_matches_brute_force(params, paper_rates):
    for t in (7e-6, 31e-6, 80e-6):
        rho_b = _bare_state(paper_rates, 0.0466, params, t)
        spec = entangle.ppt_spectrum(rho_b)
        brute = _brute_spectrum(rho_b.matrix)
        assert np.max(np.abs(np.sort(np.asarray(spec)) - np.sort(brute))) <= 1e-10
        assert spec[3] <= 1e-12


def test_ppt_dense_input_falls_back_to_eigensolve():
    m = _dense_state()
    spec = entangle.ppt_spectrum(DensityMatrix(m, Basis.BARE))
    brute = _brute_spectrum(m)
    assert np.allclose(spec, brute, atol=1e-12)
    assert all(spec[i] >= spec[i + 1] for i in range(3))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), pattern=st.booleans())
def test_ppt_spectrum_matches_the_raw_partial_transpose(seed, pattern):
    m = _dense_state(seed)
    if pattern:   # only the |e,0>/|g,1> block and the |g,0> population
        m[:2, 2] = m[2, :2] = 0.0
    spec = entangle.ppt_spectrum(DensityMatrix(m, Basis.BARE))
    m4 = np.zeros((4, 4), dtype=complex)
    m4[1:, 1:] = m
    brute = np.linalg.eigvalsh(partial_transpose(m4))
    assert np.max(np.abs(np.sort(spec) - brute)) <= 1e-12


def test_ppt_witness_tracks_coherence(params, paper_rates):
    # lambda4 = 0 exactly when the |e,0><g,1| coherence vanishes
    for t in (5e-6, 40e-6):
        rho_b = _bare_state(paper_rates, 0.0466, params, t)
        spec = entangle.ppt_spectrum(rho_b)
        coh = abs(rho_b.matrix[0, 1])
        if coh > 1e-6:
            assert spec[3] < 0.0
        stripped = rho_b.matrix.copy()
        stripped[0, 1] = stripped[1, 0] = 0.0
        spec0 = entangle.ppt_spectrum(DensityMatrix(stripped, Basis.BARE))
        assert spec0[3] == pytest.approx(0.0, abs=1e-15)


def test_coherence_lossless_is_pure_sine(params):
    rates = models.DecayRates()
    for t in (0.4 / params.g, 2.2 / params.g):
        value = _coherence(rates, 0.0, params, t)
        expected = 0.5j * math.sin(2.0 * params.g * t)
        assert value == pytest.approx(expected, abs=1e-9)


def test_coherence_matches_rk_oracle(params, paper_rates):
    t = 10e-6
    liou = models.build_liouvillian(models.OpenCavity(paper_rates), params)
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    traj = evolve.integrate(liou, rho0, t, rtol=1e-12, atol=1e-14)
    rho_b = models.dressed_transform(traj.states[-1], Basis.BARE)
    value = _coherence(paper_rates, 0.0466, params, t)
    assert abs(value - rho_b.matrix[0, 1]) <= 1e-8


def test_coherence_real_part_vanishes_iff_equal_rates(params):
    g3 = 0.07 * params.g
    equal = models.DecayRates.simplified(300.0, 300.0, g3, 0.0466)
    node = math.pi / (2.0 * params.g)  # sin(2 g t) = 0
    assert abs(_coherence(equal, 0.0466, params, node)) <= 1e-10
    # gamma1 != gamma2 leaves a real part even where the sine vanishes, and
    # even when the combination gamma1 - gamma2 + 2*gamma3 is tuned to zero
    unequal = models.DecayRates.simplified(300.0, 300.0 + 2.0 * g3, g3, 0.0466)
    assert abs(_coherence(unequal, 0.0466, params, node)) > 1e-7
    assert abs(coherence_formula(unequal.gamma1, unequal.gamma2,
                                 unequal.gamma3, params.g, node)) <= 1e-15


def test_coherence_formula_deviation_reported(params, paper_rates):
    # the printed expression decays its sine term with gamma3 counted once;
    # the solution counts it twice, so the two drift apart measurably
    t = 40e-6
    value = _coherence(paper_rates, 0.0466, params, t)
    gamma4 = (paper_rates.gamma1 + paper_rates.gamma2 + 2 * paper_rates.gamma3) / 4.0
    assert abs(value.imag) == pytest.approx(
        0.5 * math.exp(-gamma4 * t) * abs(math.sin(2 * params.g * t)), rel=1e-6)
    formula = coherence_formula(paper_rates.gamma1, paper_rates.gamma2, paper_rates.gamma3,
                                params.g, t)
    assert abs(value - formula) > 1e-3


def test_coherence_gaussian_profile_phase(params, paper_rates, geometry):
    t = 25e-6
    value = _coherence(paper_rates, 0.0466, params, t, geometry)
    g_eff = params.g * evolve.SQRT_PI * geometry.waist / geometry.diameter
    gamma4 = (paper_rates.gamma1 + paper_rates.gamma2 + 2 * paper_rates.gamma3) / 4.0
    assert value.imag == pytest.approx(
        0.5 * math.exp(-gamma4 * t) * math.sin(2 * g_eff * t), rel=1e-9)


def test_stacked_helpers_equal_per_member_calls(params, paper_rates, geometry):
    ts = np.linspace(0.0, 80e-6, 41)
    rho_d = cf.opencavity_rho(paper_rates, 0.0466, params, ts, geometry=geometry)
    rho_b = models.dressed_transform(rho_d, Basis.BARE)
    spec = entangle.ppt_spectrum(rho_b)
    assert spec.shape == (len(ts), 4)
    for i, t in enumerate(ts):
        one_d = cf.opencavity_rho(paper_rates, 0.0466, params, t, geometry=geometry)
        one_b = models.dressed_transform(one_d, Basis.BARE)
        assert rho_b.matrix[i].tobytes() == one_b.matrix.tobytes()
        assert spec[i].tobytes() == entangle.ppt_spectrum(one_b).tobytes()
        assert models.ground_state_probability(rho_d)[i] == models.ground_state_probability(one_d)
        assert models.ground_state_probability(rho_b)[i] == models.ground_state_probability(one_b)


def test_ppt_stack_with_a_dense_member():
    dense = _dense_state()
    sparse = np.diag([0.5, 0.2, 0.3]).astype(complex)
    sparse[0, 1], sparse[1, 0] = 0.1j, -0.1j
    spec = entangle.ppt_spectrum(DensityMatrix(np.stack([sparse, dense]), Basis.BARE))
    for row, m in zip(spec, (sparse, dense)):
        assert row.tobytes() == entangle.ppt_spectrum(DensityMatrix(m, Basis.BARE)).tobytes()
    brute = _brute_spectrum(dense)
    assert np.allclose(spec[1], brute, atol=1e-12)
