import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabicav import closed_form as cf
from rabicav.core import Basis, DensityMatrix, ValidationError
from rabicav.evolve import CavityGeometry
from rabicav.models import (
    DecayRates, Microscopic, OpenCavity, PhenomT, PhenomT0, PhysicalParams,
    build_liouvillian, coupling_superop, dressed_transform, kms_ratio, thermal_occupation, vec,
)
from conftest import random_density


def test_kms_paper_value(params):
    assert kms_ratio(params.omega0, params) == pytest.approx(0.0466327, abs=1e-5)


def test_kms_sideband_values(params):
    hi = kms_ratio(params.omega0 + params.g, params)
    lo = kms_ratio(params.omega0 - params.g, params)
    assert hi == pytest.approx(0.0466327, abs=1e-6)
    assert lo == pytest.approx(0.0466328, abs=1e-6)
    assert 0.0 < lo - hi < 3e-7


def test_kms_limits(params):
    hot = PhysicalParams(temperature=1e9)
    assert kms_ratio(params.omega0, hot) == pytest.approx(1.0, abs=1e-4)
    for temperature in (0.0, 1e-320):   # k*T underflows to 0 below about 7e-301 K
        cold = PhysicalParams(temperature=temperature)
        assert kms_ratio(params.omega0, cold) == 0.0


def test_thermal_occupation_paper_values(params):
    assert thermal_occupation(params.omega0, params) == pytest.approx(0.05, abs=0.005)
    assert thermal_occupation(2 * params.g, params) == pytest.approx(354666, abs=50)
    for temperature in (0.0, 1e-320):
        cold = PhysicalParams(temperature=temperature)
        assert thermal_occupation(params.omega0, cold) == 0.0
    with pytest.raises(ValidationError):
        thermal_occupation(-1.0, params)


def test_rate_validation():
    with pytest.raises(ValidationError):
        PhenomT0(-1.0)
    with pytest.raises(ValidationError):
        DecayRates(gamma_c=-0.1)
    with pytest.raises(ValidationError):
        PhysicalParams(g=0.0)


_NON_FINITE_CHECKS = {
    "omega0": lambda x: PhysicalParams(omega0=x),
    "g": lambda x: PhysicalParams(g=x),
    "temperature": lambda x: PhysicalParams(temperature=x),
    "gamma1": lambda x: DecayRates(gamma1=x),
    "gamma_c": lambda x: DecayRates(gamma_c=x),
    "phenom-t0": PhenomT0,
    "phenom-t-down": lambda x: PhenomT(x, 0.0),
    "phenom-t-up": lambda x: PhenomT(0.0, x),
    "microscopic-1": lambda x: Microscopic(x, 0.0),
    "microscopic-2": lambda x: Microscopic(0.0, x),
    "waist": lambda x: CavityGeometry(waist=x, diameter=50e-3),
    "diameter": lambda x: CavityGeometry(waist=5.96e-3, diameter=x),
    "smeared": lambda x: cf.ExpSum(1.0, np.array([-0.5]), np.array([-1e3])).smeared(x, 1e-6),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("check", _NON_FINITE_CHECKS)
def test_non_finite_inputs_are_validation_errors(check, value):
    with pytest.raises(ValidationError):
        _NON_FINITE_CHECKS[check](value)


def test_detailed_balance_constructor_exact(params):
    kind = PhenomT.from_temperature(123.0, params)
    assert kind.gamma_up == 123.0 * kms_ratio(params.omega0, params)


def _index(i, j):
    # column-stacked coordinate of rho_ij
    return i + 3 * j


def _expected_superop(terms):
    mat = np.zeros((9, 9), dtype=complex)
    for (i, j), sources in terms.items():
        for (k, l), coeff in sources.items():
            mat[_index(i, j), _index(k, l)] = coeff
    return mat


def _phenom_dissipator_terms(g, gdn, gup):
    # drift terms of the component equations with the -i[H, .] part removed
    return {
        (1, 1): {(1, 1): -gdn, (2, 2): gup},
        (0, 1): {(0, 1): -gdn / 2},
        (1, 0): {(1, 0): -gdn / 2},
        (2, 2): {(1, 1): gdn, (2, 2): -gup},
        (0, 2): {(0, 2): -gup / 2},
        (1, 2): {(1, 2): -(gdn + gup) / 2},
        (2, 0): {(2, 0): -gup / 2},
        (2, 1): {(2, 1): -(gdn + gup) / 2},
    }


def _split_check(liou, params, dissipator_terms, rate_scale):
    """liou == g*L1 + dissipator, each part compared at its own scale."""
    actual_diss = liou.matrix - params.g * coupling_superop(liou.basis)
    expected_diss = _expected_superop(dissipator_terms)
    assert np.max(np.abs(actual_diss - expected_diss)) <= 1e-12 * max(rate_scale, 1.0)


def test_phenom_t0_matches_component_equations(params):
    gamma = 0.3 * params.g
    liou = build_liouvillian(PhenomT0(gamma), params)
    _split_check(liou, params, _phenom_dissipator_terms(params.g, gamma, 0.0), gamma)


def test_phenom_t_matches_component_equations(params):
    kind = PhenomT.from_temperature(0.3 * params.g, params)
    liou = build_liouvillian(kind, params)
    _split_check(liou, params, _phenom_dissipator_terms(params.g, kind.gamma_down, kind.gamma_up),
                 kind.gamma_down)


def test_phenom_hamiltonian_coupling_terms(params):
    # g*L1 alone reproduces the ig couplings of the equations
    ig = 1j * params.g
    terms = {
        (0, 0): {(0, 1): ig, (1, 0): -ig},
        (1, 1): {(0, 1): -ig, (1, 0): ig},
        (0, 1): {(0, 0): ig, (1, 1): -ig},
        (1, 0): {(0, 0): -ig, (1, 1): ig},
        (0, 2): {(1, 2): -ig},
        (1, 2): {(0, 2): -ig},
        (2, 0): {(2, 1): ig},
        (2, 1): {(2, 0): ig},
    }
    assert np.array_equal(params.g * coupling_superop(Basis.BARE), _expected_superop(terms))


def test_phenom_t_reduces_to_t0(params):
    a = build_liouvillian(PhenomT(0.3 * params.g, 0.0), params)
    b = build_liouvillian(PhenomT0(0.3 * params.g), params)
    assert np.array_equal(a.matrix, b.matrix)


def test_microscopic_matches_component_equations(params):
    g1, g2 = 0.1 * params.g, 0.05 * params.g
    liou = build_liouvillian(Microscopic(g1, g2), params)
    terms = {
        (0, 0): {(0, 0): -g1 / 2},
        (1, 1): {(1, 1): -g2 / 2},
        (2, 2): {(0, 0): g1 / 2, (1, 1): g2 / 2},
        (0, 1): {(0, 1): -(g1 + g2) / 4},
        (0, 2): {(0, 2): -g1 / 4},
        (1, 2): {(1, 2): -g2 / 4},
        (1, 0): {(1, 0): -(g1 + g2) / 4},
        (2, 0): {(2, 0): -g1 / 4},
        (2, 1): {(2, 1): -g2 / 4},
    }
    _split_check(liou, params, terms, g1)
    # the dressed phases carry the rotating-frame Bohr frequencies 2g, g and -g, exactly
    g = params.g
    for coord, freq in (((0, 1), 2 * g), ((0, 2), g), ((1, 2), -g)):
        k = _index(*coord)
        assert liou.matrix[k, k].imag == -freq


def test_open_cavity_reduces_to_microscopic(params):
    rates = DecayRates(gamma1=11.0, gamma2=7.0)
    a = build_liouvillian(OpenCavity(rates), params)
    b = build_liouvillian(Microscopic(11.0, 7.0), params)
    assert np.array_equal(a.matrix, b.matrix)


def test_unitary_limit_is_pure_commutator(params):
    liou = build_liouvillian(PhenomT0(0.0), params)
    rng = np.random.default_rng(7)
    rho = random_density(rng)
    h = params.g * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])   # g*sigma, bare basis
    expected = -1j * (h @ rho - rho @ h)
    assert np.max(np.abs(liou.apply(rho) - expected)) <= 1e-14 * params.g


def test_population_feed_example(params):
    gamma = 0.3 * params.g
    liou = build_liouvillian(PhenomT0(gamma), params)
    unit = np.zeros((3, 3), dtype=complex)
    unit[1, 1] = 1.0  # |g,1><g,1|
    out = liou.apply(unit)
    assert out[1, 1] == pytest.approx(-gamma)
    assert out[2, 2] == pytest.approx(gamma)


def _all_kinds(params):
    return [
        PhenomT0(0.3 * params.g),
        PhenomT.from_temperature(0.3 * params.g, params),
        Microscopic(0.1 * params.g, 0.05 * params.g),
        OpenCavity(DecayRates.simplified(17.73, 11.0, 0.07 * params.g, 0.0466)),
    ]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_trace_and_hermiticity_preservation(seed):
    params = PhysicalParams()
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    for kind in _all_kinds(params):
        liou = build_liouvillian(kind, params)
        out = liou.apply(rho)
        scale = np.max(np.abs(liou.matrix)) * np.max(np.abs(rho))
        assert abs(np.trace(out)) <= 1e-12 * scale
        herm = liou.apply(rho.conj().T)
        assert np.max(np.abs(out.conj().T - herm)) <= 1e-12 * scale


def test_generators_do_not_depend_on_omega0(params):
    doubled = replace(params, omega0=2.0 * params.omega0)
    for kind in _all_kinds(params):
        assert np.array_equal(*(build_liouvillian(kind, p).matrix for p in (params, doubled))), kind
    rates = DecayRates.simplified(17.73, 11.0, 0.07 * params.g, 0.0466)
    assert np.array_equal(*(cf.damping_basis(rates, p).eigenvalues for p in (params, doubled)))


def test_trace_row_is_zero(params):
    tau = vec(np.eye(3, dtype=complex))
    for kind in _all_kinds(params):
        liou = build_liouvillian(kind, params)
        row = tau @ liou.matrix
        assert np.max(np.abs(row)) <= 1e-12 * np.max(np.abs(liou.matrix))


def test_dressed_transform_initial_condition():
    bare = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex), Basis.BARE)
    dressed = dressed_transform(bare, Basis.DRESSED)
    expected = 0.5 * np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 0]], dtype=complex)
    assert np.max(np.abs(dressed.matrix - expected)) <= 1e-15


def test_dressed_transform_ground_state_fixed():
    bare = DensityMatrix(np.diag([0.0, 0.0, 1.0]).astype(complex), Basis.BARE)
    dressed = dressed_transform(bare, Basis.DRESSED)
    assert np.max(np.abs(dressed.matrix - np.diag([0.0, 0.0, 1.0]))) == 0.0


def test_dressed_transform_round_trip():
    rng = np.random.default_rng(3)
    rho = DensityMatrix(random_density(rng), Basis.BARE)
    back = dressed_transform(dressed_transform(rho, Basis.DRESSED), Basis.BARE)
    assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-14
    spec_a = np.linalg.eigvalsh(rho.matrix)
    spec_b = np.linalg.eigvalsh(dressed_transform(rho, Basis.DRESSED).matrix)
    assert np.max(np.abs(spec_a - spec_b)) <= 1e-12


def test_dressed_transform_rejects_same_basis():
    rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex), Basis.BARE)
    with pytest.raises(ValidationError):
        dressed_transform(rho, Basis.BARE)
