import math

import numpy as np
import pytest

from rabicav import davies, models
from rabicav.core import ValidationError

SQRT2 = math.sqrt(2.0)


def _find(ops, omega):
    for op in ops:
        if abs(op.bohr_frequency - omega) <= 1e-9 * max(abs(omega), 1.0):
            return op
    raise KeyError(omega)


def test_lowest_manifold_coefficient(params):
    alpha = 0.8
    ops = davies.davies_decompose(alpha, 0.3, 2, params)
    op = _find(ops, params.omega0 + params.g)
    # A(O1+ - O0) = (alpha/sqrt2) |O0><O1+|
    expected = np.zeros((5, 5), dtype=complex)
    expected[2, 0] = alpha / SQRT2
    assert np.max(np.abs(op.operator - expected)) <= 1e-15


def test_second_manifold_coefficients(params):
    alpha = 1.0
    ops = davies.davies_decompose(alpha, 0.0, 2, params)
    # A(O2+ - O1+) = (alpha/2)(sqrt2 + 1) |O1+><O2+|, Bohr freq w0 + (sqrt2-1) g
    plus_plus = _find(ops, params.omega0 + (SQRT2 - 1.0) * params.g)
    assert plus_plus.operator[0, 3] == pytest.approx((SQRT2 + 1.0) / 2.0, rel=1e-14)
    # A(O2+ - O1-) = (alpha/2)(sqrt2 - 1) |O1-><O2+|, Bohr freq w0 + (sqrt2+1) g
    plus_minus = _find(ops, params.omega0 + (SQRT2 + 1.0) * params.g)
    assert plus_minus.operator[1, 3] == pytest.approx((SQRT2 - 1.0) / 2.0, rel=1e-14)


def test_intra_manifold_coefficient(params):
    beta = 0.6
    ops = davies.davies_decompose(0.0, beta, 2, params)
    op = _find(ops, 2.0 * params.g)
    # A(O1+ - O1-) = (beta/2) |O1-><O1+|
    assert op.operator[1, 0] == pytest.approx(beta / 2.0, rel=1e-14)
    assert np.count_nonzero(op.operator) == 1


def test_negative_frequency_operators_are_adjoints(params):
    ops = davies.davies_decompose(1.0, 1.0, 3, params)
    for op in ops:
        if op.bohr_frequency <= 0.0:
            continue
        partner = _find(ops, -op.bohr_frequency)
        assert np.array_equal(partner.operator, op.operator.conj().T)


def test_commutation_relation(params):
    ops = davies.davies_decompose(1.0, 1.0, 3, params)
    h = davies.ladder_hamiltonian(3, params)
    for op in ops:
        defect = h @ op.operator - op.operator @ h + op.bohr_frequency * op.operator
        scaled = np.max(np.abs(defect)) / (1.0 + abs(op.bohr_frequency))
        assert scaled <= 1e-10


def test_decomposition_reconstructs_coupling(params):
    alpha, beta, n_max = 0.9, 0.4, 3
    ops = davies.davies_decompose(alpha, beta, n_max, params)
    a, number, u, _ = davies._ladder(n_max, params)
    coupling = alpha * (a + a.conj().T) + beta * np.diag(number).astype(complex)
    dressed = u.conj().T @ coupling @ u
    total = sum(op.operator for op in ops)
    assert np.array_equal(total, dressed)


def test_generator_equivalence_zero_temperature(params):
    w0, g = params.omega0, params.g
    weights = davies.SpectralWeights({w0 + g: 1.3, w0 - g: 0.7, 2 * g: 2.0}, 0.0)
    ops = davies.davies_decompose(1.0, 1.0, 3, params)
    built = davies.assemble_generator(ops, weights, params)
    mapped = models.DecayRates(gamma1=1.3, gamma2=0.7, gamma3=1.0)
    target = models.build_liouvillian(models.OpenCavity(mapped), params)
    assert np.max(np.abs(built.matrix - target.matrix)) <= 1e-12


def test_generator_equivalence_finite_temperature(params):
    w0, g = params.omega0, params.g
    weights = davies.SpectralWeights({w0 + g: 1.3, w0 - g: 0.7, 2 * g: 2.0},
                                     params.temperature)
    ops = davies.davies_decompose(1.0, 1.0, 2, params)
    built = davies.assemble_generator(ops, weights, params)
    mapped = models.DecayRates.kms(1.3, 0.7, 1.0, params)
    target = models.build_liouvillian(models.OpenCavity(mapped), params)
    assert np.max(np.abs(built.matrix - target.matrix)) <= 1e-12


def test_generator_equivalence_paper_scale_rates(params):
    # paper-scale rates compared at a relative budget (entries ~ 1e4)
    w0, g = params.omega0, params.g
    g3 = 0.07 * params.g
    weights = davies.SpectralWeights({w0 + g: 17.73, w0 - g: 17.73, 2 * g: 2 * g3}, 0.8)
    ops = davies.davies_decompose(1.0, 1.0, 2, params)
    built = davies.assemble_generator(ops, weights, params)
    mapped = models.DecayRates.kms(17.73, 17.73, g3, params)
    target = models.build_liouvillian(models.OpenCavity(mapped), params)
    assert np.max(np.abs(built.matrix - target.matrix)) <= 1e-12 * mapped.total


def test_alpha_zero_keeps_only_intra_manifold(params):
    ops = davies.davies_decompose(0.0, 1.0, 2, params)
    weights = davies.SpectralWeights({2 * params.g: 2.0}, 0.0)
    built = davies.assemble_generator(ops, weights, params)
    target = models.build_liouvillian(
        models.OpenCavity(models.DecayRates(gamma3=1.0)), params)
    assert np.max(np.abs(built.matrix - target.matrix)) <= 1e-12


def test_beta_zero_reduces_to_closed_cavity_model(params):
    w0, g = params.omega0, params.g
    ops = davies.davies_decompose(1.0, 0.0, 2, params)
    weights = davies.SpectralWeights({w0 + g: 1.3, w0 - g: 0.7}, 0.0)
    built = davies.assemble_generator(ops, weights, params)
    target = models.build_liouvillian(models.Microscopic(1.3, 0.7), params)
    assert np.max(np.abs(built.matrix - target.matrix)) <= 1e-12


def test_missing_weight_raises(params):
    ops = davies.davies_decompose(1.0, 1.0, 2, params)
    weights = davies.SpectralWeights({params.omega0 + params.g: 1.0}, 0.0)
    with pytest.raises(ValidationError):
        davies.assemble_generator(ops, weights, params)


def test_weights_validation():
    with pytest.raises(ValidationError):
        davies.SpectralWeights({-1.0: 0.5}, 0.0)
    with pytest.raises(ValidationError):
        davies.SpectralWeights({1.0: -0.5}, 0.0)
    w = davies.SpectralWeights({1.0: 0.5}, 0.0)
    assert w.rate(0.0) == 0.0
    assert w.rate(-1.0) == 0.0  # T = 0: no upward jumps


@pytest.mark.parametrize("weight", [math.inf, math.nan])
def test_weights_must_be_finite(weight):
    with pytest.raises(ValidationError, match="finite"):
        davies.SpectralWeights({1.0: weight}, 0.8)


def test_kms_pairing_exact(params):
    w = davies.SpectralWeights({1e9: 2.0}, 0.8)
    expected = 2.0 * math.exp(-models.HBAR * 1e9 / (models.K_B * 0.8))
    assert w.rate(-1e9) == expected


def test_nmax_validation(params):
    with pytest.raises(ValidationError):
        davies.davies_decompose(1.0, 1.0, 0, params)
