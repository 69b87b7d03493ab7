"""Separability of the evolving atom-photon state via partial transposition.

The three-level state is embedded into the full 2x2 product space (adding
the never-populated |e,1> level), partially transposed, and its spectrum
examined: the single non-positive eigenvalue is the entanglement witness,
and its magnitude is controlled by the bare coherence <e,0|rho|g,1>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Basis, DensityMatrix, ValidationError, hermitian_eigen, partial_transpose
from .closed_form import _phase_coupling, opencavity_rho
from .evolve import CavityGeometry
from .models import DecayRates, PhysicalParams, dressed_transform

# Entries a 3-level state embedded by :func:`embed4` may fill.
_SPARSE_PATTERN = np.zeros((4, 4), dtype=bool)
_SPARSE_PATTERN[[1, 2, 3, 1, 2], [1, 2, 3, 2, 1]] = True


def embed4(rho3: DensityMatrix) -> DensityMatrix:
    """Embed a 3-level bare state (or stack) into the 4-level product space.

    The |e,1> row and column are zero; the trace is preserved exactly.
    """
    if rho3.basis is not Basis.BARE:
        raise ValidationError("embed4 expects a 3-level state in the BARE basis")
    m = np.zeros(rho3.matrix.shape[:-2] + (4, 4), dtype=complex)
    m[..., 1:, 1:] = rho3.matrix
    return DensityMatrix(m, Basis.BARE4, rho3.note)


def ppt_spectrum(rho4: DensityMatrix) -> np.ndarray:
    """Eigenvalues of the partially transposed 4x4 state, shape ``(..., 4)``.

    For states with the embedded sparsity pattern (only the |e,0>/|g,1>
    block and the |g,0> population filled) the spectrum is known in closed
    form and is returned in that labeling: the two populations, then the
    +/- pair built from the |g,0> population and the coherence magnitude;
    the last entry is always <= 0 and vanishes iff the coherence does.
    Inputs without the pattern fall back to a full numeric eigensolve of the
    partial transpose (eigenvalues returned descending).  A stack gives one
    row per member.
    """
    m = rho4.matrix.reshape(-1, 4, 4)
    magnitude = np.abs(m)
    scale = np.maximum(1.0, magnitude.max(axis=(1, 2)))
    sparse = magnitude[:, ~_SPARSE_PATTERN].max(axis=1) <= 1e-12 * scale
    p00 = m[:, 3, 3].real
    root = np.hypot(p00, 2.0 * np.abs(m[:, 1, 2]))
    spec = np.stack([m[:, 2, 2].real, m[:, 1, 1].real,
                     0.5 * (p00 + root), 0.5 * (p00 - root)], axis=-1)
    for i in np.flatnonzero(~sparse):
        spec[i], _ = hermitian_eigen(partial_transpose(m[i]))
    return spec.reshape(rho4.matrix.shape[:-2] + (4,))


@dataclass(frozen=True)
class CoherenceResult:
    """Bare coherence <e,0|rho(t)|g,1> with the printed-formula comparison.

    ``value`` comes from the density-matrix solution (authoritative);
    ``formula_value`` evaluates the single-line closed-form expression, whose
    real part and sine-term decay rate are known to disagree with the
    solution; ``deviation`` is their absolute difference.
    """

    value: complex
    formula_value: complex
    deviation: float


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


def coherence_e0_g1(rates: DecayRates, eps: float, params: PhysicalParams,
                    t: float, geometry: CavityGeometry | None = None) -> CoherenceResult:
    """Bare coherence of the open-cavity state, with the formula comparison.

    Ground truth is the damping-basis (or fallback) solution transformed to
    the bare basis; it vanishes at the oscillation nodes exactly when
    gamma1 == gamma2 kills the real part.
    """
    rho_d = opencavity_rho(rates, eps, params, t, geometry=geometry)
    rho_b = dressed_transform(rho_d, Basis.BARE)
    value = complex(rho_b.matrix[0, 1])
    formula = coherence_formula(rates.gamma1, rates.gamma2, rates.gamma3,
                                _phase_coupling(params, geometry), t)
    return CoherenceResult(value, formula, abs(value - formula))
