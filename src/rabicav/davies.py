"""Jump operators of the coupled atom-field ladder and the generator they imply.

The system-reservoir coupling A = alpha*(a + a+) + beta*a+a is decomposed
into eigenoperators A(w) of the dressed-state Hamiltonian's adjoint action,
one per Bohr frequency w, on a ladder truncated at n_max excitations.  The
alpha part connects neighboring excitation manifolds; the beta part (photon
-number-sensitive coupling) produces the intra-manifold transitions that the
open-cavity model postulates.  Assembling the standard weak-coupling
generator from these operators, restricted to the lowest manifold, must
reproduce the postulated open-cavity generator entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Basis, ValidationError
from .models import (
    Liouvillian, PhysicalParams, boltzmann_exponent, coupling_superop, dissipator_superop,
)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class DaviesOperator:
    """One eigenoperator of the dressed Hamiltonian's adjoint action.

    Satisfies [H, A(w)] = -w A(w) on the truncated ladder, with
    A(-w) = A(w)+.  The matrix lives on the truncated dressed space ordered
    (O1+, O1-, O0, O2+, O2-, ...).
    """

    bohr_frequency: float
    operator: np.ndarray


@dataclass(frozen=True)
class SpectralWeights:
    """Reservoir spectral weights gamma(w) >= 0 with thermal pairing.

    Only strictly positive frequencies are stored; gamma(0) = 0 always, and
    gamma(-w) = exp(-hbar*w/kT) * gamma(w) by construction (zero at T = 0).
    """

    weights: dict[float, float]
    temperature: float

    def __post_init__(self):
        for w, g in self.weights.items():
            if w <= 0:
                raise ValidationError("spectral weights are keyed by positive frequencies")
            if not 0.0 <= g < math.inf:
                raise ValidationError("spectral weights must be finite and >= 0")
        if self.temperature < 0:
            raise ValidationError("temperature must be >= 0")

    def rate(self, omega: float) -> float:
        if omega == 0.0:
            return 0.0
        down = abs(omega)
        for w, g in self.weights.items():
            if abs(w - down) <= 1e-9 * down:
                break
        else:
            raise ValidationError(f"no spectral weight for Bohr frequency {down:.6e}")
        if omega > 0:
            return g
        return math.exp(-boltzmann_exponent(down, self.temperature)) * g


def _ladder(n_max: int, params: PhysicalParams):
    """Truncated bare space, dressed transform and dressed energies.

    Bare states: (g,n) for n = 0..n_max and (e,n) for n = 0..n_max-1.
    Dressed column order: O1+, O1-, O0, O2+, O2-, ..., On_max+, On_max-.
    """
    g_idx = {n: n for n in range(n_max + 1)}
    e_idx = {n: n_max + 1 + n for n in range(n_max)}
    dim = 2 * n_max + 1

    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, n_max + 1):
        a[g_idx[n - 1], g_idx[n]] = math.sqrt(n)
    for n in range(1, n_max):
        a[e_idx[n - 1], e_idx[n]] = math.sqrt(n)
    number = np.zeros(dim)
    for n, i in g_idx.items():
        number[i] = n
    for n, i in e_idx.items():
        number[i] = n

    columns = [(1, +1.0), (1, -1.0), (0, 0.0)]
    for n in range(2, n_max + 1):
        columns += [(n, +1.0), (n, -1.0)]
    u = np.zeros((dim, dim), dtype=complex)
    energies = np.zeros(dim)
    for col, (n, sign) in enumerate(columns):
        if n == 0:
            u[g_idx[0], col] = 1.0
            energies[col] = -0.5 * params.omega0
        else:
            u[g_idx[n], col] = 1.0 / _SQRT2
            u[e_idx[n - 1], col] = sign / _SQRT2
            energies[col] = (n - 0.5) * params.omega0 + sign * params.g * math.sqrt(n)
    return a, number, u, energies


def davies_decompose(alpha: float, beta: float, n_max: int,
                     params: PhysicalParams) -> list[DaviesOperator]:
    """Split alpha*(a + a+) + beta*a+a into Bohr-frequency eigenoperators.

    Operators are returned for every Bohr frequency present (positive,
    negative and zero), sorted by frequency; summing them reconstructs the
    truncated coupling operator exactly.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    a, number, u, energies = _ladder(n_max, params)
    coupling = alpha * (a + a.conj().T) + beta * np.diag(number).astype(complex)
    dressed = u.conj().T @ coupling @ u

    groups: dict[float, np.ndarray] = {}
    dim = dressed.shape[0]
    for i in range(dim):
        for j in range(dim):
            if dressed[i, j] == 0.0:
                continue
            w = energies[j] - energies[i]
            for key in groups:
                if abs(key - w) <= 1e-9 * max(abs(key), abs(w), 1.0):
                    w = key
                    break
            block = groups.setdefault(w, np.zeros((dim, dim), dtype=complex))
            block[i, j] = dressed[i, j]
    return [DaviesOperator(w, groups[w]) for w in sorted(groups)]


def ladder_hamiltonian(n_max: int, params: PhysicalParams) -> np.ndarray:
    """Dressed-basis Hamiltonian of the truncated ladder (diagonal)."""
    _, _, _, energies = _ladder(n_max, params)
    return np.diag(energies).astype(complex)


def commutation_defect(ops: list[DaviesOperator], n_max: int, params: PhysicalParams) -> float:
    """Largest entry of |[H, A(w)] + w A(w)| / (1 + |w|) over the operators."""
    h = ladder_hamiltonian(n_max, params)
    return max(float(np.max(np.abs(h @ op.operator - op.operator @ h
                                   + op.bohr_frequency * op.operator)))
               / (1.0 + abs(op.bohr_frequency)) for op in ops)


def assemble_generator(ops: list[DaviesOperator], weights: SpectralWeights,
                       params: PhysicalParams) -> Liouvillian:
    """Weak-coupling generator on the lowest manifold from the jump operators.

    Each operator is projected onto the three-level subspace (O+, O-, O0);
    positive frequencies contribute the downward dissipator with gamma(w) and
    the upward one with the thermally paired gamma(-w).  Energy shifts are
    dropped throughout.  Like the models' generators, it is g*L1 plus these
    dissipators, in the frame rotating at omega0; the weights stay keyed at
    the lab-frame Bohr frequencies.
    """
    mat = params.g * coupling_superop(Basis.DRESSED)
    for op in ops:
        if op.bohr_frequency <= 0.0:
            continue
        block = np.asarray(op.operator, dtype=complex)[:3, :3]
        if not np.any(block):
            continue
        mat += dissipator_superop(weights.rate(op.bohr_frequency), block)
        mat += dissipator_superop(weights.rate(-op.bohr_frequency), block.conj().T)
    return Liouvillian(mat, Basis.DRESSED)
