"""Generators for the four master-equation models of a lossy-cavity Rabi system.

Every generator is L(g) = L0 + g*L1 in the frame rotating at omega0
(:func:`coupling_family`).  At resonance, under the RWA, that frame is exact
and leaves every dissipator unchanged, since each jump changes the excitation
number by a fixed amount (Breuer & Petruccione, The Theory of Open Quantum
Systems (2002), section 3.3); omega0 enters only the thermal factors and the
energy.  The four models share the coupling L1; they differ in where the
jump operators of L0 live:

* ``PhenomT0`` / ``PhenomT`` -- photon-number jumps in the bare basis, the
  ``T > 0`` variant with the jump operators projected onto the three-level
  subspace so higher excitation manifolds never couple in.
* ``Microscopic`` -- jumps between dressed states and the joint ground state.
* ``OpenCavity`` -- the dressed-state model extended by up/down transitions
  inside the single-excitation manifold, as appropriate for an open resonator
  bathed in long-wavelength thermal photons.

Rates follow the angular convention (1/s, matching rad/s frequencies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import Basis, DensityMatrix, ValidationError, as_square_matrix

# Exact SI (2019 redefinition) values.
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J/K

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PhysicalParams:
    """Resonant atom-cavity parameters.

    Defaults are the microwave cavity regime used throughout: a 51.099 GHz
    circular-Rydberg transition, peak coupling g = 47*pi*1e3 rad/s, mirrors
    cooled to 0.8 K.
    """

    omega0: float = 2.0 * math.pi * 51.099e9
    g: float = 47.0 * math.pi * 1e3
    temperature: float = 0.8

    def __post_init__(self):
        # written so that a NaN fails too
        if not (0 < self.omega0 < math.inf and 0 < self.g < math.inf):
            raise ValidationError("omega0 and g must be positive and finite")
        if not 0 <= self.temperature < math.inf:
            raise ValidationError("temperature must be non-negative and finite")


def boltzmann_exponent(omega: float, temperature: float) -> float:
    """hbar*omega/(k*T), infinite where k*T is 0 (T = 0, or k*T underflows)."""
    kt = K_B * temperature
    if kt == 0.0:
        return math.inf
    return HBAR * omega / kt


def kms_ratio(omega: float, params: PhysicalParams) -> float:
    """Thermal detailed-balance ratio exp(-hbar*omega/(k*T)).

    At ``temperature == 0`` the ratio is 0 (no upward jumps).
    """
    return math.exp(-boltzmann_exponent(omega, params.temperature))


def thermal_occupation(omega: float, params: PhysicalParams) -> float:
    """Mean photon number 1/(exp(hbar*omega/kT) - 1) of a thermal mode (0 at T = 0)."""
    if omega <= 0:
        raise ValidationError("omega must be positive")
    return 1.0 / math.expm1(boltzmann_exponent(omega, params.temperature))


@dataclass(frozen=True)
class DecayRates:
    """The six decay coefficients of the open-cavity level scheme.

    gamma1, gamma2: dressed-state decay |O+> -> |O0>, |O-> -> |O0>
    gamma_a, gamma_b: the corresponding thermal upward transitions
    gamma3, gamma_c: downward/upward transitions inside the manifold,
    |O+> <-> |O->.
    """

    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma3: float = 0.0
    gamma_a: float = 0.0
    gamma_b: float = 0.0
    gamma_c: float = 0.0

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not 0 <= value < math.inf:
                raise ValidationError(f"{name} must be >= 0 and finite, got {value}")

    def as_dict(self) -> dict[str, float]:
        return {
            "gamma1": self.gamma1, "gamma2": self.gamma2, "gamma3": self.gamma3,
            "gamma_a": self.gamma_a, "gamma_b": self.gamma_b, "gamma_c": self.gamma_c,
        }

    @property
    def total(self) -> float:
        return (self.gamma1 + self.gamma2 + self.gamma3
                + self.gamma_a + self.gamma_b + self.gamma_c)

    @classmethod
    def simplified(cls, gamma1: float, gamma2: float, gamma3: float,
                   eps: float) -> "DecayRates":
        """Rates with the thermal shortcut gamma_a = eps*gamma1,
        gamma_b = eps*gamma2, gamma_c = gamma3.

        This is a constructor convenience only; all six rates may also be set
        independently.
        """
        return cls(gamma1, gamma2, gamma3, eps * gamma1, eps * gamma2, gamma3)

    @classmethod
    def kms(cls, gamma1: float, gamma2: float, gamma3: float,
            params: PhysicalParams) -> "DecayRates":
        """Rates with the upward coefficients fixed exactly by detailed balance."""
        return cls(
            gamma1, gamma2, gamma3,
            gamma1 * kms_ratio(params.omega0 + params.g, params),
            gamma2 * kms_ratio(params.omega0 - params.g, params),
            gamma3 * kms_ratio(2.0 * params.g, params),
        )


@dataclass(frozen=True)
class PhenomT0:
    """Zero-temperature photon-loss model: single jump a with rate gamma."""

    gamma: float

    def __post_init__(self):
        if not 0 <= self.gamma < math.inf:
            raise ValidationError("gamma must be >= 0 and finite")


@dataclass(frozen=True)
class PhenomT:
    """Finite-temperature photon model with projector-truncated jumps.

    The jump operators are Pi a Pi = |g,0><g,1| (down, rate gamma_down) and
    its adjoint (up, rate gamma_up); no higher Fock level ever enters.
    """

    gamma_down: float
    gamma_up: float

    def __post_init__(self):
        if not (0 <= self.gamma_down < math.inf and 0 <= self.gamma_up < math.inf):
            raise ValidationError("rates must be >= 0 and finite")

    @classmethod
    def from_temperature(cls, gamma_down: float, params: PhysicalParams) -> "PhenomT":
        """Fix gamma_up/gamma_down to the detailed-balance ratio at omega0."""
        return cls(gamma_down, gamma_down * kms_ratio(params.omega0, params))


@dataclass(frozen=True)
class Microscopic:
    """Dressed-state decay model: |O+/-> -> |O0> only (closed cavity)."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not (0 <= self.gamma1 < math.inf and 0 <= self.gamma2 < math.inf):
            raise ValidationError("rates must be >= 0 and finite")


@dataclass(frozen=True)
class OpenCavity:
    """Dressed-state model with intra-manifold noise (open cavity)."""

    rates: DecayRates


ModelKind = Union[PhenomT0, PhenomT, Microscopic, OpenCavity]


def dressed_hamiltonian(params: PhysicalParams) -> np.ndarray:
    """Lab-frame Hamiltonian/hbar in the dressed basis |O+>, |O->, |O0>: the
    energy observable, which no generator uses."""
    w, g = params.omega0, params.g
    return np.diag([w / 2 + g, w / 2 - g, -w / 2]).astype(complex)


def dressed_state_matrix() -> np.ndarray:
    """Unitary whose columns are |O+>, |O->, |O0> in bare coordinates,
    with |O+/-> = (|g,1> +/- |e,0>)/sqrt(2) and |O0> = |g,0>."""
    s = 1.0 / _SQRT2
    return np.array([
        [s, -s, 0.0],
        [s, s, 0.0],
        [0.0, 0.0, 1.0],
    ], dtype=complex)


def dressed_transform(rho: DensityMatrix, target: Basis) -> DensityMatrix:
    """Unitary change of basis between BARE and DRESSED for 3x3 states or stacks."""
    if rho.basis is target:
        raise ValidationError("state already in the target basis")
    u = dressed_state_matrix()
    if target is Basis.DRESSED:
        m = u.conj().T @ rho.matrix @ u
    else:
        m = u @ rho.matrix @ u.conj().T
    return DensityMatrix(m, target, rho.note)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a 3x3 matrix into a 9-vector."""
    return np.asarray(rho, dtype=complex).reshape(9, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`, for one 9-vector or a stack of them along the last axis."""
    return np.asarray(v, dtype=complex).reshape(*np.shape(v)[:-1], 3, 3).swapaxes(-1, -2)


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Superoperator of -i[h, .] acting on column-stacked matrices."""
    h = as_square_matrix(h)
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def dissipator_superop(rate: float, jump: np.ndarray) -> np.ndarray:
    """Superoperator of rate*(J rho J+ - {J+J, rho}/2), column-stacked."""
    j = as_square_matrix(jump)
    eye = np.eye(j.shape[0])
    jdj = j.conj().T @ j
    return rate * (np.kron(j.conj(), j)
                   - 0.5 * np.kron(eye, jdj)
                   - 0.5 * np.kron(jdj.T, eye))


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """A 9x9 generator acting on column-stacked 3x3 density matrices."""

    matrix: np.ndarray
    basis: Basis

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_square_matrix(self.matrix, dims=(9,)))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Act on a 3x3 matrix, returning d(rho)/dt as a 3x3 matrix."""
        return unvec(self.matrix @ vec(rho))


def _unit(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def coupling_superop(basis: Basis) -> np.ndarray:
    """L1, the superoperator of -i[sigma, .] for the rotating-frame Hamiltonian
    g*sigma: sigma = |e,0><g,1| + h.c. in the BARE basis, diag(1, -1, 0) in DRESSED."""
    sigma = _unit(0, 1) + _unit(1, 0) if basis is Basis.BARE else np.diag([1.0, -1.0, 0.0])
    return hamiltonian_superop(sigma)


def coupling_family(kind: ModelKind) -> tuple[np.ndarray, np.ndarray, Basis]:
    """``(L0, L1, basis)`` of a model's generator L(g) = L0 + g*L1 in the frame
    rotating at omega0: L0 the sum of its dissipators, L1 :func:`coupling_superop`.

    Photon-number models live in the BARE basis, dressed-state models in the
    DRESSED basis.  The dressed-state dissipators carry the rate/2 prefactor
    of their defining equations (jump term rate/2, anticommutator rate/4).
    """
    if isinstance(kind, PhenomT0):
        basis, jumps = Basis.BARE, [(kind.gamma, (2, 1))]
    elif isinstance(kind, PhenomT):
        basis, jumps = Basis.BARE, [(kind.gamma_down, (2, 1)), (kind.gamma_up, (1, 2))]
    elif isinstance(kind, Microscopic):
        basis, jumps = Basis.DRESSED, [(kind.gamma1 / 2, (2, 0)), (kind.gamma2 / 2, (2, 1))]
    elif isinstance(kind, OpenCavity):
        r = kind.rates
        basis, jumps = Basis.DRESSED, [
            (r.gamma1 / 2, (2, 0)), (r.gamma_a / 2, (0, 2)),
            (r.gamma2 / 2, (2, 1)), (r.gamma_b / 2, (1, 2)),
            (r.gamma3 / 2, (1, 0)), (r.gamma_c / 2, (0, 1)),
        ]
    else:
        raise ValidationError(f"unknown model kind {kind!r}")
    l0 = sum(dissipator_superop(rate, _unit(i, j)) for rate, (i, j) in jumps)
    return l0, coupling_superop(basis), basis


def build_liouvillian(kind: ModelKind, params: PhysicalParams) -> Liouvillian:
    """The generator L0 + g*L1 of :func:`coupling_family` at the coupling ``params.g``."""
    l0, l1, basis = coupling_family(kind)
    return Liouvillian(l0 + params.g * l1, basis)


def ground_state_probability(rho: DensityMatrix):
    """Probability of finding the atom in |g>, in either basis.

    A float for one state, an array with one value per member of a stack.
    """
    m = rho.matrix
    if rho.basis is Basis.BARE:
        p = 1.0 - m[..., 0, 0].real
    else:   # DRESSED: <e,0|rho|e,0> = (r++ + r-- - r+- - r-+)/2
        p = 1.0 - 0.5 * (m[..., 0, 0].real + m[..., 1, 1].real) + m[..., 0, 1].real
    return float(p) if m.ndim == 2 else p
