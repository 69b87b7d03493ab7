"""Damped vacuum Rabi oscillations of a two-level atom in a lossy cavity.

A library plus CLI that simulates, solves in closed form, fits and analyzes
the dynamics under four competing master-equation models: photon-number
damping at zero and finite temperature, dressed-state damping, and the
open-cavity extension with intra-manifold thermal noise.
"""

from .core import (
    Basis, DensityMatrix, ValidationError, hermitian_eigen, partial_transpose,
)
from .models import (
    DecayRates, Liouvillian, Microscopic, ModelKind, OpenCavity, PhenomT,
    PhenomT0, PhysicalParams, build_liouvillian, dressed_transform,
    ground_state_probability, kms_ratio, thermal_occupation,
)
from .closed_form import (
    DampingBasis, ExpSum, damping_basis, energy_mean, initial_excited_state,
    microscopic_pg, microscopic_rho, opencavity_pg, opencavity_rho, phenom_T0_rho,
)
from .evolve import (
    CavityGeometry, StepUnderflowError, Trajectory, effective_time,
    gaussian_coupling, integrate, integrate_stack, nstep_propagate, true_time,
)
from .dephase import convolve_energy, convolve_pg
from .davies import DaviesOperator, SpectralWeights, assemble_generator, davies_decompose
from .entangle import embed4, ppt_spectrum
from .fitting import (
    ExperimentSeries, FitProblem, FitResult, RabiFitConfig, RankDeficiencyError,
    TimeConvention, fit_q, fit_rabi, levenberg_marquardt, q_from_rate,
    rate_from_q,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
