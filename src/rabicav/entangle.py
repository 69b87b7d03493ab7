"""Separability of the evolving atom-photon state via partial transposition.

The three-level state is embedded into the full 2x2 product space (adding
the never-populated |e,1> level), partially transposed, and its spectrum
examined: the single non-positive eigenvalue is the entanglement witness,
and its magnitude is controlled by the bare coherence <e,0|rho|g,1>.
"""

from __future__ import annotations

import numpy as np

from .core import Basis, DensityMatrix, ValidationError, hermitian_eigen, partial_transpose

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
