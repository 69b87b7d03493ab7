"""Separability of the evolving atom-photon state via partial transposition.

The three-level bare state lives in the 2x2 product space with the
never-populated |e,1> level left empty.  Its partial transpose has one
non-positive eigenvalue, the entanglement witness, set by the |g,0>
population and the bare coherence <e,0|rho|g,1> (Peres, PRL 77, 1413 (1996)).
"""

from __future__ import annotations

import numpy as np

from .core import Basis, DensityMatrix, ValidationError, hermitian_eigen, partial_transpose


def ppt_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of the partially transposed 4x4 embedding of a 3-level
    BARE state, shape ``(..., 4)``.

    For states whose |g,0> coherences vanish (only the |e,0>/|g,1> block and
    the |g,0> population filled) the spectrum is known in closed form and is
    returned in that labeling: the two populations, then the +/- pair built
    from the |g,0> population and the coherence magnitude; the last entry is
    always <= 0 and vanishes iff the coherence does.  Other states fall back
    to a full numeric eigensolve of the partial transpose (eigenvalues
    returned descending).  A stack gives one row per member.
    """
    if rho.basis is not Basis.BARE:
        raise ValidationError("ppt_spectrum expects a 3-level state in the BARE basis")
    m = rho.matrix.reshape(-1, 3, 3)
    magnitude = np.abs(m)
    scale = np.maximum(1.0, magnitude.max(axis=(1, 2)))
    g0 = np.maximum(magnitude[:, :2, 2], magnitude[:, 2, :2]).max(axis=1)   # |g,0> coherences
    p00 = m[:, 2, 2].real
    root = np.hypot(p00, 2.0 * np.abs(m[:, 0, 1]))
    spec = np.stack([m[:, 1, 1].real, m[:, 0, 0].real,
                     0.5 * (p00 + root), 0.5 * (p00 - root)], axis=-1)
    for i in np.flatnonzero(g0 > 1e-12 * scale):
        m4 = np.zeros((4, 4), dtype=complex)
        m4[1:, 1:] = m[i]
        spec[i], _ = hermitian_eigen(partial_transpose(m4))
    return spec.reshape(rho.matrix.shape[:-2] + (4,))
