import numpy as np
import pytest
from scipy.linalg import expm

from rabicav import CavityGeometry, DecayRates, PhysicalParams, models
from rabicav.core import DensityMatrix

# The vec entries (column stacking) |e,0><e,0| reaches in either 3-level basis:
# the two populations its coupling mixes, their coherences, and |g,0><g,0|.
_BLOCK = [0, 1, 3, 4, 8]


@pytest.fixture(scope="session")
def params():
    return PhysicalParams()


@pytest.fixture(scope="session")
def geometry():
    return CavityGeometry(waist=5.96e-3, diameter=50e-3)


@pytest.fixture(scope="session")
def paper_rates(params):
    return DecayRates.simplified(17.73, 17.73, 0.07 * params.g, 0.0466)


@pytest.fixture(scope="session")
def block_expm():
    """``simulate``'s CSV columns p_g, rho_11, rho_22, rho_33, rho_12_re,
    rho_12_im of exp(L t) rho0 at the times ``ts``, from scipy's expm of the
    generator ``liouvillian`` restricted to rho0's invariant block.

    The block is checked closed under L.
    """
    def columns(liouvillian, rho0, ts):
        mat = liouvillian.matrix
        outside = [i for i in range(9) if i not in _BLOCK]
        assert not np.any(mat[np.ix_(outside, _BLOCK)])
        gen, v0 = mat[np.ix_(_BLOCK, _BLOCK)], models.vec(rho0.matrix)[_BLOCK]
        v = np.zeros((len(ts), 9), dtype=complex)
        v[:, _BLOCK] = [expm(gen * t) @ v0 for t in ts]
        m = models.unvec(v)
        pg = models.ground_state_probability(DensityMatrix(m, rho0.basis))
        return np.column_stack([pg, m[:, 0, 0].real, m[:, 1, 1].real, m[:, 2, 2].real,
                                m[:, 0, 1].real, m[:, 0, 1].imag])
    return columns


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)
