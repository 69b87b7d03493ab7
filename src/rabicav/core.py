"""Minimal dense complex-matrix kernel for small cavity-QED states.

Everything here operates on plain ``numpy`` arrays of dimension 2, 3, 4 or 9.
Density matrices carry a basis tag so that downstream code cannot silently mix
the bare product basis with the dressed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Tolerance constants, centralized.  Validation checks on operation inputs use
# VALIDATION_TOL; freshly constructed analytic states are held to the strict
# budgets; every state, including those coming out of step-by-step numerics,
# may drift up to _TRAJECTORY_TOL.
VALIDATION_TOL = 1e-10
STRICT_TRACE_TOL = 1e-12
STRICT_HERM_TOL = 1e-12
STRICT_EIG_TOL = 1e-10
_TRAJECTORY_TOL = 1e-9

ALLOWED_DIMS = (2, 3, 4, 9)

# Rows per CSV block and states per validation block: a table or a state
# stack is worked through in slices of this size, so temporaries stay small.
BLOCK = 4096

ComplexMatrix = np.ndarray


class ValidationError(ValueError):
    """A matrix or parameter failed a structural precondition.

    ``state`` is the index of the failing member of a state stack, or None;
    the message names it before the ``problem``.
    """

    def __init__(self, problem: str, state: int | None = None):
        super().__init__(problem if state is None else f"state {state}: {problem}")
        self.problem, self.state = problem, state


class Basis(Enum):
    """Basis tag for 3-dimensional density matrices.

    BARE    -- |e,0>, |g,1>, |g,0>
    DRESSED -- |O+>, |O->, |O0> (single-excitation dressed pair + joint ground)
    """

    BARE = "bare"
    DRESSED = "dressed"


def as_square_matrix(matrix: np.ndarray, dims: tuple[int, ...] = ALLOWED_DIMS) -> np.ndarray:
    """Coerce to a complex square array of an allowed dimension."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in dims:
        raise ValidationError(f"dimension {m.shape[0]} not in allowed set {dims}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    return m


def hermiticity_defect(matrix: np.ndarray):
    """Largest entry of |m - m^H|: a float, or one value per matrix of a stack."""
    d = np.abs(matrix - np.swapaxes(matrix.conj(), -1, -2)).max(axis=(-2, -1))
    return float(d) if d.ndim == 0 else d


def blocks(array: np.ndarray):
    """``array`` in slices of BLOCK along its first axis (one empty slice if it is empty)."""
    return (array[i:i + BLOCK] for i in range(0, max(len(array), 1), BLOCK))


def elementwise(fn, array) -> np.ndarray:
    """``fn`` applied to each element of a 1-D array, as a float array.

    numpy's vectorised exp may round the last bit differently from
    ``math.exp``; :func:`rabicav.closed_form.opencavity_rho` evaluates its
    exponentials through this helper, so its states keep the bits the
    golden CSV digests pin.
    """
    return np.array(list(map(fn, np.asarray(array).tolist())), dtype=float)


def time_grid(t, name: str = "t") -> np.ndarray:
    """``t`` (a time or a 1-D array of times, all >= 0) as a 1-D float array."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1:
        raise ValidationError(f"{name} must be a scalar or a 1-D array")
    if not (ts >= 0).all():   # a NaN fails too
        raise ValidationError(f"{name} must be >= 0")
    return ts


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Small Hermitian, trace-one, positive matrix tagged with its basis.

    ``matrix`` is one ``(3, 3)`` matrix or a ``(N, 3, 3)`` stack of them, e.g.
    a state at every point of a time grid; the basis and note apply to every
    member.  For a stack the defect properties hold one value per member and
    a failed check names the first failing index; ``len`` and indexing give
    its size and members (both raise ``TypeError`` on a single matrix).
    Checks take the eigenvalues and Hermiticity defects of a stack in blocks
    of :data:`BLOCK` members, so their temporaries do not grow with it.

    ``note`` is a diagnostic tag set by producers (e.g. ``"hyperbolic"`` for
    the overdamped analytic continuation, ``"fallback"`` for numeric
    eigen-propagation in place of a degenerate closed form).

    Construction always enforces the loose trajectory budget (drift <= 1e-9,
    min eigenvalue >= -1e-9); analytic producers call :meth:`validate` for
    the strict budget on top of that.
    """

    matrix: np.ndarray
    basis: Basis
    note: str | None = None
    _min_eig: float | np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (3, 3):
            raise ValidationError(
                f"expected a 3x3 matrix or a stack of them, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        self._check((_TRAJECTORY_TOL,) * 3)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def _stack(self) -> np.ndarray:
        if self.matrix.ndim != 3:
            raise TypeError("a single density matrix is not a stack")
        return self.matrix

    def __len__(self) -> int:
        return len(self._stack())

    def __getitem__(self, i: int) -> "DensityMatrix":
        """Member ``i`` of a stack, as its own state (checked again on construction)."""
        return DensityMatrix(self._stack()[i], self.basis, self.note)

    @property
    def trace_defect(self):
        d = np.abs(np.trace(self.matrix, axis1=-2, axis2=-1) - 1.0)
        return float(d) if d.ndim == 0 else d

    @property
    def hermiticity_defect(self):
        return hermiticity_defect(self.matrix)

    @property
    def min_eigenvalue(self):
        return self._min_eig

    def validate(self) -> "DensityMatrix":
        """Hold the state to the strict budgets: trace and Hermiticity defects
        <= 1e-12, minimum eigenvalue >= -1e-10 (the one measured at construction)."""
        return self._check((STRICT_TRACE_TOL, STRICT_HERM_TOL, STRICT_EIG_TOL))

    def _check(self, budget: tuple[float, float, float]) -> "DensityMatrix":
        max_trace, max_herm, max_neg = budget
        stack = self.matrix.reshape(-1, self.dim, self.dim)
        stacked = self.matrix.ndim == 3
        if self._min_eig is None:   # construction measures the spectrum, once
            if not np.isfinite(stack).all():
                i = int(np.argmin(np.isfinite(stack).all(axis=(1, 2))))
                raise ValidationError("matrix entries must be finite", i if stacked else None)
            w = np.concatenate([np.linalg.eigvalsh(0.5 * (b + np.swapaxes(b.conj(), 1, 2)))[:, 0]
                                for b in blocks(stack)])
            object.__setattr__(self, "_min_eig", float(w[0]) if self.matrix.ndim == 2 else w)
        trace = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
        herm = np.concatenate([hermiticity_defect(b) for b in blocks(stack)])
        w = np.atleast_1d(self._min_eig)
        failed = (trace > max_trace) | (herm > max_herm) | (w < -max_neg)
        if failed.any():
            i = int(np.argmax(failed))
            if trace[i] > max_trace:
                problem = f"trace defect {trace[i]:.3e} > {max_trace:.0e}"
            elif herm[i] > max_herm:
                problem = f"hermiticity defect {herm[i]:.3e} > {max_herm:.0e}"
            else:
                problem = f"minimum eigenvalue {w[i]:.3e} < -{max_neg:.0e}"
            raise ValidationError(problem, i if stacked else None)
        return self


def hermitian_eigen(matrix: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns ``(eigenvalues, eigenvectors)`` with orthonormal eigenvector
    columns such that ``matrix @ v[:, i] == w[i] * v[:, i]``.
    """
    m = as_square_matrix(matrix)
    scale = max(1.0, float(np.max(np.abs(m))))
    if hermiticity_defect(m) > VALIDATION_TOL * scale:
        raise ValidationError(
            f"matrix is not Hermitian (defect {hermiticity_defect(m):.3e})")
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def partial_transpose(matrix: np.ndarray) -> np.ndarray:
    """Transpose the atomic index of a 4x4 matrix in the ordering
    |e,1>, |e,0>, |g,1>, |g,0>, or of each member of an ``(N, 4, 4)`` stack.

    The result has the populations on the diagonal and the |e,0><g,1|
    coherences moved to the anti-diagonal corners; it is Hermitian whenever
    the input is, and applying the operation twice returns the input exactly
    (the map is a pure permutation of entries).  The input is a raw array, so
    the output, which is generally not positive, can be transposed back.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    blocks = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    return np.ascontiguousarray(np.swapaxes(blocks, -4, -2).reshape(m.shape))
