"""Minimal dense complex-matrix kernel for small cavity-QED states.

Everything here operates on plain ``numpy`` arrays of dimension 2, 3, 4 or 9.
Density matrices carry a basis tag so that downstream code cannot silently mix
the bare product basis with the dressed one.
"""

from __future__ import annotations

import os
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
    """Basis tag for 3- and 4-dimensional density matrices.

    BARE    -- |e,0>, |g,1>, |g,0>
    DRESSED -- |O+>, |O->, |O0> (single-excitation dressed pair + joint ground)
    BARE4   -- |e,1>, |e,0>, |g,1>, |g,0>
    """

    BARE = "bare"
    DRESSED = "dressed"
    BARE4 = "bare4"

    @property
    def dim(self) -> int:
        return 4 if self is Basis.BARE4 else 3


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


def can_fork() -> bool:
    """Whether :func:`fork_call` starts a worker: ``os.fork`` exists and this
    process may run on two CPUs or more."""
    if not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2


def fork_call(worker, here) -> tuple:
    """``(worker(), here())``: when :func:`can_fork`, ``worker`` runs in a
    forked process while ``here`` runs in this one; else both run here,
    ``here`` first.

    The worker's return value, or the exception it raised, comes back
    pickled through a pipe that this process reads to its end once ``here``
    has returned, and the worker is reaped after that; an exception or an
    interrupt in ``here`` kills and reaps it.  The worker's exception is
    raised here as it would be without a worker.  A reply that cannot be
    unpickled raises RuntimeError with the worker's traceback, and a worker
    that ends without replying raises ChildProcessError.
    """
    if not can_fork():
        mine = here()
        return worker(), mine
    import pickle, signal, warnings
    read, write = os.pipe()
    # Python >= 3.12 warns on fork while another OS thread runs, here numpy's
    # BLAS pool; OpenBLAS stops its pool before a fork and each process
    # starts its own again
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:   # the worker: it leaves through os._exit only, so no buffer,
        code = 1   # handler or finally of this process runs a second time
        try:
            os.close(read)
            try:
                trace, value = None, worker()
            except BaseException as exc:   # raised again by the parent
                import traceback
                trace, value = traceback.format_exc(), exc
            try:
                value = pickle.dumps(value)
            except Exception:
                import traceback
                trace, value = trace or traceback.format_exc(), None
            with open(write, "wb") as pipe:
                pickle.dump((trace, value), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with open(read, "rb") as pipe:
        try:
            mine = here()
            reply = pipe.read()   # to its end: the worker has replied or is gone
            _, status = os.waitpid(pid, 0)
            pid = 0
        finally:
            if pid:   # an error or an interrupt came before the worker was reaped
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:   # the worker exits with 0 only once its whole reply is written
        raise ChildProcessError(f"the worker ended with status {code} before it replied")
    trace, value = pickle.loads(reply)   # a str or None, and bytes or None
    try:
        value = pickle.loads(value)
    except Exception as exc:   # None: the worker could not pickle it
        raise RuntimeError(f"the worker's reply cannot be unpickled:\n{trace or repr(exc)}"
                           ) from None
    if trace is not None:
        raise value
    return value, mine


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

    ``matrix`` is one ``(d, d)`` matrix or a ``(N, d, d)`` stack of them, e.g.
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
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
            raise ValidationError(
                f"expected a square matrix or a stack of them, got shape {m.shape}")
        if m.shape[-1] != self.basis.dim:
            raise ValidationError(
                f"dimension {m.shape[-1]} inconsistent with basis {self.basis}")
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


def partial_transpose(rho4: DensityMatrix | np.ndarray) -> np.ndarray:
    """Transpose the atomic index of a 4x4 matrix in the BARE4 ordering.

    The result has the populations on the diagonal and the |e,0><g,1|
    coherences moved to the anti-diagonal corners; it is Hermitian whenever
    the input is, and applying the operation twice returns the input exactly
    (the map is a pure permutation of entries).  A stacked state gives one
    matrix per member.  A raw 4x4 array is accepted so the output, which is
    generally not positive, can be transposed back.
    """
    if isinstance(rho4, DensityMatrix):
        if rho4.basis is not Basis.BARE4:
            raise ValidationError("partial_transpose expects the BARE4 ordering")
        m = rho4.matrix
    else:
        m = as_square_matrix(rho4, dims=(4,))
    blocks = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    return np.ascontiguousarray(np.swapaxes(blocks, -4, -2).reshape(m.shape))
