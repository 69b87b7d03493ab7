"""Numerical propagation: adaptive Runge-Kutta, Gaussian coupling, n-step products.

The embedded Dormand-Prince 5(4) pair below is the universal oracle the
closed-form solutions are checked against.  It integrates the column-stacked
master equation d(vec rho)/dt = L(t) vec(rho) with per-step error control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DensityMatrix, ValidationError
from .models import (
    Liouvillian, ModelKind, PhysicalParams, build_liouvillian,
    ground_state_probability, vec, unvec,
)

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class CavityGeometry:
    """Open Fabry-Perot geometry: Gaussian mode waist and mirror diameter (m).

    ``velocity`` is the atomic velocity; when omitted it is inferred from the
    crossing time as d = v*t.
    """

    waist: float
    diameter: float
    velocity: float | None = None

    def __post_init__(self):
        if self.waist <= 0 or self.diameter <= 0:
            raise ValidationError("waist and diameter must be positive")
        if self.waist >= self.diameter:
            raise ValidationError("waist must be smaller than the mirror diameter")
        if self.velocity is not None and self.velocity <= 0:
            raise ValidationError("velocity must be positive")


def gaussian_coupling(g_peak: float, geom: CavityGeometry, t_total: float,
                      t_prime: float) -> float:
    """Coupling seen by an atom crossing the Gaussian mode profile.

    g(t') = g_peak * exp(-v^2 (t_total/2 - t')^2 / w^2), peaked at the cavity
    center t' = t_total/2 and symmetric about it.
    """
    if not 0.0 <= t_prime <= t_total:
        raise ValidationError("t_prime must lie in [0, t_total]")
    v = geom.velocity if geom.velocity is not None else geom.diameter / t_total
    u = v * (0.5 * t_total - t_prime) / geom.waist
    return g_peak * math.exp(-u * u)


def effective_time(t, geom: CavityGeometry):
    """Rescaled time sqrt(pi) * (w/d) * t absorbing the Gaussian profile."""
    return SQRT_PI * (geom.waist / geom.diameter) * t


def true_time(t_eff, geom: CavityGeometry):
    """Inverse of :func:`effective_time`."""
    return t_eff / (SQRT_PI * (geom.waist / geom.diameter))


@dataclass(eq=False)
class Trajectory:
    """Time-stamped density matrices from a single integration.

    ``states`` is one ``(N, d, d)`` stack, a state per entry of ``times``.
    """

    times: np.ndarray
    states: DensityMatrix
    model: str

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("trajectory times must be strictly increasing")
        if len(self.times) != len(self.states):
            raise ValidationError("times and states length mismatch")

    def ground_state_probability(self) -> np.ndarray:
        return ground_state_probability(self.states)


class StepUnderflowError(RuntimeError):
    """Adaptive step size collapsed; carries the failing time."""

    def __init__(self, time: float):
        super().__init__(f"step size underflow at t = {time:.6e} s")
        self.time = time


# Dormand-Prince 5(4) tableau; row i of _A holds the weights of stages
# 0..i-1 (zero-padded), and its last row is the 5th-order solution.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = np.array((
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0),
    (3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0),
    (44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
# Error coefficients: b(5th order) - b(4th order), one per stage.
_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
               -1 / 40))[:, None]

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 5.0


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                rtol: float, atol: float) -> float:
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.max(np.abs(err) / scale))


def integrate(liouvillian: Liouvillian | Callable[[float], Liouvillian],
              rho0: DensityMatrix, t_end: float, *,
              t_eval: Sequence[float] | None = None,
              rtol: float = 1e-10, atol: float = 1e-12,
              model: str = "") -> Trajectory:
    """Propagate ``rho0`` to ``t_end`` with an embedded 5(4) pair.

    ``liouvillian`` is either a fixed generator or a callable of time (for a
    coupling that follows the mode profile).  States are recorded at the
    strictly increasing times in ``t_eval`` (default: just t_end).  The
    recorded states form one stack, held to the trajectory drift budget when
    the run ends; a failure names the first bad state (``state i: ...``).
    """
    if t_end < 0:
        raise ValidationError("t_end must be >= 0")
    if callable(liouvillian):
        liou_at = liouvillian
        basis = liou_at(0.0).basis
    else:
        fixed = liouvillian.matrix
        liou_at = None
        basis = liouvillian.basis
    if rho0.basis is not basis:
        raise ValidationError(f"rho0 basis {rho0.basis} does not match generator basis {basis}")

    def rhs(t: float, v: np.ndarray) -> np.ndarray:
        mat = fixed if liou_at is None else liou_at(t).matrix
        return mat @ v

    if t_eval is None:
        t_eval = [t_end]
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(np.diff(t_eval) <= 0) or np.any(t_eval < 0) or (t_eval.size and t_eval[-1] > t_end * (1 + 1e-12) + 1e-300):
        raise ValidationError("t_eval must be increasing and within [0, t_end]")

    # Recorded vectors; the trajectory validates them as one stack at the end.
    recorded: list[np.ndarray] = []

    def trajectory() -> Trajectory:
        d = rho0.dim
        stack = np.reshape(recorded, (-1, d, d)).swapaxes(1, 2)  # unvec per row
        return Trajectory(t_eval, DensityMatrix(stack, basis), model)

    t = 0.0
    y = vec(rho0.matrix)
    targets = list(t_eval)
    if targets and targets[0] == 0.0:
        recorded.append(y)
        targets.pop(0)

    if not targets:
        return trajectory()

    k = np.empty((7, y.size), dtype=complex)
    k[0] = rhs(t, y)
    # Initial step guess from the scaled sizes of y and f.
    d0 = float(np.max(np.abs(y))) or 1.0
    d1 = float(np.max(np.abs(k[0])))
    h = min(targets[-1] - t, 0.01 * d0 / d1 if d1 > 0 else targets[-1])
    h_min_floor = 1e-15

    while targets:
        t_next_out = targets[0]
        h = min(h, t_next_out - t)
        if h < h_min_floor * max(t, t_next_out, 1e-30):
            raise StepUnderflowError(t)
        # Axis-0 sums add the stage terms left to right, as a scalar loop
        # does; a matrix product would reorder them and move the last bits.
        for i in range(1, 6):
            k[i] = rhs(t + _C[i] * h, y + h * (_A[i, :i, None] * k[:i]).sum(axis=0))
        y_new = y + h * (_A[6, :, None] * k[:6]).sum(axis=0)
        # FSAL: the last stage is f at the new point, reused as next step's first.
        k[6] = rhs(t + h, y_new)
        err = h * (_E * k).sum(axis=0)
        norm = _error_norm(err, y, y_new, rtol, atol)
        if not np.isfinite(norm):
            norm = np.inf
        if norm <= 1.0:
            t = t + h
            y = y_new
            k[0] = k[6]
            if t >= t_next_out - 1e-15 * max(1.0, abs(t_next_out)):
                recorded.append(y)
                targets.pop(0)
            factor = _MAX_FACTOR if norm == 0 else min(_MAX_FACTOR, _SAFETY * norm ** -0.2)
            h *= max(factor, 1.0)
        else:
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)

    return trajectory()


def _coupling_family(kind: ModelKind, params: PhysicalParams):
    """Affine decomposition L(g) = L0 + g*L1 of the generator in the coupling."""
    from dataclasses import replace
    g = params.g
    la = build_liouvillian(kind, params)
    lb = build_liouvillian(kind, replace(params, g=g / 2))
    slope = (la.matrix - lb.matrix) / (g / 2)
    l0 = la.matrix - g * slope
    return l0, slope, la.basis


def gaussian_liouvillian(kind: ModelKind, params: PhysicalParams,
                         geom: CavityGeometry, t_total: float) -> Callable[[float], Liouvillian]:
    """Generator with the coupling following the Gaussian mode profile.

    Stage times are clamped to [0, t_total]; adaptive steps may overshoot the
    endpoint by a rounding ulp.
    """
    l0, slope, basis = _coupling_family(kind, params)

    def at(t: float) -> Liouvillian:
        g = gaussian_coupling(params.g, geom, t_total, min(max(t, 0.0), t_total))
        return Liouvillian(l0 + g * slope, basis)

    return at


# Generators per batched eig/solve in nstep_propagate: large enough to
# amortise the Python overhead, small enough to bound the workspace.
_NSTEP_CHUNK = 1024


def nstep_propagate(kind: ModelKind, params: PhysicalParams,
                    geom: CavityGeometry | None, rho0: DensityMatrix,
                    t: float, n: int) -> DensityMatrix:
    """Product of n frozen-coupling propagators exp(L(g_j) dt), dt = t/n.

    The coupling is sampled at interval midpoints; with ``geom`` absent the
    profile is constant.  Each distinct coupling's propagator
    V diag(e^{lambda dt}) V^-1 is built once by eigen-decomposition, in
    batches of ``_NSTEP_CHUNK`` generators, and the factors are then applied
    in order.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError("n must be a positive integer")
    if t < 0:
        raise ValidationError("t must be >= 0")
    if t == 0:
        return rho0
    l0, slope, basis = _coupling_family(kind, params)
    if rho0.basis is not basis:
        raise ValidationError("rho0 basis does not match the model basis")
    dt = t / n
    mids = (np.arange(n) + 0.5) * dt
    if geom is None:
        gs = np.full(n, params.g)
    else:
        gs = np.array([gaussian_coupling(params.g, geom, t, tm) for tm in mids])

    # The profile is symmetric, so about half the couplings repeat (a
    # constant profile needs a single propagator).
    unique_gs, inverse = np.unique(gs, return_inverse=True)
    props = np.empty((unique_gs.size,) + l0.shape, dtype=complex)
    for lo in range(0, unique_gs.size, _NSTEP_CHUNK):
        chunk = unique_gs[lo:lo + _NSTEP_CHUNK]
        lam, vmat = np.linalg.eig(l0 + chunk[:, None, None] * slope)
        scaled = vmat * np.exp(lam * dt)[:, None, :]
        # P = V D V^-1, i.e. P^T = solve(V^T, (V D)^T).
        props[lo:lo + chunk.size] = np.linalg.solve(
            vmat.swapaxes(1, 2), scaled.swapaxes(1, 2)).swapaxes(1, 2)
    v = vec(rho0.matrix)
    for idx in inverse.tolist():
        v = props[idx] @ v
    return DensityMatrix(unvec(v), basis)
