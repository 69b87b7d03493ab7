"""Numerical propagation: exact block propagators, n-step products, the RK oracle.

Every constant generator is propagated exactly, by one eigendecomposition on
the initial state's invariant block (:func:`nstep_propagate` at n = 1, the
open-cavity fallback).  The n-step product carries the state in
eigen-coordinates, one link V_{j+1}^-1 V_j between consecutive factors, and
builds links and exponentials in chunks of bounded size; at n = 1 it is the
exact propagator, operation for operation, and so is a product of commuting
factors.  The embedded Dormand-Prince 5(4) pair, which steps a stack of
problems together, is the oracle the acceptance suite checks them against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BLOCK, DensityMatrix, ValidationError, time_grid
from .models import (
    Liouvillian, ModelKind, PhysicalParams, coupling_family, ground_state_probability,
    vec, unvec,
)

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class CavityGeometry:
    """Open Fabry-Perot geometry: Gaussian mode waist and mirror diameter (m).

    The atom crosses the mirror diameter d at constant speed in the crossing
    time, so the profile depends only on the fraction of the crossing done.
    """

    waist: float
    diameter: float

    def __post_init__(self):
        if not (0 < self.waist < math.inf and 0 < self.diameter < math.inf):   # a NaN fails too
            raise ValidationError("waist and diameter must be positive and finite")
        if self.waist >= self.diameter:
            raise ValidationError("waist must be smaller than the mirror diameter")

    @property
    def profile_mean(self) -> float:
        """Mean coupling over a crossing as a fraction of the peak: sqrt(pi) * w / d."""
        return SQRT_PI * self.waist / self.diameter


def gaussian_coupling(g_peak: float, geom: CavityGeometry, t_total: float, t_prime):
    """Coupling seen by an atom crossing the Gaussian mode profile.

    g(t') = g_peak * exp(-v^2 (t_total/2 - t')^2 / w^2) with v = d/t_total,
    peaked at the cavity center t' = t_total/2 and symmetric about it.  A
    float for one ``t_prime``, an array for an array of them.
    """
    tp = np.asarray(t_prime, dtype=float)
    if not np.all((0.0 <= tp) & (tp <= t_total)):
        raise ValidationError("t_prime must lie in [0, t_total]")
    u = (geom.diameter / t_total) * (0.5 * t_total - tp) / geom.waist
    g = g_peak * np.exp(-u * u)
    return float(g) if g.ndim == 0 else g


# sqrt(pi) * (w/d), not profile_mean: fit-rabi's effective-time output pins this rounding.
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

    def __reduce__(self):   # rebuilt from the time, not from the message
        return type(self), (self.time,), self.__dict__


# The Dormand-Prince 5(4) pair on the linear y' = L y: a step of size h maps y
# to R(hL) y and estimates its error as E(hL) y, where R and E are the
# stability polynomials of the 5th-order weights and of the 5th- minus
# 4th-order weights (Hairer & Wanner, Solving ODEs II, section IV.2).  Their
# coefficients of z^0 .. z^7, exact from the tableau:
_R = np.array((1.0, 1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600, 0.0))
_E = np.array((0.0, 0.0, 0.0, 0.0, 0.0, -97 / 120000, 13 / 40000, -1 / 24000))
# Both rows at once: (_RE * h^m) @ [L^m y] is the new state and its error estimate.
_RE = np.stack((_R, _E))
_POWERS = np.arange(float(_R.size))

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 5.0


def integrate(liouvillian: Liouvillian, rho0: DensityMatrix, t_end: float, *,
              t_eval: Sequence[float] | None = None,
              rtol: float = 1e-10, atol: float = 1e-12) -> Trajectory:
    """:func:`integrate_stack` of the one problem ``rho0`` under ``liouvillian``."""
    return integrate_stack([liouvillian], [rho0], t_end, t_eval=t_eval,
                           rtol=rtol, atol=atol)[0]


# A step that overflows is rejected through its non-finite error norm.
@np.errstate(over="ignore", invalid="ignore")
def integrate_stack(liouvillians: Sequence[Liouvillian], rho0s: Sequence[DensityMatrix],
                    t_end: float, *, t_eval: Sequence[float] | None = None,
                    rtol: float = 1e-10, atol: float = 1e-12) -> list[Trajectory]:
    """Propagate each ``rho0s[i]`` to ``t_end`` under the fixed generator
    ``liouvillians[i]`` with an embedded 5(4) pair; one trajectory each.

    Every problem takes the same steps: a step's error norm is its largest
    over the stack, and a stack of one steps as that problem alone.  States
    are recorded at the strictly increasing times in ``t_eval`` (default:
    just t_end).  Each trajectory's states form one stack, held to the drift
    budget when the run ends; a failure names the first bad state (``state i: ...``).
    """
    if not 0.0 <= t_end < math.inf:
        raise ValidationError("t_end must be finite and >= 0")
    if not 0 < len(rho0s) == len(liouvillians):
        raise ValidationError("the stack needs one initial state per generator")
    for liou, rho0 in zip(liouvillians, rho0s):
        if rho0.basis is not liou.basis:
            raise ValidationError(f"rho0 basis {rho0.basis} does not match generator "
                                  f"basis {liou.basis}")
    t_eval = time_grid([t_end] if t_eval is None else t_eval, "t_eval")
    if np.any(np.diff(t_eval) <= 0) or (t_eval.size and t_eval[-1] > t_end * (1 + 1e-12) + 1e-300):
        raise ValidationError("t_eval must be increasing and within [0, t_end]")

    # Recorded (problem, vec) arrays; each trajectory validates its states as one stack.
    recorded: list[np.ndarray] = []

    def trajectories() -> list[Trajectory]:
        stack = np.reshape(recorded, (-1, len(rho0s), 9))
        return [Trajectory(t_eval, DensityMatrix(unvec(stack[:, i]), liou.basis))
                for i, liou in enumerate(liouvillians)]

    t = 0.0
    y = np.array([vec(rho0.matrix) for rho0 in rho0s])
    targets = list(t_eval)
    if targets and targets[0] == 0.0:
        recorded.append(y)
        targets.pop(0)

    if not targets:
        return trajectories()

    # k[i] = [L_i^m y_i], m = 0..7, the terms of both polynomials; a rejected step reuses it.
    pows = np.array([[np.linalg.matrix_power(liou.matrix, m) for m in range(_R.size)]
                     for liou in liouvillians])
    k = (pows @ y[:, None, :, None])[..., 0]
    abs_y = np.abs(y)
    # Initial step guess from the scaled sizes of y and f.
    d0 = float(abs_y.max()) or 1.0
    d1 = float(np.abs(k[:, 1]).max())
    h = min(targets[-1] - t, 0.01 * d0 / d1 if d1 > 0 else targets[-1])
    h_min_floor = 1e-15

    while targets:
        t_next_out = targets[0]
        h = min(h, t_next_out - t)
        if h < h_min_floor * max(t, t_next_out, 1e-30):
            raise StepUnderflowError(t)
        step = (_RE * h ** _POWERS) @ k
        y_new, err = step[:, 0], step[:, 1]
        abs_new = np.abs(y_new)
        norm = (np.abs(err) / (atol + rtol * np.maximum(abs_y, abs_new))).max()
        if not np.isfinite(norm):
            norm = np.inf
        if norm <= 1.0:
            t = t + h
            y, abs_y = y_new, abs_new
            k = (pows @ y[:, None, :, None])[..., 0]
            if t >= t_next_out - 1e-15 * max(1.0, abs(t_next_out)):
                recorded.append(y)
                targets.pop(0)
            factor = _MAX_FACTOR if norm == 0 else min(_MAX_FACTOR, _SAFETY * norm ** -0.2)
            h *= max(factor, 1.0)
        else:
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)

    return trajectories()


def _expm_rows(a: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """exp(a dt_i) for each entry of the column ``dt``: the Taylor series of
    a dt_i / 2^s, squared s times, with s set by the largest dt_i."""
    span = float(dt.max(initial=0.0))
    squarings = max(0, math.frexp(float(np.abs(a).sum(axis=0).max()) * span)[1] + 1)
    b = a * (span / 2.0 ** squarings)   # |b| <= 1/2, and row i takes b * dt_i / span
    terms = [np.eye(len(a), dtype=complex)]
    for k in range(1, 19):   # the remainder is below 1e-22
        terms.append(terms[-1] @ b / k)
    frac = dt[:, 0] / span if span > 0 else dt[:, 0]
    result = np.tensordot(frac[:, None] ** np.arange(19), np.array(terms), axes=1)
    for _ in range(squarings):
        result = result @ result
    return result


def _midpoint_couplings(g_peak: float, geom: CavityGeometry | None, n) -> np.ndarray:
    """Couplings at the crossing fractions (j + 1/2)/n, j = 0..n-1 (g_peak without ``geom``).

    The first half is evaluated and mirrored onto the second, so positions
    symmetric about the center get bit-equal couplings (evaluating
    1 - (j + 1/2)/n directly does not round symmetrically).
    """
    try:   # any integer >= 1, numpy's too, but not a bool
        n = 0 if isinstance(n, bool) else operator.index(n)
    except TypeError:
        n = 0
    if n < 1:
        raise ValidationError("n must be a positive integer")
    gs = np.full(n, g_peak)
    if geom is not None:
        half = (n + 1) // 2
        gs[:half] = gaussian_coupling(g_peak, geom, 1.0, (np.arange(half) + 0.5) / n)
        gs[n - half:] = gs[:half][::-1]
    return gs


def _block_family(kind: ModelKind, rho0: DensityMatrix):
    """``(block, l0, slope)``: the invariant block of ``rho0``, the vec entries
    it reaches along the nonzero pattern of L(g) = L0 + g*L1 (the others stay
    exactly zero), and L0 and L1 of :func:`~rabicav.models.coupling_family`
    restricted to it."""
    l0, slope, basis = coupling_family(kind)
    if rho0.basis is not basis:
        raise ValidationError("rho0 basis does not match the model basis")
    v0 = vec(rho0.matrix)
    # Boolean (I | P)^8 links each index to every index it reaches along the pattern P.
    pattern = np.eye(v0.size, dtype=bool) | (l0 != 0) | (slope != 0)
    block = np.flatnonzero(np.linalg.matrix_power(pattern, v0.size - 1) @ (v0 != 0))
    sub = np.ix_(block, block)
    return block, l0[sub], slope[sub]


def nstep_propagate(kind: ModelKind, params: PhysicalParams,
                    geom: CavityGeometry | None, rho0: DensityMatrix,
                    t, n: int) -> DensityMatrix:
    """Product of n frozen-coupling propagators exp(L(g_j) t/n) at each time t.

    ``t`` is a time or a 1-D array of times (one state per time, stacked; a
    state at t = 0 is ``rho0`` itself).  g_j is the coupling at the midpoint
    (j + 1/2)/n of the crossing (constant with ``geom`` absent, where n = 1
    is the exact propagator), the same for every t, so each distinct
    generator is eigen-decomposed once, L(g_j) = V_j diag(lambda_j) V_j^-1.
    When L0 and L1 of L(g) = L0 + g*L1 commute exactly (open-cavity and
    microscopic; never the phenomenological models), the product is the
    n = 1 propagator of that family at the mean coupling fsum(g_j)/n.

    The state rides in eigen-coordinates, z = V_0^-1 x: factor j maps z to
    C_j (E_j z) with E_j = e^{lambda_j t/n} and the link C_j = V_{j+1}^-1 V_j,
    the last link V_{n-1} taking z back to x.  Links and exponentials are
    built in chunks of ``BLOCK // len(t)`` factors and the eigendecompositions
    in slices of ``BLOCK // k`` couplings (k the block size), so only the
    eigenvectors grow with n.  At n = 1 this is (e^{lambda t} * (x V^-T)) V^T.
    """
    gs, ts = _midpoint_couplings(params.g, geom, n), time_grid(t)
    n = gs.size
    block, l0, slope = _block_family(kind, rho0)
    if np.ptp(gs) > 0 and np.array_equal(l0 @ slope, slope @ l0):
        # a constant profile keeps g itself: fsum(n*g)/n can be one ulp off it
        gs, n = np.array([math.fsum(gs.tolist()) / n]), 1
    unique_gs, order = np.unique(gs, return_inverse=True)   # a constant profile has one
    k, u = block.size, unique_gs.size
    lam = np.empty((u, k), dtype=complex)
    vmat = np.empty((u, k, k), dtype=complex)
    vinv = np.empty((u + 1, k, k), dtype=complex)
    vinv[u] = np.eye(k)   # the last link, I V_{n-1}, takes z back to x
    series = {}   # generators of the degenerate factors, by coupling index
    per = BLOCK // k
    for lo in range(0, u, per):
        hi = min(lo + per, u)
        gens = l0 + unique_gs[lo:hi, None, None] * slope
        lam[lo:hi], v = np.linalg.eig(gens)
        # Near a degenerate eigenvalue (no damping, or an exceptional point) the
        # eigenvectors are nearly dependent and V's rounding, ~1e-16 cond(V), grows;
        # such factors use a series in x (V = I).  V has unit columns, so
        # cond(V) <= k^(k/2) / |det V|.
        degenerate = np.flatnonzero(np.abs(np.linalg.det(v)) < 1e-2)
        v[degenerate] = np.eye(k)
        series.update(zip((degenerate + lo).tolist(), gens[degenerate]))
        vmat[lo:hi] = v
        vinv[lo:hi] = np.linalg.inv(v)

    dt = ts[:, None] / n
    z = np.tile(vec(rho0.matrix)[block], (ts.size, 1)) @ vinv[order[0]].T
    nxt = np.append(order[1:], u)
    chunk = max(1, BLOCK // ts.size)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow ends as a non-finite z
        for lo in range(0, n, chunk):
            idx = order[lo:lo + chunk]
            links = vinv[nxt[lo:lo + chunk]] @ vmat[idx]
            exps = np.exp(lam[idx][:, None, :] * dt)
            for j, e, c in zip(idx.tolist(), exps, links):
                gen = series.get(j)
                w = e * z if gen is None else (_expm_rows(gen, dt) @ z[:, :, None])[:, :, 0]
                z = w @ c.T
    if not np.isfinite(z).all():
        culprit = (f"g = {params.g!r} is" if params.g * np.abs(slope).max() >= np.abs(l0).max()
                   else "the rates are")
        raise ValidationError(f"{culprit} too large: the n-step propagator overflows")

    out = np.zeros((ts.size, rho0.matrix.size), dtype=complex)
    out[:, block] = z
    mats = unvec(out)
    mats[ts == 0.0] = rho0.matrix
    return DensityMatrix(mats[0] if np.ndim(t) == 0 else mats, rho0.basis)
