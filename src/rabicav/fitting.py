"""Levenberg-Marquardt least squares and the physics fits built on it.

The solver keeps the classic recipe: damped scaled normal equations with the
damping factor multiplied by 10 whenever a step raises the cost and divided
by 10 on acceptance, and a forward-difference Jacobian.  The difference step
of a parameter x is ``REL_STEP * max(|x|, s)`` with ``s = min(|x0|, 1)`` from
its starting value (``s = 1`` where x0 = 0), so a timing spread of 2.4e-6 s
gets a step of 2.4e-13 s rather than a 4 % secant, while a parameter that
starts at or above 1 keeps the step ``REL_STEP * max(|x|, 1)``.

Trial points are clamped to the lower bounds.  A parameter sitting on its
bound while the gradient pushes it further down is held there: it is left
out of the step and of the gradient test.

The iteration stops, converged, on the first of three rules:

* the gradient norm drops below ``GRAD_TOL * (1 + cost)``;
* the step actually taken (after clamping) has norm below ``STEP_TOL``;
* a trial step is rejected and the linear model predicts it lowers the cost
  by no more than ``len(r) * eps * cost``, the rounding floor of the cost
  itself.  A larger damping factor only shortens that step, so no further
  progress is possible.

It gives up, unconverged, when the damping factor passes 1e14 or after
``MAX_ITER`` iterations.  Standard errors come from the final Jacobian with
its columns scaled to unit norm, so parameters of very different magnitude
are not mistaken for a singular direction.  Flat parameter directions (zero
Jacobian columns) are tolerated -- the parameter simply stays put and its
standard error diverges -- but a completely insensitive model raises a
rank-deficiency error naming the dead parameters.

The solver's five settings are module constants, the same for every fit:
``LAMBDA0 = 1e-3``, ``REL_STEP = 1e-7``, ``GRAD_TOL = 1e-8``,
``STEP_TOL = 1e-12`` and ``MAX_ITER = 500``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import ValidationError
from .closed_form import energy_mean_asymptote
from .dephase import convolve_pg
from .evolve import CavityGeometry, true_time
from .models import DecayRates, PhysicalParams

LAMBDA0 = 1e-3
REL_STEP = 1e-7
GRAD_TOL = 1e-8
STEP_TOL = 1e-12
MAX_ITER = 500


def _require_finite(name: str, values: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValidationError(f"{name}[{bad[0]}] = {values[bad[0]]} is not finite")


class TimeConvention(Enum):
    """Whether a time axis is the true flight time or the rescaled effective one."""

    TRUE = "true"
    EFFECTIVE = "effective"


@dataclass(frozen=True, eq=False)
class ExperimentSeries:
    """Time-stamped ground-state probabilities with measurement errors."""

    times: np.ndarray
    p_g: np.ndarray
    sigma: np.ndarray | None
    convention: TimeConvention

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.p_g, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "p_g", p)
        if t.size == 0 or t.shape != p.shape:
            raise ValidationError("series needs matching, nonempty times and p_g")
        _require_finite("times", t)
        _require_finite("p_g", p)
        if np.any(np.diff(t) <= 0):
            raise ValidationError("series times must be strictly increasing")
        if np.any((p < 0) | (p > 1)):
            raise ValidationError("p_g values must lie in [0, 1]")
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            object.__setattr__(self, "sigma", s)
            _require_finite("sigma", s)
            if s.shape != t.shape or np.any(s <= 0):
                raise ValidationError("sigma must be positive and match times")


class RankDeficiencyError(ValidationError):
    """The model is insensitive to every free parameter."""

    def __init__(self, names: Sequence[str]):
        super().__init__("model is insensitive to parameter(s): " + ", ".join(names))
        self.names = list(names)


@dataclass(frozen=True, eq=False)
class FitProblem:
    """Weighted nonlinear least-squares problem over named parameters."""

    model: Callable[[Mapping[str, float], np.ndarray], np.ndarray]
    times: np.ndarray
    values: np.ndarray
    sigma: np.ndarray | None
    names: tuple[str, ...]
    x0: Mapping[str, float]
    lower: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.names) == 0:
            raise ValidationError("free parameter set must not be empty")
        duplicates = sorted({n for n in self.names if self.names.count(n) > 1})
        if duplicates:
            raise ValidationError(f"free parameter(s) listed twice: {', '.join(duplicates)}")
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", y)
        if t.size < len(self.names):
            raise ValidationError("need at least as many data points as free parameters")
        _require_finite("times", t)
        _require_finite("values", y)
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            _require_finite("sigma", s)
            if np.any(s <= 0):
                raise ValidationError("sigma must be positive")
            object.__setattr__(self, "sigma", s)
        missing = [n for n in self.names if n not in self.x0]
        if missing:
            raise ValidationError(f"initial guess missing for {missing}")


@dataclass(frozen=True)
class FitResult:
    params: dict[str, float]
    stderr: dict[str, float]
    rss: float
    iterations: int
    converged: bool
    degenerate: tuple[str, ...] = ()


def _residuals(problem: FitProblem, params: dict[str, float]) -> np.ndarray:
    y = np.asarray(problem.model(params, problem.times), dtype=float)
    r = y - problem.values
    if problem.sigma is not None:
        r = r / problem.sigma
    return r


def _jacobian(problem: FitProblem, params: dict[str, float], r0: np.ndarray,
              floor: Mapping[str, float]) -> np.ndarray:
    cols = []
    for name in problem.names:
        p = dict(params)
        h = REL_STEP * max(abs(p[name]), floor[name])
        p[name] = params[name] + h
        # divide by the step actually applied, not the nominal one
        h_eff = p[name] - params[name]
        cols.append((_residuals(problem, p) - r0) / h_eff)
    return np.column_stack(cols)


def levenberg_marquardt(problem: FitProblem) -> FitResult:
    """Minimize the weighted residual sum of squares.

    The stopping rules are those of the module docstring; the cost never
    increases across accepted iterations.
    """
    params = {n: float(problem.x0[n]) for n in problem.names}
    lower = {n: problem.lower.get(n, -math.inf) for n in problem.names}
    # floor of the difference step's scale; a start too small for
    # REL_STEP * |x0| to be a normal float counts as zero
    floor = {n: min(abs(x), 1.0) if abs(x) >= np.finfo(float).tiny else 1.0
             for n, x in params.items()}
    r = _residuals(problem, params)
    cost = float(r @ r)
    rounding_floor = r.size * np.finfo(float).eps
    lam = LAMBDA0
    n_iter = 0
    converged = False
    jac = _jacobian(problem, params, r, floor)

    col_norms = np.linalg.norm(jac, axis=0)
    if np.all(col_norms == 0.0):
        raise RankDeficiencyError(problem.names)

    while n_iter < MAX_ITER:
        n_iter += 1
        grad = jac.T @ r
        # held: on the lower bound with the descent direction pointing below it
        held = [params[n] <= lower[n] and g > 0.0 for n, g in zip(problem.names, grad)]
        moving = slice(None)
        if any(held):
            moving = ~np.array(held)
            grad[~moving] = 0.0
        if np.linalg.norm(grad) <= GRAD_TOL * (1.0 + cost):
            converged = True
            break
        sub = jac[:, moving]
        jtj = sub.T @ sub
        diag = np.diag(jtj).copy()
        diag[diag <= 0.0] = 1.0
        step = np.zeros_like(grad)
        try:
            step[moving] = np.linalg.solve(jtj + lam * np.diag(diag), -grad[moving])
        except np.linalg.LinAlgError:
            raise RankDeficiencyError(problem.names)
        trial = {n: max(params[n] + s, lower[n])
                 for n, s in zip(problem.names, step)}
        actual_step = np.array([trial[n] - params[n] for n in problem.names])
        if np.linalg.norm(actual_step) <= STEP_TOL:
            converged = True
            break
        r_trial = _residuals(problem, trial)
        cost_trial = float(r_trial @ r_trial)
        if np.isfinite(cost_trial) and cost_trial < cost:
            params, r, cost = trial, r_trial, cost_trial
            lam = max(lam / 10.0, 1e-14)
            jac = _jacobian(problem, params, r, floor)
        else:
            # the linear model's gain on the unclamped step: a clamped one
            # can point uphill without the fit having converged
            predicted = -(2.0 * grad @ step + np.sum((jac @ step) ** 2))
            if predicted <= rounding_floor * cost:
                converged = True
                break
            lam *= 10.0
            if lam > 1e14:
                break

    stderr, degenerate = _standard_errors(problem, jac, cost)
    return FitResult(params, stderr, cost, n_iter, converged, tuple(degenerate))


def _standard_errors(problem: FitProblem, jac: np.ndarray, cost: float):
    """Per-parameter standard errors from the final Jacobian.

    The columns are scaled to unit norm first, so the singular-direction test
    compares directions, not units.  Directions in which the scaled normal
    matrix is singular (a zero column among them) get infinite errors; with
    unit weights the covariance is scaled by the reduced chi-square.
    """
    col_norms = np.linalg.norm(jac, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    unit = jac / col_norms
    jtj = unit.T @ unit
    n_pts, n_par = jac.shape
    dof = max(n_pts - n_par, 1)
    scale = 1.0 if problem.sigma is not None else cost / dof
    w, v = np.linalg.eigh(jtj)
    tol = max(jtj.shape[0], 1) * np.max(np.abs(w), initial=0.0) * np.finfo(float).eps
    stderr: dict[str, float] = {}
    degenerate: list[str] = []
    for i, name in enumerate(problem.names):
        var = 0.0
        singular = False
        for k in range(n_par):
            if w[k] <= tol:
                if abs(v[i, k]) > 1e-8:
                    singular = True
            else:
                var += v[i, k] ** 2 / w[k]
        if singular:
            stderr[name] = math.inf
            degenerate.append(name)
        else:
            stderr[name] = math.sqrt(var * scale) / float(col_norms[i])
    return stderr, degenerate


# ---------------------------------------------------------------------------
# Quality-factor extraction and translation identities
# ---------------------------------------------------------------------------

def q_from_rate(gamma: float, eps: float, params: PhysicalParams,
                convention: TimeConvention,
                geom: CavityGeometry | None = None) -> float:
    """Quality factor implied by equal dressed decay rates gamma1 = gamma2.

    True time: Q = 2*omega0 / (gamma * (2 eps + 1)); against the effective
    time axis the same curve fits to Q scaled by sqrt(pi) w/d.  The map is
    its own inverse, so :func:`rate_from_q` is the same arithmetic.
    """
    if gamma <= 0:
        raise ValidationError(f"a rate or Q must be positive, got {gamma}")
    q = 2.0 * params.omega0 / (gamma * (2.0 * eps + 1.0))
    if convention is TimeConvention.EFFECTIVE:
        if geom is None:
            raise ValidationError("effective-time identity needs the cavity geometry")
        q *= geom.profile_mean
    return q


def rate_from_q(q: float, eps: float, params: PhysicalParams,
                convention: TimeConvention,
                geom: CavityGeometry | None = None) -> float:
    """Inverse of :func:`q_from_rate`."""
    return q_from_rate(q, eps, params, convention, geom)


def fit_q(times: np.ndarray, omega_bar: np.ndarray, eps: float,
          params: PhysicalParams,
          convention: TimeConvention = TimeConvention.TRUE) -> float:
    """Fit a mean-energy curve to a single exponential and return Q.

    The model is Omega(inf) + (Omega(0) - Omega(inf)) e^{-omega0 t / Q} with
    the offset and amplitude fixed by eps; ``times`` are in the stated
    convention and the returned Q belongs to that convention.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(omega_bar, dtype=float)
    if t.size < 2:
        raise ValidationError("need at least two samples")
    if y[-1] >= y[0]:
        raise ValidationError("energy curve does not decay")
    offset = energy_mean_asymptote(eps, params)
    amplitude = params.omega0 / (2.0 * eps + 1.0)

    def model(p: Mapping[str, float], ts: np.ndarray) -> np.ndarray:
        return offset + amplitude * np.exp(-params.omega0 * ts / p["q"])

    # Decay-rate initial guess from the endpoint ratio.
    ratio = (y[-1] - offset) / (y[0] - offset)
    kappa0 = -math.log(max(ratio, 1e-12)) / (t[-1] - t[0])
    q0 = params.omega0 / max(kappa0, 1e-300)
    problem = FitProblem(model, t, y, None, ("q",), {"q": q0}, {"q": 0.0})
    result = levenberg_marquardt(problem)
    if not result.converged:
        raise ValidationError("quality-factor fit did not converge")
    return result.params["q"]


# ---------------------------------------------------------------------------
# Rabi-curve fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RabiFitConfig:
    """Fixed model context for a Rabi-data fit (free parameters vary on top)."""

    params: PhysicalParams
    geom: CavityGeometry
    eps: float
    gamma1: float
    gamma2: float
    gamma3: float
    delta_t: float = 0.0

    def curve(self, values: Mapping[str, float], t, tie_gammas: bool = False) -> np.ndarray:
        """The model p_g at true times ``t``, with ``values`` in place of the
        fixed parameters they name (gamma2 follows gamma1 under ``tie_gammas``)."""
        full = {"gamma1": self.gamma1, "gamma2": self.gamma2, "gamma3": self.gamma3,
                "delta_t": self.delta_t, **values}
        if tie_gammas:
            full["gamma2"] = full["gamma1"]
        rates = DecayRates.simplified(full["gamma1"], full["gamma2"], full["gamma3"], self.eps)
        return np.asarray(convolve_pg(rates, self.eps, self.params, self.geom,
                                      full["delta_t"], t))


_FREE_NAMES = ("gamma1", "gamma2", "gamma3", "delta_t")


def fit_rabi(series: ExperimentSeries, config: RabiFitConfig,
             free: Sequence[str], tie_gammas: bool = False) -> FitResult:
    """Fit open-cavity model parameters to ground-state probability data.

    ``free`` selects among gamma1, gamma2, gamma3, delta_t; with
    ``tie_gammas`` the two dressed decay rates move together and gamma2 must
    not be listed.  Effective-time series are converted to true time before
    the model is evaluated; the Gaussian-profile curve (power-law damped when
    delta_t > 0) is the model.
    """
    free = tuple(free)
    if not free:
        raise ValidationError("free parameter set must not be empty")
    for name in free:
        if name not in _FREE_NAMES:
            raise ValidationError(f"unknown free parameter {name!r}")
    if tie_gammas and "gamma2" in free:
        raise ValidationError("gamma2 cannot be free when tied to gamma1")

    t_true = (series.times if series.convention is TimeConvention.TRUE
              else true_time(series.times, config.geom))
    problem = FitProblem(lambda p, ts: config.curve(p, ts, tie_gammas), t_true, series.p_g,
                         series.sigma, free, {n: getattr(config, n) for n in free},
                         {n: 0.0 for n in free})
    return levenberg_marquardt(problem)
