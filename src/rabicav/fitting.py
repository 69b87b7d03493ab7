"""Levenberg-Marquardt least squares and the physics fits built on it.

The solver keeps the classic recipe: damped scaled normal equations with the
damping factor multiplied by 10 whenever a step raises the cost and divided
by 10 on acceptance.  The normal matrix of the Jacobian with its columns
scaled to unit norm is diagonalised once per Jacobian; the damped step for
any damping factor, the gain the linear model predicts for it and the
standard errors all come from that one ``eigh``.

The model returns its values and their exact Jacobian together (MINPACK's
``lmder``): :func:`fit_rabi` and :func:`fit_q` take both from one
closed-form pass (:meth:`rabicav.closed_form.ExpSum.slopes`), and an
accepted trial's columns are the next Jacobian.  Under the thermal
simplification S^2 = base^2 + (1 + 2 eps)(gamma1 - gamma2)^2, so p_g is
symmetric in gamma1 and gamma2 and their columns coincide at gamma1 =
gamma2: an untied fit with both free from equal starts stays on gamma1 =
gamma2 and reports infinite errors for both.

Trial points are clamped to the lower bounds.  A parameter sitting on its
bound while the gradient pushes it further down is held there: it is left
out of the step and of the gradient test.

The stopping rules do not depend on the units of the parameters or of the
data (More, "The Levenberg-Marquardt algorithm: implementation and theory",
LNM 630, 1978).  The iteration stops, converged, on the first of three:

* MINPACK's scaled gradient test: the cosine between the residual vector r
  and every Jacobian column, ``|J_j . r| / (|J_j| |r|)``, is at most
  ``GRAD_TOL``;
* the relative step test: the next step, after clamping, moves every
  parameter by at most ``STEP_TOL * (|x| + STEP_TOL)``; it is not taken;
* the rounding floor: the linear model predicts that the trial step lowers
  the cost by no more than ``len(r) * eps * cost``, the rounding floor of the
  cost itself.  A larger damping factor only shortens that step, so no
  further progress can show.  When the trial's cost lies within the floor of
  the current one, the cost cannot tell the two points apart and the trial,
  which the linear model prefers, is taken; otherwise the fit stays put.

So the cost never rises by more than its rounding floor.  The fit gives up,
unconverged, when the damping factor passes 1e14 or after ``MAX_ITER``
iterations.  Standard errors come from the last Jacobian (at the final point,
or at the one before it when the last step was taken at the rounding floor)
with its columns scaled to unit norm, so parameters of very different
magnitude are not mistaken for a singular direction.  Flat parameter
directions (zero Jacobian columns) are tolerated -- the parameter simply
stays put and its standard error diverges -- but a completely insensitive
model raises a rank-deficiency error naming the dead parameters.

The solver's four settings are module constants, the same for every fit:
``LAMBDA0 = 1e-3``, ``GRAD_TOL = 1e-10``, ``STEP_TOL = 1e-10`` and
``MAX_ITER = 500``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import ValidationError
from .closed_form import _pg_sum, energy_mean_asymptote
from .dephase import convolve_pg
from .evolve import CavityGeometry, true_time
from .models import DecayRates, PhysicalParams

LAMBDA0 = 1e-3
GRAD_TOL = 1e-10
STEP_TOL = 1e-10
MAX_ITER = 500

_EPS = np.finfo(float).eps


def _require_finite(name: str, values: np.ndarray) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.flatnonzero(~finite)[0]
        raise ValidationError(f"{name}[{bad}] = {values[bad]} is not finite")


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
        if (np.diff(t) <= 0).any():
            raise ValidationError("series times must be strictly increasing")
        if ((p < 0) | (p > 1)).any():
            raise ValidationError("p_g values must lie in [0, 1]")
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            object.__setattr__(self, "sigma", s)
            _require_finite("sigma", s)
            if s.shape != t.shape or (s <= 0).any():
                raise ValidationError("sigma must be positive and match times")


class RankDeficiencyError(ValidationError):
    """The model is insensitive to every free parameter."""

    def __init__(self, names: Sequence[str]):
        super().__init__("model is insensitive to parameter(s): " + ", ".join(names))
        self.names = list(names)

    def __reduce__(self):   # rebuilt from the names, not from the message
        return type(self), (self.names,), self.__dict__


@dataclass(frozen=True, eq=False)
class FitProblem:
    """Weighted nonlinear least-squares problem over named parameters.

    ``model(params, t)`` returns the model's values at ``t`` and their
    Jacobian: a (len(names), len(t)) array of derivatives, one row per free
    parameter in the order of ``names``.
    """

    model: Callable[[Mapping[str, float], np.ndarray], tuple[np.ndarray, np.ndarray]]
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
            if (s <= 0).any():
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


def _residuals(problem: FitProblem, x: np.ndarray):
    """The weighted residuals at ``x`` and their Jacobian, one column per parameter."""
    y, jac = problem.model(dict(zip(problem.names, x.tolist())), problem.times)
    r = np.asarray(y, dtype=float) - problem.values
    if problem.sigma is not None:
        r /= problem.sigma
        jac = jac / problem.sigma
    return r, jac.T


def _scaled_normal(jac: np.ndarray, held: np.ndarray | None = None):
    """Column norms of ``jac`` and the eigenpairs of its normal matrix with the
    columns scaled to unit norm; a zero column keeps norm 1.

    The rows and columns of ``held`` parameters are replaced by the identity's,
    which keeps them out of a step taken in that eigenbasis.
    """
    normal = jac.T @ jac
    norms = np.sqrt(normal.diagonal())
    norms[norms == 0.0] = 1.0
    normal /= norms
    normal /= norms[:, None]
    if held is not None:
        normal[held, :] = 0.0
        normal[:, held] = 0.0
        normal[held, held] = 1.0
    w, v = np.linalg.eigh(normal)
    return norms, w, v


def levenberg_marquardt(problem: FitProblem) -> FitResult:
    """Minimize the weighted residual sum of squares.

    The stopping rules are those of the module docstring; the cost never
    rises by more than its rounding floor across iterations.
    """
    x = np.array([float(problem.x0[n]) for n in problem.names])
    lower = np.array([float(problem.lower.get(n, -math.inf)) for n in problem.names])
    r, jac = _residuals(problem, x)
    cost = float(r @ r)
    if not jac.any():
        raise RankDeficiencyError(problem.names)
    norms, w, v = scaled = _scaled_normal(jac)

    rounding_floor = r.size * _EPS
    lam = LAMBDA0
    n_iter = 0
    converged = False
    fresh = True
    while n_iter < MAX_ITER:
        n_iter += 1
        if fresh:
            fresh = False
            # the gradient with the Jacobian's columns scaled to unit norm
            grad = jac.T @ r / norms
            # held: on the lower bound with the descent direction pointing below it
            held = x <= lower
            if held.any():
                held &= grad > 0.0
                grad[held] = 0.0
                _, w, v = _scaled_normal(jac, held)
            # MINPACK's scale-free test: |grad| / |r| is the cosine of r with each column
            if np.abs(grad).max() <= GRAD_TOL * math.sqrt(cost):
                converged = True
                break
            # the damped step is to_x @ (p / (w + lam)) for every lam
            p = v.T @ grad
            to_x = v / -norms[:, None]
            x_tol = STEP_TOL * (np.abs(x) + STEP_TOL)
        q = p / (w + lam)
        trial = np.maximum(x + to_x @ q, lower)
        if (np.abs(trial - x) <= x_tol).all():
            converged = True
            break
        r_trial, jac_trial = _residuals(problem, trial)
        cost_trial = float(r_trial @ r_trial)
        # the linear model's gain on the unclamped step, -(2 g.step + |J step|^2):
        # a clamped step can point uphill without the fit having converged
        predicted = float(q @ (2.0 * p - w * q))
        noise = rounding_floor * cost
        at_floor = predicted <= noise
        if at_floor and abs(cost_trial - cost) <= noise:
            # the cost cannot tell the points apart and the linear model prefers the trial
            x, r, cost = trial, r_trial, cost_trial
            converged = True
            break
        if cost_trial < cost and math.isfinite(cost_trial):
            x, r, cost = trial, r_trial, cost_trial
            lam = max(lam / 10.0, 1e-14)
            jac = jac_trial
            norms, w, v = scaled = _scaled_normal(jac)
            fresh = True
        elif at_floor:
            converged = True
            break
        else:
            lam *= 10.0
            if lam > 1e14:
                break

    stderr, degenerate = _standard_errors(problem, scaled, cost, r.size)
    return FitResult(dict(zip(problem.names, x.tolist())), stderr, cost, n_iter, converged,
                     degenerate)


def _standard_errors(problem: FitProblem, scaled, cost: float, n_pts: int):
    """Per-parameter standard errors from the final Jacobian's ``_scaled_normal``.

    The columns are scaled to unit norm first, so the singular-direction test
    compares directions, not units.  Directions in which the scaled normal
    matrix is singular (a zero column among them) get infinite errors; with
    unit weights the covariance is scaled by the reduced chi-square.
    """
    norms, w, v = scaled
    n_par = w.size
    scale = 1.0 if problem.sigma is not None else cost / max(n_pts - n_par, 1)
    flat = w <= n_par * _EPS * np.abs(w).max()
    singular = (np.abs(v[:, flat]) > 1e-8).any(axis=1)
    v, w = v[:, ~flat], w[~flat]
    stderr = np.sqrt((v * v) @ (scale / w)) / norms
    stderr[singular] = math.inf
    return (dict(zip(problem.names, stderr.tolist())),
            tuple(n for n, s in zip(problem.names, singular) if s))


# ---------------------------------------------------------------------------
# Quality-factor extraction and translation identities
# ---------------------------------------------------------------------------

def q_from_rate(gamma: float, eps: float, params: PhysicalParams,
                convention: TimeConvention,
                geom: CavityGeometry | None = None) -> float:
    """Quality factor implied by equal dressed decay rates gamma1 = gamma2.

    True time: Q = 2*omega0 / (gamma * (2 eps + 1)); against the effective
    time axis the same curve fits to Q scaled by sqrt(pi) w/d.  The map is
    its own inverse, so :func:`rate_from_q` is the same arithmetic.  An input
    outside (0, inf), a NaN included, or a result that is not finite raises
    :class:`ValidationError`.
    """
    if not 0 < gamma < math.inf:
        raise ValidationError(f"a rate or Q must be positive and finite, got {gamma}")
    q = 2.0 * params.omega0 / (gamma * (2.0 * eps + 1.0))
    if convention is TimeConvention.EFFECTIVE:
        if geom is None:
            raise ValidationError("effective-time identity needs the cavity geometry")
        q *= geom.profile_mean
    if not math.isfinite(q):
        raise ValidationError(f"{gamma} gives a rate or Q that is not finite")
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

    def slopes(p: Mapping[str, float], ts: np.ndarray):
        exponent = -params.omega0 * ts / p["q"]
        decay = amplitude * np.exp(exponent)
        # d/dq of exp(-omega0 t/q) is exp(-omega0 t/q) * omega0 t/q^2
        return offset + decay, (decay * (-exponent / p["q"]))[None]

    # Decay-rate initial guess from the endpoint ratio.
    ratio = (y[-1] - offset) / (y[0] - offset)
    kappa0 = -math.log(max(ratio, 1e-12)) / (t[-1] - t[0])
    q0 = params.omega0 / max(kappa0, 1e-300)
    problem = FitProblem(slopes, t, y, None, ("q",), {"q": q0}, {"q": 0.0})
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
        rates, delta_t = self._resolve(values, tie_gammas)
        return np.asarray(convolve_pg(rates, self.eps, self.params, self.geom, delta_t, t))

    def slopes(self, values: Mapping[str, float], t, tie_gammas: bool = False):
        """:meth:`curve` and its derivatives with respect to the parameters
        ``values`` names, one row each in that order, from the closed form."""
        rates, delta_t = self._resolve(values, tie_gammas)
        gammas = [n for n in values if n != "delta_t"]
        # the chain rule: each free rate moves (gamma1, gamma2, gamma3) along a direction
        along = [_RATE_DIRECTIONS[n] for n in gammas]
        if tie_gammas:
            along = [(u1, u1, u3) for u1, _, u3 in along]
        curve = _pg_sum(rates, self.eps, self.params, t, self.geom, along)
        y, columns = curve.slopes(delta_t, t, "delta_t" in values)
        if "delta_t" in values:
            # its column comes last
            columns = columns[[gammas.index(n) if n != "delta_t" else -1 for n in values]]
        return y, columns

    def _resolve(self, values: Mapping[str, float], tie_gammas: bool):
        full = {"gamma1": self.gamma1, "gamma2": self.gamma2, "gamma3": self.gamma3,
                "delta_t": self.delta_t, **values}
        if tie_gammas:
            full["gamma2"] = full["gamma1"]
        rates = DecayRates.simplified(full["gamma1"], full["gamma2"], full["gamma3"], self.eps)
        return rates, full["delta_t"]


_RATE_DIRECTIONS = {"gamma1": (1.0, 0.0, 0.0), "gamma2": (0.0, 1.0, 0.0),
                    "gamma3": (0.0, 0.0, 1.0)}
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
    problem = FitProblem(lambda p, ts: config.slopes(p, ts, tie_gammas), t_true, series.p_g,
                         series.sigma, free, {n: getattr(config, n) for n in free},
                         {n: 0.0 for n in free})
    return levenberg_marquardt(problem)
