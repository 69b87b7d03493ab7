import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabicav import closed_form as cf
from rabicav import dephase, evolve, fitting, models
from rabicav.core import ValidationError
from rabicav.fitting import (
    ExperimentSeries, FitProblem, RankDeficiencyError, TimeConvention,
    levenberg_marquardt,
)


def test_cost_never_increases_from_start():
    # accepted iterations only ever lower the cost, so the final residual sum
    # cannot exceed the initial one even on an awkward start
    t = np.linspace(0.0, 6.0, 35)

    def model(p, ts):
        cos, sin = np.cos(p["w"] * ts), np.sin(p["w"] * ts)
        return p["a"] * cos, np.array([cos, -p["a"] * ts * sin])

    y = model({"a": 1.0, "w": 2.0}, t)[0]
    problem = FitProblem(model, t, y, None, ("a", "w"), {"a": -0.5, "w": 2.6})
    start = model(problem.x0, t)[0] - y
    result = levenberg_marquardt(problem)
    assert result.rss <= float(start @ start)


def test_exact_model_recovery():
    # noiseless data generated by the model itself: zero-residual fixed point
    t = np.linspace(0.0, 10.0, 40)
    truth = {"a": 2.5, "k": 0.8}

    def model(p, ts):
        decay = np.exp(-p["k"] * ts)
        return p["a"] * decay, np.array([decay, -p["a"] * ts * decay])

    data = model(truth, t)[0]
    problem = FitProblem(model, t, data, None, ("a", "k"), {"a": 1.0, "k": 0.3})
    result = levenberg_marquardt(problem)
    assert result.converged
    assert result.params["a"] == pytest.approx(2.5, rel=1e-8)
    assert result.params["k"] == pytest.approx(0.8, rel=1e-8)


def test_affine_model_matches_normal_equations():
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 5.0, 30)
    y = 1.7 * t - 0.4 + rng.normal(scale=0.05, size=t.size)

    def model(p, ts):
        return p["a"] * ts + p["b"], np.array([ts, np.ones_like(ts)])

    problem = FitProblem(model, t, y, None, ("a", "b"), {"a": 0.0, "b": 0.0})
    result = levenberg_marquardt(problem)
    design = np.column_stack([t, np.ones_like(t)])
    direct = np.linalg.solve(design.T @ design, design.T @ y)
    assert result.params["a"] == pytest.approx(direct[0], abs=1e-10)
    assert result.params["b"] == pytest.approx(direct[1], abs=1e-10)


def test_gradient_norm_invariant_at_convergence():
    t = np.linspace(0.0, 4.0, 25)

    def model(p, ts):
        return p["a"] * np.sin(ts) + p["b"], np.array([np.sin(ts), np.ones_like(ts)])

    y = model({"a": 1.2, "b": 0.3}, t)[0] + 0.01 * np.cos(5 * t)
    problem = FitProblem(model, t, y, None, ("a", "b"), {"a": 0.5, "b": 0.0})
    result = levenberg_marquardt(problem)
    assert result.converged

    def residuals(p):
        return model(p, t)[0] - y

    r = residuals(result.params)
    jac = np.column_stack([
        (residuals({**result.params, n: result.params[n] + 1e-8}) - r) / 1e-8
        for n in ("a", "b")])
    assert np.linalg.norm(jac.T @ r) <= 1e-6 * (1.0 + float(r @ r))


def test_bounds_are_clamped():
    t = np.linspace(0.0, 3.0, 20)

    def model(p, ts):
        decay = np.exp(-p["k"] * ts)
        return decay, (-ts * decay)[None]

    y = model({"k": 0.05}, t)[0]
    problem = FitProblem(model, t, y, None, ("k",), {"k": 2.0}, {"k": 0.0})
    result = levenberg_marquardt(problem)
    assert result.params["k"] >= 0.0
    assert result.params["k"] == pytest.approx(0.05, rel=1e-6)


def test_empty_free_set_rejected():
    with pytest.raises(ValidationError):
        FitProblem(lambda p, ts: ts, np.arange(3.0), np.arange(3.0), None, (), {})


def test_constant_data_rank_deficiency():
    t = np.linspace(0.0, 3.0, 20)

    def model(p, ts):
        return np.full_like(ts, 0.5), np.zeros((1, ts.size))  # insensitive to the parameter

    problem = FitProblem(model, t, np.full_like(t, 0.5), None, ("a",), {"a": 1.0})
    with pytest.raises(RankDeficiencyError):
        levenberg_marquardt(problem)


def test_exactly_dead_parameter_gets_infinite_stderr():
    t = np.linspace(0.0, 3.0, 20)

    def model(p, ts):
        return p["a"] * ts, np.array([ts, np.zeros_like(ts)])  # "c" never enters

    data = 1.4 * t
    problem = FitProblem(model, t, data, None, ("a", "c"), {"a": 1.0, "c": 5.0})
    result = levenberg_marquardt(problem)
    assert result.params["a"] == pytest.approx(1.4, rel=1e-8)
    assert result.params["c"] == 5.0
    assert math.isinf(result.stderr["c"])
    assert "c" in result.degenerate


def test_energy_fit_is_flat_in_gamma3(params):
    # energy objective with gamma1 = gamma2 constrained: the curve is
    # independent of gamma3, so the fit completes with the decay rate pinned
    # while the gamma3 error bar swamps its entire physical range
    eps = 0.0466
    ts = np.linspace(1e-6, 430e-6, 200)

    def model(p, t):
        rates = models.DecayRates.simplified(p["gamma"], p["gamma"], p["gamma3"], eps)
        # at gamma1 = gamma2 one term is left: (omega0/(2 eps + 1)) e^{-gamma (2 eps + 1) t/2}
        slope = -0.5 * params.omega0 * t * np.exp(-p["gamma"] * (2 * eps + 1) * t / 2)
        return np.asarray(cf.energy_mean(rates, eps, params, t)), np.array([slope, 0.0 * t])

    gamma3_true = 9000.0
    data = model({"gamma": 17.73, "gamma3": gamma3_true}, ts)[0]
    sigma = np.full_like(ts, 1e-3 * params.omega0)
    problem = FitProblem(model, ts, data, sigma, ("gamma", "gamma3"),
                         {"gamma": 20.0, "gamma3": 8000.0},
                         {"gamma": 0.0, "gamma3": 0.0})
    result = levenberg_marquardt(problem)
    assert result.converged
    assert result.params["gamma"] == pytest.approx(17.73, rel=1e-6)
    assert result.stderr["gamma"] < 1.0
    assert math.isinf(result.stderr["gamma3"]) or result.stderr["gamma3"] > 5 * gamma3_true


def test_fit_q_single_exponential_roundtrip(params):
    eps = 0.0466
    q_true = 3.3e10
    ts = np.linspace(0.0, 430e-6, 431)
    offset = cf.energy_mean_asymptote(eps, params)
    amp = params.omega0 / (2 * eps + 1.0)
    curve = offset + amp * np.exp(-params.omega0 * ts / q_true)
    q = fitting.fit_q(ts, curve, eps, params, TimeConvention.TRUE)
    assert q == pytest.approx(q_true, rel=1e-6)


def test_fit_q_identity_paper_rates(params, paper_rates):
    ts = np.linspace(0.0, 430e-6, 431)
    curve = cf.energy_mean(paper_rates, 0.0466, params, ts)
    q = fitting.fit_q(ts, curve, 0.0466, params, TimeConvention.TRUE)
    identity = fitting.q_from_rate(17.73, 0.0466, params, TimeConvention.TRUE)
    assert q == pytest.approx(identity, rel=1e-9)
    assert q == pytest.approx(3.31e10, rel=0.01)


def test_fit_q_zero_temperature_identity(params):
    # eps = 0 and equal rates: Q = 2 omega0 / gamma exactly
    gamma = 44296.6
    assert fitting.q_from_rate(gamma, 0.0, params, TimeConvention.TRUE) == \
        2.0 * params.omega0 / gamma


def test_fit_q_rejects_non_decaying(params):
    ts = np.linspace(0.0, 1e-4, 50)
    with pytest.raises(ValidationError):
        fitting.fit_q(ts, np.ones_like(ts), 0.0466, params, TimeConvention.TRUE)


def test_rate_q_identities_roundtrip(params, geometry):
    for convention, geom in ((TimeConvention.TRUE, None),
                             (TimeConvention.EFFECTIVE, geometry)):
        q = fitting.q_from_rate(17.73, 0.0466, params, convention, geom)
        back = fitting.rate_from_q(q, 0.0466, params, convention, geom)
        assert back == pytest.approx(17.73, rel=1e-14)
    with pytest.raises(ValidationError):
        fitting.q_from_rate(17.73, 0.0466, params, TimeConvention.EFFECTIVE)


def test_effective_identity_reproduces_reported_rate(params, geometry):
    gamma = fitting.rate_from_q(7e7, 0.0466, params, TimeConvention.EFFECTIVE, geometry)
    assert gamma == pytest.approx(1772.8, abs=1.0)
    # the true-time identity gives a very different number; only the
    # effective-time one matches the reported 1772
    gamma_true = fitting.rate_from_q(7e7, 0.0466, params, TimeConvention.TRUE)
    assert abs(gamma_true - 1772.8) > 1000.0


def test_time_convention_consistency(params, paper_rates, geometry):
    # the same physical data tagged either way fits to identical rates
    ts = np.arange(1.0, 301.0) * 1e-6
    data = np.asarray(cf.opencavity_pg(paper_rates, 0.0466, params, ts, geometry=geometry))
    config = fitting.RabiFitConfig(params, geometry, 0.0466, gamma1=25.0,
                                   gamma2=25.0, gamma3=0.1 * params.g)
    fit_true = fitting.fit_rabi(
        ExperimentSeries(ts, data, None, TimeConvention.TRUE),
        config, free=("gamma1", "gamma3"), tie_gammas=True)
    fit_eff = fitting.fit_rabi(
        ExperimentSeries(evolve.effective_time(ts, geometry), data, None,
                         TimeConvention.EFFECTIVE),
        config, free=("gamma1", "gamma3"), tie_gammas=True)
    for name in ("gamma1", "gamma3"):
        assert fit_true.params[name] == pytest.approx(fit_eff.params[name], rel=1e-6)


def test_fit_rabi_recovers_spread(params, geometry):
    rates = models.DecayRates.simplified(1772.0, 1772.0, 0.0, 0.0466)
    ts = np.arange(1.0, 431.0) * 1e-6
    dt_true = 2.37e-6
    data = np.asarray([dephase.convolve_pg(rates, 0.0466, params, geometry, dt_true, t)
                       for t in ts])
    series = ExperimentSeries(ts, np.clip(data, 0.0, 1.0), None, TimeConvention.TRUE)
    config = fitting.RabiFitConfig(params, geometry, 0.0466, gamma1=1772.0,
                                   gamma2=1772.0, gamma3=0.0, delta_t=1e-6)
    fit = fitting.fit_rabi(series, config, free=("delta_t",))
    assert fit.converged
    assert fit.params["delta_t"] == pytest.approx(dt_true, rel=0.01)


def test_fit_rabi_validation(params, geometry):
    ts = np.arange(1.0, 10.0) * 1e-6
    series = ExperimentSeries(ts, np.full_like(ts, 0.4), None, TimeConvention.TRUE)
    config = fitting.RabiFitConfig(params, geometry, 0.0466, 17.73, 17.73, 100.0)
    with pytest.raises(ValidationError):
        fitting.fit_rabi(series, config, free=())
    with pytest.raises(ValidationError):
        fitting.fit_rabi(series, config, free=("gamma2",), tie_gammas=True)
    with pytest.raises(ValidationError):
        fitting.fit_rabi(series, config, free=("omega0",))


def test_series_validation():
    with pytest.raises(ValidationError):
        ExperimentSeries(np.array([1.0, 1.0]), np.array([0.1, 0.2]), None,
                         TimeConvention.TRUE)
    with pytest.raises(ValidationError):
        ExperimentSeries(np.array([1.0, 2.0]), np.array([0.1, 1.2]), None,
                         TimeConvention.TRUE)
    with pytest.raises(ValidationError):
        ExperimentSeries(np.array([1.0, 2.0]), np.array([0.1, 0.2]),
                         np.array([0.1, 0.0]), TimeConvention.TRUE)


# ---------------------------------------------------------------------------
# Pinned fits, step sizing and stopping
# ---------------------------------------------------------------------------

def _digest(result) -> str:
    """sha256 of a fit's parameters, residual sum and iteration count.

    The pinned digests were taken with the scale-free stopping tests and the
    exact Jacobians, with numpy 2.4 and glibc's libm on x86-64 Linux.  A platform whose exp or BLAS
    rounds differently gives other digests.
    """
    key = (sorted((n, float(v)) for n, v in result.params.items()),
           float(result.rss), result.iterations)
    return hashlib.sha256(repr(key).encode()).hexdigest()


def test_tied_fit_is_pinned(params, geometry, paper_rates):
    rng = np.random.default_rng(11)
    ts = np.arange(1.0, 201.0) * 1e-6
    truth = cf.opencavity_pg(paper_rates, 0.0466, params, evolve.true_time(ts, geometry),
                             geometry=geometry)
    data = np.clip(truth + rng.normal(scale=0.01, size=ts.size), 0.0, 1.0)
    series = ExperimentSeries(ts, data, np.full(ts.size, 0.01), TimeConvention.EFFECTIVE)
    config = fitting.RabiFitConfig(params, geometry, 0.0466, gamma1=25.0, gamma2=25.0,
                                   gamma3=0.1 * params.g)
    result = fitting.fit_rabi(series, config, ("gamma1", "gamma3"), tie_gammas=True)
    assert result.converged
    assert _digest(result) == "b08987e8b19db631f7c7692655d13d7a0405a93d603418cbadcd9aa2e6887ec9"


def test_q_fit_is_pinned(params, paper_rates, monkeypatch):
    results = []

    def spy(problem, **kw):
        results.append(levenberg_marquardt(problem, **kw))
        return results[-1]

    monkeypatch.setattr(fitting, "levenberg_marquardt", spy)
    ts = np.linspace(0.0, 430e-6, 431)
    curve = cf.energy_mean(paper_rates, 0.0466, params, ts)
    curve = curve + np.random.default_rng(12).normal(scale=1e-8 * params.omega0, size=ts.size)
    q = fitting.fit_q(ts, curve, 0.0466, params, TimeConvention.TRUE)
    assert results[0].params["q"] == q
    assert results[0].converged
    assert _digest(results[0]) == "760ba1de4c04e98a5a4479ffdac62e710f2035ef005413d3733057e1bcd314d2"


def test_microsecond_scale_parameter_converges_quickly():
    # a decay time of 2 us: the stopping tests are scale-free, so a parameter
    # of order 1e-6 ends in a few iterations, as one of order 1 would
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 1e-5, 60)

    def model(p, ts):
        decay = np.exp(-ts / p["tau"])
        return decay, (decay * ts / p["tau"] ** 2)[None]

    sigma = np.full(t.size, 0.01)
    y = model({"tau": 2.0e-6}, t)[0] + rng.normal(scale=0.01, size=t.size)
    result = levenberg_marquardt(FitProblem(model, t, y, sigma, ("tau",), {"tau": 3e-6}))
    assert result.converged
    assert result.iterations <= 6
    # a Gauss-Newton step moves it by a negligible fraction of its error bar
    values, (slope,) = model(result.params, t)
    r = (values - y) / sigma
    dr = slope / sigma
    assert result.stderr["tau"] == pytest.approx(1.0 / np.linalg.norm(dr), rel=1e-5)
    assert abs(dr @ r) / (dr @ dr) <= 1e-3 * result.stderr["tau"]


def test_gamma1_delta_t_fit_has_finite_stderrs(params, geometry, paper_rates):
    # the rate and the timing spread differ by ten decades in magnitude but
    # are well separated in the data; both get finite error bars, and the fit
    # stops within a few steps of reaching its optimum
    rng = np.random.default_rng(6)
    ts = np.arange(1.0, 201.0) * 1e-6
    truth = dephase.convolve_pg(paper_rates, 0.0466, params, geometry, 2.37e-6, ts)
    data = np.clip(truth + rng.normal(scale=0.01, size=ts.size), 0.0, 1.0)
    series = ExperimentSeries(ts, data, np.full(ts.size, 0.01), TimeConvention.TRUE)
    config = fitting.RabiFitConfig(params, geometry, 0.0466, gamma1=17.73, gamma2=17.73,
                                   gamma3=0.07 * params.g, delta_t=2.37e-6)
    result = fitting.fit_rabi(series, config, ("gamma1", "delta_t"))
    assert result.converged
    assert result.iterations <= 8
    assert result.degenerate == ()
    for name, true in (("gamma1", 17.73), ("delta_t", 2.37e-6)):
        err = result.stderr[name]
        assert math.isfinite(err) and err > 0.0
        assert abs(result.params[name] - true) <= 5.0 * err


def test_stderr_is_independent_of_parameter_units():
    # rescaling a parameter's unit rescales its error bar and nothing else
    t = np.linspace(0.0, 4.0, 30)
    y = 1.3 * np.exp(-0.7 * t) + 0.02 * np.sin(9.0 * t)

    def fit(unit):
        def model(p, ts):
            decay = np.exp(-p["k"] * unit * ts)
            return p["a"] * decay, np.array([decay, -p["a"] * unit * ts * decay])

        problem = FitProblem(model, t, y, None, ("a", "k"), {"a": 1.3, "k": 0.7 / unit})
        return levenberg_marquardt(problem)

    base, scaled = fit(1.0), fit(1e9)
    assert math.isfinite(scaled.stderr["k"])
    assert scaled.stderr["k"] * 1e9 == pytest.approx(base.stderr["k"], rel=1e-5)
    assert scaled.stderr["a"] == pytest.approx(base.stderr["a"], rel=1e-5)


@pytest.mark.parametrize("field, bad", [
    ("times", math.nan), ("p_g", math.nan), ("sigma", math.nan),
    ("sigma", math.inf), ("times", math.inf),
])
def test_series_rejects_non_finite_values(field, bad):
    arrays = {"times": np.array([1.0, 2.0, 3.0]), "p_g": np.array([0.1, 0.2, 0.3]),
              "sigma": np.array([0.01, 0.01, 0.01])}
    arrays[field][2] = bad
    with pytest.raises(ValidationError, match=rf"{field}\[2\] = .* is not finite"):
        ExperimentSeries(arrays["times"], arrays["p_g"], arrays["sigma"],
                         TimeConvention.TRUE)


@pytest.mark.parametrize("field", ["times", "values", "sigma"])
def test_fit_problem_rejects_non_finite_values(field):
    arrays = {"times": np.arange(4.0), "values": np.arange(4.0), "sigma": np.ones(4)}
    arrays[field][1] = math.nan
    with pytest.raises(ValidationError, match=rf"{field}\[1\] = nan is not finite"):
        FitProblem(lambda p, ts: p["a"] * ts, arrays["times"], arrays["values"],
                   arrays["sigma"], ("a",), {"a": 1.0})


def test_duplicate_free_parameters_rejected(params, geometry):
    with pytest.raises(ValidationError, match="listed twice: a"):
        FitProblem(lambda p, ts: p["a"] * ts, np.arange(4.0), np.arange(4.0), None,
                   ("a", "a"), {"a": 1.0})
    ts = np.arange(1.0, 10.0) * 1e-6
    series = ExperimentSeries(ts, np.full_like(ts, 0.4), None, TimeConvention.TRUE)
    config = fitting.RabiFitConfig(params, geometry, 0.0466, 17.73, 17.73, 100.0)
    with pytest.raises(ValidationError, match="listed twice: gamma1"):
        fitting.fit_rabi(series, config, free=("gamma1", "gamma3", "gamma1"))


@pytest.mark.parametrize("x0", [{"a": 1.0, "b": 1.0}, {"a": 3.0, "b": 0.2},
                                {"a": 0.0, "b": 0.0}])
def test_parameter_held_on_its_bound(x0):
    # the unconstrained intercept is negative; with b >= 0 the optimum is
    # b = 0 and the least-squares slope through the origin, from any start
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 5.0, 30)
    y = 1.7 * t - 0.4 + rng.normal(scale=0.05, size=t.size)

    def model(p, ts):
        return p["a"] * ts + p["b"], np.array([ts, np.ones_like(ts)])

    result = levenberg_marquardt(FitProblem(model, t, y, None, ("a", "b"), x0, {"b": 0.0}))
    assert result.converged
    assert result.params["b"] == 0.0
    assert result.params["a"] == pytest.approx((t @ y) / (t @ t), rel=1e-9)


# ---------------------------------------------------------------------------
# Scale-free stopping: noisy energy curves, zero starts, an independent oracle
# ---------------------------------------------------------------------------

def _noisy_energy(params, paper_rates, seed):
    ts = np.linspace(0.0, 430e-6, 431)
    curve = cf.energy_mean(paper_rates, 0.0466, params, ts)
    return ts, curve + np.random.default_rng(seed).normal(scale=1e-4 * params.omega0,
                                                          size=ts.size)


@pytest.mark.parametrize("seed", range(4))
def test_noisy_fit_q_lands_on_the_cost_minimum(params, paper_rates, seed):
    # the cost is near 5e17 here: a gradient test against (1 + cost) passed
    # at the endpoint guess, up to 5 % off, and returned it as the fit
    ts, y = _noisy_energy(params, paper_rates, seed)
    q = fitting.fit_q(ts, y, 0.0466, params, TimeConvention.TRUE)
    offset = cf.energy_mean_asymptote(0.0466, params)
    amp = params.omega0 / (2 * 0.0466 + 1.0)
    grid = np.linspace(3.2e10, 3.45e10, 2501)
    cost = np.sum((offset + amp * np.exp(-params.omega0 * ts / grid[:, None]) - y) ** 2, axis=1)
    # one-parameter standard error from the analytic slope in Q
    slope = amp * np.exp(-params.omega0 * ts / q) * params.omega0 * ts / q**2
    stderr = math.sqrt(cost.min() / (ts.size - 1)) / np.linalg.norm(slope)
    assert abs(q - grid[np.argmin(cost)]) <= stderr


def test_zero_delta_t_start_reaches_the_same_optimum(params, geometry, paper_rates):
    # fit-rabi starts delta_t at 0 by default; its exact column there, which a
    # difference step sized to 1e-7 s took as a 4 % secant, reaches the same optimum
    rng = np.random.default_rng(4)
    ts = np.arange(1.0, 201.0) * 1e-6
    truth = dephase.convolve_pg(paper_rates, 0.0466, params, geometry, 2.37e-6, ts)
    data = np.clip(truth + rng.normal(scale=0.01, size=ts.size), 0.0, 1.0)
    series = ExperimentSeries(ts, data, np.full(ts.size, 0.01), TimeConvention.TRUE)
    fits = [fitting.fit_rabi(series, fitting.RabiFitConfig(
                params, geometry, 0.0466, 17.73, 17.73, 0.07 * params.g, delta_t=start),
                ("gamma1", "delta_t")) for start in (0.0, 2.37e-6)]
    assert all(fit.converged for fit in fits)
    assert fits[0].rss == pytest.approx(fits[1].rss, rel=1e-9)


def _tied_fit(params, geometry, paper_rates):
    rng = np.random.default_rng(11)
    ts = np.arange(1.0, 201.0) * 1e-6
    truth = cf.opencavity_pg(paper_rates, 0.0466, params, evolve.true_time(ts, geometry),
                             geometry=geometry)
    data = np.clip(truth + rng.normal(scale=0.01, size=ts.size), 0.0, 1.0)
    series = ExperimentSeries(ts, data, np.full(ts.size, 0.01), TimeConvention.EFFECTIVE)
    config = fitting.RabiFitConfig(params, geometry, 0.0466, gamma1=25.0, gamma2=25.0,
                                   gamma3=0.1 * params.g)
    fitting.fit_rabi(series, config, ("gamma1", "gamma3"), tie_gammas=True)


def _delta_t_fit(params, geometry, paper_rates):
    rng = np.random.default_rng(6)
    ts = np.arange(1.0, 201.0) * 1e-6
    truth = dephase.convolve_pg(paper_rates, 0.0466, params, geometry, 2.37e-6, ts)
    data = np.clip(truth + rng.normal(scale=0.01, size=ts.size), 0.0, 1.0)
    series = ExperimentSeries(ts, data, np.full(ts.size, 0.01), TimeConvention.TRUE)
    config = fitting.RabiFitConfig(params, geometry, 0.0466, gamma1=17.73, gamma2=17.73,
                                   gamma3=0.07 * params.g, delta_t=2.37e-6)
    fitting.fit_rabi(series, config, ("gamma1", "delta_t"))


def _q_fit(params, geometry, paper_rates):
    fitting.fit_q(*_noisy_energy(params, paper_rates, 0), 0.0466, params)


@pytest.mark.parametrize("fit", [_tied_fit, _delta_t_fit, _q_fit])
def test_fit_agrees_with_scipy_least_squares(fit, params, geometry, paper_rates, monkeypatch):
    from scipy.optimize import least_squares

    seen = []

    def spy(problem):
        seen.append((problem, levenberg_marquardt(problem)))
        return seen[-1][1]

    monkeypatch.setattr(fitting, "levenberg_marquardt", spy)
    fit(params, geometry, paper_rates)
    [(problem, result)] = seen

    def residuals(x):
        r = problem.model(dict(zip(problem.names, x)), problem.times)[0] - problem.values
        return r if problem.sigma is None else r / problem.sigma

    # scipy's difference step is absolute below 1, so it solves for x / |x0|
    scale = np.array([abs(problem.x0[n]) for n in problem.names])
    lower = [problem.lower.get(n, -np.inf) / s for n, s in zip(problem.names, scale)]
    ref = least_squares(lambda u: residuals(u * scale), np.ones(scale.size), jac="3-point",
                        bounds=(lower, np.inf), x_scale="jac", ftol=1e-15, xtol=1e-15,
                        gtol=1e-15)
    for name, value in zip(problem.names, ref.x * scale):
        assert abs(result.params[name] - value) <= 2e-7 * result.stderr[name]


def _loop_standard_errors(jac, cost, weighted):
    """The per-parameter, per-direction loop the vectorised errors replace."""
    col_norms = np.linalg.norm(jac, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    unit = jac / col_norms
    jtj = unit.T @ unit
    n_pts, n_par = jac.shape
    scale = 1.0 if weighted else cost / max(n_pts - n_par, 1)
    w, v = np.linalg.eigh(jtj)
    tol = n_par * np.max(np.abs(w)) * np.finfo(float).eps
    out = []
    for i in range(n_par):
        var, singular = 0.0, False
        for k in range(n_par):
            if w[k] <= tol:
                singular = singular or abs(v[i, k]) > 1e-8
            else:
                var += v[i, k] ** 2 / w[k]
        out.append(math.inf if singular else math.sqrt(var * scale) / col_norms[i])
    return out


@pytest.mark.parametrize("weighted", [False, True])
def test_standard_errors_match_the_loop(weighted):
    rng = np.random.default_rng(5)
    jac = rng.normal(size=(40, 4)) * np.array([1e-6, 1.0, 1e8, 3.0])
    jac[:, 3] = 0.0  # a dead parameter
    names = ("a", "b", "c", "d")
    problem = FitProblem(lambda p, ts: ts, np.arange(40.0), np.zeros(40),
                         np.ones(40) if weighted else None, names, dict.fromkeys(names, 1.0))
    stderr, degenerate = fitting._standard_errors(problem, fitting._scaled_normal(jac), 7.5, 40)
    assert degenerate == ("d",)
    assert list(stderr.values()) == pytest.approx(_loop_standard_errors(jac, 7.5, weighted),
                                                  rel=1e-12)


# ---------------------------------------------------------------------------
# Closed-form Jacobians
# ---------------------------------------------------------------------------

_RATE = st.floats(-1.0, 6.0).map(lambda x: 10.0 ** x)   # log-uniform in [0.1, 1e6]
_SLOPE_TIMES = np.linspace(0.0, 430e-6, 12)


def _pg_mp(g1, g2, g3, dt, t, eps, omega):
    """p_g of the open-cavity closed form at 50 digits, entire in the square
    S^2 of the damping-basis gap of the general rates with gamma_a = eps g1,
    gamma_b = eps g2, gamma_c = g3, and each e^{z t} smeared to
    (1 - z dt)^{-t/dt}.

    The smeared population exponents are M -+ D, and their pair is
    -e^{M t} [cosh(D t) + base (D/S) t sinhc(D t)] / (2 (2 eps + 1)).  cosh
    and sinhc are 0F1 series in (D t)^2, and D/S is 1/4 sharp and
    artanh(x)/x / (4 m) = 2F1(1/2, 1; 3/2; x^2) / (4 m) smeared, with
    m = 1 + T dt/4 and x = S dt/(4 m): S enters only through S^2, so S = 0
    and S^2 < 0 are ordinary points."""
    t, eps = mpmath.mpf(t), mpmath.mpf(eps)   # so that t^2 is not a rounded float
    ga, gb, gc = eps * g1, eps * g2, g3
    s2 = (g1 - g2 + g3 - ga - gb + gc) ** 2 + 4 * (g1 - g2) * (ga - gc)
    total = g1 + g2 + g3 + ga + gb + gc
    base = 2 * g3 - eps * (g1 + g2)
    if dt == 0:
        mean, ratio = -total / 4, mpmath.mpf(1) / 4
    else:
        m = 1 + total * dt / 4
        x2 = s2 * dt ** 2 / (16 * m ** 2)
        mean = -mpmath.log(m ** 2 * (1 - x2)) / (2 * dt)
        ratio = mpmath.hyp2f1(0.5, 1, 1.5, x2) / (4 * m)
    arg = s2 * ratio ** 2 * t ** 2 / 4   # (D t / 2)^2
    pair = -mpmath.exp(mean * t) * (mpmath.hyp0f1(0.5, arg)
                                    + base * ratio * t * mpmath.hyp0f1(1.5, arg))
    z = mpmath.mpc(-(g1 + g2 + 2 * g3) / 4, omega)
    rabi = mpmath.exp(z * t) if dt == 0 else mpmath.exp(-t * mpmath.log(1 - z * dt) / dt)
    return (1 + eps) / (1 + 2 * eps) + pair / (2 * (2 * eps + 1)) - mpmath.re(rabi) / 2


def _slope_errors(params, geometry, rates3, eps, delta_t, tie, names):
    """Each column of ``RabiFitConfig.slopes`` against the 50-digit derivative of
    :func:`_pg_mp`, as max |error| / max |derivative| over the time grid."""
    config = fitting.RabiFitConfig(params, geometry, eps, *rates3, delta_t=delta_t)
    values = {n: getattr(config, n) for n in names}
    y, columns = config.slopes(values, _SLOPE_TIMES, tie)
    assert np.array_equal(y, config.curve(values, _SLOPE_TIMES, tie))
    omega = 2.0 * cf._phase_coupling(params, geometry)
    errors = []
    with mpmath.workdps(50):
        x = [mpmath.mpf(v) for v in (*rates3, delta_t)]
        for name, column in zip(names, columns):
            i = fitting._FREE_NAMES.index(name)

            def along(h, t):
                p = list(x)
                p[i] += h
                if tie and i == 0:
                    p[1] = p[0]
                return _pg_mp(*p, t, eps, omega)

            exact = np.array([float(mpmath.diff(lambda h: along(h, t), 0)) for t in _SLOPE_TIMES])
            errors.append(np.max(np.abs(column - exact)) / np.max(np.abs(exact)))
    return errors


# the vanishing gap: S = 0 exactly at (1000, 1000, 46.6) with eps = 0.0466,
# S = 1.2e-13 one ulp of gamma2 away, and S = 9.3e-12 at gamma3 = eps gamma1 (1 +- 1e-13)
_VANISHING = [(1000.0, 1000.0, 46.6), (1000.0, math.nextafter(1000.0, math.inf), 46.6),
              (1000.0, 1000.0, 46.6 * (1.0 + 1e-13)), (1000.0, 1000.0, 46.6 * (1.0 - 1e-13))]


def _vanishing_examples(test):
    for gamma1, gamma2, gamma3 in _VANISHING:
        for delta_t in (0.0, 2.37e-6):
            for tie in (False, True):
                test = example(gamma1=gamma1, gamma2=gamma2, gamma3=gamma3, eps=0.0466,
                               delta_t=delta_t, tie=tie)(test)
    return test


@settings(max_examples=50, deadline=None)
@given(gamma1=_RATE, gamma2=_RATE, gamma3=_RATE, eps=st.floats(0.0, 1.0),
       delta_t=st.sampled_from([0.0, 1e-14, 2.37e-6]), tie=st.booleans())
@example(gamma1=17.73, gamma2=17.73, gamma3=10335.8, eps=0.0466, delta_t=2.37e-6, tie=True)
@example(gamma1=17.73, gamma2=17.73, gamma3=10335.8, eps=0.0466, delta_t=0.0, tie=False)
@example(gamma1=1.0, gamma2=1e6, gamma3=1.0, eps=0.0, delta_t=0.0, tie=False)
@example(gamma1=3.0, gamma2=0.9, gamma3=7.7e5, eps=0.003, delta_t=0.0, tie=False)
@_vanishing_examples
def test_slopes_match_an_mpmath_derivative(params, geometry, gamma1, gamma2, gamma3, eps,
                                           delta_t, tie):
    if tie:
        gamma2 = gamma1
    rates = models.DecayRates.simplified(gamma1, gamma2, gamma3, eps)
    # the delta_t column first: the columns follow the order of the names
    names = ("delta_t", "gamma3", "gamma1") if tie else ("delta_t", "gamma3", "gamma1", "gamma2")
    errors = _slope_errors(params, geometry, (gamma1, gamma2, gamma3), eps, delta_t, tie, names)
    # the slow rate km = (T - S)/4 of the curve itself cancels when one rate
    # dominates: its rounding, and so that of the columns, grows like kp/km;
    # inside the vanishing band the columns hold S only through S^2
    _, kp, km, vanishing = cf._population_decay(rates, eps)
    bound = 1e-13 if vanishing else 1e-12 * kp / km
    assert max(errors) <= bound, dict(zip(names, errors))


@pytest.mark.parametrize("k", [5, 7, 9])
@pytest.mark.parametrize("tie", [False, True])
def test_slopes_next_to_the_vanishing_gap(params, geometry, k, tie):
    # gamma1 = gamma2 with gamma3 = eps gamma1 (1 + 10^-k): S = 2 eps gamma1 10^-k
    eps = 0.0466
    rates3 = (1000.0, 1000.0, eps * 1000.0 * (1.0 + 10.0 ** -k))
    names = ("gamma1", "gamma3", "delta_t") if tie else ("gamma1", "gamma2", "gamma3", "delta_t")
    for delta_t in (0.0, 2.37e-6):
        errors = _slope_errors(params, geometry, rates3, eps, delta_t, tie, names)
        assert max(errors) <= 1e-12, dict(zip(names, errors))


def test_tied_fit_started_at_a_vanishing_gap(params, geometry):
    # gamma1 = gamma2 = 1000 with gamma3 = eps gamma1 = 46.6 has S = 0: the fit
    # starts from the pair's coincident limit and its exact columns
    rates = models.DecayRates.simplified(1000.0, 1000.0, 46.6, 0.0466)
    assert cf._gap(rates) == (0.0, True)
    rng = np.random.default_rng(7)
    ts = np.arange(1.0, 431.0) * 1e-6
    truth = dephase.convolve_pg(rates, 0.0466, params, geometry, 2.37e-6, ts)
    data = np.clip(truth + rng.normal(scale=0.01, size=ts.size), 0.0, 1.0)
    series = ExperimentSeries(ts, data, np.full(ts.size, 0.01), TimeConvention.TRUE)
    config = fitting.RabiFitConfig(params, geometry, 0.0466, 1000.0, 1000.0, 46.6,
                                   delta_t=2.37e-6)
    result = fitting.fit_rabi(series, config, ("gamma1", "gamma3"), tie_gammas=True)
    assert result.converged
    assert result.degenerate == ()
    for name, true in (("gamma1", 1000.0), ("gamma3", 46.6)):
        err = result.stderr[name]
        assert math.isfinite(err) and err > 0.0
        assert abs(result.params[name] - true) <= 5.0 * err


def test_untied_fit_from_equal_rates_stays_on_the_symmetric_line(params, geometry,
                                                                 paper_rates):
    # S^2 = base^2 + (1 + 2 eps)(gamma1 - gamma2)^2: p_g is symmetric in gamma1
    # and gamma2, so their exact columns coincide at gamma1 = gamma2 and the
    # steps never leave it; the data cannot tell the two rates apart there
    rng = np.random.default_rng(11)
    ts = np.arange(1.0, 201.0) * 1e-6
    truth = cf.opencavity_pg(paper_rates, 0.0466, params, evolve.true_time(ts, geometry),
                             geometry=geometry)
    data = np.clip(truth + rng.normal(scale=0.01, size=ts.size), 0.0, 1.0)
    series = ExperimentSeries(ts, data, np.full(ts.size, 0.01), TimeConvention.EFFECTIVE)
    config = fitting.RabiFitConfig(params, geometry, 0.0466, gamma1=17.73, gamma2=17.73,
                                   gamma3=0.07 * params.g)
    _, columns = config.slopes({"gamma1": 17.73, "gamma2": 17.73}, ts)
    assert np.allclose(columns[0], columns[1], rtol=1e-12, atol=0.0)
    result = fitting.fit_rabi(series, config, ("gamma1", "gamma2", "gamma3"))
    assert result.converged
    assert result.params["gamma1"] == pytest.approx(result.params["gamma2"], rel=1e-12)
    assert result.degenerate == ("gamma1", "gamma2")
    assert math.isinf(result.stderr["gamma1"]) and math.isinf(result.stderr["gamma2"])
    assert math.isfinite(result.stderr["gamma3"])
