"""Command-line front end: simulate, fit and verify from a JSON config.

Every config field has a flag override; outputs are plain CSV written with
shortest round-trip decimals so identical inputs give byte-identical files.
Units at the boundary: microseconds for times, angular rates (1/s) for the
gammas, millimeters for the geometry, rad/s for omega0 and g.

Exit codes: 0 success, 2 usage/config error, 3 validation error,
4 fit non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import acceptance, closed_form as cf, dephase, entangle, evolve, fitting, models
from .core import Basis, ValidationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NOCONVERGE = 4


class ConfigError(Exception):
    """Malformed configuration (unknown field, bad type, unknown model)."""


_G_DEFAULT = 47.0 * np.pi * 1e3

DEFAULT_CONFIG = {
    "model": "open-cavity",
    "omega0": 2.0 * np.pi * 51.099e9,
    "g": _G_DEFAULT,
    "temperature": 0.8,
    "eps": 0.0466,
    "gamma": 0.3 * _G_DEFAULT,    # phenom-t0 / phenom-t downward rate
    "gamma_up": None,             # phenom-t upward rate; None = detailed balance
    "gamma1": 17.73,
    "gamma2": 17.73,
    "gamma3": 0.07 * _G_DEFAULT,
    "waist_mm": 5.96,
    "diameter_mm": 50.0,
    "profile": "constant",
    "delta_t_us": 0.0,
    "start_us": 0.0,
    "end_us": 430.0,
    "step_us": 1.0,
    "nstep": 2001,             # n-step factor count for phenom + gaussian
    "output": None,
    "time_convention": "true",
}

_MODELS = ("phenom-t0", "phenom-t", "microscopic", "open-cavity")


def load_config(path: str | None, overrides: dict) -> dict:
    config = dict(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON (line {exc.lineno}, "
                              f"column {exc.colno}): {exc.msg}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        for key, value in user.items():
            if key not in DEFAULT_CONFIG:
                raise ConfigError(f"unknown config field {key!r}")
            config[key] = value
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    if config["model"] not in _MODELS:
        raise ConfigError(f"unknown model {config['model']!r}; expected one of {_MODELS}")
    if config["profile"] not in ("constant", "gaussian"):
        raise ConfigError("profile must be 'constant' or 'gaussian'")
    if config["time_convention"] not in ("true", "effective"):
        raise ConfigError("time_convention must be 'true' or 'effective'")
    for key in ("omega0", "g", "step_us"):
        if not isinstance(config[key], (int, float)) or config[key] <= 0:
            raise ConfigError(f"config field {key!r} must be a positive number")
    if config["end_us"] <= config["start_us"]:
        raise ConfigError("end_us must be greater than start_us")
    return config


def _params(config: dict) -> models.PhysicalParams:
    return models.PhysicalParams(omega0=float(config["omega0"]), g=float(config["g"]),
                                 temperature=float(config["temperature"]))


def _geometry(config: dict) -> evolve.CavityGeometry:
    return evolve.CavityGeometry(waist=float(config["waist_mm"]) * 1e-3,
                                 diameter=float(config["diameter_mm"]) * 1e-3)


def _rates(config: dict) -> models.DecayRates:
    return models.DecayRates.simplified(float(config["gamma1"]), float(config["gamma2"]),
                                        float(config["gamma3"]), float(config["eps"]))


def _model_kind(config: dict, params: models.PhysicalParams) -> models.ModelKind:
    name = config["model"]
    if name == "phenom-t0":
        return models.PhenomT0(float(config["gamma"]))
    if name == "phenom-t":
        if config["gamma_up"] is None:
            return models.PhenomT.from_temperature(float(config["gamma"]), params)
        return models.PhenomT(float(config["gamma"]), float(config["gamma_up"]))
    if name == "microscopic":
        return models.Microscopic(float(config["gamma1"]), float(config["gamma2"]))
    return models.OpenCavity(_rates(config))


def _grid_us(config: dict) -> np.ndarray:
    start, end, step = (float(config[k]) for k in ("start_us", "end_us", "step_us"))
    n = int(round((end - start) / step))
    return start + step * np.arange(n + 1)


def fmt(value) -> str:
    """Shortest round-trip decimal for floats (byte-stable reruns)."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str | None, header: list[str], rows: np.ndarray) -> None:
    """Write a table of floats, one column per header field, as CSV.

    Values are written as their shortest round-trip decimals (``repr``, as
    :func:`fmt` does), formatted column by column.
    """
    columns = (map(repr, col) for col in np.asarray(rows, dtype=float).T.tolist())
    text = "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def ingest_series(path: str, convention: fitting.TimeConvention) -> fitting.ExperimentSeries:
    """Read a `t_us,p_g[,sigma]` CSV into a validated series (times -> s)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ValidationError(f"cannot read data file: {exc}")
    if not lines:
        raise ValidationError("data file is empty")
    header = [h.strip() for h in lines[0].split(",")]
    if header[:2] != ["t_us", "p_g"] or len(header) > 3 or (
            len(header) == 3 and header[2] != "sigma"):
        raise ValidationError("header must be 't_us,p_g' or 't_us,p_g,sigma'")
    with_sigma = len(header) == 3
    times, p_g, sigma = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != len(header):
            raise ValidationError(f"row {lineno}: expected {len(header)} fields, got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ValidationError(f"row {lineno}: non-numeric field")
        times.append(values[0] * 1e-6)
        p_g.append(values[1])
        if with_sigma:
            sigma.append(values[2])
        if not 0.0 <= values[1] <= 1.0:
            raise ValidationError(f"row {lineno}: p_g = {values[1]} outside [0, 1]")
        if len(times) >= 2 and times[-1] <= times[-2]:
            raise ValidationError(f"row {lineno}: times must be strictly increasing")
    return fitting.ExperimentSeries(np.array(times), np.array(p_g),
                                    np.array(sigma) if with_sigma else None, convention)


def emit_series(path: str | None, series: fitting.ExperimentSeries) -> None:
    header = ["t_us", "p_g"] + (["sigma"] if series.sigma is not None else [])
    columns = [series.times * 1e6, series.p_g]
    if series.sigma is not None:
        columns.append(series.sigma)
    write_csv(path, header, np.column_stack(columns))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def parse_sweep(spec: str | None):
    """Parse ``name=a:b:n`` into (name, values); None passes through."""
    if spec is None:
        return None
    try:
        name, rng = spec.split("=", 1)
        lo, hi, num = rng.split(":")
        values = np.linspace(float(lo), float(hi), int(num))
    except ValueError:
        raise ConfigError("sweep must look like 'gamma3=1e3:2e4:5'")
    if values.size == 0:
        raise ConfigError("sweep needs at least one value")
    name = name.strip()
    if name not in ("gamma", "gamma1", "gamma2", "gamma3", "eps", "delta_t_us"):
        raise ConfigError(f"cannot sweep field {name!r}")
    return name, values


def _sweep_rows(config: dict, sweep, worker) -> tuple[list[str], np.ndarray]:
    """Run ``worker(config) -> (header, rows)`` over the sweep values in order."""
    if sweep is None:
        return worker(config)
    name, values = sweep
    tables = []
    for v in values:
        header, rows = worker({**config, name: float(v)})
        tables.append(np.column_stack([np.full(len(rows), v), rows]))
    return ["sweep_" + name] + header, np.vstack(tables)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _simulate_rows(config: dict) -> tuple[list[str], np.ndarray]:
    params = _params(config)
    geom = _geometry(config) if config["profile"] == "gaussian" else None
    kind = _model_kind(config, params)
    delta_t = float(config["delta_t_us"]) * 1e-6
    ts_us = _grid_us(config)
    ts = ts_us * 1e-6
    name = config["model"]

    if delta_t < 0.0:
        raise ValidationError("delta_t must be >= 0")
    if delta_t > 0.0 and name != "open-cavity":
        raise ValidationError("time-uncertainty averaging is defined for the open-cavity model")

    if name == "phenom-t0" and geom is None:
        rho = cf.phenom_T0_rho(params.g, kind.gamma, ts)
    elif name == "microscopic" and geom is None:
        rho = cf.microscopic_rho(params.g, kind.gamma1, kind.gamma2, ts)
    elif name == "open-cavity":
        rho = cf.opencavity_rho(kind.rates, float(config["eps"]), params, ts, geometry=geom)
    elif name == "microscopic":  # gaussian profile, exact closed form
        factor = evolve.SQRT_PI * geom.waist / geom.diameter
        rho = cf.microscopic_rho(params.g * factor, kind.gamma1, kind.gamma2, ts)
    elif geom is None:  # phenom-t, constant coupling: numeric oracle
        liou = models.build_liouvillian(kind, params)
        rho0 = cf.initial_excited_state(Basis.BARE)
        rho = evolve.integrate(liou, rho0, ts[-1], t_eval=ts, model=name).states
    else:  # phenom model with the gaussian profile: n-step product
        rho0 = cf.initial_excited_state(Basis.BARE)
        n = int(config["nstep"])
        states = [rho0 if t == 0.0 else
                  evolve.nstep_propagate(kind, params, geom, rho0, t, n) for t in ts]
        rho = models.DensityMatrix(np.stack([s.matrix for s in states]), Basis.BARE)

    pg = models.ground_state_probability(rho)
    if delta_t > 0.0:
        if geom is None:
            raise ValidationError("time-uncertainty averaging uses the gaussian profile")
        pg_conv = dephase.convolve_pg(kind.rates, float(config["eps"]), params, geom,
                                      delta_t, ts)
    else:
        pg_conv = pg
    header = ["t_us", "p_g", "p_g_convolved", "rho_11", "rho_22", "rho_33",
              "rho_12_re", "rho_12_im"]
    m = rho.matrix
    return header, np.column_stack([ts_us, pg, pg_conv, m[:, 0, 0].real, m[:, 1, 1].real,
                                    m[:, 2, 2].real, m[:, 0, 1].real, m[:, 0, 1].imag])


def cmd_simulate(args) -> int:
    config = load_config(args.config, _overrides(args))
    sweep = parse_sweep(args.sweep)
    header, rows = _sweep_rows(config, sweep, _simulate_rows)
    write_csv(args.output or config["output"], header, rows)
    return EXIT_OK


def _energy_rows(config: dict) -> tuple[list[str], np.ndarray]:
    if config["model"] != "open-cavity":
        raise ValidationError("energy curves are defined for the open-cavity model")
    params = _params(config)
    rates = _rates(config)
    eps = float(config["eps"])
    delta_t = float(config["delta_t_us"]) * 1e-6
    ts_us = _grid_us(config)
    ts = ts_us * 1e-6
    omega = cf.energy_mean(rates, eps, params, ts)
    conv = dephase.convolve_energy(rates, eps, params, delta_t, ts)
    return ["t_us", "omega_bar", "omega_bar_convolved"], np.column_stack([ts_us, omega, conv])


def cmd_energy(args) -> int:
    config = load_config(args.config, _overrides(args))
    sweep = parse_sweep(args.sweep)
    header, rows = _sweep_rows(config, sweep, _energy_rows)
    write_csv(args.output or config["output"], header, rows)
    return EXIT_OK


def _entangle_rows(config: dict) -> tuple[list[str], np.ndarray]:
    if config["model"] != "open-cavity":
        raise ValidationError("the separability analysis is defined for the open-cavity model")
    params = _params(config)
    geom = _geometry(config) if config["profile"] == "gaussian" else None
    ts_us = _grid_us(config)
    rho_d = cf.opencavity_rho(_rates(config), float(config["eps"]), params, ts_us * 1e-6,
                              geometry=geom)
    rho_b = models.dressed_transform(rho_d, Basis.BARE)
    spec = entangle.ppt_spectrum(entangle.embed4(rho_b))
    coh = rho_b.matrix[:, 0, 1]   # <e,0|rho|g,1>, as entangle.coherence_e0_g1 reports it
    header = ["t_us", "lambda1", "lambda2", "lambda3", "lambda4",
              "coherence_re", "coherence_im"]
    return header, np.column_stack([ts_us, spec, coh.real, coh.imag])


def cmd_entangle(args) -> int:
    config = load_config(args.config, _overrides(args))
    sweep = parse_sweep(args.sweep)
    header, rows = _sweep_rows(config, sweep, _entangle_rows)
    write_csv(args.output or config["output"], header, rows)
    return EXIT_OK


def cmd_fit_rabi(args) -> int:
    config = load_config(args.config, _overrides(args))
    convention = fitting.TimeConvention(config["time_convention"])
    series = ingest_series(args.data, convention)
    params = _params(config)
    geom = _geometry(config)
    free = tuple(f.strip() for f in args.free.split(",") if f.strip())
    fit_config = fitting.RabiFitConfig(
        params, geom, float(config["eps"]), gamma1=float(config["gamma1"]),
        gamma2=float(config["gamma2"]), gamma3=float(config["gamma3"]),
        delta_t=float(config["delta_t_us"]) * 1e-6)
    result = fitting.fit_rabi(series, fit_config, free, tie_gammas=args.tie_gammas)
    for name in free:
        err = result.stderr.get(name, float("nan"))
        print(f"{name} = {fmt(result.params[name])} +- {fmt(err)}")
    print(f"rss = {fmt(result.rss)}, iterations = {result.iterations}, "
          f"converged = {result.converged}")
    if args.output:
        t_true = (series.times if convention is fitting.TimeConvention.TRUE
                  else evolve.true_time(series.times, geom))
        full = {"gamma1": float(config["gamma1"]), "gamma2": float(config["gamma2"]),
                "gamma3": float(config["gamma3"]),
                "delta_t": float(config["delta_t_us"]) * 1e-6}
        full.update(result.params)
        if args.tie_gammas:
            full["gamma2"] = full["gamma1"]
        rates = models.DecayRates.simplified(full["gamma1"], full["gamma2"],
                                             full["gamma3"], float(config["eps"]))
        fit_curve = dephase.convolve_pg(rates, float(config["eps"]), params, geom,
                                        full["delta_t"], t_true)
        write_csv(args.output, ["t_us", "p_g_data", "p_g_fit"],
                  np.column_stack([series.times * 1e6, series.p_g, fit_curve]))
    return EXIT_OK if result.converged else EXIT_NOCONVERGE


def cmd_fit_q(args) -> int:
    config = load_config(args.config, _overrides(args))
    params = _params(config)
    geom = _geometry(config)
    rates = _rates(config)
    eps = float(config["eps"])
    convention = fitting.TimeConvention(config["time_convention"])
    ts = _grid_us(config) * 1e-6
    curve = cf.energy_mean(rates, eps, params, ts)
    if convention is fitting.TimeConvention.EFFECTIVE:
        ts = evolve.effective_time(ts, geom)
    q = fitting.fit_q(ts, curve, eps, params, convention)
    gamma_back = fitting.rate_from_q(q, eps, params, convention,
                                     geom if convention is fitting.TimeConvention.EFFECTIVE else None)
    print(f"Q = {fmt(q)} ({config['time_convention']} time)")
    print(f"gamma(Q) via the {config['time_convention']}-time identity = {fmt(gamma_back)}")
    if args.q_target is not None:
        gamma_t = fitting.rate_from_q(args.q_target, eps, params, convention,
                                      geom if convention is fitting.TimeConvention.EFFECTIVE else None)
        print(f"gamma(Q={fmt(args.q_target)}) = {fmt(gamma_t)}")
    return EXIT_OK


def cmd_davies_check(args) -> int:
    from . import davies

    config = load_config(args.config, _overrides(args))
    params = _params(config)
    alpha, beta = args.alpha, args.beta
    ops = davies.davies_decompose(alpha, beta, args.n_max, params)
    comm = davies.commutation_defect(ops, args.n_max, params)
    w_down = {params.omega0 + params.g: float(config["gamma1"]) / alpha ** 2,
              params.omega0 - params.g: float(config["gamma2"]) / alpha ** 2,
              2.0 * params.g: 2.0 * float(config["gamma3"]) / beta ** 2}
    weights = davies.SpectralWeights(w_down, float(config["temperature"]))
    built = davies.assemble_generator(ops, weights, params)
    mapped = models.DecayRates.kms(float(config["gamma1"]), float(config["gamma2"]),
                                   float(config["gamma3"]), params)
    target = models.build_liouvillian(models.OpenCavity(mapped), params)
    diff = float(np.max(np.abs(built.matrix - target.matrix)))
    tol = 1e-12 * max(1.0, mapped.total)
    print(f"operators: {len(ops)} (n_max = {args.n_max})")
    print(f"max scaled commutation defect: {fmt(comm)}")
    print(f"generator entrywise difference: {fmt(diff)} (tol {fmt(tol)})")
    ok = comm <= 1e-10 and diff <= tol
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_verify(args) -> int:
    results = acceptance.run_all()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.number:>2}. {r.name:<{width}}  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, writes_csv: bool = False):
    p.add_argument("--config", help="JSON config file")
    if writes_csv:
        p.add_argument("-o", "--output", help="output CSV path (default: stdout)")
    p.add_argument("--model", choices=_MODELS)
    p.add_argument("--omega0", type=float, help="resonance frequency (rad/s)")
    p.add_argument("--g", type=float, help="peak coupling (rad/s)")
    p.add_argument("--temperature", type=float, help="cavity temperature (K)")
    p.add_argument("--eps", type=float, help="thermal up/down ratio")
    p.add_argument("--gamma", type=float, help="photon-model decay rate (1/s)")
    p.add_argument("--gamma-up", type=float, dest="gamma_up")
    p.add_argument("--gamma1", type=float)
    p.add_argument("--gamma2", type=float)
    p.add_argument("--gamma3", type=float)
    p.add_argument("--waist-mm", type=float, dest="waist_mm")
    p.add_argument("--diameter-mm", type=float, dest="diameter_mm")
    p.add_argument("--profile", choices=("constant", "gaussian"))
    p.add_argument("--delta-t-us", type=float, dest="delta_t_us")
    p.add_argument("--start-us", type=float, dest="start_us")
    p.add_argument("--end-us", type=float, dest="end_us")
    p.add_argument("--step-us", type=float, dest="step_us")
    p.add_argument("--nstep", type=int)
    p.add_argument("--time-convention", choices=("true", "effective"),
                   dest="time_convention")


_OVERRIDE_KEYS = ("model", "omega0", "g", "temperature", "eps", "gamma", "gamma_up",
                  "gamma1", "gamma2", "gamma3", "waist_mm", "diameter_mm", "profile",
                  "delta_t_us", "start_us", "end_us", "step_us", "nstep",
                  "time_convention")


def _overrides(args) -> dict:
    return {k: getattr(args, k, None) for k in _OVERRIDE_KEYS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabicav",
        description="Damped vacuum Rabi oscillations in a lossy cavity: "
                    "simulate, fit, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="tabulate p_g(t) and the state elements")
    _add_common(p, writes_csv=True)
    p.add_argument("--sweep", help="fan out over a parameter: name=a:b:n")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("energy", help="tabulate the mean-energy decay curve")
    _add_common(p, writes_csv=True)
    p.add_argument("--sweep")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("entangle", help="tabulate the partial-transpose spectrum")
    _add_common(p, writes_csv=True)
    p.add_argument("--sweep")
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("fit-rabi", help="fit model parameters to p_g data")
    _add_common(p, writes_csv=True)
    p.add_argument("--data", required=True, help="CSV with header t_us,p_g[,sigma]")
    p.add_argument("--free", default="gamma1,gamma3",
                   help="comma list from gamma1,gamma2,gamma3,delta_t")
    p.add_argument("--tie-gammas", action="store_true", dest="tie_gammas",
                   help="constrain gamma2 = gamma1")
    p.set_defaults(func=cmd_fit_rabi)

    p = sub.add_parser("fit-q", help="fit the quality factor to the energy decay")
    _add_common(p)
    p.add_argument("--q-target", type=float, dest="q_target",
                   help="also invert the identity at this Q")
    p.set_defaults(func=cmd_fit_q)

    p = sub.add_parser("davies-check", help="verify the ladder-derived generator")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=3, dest="n_max")
    p.set_defaults(func=cmd_davies_check)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
