"""Command-line front end: simulate, fit and verify from a JSON config.

Every field of :class:`RunConfig` is a JSON config key with a flag override
(``output`` is ``-o/--output``, on the commands that write a CSV); outputs
are plain CSV written with shortest round-trip decimals so identical inputs
give byte-identical files.
Units at the boundary: microseconds for times, angular rates (1/s) for the
gammas, millimeters for the geometry, rad/s for omega0 and g.

Exit codes: 0 success, 2 usage/config error (sizes too large to allocate
included), 3 validation error (a rate that overflows a closed form
included), 4 fit non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import closed_form as cf, dephase, entangle, evolve, fitting, models
from .core import BLOCK, Basis, ValidationError, blocks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NOCONVERGE = 4


class ConfigError(Exception):
    """Malformed configuration (unknown field, bad type, unknown model)."""


_MODELS = ("phenom-t0", "phenom-t", "microscopic", "open-cavity")
_G = models.PhysicalParams.g
# Value type of each annotation a RunConfig field may carry.
_TYPES = {"float": float, "int": int, "str": str}


def _field(default, help: str, choices: tuple[str, ...] | None = None):
    return field(default=default, metadata={"help": help, "choices": choices})


def _kind(f) -> tuple[type, bool]:
    """The value type of RunConfig field ``f`` and whether it may be None."""
    name, _, rest = f.type.partition(" | ")
    return _TYPES[name], rest == "None"


def _typed(f, value):
    """``value`` as field ``f`` holds it: an int widened for a float field.

    Raises ConfigError naming the field for a wrong type (a bool is no
    number), a value outside the field's choices, or a NaN or infinity.
    """
    kind, nullable = _kind(f)
    if value is None and nullable:
        return None
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        wanted = kind.__name__ + (" or null" if nullable else "")
        raise ConfigError(f"config field {f.name!r} must be {wanted}, got {value!r}")
    choices = f.metadata["choices"]
    if choices is not None and value not in choices:
        raise ConfigError(f"config field {f.name!r} must be one of {choices}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:   # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"config field {f.name!r} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run, as the JSON config and the ``--flag`` overrides
    name it (``--gamma-up`` sets ``gamma_up``).

    Construction types and checks each field and raises ConfigError (exit 2)
    on a wrong type, a NaN or infinity, a non-positive omega0, g, step_us or
    nstep, or end_us <= start_us.  Checks that need the physics (negative rates,
    times or spreads) stay where the physics is computed (exit 3).
    """

    model: str = _field("open-cavity", "master-equation model", _MODELS)
    omega0: float = _field(models.PhysicalParams.omega0, "resonance frequency (rad/s)")
    g: float = _field(_G, "peak coupling (rad/s)")
    temperature: float = _field(models.PhysicalParams.temperature, "cavity temperature (K)")
    eps: float = _field(0.0466, "thermal up/down ratio")
    gamma: float = _field(0.3 * _G, "phenom-t0 / phenom-t downward rate (1/s)")
    gamma_up: float | None = _field(None, "phenom-t upward rate (1/s); "
                                          "default: detailed balance")
    gamma1: float = _field(17.73, "dressed decay rate gamma1 (1/s)")
    gamma2: float = _field(17.73, "dressed decay rate gamma2 (1/s)")
    gamma3: float = _field(0.07 * _G, "intra-manifold rate gamma3 (1/s)")
    waist_mm: float = _field(5.96, "Gaussian mode waist (mm)")
    diameter_mm: float = _field(50.0, "mirror diameter (mm)")
    profile: str = _field("constant", "coupling profile", ("constant", "gaussian"))
    delta_t_us: float = _field(0.0, "time-uncertainty spread (us)")
    start_us: float = _field(0.0, "first time of the grid (us)")
    end_us: float = _field(430.0, "last time of the grid (us)")
    step_us: float = _field(1.0, "grid step (us)")
    nstep: int = _field(2001, "n-step factors per point (phenom models, gaussian profile)")
    time_convention: str = _field("true", "time axis of data and fits", ("true", "effective"))
    output: str | None = _field(None, "output CSV path (default: stdout)")

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _typed(f, getattr(self, f.name)))
        for name in ("omega0", "g", "step_us", "nstep"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"config field {name!r} must be a positive number")
        if self.end_us <= self.start_us:
            raise ConfigError("end_us must be greater than start_us")
        if self.output == "":
            raise ConfigError("config field 'output' must be a path, got ''")

    @classmethod
    def load(cls, args) -> RunConfig:
        """Defaults, overlaid by the JSON file ``args.config``, then by the flags given."""
        values = {}
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    values = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config is not UTF-8 text: {exc.reason}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON (line {exc.lineno}, "
                                  f"column {exc.colno}): {exc.msg}")
            if not isinstance(values, dict):
                raise ConfigError("config root must be a JSON object")
        known = {f.name: f for f in fields(cls)}
        for key, value in values.items():
            if key not in known:
                raise ConfigError(f"unknown config field {key!r}")
            _typed(known[key], value)   # a bad file value fails even under a flag
        for name in known:
            if getattr(args, name, None) is not None:
                values[name] = getattr(args, name)
        return cls(**values)

    def params(self) -> models.PhysicalParams:
        return models.PhysicalParams(omega0=self.omega0, g=self.g, temperature=self.temperature)

    def geometry(self) -> evolve.CavityGeometry:
        return evolve.CavityGeometry(waist=self.waist_mm * 1e-3, diameter=self.diameter_mm * 1e-3)

    def rates(self) -> models.DecayRates:
        return models.DecayRates.simplified(self.gamma1, self.gamma2, self.gamma3, self.eps)

    def model_kind(self) -> models.ModelKind:
        if self.model == "phenom-t0":
            return models.PhenomT0(self.gamma)
        if self.model == "phenom-t":
            if self.gamma_up is None:
                return models.PhenomT.from_temperature(self.gamma, self.params())
            return models.PhenomT(self.gamma, self.gamma_up)
        if self.model == "microscopic":
            return models.Microscopic(self.gamma1, self.gamma2)
        return models.OpenCavity(self.rates())

    def grid_us(self) -> np.ndarray:
        """start_us, start_us + step_us, ... up to end_us, never past it by over 1e-9 of the
        span; raises ConfigError naming step_us when the grid has too many points to allocate."""
        steps = (self.end_us - self.start_us) / self.step_us
        try:
            return self.start_us + self.step_us * np.arange(math.floor(steps * (1.0 + 1e-9)) + 1)
        except (OverflowError, ValueError, MemoryError):
            raise ConfigError(f"config field 'step_us' = {self.step_us!r} gives {steps:.3e} "
                              f"grid steps, too many to allocate") from None


def fmt(value) -> str:
    """Shortest round-trip decimal for floats (byte-stable reruns)."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _worker_start(n: int) -> int:
    """The first of ``n`` rows a forked worker formats: the block boundary
    nearest the middle, or ``n`` (no worker) for at most one block, on a
    platform without fork, or on one CPU (the affinity mask, else
    ``os.cpu_count``)."""
    if n <= BLOCK or not hasattr(os, "fork"):
        return n
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return n
    return BLOCK * round(n / (2 * BLOCK))   # n > BLOCK: at least one block


def _write_blocks(fh, lines: list[str], rows: np.ndarray) -> None:
    """Write ``lines`` (the header, or none) and then ``rows`` to ``fh``, one
    block of :data:`~rabicav.core.BLOCK` rows per write, each value as its
    ``repr`` (:func:`rabicav.csvtext.block_text` formats the block)."""
    from .csvtext import block_text
    for block in blocks(rows):
        fh.write("".join(line + "\n" for line in lines) + block_text(block))
        lines = []


def _write_table(fh, header: list[str], rows: np.ndarray) -> None:
    """Write the CSV text of ``rows`` to ``fh``: the rows from
    :func:`_worker_start` on are formatted by a forked worker into a
    temporary file, at the same time as this process formats the rows before
    them, and appended after those; if the worker fails, this process
    formats its rows instead, and if the fork fails, every row."""
    start = _worker_start(len(rows))
    if start == len(rows):
        _write_blocks(fh, [",".join(header)], rows)
        return
    import shutil, signal, tempfile, warnings
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as tmp:
        # Python >= 3.12 warns on fork while another OS thread runs, here numpy's
        # BLAS pool; OpenBLAS stops its pool before a fork and each process
        # starts its own again
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            try:
                pid = os.fork()
            except OSError:   # no process to spare (EAGAIN, ENOMEM)
                pid = None
        if pid is None:
            _write_blocks(fh, [",".join(header)], rows)
            return
        if pid == 0:   # the worker: it leaves through os._exit only, so no buffer,
            try:       # handler or finally of this process runs a second time
                _write_blocks(tmp, [], rows[start:])
                tmp.flush()
                os._exit(0)
            finally:
                os._exit(1)
        try:
            _write_blocks(fh, [",".join(header)], rows[:start])
            _, status = os.waitpid(pid, 0)
            pid = 0
        finally:
            if pid:   # an error or an interrupt came before the worker was reaped
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) == 0:   # its whole text is in tmp
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh)
        else:
            _write_blocks(fh, [], rows[start:])


def write_csv(path: str | None, header: list[str], rows: np.ndarray) -> None:
    """Write a table of floats, one column per header field, as CSV.

    Values are written as their shortest round-trip decimals, the text
    ``repr`` gives each (as :func:`fmt` does):
    :func:`rabicav.csvtext.block_text` computes it for a block at a time with
    numpy, and hands each value its arithmetic cannot settle to ``repr``
    itself.  The text is formatted and written in blocks of
    :data:`~rabicav.core.BLOCK` rows (the header goes with the first), so
    memory does not grow with the size of the CSV.  A table of
    more than one block is formatted on two CPUs when there are two: a forked
    worker formats the second half while this process formats the first, and
    the same block formatter gives the same bytes as one process would.  A
    worker that fails, or cannot be forked, leaves its rows to this process,
    so it can cost time but not bytes.  A path that cannot be written raises
    ConfigError (exit 2) and leaves no partial file, even after earlier blocks
    went out.
    A closed stdout raises BrokenPipeError for :func:`main` to end quietly.
    """
    rows = np.asarray(rows, dtype=float)
    opened = False
    try:
        if path is None:
            _write_table(sys.stdout, header, rows)
            return
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            opened = True
            _write_table(fh, header, rows)
    except OSError as exc:
        if path is None and isinstance(exc, BrokenPipeError):
            raise
        if opened and os.path.isfile(path):   # a partly written file
            os.remove(path)
        target = "to stdout" if path is None else repr(path)
        raise ConfigError(f"cannot write output {target}: {exc.strerror or exc}") from None


def ingest_series(path: str, convention: fitting.TimeConvention) -> fitting.ExperimentSeries:
    """Read a `t_us,p_g[,sigma]` CSV into a validated series (times -> s).

    Blank lines are skipped; errors name the row as the file's line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    except OSError as exc:
        raise ValidationError(f"cannot read data file: {exc}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"data file is not UTF-8 text: {exc.reason}") from None
    if not lines:
        raise ValidationError("data file is empty")
    header = [h.strip() for h in lines[0][1].split(",")]
    if header[:2] != ["t_us", "p_g"] or len(header) > 3 or (
            len(header) == 3 and header[2] != "sigma"):
        raise ValidationError("header must be 't_us,p_g' or 't_us,p_g,sigma'")
    with_sigma = len(header) == 3
    times, p_g, sigma = [], [], []
    for lineno, line in lines[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != len(header):
            raise ValidationError(f"row {lineno}: expected {len(header)} fields, got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ValidationError(f"row {lineno}: non-numeric field")
        if not all(map(math.isfinite, values)):
            i = next(i for i, v in enumerate(values) if not math.isfinite(v))
            raise ValidationError(f"row {lineno}: {header[i]} = {values[i]} is not finite")
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


def _sweep_rows(config: RunConfig, sweep, worker) -> tuple[list[str], np.ndarray]:
    """The header and the one float table of ``worker`` over the grid, run
    for each sweep value in order, with the value in a first column.

    ``worker(config, ts_us) -> (header, rows)`` is given one block of the
    grid's times and returns their rows.  Blocks hold
    :data:`~rabicav.core.BLOCK` times, the last one fewer, or one more where
    a lone last row joins it: the n-step product of one time takes BLAS's
    matrix-vector path, which rounds otherwise than the rows of a longer
    call.  Each block goes into the table as it comes, so memory is the
    table plus one block's states.  A failing state is named by its index
    in the grid, however many blocks came before it.

    Each row depends on its own time alone, with one caveat: the n-step
    product's series factors (:func:`rabicav.evolve._expm_rows`) take their
    squaring count from the largest time they are given, so their rows could
    depend on the block.  No grid measured so far reaches that.
    """
    grid = config.grid_us()
    name, values = sweep or (None, [None])
    first = int(name is not None)   # the column of the sweep value
    n, table = len(grid), None
    bounds = [*range(0, max(n - 1, 1), BLOCK), n]
    for k, value in enumerate(values):
        swept = replace(config, **{name: float(value)}) if first else config
        for at, stop in zip(bounds, bounds[1:]):
            try:
                header, rows = worker(swept, grid[at:stop])
            except ValidationError as exc:
                if exc.state is None:
                    raise
                raise ValidationError(exc.problem, at + exc.state) from None
            if table is None:
                table = np.empty((len(values) * n, first + rows.shape[1]))
            table[k * n + at:k * n + stop, first:] = rows
        if first:
            table[k * n:(k + 1) * n, 0] = value
    return [f"sweep_{name}"] * first + header, table


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _simulate_rows(config: RunConfig, ts_us: np.ndarray) -> tuple[list[str], np.ndarray]:
    """p_g and the state elements at the times ``ts_us``."""
    params = config.params()
    geom = config.geometry() if config.profile == "gaussian" else None
    kind = config.model_kind()
    delta_t = config.delta_t_us * 1e-6
    name = config.model

    if delta_t < 0.0:
        raise ValidationError("delta_t must be >= 0")
    if delta_t > 0.0 and name != "open-cavity":
        raise ValidationError("time-uncertainty averaging is defined for the open-cavity model")
    if delta_t > 0.0 and geom is None:
        raise ValidationError("time-uncertainty averaging uses the gaussian profile")

    ts = ts_us * 1e-6
    n = config.nstep if geom else 1   # frozen-coupling factors of the photon models
    if name == "phenom-t0":
        rho = cf.phenom_T0_rho(params.g, kind.gamma, ts, geom, n)
    elif name == "open-cavity":
        rho = cf.opencavity_rho(kind.rates, config.eps, params, ts, geometry=geom)
    elif name == "microscopic":  # exact under the gaussian profile at its mean coupling
        g = params.g * geom.profile_mean if geom else params.g
        rho = cf.microscopic_rho(g, kind.gamma1, kind.gamma2, ts)
    else:  # phenom-t: n-step product, exact at n = 1
        rho0 = cf.initial_excited_state(Basis.BARE)
        rho = evolve.nstep_propagate(kind, params, geom, rho0, ts, n)

    pg = models.ground_state_probability(rho)
    pg_conv = (dephase.convolve_pg(kind.rates, config.eps, params, geom, delta_t, ts)
               if delta_t > 0.0 else pg)
    header = ["t_us", "p_g", "p_g_convolved", "rho_11", "rho_22", "rho_33",
              "rho_12_re", "rho_12_im"]
    m = rho.matrix
    return header, np.column_stack([ts_us, pg, pg_conv, m[:, 0, 0].real, m[:, 1, 1].real,
                                    m[:, 2, 2].real, m[:, 0, 1].real, m[:, 0, 1].imag])


def _require_open_cavity(config: RunConfig, what: str) -> None:
    if config.model != "open-cavity":
        raise ValidationError(f"{what} defined for the open-cavity model")


def _energy_rows(config: RunConfig, ts_us: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The mean energy, sharp and smeared, at the times ``ts_us``."""
    _require_open_cavity(config, "energy curves are")
    params = config.params()
    rates = config.rates()
    delta_t = config.delta_t_us * 1e-6
    ts = ts_us * 1e-6
    omega = cf.energy_mean(rates, config.eps, params, ts)
    conv = dephase.convolve_energy(rates, config.eps, params, delta_t, ts)
    return ["t_us", "omega_bar", "omega_bar_convolved"], np.column_stack([ts_us, omega, conv])


def _entangle_rows(config: RunConfig, ts_us: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The partial-transpose spectrum and the |e,0><g,1| coherence at the
    times ``ts_us``."""
    _require_open_cavity(config, "the separability analysis is")
    params = config.params()
    geom = config.geometry() if config.profile == "gaussian" else None
    rho_d = cf.opencavity_rho(config.rates(), config.eps, params, ts_us * 1e-6, geometry=geom)
    rho_b = models.dressed_transform(rho_d, Basis.BARE)
    spec = entangle.ppt_spectrum(rho_b)
    coh = rho_b.matrix[:, 0, 1]   # the bare coherence <e,0|rho|g,1>
    header = ["t_us", "lambda1", "lambda2", "lambda3", "lambda4",
              "coherence_re", "coherence_im"]
    return header, np.column_stack([ts_us, spec, coh.real, coh.imag])


def cmd_tabulate(args) -> int:
    """simulate, energy and entangle: the table of the row worker ``args.rows``."""
    config = RunConfig.load(args)
    header, rows = _sweep_rows(config, parse_sweep(args.sweep), args.rows)
    write_csv(config.output, header, rows)
    return EXIT_OK


def cmd_fit_rabi(args) -> int:
    config = RunConfig.load(args)
    _require_open_cavity(config, "Rabi-curve fits are")
    convention = fitting.TimeConvention(config.time_convention)
    series = ingest_series(args.data, convention)
    params = config.params()
    geom = config.geometry()
    free = tuple(f.strip() for f in args.free.split(",") if f.strip())
    fit_config = fitting.RabiFitConfig(
        params, geom, config.eps, gamma1=config.gamma1, gamma2=config.gamma2,
        gamma3=config.gamma3, delta_t=config.delta_t_us * 1e-6)
    result = fitting.fit_rabi(series, fit_config, free, tie_gammas=args.tie_gammas)
    for name in free:
        err = result.stderr.get(name, float("nan"))
        print(f"{name} = {fmt(result.params[name])} +- {fmt(err)}")
    print(f"rss = {fmt(result.rss)}, iterations = {result.iterations}, "
          f"converged = {result.converged}")
    if config.output is not None:
        t_true = (series.times if convention is fitting.TimeConvention.TRUE
                  else evolve.true_time(series.times, geom))
        fit_curve = fit_config.curve(result.params, t_true, args.tie_gammas)
        write_csv(config.output, ["t_us", "p_g_data", "p_g_fit"],
                  np.column_stack([series.times * 1e6, series.p_g, fit_curve]))
    return EXIT_OK if result.converged else EXIT_NOCONVERGE


def cmd_fit_q(args) -> int:
    config = RunConfig.load(args)
    _require_open_cavity(config, "quality-factor fits are")
    params = config.params()
    geom = config.geometry()
    rates = config.rates()
    eps = config.eps
    convention = fitting.TimeConvention(config.time_convention)
    ts = config.grid_us() * 1e-6
    curve = cf.energy_mean(rates, eps, params, ts)
    if convention is fitting.TimeConvention.EFFECTIVE:
        ts = evolve.effective_time(ts, geom)
    q = fitting.fit_q(ts, curve, eps, params, convention)
    identity_geom = geom if convention is fitting.TimeConvention.EFFECTIVE else None
    gamma_back = fitting.rate_from_q(q, eps, params, convention, identity_geom)
    # the target is checked before anything is printed
    gamma_t = (None if args.q_target is None
               else fitting.rate_from_q(args.q_target, eps, params, convention, identity_geom))
    print(f"Q = {fmt(q)} ({config.time_convention} time)")
    print(f"gamma(Q) via the {config.time_convention}-time identity = {fmt(gamma_back)}")
    if gamma_t is not None:
        print(f"gamma(Q={fmt(args.q_target)}) = {fmt(gamma_t)}")
    return EXIT_OK


def cmd_davies_check(args) -> int:
    from . import davies

    config = RunConfig.load(args)
    params = config.params()
    alpha, beta = args.alpha, args.beta
    for flag, value in (("--alpha", alpha), ("--beta", beta)):
        if not 0.0 < value * value < math.inf:   # the weights divide by its square
            raise ConfigError(f"{flag} must be nonzero and finite, with a square "
                              f"in the float range, got {value!r}")
    if args.n_max < 1:
        raise ConfigError(f"--n-max must be >= 1, got {args.n_max}")
    ops = davies.davies_decompose(alpha, beta, args.n_max, params)
    comm = davies.commutation_defect(ops, args.n_max, params)
    w_down = {params.omega0 + params.g: config.gamma1 / alpha ** 2,
              params.omega0 - params.g: config.gamma2 / alpha ** 2,
              2.0 * params.g: 2.0 * config.gamma3 / beta ** 2}
    weights = davies.SpectralWeights(w_down, config.temperature)
    built = davies.assemble_generator(ops, weights, params)
    mapped = models.DecayRates.kms(config.gamma1, config.gamma2, config.gamma3, params)
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
    from . import acceptance   # here only: no other command pays for importing it

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

def _add_config(p: argparse.ArgumentParser, writes_csv: bool = False):
    """``--config`` and one flag per RunConfig field; ``-o`` only where a CSV is written."""
    p.add_argument("--config", help="JSON config file")
    for f in fields(RunConfig):
        if f.name == "output":
            if writes_csv:
                p.add_argument("-o", "--output", help=f.metadata["help"])
            continue
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=_kind(f)[0],
                       choices=f.metadata["choices"], help=f.metadata["help"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabicav",
        description="Damped vacuum Rabi oscillations in a lossy cavity: "
                    "simulate, fit, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, rows, text in (("simulate", _simulate_rows, "p_g(t) and the state elements"),
                             ("energy", _energy_rows, "the mean-energy decay curve"),
                             ("entangle", _entangle_rows, "the partial-transpose spectrum")):
        p = sub.add_parser(name, help="tabulate " + text)
        _add_config(p, writes_csv=True)
        p.add_argument("--sweep", help="fan out over a parameter: name=a:b:n")
        p.set_defaults(func=cmd_tabulate, rows=rows)

    p = sub.add_parser("fit-rabi", help="fit model parameters to p_g data")
    _add_config(p, writes_csv=True)
    p.add_argument("--data", required=True, help="CSV with header t_us,p_g[,sigma]")
    p.add_argument("--free", default="gamma1,gamma3",
                   help="comma list from gamma1,gamma2,gamma3,delta_t")
    p.add_argument("--tie-gammas", action="store_true", dest="tie_gammas",
                   help="constrain gamma2 = gamma1")
    p.set_defaults(func=cmd_fit_rabi)

    p = sub.add_parser("fit-q", help="fit the quality factor to the energy decay")
    _add_config(p)
    p.add_argument("--q-target", type=float, dest="q_target",
                   help="also invert the identity at this Q")
    p.set_defaults(func=cmd_fit_q)

    p = sub.add_parser("davies-check", help="verify the ladder-derived generator")
    _add_config(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=3, dest="n_max")
    p.set_defaults(func=cmd_davies_check)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    A reader that closes stdout early (``| head``) ends any command quietly,
    with the command's code, or 0 if the command was cut short.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    code = EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:   # the reader is gone: the exit flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:   # numpy's error names the size it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
