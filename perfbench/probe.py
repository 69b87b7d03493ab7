"""Worker process of the benchmark: runs one rabicav operation and reports on it.

    probe.py env OUT                        write versions, CPUs and BLAS to OUT
    probe.py curves OUT                     write the reference p_g curves to OUT
    probe.py run TRACE REPORT cli ARGV...   time rabicav.cli.main(ARGV) in-process
    probe.py run TRACE REPORT fits JSON     time the bootstrap fits on JSON's inputs

``run`` times ``import rabicav.cli`` first, with nothing but ``sys`` and
``time`` loaded, and writes a JSON report.  With TRACE=1 it wraps the
package's functions (see tracer.py) after the import and before the work.
"""

import sys
import time

_T0 = time.perf_counter()
_BEFORE = set(sys.modules)
import rabicav.cli  # noqa: E402  (the import is what is being measured)
IMPORT_S = time.perf_counter() - _T0
LOADED = sorted(set(sys.modules) - _BEFORE)

import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from rabicav import closed_form as cf, dephase, evolve, fitting, models  # noqa: E402

SIGMA = 0.01                 # noise of the synthetic p_g data
DELTA_T = 2.37e-6            # timing spread of the (gamma1, delta_t) fits
EPS = 0.0466
GAMMA12 = 17.73


def paper_setup():
    params = models.PhysicalParams()
    geom = evolve.CavityGeometry(waist=5.96e-3, diameter=50e-3)
    rates = models.DecayRates.simplified(GAMMA12, GAMMA12, 0.07 * params.g, EPS)
    return params, geom, rates


def _blas_info() -> dict:
    info = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, ValueError):
        pass
    info["threads_env"] = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        import ctypes
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    break
    except OSError:
        pass
    return info


def write_env(path: str) -> None:
    import scipy

    env = {"python": sys.version.split()[0], "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "blas": _blas_info()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(env, fh)


def write_curves(path: str) -> None:
    """The paper-parameter p_g curves the synthetic fit data scatter around."""
    params, geom, rates = paper_setup()
    t_us = np.arange(1.0, 431.0)
    t_s = t_us * 1e-6
    # Effective-time axis for the tied (gamma1, gamma3) fit, as fit-rabi reads it.
    truth_a = cf.opencavity_pg(rates, EPS, params, evolve.true_time(t_s, geom), geometry=geom)
    # True-time axis for the (gamma1, delta_t) fit on the convolved curve.
    truth_b = dephase.convolve_pg(rates, EPS, params, geom, DELTA_T, t_s)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"t_us": t_us.tolist(), "truth_a": truth_a.tolist(),
                   "truth_b": truth_b.tolist()}, fh, indent=1)
        fh.write("\n")


def run_fits(path: str) -> list[dict]:
    """Tied (gamma1, gamma3) and (gamma1, delta_t) Rabi fits, then fit_q, per resample."""
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    data = np.fromfile(meta["bin"], dtype=np.float64)
    n_boot, n_q = meta["n_boot"], meta["n_q"]
    t_s = np.asarray(meta["t_us"]) * 1e-6
    t_q = np.asarray(meta["t_q_us"]) * 1e-6
    ya, yb, energy = np.split(data, [n_boot * t_s.size, 2 * n_boot * t_s.size])
    params, geom, rates = paper_setup()
    sigma = np.full(t_s.size, SIGMA)
    cfg_a = fitting.RabiFitConfig(params, geom, EPS, gamma1=GAMMA12, gamma2=GAMMA12,
                                  gamma3=rates.gamma3)
    cfg_b = fitting.RabiFitConfig(params, geom, EPS, gamma1=GAMMA12, gamma2=GAMMA12,
                                  gamma3=rates.gamma3, delta_t=DELTA_T)
    jobs = []
    for y in ya.reshape(n_boot, t_s.size):
        series = fitting.ExperimentSeries(t_s, y, sigma, fitting.TimeConvention.EFFECTIVE)
        jobs.append(("tied", lambda s=series: fitting.fit_rabi(
            s, cfg_a, ("gamma1", "gamma3"), tie_gammas=True)))
    for y in yb.reshape(n_boot, t_s.size):
        series = fitting.ExperimentSeries(t_s, y, sigma, fitting.TimeConvention.TRUE)
        jobs.append(("delta_t", lambda s=series: fitting.fit_rabi(s, cfg_b, ("gamma1", "delta_t"))))
    for curve in energy.reshape(n_q, t_q.size):
        jobs.append(("q", lambda c=curve: fitting.fit_q(t_q, c, EPS, params)))

    out = []
    for i, (kind, job) in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            res = job()
        except Exception:  # a failed fit is recorded, not fatal
            out.append({"kind": kind, "i": i, "s": time.perf_counter() - t0,
                        "error": traceback.format_exc(limit=3)})
            continue
        rec = {"kind": kind, "i": i, "s": time.perf_counter() - t0}
        if kind == "q":
            rec["params"] = {"q": res}
        else:
            rec.update(params=res.params, stderr=res.stderr, rss=res.rss,
                       iterations=res.iterations, converged=res.converged)
        out.append(rec)
    return out


def run(trace: bool, report_path: str, mode: str, rest: list[str]) -> int:
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    report = {"import_s": IMPORT_S, "modules_loaded": len(LOADED),
              "scipy_modules_loaded": sum(1 for m in LOADED if m.split(".")[0] == "scipy")}
    t0 = time.perf_counter()
    if mode == "cli":
        try:
            rc = rabicav.cli.main(rest)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        sys.stdout.flush()
    else:
        report["fits"] = run_fits(rest[0])
        rc = 0
    report["wall_s"] = time.perf_counter() - t0
    report["rc"] = rc
    if tracer is not None:
        report["trace"] = tracing.summarize(tracer)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


def main(argv: list[str]) -> int:
    if argv[0] == "env":
        write_env(argv[1])
        return 0
    if argv[0] == "curves":
        write_curves(argv[1])
        return 0
    if argv[0] == "run":
        return run(argv[1] == "1", argv[2], argv[3], argv[4:])
    raise SystemExit(f"unknown probe mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
