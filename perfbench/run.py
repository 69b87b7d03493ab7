"""rabicav benchmark: drives the CLI and the library as separate processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --capture-refs    # rewrite perfbench/refs/*.json
    python3 perfbench/run.py --write-spec      # rewrite BENCHMARK.json

One client runs one command at a time (closed loop).  ``--trace 0`` runs
whole passes over the workload's commands for about S seconds and reports the
end-to-end metrics; ``--trace 1`` runs exactly one pass untraced and one
traced (fixed work, so counts repeat) and reports the per-layer metrics.
Every output is checked against perfbench/refs; the last stdout line is the
JSON result.  See perfbench/README.md for how to read it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs")
PROBE = os.path.join(HERE, "probe.py")
OUT = os.path.join(ROOT, ".perfbench_out")
PY = sys.executable
# Same entry point as the installed `rabicav` console script.
CLI = "import sys; from rabicav.cli import main; sys.exit(main())"

RUN_SECONDS = 25          # measuring window of one --trace 0 run
SETUP_REPS = 7            # fresh `import rabicav.cli` processes behind setup_s
N_BOOT = 1000             # bootstrap resamples per Rabi-fit kind
N_Q = 1000                # energy curves for fit_q
SIGMA = 0.01              # noise of the synthetic p_g data
EPS = 0.0466
OMEGA0 = 2.0 * math.pi * 51.099e9
GAMMA3_TRUE = 0.07 * 47.0 * math.pi * 1e3
DELTA_T_TRUE = 2.37e-6
CHI2_RANGE = (0.6, 1.4)   # reduced chi-square of a fit to 430 points with sigma = 0.01
PARAM_SIGMAS = 7.0        # fitted parameter within this many standard errors of truth

# Tolerances per check, as (rtol, atol).
CLOSED = (1e-9, 1e-12)    # closed forms: room for last-bit changes only
NUMERIC = (1e-6, 1e-8)    # eigen propagation and quadrature: room for a rotating frame


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: str            # csv | fit-rabi | numbers | davies | verify | fits
    tol: tuple[float, float] = CLOSED


@dataclass(frozen=True)
class Workload:
    why: str
    ops: tuple[Op, ...]


def _cli(name, check, *argv, tol=CLOSED):
    return Op(name, tuple(argv), check, tol)


WORKLOADS = {
    "cli-startup": Workload(
        "README example commands at default sizes; start-up is most of their wall time, "
        "so import work shows here and barely anywhere else",
        (_cli("simulate", "csv", "simulate", "--profile", "gaussian", "--delta-t-us", "2.37"),
         _cli("energy", "csv", "energy", "--delta-t-us", "5"),
         _cli("entangle", "csv", "entangle", "--end-us", "500"),
         _cli("sweep", "csv", "simulate", "--sweep", "gamma3=2000:20000:5"),
         _cli("fit-rabi", "fit-rabi", "fit-rabi", "--data", "{data}", "--time-convention",
              "effective", "--profile", "gaussian", "--free", "gamma1,gamma3", "--tie-gammas"),
         _cli("fit-q", "numbers", "fit-q", "--q-target", "7e7"),
         _cli("davies-check", "davies", "davies-check"))),
    "closed-form-dense": Workload(
        "per-point closed-form states, validation, the entangle double solve, sweep threads "
        "and CSV formatting on fine grids; no numeric propagation",
        (_cli("simulate", "csv", "simulate", "--profile", "gaussian", "--delta-t-us", "2.37",
              "--step-us", "0.025"),
         _cli("entangle", "csv", "entangle", "--step-us", "0.025"),
         _cli("energy", "csv", "energy", "--delta-t-us", "5", "--step-us", "0.002"),
         _cli("sweep", "csv", "simulate", "--sweep", "gamma3=1000:30000:80"))),
    "numeric-paths": Workload(
        "RK and n-step propagation, the eigen fallback and quadrature do the work; "
        "closed-form per-point cost is a small share",
        (_cli("verify", "verify", "verify"),
         _cli("phenom-t0", "csv", "simulate", "--model", "phenom-t0", "--profile", "gaussian",
              "--end-us", "100", "--step-us", "10", tol=NUMERIC),
         _cli("degenerate", "csv", "simulate", "--gamma1", "1000", "--gamma2", "1000",
              "--gamma3", "46.6", "--profile", "gaussian", "--delta-t-us", "2.37",
              "--end-us", "15", "--step-us", "5", tol=NUMERIC))),
    "fit-bootstrap": Workload(
        "in-process LM fits over seeded resamples use the closed forms as whole vectorised "
        "curves, so a per-point speed-up that slows curves shows here",
        (Op("fits", (), "fits"),)),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def spec(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)


def _per_layer() -> tuple[Metric, ...]:
    m = []

    def add(layer, names, unit, better="lower"):
        m.extend(Metric(f"{layer}.{n}", unit, better) for n in names)

    add("rabicav", ("import_s",), "s")
    add("rabicav", ("modules_loaded", "scipy_modules_loaded"), "count")
    add("cli", ("command_self_s", "write_csv_s"), "s")
    add("cli", ("csv_rows",), "count", "higher")
    add("cli", ("csv_bytes",), "bytes")
    add("cli", ("ingest_series_s",), "s")
    add("core", ("density_matrix_calls", "validate_calls"), "count")
    add("core", ("validate_s",), "s")
    add("models", ("build_liouvillian_calls",), "count")
    add("models", ("build_liouvillian_s",), "s")
    add("models", ("dressed_transform_calls",), "count")
    add("closed_form", ("opencavity_rho_calls",), "count")
    add("closed_form", ("opencavity_rho_s",), "s")
    add("closed_form", ("damping_basis_calls",), "count")
    add("closed_form", ("damping_basis_per_state",), "ratio")
    add("closed_form", ("opencavity_pg_calls", "opencavity_pg_points"), "count")
    add("closed_form", ("opencavity_pg_s",), "s")
    add("closed_form", ("fallback_states",), "count")
    add("dephase", ("convolve_pg_calls", "convolve_pg_points"), "count")
    add("dephase", ("convolve_pg_s", "convolve_energy_s"), "s")
    add("dephase", ("degenerate_points",), "count")
    add("dephase", ("degenerate_s",), "s")
    add("entangle", ("rows",), "count", "higher")
    add("entangle", ("ppt_spectrum_calls", "coherence_calls"), "count")
    add("entangle", ("self_s",), "s")
    add("entangle", ("states_per_row",), "ratio")
    add("evolve", ("integrate_calls",), "count")
    add("evolve", ("integrate_s",), "s")
    add("evolve", ("integrate_states", "nstep_calls", "nstep_factors"), "count")
    add("evolve", ("nstep_s",), "s")
    add("evolve", ("nstep_us_per_factor",), "us")
    add("fitting", ("fits",), "count", "higher")
    add("fitting", ("converged_ratio",), "ratio", "higher")
    add("fitting", ("lm_iterations", "model_evals"), "count")
    add("fitting", ("evals_per_iteration",), "ratio")
    add("fitting", ("lm_self_s",), "s")
    add("fitting", ("inf_stderr_params",), "count")
    add("davies", ("check_s",), "s")
    add("acceptance", tuple(f"criterion_s.{i}" for i in range(1, 15)), "s")
    add("output", ("byte_identical",), "count", "higher")
    add("trace", ("overhead_ratio",), "ratio")
    add("trace", ("spans",), "count")
    return tuple(m)


PER_LAYER = _per_layer()


def write_spec() -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w.why} for n, w in WORKLOADS.items()],
        "end_to_end": [m.spec() for m in END_TO_END],
        "per_layer": [m.spec() for m in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: list[str], stdout_path: str, stderr_path: str) -> tuple[int, float, float]:
    """Run to completion; returns (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

_FLOAT = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def _close(got: float, want: float, tol: tuple[float, float]) -> bool:
    rtol, atol = tol
    return abs(got - want) <= atol + rtol * abs(want)


def csv_digest(text: str, n_sample: int = 64) -> dict:
    lines = text.rstrip("\n").split("\n")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    n = len(rows)
    idx = sorted({round(k * (n - 1) / max(n_sample - 1, 1)) for k in range(min(n, n_sample))})
    abs_sums = [math.fsum(abs(r[j]) for r in rows) for j in range(len(rows[0]))] if rows else []
    return {"header": lines[0], "rows": n, "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "abs_sums": abs_sums, "sample": {str(i): rows[i] for i in idx}}


def check_csv(path: str, ref: dict, tol: tuple[float, float]) -> tuple[str | None, bool]:
    """Returns (failure reason or None, byte-identical flag)."""
    if not os.path.exists(path):
        return "no output file", False
    with open(path, "rb") as fh:
        raw = fh.read()
    identical = hashlib.sha256(raw).hexdigest() == ref["sha256"]
    if identical:
        return None, True
    try:
        got = csv_digest(raw.decode("utf-8"))
    except (ValueError, IndexError) as exc:
        return f"unreadable CSV: {exc}", False
    if got["header"] != ref["header"] or got["rows"] != ref["rows"]:
        return f"shape {got['header']!r} x {got['rows']} != reference", False
    for j, (a, b) in enumerate(zip(got["abs_sums"], ref["abs_sums"])):
        if not _close(a, b, (tol[0], tol[1] * ref["rows"])):
            return f"column {j} sum of |x| {a!r} != {b!r}", False
    for i, row in ref["sample"].items():
        for a, b in zip(got["sample"][i], row):
            if not (math.isfinite(a) and _close(a, b, tol)):
                return f"row {i}: {a!r} != {b!r}", False
    return None, False


def check_fit_values(params: dict, stderr: dict, rss: float, n_points: int, key: str,
                     truth: float) -> str | None:
    if key not in params:
        return f"{key} not reported"
    chi2 = rss / (n_points - len(params))
    if not CHI2_RANGE[0] <= chi2 <= CHI2_RANGE[1]:
        return f"reduced chi-square {chi2:.3f} outside {CHI2_RANGE}"
    err = stderr.get(key, math.inf)
    if not (math.isfinite(err) and abs(params[key] - truth) <= PARAM_SIGMAS * err):
        return f"{key} = {params[key]!r} +- {err!r} misses truth {truth!r}"
    return None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    byte_identical: int = 0
    reasons: list = field(default_factory=list)

    def record(self, label: str, reason: str | None, count: int = 1) -> None:
        self.attempted += count
        if reason is not None:
            self.failed += count
            self.reasons.append(f"{label}: {reason}")


def check_op(op: Op, wl: str, rc: int, out_path: str, stdout_path: str,
             inputs: dict, refs: dict, tally: Tally, report: dict | None) -> None:
    label = f"{wl}/{op.name}"
    if op.check == "fits":
        fits = (report or {}).get("fits")
        if rc != 0 or fits is None:
            tally.record(label, f"worker exit code {rc}", inputs["n_fits"])
            return
        for rec in fits:
            tally.record(f"{label}/{rec['kind']}", check_fit(rec, inputs))
        if len(fits) != inputs["n_fits"]:
            tally.record(label, f"{len(fits)} fits reported", inputs["n_fits"] - len(fits))
        return
    with open(stdout_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    if rc != 0:
        tally.record(label, f"exit code {rc}")
        return
    reason = None
    ref = refs.get(f"{wl}.{op.name}")
    if op.check == "csv":
        reason, identical = check_csv(out_path, ref, op.tol)
        tally.byte_identical += identical
    elif op.check == "numbers":
        got = [float(x) for x in _FLOAT.findall(stdout)]
        want = ref["numbers"]
        if len(got) != len(want) or not all(_close(a, b, op.tol) for a, b in zip(got, want)):
            reason = f"printed {got} != reference {want}"
    elif op.check == "davies":
        lines = stdout.splitlines()
        if not lines or lines[-1] != "PASS" or lines[0] != ref["first_line"]:
            reason = f"unexpected output {stdout!r}"
    elif op.check == "verify":
        lines = stdout.splitlines()
        if not lines or lines[-1] != "14/14 criteria passed" or any("[FAIL]" in ln for ln in lines):
            reason = f"criteria failed: {lines[-1] if lines else 'no output'}"
    elif op.check == "fit-rabi":
        reason = check_fit_rabi_cli(stdout, out_path, inputs)
    tally.record(label, reason)


def check_fit_rabi_cli(stdout: str, out_path: str, inputs: dict) -> str | None:
    vals, errs = {}, {}
    for ln in stdout.splitlines():
        m = re.match(r"(\w+) = (\S+) \+- (\S+)$", ln)
        if m:
            vals[m.group(1)], errs[m.group(1)] = float(m.group(2)), float(m.group(3))
    m = re.search(r"rss = (\S+), iterations = (\d+), converged = (\w+)", stdout)
    if m is None or m.group(3) != "True":
        return "fit did not report convergence"
    reason = check_fit_values(vals, errs, float(m.group(1)), len(inputs["truth_a"]),
                              "gamma3", GAMMA3_TRUE)
    if reason:
        return reason
    if not os.path.exists(out_path):
        return "no output file"
    with open(out_path, encoding="utf-8") as fh:
        lines = fh.read().rstrip("\n").split("\n")
    if lines[0] != "t_us,p_g_data,p_g_fit" or len(lines) - 1 != len(inputs["truth_a"]):
        return "fit CSV shape differs"
    dev = max(abs(float(ln.split(",")[2]) - t) for ln, t in zip(lines[1:], inputs["truth_a"]))
    return None if dev <= SIGMA else f"fit curve deviates {dev:.3g} from the true curve"


def check_fit(rec: dict, inputs: dict) -> str | None:
    if "error" in rec:
        return rec["error"]
    if rec["kind"] == "q":
        q, want = rec["params"]["q"], inputs["q_ref"][rec["i"] - 2 * N_BOOT]
        return None if _close(q, want, (1e-6, 0.0)) else f"Q {q!r} != identity {want!r}"
    if not rec["converged"]:
        return "not converged"
    key, truth = ("gamma3", GAMMA3_TRUE) if rec["kind"] == "tied" else ("delta_t", DELTA_T_TRUE)
    return check_fit_values(rec["params"], rec["stderr"], rec["rss"], len(inputs["truth_a"]),
                            key, truth)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def load_refs() -> dict:
    refs = {}
    for fn in os.listdir(REFS):
        if fn.endswith(".json"):
            with open(os.path.join(REFS, fn), encoding="utf-8") as fh:
                refs[fn[:-5]] = json.load(fh)
    return refs


def make_inputs(work: str, seed: int) -> dict:
    """Seeded synthetic inputs around the reference curves; only the seed varies them.

    p_g data get Gaussian noise of SIGMA, clipped to [0, 1] as measured
    probabilities are.  Energy curves use the single-exponential closed form
    that holds for gamma1 = gamma2, with seeded rates; its Q is the identity
    2 omega0 / (gamma (2 eps + 1)).
    """
    rng = random.Random(seed)
    with open(os.path.join(REFS, "fit-curves.json"), encoding="utf-8") as fh:
        curves = json.load(fh)
    t_us, truth_a, truth_b = curves["t_us"], curves["truth_a"], curves["truth_b"]

    def noisy(truth):
        return [min(max(v + rng.gauss(0.0, SIGMA), 0.0), 1.0) for v in truth]

    data = os.path.join(work, "data.csv")
    with open(data, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_us,p_g,sigma\n")
        fh.writelines(f"{t!r},{p!r},{SIGMA!r}\n" for t, p in zip(t_us, noisy(truth_a)))
    values = array("d")
    for truth in (truth_a, truth_b):
        for _ in range(N_BOOT):
            values.extend(noisy(truth))
    t_q_us = [float(i) for i in range(431)]
    gammas = [rng.uniform(10.0, 30.0) for _ in range(N_Q)]
    floor = 0.5 * OMEGA0 * (2.0 * EPS - 1.0) / (2.0 * EPS + 1.0)
    for g in gammas:
        kappa = 0.5 * g * (2.0 * EPS + 1.0)
        values.extend(floor + OMEGA0 / (2.0 * EPS + 1.0) * math.exp(-kappa * t * 1e-6)
                      for t in t_q_us)
    boot_bin = os.path.join(work, "boot.bin")
    with open(boot_bin, "wb") as fh:
        values.tofile(fh)
    boot = os.path.join(work, "boot.json")
    with open(boot, "w", encoding="utf-8") as fh:
        json.dump({"bin": boot_bin, "n_boot": N_BOOT, "n_q": N_Q, "t_us": t_us,
                   "t_q_us": t_q_us}, fh)
    return {"data": data, "boot": boot, "truth_a": truth_a, "n_fits": 2 * N_BOOT + N_Q,
            "q_ref": [2.0 * OMEGA0 / (g * (2.0 * EPS + 1.0)) for g in gammas]}


def prepare(work: str, seed: int) -> dict:
    """Warm the bytecode cache, record the environment, write the seeded inputs."""
    env_path = os.path.join(work, "env.json")
    rc, _, _ = spawn([PY, PROBE, "env", env_path], os.path.join(work, "env.out"),
                     os.path.join(work, "env.err"))
    if rc != 0:
        with open(os.path.join(work, "env.err"), encoding="utf-8") as fh:
            raise RuntimeError(f"cannot import rabicav.cli from {SRC}:\n{fh.read()}")
    inputs = make_inputs(work, seed)
    with open(env_path, encoding="utf-8") as fh:
        inputs["env"] = json.load(fh)
    inputs["env"]["git_commit"] = git_commit()
    return inputs


def op_argv(op: Op, inputs: dict, out_path: str) -> list[str]:
    argv = [a.replace("{data}", inputs["data"]) for a in op.argv]
    return argv + (["-o", out_path] if op.check in ("csv", "fit-rabi") else [])


def run_op(op: Op, wl: str, work: str, inputs: dict, refs: dict, tally: Tally,
           probe: int | None) -> dict:
    """Runs one op (probe=None: as the user would; 0/1: in the probe untraced/traced)."""
    out_path = os.path.join(work, f"{op.name}.csv")
    stdout_path, stderr_path = os.path.join(work, "op.out"), os.path.join(work, "op.err")
    report_path = os.path.join(work, "op.json")
    if op.check == "fits":
        argv = [PY, PROBE, "run", str(probe or 0), report_path, "fits", inputs["boot"]]
    elif probe is None:
        argv = [PY, "-c", CLI, *op_argv(op, inputs, out_path)]
    else:
        argv = [PY, PROBE, "run", str(probe), report_path, "cli", *op_argv(op, inputs, out_path)]
    for p in (out_path, report_path):
        if os.path.exists(p):
            os.remove(p)
    rc, wall, rss = spawn(argv, stdout_path, stderr_path)
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    before = tally.failed
    check_op(op, wl, rc, out_path, stdout_path, inputs, refs, tally, report)
    if tally.failed > before:
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            tally.reasons.append(f"{wl}/{op.name} stderr: {fh.read()[-2000:]}")
    return {"op": op.name, "rc": rc, "wall_s": wall, "rss_mb": rss, "report": report}


def percentile_summary(samples: list[float]) -> str:
    """Median and the highest of p50/p90/p95/p99 with >= 10 samples beyond it."""
    s = sorted(samples)
    n = len(s)
    text = f"median {statistics.median(s):.6g} s, n = {n}"
    for p in (99, 95, 90, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(s, n=100, method="inclusive")[p - 1]
            return text + f", p{p} {q:.6g} s"
    return text + ", no percentile with >= 10 samples beyond it"


def timed_run(wl: str, seconds: float, work: str, inputs: dict, refs: dict, tally: Tally):
    setup = []
    for _ in range(SETUP_REPS):
        rc, wall, _ = spawn([PY, "-c", "import rabicav.cli"], os.path.join(work, "s.out"),
                            os.path.join(work, "s.err"))
        if rc != 0:
            raise RuntimeError("import rabicav.cli failed")
        setup.append(wall)
    passes, op_walls, peak = [], {}, 0.0
    fit_latencies = []
    t_start = time.perf_counter()
    while True:
        pass_wall = 0.0
        for op in WORKLOADS[wl].ops:
            res = run_op(op, wl, work, inputs, refs, tally, None)
            pass_wall += res["wall_s"]
            peak = max(peak, res["rss_mb"])
            op_walls.setdefault(op.name, []).append(res["wall_s"])
            if res["report"]:
                fit_latencies += [r["s"] for r in res["report"].get("fits", [])]
        passes.append(pass_wall)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(passes) > seconds:
            break
    print(f"setup_s: {percentile_summary(setup)}")
    print(f"wall_s (one pass over {len(WORKLOADS[wl].ops)} ops): {percentile_summary(passes)}")
    for name, walls in op_walls.items():
        print(f"  op {name}: {percentile_summary(walls)}")
    all_ops = [w for walls in op_walls.values() for w in walls]
    print(f"  every op process: {percentile_summary(all_ops)}")
    if fit_latencies:
        print(f"  every fit in-process: {percentile_summary(fit_latencies)}")
    return {"wall_s": statistics.median(passes), "setup_s": statistics.median(setup),
            "peak_rss_mb": peak}


def traced_run(wl: str, work: str, inputs: dict, refs: dict, tally: Tally) -> dict:
    untraced, traced, identical = [], [], 0
    for op in WORKLOADS[wl].ops:
        untraced.append(run_op(op, wl, work, inputs, refs, tally, 0))
        before = tally.byte_identical
        traced.append(run_op(op, wl, work, inputs, refs, tally, 1))
        identical += tally.byte_identical - before
    reports = [r["report"] or {} for r in traced]
    plain = [r["report"] or {} for r in untraced]
    metrics = layer_metrics(reports)
    metrics["rabicav.import_s"] = statistics.median(
        [r.get("import_s", 0.0) for r in plain] or [0.0])
    metrics["rabicav.modules_loaded"] = max((r.get("modules_loaded", 0) for r in plain), default=0)
    metrics["rabicav.scipy_modules_loaded"] = max(
        (r.get("scipy_modules_loaded", 0) for r in plain), default=0)
    metrics["output.byte_identical"] = identical
    wall_traced = sum(r.get("wall_s", 0.0) for r in reports)
    wall_plain = sum(r.get("wall_s", 0.0) for r in plain)
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain if wall_plain > 0 else 0.0
    print(f"in-process wall: untraced {wall_plain:.6g} s, traced {wall_traced:.6g} s; "
          f"peak RSS traced {max(r['rss_mb'] for r in traced):.1f} MB")
    return metrics


def layer_metrics(reports: list[dict]) -> dict:
    """Per-layer metrics from the traced processes' span summaries."""
    stats, module_s, nested, spans = {}, {}, {}, 0
    for rep in reports:
        tr = rep.get("trace")
        if not tr:
            continue
        spans += tr["spans"]
        for name, st in tr["stats"].items():
            agg = stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "info": None})
            agg["calls"] += st["calls"]
            agg["incl_s"] += st["incl_s"]
            agg["self_s"] += st["self_s"]
            if st["info"] is not None:
                agg["info"] = st["info"] if agg["info"] is None else [
                    a + b for a, b in zip(agg["info"], st["info"])]
        for k, v in tr["module_s"].items():
            module_s[k] = module_s.get(k, 0.0) + v
        for k, v in tr["nested"].items():
            nested[k] = nested.get(k, 0) + v

    def calls(n):
        return stats.get(n, {}).get("calls", 0)

    def incl(n):
        return stats.get(n, {}).get("incl_s", 0.0)

    def info(n, i):
        got = stats.get(n, {}).get("info")
        return got[i] if got else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def self_where(pred):
        return sum(st["self_s"] for name, st in stats.items() if pred(name))

    rows = info("cli._entangle_rows", 0)
    fits = calls("fitting.levenberg_marquardt")
    iters = info("fitting.levenberg_marquardt", 0)
    m = {
        "cli.command_self_s": self_where(lambda n: n.startswith("cli.cmd_")),
        "cli.write_csv_s": incl("cli.write_csv"),
        "cli.csv_rows": info("cli.write_csv", 0),
        "cli.csv_bytes": info("cli.write_csv", 1),
        "cli.ingest_series_s": incl("cli.ingest_series"),
        "core.density_matrix_calls": calls("core.DensityMatrix.__post_init__"),
        "core.validate_calls": calls("core.DensityMatrix.validate"),
        "core.validate_s": incl("core.DensityMatrix.validate"),
        "models.build_liouvillian_calls": calls("models.build_liouvillian"),
        "models.build_liouvillian_s": incl("models.build_liouvillian"),
        "models.dressed_transform_calls": calls("models.dressed_transform"),
        "closed_form.opencavity_rho_calls": calls("closed_form.opencavity_rho"),
        "closed_form.opencavity_rho_s": incl("closed_form.opencavity_rho"),
        "closed_form.damping_basis_calls": calls("closed_form.damping_basis"),
        "closed_form.damping_basis_per_state": ratio(
            nested.get("closed_form.damping_basis<closed_form.opencavity_rho", 0),
            calls("closed_form.opencavity_rho")),
        "closed_form.opencavity_pg_calls": calls("closed_form.opencavity_pg"),
        "closed_form.opencavity_pg_points": info("closed_form.opencavity_pg", 0),
        "closed_form.opencavity_pg_s": incl("closed_form.opencavity_pg"),
        "closed_form.fallback_states": calls("closed_form._fallback_rho"),
        "dephase.convolve_pg_calls": calls("dephase.convolve_pg"),
        "dephase.convolve_pg_points": info("dephase.convolve_pg", 0),
        "dephase.convolve_pg_s": incl("dephase.convolve_pg"),
        "dephase.convolve_energy_s": incl("dephase.convolve_energy"),
        "dephase.degenerate_points": calls("dephase._quadrature"),
        "dephase.degenerate_s": incl("dephase._quadrature"),
        "entangle.rows": rows,
        "entangle.ppt_spectrum_calls": calls("entangle.ppt_spectrum"),
        "entangle.coherence_calls": calls("entangle.coherence_e0_g1"),
        "entangle.self_s": self_where(lambda n: n.startswith("entangle.")),
        "entangle.states_per_row": ratio(
            nested.get("closed_form.opencavity_rho<cli._entangle_rows", 0), rows),
        "evolve.integrate_calls": calls("evolve.integrate"),
        "evolve.integrate_s": incl("evolve.integrate"),
        "evolve.integrate_states": info("evolve.integrate", 0),
        "evolve.nstep_calls": calls("evolve.nstep_propagate"),
        "evolve.nstep_factors": info("evolve.nstep_propagate", 0),
        "evolve.nstep_s": incl("evolve.nstep_propagate"),
        "evolve.nstep_us_per_factor": ratio(incl("evolve.nstep_propagate") * 1e6,
                                            info("evolve.nstep_propagate", 0)),
        "fitting.fits": fits,
        "fitting.converged_ratio": ratio(info("fitting.levenberg_marquardt", 1), fits),
        "fitting.lm_iterations": iters,
        "fitting.model_evals": calls("fitting._residuals"),
        "fitting.evals_per_iteration": ratio(calls("fitting._residuals"), iters),
        "fitting.lm_self_s": stats.get("fitting.levenberg_marquardt", {}).get("self_s", 0.0),
        "fitting.inf_stderr_params": info("fitting.levenberg_marquardt", 2),
        "davies.check_s": module_s.get("davies", 0.0),
        "trace.spans": spans,
    }
    for i in range(1, 15):
        m[f"acceptance.criterion_s.{i}"] = sum(
            st["incl_s"] for name, st in stats.items()
            if name.startswith(f"acceptance.criterion_{i}_"))
    return m


def capture_refs() -> None:
    """Record the deterministic outputs of every workload as references."""
    os.makedirs(REFS, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(dir=OUT)
    try:
        rc, _, _ = spawn([PY, PROBE, "curves", os.path.join(REFS, "fit-curves.json")],
                         os.path.join(work, "ref.out"), os.path.join(work, "ref.err"))
        if rc != 0:
            raise RuntimeError("reference curves failed")
        inputs = {"data": os.path.join(work, "absent.csv")}
        for wl, workload in WORKLOADS.items():
            for op in workload.ops:
                if op.check not in ("csv", "numbers", "davies"):
                    continue
                out_path = os.path.join(work, "ref.csv")
                rc, _, _ = spawn([PY, "-c", CLI, *op_argv(op, inputs, out_path)],
                                 os.path.join(work, "ref.out"), os.path.join(work, "ref.err"))
                if rc != 0:
                    raise RuntimeError(f"{wl}/{op.name} exited {rc}")
                with open(os.path.join(work, "ref.out"), encoding="utf-8") as fh:
                    stdout = fh.read()
                if op.check == "csv":
                    with open(out_path, encoding="utf-8") as fh:
                        ref = csv_digest(fh.read())
                elif op.check == "numbers":
                    ref = {"numbers": [float(x) for x in _FLOAT.findall(stdout)]}
                else:
                    ref = {"first_line": stdout.splitlines()[0]}
                ref["argv"] = list(op.argv)
                with open(os.path.join(REFS, f"{wl}.{op.name}.json"), "w", encoding="utf-8") as fh:
                    json.dump(ref, fh, indent=1)
                    fh.write("\n")
                print(f"captured {wl}.{op.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--capture-refs", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "rabicav", "__init__.py")):
        print(f"error: no rabicav sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_spec:
        write_spec()
        return 0
    if args.capture_refs:
        capture_refs()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(dir=OUT)
    try:
        inputs = prepare(work, args.seed)
        refs = load_refs()
        tally = Tally()
        print("env: " + json.dumps(inputs["env"], sort_keys=True))
        if args.trace:
            values = traced_run(args.workload, work, inputs, refs, tally)
            defs = PER_LAYER
        else:
            values = timed_run(args.workload, args.seconds, work, inputs, refs, tally)
            defs = END_TO_END
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in tally.reasons[:20]:
        print(f"FAILED {reason}")
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in defs}
    for name, v in metrics.items():
        print(f"{name} = {v['value']:.6g} {v['unit']}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": inputs["env"], "seconds": args.seconds, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
