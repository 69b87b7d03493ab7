import argparse
import contextlib
import dataclasses
import errno
import importlib
import inspect
import io
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rabicav
from rabicav import closed_form as cf
from rabicav import acceptance, cli, core, dephase, evolve, fitting, models
from rabicav.core import BLOCK


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked during the test, on two CPUs whatever
    the host has."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def test_simulate_open_cavity_matches_closed_form(tmp_path, params, paper_rates, geometry):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--end-us", "30", "--step-us", "5",
                   "--profile", "gaussian", "-o", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["t_us", "p_g", "p_g_convolved", "rho_11", "rho_22",
                      "rho_33", "rho_12_re", "rho_12_im"]
    assert rows.shape == (7, 8)
    for row in rows:
        t = row[0] * 1e-6
        expected = cf.opencavity_pg(paper_rates, 0.0466, params, t, geometry=geometry)
        assert row[1] == pytest.approx(expected, abs=1e-12)
        assert row[2] == row[1]  # no spread configured
        rho = cf.opencavity_rho(paper_rates, 0.0466, params, t, geometry=geometry)
        assert row[3] == pytest.approx(rho.matrix[0, 0].real, abs=1e-12)


def test_simulate_with_spread_column(tmp_path, params, paper_rates, geometry):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--end-us", "20", "--step-us", "10",
                   "--profile", "gaussian", "--delta-t-us", "2.37",
                   "-o", str(out)) == 0
    _, rows = read_csv(out)
    t = rows[-1][0] * 1e-6
    expected = dephase.convolve_pg(paper_rates, 0.0466, params, geometry, 2.37e-6, t)
    assert rows[-1][2] == pytest.approx(expected, abs=1e-12)


def test_simulate_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("simulate", "--end-us", "25", "--step-us", "5",
                       "--model", "phenom-t0", "-o", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_all_models_run(tmp_path):
    for model in ("phenom-t0", "phenom-t", "microscopic", "open-cavity"):
        out = tmp_path / f"{model}.csv"
        assert run_cli("simulate", "--model", model, "--end-us", "10",
                       "--step-us", "5", "-o", str(out)) == 0
        _, rows = read_csv(out)
        assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0))


def test_simulate_phenom_gaussian_uses_nstep(tmp_path, params):
    out = tmp_path / "pg.csv"
    assert run_cli("simulate", "--model", "phenom-t0", "--profile", "gaussian",
                   "--end-us", "20", "--step-us", "10", "--nstep", "201",
                   "-o", str(out)) == 0
    _, rows = read_csv(out)
    kind = models.PhenomT0(0.3 * params.g)
    geom = evolve.CavityGeometry(5.96e-3, 50e-3)
    rho0 = cf.initial_excited_state(models.Basis.BARE)
    state = evolve.nstep_propagate(kind, params, geom, rho0, rows[-1][0] * 1e-6, 201)
    assert rows[-1][1] == pytest.approx(models.ground_state_probability(state), abs=1e-12)


def test_simulate_phenom_t0_takes_the_amplitude_product(tmp_path, monkeypatch, params, geometry):
    # both profiles, and blocks of 4096 rows give the rows of the whole grid bit for bit
    def generic(*args, **kwargs):
        raise AssertionError("phenom-t0 took the generic n-step product")
    monkeypatch.setattr(evolve, "nstep_propagate", generic)
    for profile in ("constant", "gaussian"):
        out = tmp_path / f"{profile}.csv"
        assert run_cli("simulate", "--model", "phenom-t0", "--profile", profile,
                       "--end-us", "430", "--step-us", "0.1", "--nstep", "37",
                       "-o", str(out)) == 0
        _, rows = read_csv(out)
        assert len(rows) == 4301
        whole = cf.phenom_T0_rho(params.g, 0.3 * params.g, rows[:, 0] * 1e-6,
                                 geometry if profile == "gaussian" else None,
                                 37 if profile == "gaussian" else 1).matrix
        assert rows[:, 3:6].tobytes() == whole[:, [0, 1, 2], [0, 1, 2]].real.tobytes()
        assert rows[:, 7].tobytes() == whole[:, 0, 1].imag.tobytes()


def test_simulate_phenom_t_blocks_give_the_rows_of_the_whole_grid(tmp_path, params, geometry):
    # 4301 rows end in a partial block, 4097 in a lone row, which joins its block
    kind = models.PhenomT.from_temperature(0.3 * params.g, params)
    rho0 = cf.initial_excited_state(models.Basis.BARE)
    for end_us, step_us, size in (("430", "0.1", 4301), ("40.96", "0.01", 4097)):
        out = tmp_path / f"{size}.csv"
        assert run_cli("simulate", "--model", "phenom-t", "--profile", "gaussian",
                       "--nstep", "37", "--end-us", end_us, "--step-us", step_us,
                       "-o", str(out)) == 0
        _, rows = read_csv(out)
        assert len(rows) == size
        whole = evolve.nstep_propagate(kind, params, geometry, rho0, rows[:, 0] * 1e-6, 37).matrix
        assert rows[:, 3:6].tobytes() == whole[:, [0, 1, 2], [0, 1, 2]].real.tobytes()
        assert rows[:, 6].tobytes() == whole[:, 0, 1].real.tobytes()
        assert rows[:, 7].tobytes() == whole[:, 0, 1].imag.tobytes()


def test_simulate_phenom_t0_zeno_populations_are_squares(tmp_path):
    # the generic eig product gave rho_22 = -2.1e-16 and trace defects up to
    # 4.8e-10 here, and exited 3 at 391 us (Hermiticity defect 1.002e-9)
    out = tmp_path / "zeno.csv"
    assert run_cli("simulate", "--model", "phenom-t0", "--profile", "gaussian",
                   "--gamma", "1e12", "-o", str(out)) == 0
    _, rows = read_csv(out)
    pops = rows[:, 3:6]
    assert np.all(pops >= 0.0) and np.max(np.abs(pops.sum(axis=1) - 1.0)) <= 1e-15


def test_simulate_phenom_gaussian_small_nstep_keeps_the_budget(tmp_path):
    out = tmp_path / "n37.csv"
    assert run_cli("simulate", "--model", "phenom-t0", "--profile", "gaussian",
                   "--start-us", "430", "--end-us", "431", "--step-us", "1",
                   "--nstep", "37", "-o", str(out)) == 0
    header, rows = read_csv(out)
    assert header[:2] == ["t_us", "p_g"] and rows.shape == (2, 8)


@pytest.mark.parametrize("nstep", ["0", "-3"])
@pytest.mark.parametrize("model", ["open-cavity", "phenom-t0"])
def test_nonpositive_nstep_is_usage_error(tmp_path, capsys, model, nstep):
    out = tmp_path / "out.csv"
    assert run_cli("simulate", "--model", model, "--profile", "gaussian", "--end-us", "2",
                   "--nstep", nstep, "-o", str(out)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'nstep'" in err
    assert not out.exists()


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        assert run_cli("simulate", "--end-us", "2", "-o", str(target)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:10])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
    out = tmp_path / "out.csv"
    assert run_cli("simulate", "--end-us", "2", "-o", str(out)) == cli.EXIT_USAGE
    assert "No space left on device" in capsys.readouterr().err
    assert not out.exists()


def test_write_failing_after_the_first_block_leaves_no_file(tmp_path, monkeypatch, capsys,
                                                           forks):
    writes = []

    class FullAfterOneBlock:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes.append(text)
            if len(writes) > 1:
                raise OSError(28, "No space left on device")
            self.fh.write(text)
            self.fh.flush()

    monkeypatch.setattr(cli, "open", lambda *a, **k: FullAfterOneBlock(open(*a, **k)),
                        raising=False)
    out = tmp_path / "out.csv"
    assert run_cli("energy", "--end-us", str(2 * BLOCK), "-o", str(out)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output ") and err.count("\n") == 1
    assert "No space left on device" in err
    assert writes[0].count("\n") == BLOCK + 1   # header and the first block went out
    assert not out.exists()
    assert_reaped(forks)


def test_unwritable_worker_file_costs_no_bytes(tmp_path, monkeypatch, capsys, forks):
    class Unwritable(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *a, **k: Unwritable())
    out = tmp_path / "out.csv"
    assert run_cli("energy", "--end-us", str(2 * BLOCK), "-o", str(out)) == cli.EXIT_OK
    assert run_cli("energy", "--end-us", str(2 * BLOCK)) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    header, rows = cli._sweep_rows(cli.RunConfig(end_us=2 * BLOCK), None, cli._energy_rows)
    assert out.read_text() == captured.out == _one_shot_csv(header, rows)
    assert len(forks) == 2
    assert_reaped(forks)


def test_failed_fork_leaves_every_row_to_this_process(tmp_path, monkeypatch, capsys, forks):
    def no_process():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)   # on the two CPUs of ``forks``
    out = tmp_path / "out.csv"
    assert run_cli("energy", "--end-us", str(2 * BLOCK), "-o", str(out)) == cli.EXIT_OK
    header, rows = cli._sweep_rows(cli.RunConfig(end_us=2 * BLOCK), None, cli._energy_rows)
    assert out.read_text() == _one_shot_csv(header, rows)
    # a write that fails here is still a usage error, and leaves no file
    monkeypatch.setattr(cli, "_write_blocks", lambda fh, lines, rows: no_process())
    assert run_cli("energy", "--end-us", str(2 * BLOCK), "-o", str(out)) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: cannot write output ")
    assert not out.exists()


def test_worker_that_dies_leaves_its_rows_to_this_process(tmp_path, monkeypatch, forks):
    parent, write_blocks = os.getpid(), cli._write_blocks

    def dies_after_one_block(fh, lines, rows):
        if os.getpid() == parent:
            return write_blocks(fh, lines, rows)
        write_blocks(fh, lines, rows[:BLOCK])   # into the worker's file, flushed
        fh.flush()
        os._exit(3)

    monkeypatch.setattr(cli, "_write_blocks", dies_after_one_block)
    rows = np.arange(3 * (3 * BLOCK + 7), dtype=float).reshape(-1, 3)
    cli.write_csv(str(tmp_path / "t.csv"), ["a", "b", "c"], rows)
    assert (tmp_path / "t.csv").read_text() == _one_shot_csv(["a", "b", "c"], rows)
    assert len(forks) == 1
    assert_reaped(forks)


def test_closed_stdout_reaps_the_worker(monkeypatch, forks):
    class Closed:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(BrokenPipeError):
        cli.write_csv(None, ["a", "b"], np.zeros((2 * BLOCK + 5, 2)))
    assert_reaped(forks)


@pytest.mark.parametrize("n, cpus", [(BLOCK, {0, 1}), (2 * BLOCK + 5, {0})],
                         ids=["one-block", "one-cpu"])
def test_table_is_written_without_a_fork(tmp_path, monkeypatch, n, cpus):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    cli.write_csv(str(tmp_path / "t.csv"), ["a"], np.zeros((n, 1)))
    assert (tmp_path / "t.csv").read_text() == "a\n" + "0.0\n" * n


@pytest.mark.parametrize("cpus, workers", [(1, 0), (2, 1)])
def test_cpu_count_decides_without_an_affinity_call(tmp_path, monkeypatch, forks,
                                                    cpus, workers):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    rows = np.arange(2 * BLOCK + 5, dtype=float)[:, None]
    cli.write_csv(str(tmp_path / "t.csv"), ["a"], rows)
    assert (tmp_path / "t.csv").read_text() == _one_shot_csv(["a"], rows)
    assert len(forks) == workers
    if forks:
        assert_reaped(forks)


def _one_shot_csv(header, rows):
    columns = (map(repr, col) for col in np.asarray(rows, dtype=float).T.tolist())
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


@pytest.mark.parametrize("n", [0, 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5, 3 * BLOCK + 7])
def test_block_csv_is_byte_equal_to_one_shot_text(tmp_path, capsys, forks, n):
    values = np.array([-0.0, 1e16, 1e-5, 5e-324, 3.0, -7.0, 0.1, 2.0 ** 60])
    rows = np.resize(values, (n, 3))
    rows[:, 0] = np.arange(n)
    header = ["t_us", "a", "b"]
    cli.write_csv(str(tmp_path / "t.csv"), header, rows)
    cli.write_csv(None, header, rows)
    reference = _one_shot_csv(header, rows)
    assert (tmp_path / "t.csv").read_text() == reference
    assert capsys.readouterr().out == reference
    assert len(forks) == (2 if n > BLOCK else 0)   # one worker for each output
    if forks:
        assert_reaped(forks)


def test_write_csv_memory_does_not_grow_with_the_table(tmp_path):
    rows = np.random.default_rng(0).random((200_000, 3))
    tracemalloc.start()
    try:
        cli.write_csv(str(tmp_path / "big.csv"), ["a", "b", "c"], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6   # the whole text and its row strings took 41.5 MB


@pytest.mark.parametrize("worker, fields, sweep, spare", [
    (cli._entangle_rows, {"step_us": 0.025}, None, 6e6),   # 17 201 rows, 5 blocks
    (cli._simulate_rows, {}, "gamma3=1000:30000:80", 1.5e6),
    (cli._simulate_rows, {"model": "phenom-t", "step_us": 0.025}, None, 5e6),
], ids=["entangle", "sweep", "phenom-t"])
def test_table_memory_is_the_table_plus_one_block(worker, fields, sweep, spare):
    config = cli.RunConfig(**fields)
    tracemalloc.start()
    try:
        _, table = cli._sweep_rows(config, cli.parse_sweep(sweep), worker)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the states of the whole grid at once took 12.9, 2.6 and 7.6 MB beyond the table
    assert peak <= table.nbytes + spare


# One sample per exception class the package defines.
_EXCEPTIONS = [
    core.ValidationError("matrix entries must be finite"),
    core.ValidationError("trace defect 1.000e-09 > 1e-09", state=5299),
    cli.ConfigError("unknown config field 'x'"),
    evolve.StepUnderflowError(1.5e-6),
    fitting.RankDeficiencyError(["gamma1", "gamma3"]),
]


def test_every_package_exception_survives_pickling():
    modules = [importlib.import_module(f"rabicav.{m.name}")
               for m in pkgutil.iter_modules(rabicav.__path__)]
    defined = {obj for mod in modules for obj in vars(mod).values()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__.startswith("rabicav.")}
    assert defined == {type(exc) for exc in _EXCEPTIONS}
    for exc in _EXCEPTIONS:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc)
        assert back.args == exc.args and vars(back) == vars(exc)


def test_interrupt_in_the_parent_reaps_the_worker(monkeypatch, forks):
    class Slow(io.StringIO):
        def write(self, text):
            time.sleep(60)

    class Interrupted:
        def write(self, text):
            raise KeyboardInterrupt

    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *a, **k: Slow())
    monkeypatch.setattr(sys, "stdout", Interrupted())
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        cli.write_csv(None, ["a"], np.zeros((2 * BLOCK + 5, 1)))
    assert time.perf_counter() - start < 30   # killed, not waited for
    assert len(forks) == 1
    assert_reaped(forks)


# `rabicav energy ... | head -1`: the reader leaves after one line; the
# commands that print a few lines are read as `| head -0`
@pytest.mark.parametrize("argv, first_line", [
    (("energy", "--step-us", "0.01"), b"t_us,omega_bar,omega_bar_convolved\n"),
    (("davies-check",), None),
    (("fit-q", "--end-us", "50"), None),
], ids=["energy", "davies-check", "fit-q"])
@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_closed_stdout_ends_quietly(unbuffered, argv, first_line):
    src = os.path.dirname(os.path.dirname(rabicav.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with subprocess.Popen([sys.executable, "-m", "rabicav.cli", *argv],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        if first_line is not None:
            assert proc.stdout.readline() == first_line
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == cli.EXIT_OK and err == b""


def test_cli_import_leaves_acceptance_unloaded():
    src = os.path.dirname(os.path.dirname(rabicav.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    # verify and davies-check import these when they run, and the CSV writer
    # imports csvtext; nothing else does
    code = ("import sys, rabicav.cli; sys.exit(sorted({'rabicav.acceptance', "
            "'rabicav.davies', 'rabicav.csvtext'} & sys.modules.keys()) or None)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_verify_imports_acceptance_when_run(monkeypatch, capsys):
    from rabicav import acceptance
    monkeypatch.setattr(acceptance, "run_all", lambda: [
        acceptance.CriterionResult(1, "first", True, "ok"),
        acceptance.CriterionResult(2, "second", False, "off")])
    assert run_cli("verify") == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "[PASS]  1. first" in out and "[FAIL]  2. second" in out
    assert out.endswith("1/2 criteria passed\n")


def test_energy_command(tmp_path, params, paper_rates):
    out = tmp_path / "energy.csv"
    assert run_cli("energy", "--end-us", "100", "--step-us", "50",
                   "--delta-t-us", "5", "-o", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["t_us", "omega_bar", "omega_bar_convolved"]
    t = rows[-1][0] * 1e-6
    assert rows[-1][1] == pytest.approx(cf.energy_mean(paper_rates, 0.0466, params, t),
                                        rel=1e-12)
    assert rows[-1][2] == pytest.approx(
        dephase.convolve_energy(paper_rates, 0.0466, params, 5e-6, t), rel=1e-12)


def test_energy_rejects_other_models(tmp_path):
    assert run_cli("energy", "--model", "microscopic",
                   "-o", str(tmp_path / "x.csv")) == cli.EXIT_VALIDATION


def test_entangle_command(tmp_path):
    out = tmp_path / "ent.csv"
    assert run_cli("entangle", "--end-us", "20", "--step-us", "5", "-o", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["t_us", "lambda1", "lambda2", "lambda3", "lambda4",
                      "coherence_re", "coherence_im"]
    assert np.all(rows[:, 4] <= 1e-12)  # lambda4 never positive
    assert rows[0][4] == pytest.approx(0.0, abs=1e-12)


def test_sweep_orders_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("simulate", "--end-us", "10", "--step-us", "5",
                   "--sweep", "gamma3=1000:3000:3", "-o", str(out)) == 0
    header, rows = read_csv(out)
    assert header[0] == "sweep_gamma3"
    assert rows[:, 0].tolist() == [1000.0] * 3 + [2000.0] * 3 + [3000.0] * 3


def test_bad_sweep_is_usage_error(tmp_path):
    assert run_cli("simulate", "--sweep", "nonsense",
                   "-o", str(tmp_path / "x.csv")) == cli.EXIT_USAGE


def test_empty_sweep_is_usage_error(tmp_path):
    assert run_cli("simulate", "--sweep", "gamma3=1000:3000:0",
                   "-o", str(tmp_path / "x.csv")) == cli.EXIT_USAGE


def test_sweep_equals_per_value_runs_in_order(tmp_path):
    grid = ("--end-us", "20", "--step-us", "2", "--profile", "gaussian")
    out = tmp_path / "sweep.csv"
    assert run_cli("simulate", *grid, "--sweep", "gamma3=1000:3000:3", "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    expected = []
    for value in np.linspace(1000.0, 3000.0, 3):
        one = tmp_path / "one.csv"
        assert run_cli("simulate", *grid, "--gamma3", repr(float(value)), "-o", str(one)) == 0
        header, *body = one.read_text().splitlines()
        expected += [f"{float(value)!r},{line}" for line in body]
    assert lines == ["sweep_gamma3," + header] + expected


def test_entangle_coherence_columns_match_the_bare_state(tmp_path, params, paper_rates,
                                                         geometry):
    out = tmp_path / "ent.csv"
    assert run_cli("entangle", "--profile", "gaussian", "--end-us", "60", "--step-us", "0.5",
                   "-o", str(out)) == 0
    _, rows = read_csv(out)
    for row in rows[::13]:
        rho_d = cf.opencavity_rho(paper_rates, 0.0466, params, row[0] * 1e-6, geometry=geometry)
        coh = models.dressed_transform(rho_d, core.Basis.BARE).matrix[0, 1]
        assert (row[5], row[6]) == (coh.real, coh.imag)


def test_config_file_and_overrides(tmp_path, params):
    config = {"model": "open-cavity", "gamma3": 5000.0, "end_us": 10.0, "step_us": 5.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert run_cli("simulate", "--config", str(path), "--gamma3", "7000",
                   "-o", str(out)) == 0
    _, rows = read_csv(out)
    rates = models.DecayRates.simplified(17.73, 17.73, 7000.0, 0.0466)
    expected = cf.opencavity_pg(rates, 0.0466, params, rows[-1][0] * 1e-6)
    assert rows[-1][1] == pytest.approx(expected, abs=1e-12)


def test_malformed_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("simulate", "--config", str(bad)) == cli.EXIT_USAGE
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"no_such_field": 1}))
    assert run_cli("simulate", "--config", str(unknown)) == cli.EXIT_USAGE


def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'\xff\xfe{"g": 1}')
    assert run_cli("simulate", "--config", str(cfg)) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: config is not UTF-8 text: invalid start byte\n"


def test_unknown_model_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "heisenberg"}))
    assert run_cli("simulate", "--config", str(cfg)) == cli.EXIT_USAGE


@pytest.mark.parametrize("config, argv, field", [
    ({"gamma1": "abc"}, (), "gamma1"),
    ({"end_us": "10"}, (), "end_us"),
    ({"output": 5}, (), "output"),
    ({"nstep": 2.5}, (), "nstep"),
    ({"gamma1": True}, (), "gamma1"),
    ({"gamma_up": "fast"}, (), "gamma_up"),
    ({"profile": None}, (), "profile"),
    ({"g": 10 ** 400}, (), "g"),
    (None, ("--end-us", "inf"), "end_us"),
    (None, ("--start-us", "nan"), "start_us"),
    (None, ("--step-us", "nan"), "step_us"),
    (None, ("--delta-t-us", "nan"), "delta_t_us"),
    (None, ("--sweep", "gamma3=nan:1:2"), "gamma3"),
])
def test_malformed_input_is_usage_error(tmp_path, monkeypatch, capsys, config, argv, field):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ("--config", "cfg.json", *argv)
    assert run_cli("simulate", *argv, "-o", "out.csv") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(field) in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if config else [])


# Every RunConfig field but output, as (dest, type, choices) of its flag.
_CONFIG_FLAGS = {
    "--model": ("model", str, ("phenom-t0", "phenom-t", "microscopic", "open-cavity")),
    "--omega0": ("omega0", float, None), "--g": ("g", float, None),
    "--temperature": ("temperature", float, None), "--eps": ("eps", float, None),
    "--gamma": ("gamma", float, None), "--gamma-up": ("gamma_up", float, None),
    "--gamma1": ("gamma1", float, None), "--gamma2": ("gamma2", float, None),
    "--gamma3": ("gamma3", float, None), "--waist-mm": ("waist_mm", float, None),
    "--diameter-mm": ("diameter_mm", float, None),
    "--profile": ("profile", str, ("constant", "gaussian")),
    "--delta-t-us": ("delta_t_us", float, None), "--start-us": ("start_us", float, None),
    "--end-us": ("end_us", float, None), "--step-us": ("step_us", float, None),
    "--nstep": ("nstep", int, None),
    "--time-convention": ("time_convention", str, ("true", "effective")),
}
_TABLE_OPTIONS = {"-o", "--output", "--sweep"}


@pytest.mark.parametrize("command, own", [
    ("simulate", _TABLE_OPTIONS), ("energy", _TABLE_OPTIONS), ("entangle", _TABLE_OPTIONS),
    ("fit-rabi", {"-o", "--output", "--data", "--free", "--tie-gammas"}),
    ("fit-q", {"--q-target"}), ("davies-check", {"--alpha", "--beta", "--n-max"}),
])
def test_config_fields_and_flags_correspond(command, own):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = commands.choices[command]._actions
    names = {f.name for f in dataclasses.fields(cli.RunConfig)}
    flags = {opt: (a.dest, a.type, a.choices and tuple(a.choices))
             for a in actions if a.dest in names - {"output"} for opt in a.option_strings}
    assert flags == _CONFIG_FLAGS
    assert {dest for dest, _, _ in flags.values()} == names - {"output"}
    others = {opt for a in actions for opt in a.option_strings} - set(flags)
    assert others == {"-h", "--help", "--config"} | own


def test_fit_rabi_writes_the_config_output(tmp_path, params, paper_rates, geometry, capsys):
    ts = np.arange(1.0, 41.0) * 1e-6
    data = np.asarray(cf.opencavity_pg(paper_rates, 0.0466, params, ts, geometry=geometry))
    path = tmp_path / "data.csv"
    cli.write_csv(str(path), ["t_us", "p_g"], np.column_stack([ts * 1e6, data]))
    out = tmp_path / "fit.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output": str(out)}))
    assert run_cli("fit-rabi", "--config", str(cfg), "--data", str(path),
                   "--free", "gamma3") == 0
    header, rows = read_csv(out)
    assert header == ["t_us", "p_g_data", "p_g_fit"]
    assert rows.shape == (40, 3)


def test_ingest_valid_file(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("t_us,p_g\n1.0,0.1\n2.0,0.4\n3.0,0.2\n")
    series = cli.ingest_series(str(data), fitting.TimeConvention.TRUE)
    assert len(series.times) == 3
    assert series.times[1] == pytest.approx(2e-6)
    assert series.sigma is None


def test_ingest_rejects_bad_probability(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("t_us,p_g\n1.0,0.1\n2.0,1.2\n")
    with pytest.raises(models.ValidationError) as err:
        cli.ingest_series(str(data), fitting.TimeConvention.TRUE)
    assert "row 3" in str(err.value)


def test_ingest_rejects_non_monotone_times(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("t_us,p_g\n2.0,0.1\n1.0,0.2\n")
    with pytest.raises(models.ValidationError) as err:
        cli.ingest_series(str(data), fitting.TimeConvention.TRUE)
    assert "row 3" in str(err.value)


def test_ingest_rejects_missing_header(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("time,prob\n1.0,0.1\n")
    with pytest.raises(models.ValidationError):
        cli.ingest_series(str(data), fitting.TimeConvention.TRUE)


def test_series_round_trip(tmp_path):
    path = tmp_path / "series.csv"
    times = np.array([1.37e-6, 2.11e-6, 9.997e-6])
    p_g = np.array([0.123456789012345, 0.5, 0.97])
    sigma = np.array([0.01, 0.02, 0.011])
    cli.write_csv(str(path), ["t_us", "p_g", "sigma"], np.column_stack([times * 1e6, p_g, sigma]))
    back = cli.ingest_series(str(path), fitting.TimeConvention.TRUE)
    assert np.array_equal(back.times, times)
    assert np.array_equal(back.p_g, p_g)
    assert np.array_equal(back.sigma, sigma)


def test_fit_rabi_end_to_end(tmp_path, params, paper_rates, geometry, capsys):
    ts = np.arange(1.0, 201.0) * 1e-6
    data = np.asarray(cf.opencavity_pg(paper_rates, 0.0466, params, ts, geometry=geometry))
    path = tmp_path / "data.csv"
    cli.write_csv(str(path), ["t_us", "p_g"], np.column_stack([ts * 1e6, data]))
    out = tmp_path / "fit.csv"
    code = run_cli("fit-rabi", "--data", str(path), "--profile", "gaussian",
                   "--gamma1", "25", "--gamma2", "25", "--gamma3",
                   str(0.1 * params.g), "--free", "gamma1,gamma3", "--tie-gammas",
                   "-o", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    assert "gamma1" in printed and "converged = True" in printed
    header, rows = read_csv(out)
    assert header == ["t_us", "p_g_data", "p_g_fit"]
    assert np.max(np.abs(rows[:, 1] - rows[:, 2])) <= 1e-6


def test_fit_rabi_effective_time_flag(tmp_path, params, paper_rates, geometry, capsys):
    ts = np.arange(1.0, 201.0) * 1e-6
    data = np.asarray(cf.opencavity_pg(paper_rates, 0.0466, params, ts, geometry=geometry))
    path = tmp_path / "data.csv"
    cli.write_csv(str(path), ["t_us", "p_g"],
                  np.column_stack([evolve.effective_time(ts, geometry) * 1e6, data]))
    code = run_cli("fit-rabi", "--data", str(path), "--profile", "gaussian",
                   "--time-convention", "effective", "--gamma1", "25",
                   "--gamma2", "25", "--gamma3", str(0.1 * params.g),
                   "--free", "gamma1,gamma3", "--tie-gammas")
    assert code == 0
    printed = capsys.readouterr().out
    line = [ln for ln in printed.splitlines() if ln.startswith("gamma3")][0]
    fitted = float(line.split("=")[1].split("+-")[0])
    assert fitted == pytest.approx(0.07 * params.g, rel=1e-3)


def test_fit_rabi_nonconvergence_exit_code(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data.csv"
    data.write_text("t_us,p_g\n1.0,0.1\n2.0,0.4\n3.0,0.2\n4.0,0.6\n")

    def fake_fit(series, config, free, tie_gammas=False):
        return fitting.FitResult({n: 1.0 for n in free}, {n: 1.0 for n in free},
                                 1.0, 500, False)

    monkeypatch.setattr(cli.fitting, "fit_rabi", fake_fit)
    assert run_cli("fit-rabi", "--data", str(data),
                   "--free", "gamma3") == cli.EXIT_NOCONVERGE


@pytest.mark.parametrize("rows, message", [
    ("1.0,0.1,0.01\n2.0,0.4,nan\n", "row 3: sigma = nan is not finite"),
    ("1.0,0.1,0.01\nnan,0.4,0.01\n", "row 3: t_us = nan is not finite"),
    ("1.0,0.1,inf\n2.0,0.4,0.01\n", "row 2: sigma = inf is not finite"),
    ("1.0,0.1,0.01\n2.0,nan,0.01\n", "row 3: p_g = nan is not finite"),
], ids=["nan-sigma", "nan-time", "inf-sigma", "nan-p_g"])
def test_fit_rabi_rejects_malformed_data(tmp_path, capsys, rows, message):
    data = tmp_path / "data.csv"
    data.write_text("t_us,p_g,sigma\n" + rows + "3.0,0.2,0.01\n")
    code = run_cli("fit-rabi", "--data", str(data), "--free", "gamma3")
    assert code == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_fit_rabi_rejects_data_that_is_not_utf8(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_bytes(b"t_us,p_g\n1,\xff\n")
    assert run_cli("fit-rabi", "--data", str(data)) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "error: data file is not UTF-8 text: invalid start byte\n"
    assert captured.out == ""


def test_ingest_names_the_file_line_past_blank_lines(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("t_us,p_g\n1.0,0.1\n\n2.0,0.4\n3.0,nan\n")
    with pytest.raises(models.ValidationError, match="row 5: p_g = nan"):
        cli.ingest_series(str(data), fitting.TimeConvention.TRUE)


def test_fit_rabi_rejects_duplicate_free_parameter(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("t_us,p_g\n1.0,0.1\n2.0,0.4\n3.0,0.2\n4.0,0.6\n")
    code = run_cli("fit-rabi", "--data", str(data), "--free", "gamma1,gamma1")
    assert code == cli.EXIT_VALIDATION
    assert "listed twice: gamma1" in capsys.readouterr().err


def test_fit_rabi_rate_and_spread_have_finite_errors(tmp_path, params, paper_rates,
                                                     geometry, capsys):
    ts = np.arange(1.0, 201.0) * 1e-6
    truth = dephase.convolve_pg(paper_rates, 0.0466, params, geometry, 2.37e-6, ts)
    data = np.clip(truth + np.random.default_rng(2).normal(scale=0.01, size=ts.size), 0, 1)
    path = tmp_path / "data.csv"
    cli.write_csv(str(path), ["t_us", "p_g", "sigma"],
                  np.column_stack([ts * 1e6, data, np.full(ts.size, 0.01)]))
    code = run_cli("fit-rabi", "--data", str(path), "--profile", "gaussian",
                   "--delta-t-us", "2.37", "--free", "gamma1,delta_t")
    assert code == 0
    printed = capsys.readouterr().out
    assert "converged = True" in printed
    assert "inf" not in printed and "nan" not in printed


def test_fit_q_command(capsys):
    assert run_cli("fit-q", "--end-us", "430", "--step-us", "1",
                   "--q-target", "7e7", "--time-convention", "effective") == 0
    printed = capsys.readouterr().out
    q_line = [ln for ln in printed.splitlines() if ln.startswith("Q =")][0]
    q = float(q_line.split("=")[1].split("(")[0])
    assert q == pytest.approx(3.31e10 * evolve.SQRT_PI * 5.96 / 50.0, rel=0.01)
    target_line = [ln for ln in printed.splitlines() if "Q=70000000" in ln][0]
    gamma = float(target_line.split("=")[-1])
    assert gamma == pytest.approx(1772.8, abs=1.0)


@pytest.mark.parametrize("target", ["nan", "inf", "1e-320", "0"])
def test_fit_q_rejects_a_target_that_is_not_a_positive_finite_q(target, capsys):
    # 1e-320 is positive, but the rate it gives overflows to inf; nothing is
    # printed before the target is rejected
    assert run_cli("fit-q", "--end-us", "50", "--q-target", target) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "error: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, model, message", [
    ("fit-rabi", "phenom-t0", "Rabi-curve fits are defined for the open-cavity model"),
    ("fit-q", "microscopic", "quality-factor fits are defined for the open-cavity model"),
], ids=["fit-rabi", "fit-q"])
def test_fit_commands_reject_other_models(tmp_path, params, paper_rates, geometry, command,
                                          model, message, capsys):
    ts = np.arange(1.0, 41.0) * 1e-6
    path = tmp_path / "data.csv"
    p_g = cf.opencavity_pg(paper_rates, 0.0466, params, ts, geometry=geometry)
    cli.write_csv(str(path), ["t_us", "p_g"], np.column_stack([ts * 1e6, p_g]))
    data = ("--data", str(path)) if command == "fit-rabi" else ()
    assert run_cli(command, "--model", model, *data) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_davies_check_command(capsys):
    assert run_cli("davies-check", "--n-max", "2") == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "energy", "fit-q"])
def test_negative_times_are_validation_errors(tmp_path, command, capsys):
    # fit-q writes no CSV, so it takes no -o
    output = () if command == "fit-q" else ("-o", str(tmp_path / "out.csv"))
    assert run_cli(command, "--start-us", "-3", "--end-us", "0", "--step-us", "1",
                   *output) == cli.EXIT_VALIDATION
    assert "t must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--profile", "gaussian", "--delta-t-us", "-1", "--end-us", "2"), "delta_t must be >= 0"),
    (("--model", "phenom-t", "--start-us", "-3", "--end-us", "2"), "t must be >= 0"),
])
def test_simulate_rejects_negative_inputs(tmp_path, argv, message, capsys):
    out = tmp_path / "out.csv"
    assert run_cli("simulate", *argv, "-o", str(out)) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "entangle"])
def test_failing_state_is_named_by_its_grid_index(tmp_path, monkeypatch, command, capsys):
    grid = ("--end-us", "60", "--step-us", "0.01")   # 6001 rows: 4096, then 1905
    failing = cli.RunConfig(end_us=60.0, step_us=0.01).grid_us()[5000] * 1e-6
    state = cf._state

    def corrupted(diag, m01, m10, basis, t, note=None):
        diag = diag.copy()
        diag[np.atleast_1d(t) == failing, 0] += 1e-6   # a trace defect at one time
        return state(diag, m01, m10, basis, t, note)

    monkeypatch.setattr(cf, "_state", corrupted)
    out = tmp_path / "out.csv"
    assert run_cli(command, *grid, "-o", str(out)) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "error: state 5000: trace defect 1.000e-06 > 1e-09\n"
    assert captured.out == "" and not out.exists()


def test_simulate_checks_the_profile_before_any_state(monkeypatch, capsys):
    def producer(*args, **kwargs):
        raise AssertionError("a state producer ran")
    for module, name in ((cf, "opencavity_rho"), (cf, "phenom_T0_rho"),
                         (cf, "microscopic_rho"), (evolve, "nstep_propagate")):
        monkeypatch.setattr(module, name, producer)
    assert run_cli("simulate", "--delta-t-us", "2", "--step-us", "0.002") == cli.EXIT_VALIDATION
    assert "uses the gaussian profile" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--gamma1", "1e300"), "the gap S^2 overflows"),
    (("energy", "--gamma1", "1e300"), "the gap S^2 overflows"),
    (("simulate", "--model", "phenom-t0", "--gamma", "1e300"), "gamma = 1e+300 is too large"),
    (("simulate", "--g", "1e308", "--gamma3", "1"), "the open-cavity generator overflows"),
    (("entangle", "--g", "1e308", "--gamma3", "1"), "the open-cavity generator overflows"),
    (("simulate", "--model", "phenom-t", "--g", "1e300"),
     "g = 1e+300 is too large: the n-step propagator overflows"),
    (("simulate", "--model", "phenom-t", "--g", "1e300", "--profile", "gaussian"),
     "g = 1e+300 is too large: the n-step propagator overflows"),
    (("simulate", "--model", "phenom-t", "--gamma", "1.7e308"),
     "the rates are too large: the n-step propagator overflows"),
    (("simulate", "--model", "microscopic", "--g", "1.7e308"),
     "g = 1.7e+308 is too large: the phase 2 g t overflows"),
    (("simulate", "--model", "open-cavity", "--g", "1.7e308"),
     "g = 1.7e+308 is too large: the phase 2 g t overflows"),
    (("simulate", "--model", "open-cavity", "--g", "1.7e308", "--profile", "gaussian"),
     "g = 1.7e+308 is too large: the phase 2 g t overflows"),
    (("simulate", "--model", "phenom-t0", "--g", "1e300"),
     "g = 1e+300 is too large: the closed form overflows"),
    (("energy", "--gamma2", "1e6", "--delta-t-us", "1.7e308", "--omega0", "1e-12",
      "--eps", "1e12", "--step-us", "1"),
     "delta_t = 1.6999999999999999e+302 is too large: the smeared exponent overflows"),
])
def test_extreme_rates_are_validation_errors(tmp_path, argv, message, capsys):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy warning would print more than one line
        assert run_cli(*argv, "--end-us", "2", "-o", str(out)) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("davies-check",),
    ("simulate", "--model", "phenom-t", "--end-us", "5"),
], ids=["davies-check", "simulate-phenom-t"])
def test_underflowing_temperature_is_zero_temperature(argv, capsys):
    # k*T rounds to 0 below about 7e-301 K: no upward jumps, as at T = 0
    outputs = []
    for temperature in ("1e-320", "0"):
        assert run_cli(*argv, "--temperature", temperature) == cli.EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


def test_phenom_t_zeno_limit(tmp_path):
    # A photon that decays at 1e300/s freezes the exchange: |e,0> stays put.
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("simulate", "--model", "phenom-t", "--gamma", "1e300", "--end-us", "2",
                       "-o", str(out)) == cli.EXIT_OK
    _, rows = read_csv(out)
    assert np.all(rows[:, 1] == 0.0) and np.all(rows[:, 3] == 1.0)


def test_phenom_t_stiff_rates_are_exact(tmp_path, params, block_expm, capsys):
    # The exact block propagator costs the same at any rate, where an explicit
    # integrator's steps shrink as 1/gamma.
    out = tmp_path / "out.csv"
    assert run_cli("simulate", "--model", "phenom-t", "--gamma", "1e10",
                   "-o", str(out)) == cli.EXIT_OK
    _, rows = read_csv(out)
    kind = models.PhenomT.from_temperature(1e10, params)
    expected = block_expm(models.build_liouvillian(kind, params),
                          cf.initial_excited_state(models.Basis.BARE), rows[:, 0] * 1e-6)
    assert np.max(np.abs(rows[:, [1, 3, 4, 5, 6, 7]] - expected)) <= 1e-9
    # From gamma ~ 1e11 the eigenvector rounding can break the state budget
    # within the grid: a validation error, never a hang or a traceback.
    code = run_cli("simulate", "--model", "phenom-t", "--gamma", "1e12", "-o", str(out))
    err = capsys.readouterr().err
    assert (code, err) == (cli.EXIT_OK, "") or (
        code == cli.EXIT_VALIDATION and err.startswith("error: ") and err.count("\n") == 1)


@pytest.mark.parametrize("flag, value, rule", [
    pytest.param(flag, value, "nonzero and finite", id=f"{value}-{flag}")
    for value in ("0", "-0", "1e-200", "inf", "nan") for flag in ("--alpha", "--beta")
] + [pytest.param("--n-max", value, ">= 1", id=f"{value}---n-max") for value in ("0", "-1")])
def test_davies_check_rejects_degenerate_coupling(flag, value, rule, capsys):
    assert run_cli("davies-check", flag, value) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be {rule}") and err.count("\n") == 1


def test_davies_check_rejects_overflowing_weights(capsys):
    # 1e-160 squared is a nonzero subnormal; gamma1 / alpha**2 overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("davies-check", "--alpha", "1e-160") == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "error: spectral weights must be finite and >= 0\n"


@pytest.mark.parametrize("argv, message", [
    (("--omega0", "1.7e308", "--gamma3", "1.7e308"), "omega0 = 1.7e+308 is too large"),
    (("--omega0", "1e308"), "omega0 = 1e+308 is too large"),
    (("--g", "1.7e308"), "g = 1.7e+308 is too large"),
])
def test_davies_check_rejects_overflowing_ladder_energies(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy warning would print more lines
        assert run_cli("davies-check", *argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}: the ladder energies overflow\n"


def test_fit_q_keeps_a_zero_q_out_of_the_model(capsys):
    # the fit steps onto its bound q = 0, where the model divided by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("fit-q", "--gamma1", "1e6", "--omega0", "1000", "--temperature",
                       "5e-324", "--gamma2", "1e-12", "--end-us", "5", "--step-us", "1") == 0
    assert capsys.readouterr().out == (
        "Q = 3.0923788452881674e-05 (true time)\n"
        "gamma(Q) via the true-time identity = 59161295.976978846\n")


def test_grid_never_passes_end_us(tmp_path):
    # 10 / 2.6 is 3.85 steps: the grid stops at 7.8, where rounding ran on to 10.4
    out = tmp_path / "out.csv"
    assert run_cli("simulate", "--end-us", "10", "--step-us", "2.6", "-o", str(out)) == 0
    _, rows = read_csv(out)
    assert rows[:, 0].tolist() == [0.0, 2.6, 5.2, 7.800000000000001]
    # a step count that is whole but rounds just below it keeps its last point
    for end, step, points in ((0.3, 0.1, 4), (0.7, 0.1, 8), (60.0, 0.005, 12001)):
        grid = cli.RunConfig(end_us=end, step_us=step).grid_us()
        assert grid.size == points and grid[-1] == pytest.approx(end, rel=1e-12)


# Grids numpy refuses before it allocates anything ("Maximum allowed size
# exceeded"), or whose step count overflows to infinity.
@pytest.mark.parametrize("end_us", ["2", "1e300"])
def test_unallocatable_grid_is_usage_error(tmp_path, end_us, capsys):
    out = tmp_path / "out.csv"
    assert run_cli("simulate", "--end-us", end_us, "--step-us", "1e-300",
                   "-o", str(out)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'step_us' = 1e-300 ") and err.count("\n") == 1
    assert not out.exists()


# The grid is built before the table's states, so its usage error comes first
# whatever the command and whichever physics check would fail.
@pytest.mark.parametrize("argv", [("energy", "--model", "phenom-t"),
                                  ("energy", "--gamma1", "-1"),
                                  ("simulate", "--temperature", "-1"),
                                  ("simulate", "--delta-t-us", "-1")])
def test_unallocatable_grid_comes_before_the_physics_checks(argv, capsys):
    assert run_cli(*argv, "--step-us", "1e-300") == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: config field 'step_us' = 1e-300 ")


# Sizes of hundreds of GiB or more, which the allocator refuses at once; a
# size that an overcommitting host may grant would be filled, so none is tested.
@pytest.mark.parametrize("argv, size", [
    (("simulate", "--sweep", "gamma3=1:2:1000000000000"), "7.28 TiB"),
    (("simulate", "--sweep", "gamma3=1:2:1000000", "--end-us", "1000000"), "65.5 TiB"),
    (("simulate", "--model", "phenom-t0", "--profile", "gaussian",
      "--nstep", "100000000000", "--end-us", "2"), "745. GiB"),
    (("davies-check", "--n-max", "100000"), "596. GiB"),
], ids=["sweep-values", "sweep-table", "nstep", "davies-ladder"])
def test_unallocatable_size_is_usage_error(tmp_path, capsys, argv, size):
    out = tmp_path / "out.csv"
    argv += ("-o", str(out)) if argv[0] == "simulate" else ()
    assert run_cli(*argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: out of memory: Unable to allocate {size} ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit-q", "davies-check"])
def test_output_flag_only_on_csv_commands(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "-o", str(tmp_path / "x.csv"))
    assert exc.value.code == cli.EXIT_USAGE


def test_energy_rejects_negative_spread(tmp_path):
    assert run_cli("energy", "--delta-t-us", "-1", "--end-us", "3",
                   "-o", str(tmp_path / "e.csv")) == cli.EXIT_VALIDATION


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: nothing under src/ imports it
    code = ("import sys, rabicav.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(rabicav.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


_NUMERIC_FIELDS = ("omega0", "g", "temperature", "eps", "gamma", "gamma_up", "gamma1",
                   "gamma2", "gamma3", "waist_mm", "diameter_mm", "delta_t_us")
_EXTREMES = (0.0, -1.0, 5e-324, 1e-320, 1e-300, 1e-12, 1e-6, 1.0, 1e3, 1e6, 1e12, 1e300, 1.7e308)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(("simulate", "energy", "entangle", "fit-q", "davies-check")),
       model=st.sampled_from(("phenom-t0", "phenom-t", "microscopic", "open-cavity")),
       profile=st.sampled_from(("constant", "gaussian")),
       nstep=st.sampled_from((1, 3, 37)),
       values=st.dictionaries(st.sampled_from(_NUMERIC_FIELDS), st.sampled_from(_EXTREMES),
                              min_size=1, max_size=4))
def test_any_numeric_input_ends_in_an_exit_code(command, model, profile, nstep, values):
    # warnings are not errors here; test_extreme_rates_are_validation_errors
    # pins the inputs that must end without one
    argv = [command, f"--model={model}", f"--profile={profile}", f"--nstep={nstep}",
            "--end-us=5", "--step-us=1"]
    argv += [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_VALIDATION, cli.EXIT_NOCONVERGE)
    if code == cli.EXIT_VALIDATION and command == "davies-check" and not errors:
        assert out.getvalue().endswith("FAIL\n")   # the verdict, not an error
    else:
        assert len(errors) == (code != cli.EXIT_OK), (argv, err.getvalue())
