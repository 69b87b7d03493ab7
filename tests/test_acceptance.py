"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` for the pass/fail table,
or ``rabicav verify`` for the same checks from the command line.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import rabicav
from rabicav import acceptance, evolve, models
from rabicav import closed_form as cf
from rabicav.core import Basis


@pytest.mark.parametrize("check", acceptance.ALL_CRITERIA,
                         ids=[c.__name__.replace("criterion_", "") for c in acceptance.ALL_CRITERIA])
def test_criterion(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.number}: {result.name} -- {result.detail}")
    assert result.passed, f"criterion {result.number} ({result.name}): {result.detail}"


def test_phenom_t_reference_matches_tight_rk():
    # the exact block propagator against the rtol 1e-12 RK run it replaced
    p = acceptance.paper_params()
    ts = acceptance._oracle_grid()
    liou = models.build_liouvillian(models.PhenomT.from_temperature(0.3 * p.g, p), p)
    rho0 = cf.initial_excited_state(Basis.BARE)
    tight = evolve.integrate(liou, rho0, ts[-1], t_eval=ts, rtol=1e-12, atol=1e-14)
    reference, _, _ = acceptance._oracle_runs()["phenom-t"]
    assert np.max(np.abs(reference - tight.ground_state_probability())) <= 1e-10


def test_oracle_criteria_run_without_scipy():
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from rabicav import acceptance\n"
            "results = [acceptance.criterion_7_oracle_equivalence(),"
            " acceptance.criterion_9_convolution()]\n"
            "sys.exit(0 if all(r.passed for r in results) else 1)")
    src = os.path.dirname(os.path.dirname(rabicav.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
