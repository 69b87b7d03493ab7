import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from rabicav import closed_form as cf
from rabicav import DecayRates, PhysicalParams, evolve, models
from rabicav.core import BLOCK, Basis, DensityMatrix, ValidationError


def test_geometry_validation():
    with pytest.raises(ValidationError):
        evolve.CavityGeometry(waist=60e-3, diameter=50e-3)
    with pytest.raises(ValidationError):
        evolve.CavityGeometry(waist=0.0, diameter=50e-3)


def test_zero_generator_constant_trajectory(params):
    zero = models.Liouvillian(np.zeros((9, 9), dtype=complex), Basis.DRESSED)
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    traj = evolve.integrate(zero, rho0, 1e-4, t_eval=[2e-5, 1e-4])
    for state in traj.states:
        assert np.array_equal(state.matrix, rho0.matrix)


def test_integrate_matches_phenom_closed_form(params):
    gamma = 0.3 * params.g
    liou = models.build_liouvillian(models.PhenomT0(gamma), params)
    rho0 = cf.initial_excited_state(Basis.BARE)
    ts = np.linspace(0.0, 100e-6, 51)[1:]
    traj = evolve.integrate(liou, rho0, ts[-1], t_eval=ts)
    pg = traj.ground_state_probability()
    m = cf.phenom_T0_rho(params.g, gamma, ts).matrix
    expected = m[:, 1, 1].real + m[:, 2, 2].real
    assert np.max(np.abs(pg - expected)) <= 1e-8


def test_integrate_matches_scipy_oracle(params, paper_rates):
    # independent integrator cross-check on the open-cavity generator
    liou = models.build_liouvillian(models.OpenCavity(paper_rates), params)
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    t_end = 40e-6
    sol = solve_ivp(lambda t, v: liou.matrix @ v, (0.0, t_end),
                    models.vec(rho0.matrix), method="DOP853",
                    rtol=1e-11, atol=1e-13)
    traj = evolve.integrate(liou, rho0, t_end)
    ref = models.unvec(sol.y[:, -1])
    assert np.max(np.abs(traj.states[-1].matrix - ref)) <= 1e-8


def test_integrate_states_are_one_stack(params):
    liou = models.build_liouvillian(models.PhenomT0(0.3 * params.g), params)
    rho0 = cf.initial_excited_state(Basis.BARE)
    ts = np.array([0.0, 1e-5, 3e-5])
    traj = evolve.integrate(liou, rho0, ts[-1], t_eval=ts)
    assert traj.states.matrix.shape == (3, 3, 3) and len(traj.states) == 3
    assert np.array_equal(traj.states[0].matrix, rho0.matrix)
    assert np.array_equal(traj.ground_state_probability(),
                          [models.ground_state_probability(s) for s in traj.states])
    empty = evolve.integrate(liou, rho0, 1e-5, t_eval=[])
    assert empty.times.size == 0 and len(empty.states) == 0


def test_integrate_names_the_first_state_off_budget(params):
    # -gamma*I drains the trace, so a recorded state breaks the drift budget
    leaky = models.Liouvillian(-1e3 * np.eye(9, dtype=complex), Basis.BARE)
    rho0 = cf.initial_excited_state(Basis.BARE)
    with pytest.raises(ValidationError, match=r"^state 1: trace defect"):
        evolve.integrate(leaky, rho0, 1e-5, t_eval=[0.0, 1e-6, 1e-5])


def test_integrate_rejects_basis_mismatch(params):
    liou = models.build_liouvillian(models.PhenomT0(1.0), params)
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    with pytest.raises(ValidationError):
        evolve.integrate(liou, rho0, 1e-5)


def test_integrate_step_underflow_carries_time():
    # e^{1e8 t} overflows near t = 7.1 us; the steps then collapse
    liou = models.Liouvillian(1e8 * np.eye(9), Basis.BARE)
    rho0 = cf.initial_excited_state(Basis.BARE)
    with pytest.raises(evolve.StepUnderflowError) as err:
        evolve.integrate(liou, rho0, 1e-5)
    assert 0.0 < err.value.time <= 1e-5


def _dopri_reference(mat, y, t_eval, rtol=1e-10, atol=1e-12):
    # the one-problem Dormand-Prince loop integrate_stack generalises, kept as written
    safety, top = evolve._SAFETY, evolve._MAX_FACTOR
    pows = np.array([np.linalg.matrix_power(mat, m) for m in range(evolve._R.size)])
    k = pows @ y
    abs_y = np.abs(y)
    d1 = float(np.abs(k[1]).max())
    t, h, out = 0.0, min(t_eval[-1], 0.01 * (float(abs_y.max()) or 1.0) / d1), []
    targets = list(t_eval)
    while targets:
        h = min(h, targets[0] - t)
        y_new, err = (evolve._RE * h ** evolve._POWERS) @ k
        abs_new = np.abs(y_new)
        norm = (np.abs(err) / (atol + rtol * np.maximum(abs_y, abs_new))).max()
        if norm <= 1.0:
            t, y, abs_y = t + h, y_new, abs_new
            k = pows @ y
            if t >= targets[0] - 1e-15 * max(1.0, abs(targets[0])):
                out.append(y)
                targets.pop(0)
            h *= max(top if norm == 0 else min(top, safety * norm ** -0.2), 1.0)
        else:
            h *= max(evolve._MIN_FACTOR, safety * norm ** -0.2)
    return models.unvec(np.array(out))


def _oracle_problems(params, paper_rates):
    g = params.g
    bare, dressed = (cf.initial_excited_state(b) for b in (Basis.BARE, Basis.DRESSED))
    kinds = [(models.PhenomT0(0.3 * g), bare),
             (models.PhenomT.from_temperature(0.3 * g, params), bare),
             (models.Microscopic(0.1 * g, 0.05 * g), dressed),
             (models.OpenCavity(paper_rates), dressed)]
    return [models.build_liouvillian(k, params) for k, _ in kinds], [r for _, r in kinds]


def test_integrate_is_the_one_problem_loop_bit_for_bit(params, paper_rates):
    lious, rhos = _oracle_problems(params, paper_rates)
    ts = np.linspace(0.0, 500e-6, 501)[1:]
    for liou, rho0 in zip(lious[::3], rhos[::3]):   # phenom-t0 and open-cavity
        traj = evolve.integrate(liou, rho0, ts[-1], t_eval=ts)
        reference = _dopri_reference(liou.matrix, models.vec(rho0.matrix), ts)
        assert np.array_equal(traj.states.matrix, reference)


def test_stacked_trajectories_match_their_single_runs(params, paper_rates):
    lious, rhos = _oracle_problems(params, paper_rates)
    ts = np.linspace(0.0, 500e-6, 501)[1:]
    stack = evolve.integrate_stack(lious, rhos, ts[-1], t_eval=ts)
    assert len(stack) == len(lious)
    for liou, rho0, traj in zip(lious, rhos, stack):
        single = evolve.integrate(liou, rho0, ts[-1], t_eval=ts)
        assert traj.states.basis is rho0.basis and np.array_equal(traj.times, ts)
        assert np.max(np.abs(traj.states.matrix - single.states.matrix)) <= 1e-9


def test_integrate_stack_rejects_mismatched_members(params, paper_rates):
    lious, rhos = _oracle_problems(params, paper_rates)
    with pytest.raises(ValidationError, match="does not match"):
        evolve.integrate_stack(lious, rhos[::-1], 1e-5)   # bare states on dressed generators
    with pytest.raises(ValidationError, match="does not match"):
        evolve.integrate_stack(lious[:3], rhos[:2] + rhos[:1], 1e-5)   # the last only
    for stack in (([], []), (lious, rhos[:3])):
        with pytest.raises(ValidationError, match="one initial state per generator"):
            evolve.integrate_stack(*stack, 1e-5)


def test_integrate_stack_underflow_carries_time(params):
    tame = models.build_liouvillian(models.PhenomT0(0.3 * params.g), params)
    blowup = models.Liouvillian(1e8 * np.eye(9), Basis.BARE)
    rho0 = cf.initial_excited_state(Basis.BARE)
    with pytest.raises(evolve.StepUnderflowError) as err:
        evolve.integrate_stack([tame, blowup], [rho0, rho0], 1e-5)
    assert 0.0 < err.value.time <= 1e-5


@pytest.mark.parametrize("t_end, t_eval", [
    (float("nan"), None), (math.inf, None), (1e-5, [1e-6, float("nan")]),
])
def test_integrate_rejects_nan_and_infinite_times(params, t_end, t_eval):
    liou = models.build_liouvillian(models.PhenomT0(0.3 * params.g), params)
    rho0 = cf.initial_excited_state(Basis.BARE)
    with pytest.raises(ValidationError):
        evolve.integrate(liou, rho0, t_end, t_eval=t_eval)


def test_rk_polynomials_follow_the_dormand_prince_tableau():
    # Stage i of the tableau on y' = L y is h k_i = z (1 + sum_j a_ij h k_j / y) y
    # with z = hL: a polynomial in z, exact in fractions.
    f = Fraction
    a = [[], [f(1, 5)], [f(3, 40), f(9, 40)], [f(44, 45), f(-56, 15), f(32, 9)],
         [f(19372, 6561), f(-25360, 2187), f(64448, 6561), f(-212, 729)],
         [f(9017, 3168), f(-355, 33), f(46732, 5247), f(49, 176), f(-5103, 18656)],
         [f(35, 384), f(0), f(500, 1113), f(125, 192), f(-2187, 6784), f(11, 84)]]
    b5 = a[6] + [f(0)]
    b4 = [f(5179, 57600), f(0), f(7571, 16695), f(393, 640), f(-92097, 339200),
          f(187, 2100), f(1, 40)]

    def weighted(weights, stages):
        poly = [f(0)] * 8
        for w, stage in zip(weights, stages):
            poly = [p + w * s for p, s in zip(poly, stage)]
        return poly

    stages = []
    for row in a:
        inner = weighted(row, stages)
        inner[0] += 1
        stages.append([f(0)] + inner[:7])   # times z; degree <= 7 throughout
    r = weighted(b5, stages)
    r[0] += 1
    e = weighted([x - y for x, y in zip(b5, b4)], stages)
    assert evolve._R.tolist() == [float(c) for c in r]
    assert evolve._E.tolist() == [float(c) for c in e]


def test_gaussian_coupling_peak_and_symmetry(params, geometry):
    t_total = 100e-6
    peak = evolve.gaussian_coupling(params.g, geometry, t_total, t_total / 2)
    assert peak == params.g
    for tau in (1e-6, 13e-6, 37e-6):
        a = evolve.gaussian_coupling(params.g, geometry, t_total, t_total / 2 - tau)
        b = evolve.gaussian_coupling(params.g, geometry, t_total, t_total / 2 + tau)
        assert a == b
        assert a < peak
    with pytest.raises(ValidationError):
        evolve.gaussian_coupling(params.g, geometry, t_total, -1e-6)


def test_gaussian_coupling_integral(params, geometry):
    t_total = 430e-6
    v = geometry.diameter / t_total
    total, _ = quad(lambda tp: evolve.gaussian_coupling(params.g, geometry, t_total, tp),
                    0.0, t_total, limit=200)
    assert total == pytest.approx(params.g * math.sqrt(math.pi) * geometry.waist / v,
                                  rel=1e-7)


@pytest.mark.parametrize("n", [2001, 20001])
def test_midpoint_couplings_are_mirrored(params, geometry, n):
    gs = evolve._midpoint_couplings(params.g, geometry, n)
    assert np.array_equal(gs, gs[::-1])
    assert np.unique(gs).size == (n + 1) // 2
    direct = evolve.gaussian_coupling(params.g, geometry, 1.0, (np.arange(n) + 0.5) / n)
    assert np.max(np.abs(gs - direct)) <= 1e-15 * params.g


def test_effective_time_values(geometry):
    assert evolve.effective_time(1.0, geometry) == pytest.approx(0.21128, abs=1e-4)
    assert evolve.effective_time(220e-6, geometry) == pytest.approx(46.5e-6, abs=0.2e-6)
    assert evolve.effective_time(0.0, geometry) == 0.0
    assert evolve.true_time(evolve.effective_time(0.37, geometry), geometry) == \
        pytest.approx(0.37, rel=1e-14)


def test_nstep_constant_profile_equals_single_propagator(params, paper_rates):
    kind = models.OpenCavity(paper_rates)
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    t = 100e-6
    liou = models.build_liouvillian(kind, params)
    lam, vmat = np.linalg.eig(liou.matrix)
    v = vmat @ (np.exp(lam * t) * np.linalg.solve(vmat, models.vec(rho0.matrix)))
    reference = models.unvec(v)
    for n in (1, 7, 100):
        state = evolve.nstep_propagate(kind, params, None, rho0, t, n)
        assert np.max(np.abs(state.matrix - reference)) <= 1e-12


def test_nstep_small_n_convergence(params, paper_rates, geometry):
    # discretization error is resolvable only at small n (the midpoint sum of
    # a Gaussian converges spectrally); assert strict decrease there
    kind = models.OpenCavity(paper_rates)
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    t = 430e-6
    ref = cf.opencavity_pg(paper_rates, 0.0466, params, t, geometry=geometry)
    errors = []
    for n in (5, 9, 17):
        state = evolve.nstep_propagate(kind, params, geometry, rho0, t, n)
        errors.append(abs(models.ground_state_probability(state) - ref))
    assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    assert errors[0] > 1e-3  # resolvable at n = 5


def test_nstep_factors_preserve_trace_and_positivity(params, paper_rates, geometry):
    # apply the frozen-coupling factors one by one and validate after each
    kind = models.OpenCavity(paper_rates)
    t, n = 60e-6, 37
    dt = t / n
    state = cf.initial_excited_state(Basis.DRESSED)
    for j in range(n):
        t_mid = (j + 0.5) * dt
        g_j = evolve.gaussian_coupling(params.g, geometry, t, t_mid)
        from dataclasses import replace
        liou = models.build_liouvillian(kind, replace(params, g=g_j))
        lam, vmat = np.linalg.eig(liou.matrix)
        v = vmat @ (np.exp(lam * dt) * np.linalg.solve(vmat, models.vec(state.matrix)))
        state = DensityMatrix(models.unvec(v), Basis.DRESSED)
        assert state.trace_defect <= 1e-9
        assert state.min_eigenvalue >= -1e-9


_BLOCK = [0, 1, 3, 4, 8]   # vec indices |e,0><e,0| reaches, in either basis
_OFF_BLOCK = [2, 5, 6, 7]


def _nstep_reference(kind, params, geometry, rho0, t, n):
    # per-factor expm product on the invariant block, one factor at a time
    if t == 0.0:
        return rho0.matrix
    l0, slope, _ = models.coupling_family(kind)
    sub = np.ix_(_BLOCK, _BLOCK)
    dt = t / n
    v = models.vec(rho0.matrix)[_BLOCK]
    for j in range(n):
        g_j = evolve.gaussian_coupling(params.g, geometry, t, (j + 0.5) * dt)
        v = expm((l0[sub] + g_j * slope[sub]) * dt) @ v
    out = np.zeros(9, dtype=complex)
    out[_BLOCK] = v
    return models.unvec(out)


@pytest.mark.parametrize("n", [37, 2051, 4099])
@pytest.mark.parametrize("model", ["open-cavity", "phenom-t0"])
def test_nstep_batched_propagators_match_per_factor_solves(params, paper_rates, geometry,
                                                           model, n):
    if model == "open-cavity":
        kind, basis = models.OpenCavity(paper_rates), Basis.DRESSED
    else:
        kind, basis = models.PhenomT0(0.3 * params.g), Basis.BARE
    rho0 = cf.initial_excited_state(basis)
    t = 200e-6
    state = evolve.nstep_propagate(kind, params, geometry, rho0, t, n)
    reference = _nstep_reference(kind, params, geometry, rho0, t, n)
    assert np.max(np.abs(state.matrix - reference)) <= 1e-12
    assert np.all(models.vec(state.matrix)[_OFF_BLOCK] == 0.0)


def test_nstep_time_array_matches_scalar_calls(params, geometry):
    kind = models.PhenomT0(0.3 * params.g)
    rho0 = cf.initial_excited_state(Basis.BARE)
    ts = np.array([0.0, 3e-6, 47e-6, 200e-6, 431e-6])
    stack = evolve.nstep_propagate(kind, params, geometry, rho0, ts, 201)
    assert stack.matrix.shape == (ts.size, 3, 3)
    for t, state in zip(ts, stack.matrix):
        single = evolve.nstep_propagate(kind, params, geometry, rho0, float(t), 201)
        assert np.max(np.abs(state - single.matrix)) <= 1e-12
    assert np.array_equal(stack.matrix[0], rho0.matrix)


def test_nstep_zero_time_is_the_initial_state(params, paper_rates, geometry):
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    kind = models.OpenCavity(paper_rates)
    single = evolve.nstep_propagate(kind, params, geometry, rho0, 0.0, 37)
    assert np.array_equal(single.matrix, rho0.matrix)
    stack = evolve.nstep_propagate(kind, params, None, rho0, np.array([0.0, 1e-5, 0.0]), 5)
    assert np.array_equal(stack.matrix[0], rho0.matrix)
    assert np.array_equal(stack.matrix[2], rho0.matrix)


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(0.0, 1e6), t=st.floats(0.0, 500e-6, allow_subnormal=False),
       n=st.integers(1, 300))
@example(gamma=0.0, t=500e-6, n=1)                          # degenerate: no damping
@example(gamma=4 * PhysicalParams().g, t=200e-6, n=37)      # exceptional point at the peak
def test_nstep_matches_block_expm_product(params, geometry, gamma, t, n):
    kind = models.PhenomT0(gamma)
    rho0 = cf.initial_excited_state(Basis.BARE)
    state = evolve.nstep_propagate(kind, params, geometry, rho0, t, n)
    reference = _nstep_reference(kind, params, geometry, rho0, t, n)
    assert np.max(np.abs(state.matrix - reference)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(rates=st.tuples(*[st.floats(-1.0, 6.0).map(lambda x: 10.0 ** x)] * 3),
       eps=st.just(0.0) | st.floats(1e-4, 1.0),   # smaller: see the xfails below
       t=st.floats(0.0, 500e-6, allow_subnormal=False), n=st.integers(3, 300))
@example(rates=(1000.0, 1000.0, 46.6), eps=0.0466, t=430e-6, n=101)   # vanishing gap S
def test_nstep_commuting_product_collapses_exactly(params, geometry, rates, eps, t, n):
    kind = models.OpenCavity(DecayRates.simplified(*rates, eps))
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    _, l0, slope = evolve._block_family(kind, rho0)
    assert np.array_equal(l0 @ slope, slope @ l0)   # so the product takes the collapse
    state = evolve.nstep_propagate(kind, params, geometry, rho0, t, n)
    reference = _nstep_reference(kind, params, geometry, rho0, t, n)
    assert np.max(np.abs(state.matrix - reference)) <= 1e-12


# Thermal rates eps*gamma far below the others: the eig propagator, at n = 1
# and with no profile too, drifts from expm (up to 6e-11 for eps in
# [1e-12, 1e-8]) and loses the trace below eps of about 1e-20.
@pytest.mark.parametrize("rates, eps, t", [
    pytest.param((1.0, 1.0, 1.0), 1e-50, 450e-6, marks=pytest.mark.xfail(
        strict=True, raises=ValidationError, reason="trace defect 1.7e-4")),
    pytest.param((3313.146063946679, 21370.9655575764, 0.9701779925624607),
                 6.872035500660881e-11, 0.00036352825861335865, marks=pytest.mark.xfail(
                     strict=True, raises=AssertionError, reason="1.6e-11 off expm")),
], ids=["eps-1e-50", "eps-6.9e-11"])
def test_exact_propagator_at_tiny_eps(params, rates, eps, t):
    kind = models.OpenCavity(DecayRates.simplified(*rates, eps))
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    state = evolve.nstep_propagate(kind, params, None, rho0, t, 1)
    _, l0, slope = evolve._block_family(kind, rho0)
    v = np.zeros(9, dtype=complex)
    v[_BLOCK] = expm((l0 + params.g * slope) * t) @ models.vec(rho0.matrix)[_BLOCK]
    assert np.max(np.abs(state.matrix - models.unvec(v))) <= 1e-12


@pytest.fixture
def eig_batches(monkeypatch):
    """The number of generators in each np.linalg.eig call made during the test."""
    sizes = []
    eig = np.linalg.eig

    def counting_eig(a):
        sizes.append(len(a) if np.ndim(a) == 3 else 1)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    return sizes


def test_open_cavity_product_takes_one_eig(params, paper_rates, geometry, eig_batches):
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    evolve.nstep_propagate(models.OpenCavity(paper_rates), params, geometry, rho0,
                           (150e-6, 430e-6), 20001)
    assert eig_batches == [1]


@pytest.mark.parametrize("model", ["phenom-t0", "phenom-t"])
def test_phenom_products_never_collapse(params, geometry, eig_batches, model):
    gamma = 0.3 * params.g
    kind = (models.PhenomT0(gamma) if model == "phenom-t0"
            else models.PhenomT.from_temperature(gamma, params))
    rho0 = cf.initial_excited_state(Basis.BARE)
    evolve.nstep_propagate(kind, params, geometry, rho0, 200e-6, 37)
    assert sum(eig_batches) == 19   # one generator per distinct coupling


def test_nstep_validation(params, paper_rates, geometry):
    # one check serves the generic product and the phenom-t0 amplitude product
    kind = models.OpenCavity(paper_rates)
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    for n in (0, -3, 2.5, 3.0, np.float64(3.0), True, False, np.bool_(True), "3", None,
              np.array([3])):
        with pytest.raises(ValidationError, match="n must be a positive integer"):
            evolve.nstep_propagate(kind, params, None, rho0, 1e-5, n)
        with pytest.raises(ValidationError, match="n must be a positive integer"):
            cf.phenom_T0_rho(params.g, 0.3 * params.g, 1e-5, geometry, n)


@pytest.mark.parametrize("n", [np.int64(3), np.uint8(3), np.int32(3)])
def test_nstep_accepts_numpy_integers(params, paper_rates, geometry, n):
    kind = models.OpenCavity(paper_rates)
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    state = evolve.nstep_propagate(kind, params, geometry, rho0, 1e-5, n)
    assert np.array_equal(state.matrix,
                          evolve.nstep_propagate(kind, params, geometry, rho0, 1e-5, 3).matrix)
    amplitude = cf.phenom_T0_rho(params.g, 0.3 * params.g, 1e-5, geometry, n)
    assert np.array_equal(amplitude.matrix,
                          cf.phenom_T0_rho(params.g, 0.3 * params.g, 1e-5, geometry, 3).matrix)


def test_nstep_chunks_match_per_factor_solves(params, paper_rates, geometry):
    # three times: chunks of BLOCK // 3 = 1365 factors, so 4099 factors take four
    # (phenom-t takes them; the open-cavity product collapses to one factor)
    ts = np.array([20e-6, 150e-6, 430e-6])
    n = 4099
    assert n > 3 * (BLOCK // ts.size)
    for kind, basis in ((models.OpenCavity(paper_rates), Basis.DRESSED),
                        (models.PhenomT.from_temperature(0.3 * params.g, params), Basis.BARE)):
        rho0 = cf.initial_excited_state(basis)
        stack = evolve.nstep_propagate(kind, params, geometry, rho0, ts, n)
        for t, state in zip(ts, stack.matrix):
            reference = _nstep_reference(kind, params, geometry, rho0, t, n)
            assert np.max(np.abs(state - reference)) <= 1e-12, kind


# Two times give chunks of BLOCK // 2 = 2048 factors; the couplings are mirrored,
# so factor n-1-j is exceptional too.
@pytest.mark.parametrize("j", [1000, BLOCK // 2 - 1, 4098],
                         ids=["inside-a-chunk", "last-of-a-chunk", "final-factor"])
def test_nstep_exceptional_factor_in_any_position(params, geometry, j):
    n = 4099
    gs = evolve._midpoint_couplings(params.g, geometry, n)
    kind = models.PhenomT0(4.0 * gs[j])   # gamma = 4 g_j: L(g_j) is defective
    rho0 = cf.initial_excited_state(Basis.BARE)
    _, l0, slope = evolve._block_family(kind, rho0)
    vecs = np.linalg.eig(l0 + gs[j] * slope)[1]
    assert abs(np.linalg.det(vecs)) < 1e-2   # the factor takes the series
    ts = np.array([200e-6, 430e-6])
    stack = evolve.nstep_propagate(kind, params, geometry, rho0, ts, n)
    for t, state in zip(ts, stack.matrix):
        reference = _nstep_reference(kind, params, geometry, rho0, t, n)
        assert np.max(np.abs(state - reference)) <= 1e-12


def test_nstep_memory_stays_bounded(params, paper_rates, geometry):
    times = (150e-6, 430e-6)
    for kind, basis in ((models.OpenCavity(paper_rates), Basis.DRESSED),
                        (models.PhenomT.from_temperature(0.3 * params.g, params), Basis.BARE)):
        rho0 = cf.initial_excited_state(basis)
        evolve.nstep_propagate(kind, params, geometry, rho0, times, 101)
        tracemalloc.start()
        try:
            evolve.nstep_propagate(kind, params, geometry, rho0, times, 20001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the product took this holding every generator at once
        assert peak <= 13.35 * 2 ** 20, (kind, peak)


def test_gaussian_integration_decays_like_constant(params, paper_rates, geometry):
    # profile only rephases the oscillation: |rho_+-| matches the constant run
    kind = models.OpenCavity(paper_rates)
    rho0 = cf.initial_excited_state(Basis.DRESSED)
    ts = np.linspace(0.0, 120e-6, 7)[1:]
    const = evolve.nstep_propagate(kind, params, None, rho0, ts, 1)
    gauss = evolve.nstep_propagate(kind, params, geometry, rho0, ts, 201)
    assert np.max(np.abs(np.abs(const.matrix[:, 0, 1]) - np.abs(gauss.matrix[:, 0, 1]))) <= 1e-10
