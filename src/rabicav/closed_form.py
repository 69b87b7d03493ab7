"""Analytic solutions of the four models.

The T = 0 photon-loss state comes from one no-jump amplitude, entire in d^2 = gamma^2 - 16 g^2.

The open-cavity model is solved through its damping basis: the generator's
nine eigenoperators are known in closed form, the initial state |e,0><e,0|
decomposes over five of them, and the evolution is a plain sum of decaying
exponentials, so every curve is one :class:`ExpSum`.  The states'
decomposition has removable singularities that it does not resolve (a
vanishing eigenvalue gap S or vanishing denominators); there, and close to
them where it loses precision, the states come from an exact propagator on
the invariant block of |e,0><e,0|, tagged ``"fallback"``.  The curves'
coefficients stay bounded as S vanishes and take the limit of their
coincident pair at S = 0, so only S^2 < 0 outside the vanishing band (rates
that meet the thermal simplification within its tolerance alone) sums the
curves over the block's five eigenvalues.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BLOCK, Basis, DensityMatrix, ValidationError, elementwise, time_grid
from .evolve import CavityGeometry, SQRT_PI, _block_family, _midpoint_couplings
from .models import DecayRates, OpenCavity, PhysicalParams, dressed_hamiltonian, unvec, vec

_DRESSED_INITIAL = np.array([
    [0.5, -0.5, 0.0],
    [-0.5, 0.5, 0.0],
    [0.0, 0.0, 0.0],
], dtype=complex)


def initial_excited_state(basis: Basis) -> DensityMatrix:
    """|e,0><e,0| in the requested basis."""
    if basis is Basis.BARE:
        return DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex), basis)
    return DensityMatrix(_DRESSED_INITIAL.copy(), basis)


def _state(diag: np.ndarray, m01: np.ndarray, m10: np.ndarray, basis: Basis, t,
           note: str | None = None) -> DensityMatrix:
    """Strictly validated states with diagonals ``diag`` (N, 3) and the given
    (0, 1) and (1, 0) entries: one matrix for a scalar ``t``, else the stack."""
    m = np.zeros((len(diag), 3, 3), dtype=complex)
    m[:, [0, 1, 2], [0, 1, 2]] = diag
    m[:, 0, 1] = m01
    m[:, 1, 0] = m10
    return DensityMatrix(m[0] if np.ndim(t) == 0 else m, basis, note).validate()


@dataclass(frozen=True, eq=False)
class ExpSum:
    """The curve const + Re sum_k c_k exp(z_k t), over z_k such as the
    damping-basis eigenvalues (Briegel & Englert, PRA 47, 3311 (1993)).

    :meth:`at` and :meth:`smeared` take a time or a 1-D array of times >= 0
    and return a float or an array.  A term with real c reduces to
    c*exp(Re z t)*cos(Im z t), with real z to c*exp(z t), and is evaluated
    in that reduced form; a term with c = 0 is skipped.

    ``dc`` and ``dz``, when given, hold the derivatives of c and z along P
    parameter directions, as P rows of K numbers, for :meth:`slopes`.
    """

    const: float
    c: np.ndarray     # shape (K,), K >= 1, real or complex
    z: np.ndarray     # shape (K,), real or complex
    dc: Sequence[Sequence[complex]] | None = None
    dz: Sequence[Sequence[complex]] | None = None

    def at(self, t):
        """The sum at the sharp time(s) ``t``."""
        return self._sum(t, 0.0)[0]

    def smeared(self, delta_t: float, t):
        """The sum averaged over a gamma-distributed evolution time of mean t
        and variance t*delta_t (the gamma kernel of :mod:`rabicav.dephase`).

        The kernel's moment-generating identity maps each e^{z t} to
        e^{phi t} with phi = -log(1 - z*delta_t)/delta_t (Bonifacio,
        Olivares, Tombesi & Vitali, PRA 61, 053802 (2000)).
        ``delta_t == 0`` gives :meth:`at`.
        """
        return self._sum(t, _spread(delta_t))[0]

    def slopes(self, delta_t: float, t, wrt_delta_t: bool = False):
        """:meth:`smeared` and its derivatives: the values and a (P, N) array
        of columns, one per row of ``dc`` and ``dz`` and, with
        ``wrt_delta_t``, a last one for delta_t.

        Each column is Re sum_k (dc_k + c_k t dphi_k) e^{phi_k t}, formed from
        the exponentials that give the values, which are those of
        :meth:`smeared` bit for bit.
        """
        return self._sum(t, _spread(delta_t), True, wrt_delta_t)

    def _sum(self, t, delta_t: float, columns: bool = False, wrt_delta_t: bool = False):
        """The sum at ``t``, sharp for ``delta_t == 0``, else smeared, and its
        columns (None unless ``columns``)."""
        ts = time_grid(t)
        out = np.full(ts.shape, self.const)
        if delta_t:
            # (t/dt) * (-L/2) rounds as -(t/(2 dt)) * L: halving is exact
            t_dt = ts / delta_t
        cs = self.c.tolist()
        live = cs   # a zero coefficient adds nothing to the values
        if columns:
            weights, live = self._weights(delta_t, wrt_delta_t)
            # Re and Im of each term's exponential, one row each
            parts = np.zeros((2 * len(cs), ts.size))
        for k, (c, z) in enumerate(zip(cs, self.z.tolist())):
            if not live[k]:
                continue
            a, w = -z.real, z.imag
            if not delta_t:
                mod, phase = np.exp(z.real * ts), (z.imag * ts if w else None)
            elif not w:
                mod, phase = np.exp(t_dt * -_smeared_log(a * delta_t, delta_t)), None
            else:
                # log|1 - z dt|^2 and -arg(1 - z dt)
                log_mod = _smeared_log(2.0 * a * delta_t + (a * a + w * w) * delta_t * delta_t,
                                       delta_t)
                mod = np.exp(t_dt * (-0.5 * log_mod))
                phase = t_dt * math.atan2(w * delta_t, 1.0 + a * delta_t)
            if phase is not None:
                cos = np.cos(phase)
                sin = np.sin(phase) if c.imag or columns else None
            if columns:
                if phase is None:
                    parts[2 * k] = mod
                else:
                    np.multiply(mod, cos, out=parts[2 * k])
                    np.multiply(mod, sin, out=parts[2 * k + 1])
            # in place, in the product order the curve digests pin:
            # (c mod) cos, or mod (c.re cos - c.im sin)
            if phase is not None and c.imag:
                cos *= c.real
                sin *= c.imag
                cos -= sin
                mod *= cos
            else:
                mod *= c.real
                if phase is not None:
                    mod *= cos
            out += mod
        values = float(out[0]) if np.ndim(t) == 0 else out
        if not columns:
            return values, None
        # the dc rows weigh the exponentials, the c dphi rows t times them
        both = weights @ parts
        d, f = both[:len(both) // 2], both[len(both) // 2:]
        f *= ts
        d += f
        return values, d

    def _weights(self, delta_t: float, wrt_delta_t: bool):
        """The weights of (Re, Im) of each term's exponential in the columns:
        (Re, -Im) of dc_k in the first half of the rows, of c_k dphi_k in the
        second; and whether each term counts (c_k or a dc_k nonzero)."""
        c, z = self.c.tolist(), self.z.tolist()
        d = list(self.dc)
        # c dphi/dz, with dphi/dz = 1/(1 - z dt)
        g = [ck / (1.0 - zk * delta_t) for ck, zk in zip(c, z)]
        f = [[dzk * gk for dzk, gk in zip(row, g)] for row in self.dz]
        if wrt_delta_t:
            d.append((0.0,) * len(c))
            f.append([ck * _dphi_ddelta_t(zk, delta_t) for ck, zk in zip(c, z)])
        live = [ck != 0 or any(row[k] for row in d) for k, ck in enumerate(c)]
        # (Re w, -Im w) pairs, as the float view of conj(w)
        w = np.array(d + f, dtype=complex).reshape(len(d) + len(f), len(c))
        return w.conj().view(float), live


def _spread(delta_t: float) -> float:
    if not 0 <= delta_t < math.inf:   # a NaN fails too
        raise ValidationError("delta_t must be >= 0 and finite")
    return delta_t


def _smeared_log(x: float, delta_t: float) -> float:
    """log1p(x) for a smeared exponent; a ValidationError naming delta_t if it overflows."""
    y = math.log1p(x)
    if y == math.inf:
        raise ValidationError(
            f"delta_t = {delta_t!r} is too large: the smeared exponent overflows")
    return y


def _dphi_ddelta_t(z: complex, delta_t: float) -> complex:
    """d/d(delta_t) of phi = -log(1 - z delta_t)/delta_t, which is z^2/2 at delta_t = 0.

    It is z^2 h(u) with u = z delta_t and h(u) = (u/(1 - u) + log(1 - u))/u^2.
    That form loses about 4 eps/|u| relative to cancellation, so below
    |u| = 0.01 h is summed as its series sum_m (m + 1)/(m + 2) u^m, to u^8.
    """
    u = z * delta_t
    if abs(u) >= 0.01:
        return (u / (1.0 - u) + cmath.log(1.0 - u)) / (delta_t * delta_t)
    h = 0.0
    for m in range(8, -1, -1):
        h = h * u + (m + 1) / (m + 2)
    return z * z * h


# ---------------------------------------------------------------------------
# Photon-loss model at T = 0
# ---------------------------------------------------------------------------

def phenom_T0_rho(g: float, gamma: float, t, geometry: CavityGeometry | None = None,
                  n: int = 1) -> DensityMatrix:
    """State of the T = 0 photon-loss model started from |e,0><e,0|.

    ``t`` is a time or a 1-D array of times (one state per time, stacked).
    The jump a only feeds |g,0>, so the state is psi psi^H on (|e,0>, |g,1>)
    plus 1 - |psi|^2 on |g,0>, with the no-jump psi' = A psi, A = [[0, -ig],
    [-ig, -gamma/2]] (Dalibard, Castin & Molmer, PRL 68, 580 (1992)), over n
    factors at :func:`rabicav.evolve.nstep_propagate`'s couplings g_j (all g
    without ``geometry``, exact at n = 1).  With d^2 = gamma^2 - 16 g^2,
    exp(A tau) = e^{-gamma tau/4} [cosh(d tau/4) I + tau sinhc(d tau/4) (A +
    gamma/4 I)] is entire in d^2, so gamma = 4 g_j is an ordinary point.  It
    is written through the mode rates (gamma -+ d)/4 and expm1, so no large
    gamma tau forms 0 * inf, and each factor adds (exp(A tau) - I) psi, so
    entries next to 1 do not round alike in every factor.  The states are
    tagged ``"hyperbolic"`` when every factor is overdamped, gamma > 4 max g_j.
    """
    ts = time_grid(t)
    if not (g > 0 and gamma >= 0):   # a NaN fails too
        raise ValidationError("need g > 0, gamma >= 0")
    if not math.isfinite(16.0 * g * g):
        raise ValidationError(f"g = {g!r} is too large: the closed form overflows")
    if not math.isfinite(gamma * gamma - 16.0 * g * g):
        raise ValidationError(f"gamma = {gamma!r} is too large: the closed form overflows")
    gs = _midpoint_couplings(g, geometry, n)
    tau, chunk = ts / gs.size, max(1, BLOCK // max(ts.size, 1))
    x, y = np.ones(ts.size), np.zeros(ts.size)   # psi = (x, -iy), x and y real
    for lo in range(0, gs.size, chunk):
        gj = gs[lo:lo + chunk, None]
        r = np.sqrt(gamma * gamma - 16.0 * gj * gj + 0j)
        slow, fast, u = 4.0 * gj * gj / (gamma + r) * tau, 0.25 * (gamma + r) * tau, 0.5 * r * tau
        cosh1 = (0.5 * (np.expm1(-slow) + np.expm1(-fast))).real
        # h = 1 to the last bit below |u| = 1e-300, where numpy's complex division overflows
        h = np.divide(-np.expm1(-u), u, out=np.ones_like(u), where=abs(u) > 1e-300)
        sinhc = (np.exp(-slow) * h).real * tau
        e11, e22, e21 = cosh1 + 0.25 * gamma * sinhc, cosh1 - 0.25 * gamma * sinhc, gj * sinhc
        for a, d, c in zip(e11, e22, e21):
            x, y = x + (a * x - c * y), y + (c * x + d * y)
    m01, gmax = 1j * (x * y), gs.max()
    return _state(np.column_stack([x * x, y * y, 1.0 - x * x - y * y]), m01, -m01, Basis.BARE,
                  t, "hyperbolic" if gamma * gamma - 16.0 * gmax * gmax > 0 else None)


# ---------------------------------------------------------------------------
# Dressed-state decay model (closed cavity)
# ---------------------------------------------------------------------------

def microscopic_rho(g: float, gamma1: float, gamma2: float, t) -> DensityMatrix:
    """Dressed-basis state of the closed-cavity dressed-decay model.

    ``t`` is a time or a 1-D array of times (one state per time, stacked).
    """
    ts = time_grid(t)
    if gamma1 < 0 or gamma2 < 0:
        raise ValidationError("rates must be >= 0")
    _check_phase(g, g, ts)
    e1 = np.exp(-gamma1 * ts / 2.0)
    e2 = np.exp(-gamma2 * ts / 2.0)
    coh = -0.5 * np.exp(-(gamma1 + gamma2) * ts / 4.0)
    diag = np.column_stack([0.5 * e1, 0.5 * e2, 1.0 - 0.5 * e1 - 0.5 * e2])
    return _state(diag, coh * np.exp(-2j * g * ts), coh * np.exp(2j * g * ts),
                  Basis.DRESSED, t)


def microscopic_pg(g: float, gamma1: float, gamma2: float, t) -> float | np.ndarray:
    """Ground-state probability of the dressed-decay model.

    Symmetric under gamma1 <-> gamma2; with one rate zero it is trapped at
    the asymptote 3/4 instead of reaching 1.
    """
    if gamma1 < 0 or gamma2 < 0:
        raise ValidationError("rates must be >= 0")
    z = np.array([-gamma1 * 0.5, -gamma2 * 0.5, complex(-(gamma1 + gamma2) * 0.25, 2.0 * g)])
    return ExpSum(1.0, np.array([-0.25, -0.25, -0.5]), z).at(t)


# ---------------------------------------------------------------------------
# Open-cavity damping basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DampingBasis:
    """The nine eigenvalues of the open-cavity generator.

    ``components`` holds the rows (x_i, y_i, z_i), i = 1..3, of the
    population-sector eigenoperators rho_i = x_i|O+><O+| + y_i|O-><O-| +
    z_i|O0><O0| in the normalization fixed by the closed-form coefficient
    expressions; lambda4..lambda9 belong to the dressed units E_01, E_02,
    E_12, E_10, E_20 and E_21.  ``s_value`` is the eigenvalue gap parameter;
    when |S| is at most 1e-12 times the total rate the basis is flagged
    degenerate: the states take the numeric fallback there, the curves the
    limit of their coincident pair.
    """

    eigenvalues: np.ndarray       # shape (9,), complex
    components: np.ndarray        # shape (3, 3): rows (x_i, y_i, z_i)
    s_value: complex
    degenerate: bool


def _gap(rates: DecayRates) -> tuple[complex | float, bool]:
    """The eigenvalue gap S (real when S^2 >= 0) and whether it vanishes,
    |S| <= 1e-12 times the total rate."""
    g1, g2, g3 = rates.gamma1, rates.gamma2, rates.gamma3
    ga, gb, gc = rates.gamma_a, rates.gamma_b, rates.gamma_c
    try:
        s2 = (g1 - g2 + g3 - ga - gb + gc) ** 2 + 4.0 * (g1 - g2) * (ga - gc)
    except OverflowError:
        raise ValidationError("decay rates are too large: the gap S^2 overflows") from None
    s = cmath.sqrt(s2)
    if s.imag == 0.0:
        s = s.real
    return s, abs(s) <= 1e-12 * rates.total


def damping_basis(rates: DecayRates, params: PhysicalParams | None = None) -> DampingBasis:
    """Closed-form spectral decomposition of the open-cavity generator.

    Off-diagonal eigenvalues carry the coupling-dependent imaginary parts
    only when ``params`` is supplied: lambda4..lambda6 rotate at 2g, g and -g,
    in the frame of :func:`rabicav.models.build_liouvillian` (rotating at
    omega0), which acceptance criterion 10 checks them against.
    """
    g1, g2, g3 = rates.gamma1, rates.gamma2, rates.gamma3
    ga, gb, gc = rates.gamma_a, rates.gamma_b, rates.gamma_c
    total = rates.total
    s, degenerate = _gap(rates)

    lam = np.zeros(9, dtype=complex)
    lam[1] = -(total + s) / 4.0
    lam[2] = -(total - s) / 4.0
    components = np.array([
        [gb * gc + ga * (g2 + gc),
         g3 * ga + gb * (g1 + g3),
         g2 * g3 + g1 * (g2 + gc)],
        [(g1 - g3) * (gc - ga) - (g1 + g3) * (g1 - g2 + g3 - gb + s),
         (g1 + g3) * (g3 - gb) + g3 * (g2 - ga + gc + s) - g1 * gb,
         -2.0 * g2 * g3 + g1 * (g1 - g2 + g3 + ga + gb - gc + s)],
        [(g1 - g3) * (gc - ga) - (g1 + g3) * (g1 - g2 + g3 - gb - s),
         (g1 + g3) * (g3 - gb) + g3 * (g2 - ga + gc - s) - g1 * gb,
         -2.0 * g2 * g3 + g1 * (g1 - g2 + g3 + ga + gb - gc - s)],
    ])

    decay4 = (g1 + g2 + g3 + gc) / 4.0
    decay5 = (g1 + g3 + ga + gb) / 4.0
    decay6 = (g2 + ga + gb + gc) / 4.0
    g = 0.0 if params is None else params.g
    lam[3] = -2j * g - decay4
    lam[4] = -1j * g - decay5
    lam[5] = 1j * g - decay6
    lam[6] = np.conj(lam[3])
    lam[7] = np.conj(lam[4])
    lam[8] = np.conj(lam[5])
    return DampingBasis(lam, components, s, degenerate)


def _check_simplified(rates: DecayRates, eps: float):
    if eps < 0:
        raise ValidationError("eps must be >= 0")
    scale = max(rates.total, 1e-300)
    for name, got, want in (("gamma_a", rates.gamma_a, eps * rates.gamma1),
                            ("gamma_b", rates.gamma_b, eps * rates.gamma2),
                            ("gamma_c", rates.gamma_c, rates.gamma3)):
        if abs(got - want) > 1e-9 * scale:
            raise ValidationError(
                f"{name} = {got} violates the thermal simplification (expected {want})")


def _phase_coupling(params: PhysicalParams, geometry: CavityGeometry | None) -> float:
    if geometry is None:
        return params.g
    # ((g * sqrt(pi)) * w) / d, not g * profile_mean: the curve digests pin this order.
    return params.g * SQRT_PI * geometry.waist / geometry.diameter


def _check_phase(g: float, g_phase: float, ts: np.ndarray) -> None:
    """A ValidationError naming ``g`` where the phase 2 g_phase t overflows."""
    if not math.isfinite(2.0 * g_phase * float(ts.max(initial=0.0))):
        raise ValidationError(f"g = {g!r} is too large: the phase 2 g t overflows")


def _fallback(rates: DecayRates, params: PhysicalParams, t,
              geometry: CavityGeometry | None):
    """Exact propagation on the invariant block of |e,0><e,0| (degenerate inputs).

    One eigendecomposition of the generator on the block
    (:func:`rabicav.evolve._block_family`) serves every time in ``t``.
    Returns the states at ``t``, tagged ``"fallback"``, the block's
    eigenvalues lam and the modes: vec(rho(t)) = modes @ exp(lam t).
    For the Gaussian profile the coupling enters the generator only through
    the off-diagonal phases, so propagating with the effective coupling
    reproduces the profile-averaged state; an overflowing generator is a ValidationError.
    """
    rho0 = initial_excited_state(Basis.DRESSED)
    block, l0, slope = _block_family(OpenCavity(rates), rho0)
    with np.errstate(over="ignore", invalid="ignore"):
        generator = l0 + _phase_coupling(params, geometry) * slope
    if not np.isfinite(generator).all():
        raise ValidationError(
            f"g = {params.g!r} is too large: the open-cavity generator overflows")
    lam, vmat = np.linalg.eig(generator)
    modes = np.zeros((9, block.size), dtype=complex)
    modes[block] = vmat * np.linalg.solve(vmat, vec(rho0.matrix)[block])
    ts = time_grid(t)
    # A stacked matrix-vector product, which rounds exactly as one product per time.
    m = unvec(np.matmul(modes, np.exp(ts[:, None] * lam)[:, :, None])[:, :, 0])
    m = 0.5 * (m + np.swapaxes(m.conj(), 1, 2))
    rho = DensityMatrix(m[0] if np.ndim(t) == 0 else m, Basis.DRESSED, "fallback")
    return rho, lam, modes


def _fallback_rho(rates: DecayRates, params: PhysicalParams, t,
                  geometry: CavityGeometry | None) -> DensityMatrix:
    """The fallback states of :func:`_fallback` alone."""
    return _fallback(rates, params, t, geometry)[0]


def opencavity_rho(rates: DecayRates, eps: float, params: PhysicalParams,
                   t, geometry: CavityGeometry | None = None) -> DensityMatrix:
    """Open-cavity state at time t, started from |e,0><e,0| (dressed basis).

    ``t`` is a time or a 1-D array of times (one state per time, stacked).
    ``geometry`` switches the coupling phase to the Gaussian-profile
    effective value; the decay exponents are unaffected.  The rates must meet
    the thermal simplification.  |e,0><e,0| decomposes as A1 rho1 + A2 rho2 +
    A3 rho3 - (rho4 + rho7)/2 over the damping basis; A2 and A3 carry 1/S and
    1/(eps*gamma1 - gamma3).  Where the gap or one of the denominators
    vanishes or nearly does (|S| <= 1e-5 or |eps*gamma1 - gamma3| <= 1e-2
    times the total rate, a vanishing stationary-sector normalization d, or
    a complex S), the singularities are removable but unresolved, and the
    states come from the numeric fallback, tagged ``"fallback"``.
    """
    ts = time_grid(t)
    _check_simplified(rates, eps)
    g1, g2, g3 = rates.gamma1, rates.gamma2, rates.gamma3
    basis = damping_basis(rates)
    s = basis.s_value
    d = g2 * g3 + g1 * (g2 + g3)
    scale = max(rates.total, 1e-300)
    # A2 and A3's terms cancel to O(1): close to either singular family the
    # populations lose up to about 5e-15 * total/|eps*gamma1 - gamma3|
    # (measured), so the exact block propagator takes over there.
    if (abs(s) <= 1e-5 * scale or abs(eps * g1 - g3) <= 1e-2 * scale
            or abs(d) <= 1e-12 * scale * scale or s.imag != 0):
        return _fallback_rho(rates, params, t, geometry)
    s = s.real
    n = (g1 * g1 * (1.0 + eps) - g1 * g2 * (1.0 + 3.0 * eps)
         + 2.0 * g1 * g3 * (1.0 - eps) + 2.0 * g3 * (2.0 * g3 - g2 * eps))
    denom = (2.0 * eps + 1.0) * 4.0 * s * d * (eps * g1 - g3)
    a1 = 1.0 / ((2.0 * eps + 1.0) * d)
    a2 = 0.5 * (n - s * (g1 + 2.0 * g3)) / denom
    a3 = -0.5 * (n + s * (g1 + 2.0 * g3)) / denom
    lam2, lam3, lam4 = (basis.eigenvalues[k].real for k in (1, 2, 3))
    c2 = a2 * elementwise(math.exp, lam2 * ts)
    c3 = a3 * elementwise(math.exp, lam3 * ts)
    rho1, rho2, rho3 = basis.components     # diagonals of the population eigenoperators
    diag = a1 * rho1 + c2[:, None] * rho2 + c3[:, None] * rho3
    coh = -0.5 * elementwise(math.exp, lam4 * ts)
    g_phase = _phase_coupling(params, geometry)
    _check_phase(params.g, g_phase, ts)
    return _state(diag, coh * np.exp(-2j * g_phase * ts), coh * np.exp(2j * g_phase * ts),
                  Basis.DRESSED, t)


def _population_decay(rates: DecayRates, eps: float):
    """Gap S, the decay rates kp, km and whether S vanishes (:func:`_gap`); None
    where S^2 < 0 outside that band.  kp, km equal -eigenvalues[1:3] but are
    formed in the rounding the curve digests pin.

    Under the exact simplification S^2 >= 0; rates that meet it only within
    its tolerance may give S^2 < 0 next to S = 0.  Inside the band such an S
    counts as |S|: the curves are entire in S^2, so that moves them by O(S^2).
    """
    _check_simplified(rates, eps)
    s, vanishing = _gap(rates)
    if isinstance(s, complex):
        if not vanishing:
            return None
        s = abs(s)
    g1, g2, g3 = rates.gamma1, rates.gamma2, rates.gamma3
    total = g1 + g2 + 2.0 * g3 + eps * (g1 + g2)
    return s, (total + s) / 4.0, (total - s) / 4.0, vanishing


def _pg_sum(rates: DecayRates, eps: float, params: PhysicalParams, t,
            geometry: CavityGeometry | None,
            along: Sequence[tuple[float, float, float]] | None = None) -> ExpSum:
    """The ground-state probability as an :class:`ExpSum`: two population
    exponentials and the Rabi term, or the fallback spectrum where S^2 < 0
    outside the vanishing band.

    With S^2 = base^2 + (1 + 2 eps)(gamma1 - gamma2)^2, |base| <= S, so the
    pair's coefficients (base/S -+ 1)/(4 (2 eps + 1)) are bounded; at S = 0
    both exponentials coincide and base/S := 0 gives their limit.

    For each direction (u1, u2, u3) in ``along``, the closed form also
    carries the derivatives of c and z along u1 d/dgamma1 + u2 d/dgamma2 +
    u3 d/dgamma3 under the thermal simplification; the fallback spectrum,
    which :meth:`DecayRates.simplified` rates do not reach, carries none.
    """
    decay = _population_decay(rates, eps)
    if decay is None:
        # 1 - Tr(P rho) with P = |e,0><e,0|, as Tr(A rho) = vec(A^T) . vec(rho)
        _, lam, modes = _fallback(rates, params, t, geometry)
        return ExpSum(1.0, -vec(_DRESSED_INITIAL.T) @ modes, lam)
    s, kp, km, vanishing = decay
    g1, g2, g3 = rates.gamma1, rates.gamma2, rates.gamma3
    base = 2.0 * g3 - eps * (g1 + g2)
    if s:
        norm = 4.0 * s * (2.0 * eps + 1.0)
        c = np.array([(base - s) / norm, -(base + s) / norm, -0.5])
    else:
        c = np.array([-0.25 / (2.0 * eps + 1.0)] * 2 + [-0.5])
    gamma4 = (g1 + g2 + 2.0 * g3) / 4.0
    z = np.array([-kp, -km, complex(-gamma4, 2.0 * _phase_coupling(params, geometry))])
    if along is None:
        return ExpSum(opencavity_pg_asymptote(eps), c, z)
    if not vanishing:
        # at gamma1 = gamma2, base/S is +-1 exactly, so along u1 = u2 a
        # coefficient that is 0 has dc = 0 too
        ratio, skew = base / s, (1.0 + 2.0 * eps) * (g1 - g2) / s
    dc, dz = [], []
    for u1, u2, u3 in along:
        d_base = 2.0 * u3 - eps * (u1 + u2)
        d_total = u1 + u2 + 2.0 * u3 + eps * (u1 + u2)
        if vanishing:
            # p_g is entire in S^2, whose derivative vanishes with S: to first
            # order the pair is -e^{-(T - base) t/4} / (2 (2 eps + 1))
            d_c, d_kp, d_km = 0.0, (d_total - d_base) / 4.0, (d_total - d_base) / 4.0
        else:
            d_s = ratio * d_base + skew * (u1 - u2)
            d_c = (d_base - ratio * d_s) / norm
            d_kp, d_km = (d_total + d_s) / 4.0, (d_total - d_s) / 4.0
        dc.append((d_c, -d_c, 0.0))
        dz.append((-d_kp, -d_km, -(u1 + u2 + 2.0 * u3) / 4.0))
    return ExpSum(opencavity_pg_asymptote(eps), c, z, dc, dz)


def opencavity_pg(rates: DecayRates, eps: float, params: PhysicalParams,
                  t, geometry: CavityGeometry | None = None):
    """Ground-state probability of the open-cavity model.

    Three-exponential closed form with asymptote (1+eps)/(1+2*eps), also at
    a vanishing eigenvalue gap (see :func:`_pg_sum`); only S^2 < 0 outside
    that band sums the fallback generator's spectrum.
    """
    return _pg_sum(rates, eps, params, t, geometry).at(t)


def opencavity_pg_asymptote(eps: float) -> float:
    return (1.0 + eps) / (1.0 + 2.0 * eps)


def _energy_sum(rates: DecayRates, eps: float, params: PhysicalParams, t) -> ExpSum:
    """The mean energy as an :class:`ExpSum`, over the fallback spectrum (states
    validated at ``t``) where :func:`_pg_sum` takes it."""
    decay = _population_decay(rates, eps)
    if decay is None:
        _, lam, modes = _fallback(rates, params, t, None)
        return ExpSum(0.0, vec(dressed_hamiltonian(params).T) @ modes, lam)
    s, kp, km, _ = decay
    g1, g2, g3 = rates.gamma1, rates.gamma2, rates.gamma3
    w0, g = params.omega0, params.g
    base = g1 * eps * (w0 + 2.0 * g) + g2 * eps * (w0 - 2.0 * g) + g * (g1 - g2) - 2.0 * w0 * g3
    if s:
        norm = 2.0 * s * (2.0 * eps + 1.0)
        c = np.array([(base + s * w0) / norm, -(base - s * w0) / norm])
    else:   # |base| <= (omega0 + sqrt(1 + 2 eps) g) S: base/S := 0, as in _pg_sum
        c = np.full(2, 0.5 * w0 / (2.0 * eps + 1.0))
    return ExpSum(energy_mean_asymptote(eps, params), c, np.array([-kp, -km]))


def energy_mean(rates: DecayRates, eps: float, params: PhysicalParams, t):
    """Mean confined energy Tr(Omega rho(t)) in angular-frequency units.

    With gamma1 = gamma2 the curve is independent of gamma3.  It sums the
    fallback generator's spectrum where :func:`opencavity_pg` does.
    """
    return _energy_sum(rates, eps, params, t).at(t)


def energy_mean_asymptote(eps: float, params: PhysicalParams) -> float:
    return 0.5 * params.omega0 * (2.0 * eps - 1.0) / (2.0 * eps + 1.0)
