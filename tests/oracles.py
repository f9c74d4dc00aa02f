"""Checks that only the tests call: each compares a library result with an
independent route to the same quantity.

substitution_check integrates cn^2 by adaptive quadrature on both sides of
a change of variables; full_range_bisection solves a resonance by plain
bisection over the whole k' range; fixed_tolerance_newton runs the
fixed-point Newton with every flow at the full tolerance, from a plain or
a normal first step; recorded records every call of a library callable,
or answers it from a stub, and counted_flows, recorded_maps and time_size
read the stroboscopic flows, the maps and the orbit samples it records;
homoclinic_limit_check measures how fast the m/1 subharmonic curves
approach their homoclinic limits; orbit_ode_residual and
homoclinic_limit_distance test the closed-form orbits against the pendulum
ODE and against the separatrix.
"""

import collections
import contextlib
import math

import numpy as np
from scipy.integrate import quad

from melnikov_lab import poincare
from melnikov_lab.elliptic import EllipticModulus, jacobi_real
from melnikov_lab.melnikov import (
    IntegrationFailure,
    MelnikovCurve,
    closed_form_homoclinic,
    closed_form_subharmonic,
    solve_resonance,
)
from melnikov_lab.pendulum import INNER, ROTATING_MINUS, OrbitFamily, orbit_state, wrap_angle

_SUBSTITUTION_TOL = 1e-10  # quad tolerance of both sides of substitution_check
_ODE_RESIDUAL_STEP = 1e-3  # step of orbit_ode_residual's difference stencil
_LIMIT_ORBIT_SAMPLES = 800  # orbit samples in homoclinic_limit_distance


def substitution_check(mod: EllipticModulus, t_lo: float, t_hi: float) -> float:
    """Discrepancy in the substitution s = 1/sn(t) for int cn^2 dt.

    Compares int_{t_lo}^{t_hi} cn^2 t dt against
    -int (1/s^2) sqrt((1-s^2)/(k^2-s^2)) ds over the image interval;
    both sides by adaptive quadrature.  Requires 0 < t_lo <= t_hi < K,
    where sn is positive and cn/dn keeps the branch of the square root.
    """
    if t_lo == t_hi:
        return 0.0
    if not 0.0 < t_lo < t_hi < mod.K:
        raise ValueError("path must lie in (0, K)")

    def cn2(t):
        return jacobi_real(t, mod).cn ** 2

    lhs, _ = quad(cn2, t_lo, t_hi, epsabs=_SUBSTITUTION_TOL, epsrel=_SUBSTITUTION_TOL)

    def s_of(t):
        return 1.0 / jacobi_real(t, mod).sn

    def g(s):
        # (1-s^2)/(k^2-s^2) stays positive for |s| > 1
        return (1.0 / s**2) * math.sqrt((s**2 - 1.0) / (s**2 - mod.k**2))

    s_lo, s_hi = s_of(t_lo), s_of(t_hi)
    rhs_val, _ = quad(g, s_lo, s_hi, epsabs=_SUBSTITUTION_TOL, epsrel=_SUBSTITUTION_TOL)
    rhs = -rhs_val
    return abs(lhs - rhs)


def full_range_bisection(period, target: float, lo: float, hi: float) -> float:
    """The k' at which bisection on all of [lo, hi] leaves period(k, k') = target.

    The resonance solve's loop with no separatrix bracket: at most 200
    halvings of [lo, hi], each one AGM descent, so it resolves k' to a float
    step only down to k' ~ 3e-45 when lo = 1e-300.
    """

    def period_at(k_prime):
        return period(math.sqrt((1.0 - k_prime) * (1.0 + k_prime)), k_prime)

    f_lo = period_at(lo) - target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = period_at(mid) - target
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def fixed_tolerance_newton(sys, eps, m, z0, theta0, winding, start="plain"):
    """poincare._newton's answer with every flow at _FLOW_TOL, one flow per step.

    Newton on P(z) - z - winding = 0 from z0: converged once |f| <=
    _RESIDUAL_TOL, else stopped by a step longer than 2, a singular J or
    _NEWTON_MAX steps (the point after the last one checked).  Returns
    (z, f, converged, DP) with f and DP from the flow at the returned z.

    start "plain" takes Newton steps throughout.  start "projected" first
    takes the Newton step projected onto the normal n = grad H =
    (sin x1, x2) at z0: with v = (x2, -sin x1) along the orbit, the step
    c n that solves v.(J c n) = v.f, where v.J n is nonzero and finite,
    else the plain step.  start "projected, then plain" is the one run
    with which _newton starts over, after a step that stops it contracting
    or a flow at _FLOW_TOL that fails after a step from a coarser flow: it
    answers as the projected run where it converges; where that run ends
    unconverged or one of its later flows fails, it answers as the plain
    run, each run flowing z0 itself.
    """
    if start == "projected, then plain":
        try:
            run = fixed_tolerance_newton(sys, eps, m, z0, theta0, winding, "projected")
            if run[2]:
                return run
        except IntegrationFailure:
            pass
        start = "plain"
    eye = np.eye(2)
    z = np.array(z0, dtype=float)
    for steps in range(poincare._NEWTON_MAX + 1):
        final, dp = poincare._variational_map(sys, eps, m, z, theta0, poincare._FLOW_TOL)
        f = final - z - winding
        if np.linalg.norm(f) <= poincare._RESIDUAL_TOL:
            return z, f, True, dp
        if steps == poincare._NEWTON_MAX:
            break
        jac = dp - eye
        x1, x2 = z.tolist()
        sin1 = math.sin(x1)
        (a, b), (c, d) = jac.tolist()
        along = x2 * (a * sin1 + b * x2) - sin1 * (c * sin1 + d * x2)
        if start == "projected" and steps == 0 and along != 0.0 and math.isfinite(along):
            f1, f2 = f.tolist()
            step = (x2 * f1 - sin1 * f2) / along * np.array([sin1, x2])
        else:
            try:
                step = np.linalg.solve(jac, f)
            except np.linalg.LinAlgError:
                break
        if np.linalg.norm(step) > 2.0:
            break
        z = z - step
    return z, f, False, dp


Call = collections.namedtuple("Call", "args kwargs outcome")


@contextlib.contextmanager
def recorded(owner, name, stub=None, read=Call):
    """A list that gains one record per owner.name call made inside the block.

    owner is a module or a class, and name one of its own attributes (a
    classmethod such as EllipticModulus._build too).  Inside the block
    owner.name answers from stub, given one, else from the original, and
    each call appends read(args, kwargs, outcome), a Call by default:
    outcome is the value returned or the exception raised, which is raised
    again.  On exit owner.name is the very object it was on entry.
    """
    found = vars(owner)[name]
    answer = stub or getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        try:
            outcome = answer(*args, **kwargs)
        except Exception as exc:
            calls.append(read(args, kwargs, exc))
            raise
        calls.append(read(args, kwargs, outcome))
        return outcome

    bound = isinstance(found, (classmethod, staticmethod))
    setattr(owner, name, staticmethod(wrapper) if bound else wrapper)
    try:
        yield calls
    finally:
        setattr(owner, name, found)


def time_size(args, kwargs, outcome):
    """A read for recorded: the size of the time array an orbit sampler (family, t) took."""
    return np.size(args[1])


Flow = collections.namedtuple("Flow", "start attempts accepted nfev message args result")


def _flow(args, kwargs, result):
    *_, attempts, accepted, message = result
    return Flow(tuple(args[1][:2]), attempts, accepted, 2 + 12 * attempts, message, args, result)


def counted_flows():
    """recorded(poincare, "_dop853_flow"), each call recorded as a Flow.

    Every stroboscopic flow is one _dop853_flow call, so a Flow reads the
    call's own counts: start, the (x1, x2) it starts from; the step
    attempts and accepted steps; nfev, its 2 + 12 * attempts RHS
    evaluations (solve_ivp's sol.nfev); message, None where the flow
    reached t_bound, else why it stopped; args, the call's (t, y, t_bound,
    forcing, tol, max_steps); and result, its (t, y, f, h_abs, attempts,
    accepted, message).
    """
    return recorded(poincare, "_dop853_flow", read=_flow)


MapCall = collections.namedtuple("MapCall", "z tol args outcome")


def _map_args(args, kwargs):
    """A _variational_map call's (sys, eps, m, z, theta, tol), z copied to a float array."""
    sys, eps, m, z, theta, tol = (*args, kwargs.get("tol", poincare._FLOW_TOL))[:6]
    return sys, eps, m, np.array(z, dtype=float), theta, tol


def recorded_maps(stub=None):
    """recorded(poincare, "_variational_map"), each call recorded as a MapCall.

    The map's counterpart of counted_flows.  A MapCall holds the call's z
    as a tuple of floats and its tol; args, the call's (sys, eps, m, z,
    theta, tol) with z copied to a float array; and outcome, the (P, DP) the
    call returned or the IntegrationFailure it raised.  Given stub(z, tol),
    the stub answers in place of the flow.
    """

    def answer(*args, **kwargs):
        _, _, _, z, _, tol = _map_args(args, kwargs)
        return stub(z, tol)

    def read(args, kwargs, outcome):
        args = _map_args(args, kwargs)
        return MapCall(tuple(args[3].tolist()), args[5], args, outcome)

    return recorded(poincare, "_variational_map", None if stub is None else answer, read)


def homoclinic_limit_check(
    family_tag: str,
    omega: float,
    beta: float,
    delta: float,
    m_list,
    theta_grid,
) -> list:
    """Sup-norm gaps between m/1 subharmonic curves and their limits.

    Inner curves converge to the homoclinic pair traversed half a forcing
    period apart, M_+(theta) + M_-(theta + pi) for odd m; rotating curves
    converge to M_+- directly.  The returned gaps decrease to 0 along an
    increasing m_list.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if family_tag == INNER:
        plus = closed_form_homoclinic(+1, beta, delta, omega)
        minus = closed_form_homoclinic(-1, beta, delta, omega)
        limit = MelnikovCurve(
            plus.const_term + minus.const_term, plus.cos_coeff - minus.cos_coeff
        )
    else:
        sign = -1 if family_tag == ROTATING_MINUS else +1
        limit = closed_form_homoclinic(sign, beta, delta, omega)
    gaps = []
    for m in m_list:
        r = solve_resonance(family_tag, omega, m, 1)
        if r is None:
            raise ValueError(f"resonance m={m}, n=1 unsolvable at omega={omega}")
        curve = closed_form_subharmonic(r, beta, delta)
        gap = np.max(np.abs(curve.evaluate(theta_grid) - limit.evaluate(theta_grid)))
        gaps.append(float(gap))
    return gaps


def orbit_ode_residual(family: OrbitFamily, t_grid) -> float:
    """Max residual of the pendulum ODE along the closed form.

    Uses a 4th-order centered difference of the closed-form state against
    the vector field (x2, -sin x1); validates the orbit formulas.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    h = _ODE_RESIDUAL_STEP
    stencil = []
    for offset in (-2.0 * h, -h, h, 2.0 * h):
        stencil.append(orbit_state(family, t_grid + offset))
    d_x1 = (stencil[0].x1 - 8.0 * stencil[1].x1 + 8.0 * stencil[2].x1 - stencil[3].x1) / (12.0 * h)
    d_x2 = (stencil[0].x2 - 8.0 * stencil[1].x2 + 8.0 * stencil[2].x2 - stencil[3].x2) / (12.0 * h)
    state = orbit_state(family, t_grid)
    res1 = d_x1 - state.x2
    res2 = d_x2 + np.sin(state.x1)
    return float(np.max(np.hypot(res1, res2)))


def _separatrix_samples(n: int = 4000, t_max: float = 20.0):
    """Points of Gamma: the homoclinic pair +-(2 arcsin(tanh s), 2 sech s) and the saddle."""
    s = np.linspace(-t_max, t_max, n)
    x1 = 2.0 * np.arcsin(np.tanh(s))
    x2 = 2.0 / np.cosh(s)
    pts = [np.column_stack([sign * x1, sign * x2]) for sign in (1.0, -1.0)]
    pts.append(np.array([[math.pi, 0.0], [-math.pi, 0.0]]))
    return np.vstack(pts)


def homoclinic_limit_distance(family: OrbitFamily) -> float:
    """Sup distance from a periodic orbit to the homoclinic set Gamma.

    Distances are taken on the cylinder (angle differences mod 2pi).
    Decreases to 0 along any modulus sequence k -> 1; for small inner
    orbits it approaches the distance 2 from the origin to Gamma.
    """
    gamma = _separatrix_samples()
    t = np.linspace(0.0, family.period, _LIMIT_ORBIT_SAMPLES, endpoint=False)
    state = orbit_state(family, t)
    x1 = wrap_angle(state.x1)
    sup = 0.0
    for p1, p2 in zip(x1, np.atleast_1d(state.x2)):
        d1 = wrap_angle(p1 - gamma[:, 0])
        d = np.min(np.hypot(d1, p2 - gamma[:, 1]))
        sup = max(sup, float(d))
    return sup
