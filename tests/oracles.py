"""Checks that only the tests call: each compares a library result with an
independent route to the same quantity.

substitution_check integrates cn^2 by adaptive quadrature on both sides of
a change of variables; full_range_bisection solves a resonance by plain
bisection over the whole k' range; fixed_tolerance_newton runs the
fixed-point Newton with every flow at the full tolerance;
homoclinic_limit_check measures how fast the m/1 subharmonic curves
approach their homoclinic limits; orbit_ode_residual and
homoclinic_limit_distance test the closed-form orbits against the pendulum
ODE and against the separatrix.
"""

import math

import numpy as np
from scipy.integrate import quad

from melnikov_lab import poincare
from melnikov_lab.elliptic import EllipticModulus, jacobi_real
from melnikov_lab.melnikov import (
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


def fixed_tolerance_newton(sys, eps, m, z0, theta0, winding):
    """poincare._newton's answer with every flow at _FLOW_TOL, one flow per step.

    Newton on P(z) - z - winding = 0 from z0: converged once |f| <=
    _RESIDUAL_TOL, else stopped by a step longer than 2, a singular J or
    _NEWTON_MAX steps (the point after the last one checked).  Returns
    (z, f, converged, DP) with f and DP from the flow at the returned z.
    """
    eye = np.eye(2)
    z = np.array(z0, dtype=float)
    for steps in range(poincare._NEWTON_MAX + 1):
        final, dp = poincare._variational_map(sys, eps, m, z, theta0, poincare._FLOW_TOL)
        f = final - z - winding
        if np.linalg.norm(f) <= poincare._RESIDUAL_TOL:
            return z, f, True, dp
        if steps == poincare._NEWTON_MAX:
            break
        try:
            step = np.linalg.solve(dp - eye, f)
        except np.linalg.LinAlgError:
            break
        if np.linalg.norm(step) > 2.0:
            break
        z = z - step
    return z, f, False, dp


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
