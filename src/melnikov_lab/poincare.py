"""Stroboscopic-map verification of Melnikov predictions.

Integrates the fully forced pendulum with an adaptive high-order
Runge-Kutta scheme, builds the period-2*pi*m/omega stroboscopic map, and
runs Newton on its fixed-point equation to confirm that simple zeros of
the subharmonic Melnikov function mark persisting periodic orbits at
O(epsilon) distance from the unperturbed resonant orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .melnikov import (
    IntegrationFailure,
    Resonance,
    closed_form_subharmonic,
    simple_zeros,
)
from .pendulum import INNER, ForcedSystem, OrbitPoint, orbit_state, wrap_angle

__all__ = [
    "IntegrationFailure",
    "FixedPointResult",
    "stroboscopic_map",
    "find_subharmonic",
    "scaling_band",
    "homoclinic_tangle_probe",
]


# Absolute = relative tolerance on (x1, x2) of the DOP853 flows (an
# order >= 5 embedded Runge-Kutta pair): maps and fixed points, separation
# probe.  Tangent-map components ride along unchecked (see _integrate).
_FLOW_TOL = 1e-12
_PROBE_TOL = 1e-10
_NEWTON_MAX = 25  # Newton iterations per seed
_RESIDUAL_TOL = 1e-10  # map residual that counts as a fixed point
_PROBE_D0 = 1e-8  # separation of each probe pair after renormalizing
_PROBE_RENORM_STEP = 0.5  # probe time between renormalizations
_ORBIT_SAMPLES = 1024  # coarse grid of the distance-to-orbit search


@dataclass(frozen=True)
class FixedPointResult:
    """A find_subharmonic outcome.

    residual is |P(point) - point - winding| and floquet_multipliers are
    the eigenvalues of DP(point), both from one variational flow at point.
    """

    point: OrbitPoint
    residual: float
    distance_to_unperturbed: float
    converged: bool
    floquet_multipliers: Tuple[complex, complex]


def _integrate(rhs, state, duration: float, tol: float):
    """Final state of a DOP853 flow whose steps are chosen from (x1, x2) alone.

    Components past the first two (a tangent map) get atol = inf, so they
    drop out of the error norm.  That norm divides by sqrt(width), so
    scaling both tolerances by sqrt(2/width) gives back the 2-D flow's
    norm, and with it the 2-D flow's steps: the state of a wider flow is
    the stroboscopic map itself.  At width 2 the tolerances are tol.
    """
    y0 = np.asarray(state, dtype=float)
    scaled = tol * math.sqrt(2.0 / y0.size)
    atol = np.full(y0.size, np.inf)
    atol[:2] = scaled
    sol = solve_ivp(
        rhs,
        (0.0, duration),
        y0,
        method="DOP853",
        rtol=scaled,
        atol=atol,
    )
    if not sol.success:
        raise IntegrationFailure(sol.message)
    return sol.y[:, -1]


def _flow(
    sys: ForcedSystem,
    eps: float,
    state,
    duration: float,
    theta_section: float,
    tol: float,
):
    beta, delta, omega = sys.beta, sys.delta, sys.omega

    def rhs(t, y):
        x1, x2 = y.tolist()
        forcing = eps * (beta * math.cos(omega * t + theta_section) - delta * x2)
        return [x2, -math.sin(x1) + forcing]

    return _integrate(rhs, state, duration, tol)


def stroboscopic_map(
    sys: ForcedSystem, eps: float, m: int, start: OrbitPoint, theta_section: float = 0.0
) -> OrbitPoint:
    """State after m forcing periods, starting at section phase theta.

    The returned angle is unwrapped (winding retained); wrap_angle gives
    the mod-2pi representative for reporting.
    """
    duration = 2.0 * math.pi * m / sys.omega
    final = _flow(sys, eps, (start.x1, start.x2), duration, theta_section, _FLOW_TOL)
    return OrbitPoint(float(final[0]), float(final[1]))


def _winding(r: Resonance) -> np.ndarray:
    """Advance of (x1, x2) over n periods of the resonant orbit.

    A rotating orbit turns x1 through sign * 2*pi once per period, so its
    fixed point of the stroboscopic map is fixed only modulo that winding.
    """
    turns = 0.0 if r.family_tag == INNER else r.orbit.sign * r.n
    return np.array([2.0 * math.pi * turns, 0.0])


def _variational_map(sys, eps, m, z, theta_section):
    """P(z) and DP(z) from one flow of the state and its tangent map.

    Phi' = [[0, 1], [-cos x1, -eps*delta]] Phi with Phi(0) = I, so the
    final Phi is the Jacobian of the stroboscopic map at z.  The steps
    follow the state alone, so P(z) is stroboscopic_map's to round-off.
    """
    beta, delta, omega = sys.beta, sys.delta, sys.omega
    damping = eps * delta

    def rhs(t, y):
        x1, x2, p11, p12, p21, p22 = y.tolist()
        forcing = eps * (beta * math.cos(omega * t + theta_section) - delta * x2)
        c = math.cos(x1)
        return [
            x2,
            -math.sin(x1) + forcing,
            p21,
            p22,
            -c * p11 - damping * p21,
            -c * p12 - damping * p22,
        ]

    y0 = np.array([z[0], z[1], 1.0, 0.0, 0.0, 1.0])
    out = _integrate(rhs, y0, 2.0 * math.pi * m / sys.omega, _FLOW_TOL)
    return out[:2], out[2:].reshape(2, 2)


def _distance_to_orbit(z, r: Resonance) -> float:
    from scipy.optimize import minimize_scalar

    period = r.orbit.period

    def dist(t):
        state = orbit_state(r.orbit, t)
        return np.hypot(wrap_angle(z[0] - state.x1), z[1] - state.x2)

    t = np.linspace(0.0, period, _ORBIT_SAMPLES, endpoint=False)
    coarse = dist(t)
    i = int(np.argmin(coarse))
    h = period / _ORBIT_SAMPLES
    # refine below the coarse-grid resolution; distances are O(eps)
    res = minimize_scalar(
        lambda tt: float(dist(tt)),
        bounds=(t[i] - h, t[i] + h),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(min(res.fun, coarse[i]))


def _newton(sys, eps, m, z0, theta0, winding):
    """Newton on P(z) - z - winding = 0 from z0.

    Each iteration costs one variational flow, which gives f and
    J = DP - I together.  Returns (z, f, converged, DP) with f and DP
    from the variational flow at the returned z: converged once
    |f| <= _RESIDUAL_TOL, else stopped by a step longer than 2, a
    singular J or _NEWTON_MAX steps.
    """
    eye = np.eye(2)
    z = np.array(z0, dtype=float)
    for _ in range(_NEWTON_MAX):
        final, dp = _variational_map(sys, eps, m, z, theta0)
        f = final - z - winding
        if np.linalg.norm(f) <= _RESIDUAL_TOL:
            return z, f, True, dp
        try:
            step = np.linalg.solve(dp - eye, f)
        except np.linalg.LinAlgError:
            break
        if np.linalg.norm(step) > 2.0:
            break  # diverging away from the seed neighborhood
        z = z - step
    else:
        final, dp = _variational_map(sys, eps, m, z, theta0)
        f = final - z - winding
    return z, f, False, dp


def _melnikov_seeds(sys: ForcedSystem, r: Resonance, theta0: float) -> List[OrbitPoint]:
    """Orbit points at which the subharmonic Melnikov theorem predicts fixed points.

    Each zero theta* of M^{m/n}(theta) = const + coeff cos(theta) places a
    fixed point of the section-theta0 map O(eps) from the orbit point at
    t0 = (theta0 - theta*)/omega (mod the orbit period).  A curve with no
    zero (a damped control, or a constant curve) gives the one of
    theta* = 0, pi where |M| is least.
    """
    curve = closed_form_subharmonic(r, sys.beta, sys.delta)
    thetas = [z.theta for z in simple_zeros(curve).zeros]
    if not thetas:
        thetas = [min((0.0, math.pi), key=lambda th: abs(curve.evaluate(th)))]
    period = r.orbit.period
    return [orbit_state(r.orbit, ((theta0 - th) / sys.omega) % period) for th in thetas]


def find_subharmonic(
    sys: ForcedSystem, eps: float, r: Resonance, theta0: float
) -> FixedPointResult:
    """Newton on the stroboscopic fixed-point equation near a resonance.

    Runs Newton once from each _melnikov_seeds point and reports the
    converged fixed point nearest the unperturbed orbit, with that
    distance for the epsilon-scaling check, or else the first seed's
    unconverged result.  The residual and the Floquet multipliers (the
    eigenvalues of DP) come from the variational flow at the reported
    point itself; no separate 2-D flow runs.
    """
    winding = _winding(r)
    best: Optional[FixedPointResult] = None
    for seed in _melnikov_seeds(sys, r, theta0):
        z, f, converged, dp = _newton(sys, eps, r.m, (seed.x1, seed.x2), theta0, winding)
        result = FixedPointResult(
            point=OrbitPoint(float(z[0]), float(z[1])),
            residual=float(np.linalg.norm(f)),
            distance_to_unperturbed=_distance_to_orbit(z, r),
            converged=converged,
            floquet_multipliers=tuple(np.linalg.eigvals(dp)),
        )
        if best is None or (
            result.converged
            and (
                not best.converged
                or result.distance_to_unperturbed < best.distance_to_unperturbed
            )
        ):
            best = result
    return best


def scaling_band(eps_list, distances, band: float = 2.0) -> Tuple[bool, List[float]]:
    """First-order persistence check: distance/eps within a factor band."""
    ratios = [d / e for d, e in zip(distances, eps_list)]
    positive = [r for r in ratios if r > 0]
    if not positive:
        return True, ratios
    ok = max(positive) / min(positive) <= band
    return ok, ratios


def homoclinic_tangle_probe(
    sys: ForcedSystem, eps: float, horizon: float = 16.0, n_fan: int = 8
) -> dict:
    """Finite-time separation exponents along the separatrix.

    Benettin-style: pairs of trajectories launched from a fan of points
    on the unperturbed separatrix, renormalized every _PROBE_RENORM_STEP, and
    the averaged log separation rate reported.  Larger statistics in the
    chaos regime corroborate (not prove) the Melnikov threshold.
    """
    from .pendulum import HOMOCLINIC_PLUS, OrbitFamily

    orbit = OrbitFamily(HOMOCLINIC_PLUS)
    starts = np.linspace(-3.0, 3.0, n_fan)
    exponents = []
    n_steps = int(round(horizon / _PROBE_RENORM_STEP))
    for s in starts:
        p = orbit_state(orbit, float(s))
        z = np.array([p.x1, p.x2])
        w = z + np.array([0.0, _PROBE_D0])
        log_sum = 0.0
        t_elapsed = 0.0
        for i in range(n_steps):
            phase = sys.omega * t_elapsed
            z = _flow(sys, eps, z, _PROBE_RENORM_STEP, phase, _PROBE_TOL)
            w = _flow(sys, eps, w, _PROBE_RENORM_STEP, phase, _PROBE_TOL)
            t_elapsed += _PROBE_RENORM_STEP
            sep = np.array([wrap_angle(w[0] - z[0]), w[1] - z[1]])
            d = float(np.linalg.norm(sep))
            if d == 0.0:
                d = _PROBE_D0
            log_sum += math.log(d / _PROBE_D0)
            w = z + sep * (_PROBE_D0 / d)
        exponents.append(log_sum / horizon)
    exponents = np.asarray(exponents)
    return {
        "exponents": exponents.tolist(),
        "max": float(np.max(exponents)),
        "mean": float(np.mean(exponents)),
    }
