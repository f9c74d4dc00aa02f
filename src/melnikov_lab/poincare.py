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

from .melnikov import IntegrationFailure, Resonance
from .pendulum import INNER, ForcedSystem, OrbitPoint, orbit_state, wrap_angle

__all__ = [
    "IntegrationFailure",
    "IntegratorConfig",
    "FixedPointResult",
    "stroboscopic_map",
    "find_subharmonic",
    "scaling_band",
    "homoclinic_tangle_probe",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive embedded Runge-Kutta settings (order >= 5 contract)."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_step: float = math.inf
    method: str = "DOP853"

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class FixedPointResult:
    point: OrbitPoint
    phase: float
    residual: float
    distance_to_unperturbed: float
    converged: bool
    floquet_multipliers: Optional[Tuple[complex, complex]] = None


def _integrate(rhs, state, duration: float, config: IntegratorConfig):
    sol = solve_ivp(
        rhs,
        (0.0, duration),
        np.asarray(state, dtype=float),
        method=config.method,
        rtol=config.rel_tol,
        atol=config.abs_tol,
        max_step=config.max_step,
        dense_output=False,
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
    config: IntegratorConfig,
):
    beta, delta, omega = sys.beta, sys.delta, sys.omega

    def rhs(t, y):
        x1, x2 = y.tolist()
        forcing = eps * (beta * math.cos(omega * t + theta_section) - delta * x2)
        return [x2, -math.sin(x1) + forcing]

    return _integrate(rhs, state, duration, config)


def stroboscopic_map(
    sys: ForcedSystem,
    eps: float,
    m: int,
    start: OrbitPoint,
    theta_section: float = 0.0,
    config: IntegratorConfig = IntegratorConfig(),
) -> OrbitPoint:
    """State after m forcing periods, starting at section phase theta.

    The returned angle is unwrapped (winding retained); wrap_angle gives
    the mod-2pi representative for reporting.
    """
    duration = 2.0 * math.pi * m / sys.omega
    final = _flow(sys, eps, (start.x1, start.x2), duration, theta_section, config)
    return OrbitPoint(float(final[0]), float(final[1]))


def _winding(r: Resonance) -> np.ndarray:
    """Advance of (x1, x2) over n periods of the resonant orbit.

    A rotating orbit turns x1 through sign * 2*pi once per period, so its
    fixed point of the stroboscopic map is fixed only modulo that winding.
    """
    turns = 0.0 if r.family_tag == INNER else r.orbit.sign * r.n
    return np.array([2.0 * math.pi * turns, 0.0])


def _map_residual(sys, eps, m, z, theta_section, config, winding):
    out = _flow(sys, eps, z, 2.0 * math.pi * m / sys.omega, theta_section, config)
    return out - z - winding


def _seed_residuals(sys, eps, m, seeds, theta_section, config, winding):
    """_map_residual of every row of seeds, from one flow of all of them.

    The step control sees every seed at once, so each residual is as
    accurate as a solo flow's only up to the spread of the error norm over
    2N components; it ranks seeds, the Newton verdict uses solo flows.
    """
    n = len(seeds)
    beta, delta, omega = sys.beta, sys.delta, sys.omega

    def rhs(t, y):
        x1, x2 = y[:n], y[n:]
        forcing = eps * (beta * math.cos(omega * t + theta_section) - delta * x2)
        return np.concatenate([x2, -np.sin(x1) + forcing])

    out = _integrate(rhs, seeds.T.ravel(), 2.0 * math.pi * m / sys.omega, config)
    return out.reshape(2, n).T - seeds - winding


def _variational_map(sys, eps, m, z, theta_section, config):
    """P(z) and DP(z) from one flow of the state and its tangent map.

    Phi' = [[0, 1], [-cos x1, -eps*delta]] Phi with Phi(0) = I, so the
    final Phi is the Jacobian of the stroboscopic map at z.
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
    out = _integrate(rhs, y0, 2.0 * math.pi * m / sys.omega, config)
    return out[:2], out[2:].reshape(2, 2)


def _distance_to_orbit(z, r: Resonance, n_sample: int = 1024) -> float:
    from scipy.optimize import minimize_scalar

    period = r.orbit.period

    def dist(t):
        state = orbit_state(r.orbit, t)
        return np.hypot(wrap_angle(z[0] - state.x1), z[1] - state.x2)

    t = np.linspace(0.0, period, n_sample, endpoint=False)
    coarse = dist(t)
    i = int(np.argmin(coarse))
    h = period / n_sample
    # refine below the coarse-grid resolution; distances are O(eps)
    res = minimize_scalar(
        lambda tt: float(dist(tt)),
        bracket=None,
        bounds=(t[i] - h, t[i] + h),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(min(res.fun, coarse[i]))


def _newton(sys, eps, m, z0, theta0, config, winding, newton_max, residual_tol):
    """Newton on P(z) - z - winding = 0 from z0.

    Each iteration costs one variational flow, which gives f and
    J = DP - I together.  The variational flow's step control also sees
    Phi, so its fixed point can sit a few 1e-11 from the plain map's;
    once its residual is below residual_tol the iteration goes on with
    the plain flow's f and the last DP, and only the plain residual
    decides convergence.  Returns (z, plain residual, converged, DP).
    """
    eye = np.eye(2)
    z = np.array(z0, dtype=float)
    dp = None
    plain = False
    for _ in range(newton_max):
        if not plain:
            final, dp = _variational_map(sys, eps, m, z, theta0, config)
            f = final - z - winding
            plain = bool(np.linalg.norm(f) <= residual_tol)
        if plain:
            f = _map_residual(sys, eps, m, z, theta0, config, winding)
            if np.linalg.norm(f) <= residual_tol:
                return z, f, True, dp
        try:
            step = np.linalg.solve(dp - eye, f)
        except np.linalg.LinAlgError:
            break
        if np.linalg.norm(step) > 2.0:
            break  # diverging away from the seed neighborhood
        z = z - step
    return z, _map_residual(sys, eps, m, z, theta0, config, winding), False, dp


def find_subharmonic(
    sys: ForcedSystem,
    eps: float,
    r: Resonance,
    theta0: float,
    config: IntegratorConfig = IntegratorConfig(),
    n_seeds: int = 32,
    newton_max: int = 25,
    residual_tol: float = 1e-10,
) -> FixedPointResult:
    """Newton on the stroboscopic fixed-point equation near a resonance.

    Seeds on a phase grid along the unperturbed orbit (the Melnikov
    theory predicts location only up to the phase matching theta0), scores
    them all in one flow, runs Newton from the three best, and reports the
    converged fixed point together with its distance to the unperturbed
    orbit for the epsilon-scaling check.  The Floquet multipliers are the
    eigenvalues of DP from the last variational flow, taken within
    residual_tol of the reported point.
    """
    winding = _winding(r)
    seeds_t = np.linspace(0.0, r.orbit.period, n_seeds, endpoint=False)
    orbit = orbit_state(r.orbit, seeds_t)
    seeds = np.column_stack([orbit.x1, orbit.x2])
    scores = np.linalg.norm(
        _seed_residuals(sys, eps, r.m, seeds, theta0, config, winding), axis=1
    )

    best: Optional[FixedPointResult] = None
    for i in np.argsort(scores, kind="stable")[:3]:
        z, f, converged, dp = _newton(
            sys, eps, r.m, seeds[i], theta0, config, winding, newton_max, residual_tol
        )
        result = FixedPointResult(
            point=OrbitPoint(float(z[0]), float(z[1])),
            phase=theta0,
            residual=float(np.linalg.norm(f)),
            distance_to_unperturbed=_distance_to_orbit(z, r),
            converged=converged,
            floquet_multipliers=None if dp is None else tuple(np.linalg.eigvals(dp)),
        )
        if result.converged:
            if best is None or result.distance_to_unperturbed < best.distance_to_unperturbed:
                best = result
        elif best is None:
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
    sys: ForcedSystem,
    eps: float,
    horizon: float = 16.0,
    n_fan: int = 8,
    d0: float = 1e-8,
    renorm_step: float = 0.5,
    config: IntegratorConfig = IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10),
) -> dict:
    """Finite-time separation exponents along the separatrix.

    Benettin-style: pairs of trajectories launched from a fan of points
    on the unperturbed separatrix, renormalized every renorm_step, and
    the averaged log separation rate reported.  Larger statistics in the
    chaos regime corroborate (not prove) the Melnikov threshold.
    """
    from .pendulum import homoclinic_orbit

    orbit = homoclinic_orbit(+1)
    starts = np.linspace(-3.0, 3.0, n_fan)
    exponents = []
    n_steps = int(round(horizon / renorm_step))
    for s in starts:
        p = orbit_state(orbit, float(s))
        z = np.array([p.x1, p.x2])
        w = z + np.array([0.0, d0])
        log_sum = 0.0
        t_elapsed = 0.0
        for i in range(n_steps):
            phase = sys.omega * t_elapsed
            z = _flow(sys, eps, z, renorm_step, phase, config)
            w = _flow(sys, eps, w, renorm_step, phase, config)
            t_elapsed += renorm_step
            sep = np.array([wrap_angle(w[0] - z[0]), w[1] - z[1]])
            d = float(np.linalg.norm(sep))
            if d == 0.0:
                d = d0
            log_sum += math.log(d / d0)
            w = z + sep * (d0 / d)
        exponents.append(log_sum / horizon)
    exponents = np.asarray(exponents)
    return {
        "exponents": exponents.tolist(),
        "max": float(np.max(exponents)),
        "mean": float(np.mean(exponents)),
    }
