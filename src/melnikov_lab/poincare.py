"""Stroboscopic-map verification of Melnikov predictions.

Integrates the fully forced pendulum with an adaptive high-order
Runge-Kutta scheme, builds the period-2*pi*m/omega stroboscopic map, and
runs Newton on its fixed-point equation to confirm that simple zeros of
the subharmonic Melnikov function mark persisting periodic orbits at
O(epsilon) distance from the unperturbed resonant orbit.

The flows are nearly all of the cost, and a 2-D or 6-D state is too small
for numpy to pay for itself: scipy's DOP853 spends its time in per-stage
array calls.  So scipy.integrate.solve_ivp drives _DOP853Kernel, a DOP853
whose steps run on Python floats with the tableau written out, under
scipy's step-size rule and error norm.  It sums each stage left to right
where scipy's BLAS dot may not, so its states agree with scipy's to
round-off, and it takes scipy's steps wherever no accept/reject or
step-size decision rests on that round-off.  It counts its own RHS
evaluations (sol.nfev), and it gives up after _STEPS_PER_UNIT_TIME
attempted steps per unit of flow time, where a huge epsilon would
otherwise shrink the steps without end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.integrate import DOP853, solve_ivp

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
]


# Absolute = relative tolerance on (x1, x2) of the DOP853 flows (an
# order >= 5 embedded Runge-Kutta pair) of the maps and fixed points.
# Tangent-map components ride along unchecked (see _integrate).
_FLOW_TOL = 1e-12
# Attempted steps per unit of flow time before a flow fails (a flow shorter
# than 2*pi gets 2*pi's worth): about 100x the most that any flow of the
# tests or the stroboscopic benchmark takes, and the bound on how long a flow
# whose steps keep shrinking (huge epsilon) runs.
_STEPS_PER_UNIT_TIME = 1000
_NEWTON_MAX = 25  # Newton iterations per seed
_RESIDUAL_TOL = 1e-10  # map residual that counts as a fixed point
_ORBIT_SAMPLES = 1024  # coarse grid of the distance-to-orbit search

# scipy's DOP853 step-size rule (scipy/integrate/_ivp/rk.py)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _dop853_attempt():
    """One DOP853 step attempt on Python floats, scipy's tableau read once.

    attempt(fun, t, y, k1, h, checked, n), with k1 = fun(t, y), returns
    y_new, f_new = fun(t + h, y_new) and scipy's DOP853 error norm over the
    (index, atol, rtol) components in checked, divided by sqrt(n) as for n
    components.  Names are Hairer's: stages k1, ..., k12, weights a_ij and
    b_i, and the fifth- and third-order error weights e5_i, e3_i.  Only the
    nonzero entries of the tableau appear; an underscore marks a zero.
    """
    A, B = DOP853.A.tolist(), DOP853.B.tolist()
    E5, E3 = DOP853.E5.tolist(), DOP853.E3.tolist()
    c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = DOP853.C.tolist()[1:]
    (a21,) = A[1][:1]
    a31, a32 = A[2][:2]
    a41, _, a43 = A[3][:3]
    a51, _, a53, a54 = A[4][:4]
    a61, _, _, a64, a65 = A[5][:5]
    a71, _, _, a74, a75, a76 = A[6][:6]
    a81, _, _, a84, a85, a86, a87 = A[7][:7]
    a91, _, _, a94, a95, a96, a97, a98 = A[8][:8]
    a101, _, _, a104, a105, a106, a107, a108, a109 = A[9][:9]
    a111, _, _, a114, a115, a116, a117, a118, a119, a1110 = A[10][:10]
    a121, _, _, a124, a125, a126, a127, a128, a129, a1210, a1211 = A[11][:11]
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = B
    e5_1, _, _, _, _, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, e5_12 = E5[:12]
    e3_1, _, _, _, _, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, e3_12 = E3[:12]

    def attempt(fun, t, y, k1, h, checked, n):
        k2 = fun(t + c2 * h, [x + (a21 * p1) * h for x, p1 in zip(y, k1)])
        k3 = fun(
            t + c3 * h,
            [x + (a31 * p1 + a32 * p2) * h for x, p1, p2 in zip(y, k1, k2)],
        )
        k4 = fun(
            t + c4 * h,
            [x + (a41 * p1 + a43 * p3) * h for x, p1, p3 in zip(y, k1, k3)],
        )
        k5 = fun(
            t + c5 * h,
            [
                x + (a51 * p1 + a53 * p3 + a54 * p4) * h
                for x, p1, p3, p4 in zip(y, k1, k3, k4)
            ],
        )
        k6 = fun(
            t + c6 * h,
            [
                x + (a61 * p1 + a64 * p4 + a65 * p5) * h
                for x, p1, p4, p5 in zip(y, k1, k4, k5)
            ],
        )
        k7 = fun(
            t + c7 * h,
            [
                x + (a71 * p1 + a74 * p4 + a75 * p5 + a76 * p6) * h
                for x, p1, p4, p5, p6 in zip(y, k1, k4, k5, k6)
            ],
        )
        k8 = fun(
            t + c8 * h,
            [
                x + (a81 * p1 + a84 * p4 + a85 * p5 + a86 * p6 + a87 * p7) * h
                for x, p1, p4, p5, p6, p7 in zip(y, k1, k4, k5, k6, k7)
            ],
        )
        k9 = fun(
            t + c9 * h,
            [
                x
                + (a91 * p1 + a94 * p4 + a95 * p5 + a96 * p6 + a97 * p7 + a98 * p8) * h
                for x, p1, p4, p5, p6, p7, p8 in zip(y, k1, k4, k5, k6, k7, k8)
            ],
        )
        k10 = fun(
            t + c10 * h,
            [
                x
                + (
                    a101 * p1 + a104 * p4 + a105 * p5 + a106 * p6 + a107 * p7
                    + a108 * p8 + a109 * p9
                ) * h
                for x, p1, p4, p5, p6, p7, p8, p9 in zip(y, k1, k4, k5, k6, k7, k8, k9)
            ],
        )
        k11 = fun(
            t + c11 * h,
            [
                x
                + (
                    a111 * p1 + a114 * p4 + a115 * p5 + a116 * p6 + a117 * p7
                    + a118 * p8 + a119 * p9 + a1110 * p10
                ) * h
                for x, p1, p4, p5, p6, p7, p8, p9, p10
                in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)
            ],
        )
        k12 = fun(
            t + c12 * h,
            [
                x
                + (
                    a121 * p1 + a124 * p4 + a125 * p5 + a126 * p6 + a127 * p7
                    + a128 * p8 + a129 * p9 + a1210 * p10 + a1211 * p11
                ) * h
                for x, p1, p4, p5, p6, p7, p8, p9, p10, p11
                in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)
            ],
        )
        y_new = [
            x
            + h * (
                b1 * p1 + b6 * p6 + b7 * p7 + b8 * p8 + b9 * p9 + b10 * p10
                + b11 * p11 + b12 * p12
            )
            for x, p1, p6, p7, p8, p9, p10, p11, p12
            in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)
        ]
        f_new = fun(t + h, y_new)
        sum5 = sum3 = 0.0
        for i, atol, rtol in checked:
            scale = atol + max(abs(y[i]), abs(y_new[i])) * rtol
            err5 = (
                e5_1 * k1[i] + e5_6 * k6[i] + e5_7 * k7[i] + e5_8 * k8[i]
                + e5_9 * k9[i] + e5_10 * k10[i] + e5_11 * k11[i] + e5_12 * k12[i]
            ) / scale
            err3 = (
                e3_1 * k1[i] + e3_6 * k6[i] + e3_7 * k7[i] + e3_8 * k8[i]
                + e3_9 * k9[i] + e3_10 * k10[i] + e3_11 * k11[i] + e3_12 * k12[i]
            ) / scale
            sum5 += err5 * err5
            sum3 += err3 * err3
        if sum5 == 0.0 and sum3 == 0.0:
            return y_new, f_new, 0.0
        return y_new, f_new, abs(h) * sum5 / math.sqrt((sum5 + 0.01 * sum3) * n)

    return attempt


_attempt = _dop853_attempt()


class _DOP853Kernel(DOP853):
    """scipy's DOP853 with each step taken on Python floats.

    scipy's own set-up (first RHS call, initial step, tolerances) runs
    unchanged; the steps then follow rk.py's rule with _attempt in place of
    its numpy stages, on the caller's RHS called with and returning lists.
    Components with atol = inf drop out of the error norm, as they do in
    scipy.  A step counts 12 RHS evaluations in nfev, as scipy's do.  After
    max_steps attempted steps, accepted or not, the next step fails.  No
    dense output.
    """

    def __init__(self, fun, t0, y0, t_bound, max_steps, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._rhs = fun
        self._steps_left = max_steps
        self._max_steps = max_steps
        atol = np.broadcast_to(self.atol, (self.n,)).tolist()
        rtol = np.broadcast_to(self.rtol, (self.n,)).tolist()
        self._checked = tuple(
            (i, a, r) for i, (a, r) in enumerate(zip(atol, rtol)) if math.isfinite(a)
        )
        self._direction = float(self.direction)
        self.y = self.y.tolist()
        self.f = self.f.tolist()
        self.h_abs = float(self.h_abs)

    def _step_impl(self):
        t, y, n, direction = self.t, self.y, self.n, self._direction
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(self.h_abs, min_step), self.max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            if self._steps_left == 0:
                budget = f"step budget of {self._max_steps} spent"
                return False, f"{budget} at t = {t:.6g} of {self.t_bound:.6g}"
            self._steps_left -= 1
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, error_norm = _attempt(self._rhs, t, y, self.f, h, self._checked, n)
            self.nfev += 12
            if error_norm < 1.0:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**self.error_exponent)
            rejected = True
        if error_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * error_norm**self.error_exponent)
        if rejected:
            factor = min(1.0, factor)
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs * factor
        return True, None

    def _dense_output_impl(self):
        raise NotImplementedError("_DOP853Kernel keeps no dense output")


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

    solve_ivp takes the steps with _DOP853Kernel, which calls rhs with a
    list of floats (scipy's set-up: a numpy array) and wants a list back.
    Components past the first two (a tangent map) get atol = inf, so they
    drop out of the error norm.  That norm divides by sqrt(width), so
    scaling both tolerances by sqrt(2/width) gives back the 2-D flow's
    norm, and with it the 2-D flow's steps: the state of a wider flow is
    the stroboscopic map itself.
    At width 2 the tolerances are tol.  The flow gets _STEPS_PER_UNIT_TIME
    attempted steps per unit of its duration, counted as at least 2*pi (a
    fast forcing still needs a few steps per period), then raises
    IntegrationFailure like any failed flow.  scipy's first-step guess
    overflows at a huge epsilon; the tiny step it then picks fails on its
    own terms, so numpy's floating-point warnings are silenced around it.
    """
    y0 = np.asarray(state, dtype=float)
    scaled = tol * math.sqrt(2.0 / y0.size)
    atol = np.full(y0.size, np.inf)
    atol[:2] = scaled
    with np.errstate(all="ignore"):
        sol = solve_ivp(
            rhs,
            (0.0, duration),
            y0,
            method=_DOP853Kernel,
            rtol=scaled,
            atol=atol,
            max_steps=math.ceil(_STEPS_PER_UNIT_TIME * max(duration, 2.0 * math.pi)),
        )
    if not sol.success:
        raise IntegrationFailure(sol.message)
    return sol.y[:, -1]


def _flow(sys: ForcedSystem, eps: float, state, m: int, theta_section: float):
    beta, delta, omega = sys.beta, sys.delta, sys.omega

    def rhs(t, y):
        x1, x2 = y
        forcing = eps * (beta * math.cos(omega * t + theta_section) - delta * x2)
        return [x2, -math.sin(x1) + forcing]

    return _integrate(rhs, state, 2.0 * math.pi * m / omega, _FLOW_TOL)


def stroboscopic_map(
    sys: ForcedSystem, eps: float, m: int, start: OrbitPoint, theta_section: float = 0.0
) -> OrbitPoint:
    """State after m forcing periods, starting at section phase theta.

    The returned angle is unwrapped (winding retained); wrap_angle gives
    the mod-2pi representative for reporting.
    """
    final = _flow(sys, eps, (start.x1, start.x2), m, theta_section)
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
        x1, x2, p11, p12, p21, p22 = y
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
