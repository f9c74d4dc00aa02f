"""Stroboscopic-map verification of Melnikov predictions.

Integrates the fully forced pendulum with an adaptive high-order
Runge-Kutta scheme, builds the period-2*pi*m/omega stroboscopic map, and
runs Newton on its fixed-point equation to confirm that simple zeros of
the subharmonic Melnikov function mark persisting periodic orbits at
O(epsilon) distance from the unperturbed resonant orbit.

Every flow is one system, the state (x1, x2) and its tangent map
(_derivative).  The flows are nearly all of the cost, and a 6-D state is
too small for numpy to pay for itself, so scipy.integrate.solve_ivp drives
_DOP853Kernel, whose one step() runs the whole flow on Python floats with
_attempt, the DOP853 stages written out (_dop853_attempt).  Newton
(_newton) runs each flow only as fine as the step it resolves, and answers
as Newton with every flow at _FLOW_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

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
    "FixedPointResult",
    "find_subharmonic",
    "scaling_band",
]


# Absolute = relative tolerance on (x1, x2) of the DOP853 flows (an
# order >= 5 embedded Runge-Kutta pair) of the maps and fixed points.
# Tangent-map components ride along unchecked (see _variational_map).
_FLOW_TOL = 1e-12
# Tolerance of the first flow of a Newton run, and the coarsest of any flow
# (see _newton)
_COARSE_FLOW_TOL = 1e-9
# Attempted steps per unit of flow time before a flow fails (a flow shorter
# than 2*pi gets 2*pi's worth): about 100x the most that any flow of the
# tests or the stroboscopic benchmark takes, and the bound on how long a flow
# whose steps keep shrinking (huge epsilon) runs.  A flow coarser than
# _FLOW_TOL gets _COARSE_BUDGET of it: at _COARSE_FLOW_TOL a flow takes
# about 1000**(-1/8) = 0.42 of the steps it takes at _FLOW_TOL, so one that
# fits its share shows that the flow at _FLOW_TOL fits the whole.
_STEPS_PER_UNIT_TIME = 1000
_COARSE_BUDGET = 0.25
# Cap on a flow's full step budget (2^24 steps, 16,777 time units): 34x the longest
# flow of the tests (490.9) and 320x that of the benchmark and the 1,008-case grid (52.4)
_MAX_FLOW_STEPS = 2**24
_NEWTON_MAX = 25  # Newton steps per seed (a re-flow at the same z is not one)
_RESIDUAL_TOL = 1e-10  # map residual that counts as a fixed point
# Newton's matching of each flow's tolerance to its step (see _newton)
_NEXT_FLOW_TOL = 1e-6
_RESOLVED_STEP = 1e-3
_SNAP = 10.0
_CONTRACTION = 0.5
_ORBIT_SAMPLES = 1024  # coarse grid of the distance-to-orbit search
_SCALING_BAND = 2.0  # largest max/min of distance/|eps| that scaling_band accepts

# scipy's DOP853 step-size rule (scipy/integrate/_ivp/rk.py)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _derivative(t, y, forcing):
    """The variational system at (t, y) under forcing = (eps, beta, delta, omega, theta).

    y = (x1, x2, p11, p12, p21, p22) is the state and its tangent map Phi,
    with Phi' = [[0, 1], [-cos x1, -eps*delta]] Phi.
    """
    eps, beta, delta, omega, theta = forcing
    x1, x2, p11, p12, p21, p22 = y
    c, damping = math.cos(x1), eps * delta
    return [
        x2,
        -math.sin(x1) + eps * (beta * math.cos(omega * t + theta) - delta * x2),
        p21,
        p22,
        -c * p11 - damping * p21,
        -c * p12 - damping * p22,
    ]


def _dop853_attempt():
    """One DOP853 step attempt of the variational flow, in Nystrom form.

    attempt(t, y, k1, h, forcing, tol) steps y = (x1, x2, p11, p12, p21,
    p22), the state and its tangent map, with k1 its derivative at t and
    forcing = (eps, beta, delta, omega, theta).  It returns (error_norm,
    y_new, f_new): scipy's DOP853 error norm of y with atol = rtol = tol on
    x1 and x2 and atol = inf on the four tangent components, which add 0
    to it but count among its 6 components; the new state, and its
    derivative at t + h, from _derivative.

    The state and each column of the tangent map are a pair (u, v) with
    u' = v and v' = g, so one block of stage code serves all three, and
    only the acceleration gi differs; of k1 it reads the accelerations
    alone.  A Runge-Kutta method on such a pair is the Nystrom method with
    abar = A A and bbar = b A (Hairer, Norsett & Wanner, Solving ODEs I,
    II.14).  Stage i has the position ui = u + h (ci v + h sum_j abar_ij
    gj), the new pair is (u + h (v + h sum_j bbar_j gj), v + h sum_j b_j
    gj), and the x1 error terms are h sum_j (e A)_j gj, since
    sum_j a_ij = ci, sum_j b_j = 1 and sum_j e_j = 0.  So only the damping
    term needs the stage velocity vi = v + h sum_j a_ij gj, and vi is
    formed only where damping = eps*delta is not 0.

    The state pass runs first, over (x1, x2), with gi = -sin(ui) + efi -
    damping vi, efi = eps beta cos(omega (t + ci h) + theta) being the
    forcing at stage i; it keeps each stage's -cos x1 in ncxi.  Then comes
    the error norm: an attempt whose norm is not below 1 is rejected and
    returns (error_norm, None, None) without the tangent stages.  The two
    column passes, over (p11, p21) and (p12, p22), have gi = ncxi ui -
    damping vi.  Each stage evaluates the right-hand side inline with the
    expressions of _derivative, and sums its terms in tableau order.  Names
    are Hairer's: weights a_ij, b_i and c_i, and the fifth- and third-order
    error weights e5_i and e3_i.  A doubled letter marks a
    Nystrom weight: aa_ij = abar_ij, bb_i = bbar_i, and ee5_i, ee3_i the
    entries of e5 A and e3 A.  Each is the math.fsum of its products of
    scipy's weights, a sum rounded once, so it does not depend on the BLAS.
    Only the nonzero weights appear; an underscore marks a zero.
    """
    cos, sin = math.cos, math.sin
    A, B, C = DOP853.A.tolist(), DOP853.B.tolist(), DOP853.C.tolist()[1:]
    E5, E3 = DOP853.E5.tolist()[:12], DOP853.E3.tolist()[:12]

    def times_a(w):
        return [math.fsum(wj * row[k] for wj, row in zip(w, A)) for k in range(12)]

    AA = [times_a(row) for row in A]
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
    (aa31,) = AA[2][:1]
    aa41, aa42 = AA[3][:2]
    aa51, aa52, aa53 = AA[4][:3]
    aa61, _, aa63, aa64 = AA[5][:4]
    aa71, _, aa73, aa74, aa75 = AA[6][:5]
    aa81, _, aa83, aa84, aa85, aa86 = AA[7][:6]
    aa91, _, aa93, aa94, aa95, aa96, aa97 = AA[8][:7]
    aa101, _, aa103, aa104, aa105, aa106, aa107, aa108 = AA[9][:8]
    aa111, _, aa113, aa114, aa115, aa116, aa117, aa118, aa119 = AA[10][:9]
    aa121, _, aa123, aa124, aa125, aa126, aa127, aa128, aa129, aa1210 = AA[11][:10]
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = B
    e5_1, _, _, _, _, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, e5_12 = E5
    e3_1, _, _, _, _, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, e3_12 = E3
    bb1, _, _, bb4, bb5, bb6, bb7, bb8, bb9, bb10, bb11, _ = times_a(B)
    ee5_1, _, _, ee5_4, ee5_5, ee5_6, ee5_7, ee5_8, ee5_9, ee5_10, ee5_11, _ = times_a(E5)
    ee3_1, _, _, ee3_4, ee3_5, ee3_6, ee3_7, ee3_8, ee3_9, ee3_10, ee3_11, _ = times_a(E3)
    c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = C

    def attempt(t, y, k1, h, forcing, tol):
        eps, beta, delta, omega, theta = forcing
        y1, y2, y3, y4, y5, y6 = y
        damping = eps * delta
        damped = damping != 0.0
        ef2, ef3, ef4, ef5, ef6, ef7, ef8, ef9, ef10, ef11, ef12 = [
            eps * (beta * cos(omega * (t + c * h) + theta)) for c in C
        ]
        pairs = []
        for state, u, v, g1 in (
            (True, y1, y2, k1[1]),
            (False, y3, y5, k1[4]),
            (False, y4, y6, k1[5]),
        ):
            ui = u + h * (c2 * v)
            if state:
                ncx2, g2 = -cos(ui), ef2 - sin(ui)
            else:
                g2 = ncx2 * ui
            if damped:
                g2 -= damping * (v + (a21 * g1) * h)

            ui = u + h * (c3 * v + h * (aa31 * g1))
            if state:
                ncx3, g3 = -cos(ui), ef3 - sin(ui)
            else:
                g3 = ncx3 * ui
            if damped:
                g3 -= damping * (v + (a31 * g1 + a32 * g2) * h)

            ui = u + h * (c4 * v + h * (aa41 * g1 + aa42 * g2))
            if state:
                ncx4, g4 = -cos(ui), ef4 - sin(ui)
            else:
                g4 = ncx4 * ui
            if damped:
                g4 -= damping * (v + (a41 * g1 + a43 * g3) * h)

            ui = u + h * (c5 * v + h * (aa51 * g1 + aa52 * g2 + aa53 * g3))
            if state:
                ncx5, g5 = -cos(ui), ef5 - sin(ui)
            else:
                g5 = ncx5 * ui
            if damped:
                g5 -= damping * (v + (a51 * g1 + a53 * g3 + a54 * g4) * h)

            ui = u + h * (c6 * v + h * (aa61 * g1 + aa63 * g3 + aa64 * g4))
            if state:
                ncx6, g6 = -cos(ui), ef6 - sin(ui)
            else:
                g6 = ncx6 * ui
            if damped:
                g6 -= damping * (v + (a61 * g1 + a64 * g4 + a65 * g5) * h)

            ui = u + h * (c7 * v + h * (aa71 * g1 + aa73 * g3 + aa74 * g4 + aa75 * g5))
            if state:
                ncx7, g7 = -cos(ui), ef7 - sin(ui)
            else:
                g7 = ncx7 * ui
            if damped:
                g7 -= damping * (v + (a71 * g1 + a74 * g4 + a75 * g5 + a76 * g6) * h)

            ui = u + h * (
                c8 * v + h * (aa81 * g1 + aa83 * g3 + aa84 * g4 + aa85 * g5 + aa86 * g6)
            )
            if state:
                ncx8, g8 = -cos(ui), ef8 - sin(ui)
            else:
                g8 = ncx8 * ui
            if damped:
                g8 -= damping * (
                    v + (a81 * g1 + a84 * g4 + a85 * g5 + a86 * g6 + a87 * g7) * h
                )

            ui = u + h * (c9 * v + h * (
                aa91 * g1 + aa93 * g3 + aa94 * g4 + aa95 * g5 + aa96 * g6 + aa97 * g7
            ))
            if state:
                ncx9, g9 = -cos(ui), ef9 - sin(ui)
            else:
                g9 = ncx9 * ui
            if damped:
                g9 -= damping * (v + (
                    a91 * g1 + a94 * g4 + a95 * g5 + a96 * g6 + a97 * g7 + a98 * g8
                ) * h)

            ui = u + h * (c10 * v + h * (
                aa101 * g1 + aa103 * g3 + aa104 * g4 + aa105 * g5 + aa106 * g6
                + aa107 * g7 + aa108 * g8
            ))
            if state:
                ncx10, g10 = -cos(ui), ef10 - sin(ui)
            else:
                g10 = ncx10 * ui
            if damped:
                g10 -= damping * (v + (
                    a101 * g1 + a104 * g4 + a105 * g5 + a106 * g6 + a107 * g7
                    + a108 * g8 + a109 * g9
                ) * h)

            ui = u + h * (c11 * v + h * (
                aa111 * g1 + aa113 * g3 + aa114 * g4 + aa115 * g5 + aa116 * g6
                + aa117 * g7 + aa118 * g8 + aa119 * g9
            ))
            if state:
                ncx11, g11 = -cos(ui), ef11 - sin(ui)
            else:
                g11 = ncx11 * ui
            if damped:
                g11 -= damping * (v + (
                    a111 * g1 + a114 * g4 + a115 * g5 + a116 * g6 + a117 * g7
                    + a118 * g8 + a119 * g9 + a1110 * g10
                ) * h)

            ui = u + h * (c12 * v + h * (
                aa121 * g1 + aa123 * g3 + aa124 * g4 + aa125 * g5 + aa126 * g6
                + aa127 * g7 + aa128 * g8 + aa129 * g9 + aa1210 * g10
            ))
            if state:
                ncx12, g12 = -cos(ui), ef12 - sin(ui)
            else:
                g12 = ncx12 * ui
            if damped:
                g12 -= damping * (v + (
                    a121 * g1 + a124 * g4 + a125 * g5 + a126 * g6 + a127 * g7
                    + a128 * g8 + a129 * g9 + a1210 * g10 + a1211 * g11
                ) * h)
            u_new = u + h * (v + h * (
                bb1 * g1 + bb4 * g4 + bb5 * g5 + bb6 * g6 + bb7 * g7 + bb8 * g8
                + bb9 * g9 + bb10 * g10 + bb11 * g11
            ))
            v_new = v + h * (
                b1 * g1 + b6 * g6 + b7 * g7 + b8 * g8 + b9 * g9 + b10 * g10
                + b11 * g11 + b12 * g12
            )
            pairs.append((u_new, v_new))
            if not state:
                continue

            scale = tol + max(abs(u), abs(u_new)) * tol
            err5 = h * (
                ee5_1 * g1 + ee5_4 * g4 + ee5_5 * g5 + ee5_6 * g6 + ee5_7 * g7
                + ee5_8 * g8 + ee5_9 * g9 + ee5_10 * g10 + ee5_11 * g11
            ) / scale
            err3 = h * (
                ee3_1 * g1 + ee3_4 * g4 + ee3_5 * g5 + ee3_6 * g6 + ee3_7 * g7
                + ee3_8 * g8 + ee3_9 * g9 + ee3_10 * g10 + ee3_11 * g11
            ) / scale
            sum5, sum3 = err5 * err5, err3 * err3
            scale = tol + max(abs(v), abs(v_new)) * tol
            err5 = (
                e5_1 * g1 + e5_6 * g6 + e5_7 * g7 + e5_8 * g8
                + e5_9 * g9 + e5_10 * g10 + e5_11 * g11 + e5_12 * g12
            ) / scale
            err3 = (
                e3_1 * g1 + e3_6 * g6 + e3_7 * g7 + e3_8 * g8
                + e3_9 * g9 + e3_10 * g10 + e3_11 * g11 + e3_12 * g12
            ) / scale
            sum5 += err5 * err5
            sum3 += err3 * err3
            error_norm = 0.0
            if sum5 or sum3:
                error_norm = abs(h) * sum5 / math.sqrt((sum5 + 0.01 * sum3) * 6)
            if not error_norm < 1.0:  # rejected, a NaN norm too
                return error_norm, None, None
        (x1, x2), (p11, p21), (p12, p22) = pairs
        y_new = (x1, x2, p11, p12, p21, p22)
        return error_norm, y_new, _derivative(t + h, y_new, forcing)
    return attempt


_attempt = _dop853_attempt()


class _DOP853Kernel(DOP853):
    """scipy's DOP853 on the pendulum's variational flow, the whole flow in one step().

    solve_ivp(_derivative, span, y0, method=_DOP853Kernel, max_steps=...,
    forcing=forcing, args=(forcing,)) integrates the state and tangent map
    y = (x1, x2, p11, p12, p21, p22) under forcing = (eps, beta, delta,
    omega, theta).  scipy's own set-up (first RHS call, initial step,
    tolerances) runs unchanged.  Then one step() covers the flow:
    _step_impl loops on Python floats under rk.py's step-size rule and
    min_step, with _attempt (see _dop853_attempt) in place of its numpy
    stages, until t_bound.  So t_old is the flow start, and sol.t holds the
    two ends alone.  The flow must run forward (t_bound > t0) with no max_step:
    _step_impl reads neither direction nor max_step.  x1 and x2 must have
    atol = rtol, and the tangent components atol = inf, which drops them
    out of scipy's norm too: _attempt reads rtol alone.  In exact
    arithmetic this is scipy's method; _attempt sums each stage left to
    right where scipy's BLAS dot may not, so the states agree with scipy's
    to round-off, and the steps are scipy's wherever no accept/reject or
    step-size decision rests on that round-off.  Each attempt counts 12 RHS
    evaluations in nfev, as scipy's steps do.  After max_steps attempts,
    accepted or not, the flow fails.  No dense output.
    """

    def __init__(self, fun, t0, y0, t_bound, max_steps, forcing, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._max_steps, self._forcing = max_steps, forcing

    def _step_impl(self):
        t, y, f, h_abs = self.t, self.y.tolist(), self.f.tolist(), float(self.h_abs)
        t_bound = self.t_bound
        tol, exponent = float(self.rtol), self.error_exponent
        attempt, forcing, steps_left = _attempt, self._forcing, self._max_steps
        try:
            while t < t_bound:
                min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
                h_abs = max(h_abs, min_step)
                cap = _MAX_FACTOR
                while True:
                    if h_abs < min_step:
                        return False, self.TOO_SMALL_STEP
                    if steps_left == 0:
                        budget = f"step budget of {self._max_steps} spent"
                        return False, f"{budget} at t = {t:.6g} of {t_bound:.6g}"
                    steps_left -= 1
                    t_new = t + h_abs
                    if t_new > t_bound:
                        t_new = t_bound
                    h = h_abs = t_new - t
                    error_norm, y_new, f_new = attempt(t, y, f, h, forcing, tol)
                    if error_norm < 1.0:
                        break
                    h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**exponent)
                    cap = 1.0  # no growth after a rejection
                h_abs *= min(cap, _SAFETY * error_norm**exponent) if error_norm else cap
                t, y, f = t_new, y_new, f_new
            return True, None
        finally:
            self.nfev += 12 * (self._max_steps - steps_left)
            self.t, self.y, self.f, self.h_abs = t, y, f, h_abs

    def _dense_output_impl(self):
        raise NotImplementedError("_DOP853Kernel keeps no dense output")


@dataclass(frozen=True)
class FixedPointResult:
    """A find_subharmonic outcome.

    residual is |P(point) - point - winding| and floquet_multipliers are
    the eigenvalues of DP(point), both from one variational flow at point,
    at _FLOW_TOL when converged (see _newton).
    """

    point: OrbitPoint
    residual: float
    distance_to_unperturbed: float
    converged: bool
    floquet_multipliers: Tuple[complex, complex]


def _variational_map(sys, eps, m, z, theta_section, tol=_FLOW_TOL):
    """P(z) and DP(z) from one DOP853 flow of the state and its tangent map.

    The flow of _derivative from Phi(0) = I, so the final Phi is the
    Jacobian of the stroboscopic map at z.  solve_ivp runs the flow as one
    step() of _DOP853Kernel (sol.y holds its two ends).  The tangent
    components get atol = inf, so the steps are chosen from (x1, x2) alone.
    The norm divides by sqrt(6), so scaling both tolerances by sqrt(2/6)
    gives back the norm, and with it the steps, of a 2-D flow at absolute =
    relative tolerance tol: P(z) is that flow's map to round-off.  tol is
    _FLOW_TOL but for _newton's coarser flows.  A flow that spends its step
    budget (see _STEPS_PER_UNIT_TIME), or one whose full budget passes
    _MAX_FLOW_STEPS (not flowed), raises IntegrationFailure.  scipy's first-step
    guess overflows at a huge epsilon; the tiny step it then picks fails on
    its own terms, so numpy's floating-point warnings are silenced around it.
    """
    forcing = (eps, sys.beta, sys.delta, sys.omega, theta_section)
    y0 = np.array([z[0], z[1], 1.0, 0.0, 0.0, 1.0])
    duration = 2.0 * math.pi * m / sys.omega
    scaled = tol * math.sqrt(2.0 / y0.size)
    atol = np.full(y0.size, np.inf)
    atol[:2] = scaled
    budget = _STEPS_PER_UNIT_TIME * max(duration, 2.0 * math.pi)
    if budget > _MAX_FLOW_STEPS:
        raise IntegrationFailure(f"flow of {duration:.6g} passes the {_MAX_FLOW_STEPS}-step cap")
    with np.errstate(all="ignore"):
        sol = solve_ivp(
            _derivative,
            (0.0, duration),
            y0,
            method=_DOP853Kernel,
            rtol=scaled,
            atol=atol,
            max_steps=math.ceil(budget * (_COARSE_BUDGET if tol > _FLOW_TOL else 1.0)),
            forcing=forcing,
            args=(forcing,),
        )
    if not sol.success:
        raise IntegrationFailure(sol.message)
    out = sol.y[:, -1]
    return out[:2], out[2:].reshape(2, 2)


def _winding(r: Resonance) -> np.ndarray:
    """Advance of (x1, x2) over n periods of the resonant orbit.

    A rotating orbit turns x1 through sign * 2*pi once per period, so its
    fixed point of the stroboscopic map is fixed only modulo that winding.
    """
    turns = 0.0 if r.family_tag == INNER else r.orbit.sign * r.n
    return np.array([2.0 * math.pi * turns, 0.0])


def _distance_to_orbit(z, r: Resonance) -> float:
    """Distance from z to the unperturbed orbit, angles taken mod 2*pi.

    From the nearest of _ORBIT_SAMPLES orbit points, Newton steps on
    g(s) = <d, gamma'(s)>, with d = z - gamma(s), gamma' = (x2, -sin x1)
    and g' = <d, gamma''> - |gamma'|^2, gamma'' = (-sin x1, -x2 cos x1),
    stay within one sample spacing of it.  g = 0 where |d| is stationary.
    The steps go on while g' < 0 (|d| convex) and each point's |g| is
    below half the last one's, so they stop at g's round-off; the distance
    is |d| at the last point that halved |g| (the first point counts).
    """
    period = r.orbit.period
    h = period / _ORBIT_SAMPLES
    grid = np.linspace(0.0, period, _ORBIT_SAMPLES, endpoint=False)
    state = orbit_state(r.orbit, grid)
    i = int(np.argmin(np.hypot(wrap_angle(z[0] - state.x1), z[1] - state.x2)))
    s, g_last = grid[i], math.inf
    while True:
        point = orbit_state(r.orbit, s)
        x1, x2 = point.x1, point.x2
        d1, d2 = float(wrap_angle(z[0] - x1)), z[1] - x2
        sin1 = math.sin(x1)
        g = d1 * x2 - d2 * sin1
        slope = -d1 * sin1 - d2 * x2 * math.cos(x1) - (x2 * x2 + sin1 * sin1)
        if abs(g) >= 0.5 * g_last:
            return distance
        g_last, distance = abs(g), math.hypot(d1, d2)
        if not slope < 0.0:
            return distance
        s = min(max(s - g / slope, grid[i] - h), grid[i] + h)


def _newton(sys, eps, m, z0, theta0, winding):
    """Newton on P(z) - z - winding = 0 from z0, each flow as fine as its step needs.

    Each variational flow gives f and J = DP - I together, and with them
    the step s = J^-1 f.  A flow at tolerance tol moves s by about
    ||J^-1|| tol, so while Newton contracts a coarse flow serves (inexact
    Newton with accuracy matching: Dembo, Eisenstat & Steihaug 1982;
    Deuflhard 2004).  The first flow runs at _COARSE_FLOW_TOL, and the
    flow after step s at _NEXT_FLOW_TOL * |s| / ||J^-1||, at most
    _COARSE_FLOW_TOL and, below _SNAP times _FLOW_TOL, _FLOW_TOL itself.
    A coarse flow with ||J^-1|| tol > _RESOLVED_STEP * |s| has not resolved
    its step, and is run again at the same z at the finer tolerance; a
    coarse flow that fails is run again at the same z at _FLOW_TOL.
    Neither re-flow is a Newton step.  A fixed point is declared only on a
    flow at _FLOW_TOL.

    Where Newton does not contract, which fixed point it finds, if any,
    rests on every flow's error.  So once a step is longer than
    _CONTRACTION times the last, every later flow runs at _FLOW_TOL.
    Newton goes on in place only if every step so far, the one that
    stopped it contracting included, came from a flow at _FLOW_TOL; else
    it starts over from z0, as it does when a flow at _FLOW_TOL fails after
    a step from a coarser flow.  Either way the answer is that of Newton
    with every flow at _FLOW_TOL, step for step.  At most _NEWTON_MAX
    steps are taken, the point after the last one checked.  Returns (z, f,
    converged, DP) with f and DP from the last flow, at the returned z:
    converged once |f| <= _RESIDUAL_TOL, so a converged point's f and DP
    come from a flow at _FLOW_TOL; else stopped by a step longer than 2, a
    singular J or _NEWTON_MAX steps, and then f and DP may come from a flow
    as coarse as _COARSE_FLOW_TOL.
    """
    eye = np.eye(2)
    z = np.array(z0, dtype=float)
    tol, steps, last = _COARSE_FLOW_TOL, 0, math.inf
    # matched: tolerances follow the steps; exact: every step so far came
    # from a flow at _FLOW_TOL, so z is on the fixed-tolerance path
    matched = exact = True
    while True:
        try:
            final, dp = _variational_map(sys, eps, m, z, theta0, tol)
        except IntegrationFailure:
            if tol > _FLOW_TOL:
                tol = _FLOW_TOL  # past its share: flow the same z in full
                continue
            if exact:
                raise  # as the fixed-tolerance run does
            matched, exact = False, True  # from z0, as the fixed-tolerance run
            z, tol, steps = np.array(z0, dtype=float), _FLOW_TOL, 0
            continue
        f = final - z - winding
        if tol <= _FLOW_TOL and np.linalg.norm(f) <= _RESIDUAL_TOL:
            return z, f, True, dp
        jac = dp - eye
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            break
        size = float(np.linalg.norm(step))
        if matched:
            # ||J^-1||_F = ||J||_F / |det J| for a 2x2 J
            (a, b), (c, d) = jac.tolist()
            det = abs(a * d - b * c)
            inv_norm = math.sqrt(a * a + b * b + c * c + d * d) / det if det else math.inf
            finer = min(_COARSE_FLOW_TOL, _NEXT_FLOW_TOL * size / inv_norm)
            if finer < _SNAP * _FLOW_TOL:
                finer = _FLOW_TOL
            if tol > _FLOW_TOL and inv_norm * tol > _RESOLVED_STEP * size:
                tol = finer  # flow the same z again: not a Newton step
                continue
        if steps == _NEWTON_MAX or size > 2.0:
            break  # out of steps, or diverging away from the seed neighborhood
        if matched and size > _CONTRACTION * last:
            matched = False  # not contracting: on as the fixed-tolerance run
            if not exact or tol > _FLOW_TOL:
                exact = True  # a step came from a coarse flow: from z0
                z, tol, steps = np.array(z0, dtype=float), _FLOW_TOL, 0
                continue
        exact = exact and tol <= _FLOW_TOL
        z, steps, last = z - step, steps + 1, size
        if matched:
            tol = finer
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
    thetas = [z.theta for z in simple_zeros(curve)]
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
    unconverged result.  Only those points are measured against the orbit.
    The residual and the Floquet multipliers (the eigenvalues of DP) come
    from the variational flow at the reported point itself; no separate
    flow runs.  sys.omega must be the resonance's omega, and eps and theta0
    finite, else ValueError before any flow.
    """
    if sys.omega != r.omega:
        raise ValueError(f"system omega {sys.omega!r} != resonance omega {r.omega!r}")
    if not (math.isfinite(eps) and math.isfinite(theta0)):
        raise ValueError(f"eps {eps!r} and theta0 {theta0!r} must be finite")
    winding = _winding(r)
    first = best = None
    for seed in _melnikov_seeds(sys, r, theta0):
        newton = _newton(sys, eps, r.m, (seed.x1, seed.x2), theta0, winding)
        if first is None:
            first = newton
        z, _, converged, _ = newton
        if converged:
            distance = _distance_to_orbit(z, r)
            if best is None or distance < best[0]:
                best = distance, newton
    if best is None:
        best = _distance_to_orbit(first[0], r), first
    distance, (z, f, converged, dp) = best
    return FixedPointResult(
        point=OrbitPoint(float(z[0]), float(z[1])),
        residual=float(np.linalg.norm(f)),
        distance_to_unperturbed=distance,
        converged=converged,
        floquet_multipliers=tuple(np.linalg.eigvals(dp)),
    )


def scaling_band(eps_list, distances) -> Tuple[bool, List[float]]:
    """First-order persistence check: distance/|eps| within a factor _SCALING_BAND.

    Unequal lengths, an eps of 0 (no ratio) or a non-finite eps or distance: ValueError.
    """
    if len(eps_list) != len(distances):
        raise ValueError(f"{len(eps_list)} eps values against {len(distances)} distances")
    for e, d in zip(eps_list, distances):
        if e == 0:
            raise ValueError(f"eps {e!r} has no distance/|eps| ratio")
        if not (math.isfinite(e) and math.isfinite(d)):
            raise ValueError(f"eps {e!r} and distance {d!r} must be finite")
    ratios = [d / abs(e) for d, e in zip(distances, eps_list)]
    positive = [r for r in ratios if r > 0]
    if not positive:
        return True, ratios
    ok = max(positive) / min(positive) <= _SCALING_BAND
    return ok, ratios
