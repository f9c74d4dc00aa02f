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
_attempt, the DOP853 stages written out with the tableau's weights as
float literals (_dop853_attempt).  Newton (_newton) runs each flow only as
fine as the step it resolves, and answers as Newton with every flow at
_FLOW_TOL.
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
    u' = v and v' = g, and of k1 the attempt reads the accelerations alone.
    A Runge-Kutta method on such a pair is the Nystrom method with
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
    returns (error_norm, None, None) without the tangent stages.  Then one
    loop runs the two columns, (p11, p21) and (p12, p22), with gi = ncxi ui
    - damping vi.  Each stage evaluates the right-hand side inline with the
    expressions of _derivative, and sums its terms in tableau order.

    The weights are float literals, the nonzero ones alone.  Stage i reads
    c_i, then abar_ij in its position and a_ij in its damping term; the new
    pair reads bbar_j and b_j, and the error terms (e5 A)_j, (e3 A)_j, e5_j
    and e3_j, e5 and e3 being the fifth- and third-order error weights.
    Each of scipy's weights (scipy.integrate.DOP853's A, B, C, E5 and E3)
    is written as the repr of its value, and each Nystrom weight as the repr
    of the math.fsum of its products of scipy's weights, a sum rounded once,
    so none depends on the BLAS; the tests read them back from this source.
    """
    cos, sin = math.cos, math.sin

    def attempt(t, y, k1, h, forcing, tol):
        eps, beta, delta, omega, theta = forcing
        x1, x2, p11, p12, p21, p22 = y
        damping = eps * delta
        damped = damping != 0.0
        ef2 = eps * (beta * cos(omega * (t + 0.05260015195876773 * h) + theta))
        ef3 = eps * (beta * cos(omega * (t + 0.0789002279381516 * h) + theta))
        ef4 = eps * (beta * cos(omega * (t + 0.1183503419072274 * h) + theta))
        ef5 = eps * (beta * cos(omega * (t + 0.2816496580927726 * h) + theta))
        ef6 = eps * (beta * cos(omega * (t + 0.3333333333333333 * h) + theta))
        ef7 = eps * (beta * cos(omega * (t + 0.25 * h) + theta))
        ef8 = eps * (beta * cos(omega * (t + 0.3076923076923077 * h) + theta))
        ef9 = eps * (beta * cos(omega * (t + 0.6512820512820513 * h) + theta))
        ef10 = eps * (beta * cos(omega * (t + 0.6 * h) + theta))
        ef11 = eps * (beta * cos(omega * (t + 0.8571428571428571 * h) + theta))
        ef12 = eps * (beta * cos(omega * (t + 1.0 * h) + theta))
        g1 = k1[1]
        ui = x1 + h * (0.05260015195876773 * x2)
        ncx2, g2 = -cos(ui), ef2 - sin(ui)
        if damped:
            g2 -= damping * (x2 + (0.05260015195876773 * g1) * h)
        ui = x1 + h * (0.0789002279381516 * x2 + h * (0.003112622984346139 * g1))
        ncx3, g3 = -cos(ui), ef3 - sin(ui)
        if damped:
            g3 -= damping * (x2 + (0.0197250569845379 * g1 + 0.0591751709536137 * g2) * h)
        ui = x1 + h * (0.1183503419072274 * x2 + h * (
            0.0017508504286947032 * g1 + 0.00525255128608411 * g2
        ))
        ncx4, g4 = -cos(ui), ef4 - sin(ui)
        if damped:
            g4 -= damping * (x2 + (0.02958758547680685 * g1 + 0.08876275643042054 * g3) * h)
        ui = x1 + h * (0.2816496580927726 * x2 + h * (
            0.009915816237971966 * g1 - 0.05234336665618132 * g2 + 0.0820908153700972 * g3
        ))
        ncx5, g5 = -cos(ui), ef5 - sin(ui)
        if damped:
            g5 -= damping * (x2 + (
                0.2413651341592667 * g1 - 0.8845494793282861 * g3 + 0.924834003261792 * g4
            ) * h)
        ui = x1 + h * (0.3333333333333333 * x2 + h * (
            0.03533793130488635 * g1 - 0.09581915952175495 * g3 + 0.11603678377242414 * g4
        ))
        ncx6, g6 = -cos(ui), ef6 - sin(ui)
        if damped:
            g6 -= damping * (x2 + (
                0.037037037037037035 * g1 + 0.17082860872947386 * g4 + 0.12546768756682242 * g5
            ) * h)
        ui = x1 + h * (0.25 * x2 + h * (
            0.018920483189113914 * g1 - 0.03815245266364542 * g3 + 0.05268745617004205 * g4
            - 0.00220548669551055 * g5
        ))
        ncx7, g7 = -cos(ui), ef7 - sin(ui)
        if damped:
            g7 -= damping * (x2 + (
                0.037109375 * g1 + 0.17025221101954405 * g4 + 0.06021653898045596 * g5
                - 0.017578125 * g6
            ) * h)
        ui = x1 + h * (0.3076923076923077 * x2 + h * (
            0.03067021189623757 * g1 - 0.07975482628537982 * g3 + 0.0979912056772412 * g4
            - 0.0014238754814449106 * g5 - 0.00014543770014516837 * g6
        ))
        ncx8, g8 = -cos(ui), ef8 - sin(ui)
        if damped:
            g8 -= damping * (x2 + (
                0.03709200011850479 * g1 + 0.17038392571223998 * g4 + 0.10726203044637328 * g5
                - 0.015319437748624402 * g6 + 0.008273789163814023 * g7
            ) * h)
        ui = x1 + h * (0.6512820512820513 * x2 + h * (
            -0.1522908972762203 * g1 + 0.4696608773351988 * g3 - 0.0681414047027935 * g4
            + 0.010711857531715552 * g5 + 0.3119698547460422 * g6 - 0.35982613247286355 * g7
        ))
        ncx9, g9 = -cos(ui), ef9 - sin(ui)
        if damped:
            g9 -= damping * (x2 + (
                0.6241109587160757 * g1 - 3.3608926294469414 * g4 - 0.868219346841726 * g5
                + 27.59209969944671 * g6 + 20.154067550477894 * g7 - 43.48988418106996 * g8
            ) * h)
        ui = x1 + h * (0.6 * x2 + h * (
            -0.11020716722377497 * g1 + 0.30128953154727944 * g3 + 0.078657353495164 * g4
            + 0.030838873981239086 * g5 - 0.31960414755130306 * g6 - 0.6851760518136165 * g7
            + 0.8842016075650119 * g8
        ))
        ncx10, g10 = -cos(ui), ef10 - sin(ui)
        if damped:
            g10 -= damping * (x2 + (
                0.47766253643826434 * g1 - 2.4881146199716677 * g4 - 0.590290826836843 * g5
                + 21.230051448181193 * g6 + 15.279233632882423 * g7 - 33.28821096898486 * g8
                - 0.020331201708508627 * g9
            ) * h)
        ui = x1 + h * (0.8571428571428571 * x2 + h * (
            0.3721894995071433 * g1 - 0.5050736261155677 * g3 - 0.461498746485582 * g4
            - 0.06518509348541879 * g5 + 4.098038403866566 * g6 + 3.8922102844072426 * g7
            - 7.025278165955342 * g8 + 0.06194438303648047 * g9
        ))
        ncx11, g11 = -cos(ui), ef11 - sin(ui)
        if damped:
            g11 -= damping * (x2 + (
                -0.9371424300859873 * g1 + 5.186372428844064 * g4 + 1.0914373489967295 * g5
                - 8.149787010746927 * g6 - 18.52006565999696 * g7 + 22.739487099350505 * g8
                + 2.4936055526796523 * g9 - 3.0467644718982196 * g10
            ) * h)
        ui = x1 + h * (1.0 * x2 + h * (
            -0.7650750098382325 * g1 + 0.8347994820739503 * g3 + 1.7559441441931138 * g4
            + 0.23253698859550637 * g5 + 11.903719357881844 * g6 - 1.9034949405460369 * g7
            - 10.951226401858365 * g8 + 1.3530625395360725 * g9 - 1.9602661600378632 * g10
        ))
        ncx12, g12 = -cos(ui), ef12 - sin(ui)
        if damped:
            g12 -= damping * (x2 + (
                2.273310147516538 * g1 - 10.53449546673725 * g4 - 2.0008720582248625 * g5
                - 17.9589318631188 * g6 + 27.94888452941996 * g7 - 2.8589982771350235 * g8
                - 8.87285693353063 * g9 + 12.360567175794303 * g10 + 0.6433927460157636 * g11
            ) * h)
        x1_new = x1 + h * (x2 + h * (
            0.054293734116568765 * g1 + 3.3306690738754696e-16 * g4
            - 1.3877787807814457e-17 * g5 + 2.96687526183494 * g6 + 1.4186384244858758 * g7
            - 4.016218126161174 * g8 + 0.10850859975965009 * g9 - 0.06086437986500637 * g10
            + 0.028766485829147193 * g11
        ))
        x2_new = x2 + h * (
            0.054293734116568765 * g1 + 4.450312892752409 * g6 + 1.8915178993145003 * g7
            - 5.801203960010585 * g8 + 0.3111643669578199 * g9 - 0.1521609496625161 * g10
            + 0.20136540080403034 * g11 + 0.04471061572777259 * g12
        )
        scale = tol + max(abs(x1), abs(x1_new)) * tol
        err5 = h * (
            -0.18865188001798794 * g1 + 0.9962151331241325 * g4 + 0.23599761577747433 * g5
            - 2.854630682350912 * g6 - 4.082808827933706 * g7 + 6.038341535948958 * g8
            + 0.39584534789657555 * g9 - 0.5259249995299615 * g10 - 0.014383242914573597 * g11
        ) / scale
        err3 = h * (
            -0.4538545734291735 * g1 + 2.698758502261862 * g4 + 0.6812767760191378 * g5
            - 16.885342816594818 * g6 - 13.987876814514605 * g7 + 27.96175549233409 * g8
            + 0.30423338505811987 * g9 - 0.3335239499192925 * g10 + 0.014573998784681819 * g11
        ) / scale
        sum5, sum3 = err5 * err5, err3 * err3
        scale = tol + max(abs(x2), abs(x2_new)) * tol
        err5 = (
            0.01312004499419488 * g1 - 1.2251564463762044 * g6 - 0.4957589496572502 * g7
            + 1.6643771824549864 * g8 - 0.35032884874997366 * g9 + 0.3341791187130175 * g10
            + 0.08192320648511571 * g11 - 0.022355307863886294 * g12
        ) / scale
        err3 = (
            -0.18980075407240762 * g1 + 4.450312892752409 * g6 + 1.8915178993145003 * g7
            - 5.801203960010585 * g8 - 0.4226823213237919 * g9 - 0.1521609496625161 * g10
            + 0.20136540080403034 * g11 + 0.02265179219836082 * g12
        ) / scale
        sum5 += err5 * err5
        sum3 += err3 * err3
        error_norm = 0.0
        if sum5 or sum3:
            error_norm = abs(h) * sum5 / math.sqrt((sum5 + 0.01 * sum3) * 6)
        if not error_norm < 1.0:  # rejected, a NaN norm too
            return error_norm, None, None
        columns = []
        for u, v, g1 in ((p11, p21, k1[4]), (p12, p22, k1[5])):
            g2 = ncx2 * (u + h * (0.05260015195876773 * v))
            if damped:
                g2 -= damping * (v + (0.05260015195876773 * g1) * h)
            g3 = ncx3 * (u + h * (0.0789002279381516 * v + h * (0.003112622984346139 * g1)))
            if damped:
                g3 -= damping * (v + (0.0197250569845379 * g1 + 0.0591751709536137 * g2) * h)
            g4 = ncx4 * (u + h * (0.1183503419072274 * v + h * (
                0.0017508504286947032 * g1 + 0.00525255128608411 * g2
            )))
            if damped:
                g4 -= damping * (v + (0.02958758547680685 * g1 + 0.08876275643042054 * g3) * h)
            g5 = ncx5 * (u + h * (0.2816496580927726 * v + h * (
                0.009915816237971966 * g1 - 0.05234336665618132 * g2 + 0.0820908153700972 * g3
            )))
            if damped:
                g5 -= damping * (v + (
                    0.2413651341592667 * g1 - 0.8845494793282861 * g3 + 0.924834003261792 * g4
                ) * h)
            g6 = ncx6 * (u + h * (0.3333333333333333 * v + h * (
                0.03533793130488635 * g1 - 0.09581915952175495 * g3 + 0.11603678377242414 * g4
            )))
            if damped:
                g6 -= damping * (v + (
                    0.037037037037037035 * g1 + 0.17082860872947386 * g4
                    + 0.12546768756682242 * g5
                ) * h)
            g7 = ncx7 * (u + h * (0.25 * v + h * (
                0.018920483189113914 * g1 - 0.03815245266364542 * g3 + 0.05268745617004205 * g4
                - 0.00220548669551055 * g5
            )))
            if damped:
                g7 -= damping * (v + (
                    0.037109375 * g1 + 0.17025221101954405 * g4 + 0.06021653898045596 * g5
                    - 0.017578125 * g6
                ) * h)
            g8 = ncx8 * (u + h * (0.3076923076923077 * v + h * (
                0.03067021189623757 * g1 - 0.07975482628537982 * g3 + 0.0979912056772412 * g4
                - 0.0014238754814449106 * g5 - 0.00014543770014516837 * g6
            )))
            if damped:
                g8 -= damping * (v + (
                    0.03709200011850479 * g1 + 0.17038392571223998 * g4
                    + 0.10726203044637328 * g5 - 0.015319437748624402 * g6
                    + 0.008273789163814023 * g7
                ) * h)
            g9 = ncx9 * (u + h * (0.6512820512820513 * v + h * (
                -0.1522908972762203 * g1 + 0.4696608773351988 * g3 - 0.0681414047027935 * g4
                + 0.010711857531715552 * g5 + 0.3119698547460422 * g6
                - 0.35982613247286355 * g7
            )))
            if damped:
                g9 -= damping * (v + (
                    0.6241109587160757 * g1 - 3.3608926294469414 * g4 - 0.868219346841726 * g5
                    + 27.59209969944671 * g6 + 20.154067550477894 * g7 - 43.48988418106996 * g8
                ) * h)
            g10 = ncx10 * (u + h * (0.6 * v + h * (
                -0.11020716722377497 * g1 + 0.30128953154727944 * g3 + 0.078657353495164 * g4
                + 0.030838873981239086 * g5 - 0.31960414755130306 * g6
                - 0.6851760518136165 * g7 + 0.8842016075650119 * g8
            )))
            if damped:
                g10 -= damping * (v + (
                    0.47766253643826434 * g1 - 2.4881146199716677 * g4 - 0.590290826836843 * g5
                    + 21.230051448181193 * g6 + 15.279233632882423 * g7
                    - 33.28821096898486 * g8 - 0.020331201708508627 * g9
                ) * h)
            g11 = ncx11 * (u + h * (0.8571428571428571 * v + h * (
                0.3721894995071433 * g1 - 0.5050736261155677 * g3 - 0.461498746485582 * g4
                - 0.06518509348541879 * g5 + 4.098038403866566 * g6 + 3.8922102844072426 * g7
                - 7.025278165955342 * g8 + 0.06194438303648047 * g9
            )))
            if damped:
                g11 -= damping * (v + (
                    -0.9371424300859873 * g1 + 5.186372428844064 * g4 + 1.0914373489967295 * g5
                    - 8.149787010746927 * g6 - 18.52006565999696 * g7 + 22.739487099350505 * g8
                    + 2.4936055526796523 * g9 - 3.0467644718982196 * g10
                ) * h)
            g12 = ncx12 * (u + h * (1.0 * v + h * (
                -0.7650750098382325 * g1 + 0.8347994820739503 * g3 + 1.7559441441931138 * g4
                + 0.23253698859550637 * g5 + 11.903719357881844 * g6 - 1.9034949405460369 * g7
                - 10.951226401858365 * g8 + 1.3530625395360725 * g9 - 1.9602661600378632 * g10
            )))
            if damped:
                g12 -= damping * (v + (
                    2.273310147516538 * g1 - 10.53449546673725 * g4 - 2.0008720582248625 * g5
                    - 17.9589318631188 * g6 + 27.94888452941996 * g7 - 2.8589982771350235 * g8
                    - 8.87285693353063 * g9 + 12.360567175794303 * g10
                    + 0.6433927460157636 * g11
                ) * h)
            u_new = u + h * (v + h * (
                0.054293734116568765 * g1 + 3.3306690738754696e-16 * g4
                - 1.3877787807814457e-17 * g5 + 2.96687526183494 * g6 + 1.4186384244858758 * g7
                - 4.016218126161174 * g8 + 0.10850859975965009 * g9 - 0.06086437986500637 * g10
                + 0.028766485829147193 * g11
            ))
            v_new = v + h * (
                0.054293734116568765 * g1 + 4.450312892752409 * g6 + 1.8915178993145003 * g7
                - 5.801203960010585 * g8 + 0.3111643669578199 * g9 - 0.1521609496625161 * g10
                + 0.20136540080403034 * g11 + 0.04471061572777259 * g12
            )
            columns.append((u_new, v_new))
        (p11, p21), (p12, p22) = columns
        y_new = (x1_new, x2_new, p11, p12, p21, p22)
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
