"""Property tests for the one-pass θ-sweeps.

An array-θ quadrature call must equal the per-θ calls and both must match
the closed forms; the one-pass contour kernels must match the residue
closed form on every aligned resonance (n = 1, and odd m on the inner
family).
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from melnikov_lab.contour import contour_integral_closed, contour_kernels, default_contour
from melnikov_lab.melnikov import (
    closed_form_homoclinic,
    closed_form_subharmonic,
    homoclinic_quadrature,
    solve_resonance,
    subharmonic_quadrature,
)
from melnikov_lab.pendulum import INNER, ROTATING_MINUS, ROTATING_PLUS, pendulum_system

THETAS = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)

omegas = st.floats(0.5, 2.0)
amplitudes = st.floats(0.0, 2.0)


@st.composite
def resonances(draw):
    family = draw(st.sampled_from((INNER, ROTATING_PLUS, ROTATING_MINUS)))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    assume(math.gcd(m, n) == 1)
    r = solve_resonance(family, draw(omegas), m, n)
    assume(r is not None)
    return r


def _same(array_vals, scalar_vals):
    scalar_vals = np.asarray(scalar_vals)
    return np.all(np.abs(array_vals - scalar_vals) <= 1e-12 * (1.0 + np.abs(scalar_vals)))


@PROPERTY
@given(resonances(), amplitudes, amplitudes)
def test_subharmonic_array_call_matches_scalar_calls_and_closed_form(r, beta, delta):
    sys = pendulum_system(beta, delta, r.omega)
    swept = subharmonic_quadrature(sys, r, THETAS)
    assert swept.shape == THETAS.shape
    assert _same(swept, [subharmonic_quadrature(sys, r, float(th)) for th in THETAS])
    closed = closed_form_subharmonic(r, beta, delta).evaluate(THETAS)
    assert np.max(np.abs(swept - closed)) <= 1e-8


@PROPERTY
@given(st.sampled_from((+1, -1)), omegas, amplitudes, amplitudes)
def test_homoclinic_array_call_matches_scalar_calls_and_closed_form(
    sign, omega, beta, delta
):
    sys = pendulum_system(beta, delta, omega)
    swept = homoclinic_quadrature(sys, sign, THETAS)
    assert _same(swept, [homoclinic_quadrature(sys, sign, float(th)) for th in THETAS])
    closed = closed_form_homoclinic(sign, beta, delta, omega).evaluate(THETAS)
    assert np.max(np.abs(swept - closed)) <= 1e-8


@PROPERTY
@given(resonances(), amplitudes, amplitudes)
def test_one_pass_contour_kernels_match_residue_closed_form(r, beta, delta):
    assume(r.n == 1 and (r.family_tag != INNER or r.m % 2 == 1))
    ker = contour_kernels(r, default_contour(r), tol=1e-10)
    for th in THETAS:
        numeric = beta * (
            ker.cos_kernel * math.cos(th) - ker.sin_kernel * math.sin(th)
        ) - delta * ker.damping_kernel
        closed = contour_integral_closed(r, float(th), beta).value
        assert abs(numeric - closed) <= 1e-8 * max(1.0, abs(closed))
