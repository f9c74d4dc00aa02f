"""Property tests for the one-pass θ-sweeps.

An array-θ quadrature call must equal the per-θ calls and both must match
the closed forms; the one-pass contour kernels must match the residue
closed form on every resonance, and the certificate's least |contour
integral| must be the least |residue closed form| over theta, attained
where the residue form's phase is pi/2: at theta = pi/2 less the inner
family's shift pi ((m - n) mod 2n)/n.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from melnikov_lab.certificate import _contour_record
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
PROPERTY = settings(max_examples=50)

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
    ker = contour_kernels(r, default_contour(r), tol=1e-10)
    for th in THETAS:
        numeric = beta * (
            ker.cos_kernel * math.cos(th) - ker.sin_kernel * math.sin(th)
        ) - delta * ker.damping_kernel
        closed = contour_integral_closed(r, float(th), beta).value
        assert abs(numeric - closed) <= 1e-8 * max(1.0, abs(closed))


@PROPERTY
@given(resonances(), st.floats(1e-6, 1e6), st.floats(-10.0, 10.0))
@example(solve_resonance(INNER, 1.0, 3, 1), 1.0, 1.5 * math.pi)
@example(solve_resonance(INNER, 1.0, 3, 2), 1.0, 0.0)
def test_certified_contour_minimum_is_the_least_residue(r, beta, theta):
    least = _contour_record(r, beta, False)["min_abs_integral"]
    assert least > 0.0
    closed = abs(contour_integral_closed(r, theta, beta).value)
    assert closed >= least * (1.0 - 4.0 * np.finfo(float).eps)
    shift = math.pi * ((r.m - r.n) % (2 * r.n)) / r.n if r.family_tag == INNER else 0.0
    at_pi_2 = abs(contour_integral_closed(r, 0.5 * math.pi - shift, beta).value)
    assert abs(at_pi_2 - least) <= 2.0 * math.ulp(least)
