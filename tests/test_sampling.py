"""Nested node doubling and the one-pass Jacobi amplitude.

A quadrature that stops at N nodes must have sampled the orbit on exactly
N points, and its value must equal the direct N-node trapezoid rule of the
three kernels.  The rotating orbit's velocity, now taken from the Jacobi
amplitude, must match dn from jacobi_real; the Landen descent must stay
free of NaN without clipping its arcsin argument.

The dispatch cuts are pinned bit for bit by derandomized hypothesis
properties: the Landen descent without arcsin where arcsin(x) == x
equals the full descent written out here; the means that
_melnikov_kernels' sampler hands _trapezoid_doubling equal np.mean of
each kernel over the even and odd nodes of the first level pair and over
the new nodes of a later level; and a scalar theta, which takes
math.cos/sin, gives the array-theta value at that theta.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from melnikov_lab import contour, elliptic, melnikov
from melnikov_lab.elliptic import EllipticModulus, _amplitude_reduced, jacobi_am, jacobi_real
from melnikov_lab.pendulum import (
    INNER,
    ROTATING_MINUS,
    ROTATING_PLUS,
    OrbitFamily,
    orbit_complex_values,
    orbit_state,
    pendulum_system,
)

THETAS = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

CASES = [
    (INNER, 1.0, 3, 1),
    (INNER, 0.9, 5, 2),
    (INNER, 1.0, 11, 1),
    (ROTATING_PLUS, 1.2, 1, 1),
    (ROTATING_MINUS, 0.8, 3, 2),
    (ROTATING_PLUS, 1.0, 7, 1),
]
ALIGNED = [(INNER, 1.0, 3, 1), (INNER, 1.3, 5, 1), (ROTATING_PLUS, 1.0, 2, 1),
           (ROTATING_MINUS, 0.9, 1, 1)]


def _record_levels(monkeypatch, module):
    """Level sizes n that module's _trapezoid_doubling passes to its sampler."""
    levels = []
    original = module._trapezoid_doubling

    def recording(sample_mean, *args, **kwargs):
        def sample(n):
            levels.append(n)
            return sample_mean(n)

        return original(sample, *args, **kwargs)

    monkeypatch.setattr(module, "_trapezoid_doubling", recording)
    return levels


def _count_points(monkeypatch, module, name):
    """Sizes of the time arrays module passes to its orbit sampler name."""
    points = []
    original = getattr(module, name)

    def counting(family, t):
        points.append(np.size(t))
        return original(family, t)

    monkeypatch.setattr(module, name, counting)
    return points


def _close(nested, direct):
    return np.all(np.abs(nested - direct) <= 1e-13 * (1.0 + np.abs(direct)))


@pytest.mark.parametrize("case", CASES)
def test_subharmonic_samples_each_node_once(monkeypatch, case):
    family, omega, m, n = case
    r = melnikov.solve_resonance(family, omega, m, n)
    levels = _record_levels(monkeypatch, melnikov)
    points = _count_points(monkeypatch, melnikov, "orbit_state")
    melnikov.subharmonic_quadrature(pendulum_system(1.0, 0.5, omega), r, THETAS)
    assert levels[0] == 2 * 64 and len(points) == len(levels)
    assert sum(points) == levels[-1]


@pytest.mark.parametrize("case", ALIGNED)
def test_contour_samples_each_node_once(monkeypatch, case):
    r = melnikov.solve_resonance(*case)
    spec = contour.default_contour(r)
    levels = _record_levels(monkeypatch, melnikov)
    points = _count_points(monkeypatch, contour, "orbit_complex_values")
    contour.contour_kernels(r, spec, tol=1e-12)
    assert levels[0] == 2 * 64 and len(points) == len(levels)
    assert sum(points) == levels[-1]


def test_subharmonic_stopping_at_two_n0_samples_the_orbit_once(monkeypatch):
    r = melnikov.solve_resonance(INNER, 1.0, 3, 1)
    levels = _record_levels(monkeypatch, melnikov)
    points = _count_points(monkeypatch, melnikov, "orbit_state")
    melnikov.subharmonic_quadrature(pendulum_system(1.0, 0.5, 1.0), r, THETAS)
    assert levels == [2 * 64] and points == [2 * 64]


def test_homoclinic_stopping_at_two_n0_samples_the_separatrix_once(monkeypatch):
    levels = _record_levels(monkeypatch, melnikov)
    melnikov.homoclinic_quadrature(pendulum_system(1.0, 0.5, 1.0), 1, THETAS)
    assert levels == [2 * 512]


def test_contour_stopping_at_two_n0_samples_the_orbit_once(monkeypatch):
    r = melnikov.solve_resonance(*ALIGNED[0])
    levels = _record_levels(monkeypatch, melnikov)
    points = _count_points(monkeypatch, contour, "orbit_complex_values")
    contour.contour_kernels(r, contour.default_contour(r))
    assert levels == [2 * 64] and points == [2 * 64]


@pytest.mark.parametrize("case", CASES)
def test_subharmonic_equals_direct_trapezoid(monkeypatch, case):
    family, omega, m, n = case
    r = melnikov.solve_resonance(family, omega, m, n)
    sys = pendulum_system(0.7, 1.3, omega)
    levels = _record_levels(monkeypatch, melnikov)
    nested = melnikov.subharmonic_quadrature(sys, r, THETAS)

    length = r.forcing_interval
    t = np.linspace(0.0, length, levels[-1], endpoint=False)
    x2 = orbit_state(r.orbit, t).x2
    c, s, d = (np.mean(x2 * k) for k in (np.cos(omega * t), np.sin(omega * t), x2))
    direct = length * (sys.beta * (c * np.cos(THETAS) - s * np.sin(THETAS)) - sys.delta * d)
    assert _close(nested, direct)


@pytest.mark.parametrize("sign, omega", [(1, 1.0), (-1, 1.4), (1, 0.6)])
def test_homoclinic_equals_direct_trapezoid(monkeypatch, sign, omega):
    sys = pendulum_system(1.1, 0.4, omega)
    levels = _record_levels(monkeypatch, melnikov)
    nested = melnikov.homoclinic_quadrature(sys, sign, THETAS)

    tol, n = 1e-10, levels[-1]
    half = 40.0 + 5.0 * math.log10(1.0 / tol)
    t = np.linspace(-half, half, n + 1)
    w = np.full(n + 1, 2.0 * half / n)
    w[0] = w[-1] = half / n
    x2 = sign * 2.0 / np.cosh(t)
    c, s, d = (np.sum(w * x2 * k) for k in (np.cos(omega * t), np.sin(omega * t), x2))
    direct = sys.beta * (c * np.cos(THETAS) - s * np.sin(THETAS)) - sys.delta * d
    assert _close(nested, direct)


@pytest.mark.parametrize("case", ALIGNED)
def test_contour_kernels_equal_direct_trapezoid(monkeypatch, case):
    r = melnikov.solve_resonance(*case)
    spec = contour.default_contour(r)
    levels = _record_levels(monkeypatch, melnikov)
    ker = contour.contour_kernels(r, spec, tol=1e-12)
    nested = np.array([ker.cos_kernel, ker.sin_kernel, ker.damping_kernel])

    e = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, levels[-1], endpoint=False))
    t = spec.center + spec.radius * e
    x2 = orbit_complex_values(r.orbit, t)
    x2_dt = x2 * 1j * spec.radius * e
    direct = 2.0 * math.pi * np.array(
        [np.mean(x2_dt * k) for k in (np.cos(r.omega * t), np.sin(r.omega * t), x2)]
    )
    assert _close(nested, direct)


@PROPERTY
@given(
    st.floats(-100.0, math.log10(0.99)),
    st.sampled_from((ROTATING_PLUS, ROTATING_MINUS)),
    st.floats(0.0, 1.0),
)
@example(-100.0, ROTATING_PLUS, 0.5)
@example(math.log10(0.99), ROTATING_MINUS, 0.0)
def test_rotating_velocity_from_amplitude_matches_dn(log_kp, tag, shift):
    mod = EllipticModulus.from_k_prime(10.0**log_kp)
    family = OrbitFamily(tag, mod)
    span = 20.0 * family.period
    t = np.linspace(-span, span, 513) + shift * family.period / 513
    state = orbit_state(family, t)
    sign = family.sign
    assert np.array_equal(state.x1, sign * 2.0 * jacobi_am(t / mod.k, mod))
    reference = sign * (2.0 / mod.k) * jacobi_real(t / mod.k, mod).dn
    # dn ~ k' near the half period, so the bound is absolute
    assert np.max(np.abs(state.x2 - reference)) <= 1e-12 * (2.0 / mod.k)


@PROPERTY
@given(st.floats(-300.0, math.log10(1.0 - 1e-16)))
@example(-300.0)
@example(math.log10(1.0 - 1e-16))
def test_landen_descent_without_clip_stays_finite(log_kp):
    k_prime = 10.0**log_kp
    assume(0.0 < k_prime < 1.0)
    mod = EllipticModulus.from_k_prime(k_prime)
    t = np.linspace(-2.0 * mod.K, 2.0 * mod.K, 2049)
    phi = _amplitude_reduced(t, mod)
    assert np.all(np.isfinite(phi))
    # am runs from -pi at -2K to pi at 2K
    assert abs(phi[0] + math.pi) <= 1e-9 and abs(phi[-1] - math.pi) <= 1e-9
    assert np.all(np.abs(phi) <= math.pi + 1e-9)


def test_landen_descent_leaves_its_argument_unchanged():
    mod = EllipticModulus.from_k_prime(1e-3)
    t = np.linspace(-2.0 * mod.K, 2.0 * mod.K, 129)
    before = t.copy()
    _amplitude_reduced(t, mod)
    assert np.array_equal(t, before)


def _full_descent(t, mod):
    """am(t) by the whole descending Landen chain, every level with its full step.

    The chain stops at the first level whose |c| <= ulp(a)/2.  A level with
    b/a below elliptic._ATAN2_STEP takes atan2(r sin phi, hypot(cos phi,
    (b/a) sin phi)), every other level arcsin(r sin phi).
    """
    a, b, c = 1.0, mod.k_prime, mod.k
    levels = []
    while not levels or abs(c) > 0.5 * math.ulp(a):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        levels.append((c / a, b / a))
    phi = (2.0 ** len(levels)) * a * np.asarray(t, dtype=float)
    for ratio, b_over_a in reversed(levels):
        sin = np.sin(phi)
        if b_over_a < elliptic._ATAN2_STEP:
            step = np.arctan2(ratio * sin, np.hypot(np.cos(phi), b_over_a * sin))
        else:
            step = np.arcsin(ratio * sin)
        phi = 0.5 * (phi + step)
    return phi


@PROPERTY
@given(
    st.floats(-300.0, math.log10(1.0 - 1e-16)),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
)
@example(-300.0, [1.0, -1.0, 0.0])
@example(math.log10(1.0 - 1e-16), [1.0, 5e-324])
@example(math.log10(0.01), [0.3, -0.7, 1e-310])  # a chain that once ran to 63 levels
@example(math.log10(0.5), [0.1, -0.45, 0.999])
@example(-14.0, [0.25, -0.5, 1e-300])  # a chain whose last level only halves
def test_landen_descent_without_no_op_levels_is_bit_identical(log_kp, fractions):
    k_prime = 10.0**log_kp
    assume(0.0 < k_prime < 1.0)
    mod = EllipticModulus.from_k_prime(k_prime)
    t = 4.0 * mod.K * np.array(fractions)
    assert np.array_equal(_amplitude_reduced(t, mod), _full_descent(t, mod))


@PROPERTY
@given(
    st.sampled_from((float, complex)),
    st.sampled_from((64, 512)),
    st.integers(0, 2**32 - 1),
    st.floats(-30.0, 30.0),
)
def test_level_means_equal_per_kernel_np_mean(dtype, n0, seed, log_scale):
    rng = np.random.default_rng(seed)
    drawn = []  # (s, w, x2, phase) of each sampler call

    def sample_orbit(s):
        w, x2, phase = rng.normal(size=(3, s.size))
        if dtype is complex:
            w, x2, phase = (a + 1j * rng.normal(size=s.size) for a in (w, x2, phase))
        drawn.append((s, w * 10.0**log_scale, x2, phase))
        return drawn[-1][1:]

    def np_means(half=slice(None)):
        _, w, x2, phase = drawn[-1]
        return [np.mean(k[half]) for k in (w * np.cos(phase), w * np.sin(phase), w * x2)]

    def checking(sample_mean, length, tol, n0, n_max):
        even, odd = sample_mean(2 * n0)
        assert np.array_equal(drawn[-1][0], np.arange(2 * n0) * (length / (2 * n0)))
        assert np.array_equal(even, np_means(slice(0, None, 2)))
        assert np.array_equal(odd, np_means(slice(1, None, 2)))
        # a later level samples only the n/2 new, odd-indexed nodes
        later = sample_mean(8 * n0)
        assert np.array_equal(drawn[-1][0], np.arange(1, 8 * n0, 2) * (length / (8 * n0)))
        assert np.array_equal(later, np_means())
        return later, 8 * n0, 0.0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(melnikov, "_trapezoid_doubling", checking)
        melnikov._melnikov_kernels(sample_orbit, 7.0, n0)
    assert len(drawn) == 2


@PROPERTY
@given(st.sampled_from(CASES[:4]), st.floats(-10.0, 10.0))
@example(CASES[0], 0.0)
@example(CASES[3], math.pi / 4.0)
def test_scalar_theta_equals_array_theta(case, theta):
    family, omega, m, n = case
    r = melnikov.solve_resonance(family, omega, m, n)
    sys = pendulum_system(0.8, 1.1, omega)
    scalar = melnikov.subharmonic_quadrature(sys, r, theta)
    assert isinstance(scalar, float)
    assert scalar == melnikov.subharmonic_quadrature(sys, r, np.array([theta]))[0]
    hom = melnikov.homoclinic_quadrature(sys, 1 if m % 2 else -1, theta)
    assert hom == melnikov.homoclinic_quadrature(sys, 1 if m % 2 else -1, [theta])[0]
