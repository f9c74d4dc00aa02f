import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

import melnikov_lab.elliptic as elliptic_module
from melnikov_lab.elliptic import (
    EllipticModulus,
    PoleProximityError,
    _descent,
    jacobi_am,
    jacobi_complex,
    jacobi_real,
)
from oracles import recorded


def K_quadrature(k):
    """Brute-force oracle: adaptive quadrature of the defining integral."""
    val, _ = quad(
        lambda phi: 1.0 / math.sqrt(1.0 - (k * math.sin(phi)) ** 2),
        0.0,
        math.pi / 2.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


def E_quadrature(k):
    val, _ = quad(
        lambda phi: math.sqrt(1.0 - (k * math.sin(phi)) ** 2),
        0.0,
        math.pi / 2.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


class TestCompleteIntegrals:
    def test_K_at_zero(self):
        # the least positive modulus: k^2 underflows to 0
        assert EllipticModulus.from_k(5e-324).K == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_K_near_zero(self):
        assert EllipticModulus.from_k(1e-8).K == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_K_against_quadrature(self):
        assert EllipticModulus.from_k(0.8).K == pytest.approx(K_quadrature(0.8), abs=1e-12)

    def test_E_at_zero(self):
        assert EllipticModulus.from_k(5e-324).E == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_E_at_one(self):
        # the least positive complement: k rounds to 1
        assert EllipticModulus.from_k_prime(5e-324).E == 1.0

    def test_E_against_quadrature(self):
        assert EllipticModulus.from_k(0.8).E == pytest.approx(E_quadrature(0.8), abs=1e-12)

    @pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_KE_against_quadrature_grid(self, k):
        mod = EllipticModulus.from_k(k)
        assert mod.K == pytest.approx(K_quadrature(k), abs=1e-12)
        assert mod.E == pytest.approx(E_quadrature(k), abs=1e-12)

    @pytest.mark.parametrize("k", [1.0 - 1e-12, 1.0 - 2.0**-52])
    def test_E_near_one_matches_mpmath(self, k):
        # K(1 - c-sum) cancels as k -> 1: 16.8 and 11.6 eps off at these k
        with mpmath.workdps(50):
            ref = mpmath.ellipe(mpmath.mpf(k) ** 2)
        err = abs(mpmath.mpf(EllipticModulus.from_k(k).E) - ref) / ref
        assert err <= 2.0 * np.finfo(float).eps

    def test_K_monotone_E_antitone(self):
        ks = np.linspace(0.05, 0.95, 40)
        Ks = [EllipticModulus.from_k(k).K for k in ks]
        Es = [EllipticModulus.from_k(k).E for k in ks]
        assert all(b > a for a, b in zip(Ks, Ks[1:]))
        assert all(b < a for a, b in zip(Es, Es[1:]))

    def test_ordering_for_interior_modulus(self):
        for k in (0.2, 0.5, 0.8):
            m = EllipticModulus.from_k(k)
            assert m.K > math.pi / 2.0
            assert m.E < math.pi / 2.0 < m.K


class TestEllipticModulus:
    def test_complement_consistency(self):
        m = EllipticModulus.from_k(0.6)
        assert m.k**2 + m.k_prime**2 == pytest.approx(1.0, abs=1e-14)
        assert m.complement.K == m.K_prime
        assert m.complement.K_prime == m.K

    def test_complement_built_once(self):
        m = EllipticModulus.from_k(0.6)
        comp = m.complement
        assert comp is m.complement
        fresh = EllipticModulus.from_k_prime(0.6)
        assert (comp.K, comp.E, comp.K_prime) == (fresh.K, fresh.E, fresh.K_prime)

    def test_jacobi_functions_and_complement_reuse_the_two_descents(self):
        with recorded(elliptic_module, "_descent") as calls:
            m = EllipticModulus.from_k_prime(0.036)
            jacobi_real(0.4, m)
            jacobi_am(0.4, m)
            jacobi_complex(0.4 + 0.3j, m)
        assert len(calls) == 2

    def test_from_k_prime_high_modulus(self):
        # k this close to 1 is only representable through its complement
        m = EllipticModulus.from_k_prime(1e-7)
        assert m.K == pytest.approx(math.log(4.0 / 1e-7), rel=1e-6)

    def test_legendre_relation_grid(self):
        for k in np.linspace(0.02, 0.98, 50):
            m = EllipticModulus.from_k(float(k))
            comp = m.complement
            legendre = m.E * m.K_prime + comp.E * m.K - m.K * m.K_prime
            assert legendre == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_invalid_modulus(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                EllipticModulus.from_k(bad)

    def test_invalid_complementary_modulus(self):
        for bad in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="complementary modulus"):
                EllipticModulus.from_k_prime(bad)


# k' from the smallest the resonance solve searches to the largest below 1
LOG_K_PRIME = st.floats(-300.0, math.log10(1.0 - 1e-16))
EPS = 2.0**-52


@settings(max_examples=10)
@given(LOG_K_PRIME, st.floats(-1.0, 1.0))
@example(math.log10(0.01), 0.3)  # a Landen chain that once ran to its 63-level cap
@example(math.log10(0.5), 0.999)
@example(-4.0, -0.999)
@example(-14.0, 0.999)
@example(-20.0, 0.999)
@example(-30.0, -0.999)
@example(-300.0, 0.999)
@example(math.log10(1.0 - 1e-16), -0.7)
def test_descent_values_match_mpmath(log_kp, fraction):
    """K, E, E(k'), cn and am against mpmath at t = fraction * K.

    t stays in [-K, K], where neither function reduces its argument by a
    period: beyond it the reduced argument carries K's rounding times the
    number of periods (test_periodicity covers the reduction).
    """
    k_prime = 10.0**log_kp
    assume(0.0 < k_prime < 1.0)
    mod = EllipticModulus.from_k_prime(k_prime)
    t = fraction * mod.K
    cn, am = jacobi_real(t, mod).cn, jacobi_am(t, mod)
    # enough digits to hold the parameter m = 1 - k'^2 itself
    with mpmath.workdps(30 + 2 * max(0, -math.floor(log_kp))):
        m = 1 - mpmath.mpf(k_prime) ** 2
        K, E = mpmath.ellipk(m), mpmath.ellipe(m)
        E_comp = mpmath.ellipe(mpmath.mpf(k_prime) ** 2)
        sn_ref = mpmath.ellipfun("sn", mpmath.mpf(t), m=m)
        cn_ref = mpmath.ellipfun("cn", mpmath.mpf(t), m=m)
        phase = mpmath.atan2(sn_ref, cn_ref)
        am_ref = phase + 2 * mpmath.pi * mpmath.nint((am - phase) / (2 * mpmath.pi))
        errors = [float(abs(x - ref) / ref) for x, ref in
                  ((mod.K, K), (mod.E, E), (mod.complement.E, E_comp))]
        cn_err, am_err = float(abs(cn - cn_ref)), float(abs(am - am_ref))
    assert errors[0] <= 4 * EPS
    # E = pi/(2K') + K c-sum' adds two positive terms, so nothing cancels
    assert errors[1] <= 2 * EPS
    assert errors[2] <= 2 * EPS
    # the Landen steps near the separatrix take their cancellation-free atan2 form
    assert cn_err <= 16 * EPS and am_err <= 16 * EPS


@settings(max_examples=6)
@given(LOG_K_PRIME, st.floats(1.0, 16.0))
@example(-300.0, 15.99)
@example(math.log10(1.0 - 1e-16), 14.8)
def test_reduced_arguments_match_mpmath(log_kp, quarters):
    """cn and am against mpmath at t = quarters * K, up to four periods.

    Reducing t by a multiple of 4K (2K for am) carries K's rounding, at most
    4 eps relative, times the number of periods, so the error may grow by a
    few eps per unit of |t| on top of the 16 eps of the Landen descent.
    """
    k_prime = 10.0**log_kp
    assume(0.0 < k_prime < 1.0)
    mod = EllipticModulus.from_k_prime(k_prime)
    t = quarters * mod.K
    cn, am = jacobi_real(t, mod).cn, jacobi_am(t, mod)
    with mpmath.workdps(30 + 2 * max(0, -math.floor(log_kp))):
        m = 1 - mpmath.mpf(k_prime) ** 2
        sn_ref = mpmath.ellipfun("sn", mpmath.mpf(t), m=m)
        cn_ref = mpmath.ellipfun("cn", mpmath.mpf(t), m=m)
        phase = mpmath.atan2(sn_ref, cn_ref)
        am_ref = phase + 2 * mpmath.pi * mpmath.nint((am - phase) / (2 * mpmath.pi))
        cn_err, am_err = float(abs(cn - cn_ref)), float(abs(am - am_ref))
    bound = 16 * EPS + 6 * EPS * t
    assert cn_err <= bound and am_err <= bound


def test_descent_stops_within_16_levels():
    grid = np.concatenate(
        [np.arange(0.01, 0.99, 1e-4), np.logspace(-323, math.log10(1.0 - 1e-16), 2000)]
    )
    for k_prime in grid.tolist():
        k = math.sqrt((1.0 - k_prime) * (1.0 + k_prime))
        for b, c in ((k_prime, k), (k, k_prime)):
            levels = []
            _descent(b, c, levels)
            assert len(levels) <= 16
    assert len(EllipticModulus.from_k_prime(5e-324)._landen[1]) <= 16


def test_descent_that_cannot_settle_raises():
    # b = 0 halves a at every level and never meets the stop rule
    with pytest.raises(ArithmeticError):
        _descent(0.0, 1.0)


def jacobi_ode_oracle(t, k):
    """Integrate s' = c*d, c' = -s*d, d' = -k^2*s*c from (0, 1, 1)."""
    sol = solve_ivp(
        lambda _, y: [y[1] * y[2], -y[0] * y[2], -(k**2) * y[0] * y[1]],
        (0.0, t),
        [0.0, 1.0, 1.0],
        method="DOP853",
        rtol=1e-13,
        atol=1e-13,
    )
    return sol.y[:, -1]


class TestJacobiReal:
    def test_small_modulus_is_circular(self):
        m = EllipticModulus.from_k(1e-10)
        for t in (0.3, 1.2, 2.5):
            tri = jacobi_real(t, m)
            assert tri.sn == pytest.approx(math.sin(t), abs=1e-9)
            assert tri.cn == pytest.approx(math.cos(t), abs=1e-9)
            assert tri.dn == pytest.approx(1.0, abs=1e-9)

    def test_quarter_period(self):
        m = EllipticModulus.from_k(0.6)
        tri = jacobi_real(m.K, m)
        assert tri.sn == pytest.approx(1.0, abs=1e-12)
        assert tri.cn == pytest.approx(0.0, abs=1e-12)
        assert tri.dn == pytest.approx(m.k_prime, abs=1e-12)

    def test_against_ode_oracle(self):
        m = EllipticModulus.from_k(0.6)
        tri = jacobi_real(0.7, m)
        s, c, d = jacobi_ode_oracle(0.7, 0.6)
        assert tri.sn == pytest.approx(s, abs=1e-11)
        assert tri.cn == pytest.approx(c, abs=1e-11)
        assert tri.dn == pytest.approx(d, abs=1e-11)

    def test_periodicity(self):
        m = EllipticModulus.from_k(0.8)
        t = 1.234
        a = jacobi_real(t, m)
        b = jacobi_real(t + 4.0 * m.K, m)
        assert a.sn == pytest.approx(b.sn, abs=1e-12)
        assert a.cn == pytest.approx(b.cn, abs=1e-12)

    def test_identities_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            k = rng.uniform(0.01, 0.99)
            t = rng.uniform(-30.0, 30.0)
            m = EllipticModulus.from_k(k)
            tri = jacobi_real(t, m)
            assert abs(tri.sn**2 + tri.cn**2 - 1.0) <= 1e-12
            assert abs(tri.dn**2 + (k * tri.sn) ** 2 - 1.0) <= 1e-12

    def test_nonfinite_rejected(self):
        m = EllipticModulus.from_k(0.5)
        with pytest.raises(ValueError):
            jacobi_real(math.nan, m)
        with pytest.raises(ValueError):
            jacobi_am(np.array([0.0, math.inf]), m)

    @pytest.mark.parametrize("t", [0.7, np.array(0.7), -3.1])
    def test_scalar_argument_matches_one_element_array(self, t):
        m = EllipticModulus.from_k_prime(1e-3)
        tri, one = jacobi_real(t, m), jacobi_real(np.array([float(t)]), m)
        for got, ref in zip((tri.sn, tri.cn, tri.dn), (one.sn, one.cn, one.dn)):
            assert isinstance(got, float) and got == ref[0]
        am = jacobi_am(t, m)
        assert isinstance(am, float) and am == jacobi_am(np.array([float(t)]), m)[0]

    def test_amplitude_unwrapped(self):
        m = EllipticModulus.from_k(0.7)
        # am gains pi per half period and matches arcsin(sn) locally
        assert jacobi_am(2.0 * m.K, m) == pytest.approx(math.pi, abs=1e-12)
        assert jacobi_am(0.4, m) == pytest.approx(
            math.asin(jacobi_real(0.4, m).sn), abs=1e-12
        )
        ts = np.linspace(-10.0, 10.0, 300)
        ams = jacobi_am(ts, m)
        assert np.all(np.diff(ams) > 0)


class TestJacobiComplex:
    def test_real_axis_agrees(self):
        m = EllipticModulus.from_k(0.6)
        for t in (0.3, 1.7, -2.5):
            a = jacobi_real(t, m)
            b = jacobi_complex(complex(t, 0.0), m)
            assert abs(b.sn - a.sn) <= 1e-12
            assert abs(b.cn - a.cn) <= 1e-12
            assert abs(b.dn - a.dn) <= 1e-12

    def test_imaginary_axis_maclaurin(self):
        m = EllipticModulus.from_k(0.6)
        v = 1e-5
        tri = jacobi_complex(1j * v, m)
        assert abs(tri.sn - 1j * v) <= 1e-12

    def test_identities_random_complex(self):
        rng = np.random.default_rng(7)
        count = 0
        while count < 200:
            k = rng.uniform(0.05, 0.95)
            m = EllipticModulus.from_k(k)
            t = complex(rng.uniform(-5, 5), rng.uniform(-3, 3))
            from melnikov_lab.elliptic import pole_distance

            if pole_distance(t, m) < 1e-2:
                continue
            tri = jacobi_complex(t, m)
            assert abs(tri.sn**2 + tri.cn**2 - 1.0) <= 1e-10
            assert abs(tri.dn**2 + (k * tri.sn) ** 2 - 1.0) <= 1e-10
            count += 1

    def test_cn_pole_expansion(self):
        # k*(t - iK')*cn(t) -> -i as t -> iK'
        m = EllipticModulus.from_k(0.6)
        vals = []
        for radius in (1e-3, 1e-4):
            t = 1j * m.K_prime + radius * complex(0.6, 0.8)
            vals.append(m.k * (t - 1j * m.K_prime) * jacobi_complex(t, m).cn)
        # first-order Richardson in the radius
        extrapolated = (10.0 * vals[1] - vals[0]) / 9.0
        assert abs(extrapolated - (-1j)) <= 1e-7

    def test_dn_scaled_residue(self):
        # dn(t/k) has residue -i*k at t = i*k*K': with u = t/k, k times dn's
        # residue at u = iK', on the circle of radius 0.08/k in u
        from melnikov_lab.contour import laurent_probe

        m = EllipticModulus.from_k(0.6)
        (residue, _), = laurent_probe(lambda tri, u: tri.dn, m, [0.08 / m.k])
        assert abs(m.k * residue - (-1j * m.k)) <= 1e-10

    def test_pole_proximity_raises(self):
        m = EllipticModulus.from_k(0.6)
        with pytest.raises(PoleProximityError):
            jacobi_complex(1j * m.K_prime + 1e-10, m)
