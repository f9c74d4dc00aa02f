import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import melnikov_lab.elliptic as elliptic_module
import melnikov_lab.melnikov as melnikov_module
from melnikov_lab.elliptic import EllipticModulus, _complementary, _complete_K
from melnikov_lab.melnikov import (
    K_WINDOW,
    MelnikovCurve,
    NonConvergenceError,
    Resonance,
    ResidueOverflowError,
    ResonanceError,
    _rotating_period,
    _trapezoid_doubling,
    chaos_condition,
    closed_form_homoclinic,
    closed_form_subharmonic,
    enumerate_resonances,
    homoclinic_quadrature,
    simple_zeros,
    solve_resonance,
    subharmonic_quadrature,
)
from melnikov_lab.pendulum import INNER, ROTATING_MINUS, ROTATING_PLUS, pendulum_system
from oracles import full_range_bisection, homoclinic_limit_check

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _count_work(monkeypatch):
    """Record the k' of every EllipticModulus._build and count every AGM descent."""
    builds, descents = [], []
    build, descent = EllipticModulus._build, elliptic_module._descent

    def counting_build(cls, k, k_prime):
        builds.append(k_prime)
        return build(k, k_prime)

    def counting_descent(b, c, levels=None):
        descents.append(b)
        return descent(b, c, levels)

    monkeypatch.setattr(EllipticModulus, "_build", classmethod(counting_build))
    monkeypatch.setattr(elliptic_module, "_descent", counting_descent)
    return builds, descents


class TestSolveResonance:
    def test_inner_resonance_equation(self):
        r = solve_resonance(INNER, 1.0, 3, 1)
        assert r is not None
        assert r.modulus.K == pytest.approx(1.5 * math.pi, abs=1e-12)
        assert abs(r.residual()) <= 1e-12

    def test_inner_unsolvable_returns_none(self):
        # K(k) > pi/2 always, so m/n <= omega admits no inner resonance
        assert solve_resonance(INNER, 1.0, 1, 1) is None
        assert solve_resonance(INNER, 1.0, 1, 2) is None
        assert solve_resonance(INNER, 2.0, 3, 2) is None

    def test_rotating_always_solvable(self):
        for m, n in ((1, 1), (1, 5), (7, 2)):
            r = solve_resonance(ROTATING_PLUS, 1.0, m, n)
            assert r is not None
            mod = r.modulus
            assert mod.k * mod.K == pytest.approx(math.pi * m / n, abs=1e-10)

    def test_high_modulus_resonance_accuracy(self):
        # m = 11 pushes k within ~1e-7 of 1; the complement keeps K exact
        r = solve_resonance(INNER, 1.0, 11, 1)
        assert abs(r.residual()) <= 1e-10
        assert r.modulus.k_prime < 1e-6

    @pytest.mark.parametrize(
        "family, omega, m",
        [
            (INNER, 1.0, 450),  # K = 706.9 lies past K(k' = 1e-300) = 692.16
            (INNER, 1.0, 441),  # K = 692.7, just past it
            (ROTATING_PLUS, 1e-3, 1),  # k' ~ 4 exp(-3142) underflows
            (ROTATING_MINUS, 1e-3, 2),
        ],
    )
    def test_out_of_range_raises(self, family, omega, m):
        with pytest.raises(ResonanceError, match="out of range"):
            solve_resonance(family, omega, m, 1)

    def test_unresolved_root_fails_the_residual_check(self):
        # k K = pi / 4000 lies inside the bracket, but the bisection ends at
        # k' = 1 - 1e-16 with a residual above 1e-10 of the target
        with pytest.raises(ResonanceError, match=r"residual -1\.653e-13 .*\(k' = 1\.000e\+00\)"):
            solve_resonance(ROTATING_PLUS, 4000.0, 1, 1)

    @pytest.mark.parametrize("family", [INNER, ROTATING_PLUS, ROTATING_MINUS])
    def test_infinite_target_raises_before_bisecting(self, monkeypatch, family):
        # pi * m / (2 n omega) overflows at omega = 5e-324; an infinite target
        # once met both the bracket check and the residual test
        builds, descents = _count_work(monkeypatch)
        with pytest.raises(ResonanceError, match="target inf lies outside"):
            solve_resonance(family, 5e-324, 5, 1)
        assert builds == [] and len(descents) == 2

    @pytest.mark.parametrize("omega", [1e-3, 1e9])
    def test_unbracketed_target_raises_before_bisecting(self, monkeypatch, omega):
        # k K = pi / omega lies above k K(k' = 1e-300) = 692 at omega = 1e-3 and
        # below k K(k' = 1 - 1e-16) = 2.3e-8 at omega = 1e9
        builds, descents = _count_work(monkeypatch)
        with pytest.raises(ResonanceError, match="out of range") as exc:
            solve_resonance(ROTATING_PLUS, omega, 1, 1)
        assert len(builds) <= 2
        # one descent per bracket end, and no bisection step
        assert len(descents) == 2
        message = str(exc.value)
        assert "k' = 1.000e+00" not in message
        assert f"target {math.pi / omega:.6g}" in message
        assert "[2.34067e-08, 692.162]" in message

    def test_each_solve_meets_its_target_or_raises(self):
        # K = ln(4/k') + O(k'^2): m runs k' from 0.1 down past 1e-100, and
        # every target lies within K(k' = 1e-300), so none may raise (81/1
        # and 101/1, at k' = 2.2e-55 and 5.0e-69, once did)
        for m in range(2, 151):
            r = solve_resonance(INNER, 1.0, m, 1)
            assert abs(r.residual()) <= 1e-10 * math.pi * m / 2.0

    @PROPERTY
    @given(
        st.sampled_from((INNER, ROTATING_PLUS, ROTATING_MINUS)),
        st.floats(0.5, 2.0),
        st.integers(1, 400),
        st.sampled_from((1, 2)),
    )
    def test_separatrix_bracket_keeps_the_full_range_root(self, family, omega, m, n):
        # near the separatrix the bisection starts from k' = 4 exp(-target);
        # where [1e-300, 1 - 1e-16] resolves the root, it finds the same one
        assume(math.gcd(m, n) == 1)
        target, period = melnikov_module._resonance_equation(family, omega, m, n)
        lo, hi = melnikov_module._K_PRIME_RANGE
        reachable = period(_complementary(hi), hi) <= target <= period(_complementary(lo), lo)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _, descents = _count_work(monkeypatch)
            try:
                r = solve_resonance(family, omega, m, n)
            except ResonanceError:
                assert not reachable
                return
        if r is None:
            return
        assert abs(r.residual()) <= 1e-10 * target
        # n periods span the forcing interval: n*4K - 2 pi m/omega = 4n*residual on
        # inner orbits and n*2kK - 2 pi m/omega = 2n*residual on rotating ones.  For
        # n in {1, 2} both sides are power-of-two multiples of K - target (or kK -
        # target), so no ulp allowance is needed: 13,030 solves over this domain
        # (every m, n and omega 0.5, 1, 2 plus six random omega) met it with none
        assert abs(n * r.orbit.period - r.forcing_interval) <= 4 * n * abs(r.residual())
        if 4.0 * math.exp(-target) < 1e-3:
            assert len(descents) <= 60
        if r.modulus.k_prime >= 3e-45:
            assert r.modulus.k_prime == full_range_bisection(period, target, lo, hi)

    @pytest.mark.parametrize("family, m", [(INNER, 3), (ROTATING_PLUS, 1), (ROTATING_MINUS, 1)])
    def test_one_build_per_solve(self, monkeypatch, family, m):
        # each bisection step evaluates K alone; the modulus is built at the root
        builds, descents = _count_work(monkeypatch)
        r = solve_resonance(family, 1.0, m, 1)
        assert builds == [r.modulus.k_prime]
        assert len(descents) <= 64

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", [INNER, ROTATING_PLUS, ROTATING_MINUS])
    def test_non_finite_omega_is_a_usage_error(self, family, omega):
        with pytest.raises(ValueError, match="omega must be"):
            solve_resonance(family, omega, 3, 1)
        with pytest.raises(ValueError, match="omega must be"):
            enumerate_resonances(family, omega, K_WINDOW, 5, 2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_resonance(INNER, -1.0, 3, 1)
        with pytest.raises(ValueError):
            solve_resonance(INNER, 1.0, 2, 4)  # not coprime
        with pytest.raises(ValueError):
            solve_resonance("separatrix", 1.0, 3, 1)

    @PROPERTY
    @given(st.floats(-300.0, math.log10(1.0 - 1e-16)))
    def test_period_functions_are_the_modulus_bit_for_bit(self, log_kp):
        k_prime = min(10.0**log_kp, 1.0 - 1e-16)
        mod = EllipticModulus.from_k_prime(k_prime)
        assert _complete_K(mod.k, mod.k_prime) == mod.K
        assert _rotating_period(mod.k, mod.k_prime) == mod.k * mod.K

    @PROPERTY
    @given(
        st.sampled_from((INNER, ROTATING_PLUS, ROTATING_MINUS)),
        st.floats(-2.0, 2.0),
        st.integers(1, 40),
        st.integers(1, 5),
    )
    def test_solved_modulus_is_the_one_built_from_its_k_prime(self, family, log_omega, m, n):
        assume(math.gcd(m, n) == 1)
        try:
            r = solve_resonance(family, 10.0**log_omega, m, n)
        except ResonanceError:
            return
        if r is not None:
            assert r.modulus == EllipticModulus.from_k_prime(r.modulus.k_prime)

    def test_resonance_constructor_validation(self):
        mod = EllipticModulus.from_k(0.5)
        with pytest.raises(ValueError):
            Resonance(INNER, 2, 4, mod, 1.0)
        with pytest.raises(ValueError):
            Resonance("nope", 1, 1, mod, 1.0)


class TestSubharmonicQuadrature:
    def test_matches_adaptive_quadrature_oracle(self):
        # independent oracle: scipy adaptive quadrature of the integrand
        from melnikov_lab.pendulum import orbit_state

        r = solve_resonance(INNER, 1.0, 3, 1)
        sys = pendulum_system(1.0, 1.0, 1.0)
        theta = 0.7

        def integrand(t):
            x2 = orbit_state(r.orbit, t).x2
            return x2 * (math.cos(t + theta) - x2)

        oracle = 0.0
        length = r.forcing_interval
        for i in range(6):  # split: the integrand oscillates
            a, b = length * i / 6, length * (i + 1) / 6
            val, _ = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
            oracle += val
        assert subharmonic_quadrature(sys, r, theta) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize(
        "family, m",
        [
            (INNER, 11),  # k' = 1.3e-7; gap 4.3e-13 with the arcsin step on every level
            (INNER, 15),  # k' = 2.3e-10; 8.5e-12
            (INNER, 27),  # k' = 1.5e-18; 8.6e-9
            (INNER, 45),  # k' = 8.0e-31; 3.9e-8
            (ROTATING_PLUS, 27),  # k' = 5.8e-37; 1.7e-8
            (ROTATING_MINUS, 27),
            (ROTATING_PLUS, 38),  # k' = 5.7e-52; 4.1e-14, 2.1e-10 at linear bisection's residual
            (ROTATING_MINUS, 38),
            (INNER, 77),  # k' = 1.2e-52; 2.7e-14, 1.0e-9 likewise
            (INNER, 101),  # k' = 5.0e-69; 2.0e-14, out of range for linear bisection
        ],
    )
    def test_near_separatrix_matches_closed_form(self, family, m):
        r = solve_resonance(family, 1.0, m, 1)
        quad_value = subharmonic_quadrature(pendulum_system(1.0, 0.0, 1.0), r, 0.0)
        closed = closed_form_subharmonic(r, 1.0, 0.0).evaluate(0.0)
        assert abs(quad_value - closed) <= 1e-12

    def test_near_separatrix_quadrature_stops_early(self):
        # a round-off floor in cn once doubled inner 45/1 to 32,768 nodes
        assert solve_resonance(INNER, 1.0, 45, 1).kernels.nodes <= 2048

    def test_pure_damping_theta_independent(self):
        r = solve_resonance(ROTATING_PLUS, 1.0, 2, 1)
        sys = pendulum_system(0.0, 1.0, 1.0)
        vals = [subharmonic_quadrature(sys, r, th) for th in (0.0, 1.0, 2.0)]
        assert max(vals) - min(vals) <= 1e-10

    def test_forcing_term_even_in_theta(self):
        r = solve_resonance(INNER, 1.0, 3, 1)
        sys = pendulum_system(1.0, 0.0, 1.0)
        a = subharmonic_quadrature(sys, r, 0.4)
        b = subharmonic_quadrature(sys, r, -0.4)
        assert a == pytest.approx(b, abs=1e-10)


class TestNodeDoubling:
    def test_nonconvergence_reports_tolerance_and_last_difference(self):
        # level means 64, then (64 + 128) / 2 = 96: the last difference is 32
        def sample_mean(n):
            assert n == 128
            return 64.0, 128.0

        with pytest.raises(NonConvergenceError) as exc:
            _trapezoid_doubling(sample_mean, 1.0, 1e-10, n0=64, n_max=128)
        err = exc.value
        assert (err.nodes, err.tol, err.last_diff) == (128, 1e-10, 32.0)
        assert "128 nodes" in str(err)
        assert "3.200e+01" in str(err)
        assert "1.0e-10" in str(err)

    @pytest.mark.parametrize(
        "pair",
        [(math.nan, 1.0), (1.0, math.inf), (np.array([0.0, 1.0]), np.array([0.0, -math.inf]))],
    )
    def test_a_level_that_is_not_finite_raises_at_once(self, pair):
        # an inf level beside a finite one passes |cur - prev| <= tol * (1 + |cur|)
        calls = []

        def sample_mean(n):
            calls.append(n)
            return pair

        with pytest.raises(NonConvergenceError) as exc:
            _trapezoid_doubling(sample_mean, 1.0, 1e-10, n0=64, n_max=2**20)
        assert calls == [128] and exc.value.nodes == 128

    def test_overflowing_parameters_stop_at_the_first_level(self, monkeypatch):
        r = solve_resonance(INNER, 1.0, 3, 1)
        calls = []
        original = melnikov_module.orbit_state

        def counting(family, t):
            calls.append(np.size(t))
            return original(family, t)

        monkeypatch.setattr(melnikov_module, "orbit_state", counting)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ResidueOverflowError):
                subharmonic_quadrature(pendulum_system(1e308, 1e308, 1.0), r, [0.0, 1.0])
        assert calls == [128]


class TestNonFiniteTheta:
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, [0.0, math.nan]])
    def test_rejected_before_sampling(self, monkeypatch, theta):
        def no_doubling(*args, **kwargs):
            raise AssertionError("sampled a non-finite theta")

        monkeypatch.setattr(melnikov_module, "_trapezoid_doubling", no_doubling)
        sys = pendulum_system(1.0, 0.5, 1.0)
        r = solve_resonance(INNER, 1.0, 3, 1)
        with pytest.raises(ValueError, match="theta must be finite"):
            subharmonic_quadrature(sys, r, theta)
        with pytest.raises(ValueError, match="theta must be finite"):
            homoclinic_quadrature(sys, 1, theta)


class TestAliasing:
    """The first level holds more than two nodes per forcing period."""

    def test_fast_forcing_homoclinic_matches_closed_form(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        quad = homoclinic_quadrature(pendulum_system(1.0, 0.0, 1000.0), +1, thetas)
        closed = closed_form_homoclinic(+1, 1.0, 0.0, 1000.0).evaluate(thetas)
        assert np.max(np.abs(quad - closed)) <= 1e-10

    def test_many_forcing_periods_subharmonic_matches_closed_form(self):
        r = solve_resonance(INNER, 460.0, 501, 1)
        thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        quad = subharmonic_quadrature(pendulum_system(1.0, 0.0, 460.0), r, thetas)
        closed = closed_form_subharmonic(r, 1.0, 0.0).evaluate(thetas)
        assert np.max(np.abs(quad - closed)) <= 1e-10

    @pytest.mark.parametrize("n0, cycles, first", [(64, 3, 64), (64, 32, 128), (64, 501, 1024),
                                                   (512, 1000 * 90 / math.pi, 65536)])
    def test_first_level(self, n0, cycles, first):
        assert melnikov_module._first_level(n0, cycles) == first

    def test_first_level_beyond_n_max_raises_before_sampling(self):
        def sampler(n):
            raise AssertionError("sampled a level past n_max")

        with pytest.raises(NonConvergenceError):
            _trapezoid_doubling(sampler, 1.0, 1e-10, n0=2**20, n_max=2**20)


def test_system_omega_must_be_the_resonance_omega(monkeypatch):
    def no_orbit(*args, **kwargs):
        raise AssertionError("sampled the orbit")

    monkeypatch.setattr(melnikov_module, "orbit_state", no_orbit)
    r = solve_resonance(ROTATING_PLUS, 1.2, 1, 1)
    with pytest.raises(ValueError, match="omega"):
        subharmonic_quadrature(pendulum_system(1.0, 0.0, 1.0), r, 0.0)


class TestKernelsOncePerResonance:
    """A Resonance integrates its kernels on first use; every theta reuses them."""

    def _count_points(self, monkeypatch):
        points = []
        original = melnikov_module.orbit_state

        def counting(family, t):
            points.append(np.size(t))
            return original(family, t)

        monkeypatch.setattr(melnikov_module, "orbit_state", counting)
        return points

    @pytest.mark.parametrize("case", [(INNER, 1.0, 3, 1), (ROTATING_MINUS, 0.8, 3, 2)])
    def test_eight_scalar_thetas_sample_the_orbit_once(self, monkeypatch, case):
        r = solve_resonance(*case)
        points = self._count_points(monkeypatch)
        sys = pendulum_system(0.7, 1.3, r.omega)
        values = [subharmonic_quadrature(sys, r, th) for th in np.linspace(0.0, 6.0, 8)]
        assert sum(points) == r.kernels.nodes
        first_pass = list(points)
        subharmonic_quadrature(sys, r, np.linspace(0.0, 6.0, 8))
        assert points == first_pass
        assert all(isinstance(v, float) for v in values)

    def test_systems_share_one_kernel_triple(self, monkeypatch):
        r = solve_resonance(INNER, 1.0, 5, 1)
        ker = r.kernels
        points = self._count_points(monkeypatch)
        thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        for beta, delta in [(1.0, 0.0), (0.0, 1.0), (0.3, 2.5), (1e3, 1e-3)]:
            sys = pendulum_system(beta, delta, r.omega)
            expected = (
                beta * (ker.cos_kernel * np.cos(thetas) - ker.sin_kernel * np.sin(thetas))
                - delta * ker.damping_kernel
            )
            assert np.array_equal(subharmonic_quadrature(sys, r, thetas), expected)
            closed = closed_form_subharmonic(r, beta, delta).evaluate(thetas)
            assert np.max(np.abs(expected - closed)) <= 1e-8 * (1.0 + beta + delta)
        assert points == [] and r.kernels is ker

    def test_other_omega_raises_with_cached_kernels(self):
        r = solve_resonance(ROTATING_PLUS, 1.2, 1, 1)
        subharmonic_quadrature(pendulum_system(1.0, 0.0, 1.2), r, 0.0)
        assert "kernels" in vars(r)
        with pytest.raises(ValueError, match="omega"):
            subharmonic_quadrature(pendulum_system(1.0, 0.0, 1.0), r, 0.0)

    def test_kernels_record_their_level(self):
        r = solve_resonance(INNER, 1.0, 3, 1)
        ker = r.kernels
        assert ker.nodes == 128
        assert 0.0 <= ker.last_diff <= 1e-10 * (1.0 + abs(ker.damping_kernel))

    def test_value_that_overflows_names_the_value(self):
        ker = solve_resonance(INNER, 1.0, 3, 1).kernels
        with pytest.raises(ResidueOverflowError, match="Melnikov value nan at beta=1e"):
            ker.value(0.0, 1e308, 1e308)
        with pytest.raises(ResidueOverflowError, match="Melnikov value -?inf"):
            ker.value(np.array([0.0, 1.0]), 1e308, 0.0)
        with pytest.raises(ValueError, match="theta must be finite"):
            ker.value(math.nan, 1.0, 1.0)


class TestClosedFormSubharmonic:
    def test_inner_values(self):
        r = solve_resonance(INNER, 1.0, 3, 1)
        mod = r.modulus
        curve = closed_form_subharmonic(r, 2.0, 3.0)
        assert curve.const_term == pytest.approx(
            -3.0 * 16.0 * (mod.E - mod.k_prime**2 * mod.K)
        )
        assert curve.cos_coeff == pytest.approx(
            2.0 * 4.0 * math.pi / math.cosh(mod.K_prime)
        )

    def test_inner_even_m_has_no_forcing_term(self):
        r = solve_resonance(INNER, 1.0, 4, 1)
        assert closed_form_subharmonic(r, 1.0, 1.0).cos_coeff == 0.0

    def test_higher_n_has_no_forcing_term(self):
        r = solve_resonance(ROTATING_PLUS, 1.0, 3, 2)
        assert closed_form_subharmonic(r, 1.0, 1.0).cos_coeff == 0.0

    def test_rotating_signs_mirror(self):
        rp = solve_resonance(ROTATING_PLUS, 1.0, 2, 1)
        rm = solve_resonance(ROTATING_MINUS, 1.0, 2, 1)
        cp = closed_form_subharmonic(rp, 1.0, 1.0)
        cm = closed_form_subharmonic(rm, 1.0, 1.0)
        assert cp.const_term == pytest.approx(cm.const_term)
        assert cp.cos_coeff == pytest.approx(-cm.cos_coeff)

    def test_damping_count_options(self):
        r = solve_resonance(INNER, 1.0, 5, 3)
        with_n = closed_form_subharmonic(r, 0.0, 1.0, j1_arg="n")
        with_m = closed_form_subharmonic(r, 0.0, 1.0, j1_arg="m")
        assert with_m.const_term == pytest.approx(with_n.const_term * 5.0 / 3.0)
        with pytest.raises(ValueError):
            closed_form_subharmonic(r, 1.0, 1.0, j1_arg="k")


class TestHomoclinic:
    def test_quadrature_matches_sech_oracle(self):
        # damping part: int 4 sech^2 = 8; forcing part via adaptive quad
        sys = pendulum_system(1.0, 1.0, 0.8)
        theta = 0.3

        def integrand(t):
            x2 = 2.0 / math.cosh(t)
            return x2 * (math.cos(0.8 * t + theta) - x2)

        oracle, _ = quad(integrand, -60, 60, epsabs=1e-12, epsrel=1e-12, limit=400)
        assert homoclinic_quadrature(sys, +1, theta) == pytest.approx(oracle, abs=1e-9)

    def test_closed_form_values(self):
        curve = closed_form_homoclinic(+1, 2.0, 3.0, 1.0)
        assert curve.const_term == -24.0
        assert curve.cos_coeff == pytest.approx(
            4.0 * math.pi / math.cosh(math.pi / 2.0)
        )
        minus = closed_form_homoclinic(-1, 2.0, 3.0, 1.0)
        assert minus.cos_coeff == pytest.approx(-curve.cos_coeff)

    def test_phase_convention_audit_flag(self):
        sys = pendulum_system(1.0, 0.0, 2.0)
        default = homoclinic_quadrature(sys, +1, 0.0)
        alt = homoclinic_quadrature(sys, +1, 0.0, phase_convention="t")
        closed = closed_form_homoclinic(+1, 1.0, 0.0, 2.0).evaluate(0.0)
        assert default == pytest.approx(closed, abs=1e-9)
        assert abs(alt - closed) > 1e-3  # omega = 2 separates the readings
        with pytest.raises(ValueError):
            homoclinic_quadrature(sys, +1, 0.0, phase_convention="tau")


class TestSimpleZeros:
    def test_two_simple_zeros(self):
        zeros = simple_zeros(MelnikovCurve(-1.0, 2.0))
        assert isinstance(zeros, tuple)
        assert len(zeros) == 2
        assert all(z.simple for z in zeros)
        th = zeros[0].theta
        assert math.cos(th) == pytest.approx(0.5, abs=1e-12)

    def test_no_zero(self):
        zeros = simple_zeros(MelnikovCurve(-3.0, 2.0))
        assert zeros == ()

    def test_tangency_detected(self):
        zeros = simple_zeros(MelnikovCurve(-2.0, 2.0))
        assert len(zeros) == 1
        assert not zeros[0].simple
        assert zeros[0].theta == pytest.approx(0.0)

    def test_constant_curve(self):
        assert simple_zeros(MelnikovCurve(-5.0, 0.0)) == ()

    def test_zeros_do_not_depend_on_the_curve_scale(self):
        zero_sets = [simple_zeros(MelnikovCurve(-0.5 * s, s)) for s in (1e-13, 1.0, 1e13)]
        assert zero_sets[0] == zero_sets[1] == zero_sets[2]
        assert any(z.simple for z in zero_sets[0])

    def test_small_curve_has_two_simple_zeros(self):
        zeros = simple_zeros(MelnikovCurve(0.0, 1e-13))
        assert [z.theta for z in zeros] == [0.5 * math.pi, 1.5 * math.pi]
        assert all(z.simple for z in zeros)


class TestChaosCondition:
    def test_threshold_value(self):
        v = chaos_condition(1.0, 1.0, 1.0)
        assert v.threshold == pytest.approx(
            (4.0 / math.pi) * math.cosh(math.pi / 2.0)
        )
        assert not v.holds
        assert chaos_condition(4.0, 1.0, 1.0).holds

    def test_zero_damping(self):
        v = chaos_condition(1.0, 0.0, 1.0)
        assert v.holds and v.ratio == math.inf
        assert not chaos_condition(0.0, 0.0, 1.0).holds

    def test_matches_zero_analysis_at_margin(self):
        for scale in (0.999, 1.001):
            beta = scale * (4.0 / math.pi) * math.cosh(math.pi / 2.0)
            verdict = chaos_condition(beta, 1.0, 1.0)
            zeros = simple_zeros(closed_form_homoclinic(+1, beta, 1.0, 1.0))
            assert verdict.holds == any(z.simple for z in zeros) == (scale > 1.0)


class TestLargeOmega:
    """cosh(omega K') and cosh(pi omega / 2) overflow above ~710.5."""

    def test_sech_factors_underflow_to_zero(self):
        assert closed_form_homoclinic(+1, 1.0, 1.0, 1000.0) == MelnikovCurve(-8.0, 0.0)
        r = solve_resonance(INNER, 460.0, 501, 1)  # omega K' > 460 pi / 2 > 722
        assert closed_form_subharmonic(r, 1.0, 0.5).cos_coeff == 0.0
        v = chaos_condition(1.0, 1.0, 1000.0)
        assert v.threshold == math.inf and v.ratio == 0.0 and not v.holds
        assert chaos_condition(1.0, 0.0, 1000.0).holds

    @pytest.mark.parametrize("omega", [0.5, 1.0, 1.3, 100.0, 450.0, 451.9])
    def test_finite_cosh_values_are_unchanged(self, omega):
        # the last omega puts pi omega / 2 at 709.9, just below the overflow
        hom = closed_form_homoclinic(-1, 0.7, 0.2, omega)
        assert hom.cos_coeff == -1.0 * 2.0 * math.pi * 0.7 / math.cosh(0.5 * math.pi * omega)
        threshold = (4.0 / math.pi) * math.cosh(0.5 * math.pi * omega)
        assert chaos_condition(1.0, 1.0, omega).threshold == threshold

    def test_finite_cosh_subharmonic_values_are_unchanged(self):
        for r in (solve_resonance(INNER, 1.0, 3, 1), solve_resonance(ROTATING_MINUS, 1.2, 1, 1)):
            mod = r.modulus
            if r.family_tag == INNER:
                j2 = 4.0 * math.pi / math.cosh(r.omega * mod.K_prime)
            else:
                j2 = -2.0 * math.pi / math.cosh(mod.k * r.omega * mod.K_prime)
            assert closed_form_subharmonic(r, 1.0, 0.0).cos_coeff == j2


class TestEnumerateResonances:
    def test_sorted_and_windowed(self):
        rs = enumerate_resonances(INNER, 1.0, (0.5, 1.0 - 1e-15), 7, 2)
        ks = [r.modulus.k for r in rs]
        assert ks == sorted(ks)
        assert all(0.5 <= k for k in ks)
        assert all(math.gcd(r.m, r.n) == 1 for r in rs)

    def test_inner_n1_moduli_increase_with_m(self):
        rs = enumerate_resonances(INNER, 1.0, (1e-6, 1.0 - 1e-15), 9, 1)
        assert [r.m for r in rs] == [2, 3, 4, 5, 6, 7, 8, 9]
        ks = [r.modulus.k for r in rs]
        assert ks == sorted(ks)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            enumerate_resonances(INNER, 1.0, (0.9, 0.1), 5, 1)

    @pytest.mark.parametrize("family", [ROTATING_PLUS, ROTATING_MINUS])
    def test_small_resolvable_rotating_moduli_are_listed(self, family):
        # 1/1 at omega = 1500 has k = 1.33e-3, just above the smallest rotating
        # modulus listed; at omega = 4000 it has k = 5e-4 and only 3/1 is left
        rs = enumerate_resonances(family, 1500.0, K_WINDOW, 3, 1)
        assert [(r.m, r.n) for r in rs] == [(1, 1), (2, 1), (3, 1)]
        assert rs[0].modulus.k == pytest.approx(4e-3 / 3, rel=1e-6)
        rs = enumerate_resonances(family, 4000.0, K_WINDOW, 3, 1)
        assert [(r.m, r.n) for r in rs] == [(3, 1)]

    @pytest.mark.parametrize(
        "family, omega", [(INNER, 1.0), (ROTATING_PLUS, 0.2), (ROTATING_MINUS, 1e-3)]
    )
    def test_skips_out_of_window_targets_unsolved(self, monkeypatch, family, omega):
        # each case has (m, n) whose moduli solve_resonance cannot resolve
        window = (0.05, 0.999)
        in_window = []
        for m in range(1, 101):
            for n in range(1, 4):
                if math.gcd(m, n) != 1:
                    continue
                try:
                    r = solve_resonance(family, omega, m, n)
                except ResonanceError:
                    continue
                if r is not None and window[0] <= r.modulus.k <= window[1]:
                    in_window.append(r)

        solved = []

        def recording(*args):
            solved.append(solve_resonance(*args))
            return solved[-1]

        monkeypatch.setattr(melnikov_module, "solve_resonance", recording)
        rs = enumerate_resonances(family, omega, window, 100, 3)
        assert rs == sorted(in_window, key=lambda r: r.modulus.k)
        assert len(solved) == len(in_window)


def _rectangle_scan(family, omega, window, m_max, n_max):
    """(resonances, solved pairs) of every coprime (m, n) <= (m_max, n_max), m-major."""
    k_lo, k_hi = window
    if family != INNER:
        k_lo = max(k_lo, melnikov_module._ROTATING_K_MIN)
    _, period = melnikov_module._resonance_equation(family, omega, 1, 1)
    edge_lo, edge_hi = (period(k, _complementary(k)) for k in (k_lo, k_hi))
    found, solved = [], []
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            target, _ = melnikov_module._resonance_equation(family, omega, m, n)
            if math.gcd(m, n) != 1 or not edge_lo <= target <= edge_hi:
                continue
            solved.append((m, n))
            r = solve_resonance(family, omega, m, n)
            if r is not None and k_lo <= r.modulus.k <= k_hi:
                found.append(r)
    return sorted(found, key=lambda r: r.modulus.k), solved


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from([INNER, ROTATING_PLUS, ROTATING_MINUS]),
       log_omega=st.floats(-2.5, 3.5),
       window=st.sampled_from([K_WINDOW, (0.05, 0.999), (0.5, 1.0 - 1e-15)]),
       m_max=st.integers(0, 40), n_max=st.integers(0, 6))
def test_walk_matches_the_rectangle_scan(family, log_omega, window, m_max, n_max):
    """The walk that stops at the window's edges solves and lists what the full scan does."""
    omega = 10.0**log_omega
    expected, expected_solved = _rectangle_scan(family, omega, window, m_max, n_max)
    with mock.patch.object(melnikov_module, "solve_resonance", wraps=solve_resonance) as spy:
        got = enumerate_resonances(family, omega, window, m_max, n_max)
    assert got == expected
    assert sorted(c.args[2:] for c in spy.call_args_list) == sorted(expected_solved)


class TestHomoclinicLimitCheck:
    def test_unsolvable_m_raises(self):
        with pytest.raises(ValueError):
            homoclinic_limit_check(INNER, 2.0, 1.0, 1.0, [1], [0.0])

    def test_rotating_gap_values(self):
        gaps = homoclinic_limit_check(
            ROTATING_PLUS, 1.0, 1.0, 1.0, [1, 3], np.linspace(0, 2 * math.pi, 32)
        )
        assert gaps[0] > gaps[1] > 0.0
