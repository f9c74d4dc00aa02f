import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from melnikov_lab.elliptic import EllipticModulus
from melnikov_lab.pendulum import (
    INNER,
    ROTATING_MINUS,
    ROTATING_PLUS,
    OrbitFamily,
    orbit_complex_values,
    orbit_state,
    pendulum_system,
    wrap_angle,
)
from oracles import homoclinic_limit_distance, orbit_ode_residual


class TestForcedSystem:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pendulum_system(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            pendulum_system(-1.0, 1.0, 1.0)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_nonfinite_parameters_rejected(self, slot, bad):
        params = [1.0, 0.5, 1.0]  # beta, delta, omega
        params[slot] = bad
        with pytest.raises(ValueError):
            pendulum_system(*params)


class TestWrapAngle:
    def test_representative_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.1 + 4.0 * math.pi) == pytest.approx(0.1)
        arr = wrap_angle(np.array([-7.0, 0.0, 7.0]))
        assert np.all(arr > -math.pi) and np.all(arr <= math.pi)


class TestOrbitFamilies:
    def test_family_validation(self):
        mod = EllipticModulus.from_k(0.5)
        with pytest.raises(TypeError):
            OrbitFamily(INNER)  # modulus required
        with pytest.raises(ValueError):
            OrbitFamily("homoclinic+", mod)  # not an orbit family
        with pytest.raises(ValueError):
            OrbitFamily("saddle", mod)

    def test_energies_and_periods(self):
        # H = 1 - cos x1 + x2^2/2 is 2k^2 on inner orbits and 2/k^2 on rotating ones
        def energy(point):
            return 1.0 - math.cos(point.x1) + 0.5 * point.x2**2

        mod = EllipticModulus.from_k(0.5)
        inner = OrbitFamily(INNER, mod)
        assert energy(orbit_state(inner, 0.0)) == pytest.approx(2.0 * mod.k**2)
        assert inner.period == pytest.approx(4.0 * mod.K)
        rot = OrbitFamily(ROTATING_PLUS, mod)
        assert energy(orbit_state(rot, 0.0)) == pytest.approx(2.0 / mod.k**2)
        assert rot.period == pytest.approx(2.0 * mod.k * mod.K)

    def test_energy_conserved_along_orbits(self):
        mod = EllipticModulus.from_k(0.7)
        for family in (
            OrbitFamily(INNER, mod),
            OrbitFamily(ROTATING_PLUS, mod),
            OrbitFamily(ROTATING_MINUS, mod),
        ):
            t = np.linspace(-5.0, 5.0, 200)
            state = orbit_state(family, t)
            h = 1.0 - np.cos(state.x1) + 0.5 * state.x2**2
            energy = 2.0 * mod.k**2 if family.tag == INNER else 2.0 / mod.k**2
            assert np.max(np.abs(h - energy)) <= 1e-12

    @pytest.mark.parametrize("tag_builder", [
        lambda mod: OrbitFamily(INNER, mod),
        lambda mod: OrbitFamily(ROTATING_PLUS, mod),
        lambda mod: OrbitFamily(ROTATING_MINUS, mod),
    ])
    def test_ode_residual(self, tag_builder):
        mod = EllipticModulus.from_k(0.6)
        family = tag_builder(mod)
        t = np.linspace(-4.0, 4.0, 60)
        assert orbit_ode_residual(family, t) <= 1e-9

    def test_inner_orbit_against_integrator(self):
        mod = EllipticModulus.from_k(0.6)
        family = OrbitFamily(INNER, mod)
        start = orbit_state(family, 0.0)
        sol = solve_ivp(
            lambda _, y: [y[1], -math.sin(y[0])],
            (0.0, 3.0),
            [start.x1, start.x2],
            method="DOP853",
            rtol=1e-12,
            atol=1e-12,
        )
        end = orbit_state(family, 3.0)
        assert sol.y[0, -1] == pytest.approx(end.x1, abs=1e-9)
        assert sol.y[1, -1] == pytest.approx(end.x2, abs=1e-9)

    def test_rotating_orbit_against_integrator(self):
        mod = EllipticModulus.from_k(0.8)
        family = OrbitFamily(ROTATING_MINUS, mod)
        start = orbit_state(family, 0.0)
        sol = solve_ivp(
            lambda _, y: [y[1], -math.sin(y[0])],
            (0.0, 3.0),
            [start.x1, start.x2],
            method="DOP853",
            rtol=1e-12,
            atol=1e-12,
        )
        end = orbit_state(family, 3.0)
        assert sol.y[0, -1] == pytest.approx(end.x1, abs=1e-9)
        assert sol.y[1, -1] == pytest.approx(end.x2, abs=1e-9)

    def test_rotating_angle_unwraps(self):
        mod = EllipticModulus.from_k(0.7)
        family = OrbitFamily(ROTATING_PLUS, mod)
        # one period advances the angle by a full turn
        a = orbit_state(family, 0.0)
        b = orbit_state(family, family.period)
        assert b.x1 - a.x1 == pytest.approx(2.0 * math.pi, abs=1e-10)
        assert b.x2 == pytest.approx(a.x2, abs=1e-10)


class TestComplexOrbitValues:
    def test_matches_real_axis(self):
        mod = EllipticModulus.from_k(0.6)
        for family in (
            OrbitFamily(INNER, mod),
            OrbitFamily(ROTATING_PLUS, mod),
        ):
            t = 0.9
            state = orbit_state(family, t)
            x2 = orbit_complex_values(family, complex(t, 0.0))
            assert complex(x2) == pytest.approx(state.x2, abs=1e-12)


class TestHomoclinicLimitDistance:
    def test_decreases_toward_separatrix(self):
        ks = (0.9, 0.99, 0.999)
        dists = [
            homoclinic_limit_distance(OrbitFamily(INNER, EllipticModulus.from_k(k)))
            for k in ks
        ]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.1

    def test_small_orbit_far_from_separatrix(self):
        mod = EllipticModulus.from_k(0.01)
        d = homoclinic_limit_distance(OrbitFamily(INNER, mod))
        assert d == pytest.approx(2.0, abs=0.05)
