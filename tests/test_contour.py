import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melnikov_lab.contour import (
    ContourSpec,
    SingleEnclosureViolation,
    admissible_radius,
    contour_integral_closed,
    contour_kernels,
    default_contour,
    laurent_probe,
)
from melnikov_lab.elliptic import EllipticModulus
from melnikov_lab.melnikov import ResidueOverflowError, solve_resonance
from melnikov_lab.pendulum import INNER, ROTATING_MINUS, ROTATING_PLUS, OrbitFamily
from oracles import substitution_check


@pytest.fixture(scope="module")
def inner_res():
    return solve_resonance(INNER, 1.0, 3, 1)


@pytest.fixture(scope="module")
def rot_res():
    return solve_resonance(ROTATING_PLUS, 1.0, 2, 1)


class TestContourSpec:
    def test_validation(self, inner_res):
        with pytest.raises(ValueError):
            ContourSpec(center=1j, radius=0.0)
        for center, radius in ((1j, math.nan), (1j, math.inf), (complex(math.nan, 1.0), 0.1)):
            with pytest.raises(ValueError):
                ContourSpec(center=center, radius=radius)
        with pytest.raises(ValueError):
            default_contour(inner_res, math.nan)

    def test_radius_bound_enforced(self, inner_res):
        bound = admissible_radius(inner_res.orbit)
        spec = ContourSpec(
            center=2.0 * inner_res.modulus.K + 1j * inner_res.modulus.K_prime,
            radius=bound * 1.5,
        )
        with pytest.raises(SingleEnclosureViolation):
            contour_kernels(inner_res, spec)

    def test_excluded_line_enforced(self, inner_res):
        spec = ContourSpec(
            center=0.05 + 1j * inner_res.modulus.K_prime, radius=0.1
        )
        with pytest.raises(SingleEnclosureViolation):
            contour_kernels(inner_res, spec)

    def test_default_contour_is_admissible(self, inner_res, rot_res):
        for r in (inner_res, rot_res):
            spec = default_contour(r)
            assert spec.radius < admissible_radius(r.orbit)

    def test_default_contour_center_past_the_float_range_is_named(self):
        # rotating m/n ~ 1 solves, but its center 4 n k K overflows
        n = 5 * 10**307
        r = solve_resonance("rotating+", 1.0, n + 1, n)
        with pytest.raises(ResidueOverflowError, match=r"contour center \(inf\+"):
            default_contour(r)


class TestContourIntegrals:
    def test_inner_matches_closed_form(self, inner_res):
        num = contour_kernels(inner_res, default_contour(inner_res)).value(0.4, 1.0, 0.7)
        closed = contour_integral_closed(inner_res, 0.4, beta=1.0)
        assert abs(num - closed.value) <= 1e-9

    def test_rotating_matches_closed_form(self, rot_res):
        num = contour_kernels(rot_res, default_contour(rot_res)).value(1.1, 2.0, 0.3)
        closed = contour_integral_closed(rot_res, 1.1, beta=2.0)
        assert abs(num - closed.value) <= 1e-9

    def test_rotating_minus_flips_sign(self):
        rp = solve_resonance(ROTATING_PLUS, 1.0, 2, 1)
        rm = solve_resonance(ROTATING_MINUS, 1.0, 2, 1)
        vp = contour_integral_closed(rp, 0.3, 1.0).value
        vm = contour_integral_closed(rm, 0.3, 1.0).value
        assert vm == pytest.approx(-vp)

    def test_theta_structure(self, inner_res):
        # real at theta = 0, purely imaginary at theta = pi/2
        v0 = contour_integral_closed(inner_res, 0.0, 1.0).value
        v1 = contour_integral_closed(inner_res, math.pi / 2.0, 1.0).value
        assert v0.imag == 0.0
        assert v1.real == pytest.approx(0.0, abs=1e-12)
        arg = inner_res.omega * inner_res.modulus.K_prime
        assert v0.real == pytest.approx(4.0 * math.pi * math.cosh(arg))
        assert v1.imag == pytest.approx(-4.0 * math.pi * math.sinh(arg))

    def test_radius_independence(self, inner_res):
        vals = []
        for frac in (0.05, 0.2):
            spec = default_contour(inner_res, radius_fraction=frac)
            vals.append(contour_kernels(inner_res, spec, tol=1e-10).value(0.8, 1.0, 0.0))
        assert abs(vals[0] - vals[1]) <= 1e-9

    def test_damping_independence(self, inner_res):
        ker = contour_kernels(inner_res, default_contour(inner_res), tol=1e-10)
        assert abs(ker.damping_kernel) <= 1e-10
        a = ker.value(0.8, 1.0, 0.0)
        b = ker.value(0.8, 1.0, 5.0)
        assert abs(a - b) <= 1e-9

    def test_kernels_reused_across_theta(self, inner_res):
        spec = default_contour(inner_res)
        ker = contour_kernels(inner_res, spec, tol=1e-10)
        for th in (0.0, 0.9, 2.2):
            num = ker.value(th, 1.0, 0.0)
            closed = contour_integral_closed(inner_res, th, 1.0)
            assert abs(num - closed.value) <= 1e-9


    def test_kernel_value_scalar_and_array(self, inner_res):
        spec = default_contour(inner_res)
        ker = contour_kernels(inner_res, spec, tol=1e-10)
        thetas = np.array([0.0, 0.9, 2.2])
        scalar = [ker.value(th, 0.7, 0.4) for th in thetas]
        assert np.allclose(ker.value(thetas, 0.7, 0.4), scalar, rtol=1e-15, atol=0.0)


class TestLaurentProbe:
    def test_cn_residue_radius_independent(self):
        mod = EllipticModulus.from_k(0.7)
        out = laurent_probe(lambda tri, t: tri.cn, mod, [0.05, 0.2, 0.5])
        for residue, _ in out:
            assert abs(residue - (-1j / 0.7)) <= 1e-10

    def test_dn_residue(self):
        mod = EllipticModulus.from_k(0.4)
        (residue, _), = laurent_probe(lambda tri, t: tri.dn, mod, [0.3])
        assert abs(residue - (-1j)) <= 1e-10

    def test_cn_squared_residue_vanishes(self):
        mod = EllipticModulus.from_k(0.6)
        (residue, constant), = laurent_probe(lambda tri, t: tri.cn**2, mod, [0.2])
        assert abs(residue) <= 1e-10
        # even double pole: the a_0 moment picks up the 1/t^2 part too,
        # so only the residue is radius-stable for cn^2
        (residue2, _), = laurent_probe(lambda tri, t: tri.cn**2, mod, [0.4])
        assert abs(residue2) <= 1e-10

    def test_forcing_kernel_constants(self):
        mod = EllipticModulus.from_k(0.6)
        omega = 1.3
        (_, c_cos), = laurent_probe(lambda tri, t: np.cos(omega * t), mod, [0.2])
        (_, c_sin), = laurent_probe(lambda tri, t: np.sin(omega * t), mod, [0.2])
        assert abs(c_cos - math.cosh(omega * mod.K_prime)) <= 1e-10
        assert abs(c_sin - 1j * math.sinh(omega * mod.K_prime)) <= 1e-10

    def test_product_kernel_residues(self):
        # residues of cn * cos and cn * sin combine the cn residue with
        # the analytic factor's value at the pole
        mod = EllipticModulus.from_k(0.6)
        omega = 0.9
        (res_cc, _), = laurent_probe(lambda tri, t: tri.cn * np.cos(omega * t), mod, [0.2])
        (res_sc, _), = laurent_probe(lambda tri, t: tri.cn * np.sin(omega * t), mod, [0.2])
        expect_cc = (-1j / mod.k) * math.cosh(omega * mod.K_prime)
        expect_sc = (-1j / mod.k) * 1j * math.sinh(omega * mod.K_prime)
        assert abs(res_cc - expect_cc) <= 1e-9
        assert abs(res_sc - expect_sc) <= 1e-9

    def test_validation(self):
        mod = EllipticModulus.from_k(0.6)
        with pytest.raises(SingleEnclosureViolation):
            laurent_probe(lambda tri, t: tri.cn, mod, [100.0])

    # 3,000 random draws over this domain erred by at most 2.8e-15 (relative to
    # 1/k for cn and to cosh(omega K') for the constants); the bound is 1e-13
    @settings(max_examples=100)
    @given(k=st.floats(0.05, 0.99), fraction=st.floats(0.01, 0.99), omega=st.floats(0.0, 3.0))
    def test_residues_and_constants_over_k_radius_and_omega(self, k, fraction, omega):
        mod = EllipticModulus.from_k(k)
        radius = fraction * admissible_radius(OrbitFamily(INNER, mod))
        (res_cn, _), = laurent_probe(lambda tri, t: tri.cn, mod, [radius])
        (res_dn, _), = laurent_probe(lambda tri, t: tri.dn, mod, [radius])
        (_, c_cos), = laurent_probe(lambda tri, t: np.cos(omega * t), mod, [radius])
        (_, c_sin), = laurent_probe(lambda tri, t: np.sin(omega * t), mod, [radius])
        cosh = math.cosh(omega * mod.K_prime)
        assert abs(res_cn - (-1j / k)) <= 1e-13 / k
        assert abs(res_dn - (-1j)) <= 1e-13
        assert abs(c_cos - cosh) <= 1e-13 * cosh
        assert abs(c_sin - 1j * math.sinh(omega * mod.K_prime)) <= 1e-13 * cosh


class TestSubstitutionCheck:
    def test_small_discrepancy_on_valid_path(self):
        mod = EllipticModulus.from_k(0.6)
        assert substitution_check(mod, 0.2, 0.8 * mod.K) <= 1e-8

    def test_degenerate_interval(self):
        mod = EllipticModulus.from_k(0.6)
        assert substitution_check(mod, 0.5, 0.5) == 0.0

    def test_path_domain_enforced(self):
        mod = EllipticModulus.from_k(0.6)
        with pytest.raises(ValueError):
            substitution_check(mod, -0.1, 0.5)
        with pytest.raises(ValueError):
            substitution_check(mod, 0.1, mod.K + 0.1)


def test_overflowing_residue_raises_a_typed_error():
    r = solve_resonance(INNER, 460.0, 501, 1)  # cosh(omega K') overflows
    with pytest.raises(ResidueOverflowError, match="overflows"):
        contour_integral_closed(r, 0.0, 1.0)


def test_overflowing_residue_value_raises_a_typed_error(inner_res):
    # cosh(omega K') is finite, 4 pi beta cosh(omega K') is not
    with pytest.raises(ResidueOverflowError, match=r"\(inf\+nanj\)"):
        contour_integral_closed(inner_res, 0.0, 1e308)
