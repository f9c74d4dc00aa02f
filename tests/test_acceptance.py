"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria (tolerances in parentheses):
  1. Jacobi/Legendre identities (1e-12 real, 1e-10 complex).
  2. Subharmonic quadrature vs closed forms, all coprime m,n <= 7 (1e-8).
  3. Homoclinic quadrature vs closed form over a parameter grid (1e-8).
  4. Chaos threshold boolean vs simple-zero existence (exact, margin 1e-6).
  5. Contour integrals vs residue closed forms; radius/damping
     independence; Laurent residues and constants (1e-7 .. 1e-10).
  6. Subharmonic curves converge to the homoclinic limits (monotone gaps).
  7. Contour integral magnitudes stay above the closed-form lower bound.
  8. Stroboscopic-map fixed points exist at O(eps) distance when a simple
     zero exists, and the scaling check fails on the negative control.
  9. Certificate applicability pattern over the three example rows.
"""

import itertools
import math

import numpy as np
import pytest

from melnikov_lab.certificate import build_certificate
from melnikov_lab.contour import (
    contour_integral_closed,
    contour_kernels,
    default_contour,
    laurent_probe,
)
from melnikov_lab.elliptic import EllipticModulus, jacobi_complex, jacobi_real, pole_distance
from melnikov_lab.melnikov import (
    chaos_condition,
    closed_form_homoclinic,
    closed_form_subharmonic,
    homoclinic_quadrature,
    simple_zeros,
    solve_resonance,
    subharmonic_quadrature,
)
from melnikov_lab.pendulum import INNER, ROTATING_MINUS, ROTATING_PLUS, pendulum_system
from melnikov_lab.poincare import find_subharmonic, scaling_band
from oracles import homoclinic_limit_check

THETA16 = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)

# five n=1 resonances per family at omega=1 used by criteria 5-7
FAMILY_M_LISTS = (
    (INNER, (3, 5, 7, 9, 11)),
    (ROTATING_PLUS, (1, 2, 3, 4, 5)),
    (ROTATING_MINUS, (1, 2, 3, 4, 5)),
)


def test_criterion_1_special_function_identities():
    rng = np.random.default_rng(20260823)
    worst_real = 0.0
    for _ in range(1000):
        k = rng.uniform(0.01, 0.99)
        t = rng.uniform(-30.0, 30.0)
        mod = EllipticModulus.from_k(k)
        tri = jacobi_real(t, mod)
        worst_real = max(
            worst_real,
            abs(tri.sn**2 + tri.cn**2 - 1.0),
            abs(tri.dn**2 + (k * tri.sn) ** 2 - 1.0),
        )
    assert worst_real <= 1e-12

    worst_cplx = 0.0
    done = 0
    while done < 200:
        k = rng.uniform(0.05, 0.95)
        mod = EllipticModulus.from_k(k)
        t = complex(rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0))
        if pole_distance(t, mod) < 1e-2:
            continue
        tri = jacobi_complex(t, mod)
        worst_cplx = max(
            worst_cplx,
            abs(tri.sn**2 + tri.cn**2 - 1.0),
            abs(tri.dn**2 + (k * tri.sn) ** 2 - 1.0),
        )
        done += 1
    assert worst_cplx <= 1e-10

    worst_leg = 0.0
    for k in np.linspace(0.02, 0.98, 50):
        mod = EllipticModulus.from_k(float(k))
        comp = mod.complement()
        legendre = mod.E * mod.K_prime + comp.E * mod.K - mod.K * mod.K_prime
        worst_leg = max(worst_leg, abs(legendre - math.pi / 2.0))
    assert worst_leg <= 1e-12
    print(
        f"\nPASS criterion 1: identities real {worst_real:.2e} complex "
        f"{worst_cplx:.2e} legendre {worst_leg:.2e}"
    )


def test_criterion_2_subharmonic_oracle_equivalence():
    worst = 0.0
    tested = 0
    for omega in (0.8, 1.0, 1.5):
        sys = pendulum_system(1.0, 1.0, omega)
        for m, n in itertools.product(range(1, 8), range(1, 8)):
            if math.gcd(m, n) != 1:
                continue
            for tag in (INNER, ROTATING_PLUS, ROTATING_MINUS):
                r = solve_resonance(tag, omega, m, n)
                if r is None:
                    continue
                curve = closed_form_subharmonic(r, 1.0, 1.0)
                sup = max(
                    abs(subharmonic_quadrature(sys, r, float(th)) - curve.evaluate(float(th)))
                    for th in THETA16
                )
                worst = max(worst, sup)
                tested += 1
    assert tested > 100
    assert worst <= 1e-8

    # parity-zero forcing terms vanish in absolute value (delta = 0)
    sys0 = pendulum_system(1.0, 0.0, 1.0)
    worst_zero = 0.0
    for tag, m, n in (
        (INNER, 4, 1),
        (INNER, 6, 1),
        (INNER, 5, 2),
        (ROTATING_PLUS, 3, 2),
        (ROTATING_MINUS, 5, 3),
    ):
        r = solve_resonance(tag, 1.0, m, n)
        assert r is not None
        worst_zero = max(
            worst_zero,
            max(abs(subharmonic_quadrature(sys0, r, float(th))) for th in THETA16),
        )
    assert worst_zero <= 1e-8

    # the damping coefficient scales with n, not m: quadrature breaks the
    # tie between the two candidate closed forms wherever m != n
    r = solve_resonance(INNER, 1.0, 5, 3)
    sys_d = pendulum_system(0.0, 1.0, 1.0)
    quad = subharmonic_quadrature(sys_d, r, 0.0)
    with_n = closed_form_subharmonic(r, 0.0, 1.0, j1_arg="n").evaluate(0.0)
    with_m = closed_form_subharmonic(r, 0.0, 1.0, j1_arg="m").evaluate(0.0)
    assert abs(quad - with_n) <= 1e-8
    assert abs(quad - with_m) > 1.0
    print(
        f"\nPASS criterion 2: {tested} resonances sup {worst:.2e}, "
        f"parity-zero {worst_zero:.2e}, damping count = n"
    )


def test_criterion_3_homoclinic_oracle_equivalence():
    worst = 0.0
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    for beta, delta in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
        for omega in (0.5, 1.0, 2.0):
            sys = pendulum_system(beta, delta, omega)
            for sign in (+1, -1):
                curve = closed_form_homoclinic(sign, beta, delta, omega)
                for th in thetas:
                    q = homoclinic_quadrature(sys, sign, float(th))
                    worst = max(worst, abs(q - curve.evaluate(float(th))))
    assert worst <= 1e-8
    print(f"\nPASS criterion 3: homoclinic quadrature vs closed form {worst:.2e}")


def test_criterion_4_chaos_threshold_consistency():
    rng = np.random.default_rng(1234)
    checked = 0
    while checked < 100:
        beta = rng.uniform(0.0, 20.0)
        delta = rng.uniform(0.05, 2.0)
        omega = rng.uniform(0.2, 2.0)
        verdict = chaos_condition(beta, delta, omega)
        if abs(verdict.ratio - 1.0) < 1e-6:
            continue
        analysis = simple_zeros(closed_form_homoclinic(+1, beta, delta, omega))
        assert verdict.holds == analysis.has_simple_zero
        checked += 1
    print(f"\nPASS criterion 4: chaos boolean == simple-zero existence on {checked} samples")


def test_criterion_5_contour_residue_equivalence():
    worst_match = worst_radius = worst_delta = worst_damp = 0.0
    for tag, m_list in FAMILY_M_LISTS:
        for m in m_list:
            r = solve_resonance(tag, 1.0, m, 1)
            vals_by_radius = []
            for frac in (0.05, 0.15, 0.25):
                spec = default_contour(r, radius_fraction=frac)
                ker = contour_kernels(r, spec, tol=1e-10)
                worst_damp = max(worst_damp, abs(ker.damping_kernel))
                for th in THETA16:
                    num = ker.value(float(th), 1.0, 0.3)
                    closed = contour_integral_closed(r, float(th), 1.0)
                    worst_match = max(worst_match, abs(num - closed.value))
                    num0 = ker.value(float(th), 1.0, 0.0)
                    worst_delta = max(worst_delta, abs(num - num0))
                vals_by_radius.append(ker.value(0.0, 1.0, 0.0))
            worst_radius = max(
                worst_radius, max(abs(v - vals_by_radius[0]) for v in vals_by_radius)
            )
    assert worst_match <= 1e-8
    assert worst_radius <= 1e-8
    assert worst_delta <= 1e-9
    assert worst_damp <= 1e-10

    worst_probe = 0.0
    for k in (0.3, 0.6, 0.9):
        mod = EllipticModulus.from_k(k)
        for radius in (0.1, 0.3):
            (res_cn, _), = laurent_probe("cn", mod, [radius])
            (res_dn, _), = laurent_probe("dn", mod, [radius])
            (_, const_cos), = laurent_probe("cos", mod, [radius], omega=1.0)
            (_, const_sin), = laurent_probe("sin", mod, [radius], omega=1.0)
            worst_probe = max(
                worst_probe,
                abs(res_cn - (-1j / k)),
                abs(res_dn - (-1j)),
                abs(const_cos - math.cosh(mod.K_prime)),
                abs(const_sin - 1j * math.sinh(mod.K_prime)),
            )
    assert worst_probe <= 1e-7
    print(
        f"\nPASS criterion 5: contour match {worst_match:.2e} radius-indep "
        f"{worst_radius:.2e} delta-indep {worst_delta:.2e} damping kernel "
        f"{worst_damp:.2e} laurent {worst_probe:.2e}"
    )


def test_criterion_6_homoclinic_limit():
    theta_grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    gaps_by_family = {}
    for tag, m_list in (
        (INNER, (3, 5, 7, 9, 11)),
        (ROTATING_PLUS, (1, 2, 3, 4, 5)),
        (ROTATING_MINUS, (1, 2, 3, 4, 5)),
    ):
        gaps = homoclinic_limit_check(tag, 1.0, 1.0, 1.0, m_list, theta_grid)
        assert all(b < a for a, b in zip(gaps, gaps[1:])), (tag, gaps)
        assert gaps[-1] < 1e-8
        gaps_by_family[tag] = gaps
    print(
        "\nPASS criterion 6: gaps decrease "
        + "; ".join(
            f"{tag} {gaps[0]:.1e}->{gaps[-1]:.1e}" for tag, gaps in gaps_by_family.items()
        )
    )


def test_criterion_7_contour_lower_bound():
    beta = 1.0
    worst_margin = math.inf
    for tag, m_list in FAMILY_M_LISTS:
        for m in m_list:
            r = solve_resonance(tag, 1.0, m, 1)
            mod = r.modulus
            arg = (
                r.omega * mod.K_prime
                if tag == INNER
                else r.omega * mod.k * mod.K_prime
            )
            lower = 4.0 * math.pi * beta * min(1.0, math.sinh(arg))
            ker = contour_kernels(r, default_contour(r), tol=1e-10)
            min_abs = min(abs(ker.value(float(th), beta, 0.0)) for th in THETA16)
            assert min_abs > 0.0
            assert min_abs >= lower * (1.0 - 1e-8)
            worst_margin = min(worst_margin, min_abs / lower)
    print(f"\nPASS criterion 7: min|integral| above bound, tightest ratio {worst_margin:.6f}")


def test_criterion_8_stroboscopic_scaling():
    r = solve_resonance(INNER, 1.0, 3, 1)
    theta0 = math.pi / 2.0
    eps_list = [1e-3, 5e-4, 2.5e-4]

    sys = pendulum_system(1.0, 0.0, 1.0)
    assert simple_zeros(closed_form_subharmonic(r, 1.0, 0.0)).has_simple_zero
    distances = []
    for eps in eps_list:
        res = find_subharmonic(sys, eps, r, theta0)
        assert res.converged
        assert res.residual <= 1e-10
        distances.append(res.distance_to_unperturbed)
    ok, ratios = scaling_band(eps_list, distances, band=2.0)
    assert ok, ratios

    # negative control: damping strong enough to remove every zero
    mod = r.modulus
    coeff = closed_form_subharmonic(r, 1.0, 0.0).cos_coeff
    delta_neg = 2.0 * coeff / (16.0 * (mod.E - mod.k_prime**2 * mod.K))
    curve_neg = closed_form_subharmonic(r, 1.0, delta_neg)
    assert not simple_zeros(curve_neg).has_simple_zero
    sys_neg = pendulum_system(1.0, delta_neg, 1.0)
    neg_ok = True
    neg_dists = []
    for eps in eps_list[:2]:
        res = find_subharmonic(sys_neg, eps, r, theta0)
        neg_ok = neg_ok and res.converged and res.residual <= 1e-10
        neg_dists.append(res.distance_to_unperturbed)
    if neg_ok:
        # no convergence failure: the surviving invariant set must not
        # scale like the O(eps) subharmonic of the positive control
        neg_ok = all(d / e <= 2.0 * max(ratios) for d, e in zip(neg_dists, eps_list))
    assert not neg_ok
    print(
        f"\nPASS criterion 8: scaling ratios {[f'{x:.5f}' for x in ratios]}, "
        "negative control fails as required"
    )


def test_criterion_9_certificate_pattern():
    expected = {
        (1.0, 1.0): ("applies", "applies", "applies", False),
        (0.0, 1.0): ("applies", "inconclusive", "inconclusive", False),
        (1.0, 0.0): ("inconclusive", "applies", "applies", True),
    }
    for (beta, delta), want in expected.items():
        cert = build_certificate(beta, delta, 1.0, m_max=5, n_max=2, verify=True)
        got = (
            cert["prop_4a"]["status"],
            cert["prop_4b"]["status"],
            cert["prop_4c"]["status"],
            cert["chaos"]["condition_holds"],
        )
        assert got == want, (beta, delta, got, want)
        for rec in cert["prop_4a"]["witness"]["resonances"]:
            if "quadrature_agrees" in rec:
                assert rec["quadrature_agrees"]
        for rec in cert["prop_4c"]["witness"]["contour_integrals"]:
            if "numeric_check_diff" in rec:
                assert rec["numeric_check_diff"] <= 1e-6
    print("\nPASS criterion 9: certificate pattern matches on all three rows")
