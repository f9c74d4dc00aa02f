"""Which curves a certificate checks by quadrature.

Per family, the first curve with m <= 5 that witnesses a proposition is
verified: a nonconstant curve when beta > 0 (prop 4b), otherwise a nonzero
one (prop 4a).  A curve whose cosine coefficient is exactly 0 witnesses
nothing under forcing, so verifying it would leave prop 4b unchecked.
The check compares quadrature and closed curve at theta = 0 and pi/2, so
a wrong sin kernel fails it as a wrong cos kernel does.
"""

import dataclasses

import pytest

from melnikov_lab.certificate import _contour_record, _curve_record, build_certificate
from melnikov_lab.melnikov import ResidueOverflowError, solve_resonance
from melnikov_lab.pendulum import INNER, ROTATING_PLUS


def _witnesses(cert, beta):
    if beta > 0:
        return cert["prop_4b"]["witness"]["nonconstant_curves"]
    return cert["prop_4a"]["witness"]["resonances"]


@pytest.mark.parametrize(
    "beta, delta, omega",
    [(1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 0.8), (0.6, 1.7, 1.4)],
)
def test_each_family_with_a_witness_has_one_verified_witness(beta, delta, omega):
    cert = build_certificate(beta, delta, omega)
    witnesses = _witnesses(cert, beta)
    verified = [rec for rec in witnesses if "quadrature_agrees" in rec]
    families = {rec["family"] for rec in witnesses if rec["m"] <= 5}
    assert families
    assert sorted(rec["family"] for rec in verified) == sorted(families)
    assert all(rec["quadrature_agrees"] for rec in verified)
    # no curve that witnesses nothing is verified
    kind = "nonconstant" if beta > 0 else "nonzero"
    for rec in cert["prop_4a"]["witness"]["resonances"]:
        assert rec[kind] or "quadrature_agrees" not in rec


def test_forced_certificate_verifies_a_nonconstant_witness_per_family():
    cert = build_certificate(1.0, 1.0, 1.0)
    verified = {
        rec["family"]: (rec["m"], rec["n"])
        for rec in cert["prop_4b"]["witness"]["nonconstant_curves"]
        if rec.get("quadrature_agrees")
    }
    assert verified == {"inner": (3, 1), "rotating+": (1, 1), "rotating-": (1, 1)}


def test_no_witness_no_verification():
    cert = build_certificate(0.0, 0.0, 1.0)
    assert cert["prop_4a"]["witness"]["resonances"] == []
    assert cert["prop_4b"]["witness"]["nonconstant_curves"] == []


def test_no_contour_record_leaves_prop_4c_inconclusive():
    # at omega = 0.01 every resonant modulus lies beyond K_WINDOW
    cert = build_certificate(1.0, 1.0, 0.01)
    assert cert["prop_4c"]["witness"]["contour_integrals"] == []
    assert not cert["prop_4c"]["applies"]
    assert cert["prop_4c"]["status"] == "inconclusive"


def test_certificates_use_the_quadrature_confirmed_damping_count():
    # quadrature confirms j1 = 16 n (E - k'^2 K); no option writes the other reading
    assert build_certificate(1.0, 1.0, 1.0, m_max=3)["conventions"]["j1_arg"] == "n"
    with pytest.raises(TypeError):
        build_certificate(1.0, 1.0, 1.0, j1_arg="m")


@pytest.mark.parametrize("beta, delta", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)])
def test_status_is_applies_exactly_when_the_proposition_applies(beta, delta):
    cert = build_certificate(beta, delta, 1.0, m_max=5, verify=False)
    for prop in ("prop_4a", "prop_4b", "prop_4c"):
        applies = cert[prop]["applies"]
        assert cert[prop]["status"] == ("applies" if applies else "inconclusive")
        hypothesis = delta > 0 if prop == "prop_4a" else beta > 0
        assert hypothesis or not applies


@pytest.mark.parametrize("family, m", [(INNER, 3), (ROTATING_PLUS, 1)])
@pytest.mark.parametrize("kernel", ["cos_kernel", "sin_kernel"])
def test_a_perturbed_kernel_fails_the_quadrature_check(family, m, kernel):
    r = solve_resonance(family, 1.0, m, 1)
    assert _curve_record(r, 1.0, 1.0, True)["quadrature_agrees"]
    perturbed = getattr(r.kernels, kernel) + 1e-3
    # Resonance.kernels is a cached_property: replace the cached pass
    r.__dict__["kernels"] = dataclasses.replace(r.kernels, **{kernel: perturbed})
    assert _curve_record(r, 1.0, 1.0, True)["quadrature_agrees"] is False


def test_quadrature_at_0_is_the_scalar_quadrature():
    r = solve_resonance(INNER, 1.0, 3, 1)
    rec = _curve_record(r, 0.7, 1.3, True)
    assert rec["quadrature_at_0"] == r.kernels.value(0.0, 0.7, 1.3)


def test_overflowing_residue_raises_residue_overflow_error():
    # x = omega K' ~ 720 at inner 501/1, omega = 460: cosh and sinh overflow
    r = solve_resonance(INNER, 460.0, 501, 1)
    with pytest.raises(ResidueOverflowError, match="overflows"):
        _contour_record(r, 1.0, False)


def test_overflowing_contour_minimum_raises_residue_overflow_error():
    # sinh(omega K') is finite at inner 3/1, 4 pi beta sinh(omega K') is not
    with pytest.raises(ResidueOverflowError, match="least contour integral inf"):
        build_certificate(1e308, 0.0, 1.0, verify=False)
