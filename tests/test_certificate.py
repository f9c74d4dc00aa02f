"""Which curves a certificate checks by quadrature.

Per family, the first curve with m <= 5 that witnesses a proposition is
verified: a nonconstant curve when beta > 0 (prop 4b), otherwise a nonzero
one (prop 4a).  A curve whose cosine coefficient is exactly 0 witnesses
nothing under forcing, so verifying it would leave prop 4b unchecked.
"""

import pytest

from melnikov_lab.certificate import build_certificate


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
